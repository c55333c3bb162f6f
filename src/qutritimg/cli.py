"""Command-line pipeline: encode, simulate, decode, roundtrip, diagram."""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from functools import cache
from pathlib import Path

from .decode import CODECS
from .images import read_pgm, read_ppm, write_pgm, write_ppm
from .metrics import mae, psnr
from .simulator import (
    circuit_from_json,
    circuit_to_json,
    diagram,
    histogram_from_csv,
    histogram_to_csv,
    probabilities,
    probabilities_from_csv,
    probabilities_to_csv,
    run,
    sample,
)


def _read_image(codec, path: Path):
    data = path.read_bytes()
    return read_pgm(data) if codec.gray else read_ppm(data)


def _write_image(codec, image, path: Path):
    path.write_bytes(write_pgm(image) if codec.gray else write_ppm(image))


def _load_counts(path: Path):
    """(qutrits, counts) of a histogram or exact-probability CSV, by header."""
    text = path.read_text(encoding="utf-8-sig")
    header = next(filter(str.strip, text.splitlines()), "").strip()
    if header == "state,probability":
        return probabilities_from_csv(text)
    hist = histogram_from_csv(text)
    return hist.num_qutrits, hist


def cmd_encode(args) -> int:
    codec = CODECS[args.method]
    enc = codec.encode(_read_image(codec, Path(args.input)))
    out = Path(args.out)
    for k, circuit in enumerate(codec.measure(enc)):
        path = out.with_suffix(f".m{k + 1}.json") if k else out
        path.write_text(circuit_to_json(circuit))
    return 0


def cmd_simulate(args) -> int:
    circuit = circuit_from_json(Path(args.circuit).read_text(encoding="utf-8-sig"))
    state = run(circuit)
    out = Path(args.out)
    if args.exact:
        out.write_text(probabilities_to_csv(circuit.num_qutrits, probabilities(state)))
        return 0
    if args.shots is None:
        raise ValueError("--shots is required unless --exact is given")
    hist = sample(state, args.shots, args.seed)
    out.write_text(histogram_to_csv(hist))
    return 0


def _report_dict(method: str, n: int, report) -> dict:
    return {
        "method": method,
        "n": n,
        "shots": report.shots_used,
        "clip_events": report.clip_events,
        "missing_states": [list(entry) for entry in report.missing_states],
    }


def cmd_decode(args) -> int:
    codec = CODECS[args.method]
    paths = [args.hist, args.hist2, args.hist3]
    if None in paths[: codec.histograms]:
        raise ValueError(f"{codec.name} decoding needs --hist2 and --hist3")
    for k in range(codec.histograms, 3):
        if paths[k] is not None:
            raise ValueError(f"--hist{k + 1} given, but {codec.name} decodes one histogram")
    widths, hists = zip(*(_load_counts(Path(p)) for p in paths[: codec.histograms]))
    n = codec.n_from_qutrits(widths[0])
    if args.n is not None and args.n != n:
        raise ValueError(
            f"--n {args.n} does not match n = {n} of the {widths[0]}-qutrit histogram"
        )
    report = codec.decode(*hists, n)
    _write_image(codec, report.image, Path(args.out))
    if args.report:
        Path(args.report).write_text(
            json.dumps(_report_dict(args.method, n, report), indent=2)
        )
    return 0


def cmd_roundtrip(args) -> int:
    codec = CODECS[args.method]
    image = _read_image(codec, Path(args.input))
    timings = dict.fromkeys(("encode", "run", "sample", "decode"), 0.0)
    faults = dict.fromkeys(timings, 0)

    def timed(stage, func, *func_args):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        result = func(*func_args)
        timings[stage] += (time.perf_counter() - start) * 1e3
        faults[stage] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        return result

    enc = timed("encode", codec.encode, image)
    circuits = timed("encode", codec.measure, enc)
    hists = []
    for k, circuit in enumerate(circuits):
        state = timed("run", run, circuit)
        hists.append(timed("sample", sample, state, args.shots, args.seed + k))
    report = timed("decode", codec.decode, *hists, enc.n)
    ext = ".pgm" if codec.gray else ".ppm"
    out = Path(args.out) if args.out else Path(args.report).with_suffix(ext)
    _write_image(codec, report.image, out)
    error = mae(image, report.image)
    ratio = psnr(image, report.image)
    doc = _report_dict(args.method, enc.n, report)
    doc.update(
        {
            "seed": args.seed,
            "mae": error,
            "psnr": None if math.isinf(ratio) else ratio,
            "exact_match": image == report.image,
        }
    )
    if args.diagnostics:
        doc.update(
            {
                "timings_ms": timings,
                "minor_faults": faults,
                "ops": sum(len(blk.entries) for c in circuits for blk in c.blocks),
                "qutrits": state.num_qutrits,
                "state_bytes": state.amplitudes.nbytes,
            }
        )
    Path(args.report).write_text(json.dumps(doc, indent=2))
    return 0


def cmd_diagram(args) -> int:
    circuit = circuit_from_json(Path(args.circuit).read_text(encoding="utf-8-sig"))
    sys.stdout.write(diagram(circuit))
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Its `func` defaults are the
    cmd_* functions, which look up what they call as module globals on
    every call."""
    parser = argparse.ArgumentParser(
        prog="qutritimg",
        description="Encode images into qutrit circuits, simulate, and decode.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    method_kwargs = {"choices": sorted(CODECS), "required": True}

    enc = sub.add_parser("encode", help="image file to circuit JSON")
    enc.add_argument("--method", **method_kwargs)
    enc.add_argument("--input", required=True, help="PGM (fqri) or PPM input")
    enc.add_argument("--out", required=True, help="circuit JSON output path")
    enc.set_defaults(func=cmd_encode)

    sim = sub.add_parser("simulate", help="circuit JSON to histogram CSV")
    sim.add_argument("--circuit", required=True)
    sim.add_argument("--shots", type=int, default=None)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.add_argument("--exact", action="store_true", help="write exact probabilities")
    sim.set_defaults(func=cmd_simulate)

    dec = sub.add_parser("decode", help="histogram CSV to image file")
    dec.add_argument("--method", **method_kwargs)
    dec.add_argument("--hist", required=True)
    dec.add_argument("--hist2", help="second measurement histogram (fqrqci)")
    dec.add_argument("--hist3", help="third measurement histogram (fqrqci)")
    dec.add_argument("--n", type=int, help="image exponent (side = 3^n); inferred "
                     "from the histogram width, checked against it if given")
    dec.add_argument("--out", required=True, help="decoded image path")
    dec.add_argument("--report", help="decode report JSON path")
    dec.set_defaults(func=cmd_decode)

    rt = sub.add_parser("roundtrip", help="encode, simulate and decode in one go")
    rt.add_argument("--method", **method_kwargs)
    rt.add_argument("--input", required=True)
    rt.add_argument("--shots", type=int, required=True)
    rt.add_argument("--seed", type=int, default=0)
    rt.add_argument("--report", required=True, help="report JSON path")
    rt.add_argument("--out", help="decoded image path (default: next to report)")
    rt.add_argument("--diagnostics", action="store_true",
                    help="add stage timings (timings_ms), the minor page faults of "
                         "each stage (minor_faults) and the register size (ops, "
                         "qutrits, state_bytes) to the report")
    rt.set_defaults(func=cmd_roundtrip)

    dia = sub.add_parser("diagram", help="print a text diagram of a circuit")
    dia.add_argument("--circuit", required=True)
    dia.set_defaults(func=cmd_diagram)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
