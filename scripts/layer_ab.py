"""Time circuit JSON, op view, gate matrix, `run`, image and decode calls of two source trees call by call.

    python3 scripts/layer_ab.py PARENT_DIR CHANGE_DIR [--repeats N]

Each directory is the root of a checkout of this repository.  Its package
`src/qutritimg` is imported under a name of its own, so both trees run in
one process: `parent`, `change`, and the parent tree once more as
`parent_copy`, an A/A control whose spread from `parent` is the noise of
the method.  A drift in the host's speed hits every side alike.

The circuits are the staged ones of the `staged-cli-27` workload: `fqri`,
`fqrri`, the three `fqrqci` circuits (`.m1` to `.m3`) and `mcqri` at
27x27, and `qrciq` at 9x9; and `qrciq` at 27x27, the circuit of the
`roundtrip-qrciq-27` workload.  Each is drawn from one uniform-noise
image per codec with seed `SEED`.  `fqrqci-27.all` takes the three
`fqrqci` circuits one after the other, as `encode` writes them.
Five calls are timed per circuit: `write`, `circuit_to_json`; `read`,
`circuit_from_json` of the written text; `ops`, the flat op view
`Circuit.ops`; `matrices`, `gate_matrices` of each block's gates; and
`run`, the statevector of each circuit.  Every write renders blocks that
no write has rendered before and every `ops` builds a view that no call
has built before: a copy of each circuit, and for a write of each block,
is made outside the timed call.  The label `images` times three calls on
one 27x27 RGB image of seed `SEED` and its first channel as a gray image:
`write`, `write_ppm` and `write_pgm`; `read`, `read_ppm` and `read_pgm`
of the written bytes; and `construct`, `RgbImage` and `GrayImage` of the
uint8 pixels, as every decoder builds its image.  The label `decode` times
one call per codec and size, named by its circuit label (`fqrqci-27` for
the three `fqrqci` circuits): the codec's decode of histograms of
`SHOTS` shots of its circuits, seeds `SEED`, `SEED` + 1 and `SEED` + 2,
drawn outside the timed call.
Each iteration times each call once per side, process CPU time, in an
order of sides that rotates by one per iteration, and counts the minor
page faults of the process during the call (`ru_minflt` of
`getrusage(RUSAGE_SELF)`); each side's calls start from a full
collection, so no side pays for garbage that another left.  Every side
must write the same text, which every side then reads, give the same op
view, matrix bytes and amplitude bytes, write, read and build the same
images and decode the same reports.  All sides share one heap, so a
change in what a call allocates, which alters the heap's history and so
the page faults of later calls, shows only when each side runs in a
process of its own.

Prints one JSON object: per circuit and call, per side, the ms per call as
{median, q1, q3} over the iterations, `ratio_to_parent` the median of the
per-iteration ratio to the parent's time, `wins_vs_parent` the
iterations in which that side was faster than the parent, and
`minor_faults` the median minor page faults per call.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib.util
import json
import resource
import sys
import time
from operator import attrgetter
from pathlib import Path

import numpy as np

SEED = 17
SHOTS = 200_000
CIRCUITS = (("fqri", 27), ("fqrri", 27), ("fqrqci", 27), ("mcqri", 27), ("qrciq", 9),
            ("qrciq", 27))


def load(root: Path, name: str):
    """The `qutritimg` package of the checkout at `root`, imported as `name`."""
    init = root / "src" / "qutritimg" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def circuits_of(pkg) -> dict:
    """Label -> tuple of circuits written together, of package `pkg`."""
    out = {}
    for name, side in CIRCUITS:
        codec = pkg.CODECS[name]
        rng = np.random.default_rng(SEED)
        image = (pkg.GrayImage(rng.integers(0, 256, (side, side))) if codec.gray
                 else pkg.RgbImage(rng.integers(0, 256, (side, side, 3))))
        circuits = codec.measure(codec.encode(image))
        label = f"{name}-{side}"
        if len(circuits) == 1:
            out[label] = circuits
            continue
        for k, circuit in enumerate(circuits):
            out[f"{label}.m{k + 1}"] = (circuit,)
        out[f"{label}.all"] = circuits
    return out


def unrendered(pkg, circuits) -> tuple:
    """Copies of `circuits` on copies of their blocks, none rendered yet; a
    block the circuits share stays shared among the copies."""
    copies: dict = {}
    return tuple(pkg.Circuit.from_blocks(c.num_qutrits, [
        copies.setdefault(id(blk), dataclasses.replace(blk)) for blk in c.blocks])
        for c in circuits)


def image_calls(pkg) -> dict:
    """Call -> (function, argument) pairs of the `images` label, of package `pkg`."""
    rgb = np.random.default_rng(SEED).integers(0, 256, (27, 27, 3)).astype(np.uint8)
    gray = rgb[:, :, 0].copy()
    images = pkg.RgbImage(rgb), pkg.GrayImage(gray)
    return {"write": ((pkg.write_ppm, images[0]), (pkg.write_pgm, images[1])),
            "read": ((pkg.read_ppm, pkg.write_ppm(images[0])),
                     (pkg.read_pgm, pkg.write_pgm(images[1]))),
            "construct": ((pkg.RgbImage, rgb), (pkg.GrayImage, gray))}


def apply(job):
    """`function(argument)` of a (function, argument) pair."""
    function, argument = job
    return function(argument)


def image_outputs(calls: dict) -> dict:
    """Per call, what its jobs return: bytes, or an image's kind and pixel bytes."""
    return {call: [out if isinstance(out, bytes) else (type(out).__name__, out.pixels.tobytes())
                   for out in map(apply, jobs)] for call, jobs in calls.items()}


def decode_jobs(pkg, circuits: dict) -> dict:
    """Call -> (decode, histograms, n) of the `decode` label, of package
    `pkg` and its `circuits_of`."""
    jobs = {}
    for name, side in CIRCUITS:
        label = f"{name}-{side}"
        written = circuits.get(label) or circuits[f"{label}.all"]
        codec = pkg.CODECS[name]
        hists = tuple(pkg.sample(pkg.run(c), SHOTS, SEED + k) for k, c in enumerate(written))
        jobs[label] = codec.decode, hists, codec.n_from_qutrits(written[0].num_qutrits)
    return jobs


def decode(job):
    """The report of a (decode, histograms, n) job."""
    function, hists, n = job
    return function(*hists, n)


def report_outputs(jobs: dict) -> dict:
    """Per call, its report: the image's kind and pixel bytes, and the other fields."""
    return {call: (type(report.image).__name__, report.image.pixels.tobytes(),
                   report.clip_events, report.missing_states, report.shots_used)
            for call, report in zip(jobs, map(decode, jobs.values()))}


def matrix_bytes(pkg, circuit) -> list[bytes]:
    return [pkg.gates.gate_matrices(blk.gates).tobytes() for blk in circuit.blocks]


def timed(call, items) -> tuple[int, int]:
    """Process CPU ns and minor page faults of this process during
    `call(item)` for each of `items`, each result dropped at once."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.process_time_ns()
    for item in items:
        call(item)
    ns = time.process_time_ns() - start
    return ns, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def summary(times: dict) -> dict:
    """Per side, ms and faults per call and the per-iteration comparison
    with the parent."""
    base = np.array(times["parent"])[:, 0]
    out = {}
    for side, pairs in times.items():
        ns, faults = np.array(pairs).T
        q1, median, q3 = np.percentile(ns / 1e6, [25, 50, 75])
        out[side] = {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
                     "ratio_to_parent": round(float(np.median(ns / base)), 4),
                     "wins_vs_parent": int((ns < base).sum()),
                     "minor_faults": float(np.median(faults))}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--repeats", type=int, default=60, help="iterations per call")
    args = parser.parse_args(argv)
    sides = {"parent": load(args.parent, "ab_parent"), "change": load(args.change, "ab_change"),
             "parent_copy": load(args.parent, "ab_parent_copy")}
    circuits = {side: circuits_of(pkg) for side, pkg in sides.items()}
    texts = {}
    for label, written in circuits["parent"].items():
        texts[label] = [sides["parent"].circuit_to_json(c) for c in written]
        views = [repr(c.ops) for c in written]
        matrices = [matrix_bytes(sides["parent"], c) for c in written]
        states = [sides["parent"].run(c).amplitudes.tobytes() for c in written]
        for side, pkg in sides.items():
            if [pkg.circuit_to_json(c) for c in unrendered(pkg, circuits[side][label])] \
                    != texts[label]:
                raise SystemExit(f"{side} writes other text for {label}")
            if [repr(c.ops) for c in circuits[side][label]] != views:
                raise SystemExit(f"{side} gives another op view for {label}")
            if [matrix_bytes(pkg, c) for c in circuits[side][label]] != matrices:
                raise SystemExit(f"{side} gives other gate matrices for {label}")
            if [pkg.run(c).amplitudes.tobytes() for c in circuits[side][label]] != states:
                raise SystemExit(f"{side} runs to other amplitudes for {label}")
    images = {side: image_calls(pkg) for side, pkg in sides.items()}
    outputs = image_outputs(images["parent"])
    for side in sides:
        if image_outputs(images[side]) != outputs:
            raise SystemExit(f"{side} writes, reads or builds other images")
    names = list(sides)
    result = {"repeats": args.repeats}
    for label in circuits["parent"]:
        times = {call: {side: [] for side in names}
                 for call in ("write", "read", "ops", "matrices", "run")}
        for i in range(args.repeats):
            for side in names[i % len(names):] + names[:i % len(names)]:
                gc.collect()
                pkg = sides[side]
                fresh = unrendered(pkg, circuits[side][label])
                times["write"][side].append(timed(pkg.circuit_to_json, fresh))
                times["read"][side].append(timed(pkg.circuit_from_json, texts[label]))
                fresh = [pkg.Circuit.from_blocks(c.num_qutrits, c.blocks)
                         for c in circuits[side][label]]
                times["ops"][side].append(timed(attrgetter("ops"), fresh))
                gate_lists = [blk.gates for c in circuits[side][label] for blk in c.blocks]
                times["matrices"][side].append(timed(pkg.gates.gate_matrices, gate_lists))
                times["run"][side].append(timed(pkg.run, circuits[side][label]))
        result[label] = {call: summary(ns) for call, ns in times.items()}
    times = {call: {side: [] for side in names} for call in outputs}
    for i in range(args.repeats):
        for side in names[i % len(names):] + names[:i % len(names)]:
            gc.collect()
            for call, jobs in images[side].items():
                times[call][side].append(timed(apply, jobs))
    result["images"] = {call: summary(ns) for call, ns in times.items()}
    jobs = {side: decode_jobs(pkg, circuits[side]) for side, pkg in sides.items()}
    reports = report_outputs(jobs["parent"])
    for side in sides:
        if report_outputs(jobs[side]) != reports:
            raise SystemExit(f"{side} decodes other reports")
    times = {call: {side: [] for side in names} for call in reports}
    for i in range(args.repeats):
        for side in names[i % len(names):] + names[:i % len(names)]:
            gc.collect()
            for call, job in jobs[side].items():
                times[call][side].append(timed(decode, (job,)))
    result["decode"] = {call: summary(ns) for call, ns in times.items()}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
