#!/usr/bin/env python3
"""Benchmark of qutritimg's image pipeline, one workload per process.

    python3 perfbench/run.py --workload roundtrip-qrciq-27 --seed 1 \
        --seconds 36 --trace 0

Run from the repository root; the program is imported from `src/`.  With
`--trace 0` the last line of output is a JSON object holding the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of a traced run,
whose spans are also written to `.perfbench-out/`.  Inputs depend only on
`--seed`.  See perfbench/README.md for what each metric should move.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: with the default, timings measure the scheduler as much
# as the code.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
LAYERS = (
    "cli", "images", "encode", "simulator.run", "simulator.sample",
    "simulator.circuit_json", "simulator.histogram_csv", "decode", "metrics",
)


def import_program():
    """Import qutritimg from this checkout's src/, never from elsewhere."""
    if not (SRC / "qutritimg" / "__init__.py").is_file():
        sys.exit(f"error: no qutritimg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qutritimg

    if Path(qutritimg.__file__).resolve().parent != SRC / "qutritimg":
        sys.exit(f"error: qutritimg was imported from {qutritimg.__file__}")


import_program()

import numpy as np  # noqa: E402

from qutritimg import simulator  # noqa: E402
from tracer import ROOT as ROOT_SPAN, Recorder, clock_ns, layer_of, self_times  # noqa: E402
from workloads import NORM_TOL, WORKLOADS, circuit_size  # noqa: E402


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def check_calls(calls, json_seen: set) -> list[str]:
    """Checks that hold for every workload, on the item's captured calls."""
    errors = []
    for name, args, result in calls:
        if name == "simulator.run" and abs(result.norm() - 1) > NORM_TOL:
            errors.append(f"final state norm {result.norm()!r}")
        elif name == "simulator.circuit_json.write":
            key = hashlib.sha256(result.encode()).digest()
            if key not in json_seen:
                if simulator.circuit_from_json(result) != args[0]:
                    errors.append("circuit JSON does not reproduce the circuit")
                json_seen.add(key)
        elif name == "cli" and result != 0:
            errors.append(f"cli exit code {result}")
    return errors


def output_digest(calls) -> str:
    """Hash of the item's histograms and decoded images."""
    h = hashlib.sha256()
    for name, _, result in calls:
        if name == "simulator.sample":
            h.update(repr(sorted(result.counts.items())).encode())
        elif name == "decode":
            h.update(result.image.pixels.tobytes())
    return h.hexdigest()


def observe(calls) -> dict:
    """Exact counts of the work in one item, from its captured calls."""
    obs = dict.fromkeys((
        "run_ops", "touched_bytes", "qutrits", "encode_ops", "json_bytes",
        "csv_bytes", "support", "pixels", "clip_events", "missing_states",
    ), 0)
    for name, args, result in calls:
        if name == "simulator.run":
            size = circuit_size(args[0])
            obs["run_ops"] += size["ops"]
            obs["touched_bytes"] += size["touched_bytes_computed"]
            obs["qutrits"] = max(obs["qutrits"], size["qutrits"])
        elif name == "simulator.sample":
            obs["qutrits"] = max(obs["qutrits"], args[0].num_qutrits)
            obs["support"] += len(result.counts)
        elif name == "encode" and hasattr(result, "circuit"):
            obs["encode_ops"] += len(result.circuit.ops)
        elif name == "simulator.circuit_json.write":
            obs["json_bytes"] += len(result)
        elif name == "simulator.histogram_csv.write":
            obs["csv_bytes"] += len(result)
        elif name == "decode":
            obs["pixels"] += result.image.pixels.shape[0] * result.image.pixels.shape[1]
            obs["clip_events"] += result.clip_events
            obs["missing_states"] += len(result.missing_states)
    obs["amplitudes"] = 3 ** obs["qutrits"] if obs["qutrits"] else 0
    obs["state_bytes"] = 16 * obs["amplitudes"]
    return obs


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten items beyond it, capped at p99.

    Below 20 items even the median has fewer than ten beyond it; the median
    is reported then.
    """
    n = len(times)
    pct = min(99.0, 100.0 * (n - 10) / n) if n >= 20 else 50.0
    return pct, float(np.percentile(times, pct))


def bench(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; return the result object plus diagnostics."""
    workdir = OUT / f"work-{os.getpid()}"
    rec = Recorder()
    rec.install()
    try:
        return _bench(name, seed, seconds, trace, tiny, rec, workdir)
    finally:
        rec.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def _bench(name, seed, seconds, trace, tiny, rec, workdir):
    setup_times = []
    for r in range(SETUP_REPEATS):
        start = clock_ns()
        wl = WORKLOADS[name](seed, workdir / f"setup{r}", tiny)
        wl.setup()
        setup_times.append((clock_ns() - start) / 1e9)

    times = {False: [], True: []}
    maes, digests, problems = [], [], []
    observations, json_seen = {}, set()
    attempted = failed = 0
    k = c = 0
    start = time.perf_counter()
    last_cycle = 0.0
    # Whole cycles only: another starts while it is expected to end nearer
    # to `seconds` than stopping now would.
    while c == 0 or time.perf_counter() - start + last_cycle / 2 < seconds:
        cycle_start = time.perf_counter()
        # Every cycle starts from the same collector state; garbage left by
        # the checks of the previous cycle is not charged to this one.
        gc.collect()
        for spec in wl.cycle(c):
            # The traced run repeats each item untraced, alternating order.
            modes = ((False, True) if k % 2 == 0 else (True, False)) if trace else (False,)
            for traced in modes:
                attempted += 1
                try:
                    outcome, secs, calls = rec.run_item(k, traced, wl.run, k, spec)
                    errors, error = wl.check(k, spec, outcome)
                    errors += check_calls(calls, json_seen)
                except Exception:  # a failed item is counted, the run goes on
                    errors = [traceback.format_exc()]
                if errors:
                    failed += 1
                    problems += [f"item {k}: {e}" for e in errors]
                    continue
                times[traced].append(secs)
                if traced:
                    observations[k] = observe(calls)
                else:
                    maes.append(error)
                    digests.append((k, output_digest(calls)))
            k += 1
        c += 1
        last_cycle = time.perf_counter() - cycle_start

    plain = times[False]
    info = {
        "workload": name,
        "seed": seed,
        "env": environment(),
        "items": len(plain),
        "cycles": c,
        "failed_frac": failed / attempted,
        "mae_mean": statistics.fmean(maes) if maes else math.nan,
        "sizes": wl.sizes,
        "problems": problems[:20],
        "digests": digests,
        "input_digest": wl.input_digest(),
    }
    if trace:
        metrics, table = layer_metrics(rec.spans, observations, times)
        info["layers"] = table
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{name}-seed{seed}.json"
        spans_file.write_text(json.dumps({
            "fields": ["id", "parent", "item", "name", "start_ns", "end_ns", "failed"],
            "spans": rec.spans,
        }))
        info["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        pct, tail_s = tail(plain) if plain else (50, math.nan)
        info["tail"] = {"percentile": pct, "items": len(plain),
                        "beyond": sum(t > tail_s for t in plain)}
        busy = sum(plain)
        metrics = {
            "items_per_s": (len(plain) / busy if busy else 0.0, "1/s"),
            "item_ms_p50": (1000 * statistics.median(plain) if plain else math.nan, "ms"),
            "item_ms_tail": (1000 * tail_s, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {
        "correct": failed == 0 and bool(plain),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    return result, info


def layer_metrics(spans, observations, times):
    """Per-layer metrics: per-item medians over the traced items."""
    per_item = self_times(spans)
    items = sorted(observations)

    def median(values):
        values = list(values)
        return float(statistics.median(values)) if values else 0.0

    def self_ms(k, name):
        return per_item[k][name][0] / 1e6 if name in per_item[k] else 0.0

    def ms(name):
        return median(self_ms(k, name) for k in items), "ms"

    def count(key, unit="count"):
        return median(observations[k][key] for k in items), unit

    def ratio(numerator, key, unit):
        """Median over the items that did the work counted by `key`."""
        return median(numerator(k) / observations[k][key]
                      for k in items if observations[k][key]), unit

    run = "simulator.run"
    m = {
        "simulator.run.ms": ms(run),
        "simulator.run.us_per_op": ratio(lambda k: 1e3 * self_ms(k, run), "run_ops", "us/op"),
        "simulator.run.ops": count("run_ops"),
        "simulator.run.qutrits": count("qutrits"),
        "simulator.run.amplitudes": count("amplitudes"),
        "simulator.run.state_bytes": count("state_bytes", "B"),
        "simulator.run.touched_bytes": count("touched_bytes", "B"),
        "simulator.run.touched_frac": ratio(
            lambda k: observations[k]["touched_bytes"] / observations[k]["state_bytes"],
            "run_ops", "frac"),
        "encode.ms": ms("encode"),
        "encode.us_per_op": ratio(lambda k: 1e3 * self_ms(k, "encode"), "encode_ops", "us/op"),
        "simulator.circuit_json.write_ms": ms("simulator.circuit_json.write"),
        "simulator.circuit_json.read_ms": ms("simulator.circuit_json.read"),
        "simulator.circuit_json.bytes": count("json_bytes", "B"),
        "simulator.histogram_csv.write_ms": ms("simulator.histogram_csv.write"),
        "simulator.histogram_csv.read_ms": ms("simulator.histogram_csv.read"),
        "simulator.histogram_csv.bytes": count("csv_bytes", "B"),
        "simulator.sample.ms": ms("simulator.sample"),
        "simulator.sample.support": count("support"),
        "decode.ms": ms("decode"),
        "decode.us_per_pixel": ratio(lambda k: 1e3 * self_ms(k, "decode"), "pixels", "us/pixel"),
        "decode.clip_events": count("clip_events"),
        "decode.missing_states": count("missing_states"),
        "images.read_ms": ms("images.read"),
        "images.write_ms": ms("images.write"),
        "cli.self_ms": ms("cli"),
        "metrics.mae_ms": ms("metrics.mae"),
    }
    names = {span[3] for span in spans}
    for layer in LAYERS:
        mine = [n for n in names if layer_of(n) == layer]
        calls = sum(per_item[k][n][1] for k in items for n in mine if n in per_item[k])
        fails = sum(v[n][2] for v in per_item.values() for n in mine if n in v)
        m[f"{layer}.calls"] = (calls / len(items) if items else 0.0, "count/item")
        m[f"{layer}.failed"] = (fails, "count")

    plain, traced = times[False], times[True]
    item_ms = {k: sum(v[0] for v in per_item[k].values()) / 1e6 for k in items}
    m["trace.overhead_frac"] = (
        statistics.fmean(traced) / statistics.fmean(plain) - 1
        if plain and traced else math.nan, "frac")
    m["trace.item_ms_p50"] = (median(item_ms.values()), "ms")
    m["trace.harness_ms"] = ms(ROOT_SPAN)
    m["trace.accounted_frac"] = (
        median(item_ms.values()) / (1e3 * statistics.median(plain))
        if plain else math.nan, "frac")

    # Share of all traced item time spent in each span name's own code.
    total_ms = sum(item_ms.values())
    table = {
        n: {"self_ms_p50": ms(n)[0],
            "share": sum(self_ms(k, n) for k in items) / total_ms if total_ms else 0.0}
        for n in sorted(names)
    }
    return m, table


def report(result: dict, info: dict):
    """Print the diagnostics, then the result object as the last line."""
    print(f"workload {info['workload']}  seed {info['seed']}")
    print("env " + json.dumps(info["env"]))
    print(f"items {info['items']} in {info['cycles']} cycles;"
          f" failed_frac {info['failed_frac']:.6g}; mae_mean {info['mae_mean']:.6g}")
    if "tail" in info:
        t = info["tail"]
        print(f"item_ms_tail is p{t['percentile']:.4g} of {t['items']} items"
              f" ({t['beyond']} beyond it)")
    print("sizes (touched bytes computed from the circuit, not measured):")
    for row in info["sizes"]:
        print("  " + "  ".join(f"{k}={v}" for k, v in row.items()))
    for name, row in info.get("layers", {}).items():
        print(f"  layer {name:32s} self p50 {row['self_ms_p50']:10.3f} ms"
              f"  share {100 * row['share']:6.2f}%")
    if "spans_file" in info:
        print(f"spans written to {info['spans_file']}")
    for problem in info["problems"]:
        print("FAILED " + problem.rstrip(), file=sys.stderr)
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, info = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
