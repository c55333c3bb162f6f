#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json untraced and traced on tiny inputs and
checks that every named metric is printed with its unit, that the same seed
gives identical histograms and decoded images, that another seed gives other
inputs, and that a wrong decode is counted as a failed item.  Exits with
status 1 if any check fails.
"""

import contextlib
import io
import json
import sys

import run
from qutritimg import decode

SECONDS = 0.2


def printed_result(result, info) -> dict:
    """The JSON object on the last line that `run.py` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report(result, info)
    return json.loads(out.getvalue().splitlines()[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    names = [w["name"] for w in spec["workloads"]]
    check(sorted(names) == sorted(run.WORKLOADS), "BENCHMARK.json lists every workload")
    for name in names:
        for trace in (False, True):
            result, info = run.bench(name, 3, SECONDS, trace, tiny=True)
            shown = printed_result(result, info)
            mode = "traced" if trace else "untraced"
            check(shown["correct"] and shown["failed"] == 0, f"{name} {mode}: correct")
            units = {m: v["unit"] for m, v in shown["metrics"].items()}
            check(units == wanted[trace], f"{name} {mode}: every metric printed")
        first = run.bench(name, 3, SECONDS, False, tiny=True)[1]
        again = run.bench(name, 3, SECONDS, False, tiny=True)[1]
        n = min(len(first["digests"]), len(again["digests"]))
        check(n > 0 and first["digests"][:n] == again["digests"][:n],
              f"{name}: same seed, same histograms and decoded images")
        other = run.bench(name, 4, SECONDS, False, tiny=True)[1]
        check(other["input_digest"] != first["input_digest"],
              f"{name}: another seed, other inputs")

    original = decode.decode_qrciq

    def wrong_decode(hist, n):
        report = original(hist, n)
        report.image.pixels[0, 0, 0] ^= 1
        return report

    decode.decode_qrciq = wrong_decode
    try:
        result, _ = run.bench("shot-ladder", 3, SECONDS, False, tiny=True)
    finally:
        decode.decode_qrciq = original
    check(not result["correct"] and result["failed"] > 0,
          "shot-ladder: a wrong qrciq decode is counted as failed")

    print(f"{len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
