#!/usr/bin/env python3
"""SHA-256 of every CLI output made from seeded inputs, one line per artifact.

For every codec at 3x3 and 9x9 it runs `encode` (with the fqrqci .m2/.m3
circuits), `simulate` with 5,000 shots, with 64 shots and with --exact,
`decode` of all three tables (image and report; at 64 shots most pixels
clip or hit a degenerate branch) and `roundtrip` (image and report); for qrciq
it also runs `roundtrip` at 27x27.  It then hashes the raw amplitude
bytes of `run` on every measured circuit of every codec at 3x3, 9x9 and
27x27, so the statevectors must be bit-identical too; at 27x27 it also
hashes the circuit JSON of each such circuit, the histogram CSV of
100,000 seeded shots of its state and the raw bytes of that histogram's
`to_probabilities`, and for qrciq the exact probability CSV of its state
(177,147 rows).  Last it hashes
`run` of seeded random circuits on 2 to 7 qutrits: every gate kind,
targets touched again, complex gates on untouched qutrits and controls on
untouched qutrits, cases the codec circuits do not cover; and `run` of
seeded random multiplexors: several entries per control tuple, partial
steps, first touches by P1, P2, X, H and RY, some in one step with RZ or
U, and targets hit again.  Inputs are
random images from fixed seeds and everything is written to a temporary
directory.  Two commits give the same outputs when their manifests are
identical:

    python scripts/output_manifest.py > manifest.txt
"""

import hashlib
import pathlib
import sys
import tempfile

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from qutritimg import (  # noqa: E402
    CODECS, Circuit, CircuitOp, ControlSpec, GateSpec, GrayImage, RgbImage, circuit_to_json,
    histogram_to_csv, probabilities, probabilities_to_csv, run, sample, write_pgm, write_ppm,
)
from qutritimg.cli import main as cli  # noqa: E402
from qutritimg.gates import PARAM_COUNTS, SUBSPACE_KINDS  # noqa: E402

RUNS = [(name, side) for name in CODECS for side in (3, 9)] + [("qrciq", 27)]
RANDOM_CIRCUITS = 20
MULTIPLEXORS = 20
FEW_SHOTS = 64
REAL_COLUMN_KINDS = ("P1", "P2", "X", "H", "RY")


def _cli(*argv):
    args = [str(a) for a in argv]
    if cli(args) != 0:
        raise RuntimeError(f"qutritimg {' '.join(args)} failed")


def write_artifacts(inputs: pathlib.Path, outputs: pathlib.Path):
    rng = np.random.default_rng(2024)
    for name, side in RUNS:
        codec = CODECS[name]
        ext = "pgm" if codec.gray else "ppm"
        image = inputs / f"{name}-{side}.{ext}"
        if codec.gray:
            image.write_bytes(write_pgm(GrayImage(rng.integers(0, 256, (side, side)))))
        else:
            image.write_bytes(write_ppm(RgbImage(rng.integers(0, 256, (side, side, 3)))))
        out = outputs / f"{name}-{side}x{side}"
        out.mkdir()
        _cli("roundtrip", "--method", name, "--input", image, "--shots", 20000,
             "--seed", 3, "--report", out / "roundtrip.json", "--out", out / f"roundtrip.{ext}")
        if side == 27:
            continue
        _cli("encode", "--method", name, "--input", image, "--out", out / "circuit.json")
        for table, options in (("shots", ["--shots", 5000, "--seed", 7]), ("exact", ["--exact"]),
                               ("few", ["--shots", FEW_SHOTS, "--seed", 11])):
            hists = []
            for k in range(codec.histograms):
                circuit = out / (f"circuit.m{k + 1}.json" if k else "circuit.json")
                hists += [f"--hist{k + 1}" if k else "--hist", out / f"{table}{k + 1}.csv"]
                _cli("simulate", "--circuit", circuit, *options, "--out", hists[-1])
            _cli("decode", "--method", name, *hists, "--out", out / f"decode-{table}.{ext}",
                 "--report", out / f"decode-{table}.json")


def state_lines():
    """`sha256  statevector/<codec>-<side>x<side>.m<k>` per measured circuit;
    at 27x27 also `histogram/...` and `probabilities/...` of its shots,
    `circuit/...` of its JSON and, for qrciq, `probabilities-csv/...` of
    its exact table."""
    rng = np.random.default_rng(2025)
    for name, codec in CODECS.items():
        for side in (3, 9, 27):
            shape = (side, side) if codec.gray else (side, side, 3)
            pixels = rng.integers(0, 256, shape)
            image = GrayImage(pixels) if codec.gray else RgbImage(pixels)
            for k, circuit in enumerate(codec.measure(codec.encode(image))):
                label = f"{name}-{side}x{side}.m{k + 1}"
                state = run(circuit)
                artifacts = {"statevector": state.amplitudes.tobytes()}
                if side == 27:
                    hist = sample(state, 100_000, seed=5 + k)
                    artifacts["histogram"] = histogram_to_csv(hist).encode()
                    artifacts["probabilities"] = hist.to_probabilities().tobytes()
                    artifacts["circuit"] = circuit_to_json(circuit).encode()
                    if name == "qrciq":
                        artifacts["probabilities-csv"] = probabilities_to_csv(
                            state.num_qutrits, probabilities(state)).encode()
                for kind, data in artifacts.items():
                    yield f"{hashlib.sha256(data).hexdigest()}  {kind}/{label}"


def random_circuit(rng) -> Circuit:
    """On 2 to 8 qutrits: an uncontrolled RZ or U on each of a random set
    of qutrits, not all, in random order (complex amplitudes, and first
    touches whose column 0 is often complex), then up to 30 ops of any kind
    on any target, a third of them with controls on a random set of the
    other qutrits.  Angles are random."""
    q = int(rng.integers(2, 9))
    prefix = rng.permutation(q)[:rng.integers(q)].tolist()
    rest = rng.integers(q, size=rng.integers(1, 31)).tolist()
    ops = []
    for i, target in enumerate(prefix + rest):
        kinds = ("RZ", "U") if i < len(prefix) else sorted(PARAM_COUNTS)
        kind = kinds[rng.integers(len(kinds))]
        pair = ((0, 1), (0, 2), (1, 2))[rng.integers(3)] if kind in SUBSPACE_KINDS else None
        params = rng.uniform(-4.0, 4.0, PARAM_COUNTS[kind]).tolist()
        others = [int(p) for p in rng.permutation(q) if p != target]
        c = int(rng.integers(1, q)) if i >= len(prefix) and rng.integers(3) == 0 else 0
        controls = [ControlSpec(p, int(rng.integers(3))) for p in others[:c]]
        ops.append(CircuitOp(GateSpec(kind, pair, params), target, controls))
    return Circuit(q, ops)


def _gate(rng, kinds) -> GateSpec:
    kind = kinds[rng.integers(len(kinds))]
    pair = ((0, 1), (0, 2), (1, 2))[rng.integers(3)] if kind in SUBSPACE_KINDS else None
    return GateSpec(kind, pair, rng.uniform(-4.0, 4.0, PARAM_COUNTS[kind]).tolist())


def random_multiplexor(rng) -> Circuit:
    """On 3 to 8 qutrits: uncontrolled Hadamards on a random set of qutrits,
    not all, then one to three multiplexors.  Each has 1 to q - 2 random
    control qutrits, 2 to 9 distinct rows of control values and 4 to 40
    ops, each on a random row and a random other qutrit, so entries hold
    several ops, steps list some of the entries and targets are hit again.
    Four ops in five are P1, P2, X, H or RY, whose column 0 is real; the
    rest are RZ or U, which share steps with them."""
    q = int(rng.integers(3, 9))
    ops = [CircuitOp(GateSpec("H"), int(t)) for t in rng.permutation(q)[:rng.integers(q)]]
    for _ in range(rng.integers(1, 4)):
        positions = rng.permutation(q).tolist()
        c = int(rng.integers(1, q - 1))
        qutrits, free = positions[:c], positions[c:]
        rows = rng.choice(3**c, size=min(3**c, int(rng.integers(2, 10))), replace=False)
        entries = [[ControlSpec(p, int(r) // 3**j % 3) for j, p in enumerate(qutrits)]
                   for r in rows]
        for _ in range(rng.integers(4, 41)):
            kinds = ("RZ", "U") if rng.integers(5) == 0 else REAL_COLUMN_KINDS
            ops.append(CircuitOp(_gate(rng, kinds), free[rng.integers(len(free))],
                                 entries[rng.integers(len(entries))]))
    return Circuit(q, ops)


def random_lines():
    """`sha256  statevector/random-<k>` per seeded random circuit, then
    `sha256  statevector/multiplexor-<k>` per seeded random multiplexor."""
    rng = np.random.default_rng(2026)
    for k in range(RANDOM_CIRCUITS):
        data = run(random_circuit(rng)).amplitudes.tobytes()
        yield f"{hashlib.sha256(data).hexdigest()}  statevector/random-{k:02d}"
    rng = np.random.default_rng(2027)
    for k in range(MULTIPLEXORS):
        data = run(random_multiplexor(rng)).amplitudes.tobytes()
        yield f"{hashlib.sha256(data).hexdigest()}  statevector/multiplexor-{k:02d}"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        inputs, outputs = pathlib.Path(tmp, "inputs"), pathlib.Path(tmp, "outputs")
        inputs.mkdir()
        outputs.mkdir()
        write_artifacts(inputs, outputs)
        for path in sorted(outputs.rglob("*.*")):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(outputs)}")
    for line in (*state_lines(), *random_lines()):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
