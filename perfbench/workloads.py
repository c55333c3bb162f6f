"""The benchmark's workloads: inputs made from a seed, items, output checks.

Every workload is a closed loop with one client.  Items come in cycles that
hold each kind of input equally often, so runs of any length weigh noise and
gradient images (and, where mixed, methods and shot budgets) alike.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from qutritimg import cli, decode, encode, images, metrics, simulator

METHODS = ("fqri", "fqrri", "fqrqci", "mcqri", "qrciq")
GRAY = {"fqri"}
NORM_TOL = 1e-9


def noise_image(rng, side: int, gray: bool) -> np.ndarray:
    shape = (side, side) if gray else (side, side, 3)
    return rng.integers(0, 256, shape, dtype=np.uint8)


def gradient_image(rng, side: int, gray: bool) -> np.ndarray:
    """Bilinear blend of four random corner colours."""
    corners = rng.integers(0, 256, (2, 2, 1 if gray else 3)).astype(float)
    t = np.linspace(0.0, 1.0, side)
    wy, wx = t[:, None, None], t[None, :, None]
    pixels = (
        corners[0, 0] * (1 - wy) * (1 - wx)
        + corners[0, 1] * (1 - wy) * wx
        + corners[1, 0] * wy * (1 - wx)
        + corners[1, 1] * wy * wx
    )
    pixels = np.rint(pixels).astype(np.uint8)
    return pixels[..., 0] if gray else pixels


def make_image(rng, side: int, gray: bool, kind: str):
    """Noise images maximise qrciq's non-zero digits; gradients have fewer."""
    make = noise_image if kind == "noise" else gradient_image
    pixels = make(rng, side, gray)
    return images.GrayImage(pixels) if gray else images.RgbImage(pixels)


def image_bytes(image) -> bytes:
    if isinstance(image, images.GrayImage):
        return images.write_pgm(image)
    return images.write_ppm(image)


def read_image(data: bytes, gray: bool):
    return images.read_pgm(data) if gray else images.read_ppm(data)


def circuit_size(circuit) -> dict:
    """Exact sizes of a circuit; touched bytes are computed, not measured.

    A gate with c controls on q qutrits reads and writes 3^(q-c) complex128
    amplitudes: 2 * 16 * 3^(q-c) bytes.
    """
    q = circuit.num_qutrits
    touched = sum(2 * 16 * 3 ** (q - len(op.controls)) for op in circuit.ops)
    return {
        "ops": len(circuit.ops),
        "qutrits": q,
        "amplitudes": 3**q,
        "state_bytes": 16 * 3**q,
        "touched_bytes_computed": touched,
    }


def encode_method(method: str, image):
    return getattr(encode, f"encode_{method}")(image)


def method_circuits(method: str, enc) -> tuple:
    if method == "fqrqci":
        return decode.fqrqci_measurement_circuits(enc)
    return (enc.circuit,)


def decode_method(method: str, hists: list, n: int):
    return getattr(decode, f"decode_{method}")(*hists, n)


def item_seed(seed: int, k: int) -> int:
    return (seed * 1_000_003 + k) % 2**31


class Workload:
    """Subclasses define `setup` (inputs, sizes, warm-up), `cycle(c)` (the
    item specs of cycle c), `run(k, spec)` (the timed item) and
    `check(k, spec, outcome)` -> (errors, MAE), which runs untimed."""

    name = ""

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.rng = np.random.default_rng(seed)
        self.sizes: list[dict] = []
        workdir.mkdir(parents=True, exist_ok=True)

    def input_digest(self) -> str:
        h = hashlib.sha256()
        for image in self.pool_images():
            h.update(image.pixels.tobytes())
        return h.hexdigest()


class RoundtripQrciq(Workload):
    """CLI `roundtrip --method qrciq` in-process on 27x27 RGB images."""

    name = "roundtrip-qrciq-27"
    POOL = 4

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny)
        self.side = 3 if tiny else 27
        self.shots = 5_000 if tiny else 200_000

    def pool_images(self):
        return self.images

    def setup(self):
        kinds = ["noise", "gradient"] * (self.POOL // 2)
        self.images = [make_image(self.rng, self.side, False, k) for k in kinds]
        self.inputs = []
        for i, image in enumerate(self.images):
            path = self.workdir / f"in{i}.ppm"
            path.write_bytes(image_bytes(image))
            self.inputs.append(path)
            self.sizes.append(
                {"input": f"{kinds[i]} {self.side}x{self.side}", "method": "qrciq"}
                | circuit_size(encode.encode_qrciq(image).circuit)
            )
        # The coupon-collector bound keeps every decode exact at this budget.
        need = metrics.expected_complete_support_shots(self.images[0].n)
        if self.shots < 3 * need:
            raise ValueError(f"{self.shots} shots is too few for exact decodes")
        warm = self.workdir / "warm.ppm"
        warm.write_bytes(image_bytes(make_image(self.rng, 3, False, "noise")))
        self.inputs.append(warm)
        self.run(-1, len(self.inputs) - 1)  # warm the CLI path on a 3x3 image

    def cycle(self, c):
        return [(2 * c) % self.POOL, (2 * c + 1) % self.POOL]

    def _report(self, k):
        return self.workdir / f"report{k % 2}.json"

    def run(self, k, spec):
        return cli.main([
            "roundtrip", "--method", "qrciq", "--input", str(self.inputs[spec]),
            "--shots", str(self.shots), "--seed", str(item_seed(self.seed, k)),
            "--report", str(self._report(k)),
            "--out", str(self.workdir / f"out{k % 2}.ppm"),
        ])

    def check(self, k, spec, outcome):
        if outcome != 0:
            return [f"cli exit code {outcome}"], math.nan
        report = json.loads(self._report(k).read_text())
        errors = []
        if report["exact_match"] is not True:
            errors.append("qrciq roundtrip is not an exact match")
        if report["missing_states"]:
            errors.append(f"{len(report['missing_states'])} missing states")
        return errors, report["mae"]


class StagedCli(Workload):
    """encode -> circuit JSON -> simulate -> histogram CSV -> decode -> image."""

    name = "staged-cli-27"
    SHOTS = 100_000

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny)
        self.shots = 5_000 if tiny else self.SHOTS
        self._reference: dict[int, object] = {}

    def pool_images(self):
        return [entry["image"] for entry in self.pool]

    def _entry(self, i, method, side, kind):
        image = make_image(self.rng, side, method in GRAY, kind)
        d = self.workdir / f"item{i}"
        d.mkdir(exist_ok=True)
        path = d / ("in.pgm" if method in GRAY else "in.ppm")
        path.write_bytes(image_bytes(image))
        return {
            "id": i, "method": method, "image": image, "input": path, "dir": d,
            "seed": item_seed(self.seed, i),
        }

    def setup(self):
        self.pool = []
        for method in METHODS:
            side = 3 if self.tiny else (9 if method == "qrciq" else 27)
            for kind in ("noise", "gradient"):
                entry = self._entry(len(self.pool), method, side, kind)
                enc = encode_method(method, entry["image"])
                self.sizes += [
                    {"input": f"{kind} {side}x{side}", "method": method}
                    | circuit_size(c)
                    for c in method_circuits(method, enc)
                ]
                self.pool.append(entry)
        for i, method in enumerate(METHODS):  # warm each method on a 3x3 image
            self.run(-1, self._entry(len(self.pool) + i, method, 3, "noise"))

    def cycle(self, c):
        return self.pool

    def run(self, k, entry):
        method, d = entry["method"], entry["dir"]
        circ = d / "circ.json"
        codes = [cli.main([
            "encode", "--method", method, "--input", str(entry["input"]),
            "--out", str(circ),
        ])]
        circuits = [circ]
        if method == "fqrqci":
            circuits += [d / "circ.m2.json", d / "circ.m3.json"]
        hists = []
        for j, path in enumerate(circuits):
            hist = d / f"hist{j}.csv"
            codes.append(cli.main([
                "simulate", "--circuit", str(path), "--shots", str(self.shots),
                "--seed", str(entry["seed"] + j), "--out", str(hist),
            ]))
            hists.append(hist)
        args = ["decode", "--method", method, "--hist", str(hists[0])]
        if method == "fqrqci":
            args += ["--hist2", str(hists[1]), "--hist3", str(hists[2])]
        args += [
            "--n", str(entry["image"].n), "--out", str(self._out(entry)),
            "--report", str(d / "report.json"),
        ]
        codes.append(cli.main(args))
        return codes

    def _out(self, entry):
        gray = entry["method"] in GRAY
        return entry["dir"] / ("out.pgm" if gray else "out.ppm")

    def reference(self, entry):
        """The same circuit, shots and seeds decoded in-process."""
        if entry["id"] not in self._reference:
            method, image = entry["method"], entry["image"]
            enc = encode_method(method, image)
            hists = [
                simulator.sample(simulator.run(c), self.shots, entry["seed"] + j)
                for j, c in enumerate(method_circuits(method, enc))
            ]
            self._reference[entry["id"]] = decode_method(method, hists, image.n).image
        return self._reference[entry["id"]]

    def check(self, k, entry, outcome):
        if any(code != 0 for code in outcome):
            return [f"cli exit codes {outcome}"], math.nan
        method, image = entry["method"], entry["image"]
        decoded = read_image(self._out(entry).read_bytes(), method in GRAY)
        errors = []
        if decoded != self.reference(entry):
            errors.append(f"{method}: staged decode differs from in-process decode")
        if method == "qrciq":
            report = json.loads((entry["dir"] / "report.json").read_text())
            if decoded != image or report["missing_states"]:
                errors.append("qrciq staged decode is not exact")
        return errors, metrics.mae(image, decoded)


class ShotLadder(Workload):
    """sample at one budget, decode, MAE: states are prepared at set-up."""

    name = "shot-ladder"
    BUDGETS = (1_000, 10_000, 100_000, 1_000_000)

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny)
        self.ns = (1,) if tiny else (1, 2)
        self.budgets = self.BUDGETS[:2] if tiny else self.BUDGETS

    def pool_images(self):
        return [p["image"] for p in self.pipelines]

    def setup(self):
        self.pipelines = []
        for method in METHODS:
            for n in self.ns:
                for kind in ("noise", "gradient"):
                    image = make_image(self.rng, 3**n, method in GRAY, kind)
                    enc = encode_method(method, image)
                    circuits = method_circuits(method, enc)
                    self.sizes += [
                        {"input": f"{kind} {3**n}x{3**n}", "method": method}
                        | circuit_size(c)
                        for c in circuits
                    ]
                    states = [simulator.run(c) for c in circuits]
                    # qrciq decodes must be exact once the budget is far past
                    # the coupon-collector expectation for complete support.
                    exact_from = 10 * metrics.expected_complete_support_shots(n)
                    self.pipelines.append({
                        "method": method, "image": image, "states": states,
                        "exact_from": exact_from if method == "qrciq" else math.inf,
                    })
        for p in range(len(self.pipelines)):
            self.run(-1, (p, self.budgets[0]))  # warm each decoder

    def cycle(self, c):
        return [(p, b) for p in range(len(self.pipelines)) for b in self.budgets]

    def run(self, k, spec):
        p, budget = spec
        pipe = self.pipelines[p]
        hists = [
            simulator.sample(state, budget, item_seed(self.seed, k) + 1000 * j)
            for j, state in enumerate(pipe["states"])
        ]
        report = decode_method(pipe["method"], hists, pipe["image"].n)
        return report, metrics.mae(pipe["image"], report.image)

    def check(self, k, spec, outcome):
        p, budget = spec
        pipe = self.pipelines[p]
        report, error = outcome
        errors = [
            f"{pipe['method']}: state norm {state.norm()!r}"
            for state in pipe["states"] if abs(state.norm() - 1) > NORM_TOL
        ]
        if report.shots_used != budget * len(pipe["states"]):
            errors.append(f"{pipe['method']}: decode used {report.shots_used} shots")
        if budget >= pipe["exact_from"] and (
            report.image != pipe["image"] or report.missing_states
        ):
            errors.append(f"qrciq decode at {budget} shots is not exact")
        if not math.isfinite(error):
            errors.append(f"{pipe['method']}: MAE is {error}")
        return errors, error


WORKLOADS = {w.name: w for w in (RoundtripQrciq, StagedCli, ShotLadder)}
