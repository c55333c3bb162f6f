#!/usr/bin/env python3
"""Decode quality versus shot budget for every codec.

Encodes the sample images once, then samples each prepared state at a
ladder of shot counts and reports the decoded image error.  Optionally
writes the decoded images next to the report so they can be compared by
eye.

    python scripts/shot_convergence.py
    python scripts/shot_convergence.py --shots 1000 10000 100000 --seeds 5
    python scripts/shot_convergence.py --save-images out/
"""

import argparse
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from qutritimg import (  # noqa: E402
    CODECS,
    mae,
    psnr,
    read_pgm,
    read_ppm,
    run,
    sample,
    write_pgm,
    write_ppm,
)

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def build_pipelines(gray, rgb):
    """method -> (codec, reference image, prepared states)."""
    pipelines = {}
    for method, codec in CODECS.items():
        image = gray if codec.gray else rgb
        states = [run(c) for c in codec.measure(codec.encode(image))]
        pipelines[method] = (codec, image, states)
    return pipelines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shots", type=int, nargs="+",
                        default=[1_000, 10_000, 100_000, 1_000_000])
    parser.add_argument("--seeds", type=int, default=3,
                        help="number of seeds to average over")
    parser.add_argument("--gray", default=DATA / "gray_3x3.pgm")
    parser.add_argument("--rgb", default=DATA / "rgb_3x3.ppm")
    parser.add_argument("--save-images", metavar="DIR",
                        help="write the seed-0 decoded image per cell")
    args = parser.parse_args(argv)

    gray = read_pgm(pathlib.Path(args.gray).read_bytes())
    rgb = read_ppm(pathlib.Path(args.rgb).read_bytes())
    pipelines = build_pipelines(gray, rgb)

    out_dir = pathlib.Path(args.save_images) if args.save_images else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    header = f"{'method':8s}" + "".join(f"{s:>14d}" for s in args.shots)
    print(header)
    print("-" * len(header))
    for method, (codec, reference, states) in pipelines.items():
        cells = []
        for shots in args.shots:
            errors = []
            for seed in range(args.seeds):
                hists = [
                    sample(state, shots, seed + 1000 * k)
                    for k, state in enumerate(states)
                ]
                report = codec.decode(*hists, reference.n)
                errors.append(mae(reference, report.image))
                if out_dir and seed == 0:
                    ext, write = ("pgm", write_pgm) if codec.gray else ("ppm", write_ppm)
                    (out_dir / f"{method}_{shots}.{ext}").write_bytes(write(report.image))
            cells.append(float(np.mean(errors)))
        print(f"{method:8s}" + "".join(f"{c:14.3f}" for c in cells))
    print(f"\nmean MAE over {args.seeds} seeds; psnr of a perfect qrciq decode:",
          psnr(rgb, rgb))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
