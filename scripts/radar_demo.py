#!/usr/bin/env python3
"""Radar side of the link, end to end on one scenario.

Runs a coarse sweep to get the boundary operating points, measures the
matched-filter SNR and peak-recovery rate at a few delays for each of
them, then does the two-chain phase calibration round trip. Everything
lands in per-stage output directories with run.json manifests.
"""

import argparse
import json
import os
import sys

from rsma_isac.cli import main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--preset", default="S1", choices=["S1", "S2", "S3"])
    ap.add_argument("--subcarriers", type=int, default=64)
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--beta", type=float, default=0.5,
                    help="echo amplitude at the first delay (the scenario's target_attenuation)")
    ap.add_argument("--n0", default="1,2,3")
    ap.add_argument("--out", default="out/radar")
    args = ap.parse_args()

    nc = f"n_subcarriers={args.subcarriers}"
    sweep_dir = os.path.join(args.out, "sweep")
    rc = cli_main(
        ["sweep", "--preset", args.preset, "--set", nc,
         "--step", "0.5", "--family", "mrt", "--out", sweep_dir]
    )
    if rc != 0:
        return rc

    heatmap_dir = os.path.join(args.out, "heatmap")
    rc = cli_main(
        ["radar-heatmap", "--preset", args.preset, "--set", nc,
         "--params", os.path.join(sweep_dir, "boundary_params.csv"),
         "--n0", args.n0, "--trials", str(args.trials),
         "--set", f"target_attenuation={args.beta}", "--out", heatmap_dir]
    )
    if rc != 0:
        return rc

    print("\nmeasured SNR and recovery per boundary point and delay:")
    with open(os.path.join(heatmap_dir, "heatmap.csv"), encoding="utf-8") as fh:
        print(fh.read().rstrip())

    cal_dir = os.path.join(args.out, "calibration")
    print("\nphase calibration round trip:")
    rc = cli_main(
        ["calibrate-demo", "--preset", args.preset, "--set", nc,
         "--out", cal_dir]
    )
    if rc != 0:
        return rc
    with open(os.path.join(cal_dir, "calibration.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    before = payload["misalignment_before_rad"]
    after = payload["misalignment_after_rad"]
    print(f"\nmean misalignment: {before:.4f} rad before, {after:.4f} rad after")
    return 0


if __name__ == "__main__":
    sys.exit(main())
