"""Output checks for every command a workload runs.

Each check reads what a command wrote and returns a list of problems (empty
when the outputs are right). At the golden seed every file must match its
committed sha256 digest; at any seed a sweep's frontier must be exactly the
non-dominated set of its points, and the files must parse and hold values
that make sense.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

from workloads import Command


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digests(cmd: Command) -> dict[str, str]:
    """``label/file -> sha256`` for every file the command writes."""
    return {f"{cmd.label}/{name}": sha256(os.path.join(cmd.out_dir, name))
            for name in cmd.outputs}


def _read_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _axis(rows: list[dict], metric: str) -> tuple[np.ndarray, np.ndarray]:
    column = "g0" if metric == "g0" else "snr_rad_db"
    xs = np.array([float(r["t_sum_mbps"]) for r in rows])
    ys = np.array([float(r[column]) for r in rows])
    return xs, ys


def frontier_problems(points: list[dict], boundary: list[dict], metric: str) -> list[str]:
    """The boundary must be the non-dominated subset of the points.

    Checks that every boundary row is a row of points.csv, that no point
    dominates a boundary row, that every point is weakly dominated by some
    boundary row, and that the boundary runs x ascending.
    """
    problems = []
    keys = {tuple(r.values()) for r in points}
    if any(tuple(r.values()) not in keys for r in boundary):
        problems.append("boundary row not found in points.csv")
    if not boundary:
        return problems + ["empty boundary"]
    px, py = _axis(points, metric)
    bx, by = _axis(boundary, metric)
    if np.any(np.diff(bx) < 0):
        problems.append("boundary not sorted by throughput")
    for x, y in zip(bx, by):
        dominated = (px >= x) & (py >= y) & ((px > x) | (py > y))
        if np.any(dominated):
            problems.append(f"boundary point ({x}, {y}) is dominated")
            break
    # Best boundary y among rows with x >= each point's x (suffix maximum).
    order = np.argsort(bx, kind="stable")
    sx, sy = bx[order], by[order]
    suffix_best = np.maximum.accumulate(sy[::-1])[::-1]
    pos = np.searchsorted(sx, px, side="left")
    covered = pos < len(sx)
    covered[covered] = suffix_best[pos[covered]] >= py[covered]
    if not np.all(covered):
        problems.append(f"{int(np.sum(~covered))} points lie beyond the boundary")
    return problems


def sweep_problems(cmd: Command) -> tuple[list[str], int, int]:
    """Check a sweep's three CSVs; return problems and the points and boundary row counts."""
    points = _read_rows(os.path.join(cmd.out_dir, "points.csv"))
    boundary = _read_rows(os.path.join(cmd.out_dir, "boundary.csv"))
    params = _read_rows(os.path.join(cmd.out_dir, "boundary_params.csv"))
    problems = []
    if len(points) != cmd.grid_points:
        problems.append(f"points.csv has {len(points)} rows, grid has {cmd.grid_points}")
    problems += frontier_problems(points, boundary, cmd.metric)
    if [int(r["index"]) for r in params] != list(range(len(boundary))):
        problems.append("boundary_params.csv rows do not index the boundary")
    for r in points:
        if not math.isfinite(float(r["t_sum_mbps"])) or float(r["t_sum_mbps"]) < 0:
            problems.append("negative or non-finite throughput")
            break
    return problems, len(points), len(params)


def heatmap_problems(cmd: Command, boundary_rows: int) -> tuple[list[str], list[float]]:
    """Check heatmap.csv; return problems and its peak_correct column."""
    rows = _read_rows(os.path.join(cmd.out_dir, "heatmap.csv"))
    n0 = cmd.argv[cmd.argv.index("--n0") + 1].split(",")
    n_subcarriers = 512  # the presets' count, unless the command overrides it
    for i, arg in enumerate(cmd.argv[:-1]):
        if arg == "--set" and cmd.argv[i + 1].startswith("n_subcarriers="):
            n_subcarriers = int(cmd.argv[i + 1].split("=", 1)[1])
    problems = []
    if len(rows) != boundary_rows * len(n0):
        problems.append(f"heatmap.csv has {len(rows)} rows, expected {boundary_rows * len(n0)}")
    correct = []
    for r in rows:
        frac = float(r["peak_correct"])
        if not (0.0 <= frac <= 1.0 and math.isfinite(float(r["snr_db"]))
                and 0 <= int(r["bin"]) < n_subcarriers and r["n0"] in n0):
            problems.append(f"heatmap row out of range: {r}")
            break
        correct.append(frac)
    return problems, correct


def point_problems(cmd: Command) -> list[str]:
    """point.json must be strict JSON whose rates add up."""
    with open(os.path.join(cmd.out_dir, "point.json"), encoding="utf-8") as fh:
        text = fh.read()

    def reject(token: str):
        raise ValueError(f"non-standard JSON constant {token}")

    try:
        payload = json.loads(text, parse_constant=reject)
    except ValueError as exc:
        return [f"point.json: {exc}"]
    total = payload["t_common_bps"] + sum(payload["t_private_bps"])
    if not math.isclose(total, payload["t_sum_bps"], rel_tol=1e-12, abs_tol=1e-6):
        return ["point.json: stream rates do not add up to t_sum_bps"]
    return []


# calibrate-demo draws 0.02 rad of per-subcarrier ripple on each chain, which
# the one-phase correction cannot remove: the residual is about 0.023 rad.
_RIPPLE_RESIDUAL_RAD = 0.1


def calibration_problems(cmd: Command) -> list[str]:
    """The correction must leave only ripple-level misalignment.

    When the chains start nearly aligned, the circular-mean correction can
    leave the mean absolute misalignment a few microradians above where it
    started, so "after <= before" is not an invariant; "after is at ripple
    level and not meaningfully worse" is.
    """
    with open(os.path.join(cmd.out_dir, "calibration.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    after, before = payload["misalignment_after_rad"], payload["misalignment_before_rad"]
    if not (after <= _RIPPLE_RESIDUAL_RAD and after <= before + 1e-3):
        return [f"calibration left {after} rad of misalignment (before: {before} rad)"]
    if not math.isclose(payload["correction"], -payload["delta_phi"]):
        return ["calibration correction is not the negated estimate"]
    return []


def golden_problems(found: dict[str, str], golden: dict[str, str]) -> list[str]:
    return [f"{key}: digest {digest[:12]} != golden {golden.get(key, 'missing')[:12]}"
            for key, digest in found.items() if golden.get(key) != digest]
