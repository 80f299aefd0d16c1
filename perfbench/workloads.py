"""The command lines each workload runs, generated from a workload seed.

A workload is a list of ``Command``s that one client sends to
``rsma_isac.cli.main`` in order, each waiting for the previous one. The
seed picks the scenario seeds (and so the channel draws and Monte Carlo
streams); the command shapes and sizes stay fixed, so every seed asks the
program for the same amount of work. The one size that depends on an
output, a heatmap's boundary row count, is evened out by ``argv_for``.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

# The workload seed the committed golden digests were recorded for.
GOLDEN_SEED = 0

WORKLOADS = ("region-g0", "radar-mc", "small-runs")

SWEEP_FILES = ("points.csv", "boundary.csv", "boundary_params.csv")

# The one operating point small-runs evaluates in depth: ZF with every
# stream powered, so point.json carries finite values throughout.
POINT = (("t_comms", "0.6"), ("t_p", "0.5"), ("alpha_c", "0.5"), ("alpha_p", "0.5"))


@dataclass(frozen=True)
class Size:
    """Knobs that scale a workload; ``FULL`` is the benchmark, ``SMOKE`` a quick check."""

    region_nc: int | None      # region-g0 subcarriers (None: the preset's 512)
    region_step: float
    radar_nc: int | None
    radar_step: float
    radar_sweep_trials: int
    radar_heatmap_budget: int  # heatmap captures per n0 value, over all boundary rows
    small_scenarios: int
    small_nc: int
    small_step: float


# A full pass takes 2 to 3 s on a 2-vCPU x86 VM, so a 30 s run holds about ten.
FULL = Size(None, 0.2, None, 0.5, 25, 400, 6, 64, 0.25)
SMOKE = Size(16, 0.25, 16, 0.5, 2, 8, 3, 16, 0.5)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what it must leave behind.

    ``label`` names the command within its workload and keys its golden
    digests. ``kind`` is the CLI subcommand. ``outputs`` are the files the
    command writes into ``out_dir`` (run.json aside). ``source`` is the
    label of the sweep a reproduce or heatmap reads from. A heatmap's
    ``--trials`` is left out of ``argv``; ``argv_for`` adds it.
    """

    label: str
    kind: str
    argv: tuple[str, ...]
    out_dir: str
    outputs: tuple[str, ...]
    metric: str = "g0"
    grid_points: int = 0
    source: str | None = None
    trials_budget: int | None = None


def grid_points(step: float, families: int) -> int:
    """Rows a sweep writes: 1 + n(n+1)(2 + (n-1)(n+1)) per family, n = 1/step.

    Counted independently of ``region.enumerate_grid``: t_comms = 0 is one
    point; each other t_comms has t_p = 0 and t_p = 1 rows with one axis
    pinned, and (n-1) interior t_p values with both mixes swept.
    """
    n = round(1.0 / step)
    return families * (1 + n * (n + 1) * (2 + (n - 1) * (n + 1)))


def _scenario_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


def _nc_args(nc: int | None) -> list[str]:
    return [] if nc is None else ["--set", f"n_subcarriers={nc}"]


def _sweep(label, out, common, step, family, metric="g0", trials=None) -> Command:
    argv = ["sweep", *common, "--metric", metric, "--family", family,
            "--step", str(step), "--out", out]
    if trials is not None:
        argv[-2:-2] = ["--trials", str(trials)]
    families = 2 if family == "both" else 1
    return Command(label, "sweep", tuple(argv), out, SWEEP_FILES, metric,
                   grid_points(step, families))


def region_g0(seed: int, size: Size, root: str) -> list[Command]:
    """Three g0 sweeps, one per preset, both families, perfect CSIT."""
    cmds = []
    for preset, s in zip(("S1", "S2", "S3"), _scenario_seeds(seed, 3)):
        label = f"{preset.lower()}-sweep"
        common = ["--preset", preset, "--seed", str(s), *_nc_args(size.region_nc)]
        cmds.append(_sweep(label, os.path.join(root, label), common, size.region_step, "both"))
    return cmds


def radar_mc(seed: int, size: Size, root: str) -> list[Command]:
    """Per family: an SNR-metric sweep on S1, then a heatmap of its boundary."""
    (s,) = _scenario_seeds(seed, 1)
    common = ["--preset", "S1", "--seed", str(s), *_nc_args(size.radar_nc)]
    cmds = []
    for family in ("mrt", "zf"):
        label = f"{family}-sweep"
        sweep_dir = os.path.join(root, label)
        cmds.append(_sweep(label, sweep_dir, common, size.radar_step, family,
                           "snr", size.radar_sweep_trials))
        hm_label = f"{family}-heatmap"
        hm_dir = os.path.join(root, hm_label)
        argv = ("radar-heatmap", *common, "--family", family,
                "--params", os.path.join(sweep_dir, "boundary_params.csv"),
                "--n0", "1,2,3", "--out", hm_dir)
        cmds.append(Command(hm_label, "radar-heatmap", argv, hm_dir, ("heatmap.csv",),
                            source=label, trials_budget=size.radar_heatmap_budget))
    return cmds


def argv_for(cmd: Command) -> tuple[str, ...]:
    """The command line to send now.

    A heatmap runs boundary rows x n0 values x trials captures, and the
    boundary of a sweep has 4 to 8 rows depending on the seed. So the client
    reads the row count of the file the sweep just wrote and spreads the
    heatmap's budget over it: ``--trials = round(budget / rows)``.
    """
    if cmd.trials_budget is None:
        return cmd.argv
    with open(cmd.argv[cmd.argv.index("--params") + 1], encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    trials = max(1, round(cmd.trials_budget / max(rows, 1)))
    return (*cmd.argv, "--trials", str(trials))


def small_runs(seed: int, size: Size, root: str) -> list[Command]:
    """Many short commands on noisy-CSIT S2: sweep, reproduce, point-eval, calibrate."""
    cmds = []
    for i, s in enumerate(_scenario_seeds(seed, size.small_scenarios)):
        common = ["--preset", "S2", "--seed", str(s),
                  "--set", f"n_subcarriers={size.small_nc}", "--set", "csit_error_var=1e-3"]
        tag = f"{i:02d}"
        sweep = _sweep(f"{tag}-sweep", os.path.join(root, f"{tag}-sweep"), common,
                       size.small_step, "both")
        rep_dir = os.path.join(root, f"{tag}-reproduce")
        rep = Command(f"{tag}-reproduce", "reproduce",
                      ("reproduce", "--run", os.path.join(sweep.out_dir, "run.json"),
                       "--out", rep_dir),
                      rep_dir, SWEEP_FILES, source=sweep.label)
        pt_dir = os.path.join(root, f"{tag}-point")
        sets = [arg for key, value in POINT for arg in ("--set", f"{key}={value}")]
        point = Command(f"{tag}-point", "point-eval",
                        ("point-eval", *common, "--family", "zf", *sets, "--out", pt_dir),
                        pt_dir, ("point.json",))
        cal_dir = os.path.join(root, f"{tag}-calibrate")
        cal = Command(f"{tag}-calibrate", "calibrate-demo",
                      ("calibrate-demo", *common, "--out", cal_dir),
                      cal_dir, ("calibration.json",))
        cmds.extend([sweep, rep, point, cal])
    return cmds


BUILDERS = {"region-g0": region_g0, "radar-mc": radar_mc, "small-runs": small_runs}


def commands(workload: str, seed: int, size: Size, root: str) -> list[Command]:
    return BUILDERS[workload](seed, size, root)


def setup_scenario(workload: str, seed: int, size: Size) -> tuple[str, dict]:
    """The preset and overrides of the workload's first scenario (for setup_s)."""
    first = commands(workload, seed, size, "")[0].argv
    preset = first[first.index("--preset") + 1]
    overrides = {"seed": int(first[first.index("--seed") + 1])}
    for i, arg in enumerate(first):
        if arg == "--set":
            key, value = first[i + 1].split("=", 1)
            overrides[key] = json.loads(value)  # as the CLI parses --set values
    return preset, overrides


def matrix(root: str) -> list[Command]:
    """ROADMAP Direction 1's golden matrix: S1-S3 x MRT/ZF, step 0.1, N_c 64 and 512.

    Preset seeds, so these digests pin the presets themselves.
    """
    cmds = []
    for nc in (64, 512):
        for preset in ("S1", "S2", "S3"):
            for family in ("mrt", "zf"):
                label = f"{preset.lower()}-{family}-nc{nc}"
                common = ["--preset", preset, "--set", f"n_subcarriers={nc}"]
                cmds.append(_sweep(label, os.path.join(root, label), common, 0.1, family))
    return cmds
