#!/usr/bin/env python3
"""Benchmark for the rsma-isac CLI: closed loop, one client, in-process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload region-g0 --seed 3 --seconds 30 --trace 0

One client calls ``rsma_isac.cli.main`` with the workload's command lines,
one after another, in this process (as ``scripts/run_regions.py`` does),
repeating the whole list (a pass) while the time allows, and checks every
file each command writes. The last line of stdout is one JSON object:
end-to-end metrics with ``--trace 0``; per-layer metrics with ``--trace 1``,
where each untraced pass is followed by a traced one (see tracing.py).
Times are scaled to a reference host speed by a fixed probe run between
commands (see hostspeed.py); the raw ones are printed on stderr.

Other modes:

    --workload all          every workload in turn; prints a metric table
    --smoke                 reduced sizes that finish in seconds
    --record-golden         re-record golden.json (golden seed, full and
                            smoke sizes, plus the Direction 1 matrix)
    --check-matrix          re-run the Direction 1 matrix against golden.json
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is imported, here
# and in the set-up subprocesses (which inherit the environment).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")
WORK = os.path.join(HERE, "_work")
GOLDEN = os.path.join(HERE, "golden.json")

# Set-up probes per run: a third before the first pass, a third after it
# and a third after the last, so host slow phases of a few seconds do not
# decide the median. Smoke runs take one probe at each point.
SETUP_PROBES = 9
# The program layers' self times must cover the traced pass's wall time to
# within this share; the rest is harness time outside ``cli.main``.
UNATTRIBUTED_TOLERANCE = 0.01

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "region_op_p50_ms": "ms",
    "region_op_p75_ms": "ms",
    "peak_rss_mb": "MB",
}

# Function-level spans each layer must (WORKS) or must not (IDLE) record on
# a workload. A renamed function makes the traced run fail instead of
# quietly reporting zero.
_REGION = ("core.generate_channels", "precoders.private_directions",
           "precoders.build_precoders", "throughput.throughput", "throughput.max_mcs",
           "throughput.sinr_common", "throughput.sinr_private",
           "throughput.spectral_efficiency", "region.sweep", "region.frontier_points",
           "region.write_points_csv", "region.write_boundary_params_csv", "cli.main")
_RADAR = ("radar.synthesize_tx", "radar.radar_return", "radar.range_profile",
          "radar.steered_projection")
_CALIBRATION = ("calibration.anchor_channels", "calibration.estimate_phase_correction",
                "calibration.apply_phase_correction")
WORKS = {
    "region-g0": _REGION,
    "radar-mc": _REGION + _RADAR + ("radar.two_stage_capture",),
    "small-runs": _REGION + _CALIBRATION + ("cli.cmd_reproduce", "cli.cmd_point_eval"),
}
IDLE = {
    "region-g0": _RADAR + _CALIBRATION,
    "radar-mc": _CALIBRATION,
    "small-runs": _RADAR,
}


def _fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _load_program():
    """Import the CLI from the checkout's src/, or stop without a result."""
    if not os.path.isfile(os.path.join(SRC, "rsma_isac", "cli.py")):
        _fail(f"no program to benchmark: {SRC}/rsma_isac/cli.py is missing")
    sys.path.insert(0, SRC)
    return importlib.import_module("rsma_isac.cli")


# --------------------------------------------------------------------------
# Environment record


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _blas_threads(np) -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes
    import glob

    base = os.path.dirname(np.__file__)
    libs = glob.glob(os.path.join(base, "..", "numpy.libs", "*openblas*.so*"))
    libs += glob.glob(os.path.join(base, ".libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


# --------------------------------------------------------------------------
# Set-up time


_SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import rsma_isac.cli
from rsma_isac.core import (ArrayGeometry, RngStream, ScenarioConfig,
                            generate_channels, scenario_preset)
fields = scenario_preset(sys.argv[2]).to_json_dict()
fields.update(json.loads(sys.argv[3]))
cfg = ScenarioConfig.from_json_dict(fields)
generate_channels(cfg, ArrayGeometry(n_tx=2, spacing_wavelengths=0.5), RngStream(cfg.seed, 0))
"""


def measure_setup(preset: str, overrides: dict, repeats: int) -> list[tuple[float, float]]:
    """(raw, reference-speed) times for fresh interpreters to import the CLI and draw channels."""
    times = []
    argv = [sys.executable, "-c", _SETUP_CODE, SRC, preset, json.dumps(overrides)]
    before = hostspeed.probe()
    for _ in range(repeats):
        t = perf_counter()
        proc = subprocess.run(argv, cwd=CHECKOUT, capture_output=True, text=True)
        raw = perf_counter() - t
        if proc.returncode != 0:
            _fail(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        after = hostspeed.probe()
        times.append((raw, raw * hostspeed.scale(before, after)))
        before = after
    return times


# --------------------------------------------------------------------------
# Passes


@dataclass
class Record:
    cmd: object
    argv: tuple
    rc: int
    seconds: float  # raw wall time of the command
    stderr: str
    scale: float = 1.0  # host-speed factor from the probes around it
    problems: list = field(default_factory=list)

    @property
    def ref_s(self) -> float:
        """The command's time at the reference host speed (see hostspeed.py)."""
        return self.seconds * self.scale


def run_pass(cli, cmds, root: str, tracer=None, probe=False) -> tuple[float, list[Record]]:
    """Send every command once, in order; return the pass wall time and records.

    With ``probe`` the host-speed probe runs before the first command and
    after each one, and each record carries the factor of the two around it.
    """
    shutil.rmtree(root, ignore_errors=True)
    records = []
    before = hostspeed.probe() if probe else 0.0
    t0 = perf_counter()
    with tracer.span("bench.pass") if tracer else contextlib.nullcontext():
        for cmd in cmds:
            err = io.StringIO()
            argv = cmd.argv
            t = perf_counter()
            try:
                argv = workloads.argv_for(cmd)
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    rc = cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed command, not a dead benchmark
                rc = -1
                err.write(f"{type(exc).__name__}: {exc}")
            records.append(Record(cmd, argv, rc, perf_counter() - t, err.getvalue()))
            if probe:
                after = hostspeed.probe()
                records[-1].scale = hostspeed.scale(before, after)
                before = after
    return perf_counter() - t0, records


@dataclass
class PassStats:
    """One checked pass; ``mc_seconds`` is at the reference host speed."""

    wall: float
    records: list
    digests: dict
    sweep_rows: int = 0
    mc_trials: int = 0
    mc_seconds: float = 0.0
    peak_correct: list = field(default_factory=list)

    @property
    def busy(self) -> float:
        """Raw time spent in the commands (the pass without its probes)."""
        return sum(r.seconds for r in self.records)


def check_pass(wall, records, golden) -> PassStats:
    """Check every command's outputs; attach problems to its record."""
    stats = PassStats(wall, records, {})
    boundary_rows = {}
    for rec in records:
        cmd = rec.cmd
        if rec.rc != 0:
            rec.problems.append(f"exit code {rec.rc}: {rec.stderr.strip()[-300:]}")
            continue
        try:
            found = checks.digests(cmd)
            stats.digests.update(found)
            if golden is not None:
                rec.problems += checks.golden_problems(found, golden)
            if cmd.kind == "sweep":
                problems, rows, boundary_rows[cmd.label] = checks.sweep_problems(cmd)
                rec.problems += problems
                stats.sweep_rows += rows
                if cmd.metric == "snr":
                    stats.mc_trials += rows * int(cmd.argv[cmd.argv.index("--trials") + 1])
                    stats.mc_seconds += rec.ref_s
            elif cmd.kind == "reproduce":
                source = cmd.source + "/"
                for key, digest in found.items():
                    if stats.digests.get(source + key.split("/", 1)[1]) != digest:
                        rec.problems.append(f"{key} differs from the sweep it reproduces")
            elif cmd.kind == "radar-heatmap":
                rows = boundary_rows.get(cmd.source, 0)
                problems, correct = checks.heatmap_problems(cmd, rows)
                rec.problems += problems
                stats.peak_correct += correct
                trials = int(rec.argv[rec.argv.index("--trials") + 1])
                stats.mc_trials += len(correct) * trials
                stats.mc_seconds += rec.ref_s
            elif cmd.kind == "point-eval":
                rec.problems += checks.point_problems(cmd)
            elif cmd.kind == "calibrate-demo":
                rec.problems += checks.calibration_problems(cmd)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            rec.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return stats


def spot_reproduce(cli, cmds, seed: int, root: str) -> dict[str, str]:
    """Reproduce round trip for commands the workload does not reproduce itself.

    Cheap commands are all re-run; of the expensive ones (sweeps and
    heatmaps not already reproduced in the workload) the seed picks one per
    kind. Returns the labels whose reproduction failed, with the reason.
    """
    reproduced = {c.source for c in cmds if c.kind == "reproduce"}
    cheap = [c for c in cmds if c.kind in ("point-eval", "calibrate-demo")]
    rng = random.Random(seed)
    picked = []
    for kind in ("sweep", "radar-heatmap"):
        pool = [c for c in cmds if c.kind == kind and c.label not in reproduced]
        if pool:
            picked.append(rng.choice(pool))
    reruns = [workloads.Command(
        cmd.label, "reproduce",
        ("reproduce", "--run", os.path.join(cmd.out_dir, "run.json"),
         "--out", os.path.join(root, cmd.label)),
        os.path.join(root, cmd.label), cmd.outputs) for cmd in cheap + picked]
    _, records = run_pass(cli, reruns, root)
    return {r.cmd.label: f"reproduce exit code {r.rc}: {r.stderr.strip()[-300:]}"
            for r in records if r.rc != 0}


# --------------------------------------------------------------------------
# Metrics


def _q(values, which: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[which]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(untraced: list[PassStats], setup: list, rss_mb: float, ref: bool = True) -> dict:
    """Medians over the passes; latency quantiles over all of their commands.

    Times are at the reference host speed (hostspeed.py); ``ref=False``
    gives the raw ones.
    """
    def t(rec):
        return rec.ref_s if ref else rec.seconds

    def points_per_s(p):
        return p.sweep_rows / sum(t(r) for r in p.records if r.cmd.kind == "sweep")

    region = [t(r) * 1e3 for p in untraced for r in p.records
              if r.cmd.kind in ("sweep", "reproduce")]
    return {
        "setup_s": statistics.median(scaled if ref else raw for raw, scaled in setup),
        "wall_s": statistics.median(sum(t(r) for r in p.records) for p in untraced),
        "points_per_s": statistics.median(points_per_s(p) for p in untraced),
        "region_op_p50_ms": statistics.median(region),
        "region_op_p75_ms": _q(region, 2),
        "peak_rss_mb": rss_mb,
    }


# (name, unit) of every per-layer metric, in report order. Layers that are
# idle on some workload (radar, calibration, the point commands) report
# shares and rates rather than times, so none is a time that reads exactly
# zero on every run of that workload.
PER_LAYER = (
    ("core.generate_channels.calls", "count"),
    ("core.generate_channels.self_s", "s"),
    ("precoders.private_directions.self_s", "s"),
    ("precoders.build_precoders.calls", "count"),
    ("precoders.build_precoders.self_s", "s"),
    ("throughput.throughput.calls", "count"),
    ("throughput.throughput.self_s", "s"),
    ("throughput.max_mcs.calls", "count"),
    ("throughput.max_mcs.self_s", "s"),
    ("throughput.sinr.self_s", "s"),
    ("throughput.spectral_efficiency.self_s", "s"),
    ("throughput.collapsed_frac", "ratio"),
    ("radar.synthesize_tx.calls", "count"),
    ("radar.synthesize_tx.self_frac", "ratio"),
    ("radar.radar_return.calls", "count"),
    ("radar.radar_return.self_frac", "ratio"),
    ("radar.range_profile.calls", "count"),
    ("radar.range_profile.self_frac", "ratio"),
    ("radar.steered_projection.calls_per_trial", "ratio"),
    ("radar.peak_correct_frac", "ratio"),
    ("radar.mc_trials_per_s", "1/s"),
    ("region.sweep.self_s", "s"),
    ("region.frontier_points.self_s", "s"),
    ("region.write_csv.self_s", "s"),
    ("region.write_csv.bytes", "bytes"),
    ("region.points.evaluated", "count"),
    ("region.points.skipped", "count"),
    ("calibration.self_frac", "ratio"),
    ("cli.main.self_s", "s"),
    ("cli.point_ops_per_s", "1/s"),
    ("core.self_s", "s"),
    ("precoders.self_s", "s"),
    ("throughput.self_s", "s"),
    ("radar.self_frac", "ratio"),
    ("region.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("host.probe_ms", "ms"),
)


def traced_layers(tracer, wall: float, scale: float, plain: PassStats, workload: str) -> dict:
    """Per-layer numbers of one traced pass; fails loudly on a coverage gap.

    ``scale`` is the host-speed factor of the probes just outside the traced
    pass, so times read at the reference host speed like the end-to-end ones;
    ``plain`` is the untraced pass it is paired with.
    """
    calls, self_s = tracing.self_times(tracer.arrays(), len(tracer.names))
    index = {name: i for i, name in enumerate(tracer.names)}

    def n(name):
        return int(calls[index[name]]) if name in index else 0

    def s(*names):
        return float(sum(self_s[index[x]] for x in names if x in index))

    def module(prefix):
        return s(*(x for x in index if x.startswith(prefix + ".")))

    missing = [x for x in WORKS[workload] if n(x) == 0]
    stray = [x for x in IDLE[workload] if n(x) != 0]
    if missing or stray:
        _fail(f"coverage check failed on {workload}: no calls recorded for {missing}; "
              f"calls where none belong: {stray}", code=4)
    program = float(sum(self_s[i] for x, i in index.items() if not x.startswith("bench.")))
    unattributed = (wall - program) / wall
    if abs(unattributed) > UNATTRIBUTED_TOLERANCE:
        _fail(f"program layers' self times sum to {program:.4f} s but the traced pass took "
              f"{wall:.4f} s ({unattributed:.2%} unattributed, tolerance "
              f"{UNATTRIBUTED_TOLERANCE:.0%})", code=4)
    self_s = self_s * scale
    ref_wall = wall * scale
    counters = tracer.counters
    trials = n("radar.synthesize_tx")
    return {
        "core.generate_channels.calls": n("core.generate_channels"),
        "core.generate_channels.self_s": s("core.generate_channels"),
        "precoders.private_directions.self_s": s("precoders.private_directions"),
        "precoders.build_precoders.calls": n("precoders.build_precoders"),
        "precoders.build_precoders.self_s": s("precoders.build_precoders"),
        "throughput.throughput.calls": n("throughput.throughput"),
        "throughput.throughput.self_s": s("throughput.throughput"),
        "throughput.max_mcs.calls": n("throughput.max_mcs"),
        "throughput.max_mcs.self_s": s("throughput.max_mcs"),
        "throughput.sinr.self_s": s("throughput.sinr_common", "throughput.sinr_private"),
        "throughput.spectral_efficiency.self_s": s("throughput.spectral_efficiency"),
        "throughput.collapsed_frac": counters["throughput.collapsed"]
        / max(counters["throughput.evaluated"], 1),
        "radar.synthesize_tx.calls": trials,
        "radar.synthesize_tx.self_frac": s("radar.synthesize_tx") / ref_wall,
        "radar.radar_return.calls": n("radar.radar_return"),
        "radar.radar_return.self_frac": s("radar.radar_return") / ref_wall,
        "radar.range_profile.calls": n("radar.range_profile"),
        "radar.range_profile.self_frac": s("radar.range_profile") / ref_wall,
        "radar.steered_projection.calls_per_trial": n("radar.steered_projection") / max(trials, 1),
        "region.sweep.self_s": s("region.sweep"),
        "region.frontier_points.self_s": s("region.frontier_points"),
        "region.write_csv.self_s": s("region.write_points_csv",
                                     "region.write_boundary_params_csv"),
        "region.write_csv.bytes": counters["region.write_csv.bytes"],
        "region.points.evaluated": counters["region.points.evaluated"],
        "region.points.skipped": counters["region.points.skipped"],
        "calibration.self_frac": module("calibration") / ref_wall,
        "cli.main.self_s": module("cli"),
        "core.self_s": module("core"),
        "precoders.self_s": module("precoders"),
        "throughput.self_s": module("throughput"),
        "radar.self_frac": module("radar") / ref_wall,
        "region.self_s": module("region"),
        "bench.self_s": module("bench"),
        "trace.wall_s": ref_wall,
        "trace.untraced_wall_s": sum(r.ref_s for r in plain.records),
        "trace.overhead_frac": wall / plain.busy - 1.0,
        "trace.unattributed_frac": unattributed,
    }


def untraced_layers(untraced: list[PassStats]) -> dict:
    """Per-layer numbers that need no spans: medians over the untraced passes.

    The rates are at the reference host speed; ``host.probe_ms`` is the
    host-speed probe's own time, to read the raw self times against.
    """
    def point_ops_per_s(p):
        times = [r.ref_s for r in p.records if r.cmd.kind in ("point-eval", "calibrate-demo")]
        return len(times) / sum(times) if times else 0.0

    correct = [c for p in untraced for c in p.peak_correct]
    return {
        "host.probe_ms": statistics.median(
            hostspeed.REFERENCE_S / r.scale * 1e3 for p in untraced for r in p.records),
        "radar.peak_correct_frac": statistics.fmean(correct) if correct else 0.0,
        "radar.mc_trials_per_s": statistics.median(
            p.mc_trials / p.mc_seconds if p.mc_seconds else 0.0 for p in untraced),
        "cli.point_ops_per_s": statistics.median(point_ops_per_s(p) for p in untraced),
    }


# --------------------------------------------------------------------------
# One workload


def load_golden(size_name: str, workload: str) -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)[size_name][workload]


def run_workload(workload: str, seed: int, seconds: float, trace_on: bool, smoke: bool) -> dict:
    size_name = "smoke" if smoke else "full"
    size = workloads.SMOKE if smoke else workloads.FULL
    cli = _load_program()
    scenario = workloads.setup_scenario(workload, seed, size)
    probes = 1 if smoke else SETUP_PROBES // 3
    setup_times = measure_setup(*scenario, probes)
    env = environment()

    base = os.path.join(WORK, f"{workload}-{size_name}")
    shutil.rmtree(base, ignore_errors=True)
    # Warm-up: a smoke-size pass fills lazy imports and numpy caches.
    run_pass(cli, workloads.commands(workload, seed, workloads.SMOKE,
                                     os.path.join(base, "warmup")),
             os.path.join(base, "warmup"), probe=True)

    root = os.path.join(base, "run")
    cmds = workloads.commands(workload, seed, size, root)
    golden = load_golden(size_name, workload) if seed == workloads.GOLDEN_SEED else None
    untraced, traced = [], []
    rss_mb = None
    start = perf_counter()
    while True:
        lap = perf_counter()
        wall, records = run_pass(cli, cmds, root, probe=True)
        if rss_mb is None:  # before any check has read an output file
            rss_mb = peak_rss_mb()
        untraced.append(check_pass(wall, records, golden))
        if trace_on:
            before = hostspeed.probe()
            tracer = tracing.Tracer()
            tracer.install()
            try:
                wall, records = run_pass(cli, cmds, root, tracer)
            finally:
                tracer.uninstall()
            scale = hostspeed.scale(before, hostspeed.probe())
            traced.append((tracer, scale, check_pass(wall, records, golden)))
        if len(untraced) == 1:
            setup_times += measure_setup(*scenario, probes)
        if perf_counter() - start + (perf_counter() - lap) > seconds:
            break
    setup_times += measure_setup(*scenario, probes)

    passes = untraced + [stats for _, _, stats in traced]
    first = untraced[0].digests
    for stats in passes[1:]:
        for rec in stats.records:
            for name in rec.cmd.outputs:
                key = f"{rec.cmd.label}/{name}"
                if key in stats.digests and stats.digests[key] != first.get(key):
                    rec.problems.append(f"{key} changed between passes")
    if golden is None:
        failures = spot_reproduce(cli, cmds, seed, os.path.join(base, "reproduce"))
        for rec in untraced[-1].records:
            if rec.cmd.label in failures:
                rec.problems.append(failures[rec.cmd.label])

    records = [r for stats in passes for r in stats.records]
    failed = [r for r in records if r.problems]
    for rec in failed[:5]:
        print(f"perfbench: FAILED {workload}/{rec.cmd.label}: {rec.problems[:3]}",
              file=sys.stderr)
    result = {"correct": not failed, "attempted": len(records), "failed": len(failed)}
    if trace_on:
        layers = [traced_layers(tracer, stats.wall, scale, plain, workload)
                  for (tracer, scale, stats), plain in zip(traced, untraced)]
        traced[-1][0].save(os.path.join(base, "spans.npz"))
        values = {k: statistics.median_low(d[k] for d in layers) for k in layers[0]}
        values.update(untraced_layers(untraced))
        units = dict(PER_LAYER)
        result["metrics"] = {k: {"value": values[k], "unit": units[k]} for k, _ in PER_LAYER}
        print(f"perfbench: {workload} traced wall_s {values['trace.wall_s']:.3f} vs untraced "
              f"{values['trace.untraced_wall_s']:.3f} (median overhead of a pair "
              f"{values['trace.overhead_frac']:+.1%}); program layers' self times leave "
              f"{values['trace.unattributed_frac']:.3%} of traced wall unattributed "
              f"(tolerance {UNATTRIBUTED_TOLERANCE:.0%})", file=sys.stderr)
    else:
        values = end_to_end(untraced, setup_times, rss_mb)
        result["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        env["raw"] = end_to_end(untraced, setup_times, rss_mb, ref=False)
        env["probe_ms"] = untraced_layers(untraced)["host.probe_ms"]
        print(f"perfbench: {workload} raw wall_s {env['raw']['wall_s']:.3f}, host probe "
              f"{env['probe_ms']:.2f} ms (reference {hostspeed.REFERENCE_S * 1e3:.2f} ms)",
              file=sys.stderr)
    print(f"perfbench: {workload} seed {seed}: {len(untraced)} pass(es), "
          f"{len(records)} commands, {len(failed)} failed; peak RSS {rss_mb:.1f} MB "
          f"after the first pass, {peak_rss_mb():.1f} MB with the checks", file=sys.stderr)
    result["env"] = env
    return result


# --------------------------------------------------------------------------
# Whole-benchmark modes


def report(seed: int, seconds: float, smoke: bool) -> int:
    """Run every workload in its own process and print every metric with its unit."""
    status = 0
    for trace_flag in (0, 1):
        print(f"\n== {'per-layer (traced)' if trace_flag else 'end-to-end'} metrics ==")
        for workload in workloads.WORKLOADS:
            argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace_flag)]
            if smoke:
                argv.append("--smoke")
            proc = subprocess.run(argv, cwd=CHECKOUT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload}: exit code {proc.returncode}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            frac = result["failed"] / result["attempted"]
            print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} failed_frac={frac:.4f}")
            for name, metric in result["metrics"].items():
                print(f"  {name:<42} {metric['value']:>16.6g} {metric['unit']}")
    return status


def _one_pass(cli, cmds, root: str, golden: dict | None) -> tuple[PassStats, list]:
    """One checked pass; returns its stats and the (label, problems) of failures."""
    stats = check_pass(*run_pass(cli, cmds, root), golden)
    return stats, [(r.cmd.label, r.problems) for r in stats.records if r.problems]


def record_golden() -> int:
    """Re-record golden.json: every output digest at the golden seed, plus the matrix."""
    cli = _load_program()
    golden = {"seed": workloads.GOLDEN_SEED}
    base = os.path.join(WORK, "golden")
    for size_name, size in (("full", workloads.FULL), ("smoke", workloads.SMOKE)):
        golden[size_name] = {}
        for workload in workloads.WORKLOADS:
            root = os.path.join(base, size_name, workload)
            cmds = workloads.commands(workload, workloads.GOLDEN_SEED, size, root)
            stats, bad = _one_pass(cli, cmds, root, None)
            if bad:
                _fail(f"not recording digests of failing outputs: {bad[:3]}", code=1)
            golden[size_name][workload] = stats.digests
    stats, bad = _one_pass(cli, workloads.matrix(os.path.join(base, "matrix")),
                           os.path.join(base, "matrix"), None)
    if bad:
        _fail(f"not recording digests of failing outputs: {bad[:3]}", code=1)
    golden["matrix"] = stats.digests
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded golden digests to {os.path.relpath(GOLDEN, CHECKOUT)}")
    return 0


def check_matrix() -> int:
    """Re-run ROADMAP Direction 1's matrix and compare with its golden digests."""
    cli = _load_program()
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)["matrix"]
    root = os.path.join(WORK, "matrix")
    cmds = workloads.matrix(root)
    stats, bad = _one_pass(cli, cmds, root, golden)
    for label, problems in bad:
        print(f"{label}: {problems}")
    print(f"matrix: {len(cmds) - len(bad)}/{len(cmds)} sweeps match golden.json "
          f"({stats.wall:.1f} s)")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rsma-isac CLI benchmark")
    ap.add_argument("--workload", help="region-g0, radar-mc, small-runs, or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="time to measure (default 30, smoke 1)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced sizes")
    ap.add_argument("--record-golden", action="store_true")
    ap.add_argument("--check-matrix", action="store_true")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else 30.0
    if args.record_golden:
        return record_golden()
    if args.check_matrix:
        return check_matrix()
    if args.workload == "all":
        return report(args.seed, args.seconds, args.smoke)
    if args.workload not in workloads.WORKLOADS:
        _fail(f"--workload must be one of {workloads.WORKLOADS} or all")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    env = result.pop("env")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
