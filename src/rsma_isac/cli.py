"""Command-line front door: sweeps, radar heatmaps, single-point evaluation.

Every run writes a ``run.json`` carrying the fully resolved configuration
and sha256 digests of its outputs; the ``reproduce`` subcommand re-executes
such a manifest and asserts the digests match. All internal math is linear;
decibels appear only in serialized output.

Exit codes: 0 success, 2 configuration or I/O error (a run too large for
memory among them), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

from .calibration import anchor_channels, apply_phase_correction, estimate_phase_correction
from .core import (
    ArrayGeometry,
    ConfigError,
    DegenerateChannelError,
    RngStream,
    ScenarioConfig,
    generate_channels,
    scenario_preset,
)
from .precoders import (
    DegenerateDirectionError,
    ParameterPoint,
    RankDeficientChannelError,
    build_precoders,
)
from .radar import UndefinedProfileError, expected_sensing, monte_carlo, two_stage_capture
from .region import (
    CASE_TAGS,
    SweepSpec,
    case_codes,
    sweep,
    write_boundary_params_csv,
    write_points_csv,
)
from .throughput import stream_gains, throughput

_GEOM = ArrayGeometry(n_tx=2, spacing_wavelengths=0.5)
# A heatmap's echo at the j-th listed delay is target_attenuation * _ECHO_DECAY**j.
_ECHO_DECAY = 0.5


class ReproduceMismatchError(ArithmeticError):
    """Re-executed run produced outputs with different digests."""


_NUMERIC_ERRORS = (
    DegenerateChannelError,
    DegenerateDirectionError,
    RankDeficientChannelError,
    UndefinedProfileError,
    FloatingPointError,
    ReproduceMismatchError,
)

# --set's scenario keys; the seed comes from --seed or the scenario.
_SCENARIO_FIELDS = {f.name for f in dataclasses.fields(ScenarioConfig)} - {"seed"}
# point-eval's --set keys; its family comes from --family.
_KNOBS = tuple(f.name for f in dataclasses.fields(ParameterPoint) if f.name != "family")


def _fail(code: int, exc: BaseException) -> int:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload), file=sys.stderr)
    return code


def _settings(args, own=()) -> tuple[ScenarioConfig, dict]:
    """The scenario a command runs on, and the --set values of its ``own`` keys.

    --set takes JSON values of the scenario fields but the seed, plus the
    command's own keys; any other key is an error rather than ignored.
    """
    overrides = {}
    for pair in args.set or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, raw = (part.strip() for part in pair.split("=", 1))
        if key in overrides:
            raise ConfigError(f"--set {key} given twice")
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            raise ConfigError(f"--set {key}: {raw!r} is not a JSON value") from None
    unknown = set(overrides) - _SCENARIO_FIELDS - set(own)
    if unknown:
        raise ConfigError(f"unknown override keys for {args.command}: {sorted(unknown)}")
    if args.scenario:
        with open(args.scenario, encoding="utf-8") as fh:
            cfg = ScenarioConfig.from_json(fh.read())
    else:
        cfg = scenario_preset(args.preset or "S1")
    updates = {} if args.seed is None else {"seed": args.seed}
    updates.update((k, v) for k, v in overrides.items() if k in _SCENARIO_FIELDS)
    if updates:
        cfg = ScenarioConfig.from_json_dict({**cfg.to_json_dict(), **updates})
    return cfg, {k: v for k, v in overrides.items() if k in own}


def _family_tuple(arg: str) -> tuple[str, ...]:
    table = {"mrt": ("MRT",), "zf": ("ZF",), "both": ("MRT", "ZF")}
    if arg.lower() not in table:
        raise ConfigError(f"--family must be mrt, zf or both, got {arg!r}")
    return table[arg.lower()]


def _single_family(args) -> str:
    if args.family == "both":
        raise ConfigError(f"{args.command} needs a single family, not 'both'")
    return _family_tuple(args.family)[0]


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _write_json(path: str, payload: dict) -> str:
    """Write strict JSON (no NaN or Infinity literals); return the text."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


# Each run function takes the scenario, the command's run.json section and
# the output directory, writes the command's files, and returns the text
# a fresh run prints (or None). ``reproduce`` calls the same function with
# the section read back from the manifest.


def _run_sweep(cfg: ScenarioConfig, section: dict, out_dir: str) -> None:
    spec = SweepSpec(**section)
    channels = generate_channels(cfg, _GEOM, RngStream(cfg.seed, 0))
    result = sweep(spec, channels, cfg)
    if not result.points:
        raise RankDeficientChannelError(
            "every grid point was skipped; no region to report"
        )
    write_points_csv(result.points, os.path.join(out_dir, "points.csv"))
    write_points_csv(result.boundary, os.path.join(out_dir, "boundary.csv"))
    write_boundary_params_csv(result.boundary, os.path.join(out_dir, "boundary_params.csv"))


def _check_indices(name: str, values, stop: float) -> None:
    """Require a nonempty list of distinct non-bool integers in [0, stop).

    A repeated n0 or row index would write rows no reader can tell apart.
    """
    ok = values and all(type(v) is int and 0 <= v < stop for v in values)
    if not ok or len(set(values)) != len(values):
        raise ConfigError(
            f"{name} must be distinct integers in [0, {stop}), at least one; got {values!r}"
        )


def _run_heatmap(cfg: ScenarioConfig, section: dict, out_dir: str) -> None:
    n0_values, trials = section["n0_values"], section["trials"]
    _check_indices("trials", [trials], math.inf)
    _check_indices("n0 values", n0_values, cfg.n_subcarriers)
    channels = generate_channels(cfg, _GEOM, RngStream(cfg.seed, 0))
    # Captures add clutter of energy 10·β²·G and the matched filter peaks at
    # a power up to (β·G)², G = Σ|c|²; both must stay finite. Four
    # unit-modulus streams share total_power, so G ≤ 4·n_tx·total_power.
    # The echo only decays, so the first, β = target_attenuation, is the largest.
    beta, gain_bound = cfg.target_attenuation, 4.0 * channels.n_tx * cfg.total_power
    peak = beta * gain_bound
    if not (math.isfinite(10.0 * beta * peak) and math.isfinite(peak * peak)):
        raise ConfigError(
            f"target_attenuation {beta!r} gives a clutter energy 10*beta**2*G or a peak "
            f"power (beta*G)**2, G = {gain_bound:g}, that is not finite"
        )
    rows = [(i, ParameterPoint(*key)) for i, key in section["params_rows"]]
    _check_indices("params row indices", [i for i, _ in rows], math.inf)
    lines = ["index,n0,bin,snr_db,peak_correct\n"]
    stream = 1
    for row_index, pp in rows:
        # Built even with no trials to run, so a row that cannot be built fails alike.
        pset = build_precoders(pp, channels, cfg)
        for j, n0 in enumerate(n0_values if trials else ()):
            beta = cfg.target_attenuation * _ECHO_DECAY**j
            # Trial t draws from streams s, s + 1 and s + 2 with s = stream + 3t.
            peaks, snr_db = monte_carlo(
                channels, pset, cfg,
                [(s, s + 1, s + 2) for s in range(stream, stream + 3 * trials, 3)],
                lambda c, with_target, without: two_stage_capture(
                    c, n0, beta, cfg.noise_power_radar, with_target, without
                ),
            )
            stream += 3 * trials
            counts = np.bincount(peaks)
            modal = int(np.argmax(counts))
            correct = sum(1 for p in peaks if p == n0) / trials
            lines.append(f"{row_index},{n0},{modal},{snr_db:.6f},{correct:.6f}\n")
    # Written once, after every row is measured: a run that fails leaves no file.
    with open(os.path.join(out_dir, "heatmap.csv"), "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def _run_point(cfg: ScenarioConfig, section: list, out_dir: str) -> str:
    pp = ParameterPoint(*section)
    channels = generate_channels(cfg, _GEOM, RngStream(cfg.seed, 0))
    pset = build_precoders(pp, channels, cfg)
    users, target = stream_gains(channels, pset)
    report = throughput(users, pset, cfg)
    g0, crb = expected_sensing(target, cfg)

    def mean_db(values: np.ndarray) -> float | str:
        mean = float(np.mean(values))
        return 10.0 * math.log10(mean) if mean > 0 else "-inf"

    payload = {
        "params": {
            "t_comms": pp.t_comms, "t_p": pp.t_p,
            "alpha_c": pp.alpha_c, "alpha_p": pp.alpha_p, "family": pp.family,
        },
        "case": CASE_TAGS[case_codes(pp.t_comms, pp.t_p, pp.alpha_c, pp.alpha_p)],
        "stream_powers": pset.stream_powers(),
        "t_common_bps": report.t_common.tolist(),
        "t_private_bps": [rate.tolist() for rate in report.t_private],
        "t_sum_bps": report.t_sum.tolist(),
        "collapsed": bool(report.collapsed),
        "mcs_indices": [int(m) if m >= 0 else None for m in report.mcs_chosen],
        "sinr_common_mean_db": [mean_db(sinr) for sinr in report.sinr[0]],
        "sinr_private_mean_db": [mean_db(sinr) for sinr in report.sinr[1]],
        "spectral_efficiency_common": [eff.tolist() for eff in report.efficiency[0]],
        "g0": float(g0),
        "crb_bins2": float(crb) if math.isfinite(crb) else "inf",
    }
    return _write_json(os.path.join(out_dir, "point.json"), payload)


def _run_calibrate(cfg: ScenarioConfig, section: None, out_dir: str) -> str:
    gen = RngStream(cfg.seed, 7).generator()
    # One constant phase per chain (what the pairwise correction can fix)
    # plus a little per-subcarrier ripple (what it cannot).
    base = gen.uniform(-np.pi / 2, np.pi / 2, size=(2, 1))
    ripple = gen.normal(scale=0.02, size=(2, cfg.n_subcarriers))
    offsets = np.clip(base + ripple, -np.pi + 1e-9, np.pi)
    anchor = anchor_channels(offsets)
    delta = estimate_phase_correction(anchor)
    aligned = apply_phase_correction(anchor, delta)

    def misalignment(grid: np.ndarray) -> float:
        return float(np.mean(np.abs(np.angle(grid[0] * np.conj(grid[1])))))

    payload = {
        "delta_phi": delta,
        "correction": -delta,
        "misalignment_before_rad": misalignment(anchor),
        "misalignment_after_rad": misalignment(aligned),
    }
    return _write_json(os.path.join(out_dir, "calibration.json"), payload)


# command -> (run.json section key, run function, output files)
_COMMANDS = {
    "sweep": ("sweep", _run_sweep, ("points.csv", "boundary.csv", "boundary_params.csv")),
    "radar-heatmap": ("heatmap", _run_heatmap, ("heatmap.csv",)),
    "point-eval": ("point", _run_point, ("point.json",)),
    "calibrate-demo": (None, _run_calibrate, ("calibration.json",)),
}


def _execute(command: str, cfg: ScenarioConfig, section, out_dir: str, stale: tuple):
    """Run ``command`` from its section into ``out_dir``; return its report and digests.

    The command's output files and the ``stale`` names are removed first,
    so each is this run's or absent. Remove-then-create also skips the
    flush on close that ext4 gives a truncated and rewritten file.
    """
    _, run, outputs = _COMMANDS[command]
    os.makedirs(out_dir, exist_ok=True)
    for name in (*outputs, *stale):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))
    report = run(cfg, section, out_dir)
    return report, {name: _digest(os.path.join(out_dir, name)) for name in outputs}


def _record(args, cfg: ScenarioConfig, section) -> int:
    """Run ``args.command`` from its section, echo its report, write run.json."""
    report, digests = _execute(args.command, cfg, section, args.out, ("run.json",))
    if report is not None:
        print(report, end="")
    manifest = {"command": args.command, "scenario": cfg.to_json_dict(), "outputs": digests}
    key = _COMMANDS[args.command][0]
    if key is not None:
        manifest[key] = section
    _write_json(os.path.join(args.out, "run.json"), manifest)
    return 0


def cmd_sweep(args) -> int:
    cfg, own = _settings(args, ("include_cases",))
    section = {
        "grid_step": args.step,
        "families": list(_family_tuple(args.family)),
        "metric": {"g0": "G0", "snr": "SNR_RAD"}[args.metric],
        "include_cases": own.get("include_cases"),
        "monte_carlo_trials": args.trials,
    }
    # The manifest records the case filter in canonical form: sorted tags.
    spec = SweepSpec(**section)
    if spec.include_cases is not None:
        section["include_cases"] = sorted(spec.include_cases)
    return _record(args, cfg, section)


def _parse_params_csv(path: str, family: str) -> list:
    """Read boundary_params.csv rows back as ``[index, ParameterPoint key]``.

    Dashed entries are the pinned values the sweep collapsed away:
    no communications power pins everything downstream, t_p = 1 pins
    alpha_c, t_p = 0 pins alpha_p. Blank lines are skipped; a row with
    fewer or more cells than the header, or a cell that is not a number,
    is a ``ConfigError`` naming its line, and so are a header without the
    knob columns and a file without rows.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        idx = {name: i for i, name in enumerate(header)}
        missing = [name for name in ("index", *_KNOBS) if name not in idx]
        if missing:
            raise ConfigError(f"{path}: header lacks the columns {missing}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            cells = line.strip().split(",")
            if len(cells) != len(header):
                raise ConfigError(
                    f"{path}, line {lineno}: {len(cells)} cells where the header "
                    f"has {len(header)}"
                )

            t_comms, *rest = (cells[idx[name]] for name in _KNOBS)
            try:
                index = int(cells[idx["index"]])
                key = [float(t_comms), *(1.0 if raw == "-" else float(raw) for raw in rest)]
            except ValueError as exc:
                raise ConfigError(f"{path}, line {lineno}: {exc}") from None
            rows.append([index, [*key, family]])
    if not rows:
        raise ConfigError(f"{path}: no operating points")
    return rows


def cmd_radar_heatmap(args) -> int:
    cfg, _ = _settings(args)
    if not os.path.exists(args.params):
        raise ConfigError(f"params file not found: {args.params}")
    try:
        n0_values = [int(v) for v in args.n0.split(",")]
    except ValueError:
        raise ConfigError(f"--n0 must be comma-separated integers, got {args.n0!r}") from None
    section = {
        "params_rows": _parse_params_csv(args.params, _single_family(args)),
        "n0_values": n0_values,
        "trials": args.trials,
    }
    return _record(args, cfg, section)


def cmd_point_eval(args) -> int:
    cfg, knobs = _settings(args, _KNOBS)
    missing = [k for k in _KNOBS if k not in knobs]
    if missing:
        raise ConfigError(f"point-eval needs --set for: {missing}")
    family = _single_family(args)
    # Checked before float() could read true as 1.0.
    ParameterPoint(*(knobs[k] for k in _KNOBS), family)
    return _record(args, cfg, [float(knobs[k]) for k in _KNOBS] + [family])


def cmd_calibrate_demo(args) -> int:
    cfg, _ = _settings(args)
    return _record(args, cfg, None)


def cmd_reproduce(args) -> int:
    with open(args.run, encoding="utf-8") as fh:
        manifest = json.load(fh)
    cfg = ScenarioConfig.from_json_dict(manifest["scenario"])
    command = manifest["command"]
    if command not in _COMMANDS:
        raise ConfigError(f"manifest has unknown command {command!r}")
    key, _, outputs = _COMMANDS[command]
    # The files checked are the command's own, never names the manifest
    # supplies: an empty list would check nothing, a path could leave --out.
    expected = manifest["outputs"]
    if not isinstance(expected, dict) or sorted(expected) != sorted(outputs):
        raise ConfigError(
            f"manifest outputs must be the digests of {list(outputs)}, got {expected!r}"
        )
    # No run.json is written or removed here, so --out may hold this
    # manifest; another run's would be left describing files it did not write.
    held = os.path.join(args.out, "run.json")
    if os.path.exists(held) and not os.path.samefile(held, args.run):
        raise ConfigError(f"{args.out} holds another run's run.json; reproduce elsewhere")
    _, actual = _execute(command, cfg, manifest[key] if key is not None else None, args.out, ())
    mismatched = {
        name: {"expected": expected[name], "actual": actual[name]}
        for name in outputs
        if actual[name] != expected[name]
    }
    verdict = {"status": "mismatch" if mismatched else "ok", "files": actual}
    if mismatched:
        verdict["mismatched"] = mismatched
    print(json.dumps(verdict, indent=2, sort_keys=True))
    if mismatched:
        raise ReproduceMismatchError("reproduced outputs differ from the manifest digests")
    return 0


class _Once(argparse.Action):
    """Stores a flag's value; a second occurrence is a usage error, not last-wins."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            parser.error(f"argument {'/'.join(self.option_strings)}: given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


def _add_command(sub, name: str, help: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help)
    # Every flag without an action of its own (all but --set) is _Once.
    p.register("action", None, _Once)
    return p


def _add_common(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group()
    source.add_argument("--scenario", help="path to a scenario JSON file")
    source.add_argument("--preset", choices=["S1", "S2", "S3"], help="built-in scenario")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="JSON value of a scenario field but seed, or of a command's own key (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsma-isac",
        description="Link-level trade-off simulator for a dual-function "
        "communications and sensing downlink",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "sweep", "sweep the parameter grid and export the region")
    _add_common(p)
    p.add_argument("--step", type=float, default=0.1, help="grid step (1/step integer)")
    p.add_argument("--family", default="both", help="mrt, zf or both")
    p.add_argument("--metric", choices=["g0", "snr"], default="g0")
    p.add_argument("--trials", type=int, default=25, help="Monte Carlo trials (snr metric)")

    p = _add_command(sub, "radar-heatmap", "measured radar SNR per boundary point and delay")
    _add_common(p)
    p.add_argument("--params", required=True, help="boundary_params.csv from a sweep")
    p.add_argument("--family", default="mrt", help="family the params file belongs to")
    p.add_argument("--n0", default="1,2,3", help="comma-separated delay bins")
    p.add_argument("--trials", type=int, default=50)

    p = _add_command(sub, "point-eval", "evaluate one parameter point in depth")
    _add_common(p)
    p.add_argument("--family", default="mrt", help="mrt or zf")

    p = _add_command(sub, "calibrate-demo", "two-chain phase calibration round trip")
    _add_common(p)

    p = _add_command(sub, "reproduce", "re-run a manifest and verify output digests")
    p.add_argument("--run", required=True, help="path to a run.json")
    p.add_argument("--out", default="out-reproduce", help="directory for the re-run")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up when called, so a rebinding of a cmd_* function is seen.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except _NUMERIC_ERRORS as exc:
        return _fail(3, exc)
    except (ValueError, OSError, KeyError, TypeError, MemoryError) as exc:
        return _fail(2, exc)


if __name__ == "__main__":
    sys.exit(main())
