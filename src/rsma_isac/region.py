"""Four-parameter sweeps, performance regions, and Pareto boundaries.

Sweeping (t_comms, t_p, alpha_c, alpha_p) over a grid and evaluating sum
throughput against broadside sensing energy traces out an achievable
region; its Pareto frontier is the trade-off curve the precoder family can
reach. Axes whose stream has no power are pinned to a single value before
enumeration so the grid never visits the same physical operating point
twice.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .core import (
    ArrayGeometry,
    ChannelSet,
    ConfigError,
    RngStream,
    ScenarioConfig,
)
from .precoders import (
    CASE_TAGS,
    FAMILIES,
    ParameterPoint,
    PrecoderSet,
    RankDeficientChannelError,
    build_precoders,
    classify_special_case,
    common_direction,
    private_directions,
)
from .radar import (
    _delay_crb,
    _k2_sum,
    _trial_chunks,
    expected_steered_power,
    radar_return,
    range_profile,
    steered_projection,
    synthesize_tx,
)
from .throughput import throughput

# Stream ids below this are free for callers; sweep Monte Carlo draws live
# above it so they can never collide with channel generation streams.
_SNR_STREAM_BASE = 1 << 20

METRICS = ("G0", "SNR_RAD")

# Parameter patterns coarser than the case tags, for frontier filtering.
# SDMA sends no common stream regardless of how much power sensing gets;
# full-communications RSMA spends the whole budget on communications. The
# two overlap (t_comms = 1 with t_p = 1 is in both), and SDMA includes the
# sensing-only endpoint, which no case tag covers.
_SCHEME_PREDICATES = {
    "SDMA": lambda pp: pp.t_p == 1.0,
    "RSMA_NoSense": lambda pp: pp.t_comms == 1.0,
}
SCHEMES = tuple(_SCHEME_PREDICATES)


def round_sig(value: float) -> float:
    """Round to 12 significant decimal digits.

    Sweep sensing energies are sums whose addends regroup as the power
    split moves around the grid, so operating points that are equal on
    paper can differ in the last couple of ulps. Rounding to 12 digits
    absorbs that noise while keeping every distinction the grid can
    actually produce, which lets the frontier dedup rule treat equal
    points as the duplicates they are.
    """
    if not math.isfinite(value):
        return value
    return float(f"{value:.11e}")


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep and how to score the sensing axis."""

    grid_step: float = 0.1
    families: tuple[str, ...] = ("MRT",)
    metric: str = "G0"
    include_cases: frozenset[str] | None = None
    monte_carlo_trials: int = 25

    def __post_init__(self) -> None:
        if not 0.0 < self.grid_step <= 0.5:
            raise ConfigError("grid_step must lie in (0, 0.5]")
        inv = 1.0 / self.grid_step
        if abs(inv - round(inv)) > 1e-9:
            raise ConfigError("1/grid_step must be an integer")
        fams = tuple(f.upper() for f in self.families)
        if not fams or any(f not in FAMILIES for f in fams):
            raise ConfigError(f"families must be a nonempty subset of {FAMILIES}")
        object.__setattr__(self, "families", fams)
        if self.metric not in METRICS:
            raise ConfigError(f"metric must be one of {METRICS}")
        if self.include_cases is not None:
            cases = frozenset(self.include_cases)
            unknown = cases - set(CASE_TAGS)
            if unknown:
                raise ConfigError(f"unknown case tags: {sorted(unknown)}")
            object.__setattr__(self, "include_cases", cases)
        trials = self.monte_carlo_trials
        if isinstance(trials, bool) or not isinstance(trials, numbers.Integral):
            raise ConfigError(f"monte_carlo_trials must be an integer, got {trials!r}")
        if trials < 0:
            raise ConfigError(f"monte_carlo_trials must be nonnegative, got {trials}")
        if self.metric == "SNR_RAD" and trials < 1:
            raise ConfigError("SNR_RAD metric needs at least one Monte Carlo trial")


@dataclass(frozen=True)
class IsacPoint:
    """One evaluated operating point: throughput vs sensing, plus context."""

    params: ParameterPoint
    t_sum_bps: float
    g0: float
    snr_rad_db: float | None
    crb_bins2: float
    case: str
    collapsed: bool
    mcs_indices: tuple[int, int, int] = (-1, -1, -1)

    def metric_value(self, metric: str) -> float:
        if metric == "G0":
            return self.g0
        if self.snr_rad_db is None:
            raise ConfigError("point carries no SNR_RAD value")
        return self.snr_rad_db


@dataclass(frozen=True)
class SkippedPoint:
    """A grid point that could not be evaluated, with the reason."""

    params: ParameterPoint
    reason: str


@dataclass(frozen=True)
class RegionResult:
    """Everything a sweep produced: raw points, their frontier, skipped points."""

    points: tuple[IsacPoint, ...]
    boundary: tuple[IsacPoint, ...]
    skipped: tuple[SkippedPoint, ...] = ()
    metric: str = "G0"


def grid_axis(grid_step: float) -> tuple[float, ...]:
    """The shared axis {0, step, ..., 1} with exact endpoints."""
    n = round(1.0 / grid_step)
    return tuple(float(v) for v in np.linspace(0.0, 1.0, n + 1))


def _grid_blocks(grid_step: float):
    """The grid as (t_comms, t_p, alpha_c axis, alpha_p axis) blocks, in order.

    Parameters that cannot matter are pinned instead of swept: with no
    communications power everything but t_comms is fixed; with t_p = 1 the
    common mix alpha_c is fixed; with t_p = 0 the private mix alpha_p is.
    """
    axis = grid_axis(grid_step)
    for t in axis:
        if t == 0.0:
            yield 0.0, 1.0, (1.0,), (1.0,)
            continue
        for tp in axis:
            yield t, tp, (1.0,) if tp == 1.0 else axis, (1.0,) if tp == 0.0 else axis


def enumerate_grid(grid_step: float, family: str) -> list[ParameterPoint]:
    """All distinct operating points of one family on the grid."""
    return [
        ParameterPoint(t, tp, ac, ap, family)
        for t, tp, ac_axis, ap_axis in _grid_blocks(grid_step)
        for ac in ac_axis
        for ap in ap_axis
    ]


def pareto_indices(
    xs: np.ndarray, ys: np.ndarray, keys: list | None = None
) -> list[int]:
    """Indices of the non-dominated points, ordered by x ascending.

    A point is dominated when some other point is at least as good on both
    axes and strictly better on one. Exact coordinate duplicates keep the
    entry with the lowest key (input order when no keys are given).
    """
    n = len(xs)
    if n == 0:
        return []
    if keys is None:
        keys = list(range(n))
    order = sorted(range(n), key=lambda i: (-xs[i], -ys[i], keys[i]))
    chosen: list[int] = []
    best_y = -math.inf
    for i in order:
        if ys[i] > best_y:
            chosen.append(i)
            best_y = ys[i]
    chosen.reverse()
    return chosen


def frontier_points(points: list[IsacPoint], metric: str = "G0") -> list[IsacPoint]:
    """Pareto frontier of IsacPoints on (t_sum, sensing metric)."""
    if not points:
        return []
    xs = np.array([p.t_sum_bps for p in points])
    ys = np.array([p.metric_value(metric) for p in points])
    keys = [p.params.key() for p in points]
    return [points[i] for i in pareto_indices(xs, ys, keys)]


def scheme_points(points: list[IsacPoint], scheme: str) -> list[IsacPoint]:
    """The subset of points matching a parameter-pattern scheme."""
    if scheme not in _SCHEME_PREDICATES:
        raise ConfigError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    pred = _SCHEME_PREDICATES[scheme]
    return [p for p in points if pred(p.params)]


def scheme_frontier(
    points: list[IsacPoint], scheme: str, metric: str = "G0"
) -> list[IsacPoint]:
    """Pareto frontier restricted to one scheme's points."""
    return frontier_points(scheme_points(points, scheme), metric)


def _block_precoders(
    t_comms: float,
    t_p: float,
    ac_axis: tuple[float, ...],
    ap_axis: tuple[float, ...],
    family: str,
    channels: ChannelSet,
    cfg: ScenarioConfig,
    private_dirs: np.ndarray | None,
    common_dir: np.ndarray,
) -> PrecoderSet:
    """Precoders of a whole (t_comms, t_p) block as one batch.

    With the power split fixed, the common precoder depends only on
    alpha_c and the private ones only on alpha_p, so one build per axis
    value gives them all: p_c comes back with batch shape (n_ac, 1) and
    p_1, p_2 with (1, n_ap), which broadcast to the block's (alpha_c,
    alpha_p) plane. A pinned axis is (1.0,), the value its shorter list is
    padded with, and each entry is exactly what ``build_precoders`` gives
    for the single point.
    """
    psets = [
        build_precoders(
            ParameterPoint(t_comms, t_p, ac, ap, family),
            channels,
            cfg,
            private_dirs=private_dirs,
            common_dir=common_dir,
        )
        for ac, ap in zip_longest(ac_axis, ap_axis, fillvalue=1.0)
    ]
    privates = psets[: len(ap_axis)]
    return PrecoderSet(
        p_c=np.stack([ps.p_c for ps in psets[: len(ac_axis)]])[:, None],
        p_1=np.stack([ps.p_1 for ps in privates])[None],
        p_2=np.stack([ps.p_2 for ps in privates])[None],
        p_r=psets[0].p_r,
    )


def _measured_snr_db(
    pset,
    cfg: ScenarioConfig,
    geom: ArrayGeometry,
    trials: int,
    stream_base: int,
) -> float:
    """Mean measured matched-filter SNR over seeded end-to-end simulations.

    Trial t draws its waveform from stream ``stream_base + 2t`` and its
    noise from the next one; the trials run a chunk at a time.
    """
    total = 0.0
    for chunk in _trial_chunks(trials):
        x = synthesize_tx(pset, [RngStream(cfg.seed, stream_base + 2 * t) for t in chunk])
        c = steered_projection(x, geom, cfg.target_angle_deg)
        del x  # each stack goes once the next stage has consumed it
        y = radar_return(
            c, cfg.target_delay_bins, cfg.target_attenuation, cfg.noise_power_radar,
            [RngStream(cfg.seed, stream_base + 2 * t + 1) for t in chunk],
        )
        snrs = range_profile(y, c).snr_rad_db.tolist()
        del c, y
        for snr_db in snrs:
            total += 10.0 ** (snr_db / 10.0)
    return 10.0 * math.log10(total / trials)


def sweep(
    spec: SweepSpec,
    channels: ChannelSet,
    cfg: ScenarioConfig,
    geom: ArrayGeometry,
) -> RegionResult:
    """Evaluate every grid point and extract the Pareto boundary.

    ``geom`` is the array the channels were drawn with; the sensing axis
    steers through it. The grid is evaluated one (t_comms, t_p) block at
    a time. The block's precoders form one batch over its (alpha_c,
    alpha_p) plane (``_block_precoders``), and one ``throughput`` call
    scores all of it.
    The sensing axis is the symbol-averaged energy toward the target: one
    ``expected_steered_power`` call on the same batch gives every point's
    per-subcarrier power, g0 is its sum and the delay CRB comes from its
    k^2-weighted sum, so each point gets exactly what point-eval computes
    for it. g0 is rounded to 12 significant digits so points that are
    equal on paper tie exactly.
    SNR_RAD mode additionally simulates the full radar chain per point with
    deterministic per-point random streams. ZF rank failures mark the
    affected points as skipped instead of aborting the sweep (points that
    allocate no private power survive, since they never need the failing
    directions).
    """
    uc = common_direction(channels)
    nc = channels.n_subcarriers
    points: list[IsacPoint] = []
    skipped: list[SkippedPoint] = []
    counter = 0
    for family in spec.families:
        dirs = None
        dirs_error: str | None = None
        try:
            dirs = private_directions(channels, family)
        except RankDeficientChannelError as exc:
            dirs_error = str(exc)
        for t, tp, ac_axis, ap_axis in _grid_blocks(spec.grid_step):
            block = []
            for i, ac in enumerate(ac_axis):
                for j, ap in enumerate(ap_axis):
                    pp = ParameterPoint(t, tp, ac, ap, family)
                    case = classify_special_case(pp)
                    if spec.include_cases is None or case in spec.include_cases:
                        block.append((i, j, pp, case))
            if not block:
                continue
            if t > 0.0 and tp > 0.0 and dirs_error is not None:
                skipped.extend(SkippedPoint(pp, dirs_error) for _, _, pp, _ in block)
                continue
            pset = _block_precoders(
                t, tp, ac_axis, ap_axis, family, channels, cfg, dirs, uc
            )
            report = throughput(channels, pset, cfg)
            t_sum = report.t_sum.tolist()
            collapsed = report.collapsed.tolist()
            mcs = [index.tolist() for index in report.mcs_chosen]
            power = expected_steered_power(pset, geom, cfg.target_angle_deg)
            g0 = np.sum(power, axis=-1).tolist()
            crb = _delay_crb(
                _k2_sum(power), nc, cfg.target_attenuation, cfg.noise_power_radar
            ).tolist()
            for i, j, pp, case in block:
                snr_db = None
                if spec.metric == "SNR_RAD":
                    snr_db = _measured_snr_db(
                        PrecoderSet(pset.p_c[i, 0], pset.p_1[0, j], pset.p_2[0, j], pset.p_r),
                        cfg,
                        geom,
                        spec.monte_carlo_trials,
                        _SNR_STREAM_BASE + 2 * spec.monte_carlo_trials * counter,
                    )
                points.append(
                    IsacPoint(
                        params=pp,
                        t_sum_bps=t_sum[i][j],
                        g0=round_sig(g0[i][j]),
                        snr_rad_db=snr_db,
                        crb_bins2=crb[i][j],
                        case=case,
                        collapsed=collapsed[i][j],
                        mcs_indices=tuple(index[i][j] for index in mcs),
                    )
                )
                counter += 1

    return RegionResult(
        points=tuple(points),
        boundary=tuple(frontier_points(points, spec.metric)),
        skipped=tuple(skipped),
        metric=spec.metric,
    )


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return format(value, ".10g")


def _point_row(p: IsacPoint) -> str:
    pp = p.params
    return ",".join(
        [
            _fmt(pp.t_comms),
            _fmt(pp.t_p),
            _fmt(pp.alpha_c),
            _fmt(pp.alpha_p),
            pp.family,
            p.case,
            _fmt(p.t_sum_bps / 1e6),
            _fmt(p.g0),
            _fmt(p.snr_rad_db),
            _fmt(p.crb_bins2),
            str(int(p.collapsed)),
        ]
    )


_POINTS_HEADER = (
    "t_comms,t_p,alpha_c,alpha_p,family,case,"
    "t_sum_mbps,g0,snr_rad_db,crb_bins2,collapsed"
)


def write_points_csv(points, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_POINTS_HEADER + "\n")
        for p in points:
            fh.write(_point_row(p) + "\n")


def _dash_params(pp: ParameterPoint) -> tuple[str, str, str, str]:
    """Render parameters, dashing the ones that cannot matter at the point."""
    t = _fmt(pp.t_comms)
    if pp.t_comms == 0.0:
        return t, "-", "-", "-"
    tp = _fmt(pp.t_p)
    ac = "-" if pp.t_p == 1.0 else _fmt(pp.alpha_c)
    ap = "-" if pp.t_p == 0.0 else _fmt(pp.alpha_p)
    return t, tp, ac, ap


def write_boundary_params_csv(points, path: str) -> None:
    """The knobs and chosen MCS levels behind each frontier point, by position."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,t_comms,t_p,alpha_c,alpha_p,mcs_c,mcs_1,mcs_2\n")
        for index, p in enumerate(points):
            t, tp, ac, ap = _dash_params(p.params)
            mcs = ["-" if m < 0 else str(m) for m in p.mcs_indices]
            fh.write(f"{index},{t},{tp},{ac},{ap},{mcs[0]},{mcs[1]},{mcs[2]}\n")
