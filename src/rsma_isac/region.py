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
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ArrayGeometry,
    ChannelSet,
    ConfigError,
    RngStream,
    ScenarioConfig,
    steering_vector,
)
from .precoders import (
    CASE_TAGS,
    FAMILIES,
    ParameterPoint,
    RankDeficientChannelError,
    build_precoders,
    classify_special_case,
    common_direction,
    private_directions,
)
from .radar import (
    ZeroInformationError,
    _delay_crb,
    radar_return,
    range_profile,
    synthesize_tx,
)
from .throughput import DEFAULT_BANDWIDTH, throughput

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


def round_sig(value: float, digits: int = 12) -> float:
    """Round to ``digits`` significant decimal digits.

    Sweep sensing energies are sums whose addends regroup as the power
    split moves around the grid, so operating points that are equal on
    paper can differ in the last couple of ulps. Rounding to 12 digits
    absorbs that noise while keeping every distinction the grid can
    actually produce, which lets the frontier dedup rule treat equal
    points as the duplicates they are.
    """
    if not math.isfinite(value):
        return value
    return float(f"{value:.{digits - 1}e}")


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
        if self.metric == "SNR_RAD" and self.monte_carlo_trials < 1:
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
    mcs_indices: tuple[int | None, int | None, int | None] = (None, None, None)

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
    """Everything a sweep produced: raw points, frontier, per-case frontiers."""

    points: tuple[IsacPoint, ...]
    boundary: tuple[IsacPoint, ...]
    per_case_boundaries: dict[str, tuple[IsacPoint, ...]]
    skipped: tuple[SkippedPoint, ...] = ()
    metric: str = "G0"


def grid_axis(grid_step: float) -> tuple[float, ...]:
    """The shared axis {0, step, ..., 1} with exact endpoints."""
    n = round(1.0 / grid_step)
    return tuple(float(v) for v in np.linspace(0.0, 1.0, n + 1))


def enumerate_grid(grid_step: float, family: str) -> list[ParameterPoint]:
    """All distinct operating points of one family on the grid.

    Parameters that cannot matter are pinned instead of swept: with no
    communications power everything but t_comms is fixed; with t_p = 1 the
    common mix alpha_c is fixed; with t_p = 0 the private mix alpha_p is.
    """
    axis = grid_axis(grid_step)
    out: list[ParameterPoint] = []
    for t in axis:
        if t == 0.0:
            out.append(ParameterPoint(0.0, 1.0, 1.0, 1.0, family))
            continue
        for tp in axis:
            ac_axis = (1.0,) if tp == 1.0 else axis
            ap_axis = (1.0,) if tp == 0.0 else axis
            for ac in ac_axis:
                for ap in ap_axis:
                    out.append(ParameterPoint(t, tp, ac, ap, family))
    return out


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


def pareto_frontier(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Non-dominated subset of (x, y) pairs, sorted by x ascending."""
    if not points:
        raise ConfigError("pareto_frontier needs at least one point")
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    return [points[i] for i in pareto_indices(xs, ys)]


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


def _blend_profile(
    base: np.ndarray, u0: np.ndarray, a0: np.ndarray, alphas
) -> tuple[np.ndarray, np.ndarray]:
    """Per-watt sensing numbers for the blends sqrt(a)*base + sqrt(1-a)*u0.

    For each alpha the stream direction is the (unnormalized) blend d_k;
    after the global power normalization a stream carrying power P radiates
    P * gain toward the sensed direction and contributes P * k2_gain to the
    k^2-weighted energy the delay Fisher information is built from. Pure
    endpoints reproduce base and u0 bit for bit (sqrt(0) scaling leaves the
    other term untouched), so streams that degenerate to the same physical
    beam get identical numbers.
    """
    nc = base.shape[0]
    k2 = np.arange(nc, dtype=float) ** 2
    gain = np.empty(len(alphas))
    k2_gain = np.empty(len(alphas))
    for i, alpha in enumerate(alphas):
        d = math.sqrt(alpha) * base + math.sqrt(1.0 - alpha) * u0[None, :]
        proj = np.abs(d @ np.conj(a0)) ** 2
        energy = float(np.sum(np.abs(d) ** 2))
        gain[i] = float(np.sum(proj)) / energy
        k2_gain[i] = float(np.sum(k2 * proj)) / energy
    return gain, k2_gain


def _measured_snr_db(
    pset,
    cfg: ScenarioConfig,
    geom: ArrayGeometry,
    trials: int,
    stream_base: int,
) -> float:
    """Mean measured matched-filter SNR over seeded end-to-end simulations."""
    total = 0.0
    for t in range(trials):
        tx = synthesize_tx(pset, RngStream(cfg.seed, stream_base + 2 * t))
        obs = radar_return(
            tx,
            cfg.target_delay_bins,
            cfg.target_attenuation,
            cfg.noise_power_radar,
            RngStream(cfg.seed, stream_base + 2 * t + 1),
            geom=geom,
            angle_deg=cfg.target_angle_deg,
        )
        prof = range_profile(obs, tx, geom=geom, angle_deg=cfg.target_angle_deg)
        total += 10.0 ** (prof.snr_rad_db / 10.0)
    return 10.0 * math.log10(total / trials)


def sweep(
    spec: SweepSpec,
    channels: ChannelSet,
    cfg: ScenarioConfig,
    geom: ArrayGeometry | None = None,
    bandwidth_hz: float = DEFAULT_BANDWIDTH.value_hz,
) -> RegionResult:
    """Evaluate every grid point and extract the Pareto boundaries.

    The sensing axis is the symbol-averaged broadside energy: each stream
    contributes its allocated power times a per-watt gain that depends only
    on its blend parameter, so the gains are tabulated once per family and
    the per-point value is a three-term dot product. The same tables carry
    the k^2-weighted energies the delay CRB needs. Values are rounded to 12
    significant digits so points that are equal on paper tie exactly.
    SNR_RAD mode additionally simulates the full radar chain per point with
    deterministic per-point random streams. ZF rank failures mark the
    affected points as skipped instead of aborting the sweep (points that
    allocate no private power survive, since they never need the failing
    directions).
    """
    g = geom if geom is not None else ArrayGeometry(n_tx=channels.n_tx)
    uc = common_direction(channels)
    u0 = channels.broadside_unit
    a0 = steering_vector(g, cfg.target_angle_deg)
    nc = channels.n_subcarriers
    pt = cfg.total_power
    axis = grid_axis(spec.grid_step)
    alpha_index = {alpha: i for i, alpha in enumerate(axis)}
    gain_c, k2_c = _blend_profile(uc, u0, a0, axis)
    (gain_r,), (k2_r,) = _blend_profile(
        np.broadcast_to(u0, uc.shape), u0, a0, (1.0,)
    )
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
        if dirs is not None:
            gain_1, k2_1 = _blend_profile(dirs[0], u0, a0, axis)
            gain_2, k2_2 = _blend_profile(dirs[1], u0, a0, axis)
        for pp in enumerate_grid(spec.grid_step, family):
            case = classify_special_case(pp)
            if spec.include_cases is not None and case not in spec.include_cases:
                continue
            needs_private = pp.t_comms > 0.0 and pp.t_p > 0.0
            if needs_private and dirs_error is not None:
                skipped.append(SkippedPoint(pp, dirs_error))
                continue
            pset = build_precoders(
                pp, channels, cfg, private_dirs=dirs, common_dir=uc
            )
            report = throughput(channels, pset, cfg, bandwidth_hz)
            ic, ip = alpha_index[pp.alpha_c], alpha_index[pp.alpha_p]
            p_common = pt * pp.t_comms * (1.0 - pp.t_p)
            p_private = pt * pp.t_comms * pp.t_p / 2.0
            p_sense = pt * (1.0 - pp.t_comms)
            raw = 0.0
            weighted = 0.0
            if p_common > 0.0:
                raw += p_common * gain_c[ic]
                weighted += p_common * k2_c[ic]
            if p_private > 0.0:
                raw += p_private * (gain_1[ip] + gain_2[ip])
                weighted += p_private * (k2_1[ip] + k2_2[ip])
            if p_sense > 0.0:
                raw += p_sense * gain_r
                weighted += p_sense * k2_r
            g0 = round_sig(raw)
            try:
                bound = _delay_crb(
                    weighted, nc, cfg.target_attenuation, cfg.noise_power_radar
                )
            except ZeroInformationError:
                bound = math.inf
            snr_db = None
            if spec.metric == "SNR_RAD":
                snr_db = _measured_snr_db(
                    pset,
                    cfg,
                    g,
                    spec.monte_carlo_trials,
                    _SNR_STREAM_BASE + 2 * spec.monte_carlo_trials * counter,
                )
            mcs = tuple(
                level.index if level is not None else None
                for level in report.mcs_chosen
            )
            points.append(
                IsacPoint(
                    params=pp,
                    t_sum_bps=report.t_sum,
                    g0=g0,
                    snr_rad_db=snr_db,
                    crb_bins2=bound,
                    case=case,
                    collapsed=report.collapsed,
                    mcs_indices=mcs,
                )
            )
            counter += 1

    boundary = tuple(frontier_points(points, spec.metric))
    per_case: dict[str, tuple[IsacPoint, ...]] = {}
    for tag in CASE_TAGS:
        subset = [p for p in points if p.case == tag]
        if subset:
            per_case[tag] = tuple(frontier_points(subset, spec.metric))
    return RegionResult(
        points=tuple(points),
        boundary=boundary,
        per_case_boundaries=per_case,
        skipped=tuple(skipped),
        metric=spec.metric,
    )


@dataclass(frozen=True)
class BoundaryRow:
    """One frontier point reduced to its knobs and chosen MCS levels."""

    index: int
    params: ParameterPoint
    mcs_indices: tuple[int | None, int | None, int | None]
    t_sum_bps: float
    metric_value: float


def boundary_params(
    result: RegionResult, case_filter: str | None = None
) -> list[BoundaryRow]:
    """The parameter/MCS settings behind each frontier point, x ascending.

    ``case_filter`` may be a scheme name ("SDMA", "RSMA_NoSense"), a case
    tag (frontier recomputed within the matching points), or None for the
    overall boundary. An unknown or absent tag raises, since an empty
    frontier has no parameters to report.
    """
    if case_filter is None:
        pts = list(result.boundary)
    elif case_filter in _SCHEME_PREDICATES:
        subset = scheme_points(list(result.points), case_filter)
        if not subset:
            raise ConfigError(
                f"no points in scheme {case_filter!r}; its frontier is empty"
            )
        pts = frontier_points(subset, result.metric)
    else:
        if case_filter not in CASE_TAGS:
            raise ConfigError(f"unknown case tag {case_filter!r}")
        subset = [p for p in result.points if p.case == case_filter]
        if not subset:
            raise ConfigError(
                f"no points with case {case_filter!r}; its frontier is empty"
            )
        pts = frontier_points(subset, result.metric)
    return [
        BoundaryRow(
            index=i,
            params=p.params,
            mcs_indices=p.mcs_indices,
            t_sum_bps=p.t_sum_bps,
            metric_value=p.metric_value(result.metric),
        )
        for i, p in enumerate(pts)
    ]


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


def write_boundary_params_csv(rows: list[BoundaryRow], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,t_comms,t_p,alpha_c,alpha_p,mcs_c,mcs_1,mcs_2\n")
        for row in rows:
            t, tp, ac, ap = _dash_params(row.params)
            mcs = ["-" if m is None else str(m) for m in row.mcs_indices]
            fh.write(f"{row.index},{t},{tp},{ac},{ap},{mcs[0]},{mcs[1]},{mcs[2]}\n")
