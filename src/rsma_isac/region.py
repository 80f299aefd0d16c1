"""Four-parameter sweeps, performance regions, and Pareto boundaries.

Sweeping (t_comms, t_p, alpha_c, alpha_p) over a grid and evaluating sum
throughput against broadside sensing energy traces out an achievable
region; its Pareto frontier is the trade-off curve the precoder family can
reach. Axes whose stream has no power are pinned to a single value before
enumeration so the grid never visits the same physical operating point
twice.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import ArrayGeometry, ChannelSet, ConfigError, ScenarioConfig
from .precoders import (
    FAMILIES,
    BlendTable,
    ParameterPoint,
    PrecoderSet,
    RankDeficientChannelError,
    build_precoders,
)
from .radar import expected_sensing, monte_carlo, radar_return
from .throughput import throughput

# Stream ids below this are free for callers; sweep Monte Carlo draws live
# above it so they can never collide with channel generation streams.
_SNR_STREAM_BASE = 1 << 20

METRICS = ("G0", "SNR_RAD")

# The operating regimes a point can fall into; see case_codes.
CASE_TAGS = (
    "RSMA_NoSense_General",
    "RSMA_NoSense_Soft",
    "SDMA_Sense_General",
    "SDMA_Sense_Hard",
    "SDMA_NoSense",
    "General",
)

# How far alpha_c may sit from 1 - alpha_p for a point to count as soft.
_SOFT_ATOL = 1e-9

# Parameter patterns coarser than the case tags, for frontier filtering.
# SDMA sends no common stream regardless of how much power sensing gets;
# full-communications RSMA spends the whole budget on communications. The
# two overlap (t_comms = 1 with t_p = 1 is in both), and SDMA includes the
# sensing-only endpoint, which no case tag covers.
_SCHEME_PREDICATES = {
    "SDMA": lambda points: points.t_p == 1.0,
    "RSMA_NoSense": lambda points: points.t_comms == 1.0,
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

    grid_step: float
    families: tuple[str, ...]
    metric: str
    include_cases: frozenset[str] | None
    monte_carlo_trials: int

    def __post_init__(self) -> None:
        if not 0.0 < self.grid_step <= 0.5:
            raise ConfigError("grid_step must lie in (0, 0.5]")
        inv = 1.0 / self.grid_step
        if abs(inv - round(inv)) > 1e-9:
            raise ConfigError("1/grid_step must be an integer")
        fams = tuple(f.upper() if isinstance(f, str) else None for f in self.families)
        if not fams or any(f not in FAMILIES for f in fams):
            raise ConfigError(
                f"families must be a nonempty subset of {FAMILIES}, got {self.families!r}"
            )
        # A repeated family would be swept, and written, twice.
        if len(set(fams)) != len(fams):
            raise ConfigError(f"families must be distinct, got {list(self.families)!r}")
        object.__setattr__(self, "families", fams)
        if self.metric not in METRICS:
            raise ConfigError(f"metric must be one of {METRICS}")
        if self.include_cases is not None:
            # A string would be split into characters, and an empty filter
            # would skip every point.
            if isinstance(self.include_cases, str) or not self.include_cases:
                raise ConfigError(
                    f"include_cases must be a nonempty list of case tags, "
                    f"got {self.include_cases!r}"
                )
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


class _Columns:
    """Numpy columns of equal length, one row per operating point.

    ``len`` counts the rows and ``==`` compares every column.
    """

    def _values(self) -> list:
        return [getattr(self, f.name) for f in dataclasses.fields(self)]

    def __len__(self) -> int:
        return len(self.t_comms)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            a is b or (a is not None and b is not None and np.array_equal(a, b))
            for a, b in zip(self._values(), other._values())
        )


@dataclass(frozen=True, eq=False)
class IsacPoints(_Columns):
    """Evaluated operating points as columns: throughput vs sensing, plus context.

    ``family`` and ``case`` index FAMILIES and CASE_TAGS. ``snr_rad_db`` is
    None unless the sweep measured the SNR_RAD metric. ``mcs`` has one row
    per point: the common, private 1 and private 2 MCS indices, -1 where
    the stream carries no level.
    """

    t_comms: np.ndarray
    t_p: np.ndarray
    alpha_c: np.ndarray
    alpha_p: np.ndarray
    family: np.ndarray
    case: np.ndarray
    t_sum_bps: np.ndarray
    g0: np.ndarray
    snr_rad_db: np.ndarray | None
    crb_bins2: np.ndarray
    collapsed: np.ndarray
    mcs: np.ndarray

    def take(self, rows) -> IsacPoints:
        """The points at ``rows`` (indices or a mask), in that order."""
        return IsacPoints(*(None if col is None else col[rows] for col in self._values()))

    def metric_values(self, metric: str) -> np.ndarray:
        if metric == "G0":
            return self.g0
        if self.snr_rad_db is None:
            raise ConfigError("points carry no SNR_RAD values")
        return self.snr_rad_db


@dataclass(frozen=True, eq=False)
class SkippedPoints(_Columns):
    """Grid points that could not be evaluated, with the reason for each."""

    t_comms: np.ndarray
    t_p: np.ndarray
    alpha_c: np.ndarray
    alpha_p: np.ndarray
    family: np.ndarray
    reason: np.ndarray


@dataclass(frozen=True)
class RegionResult:
    """Everything a sweep produced: its points, their frontier, skipped points."""

    points: IsacPoints
    boundary: IsacPoints
    skipped: SkippedPoints


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
    _, _, columns = _grid_columns(grid_step)
    return [ParameterPoint(*knobs, family) for knobs in zip(*(c.tolist() for c in columns))]


def _grid_columns(grid_step: float):
    """The grid's blocks, their row bounds, and its four knob columns.

    The columns list one family's points block after block, alpha_p
    fastest within a block; block k holds rows bounds[k]:bounds[k + 1].
    """
    blocks = list(_grid_blocks(grid_step))
    bounds = np.cumsum([0] + [len(ac) * len(ap) for _, _, ac, ap in blocks]).tolist()
    columns = (
        np.repeat([t for t, _, _, _ in blocks], np.diff(bounds)),
        np.repeat([tp for _, tp, _, _ in blocks], np.diff(bounds)),
        np.concatenate([np.repeat(ac, len(ap)) for _, _, ac, ap in blocks]),
        np.concatenate([np.tile(ap, len(ac)) for _, _, ac, ap in blocks]),
    )
    return blocks, bounds, columns


def case_codes(t, tp, ac, ap) -> np.ndarray:
    """The operating regime of each point, as its index into CASE_TAGS.

    The knobs broadcast against each other; a single point is 0-d input
    and gets a 0-d code. The named regimes are exact parameter patterns;
    anything else is ``General``. When several patterns overlap the more
    specific one wins, and the pure-SDMA patterns (t_p = 1) win over the
    full-communications ones.
    """
    t, tp, ac, ap = np.broadcast_arrays(t, tp, ac, ap)
    sdma = tp == 1.0
    full = t == 1.0
    sensing = (0.0 < t) & (t < 1.0)
    mixed = (0.0 < ap) & (ap < 1.0)
    soft = (np.abs(ac - (1.0 - ap)) <= _SOFT_ATOL) & (0.5 <= ap) & (ap <= 1.0)
    # Rules from the weakest to the strongest: a later match overrides.
    rules = {
        "RSMA_NoSense_General": full,
        "RSMA_NoSense_Soft": full & soft,
        "SDMA_NoSense": sdma & full & mixed,
        "SDMA_Sense_General": sdma & sensing & mixed,
        "SDMA_Sense_Hard": sdma & sensing & (ap == 1.0),
    }
    codes = np.full(t.shape, CASE_TAGS.index("General"))
    for tag, match in rules.items():
        codes[match] = CASE_TAGS.index(tag)
    return codes


def pareto_indices(xs, ys, keys) -> np.ndarray:
    """Indices of the non-dominated points, ordered by x ascending.

    A point is dominated when some other point is at least as good on both
    axes and strictly better on one. Exact coordinate duplicates keep the
    entry with the lowest ``keys`` (tie-break columns, most significant
    first), then the first in input order.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    order = np.lexsort((*keys[::-1], -ys, -xs))
    y = ys[order]
    keep = y > np.concatenate(([-math.inf], np.maximum.accumulate(y)[:-1]))
    return order[keep][::-1]


def frontier_points(points: IsacPoints, metric: str) -> IsacPoints:
    """Pareto frontier of points on (t_sum, sensing metric)."""
    knobs = (points.t_comms, points.t_p, points.alpha_c, points.alpha_p, points.family)
    return points.take(pareto_indices(points.t_sum_bps, points.metric_values(metric), knobs))


def scheme_points(points: IsacPoints, scheme: str) -> IsacPoints:
    """The subset of points matching a parameter-pattern scheme."""
    if scheme not in _SCHEME_PREDICATES:
        raise ConfigError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    return points.take(_SCHEME_PREDICATES[scheme](points))


def scheme_frontier(points: IsacPoints, scheme: str, metric: str) -> IsacPoints:
    """Pareto frontier restricted to one scheme's points."""
    return frontier_points(scheme_points(points, scheme), metric)


def sweep(
    spec: SweepSpec,
    channels: ChannelSet,
    cfg: ScenarioConfig,
    geom: ArrayGeometry,
) -> RegionResult:
    """Evaluate every grid point and extract the Pareto boundary.

    ``geom`` is the array the channels were drawn with; the sensing axis
    steers through it. Each family blends its beams once over the grid
    axis (a ``BlendTable``); the grid is then evaluated one (family,
    (t_comms, t_p) block) pair at a time into one set of columns that
    holds the grid once per family. One ``build_precoders`` call scales
    the table rows into the block's precoders, a batch over its
    (alpha_c, alpha_p) plane, and one ``throughput`` call scores all of it.
    The sensing axis is the symbol-averaged energy toward the target: one
    ``expected_sensing`` call on the same batch gives every point's g0 and
    delay CRB, exactly what point-eval computes for it. g0 is rounded to
    12 significant digits so points that are equal on paper tie exactly.
    Results are kept as columns; no object is built per point.
    SNR_RAD mode additionally runs the radar chain's ``monte_carlo`` per
    point with deterministic per-point random streams. A block whose
    precoders cannot be built for want of ZF directions is skipped, with
    the ``RankDeficientChannelError`` message as its points' reason,
    instead of aborting the sweep; blocks that allocate no private power
    never need those directions and are scored.
    """
    blocks, bounds, grid = _grid_columns(spec.grid_step)
    tables = [BlendTable(channels, fam, grid_axis(spec.grid_step)) for fam in spec.families]
    # Family f fills rows f·n to (f + 1)·n, its blocks in grid order.
    n = bounds[-1]
    knobs = tuple(np.tile(column, len(tables)) for column in grid)
    family = np.repeat([FAMILIES.index(table.family) for table in tables], n)
    case = case_codes(*knobs)
    keep = np.isin(case, [CASE_TAGS.index(tag) for tag in spec.include_cases or CASE_TAGS])
    scored = np.ones(len(case), dtype=bool)
    reason = np.full(len(case), "", dtype=object)
    t_sum, g0, crb = (np.empty(len(case)) for _ in range(3))
    collapsed = np.empty(len(case), dtype=bool)
    mcs = np.empty((len(case), 3), dtype=int)
    trials = spec.monte_carlo_trials

    def capture(c, noise):
        return radar_return(
            c, cfg.target_delay_bins, cfg.target_attenuation, cfg.noise_power_radar, noise
        )

    snrs: list[float] = []
    for (f, table), ((t, tp, ac_axis, ap_axis), lo, hi) in itertools.product(
        enumerate(tables), zip(blocks, bounds, bounds[1:])
    ):
        rows = slice(f * n + lo, f * n + hi)
        if not keep[rows].any():
            continue
        try:
            pset = build_precoders(
                ParameterPoint(t, tp, ac_axis, ap_axis, table.family), channels, cfg, table
            )
        except RankDeficientChannelError as exc:
            scored[rows] = False
            reason[rows] = str(exc)
            continue
        report = throughput(channels, pset, cfg)
        block_g0, block_crb = expected_sensing(
            pset, geom, cfg.target_angle_deg, cfg.target_attenuation, cfg.noise_power_radar
        )
        t_sum[rows] = report.t_sum.ravel()
        g0[rows] = block_g0.ravel()
        crb[rows] = block_crb.ravel()
        collapsed[rows] = report.collapsed.ravel()
        for m, index in enumerate(report.mcs_chosen):
            mcs[rows, m] = index.ravel()
        if spec.metric == "SNR_RAD":
            for k in np.flatnonzero(keep[rows]).tolist():
                i, j = divmod(k, len(ap_axis))
                # Trial t draws its waveform from stream base + 2t and
                # its noise from the next one.
                base = _SNR_STREAM_BASE + 2 * trials * len(snrs)
                _, total = monte_carlo(
                    PrecoderSet(pset.p_c[i, 0], pset.p_1[0, j], pset.p_2[0, j], pset.p_r),
                    geom,
                    cfg.target_angle_deg,
                    cfg.seed,
                    [(base + 2 * t, base + 2 * t + 1) for t in range(trials)],
                    capture,
                )
                snrs.append(10.0 * math.log10(total / trials))

    ok, lost = keep & scored, keep & ~scored
    points = IsacPoints(
        *(column[ok] for column in (*knobs, family, case, t_sum)),
        np.fromiter(map(round_sig, g0[ok].tolist()), float, np.count_nonzero(ok)),
        np.array(snrs) if spec.metric == "SNR_RAD" else None,
        crb[ok], collapsed[ok], mcs[ok],
    )
    return RegionResult(
        points=points,
        boundary=frontier_points(points, spec.metric),
        skipped=SkippedPoints(*(column[lost] for column in (*knobs, family)),
                              reason[lost].astype(str)),
    )


def _fmt(values: np.ndarray) -> list[str]:
    """A column formatted as .10g, which spells the infinities inf and -inf."""
    return [format(v, ".10g") for v in values.tolist()]


def _dashed(mask: np.ndarray, cells: list[str]) -> list[str]:
    return ["-" if m else cell for m, cell in zip(mask.tolist(), cells)]


_POINTS_HEADER = (
    "t_comms,t_p,alpha_c,alpha_p,family,case,"
    "t_sum_mbps,g0,snr_rad_db,crb_bins2,collapsed\n"
)
# %-formatting spells .10g exactly as format() does, infinities included.
_POINTS_ROW = "%.10g,%.10g,%.10g,%.10g,%s,%s,%.10g,%.10g,%s,%.10g,%d\n"


def write_points_csv(points: IsacPoints, path: str) -> None:
    snr = points.snr_rad_db
    rows = zip(
        points.t_comms.tolist(),
        points.t_p.tolist(),
        points.alpha_c.tolist(),
        points.alpha_p.tolist(),
        [FAMILIES[f] for f in points.family.tolist()],
        [CASE_TAGS[c] for c in points.case.tolist()],
        (points.t_sum_bps / 1e6).tolist(),
        points.g0.tolist(),
        [""] * len(points) if snr is None else _fmt(snr),
        points.crb_bins2.tolist(),
        points.collapsed.tolist(),
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_POINTS_HEADER)
        fh.writelines(_POINTS_ROW % row for row in rows)


def write_boundary_params_csv(points: IsacPoints, path: str) -> None:
    """The knobs and chosen MCS levels behind each frontier point, by position.

    Knobs that cannot matter at a point are dashed: all but t_comms with no
    communications power, alpha_c at t_p = 1 and alpha_p at t_p = 0. So
    is the MCS index of a stream that carries no level.
    """
    idle = points.t_comms == 0.0
    columns = (
        _fmt(points.t_comms),
        _dashed(idle, _fmt(points.t_p)),
        _dashed(idle | (points.t_p == 1.0), _fmt(points.alpha_c)),
        _dashed(idle | (points.t_p == 0.0), _fmt(points.alpha_p)),
        *(_dashed(m < 0, [str(v) for v in m.tolist()]) for m in points.mcs.T),
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,t_comms,t_p,alpha_c,alpha_p,mcs_c,mcs_1,mcs_2\n")
        fh.writelines(f"{i},{','.join(row)}\n" for i, row in enumerate(zip(*columns)))
