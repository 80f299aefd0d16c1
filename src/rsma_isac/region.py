"""Four-parameter sweeps, performance regions, and Pareto boundaries.

Sweeping (t_comms, t_p, alpha_c, alpha_p) over a grid and evaluating sum
throughput against the sensing energy toward the target traces out an
achievable region; its Pareto frontier is the trade-off curve the precoder
family can reach. Axes whose stream has no power are pinned to a single
value before enumeration so the grid never visits the same physical
operating point twice.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import numbers
import types
from dataclasses import dataclass

import numpy as np

from .core import ChannelSet, ConfigError, ScenarioConfig
from .precoders import (
    FAMILIES,
    BlendTable,
    ParameterPoint,
    PrecoderSet,
    RankDeficientChannelError,
    build_precoders,
)
from .radar import expected_sensing, monte_carlo, radar_return
from .throughput import stream_gains, throughput

# Stream ids below this are free for callers; sweep Monte Carlo draws live
# above it so they can never collide with channel generation streams.
_SNR_STREAM_BASE = 1 << 20

# SINR entries a sweep scores per call, or one block where a block is larger:
# chunks share numpy's per-call cost, and their temporaries stay resident
# (core.Workspace), so a chunk of three 6 x 6 x 512 blocks scores faster
# than three chunks; 2^17 scored slower and took 11% more peak memory.
_CHUNK_ELEMENTS = 1 << 16

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


@functools.lru_cache(maxsize=1)
def _grid(grid_step: float):
    """One family's four knob columns, and the grid's blocks by mix plane.

    The grid is a run of (t_comms, t_p) blocks, each the product of an
    alpha_c and an alpha_p axis, alpha_p fastest. Knobs that cannot matter
    are pinned: all but t_comms with no communications power, alpha_c at
    t_p = 1 and alpha_p at t_p = 0. ``planes`` maps each (alpha_c axis,
    alpha_p axis) to its blocks in grid order, (t_comms, t_p, lo, hi) for
    the block at rows lo:hi.

    The plan depends on the step alone, so the last step's is kept and
    shared: its columns are read-only and ``planes`` a read-only mapping
    of tuples.
    """
    axis, pin = grid_axis(grid_step), (1.0,)
    blocks = [(0.0, 1.0, pin, pin)] + [
        (t, tp, pin if tp == 1.0 else axis, pin if tp == 0.0 else axis)
        for t in axis[1:] for tp in axis
    ]
    sizes = [len(ac) * len(ap) for _, _, ac, ap in blocks]
    bounds = np.cumsum([0] + sizes).tolist()
    planes: dict[tuple, list] = {}
    for (t, tp, ac, ap), lo, hi in zip(blocks, bounds, bounds[1:]):
        planes.setdefault((ac, ap), []).append((t, tp, lo, hi))
    t, tp, ac_axes, ap_axes = zip(*blocks)
    columns = (
        np.repeat(t, sizes), np.repeat(tp, sizes),
        np.concatenate([np.repeat(ac, len(ap)) for ac, ap in zip(ac_axes, ap_axes)]),
        np.concatenate([np.tile(ap, len(ac)) for ac, ap in zip(ac_axes, ap_axes)]),
    )
    for column in columns:
        column.flags.writeable = False
    return columns, types.MappingProxyType({key: tuple(b) for key, b in planes.items()})


def enumerate_grid(grid_step: float, family: str) -> list[ParameterPoint]:
    """All distinct operating points of one family on the grid."""
    columns, _ = _grid(grid_step)
    return [ParameterPoint(*knobs, family) for knobs in zip(*(c.tolist() for c in columns))]


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


def sweep(spec: SweepSpec, channels: ChannelSet, cfg: ScenarioConfig) -> RegionResult:
    """Evaluate every grid point and extract the Pareto boundary.

    Each family blends its beams once over the grid axis, for the common
    and the private streams alike (a ``BlendTable``), and scores the grid
    mix plane by mix plane: the (alpha_c axis, alpha_p axis) pair, which
    also fixes which streams carry power. A plane's kept (t_comms, t_p)
    blocks are scored in chunks, as many as keep pairs × n_αc × n_αp × N_c
    within ``_CHUNK_ELEMENTS`` (at least one): one ``build_precoders``
    call scales the table into the chunk's precoders, one ``stream_gains``
    call projects them onto the users and the target, and one
    ``throughput`` and one ``expected_sensing`` call score the two rows,
    exactly as point-eval scores one point. A chunk's rows are its
    blocks' row ranges in turn, so the columns, which hold the grid once
    per family, fill in grid order. No object is built per point.

    SNR_RAD mode runs the radar chain's ``monte_carlo`` on each kept
    point's precoders in the same pass, from the chunk already built, with
    random streams that follow from the point's row in the columns (grid
    order, families in spec order). A point's values therefore depend on
    nothing but its row: a sweep filtered by ``include_cases`` returns
    exactly the unfiltered sweep's points of those cases. A chunk whose
    precoders cannot be built for want of ZF directions is skipped, with
    the ``RankDeficientChannelError`` message as its points' reason,
    instead of aborting the sweep, and so are the later chunks of its mix
    plane, which carry power on the same streams; planes that allocate no
    private power never need those directions and are scored.
    """
    grid, planes = _grid(spec.grid_step)
    axis = grid_axis(spec.grid_step)
    tables = [BlendTable(channels, fam, axis, axis) for fam in spec.families]
    n = len(grid[0])
    knobs = tuple(np.tile(column, len(tables)) for column in grid)
    family = np.repeat([FAMILIES.index(table.family) for table in tables], n)
    case = case_codes(*knobs)
    keep = np.isin(case, [CASE_TAGS.index(tag) for tag in spec.include_cases or CASE_TAGS])
    reason = np.full(len(case), "", dtype=object)
    t_sum, g0, crb, snr = (np.empty(len(case)) for _ in range(4))
    collapsed = np.empty(len(case), dtype=bool)
    mcs = np.empty((len(case), 3), dtype=int)

    def capture(c, noise):
        return radar_return(
            c, cfg.target_delay_bins, cfg.target_attenuation, cfg.noise_power_radar, noise
        )

    trials = spec.monte_carlo_trials
    for (f, table), ((ac_axis, ap_axis), blocks) in itertools.product(
        enumerate(tables), planes.items()
    ):
        offset = f * n  # family f fills rows f·n to (f + 1)·n
        members = [(t, tp, offset + lo, offset + hi) for t, tp, lo, hi in blocks
                   if keep[offset + lo:offset + hi].any()]
        block_size = len(ac_axis) * len(ap_axis) * channels.n_subcarriers
        per_chunk = max(1, _CHUNK_ELEMENTS // block_size)
        for c in range(0, len(members), per_chunk):
            t, tp, lo, hi = zip(*members[c:c + per_chunk])
            rows = np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)])
            pp = ParameterPoint(t, tp, ac_axis, ap_axis, table.family)
            try:
                pset = build_precoders(pp, channels, cfg, table)
            except RankDeficientChannelError as exc:
                # The mix plane fixes which streams carry power, so every
                # later chunk of the plane would fail alike.
                for _, _, a, b in members[c:]:
                    reason[a:b] = str(exc)
                break
            # Each row is freed once scored, so the next step's temporaries
            # reuse its memory (measured faster on small chunks), and the
            # report once its columns are copied.
            users, target = stream_gains(channels, pset)
            chunk_g0, chunk_crb = expected_sensing(target, cfg)
            del target
            report = throughput(users, pset, cfg)
            del users
            t_sum[rows] = report.t_sum.ravel()
            g0[rows] = chunk_g0.ravel()
            crb[rows] = chunk_crb.ravel()
            collapsed[rows] = report.collapsed.ravel()
            for m, index in enumerate(report.mcs_chosen):
                mcs[rows, m] = index.ravel()
            del report
            if spec.metric != "SNR_RAD":
                continue
            shape = (len(pp.t_comms), len(ac_axis), len(ap_axis))
            for row, (k, i, j) in zip(rows.tolist(), np.ndindex(shape)):
                if not keep[row]:
                    continue
                # A point's streams follow from its row alone: trial t draws
                # its waveform from stream base + 2t and its noise from the
                # next one.
                base = _SNR_STREAM_BASE + 2 * trials * row
                _, snr[row] = monte_carlo(
                    channels,
                    PrecoderSet(pset.p_c[k, i, 0], pset.p_1[k, 0, j], pset.p_2[k, 0, j],
                                pset.p_r[k, 0, 0]),
                    cfg,
                    [(base + 2 * t, base + 2 * t + 1) for t in range(trials)],
                    capture,
                )

    scored = reason == ""
    ok, lost = keep & scored, keep & ~scored
    points = IsacPoints(
        *(column[ok] for column in (*knobs, family, case, t_sum, g0)),
        snr[ok] if spec.metric == "SNR_RAD" else None,
        crb[ok], collapsed[ok], mcs[ok],
    )
    return RegionResult(
        points=points,
        boundary=frontier_points(points, spec.metric),
        skipped=SkippedPoints(*(column[lost] for column in (*knobs, family)),
                              reason[lost].astype(str)),
    )


def _fmt(values: np.ndarray) -> list[str]:
    """A float column's cells as .10g (which spells the infinities inf and
    -inf), each distinct value formatted once.

    Values are told apart by their bits, so -0.0 keeps a cell of its own
    and every NaN finds one.
    """
    bits, rows = np.unique(np.asarray(values, dtype=float).view(np.int64), return_inverse=True)
    cells = np.array([format(v, ".10g") for v in bits.view(float).tolist()], dtype=object)
    return cells[rows].tolist()


def _labels(names: tuple[str, ...], codes: np.ndarray) -> list[str]:
    return np.array(names, dtype=object)[codes].tolist()


def _dashed(mask: np.ndarray, cells: list[str]) -> list[str]:
    return ["-" if m else cell for m, cell in zip(mask.tolist(), cells)]


_POINTS_HEADER = (
    "t_comms,t_p,alpha_c,alpha_p,family,case,"
    "t_sum_mbps,g0,snr_rad_db,crb_bins2,collapsed\n"
)


def write_points_csv(points: IsacPoints, path: str) -> None:
    """The points one row each, streamed to ``path``.

    The knobs hold the grid axis, the rate sums a few dozen values and the
    rest labels, so each of those columns (and the SNR) is formatted once
    per distinct value; g0 and the CRB, distinct nearly everywhere, are
    formatted per row.
    """
    snr = points.snr_rad_db
    columns = zip(
        *map(_fmt, (points.t_comms, points.t_p, points.alpha_c, points.alpha_p)),
        _labels(FAMILIES, points.family),
        _labels(CASE_TAGS, points.case),
        _fmt(points.t_sum_bps / 1e6),
        points.g0.tolist(),
        [""] * len(points) if snr is None else _fmt(snr),
        points.crb_bins2.tolist(),
        _labels(("0", "1"), points.collapsed.view(np.uint8)),
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_POINTS_HEADER)
        fh.writelines(
            f"{t},{tp},{ac},{ap},{family},{case},{mbps},{g0:.10g},{snr},{crb:.10g},{collapsed}\n"
            for t, tp, ac, ap, family, case, mbps, g0, snr, crb, collapsed in columns
        )


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
