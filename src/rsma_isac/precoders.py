"""Parametric precoder construction for the dual-function downlink.

A four-parameter point (time share, private share, two beam mixes) plus a
family choice (MRT or ZF) fully determines the per-subcarrier precoders for
the common stream, the two private streams, and the dedicated sensing
stream. The mapping is deliberately heuristic: each stream steers along a
fixed blend of user directions and the sensing direction, with power set by
the parameters, so that sweeping the parameters traces the whole
communications-vs-sensing trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ChannelSet, ConfigError, ScenarioConfig, _finite


class DegenerateDirectionError(ValueError):
    """A beam direction came out with (near) zero norm and cannot be used."""


class RankDeficientChannelError(ValueError):
    """ZF requested but the stacked channel matrix is rank deficient."""


FAMILIES = ("MRT", "ZF")


@dataclass(frozen=True)
class ParameterPoint:
    """One operating point of the parametric precoder.

    t_comms splits power between communications and dedicated sensing,
    t_p splits the communications share between private and common
    streams, alpha_c blends the common beam between the users' bisector
    and the sensing direction, and alpha_p does the same for each
    private beam. Either mix may be an axis (a tuple of values): the point
    then stands for the block of every (alpha_c, alpha_p) pair, which
    ``build_precoders`` builds in one call. Tuples of one length for
    t_comms and t_p add an axis of (t_comms, t_p) pairs. The tuple forms
    are for sweeps; the CLI takes numbers only.
    """

    t_comms: float | tuple[float, ...]
    t_p: float | tuple[float, ...]
    alpha_c: float | tuple[float, ...]
    alpha_p: float | tuple[float, ...]
    family: str

    def __post_init__(self) -> None:
        for name in ("t_comms", "t_p", "alpha_c", "alpha_p"):
            v = getattr(self, name)
            axis = v if isinstance(v, tuple) else (v,)
            # _finite turns away bools, which would otherwise pass as 0 and 1.
            if not all(_finite(x) and 0.0 <= x <= 1.0 for x in axis):
                raise ConfigError(f"{name} must be a finite number in [0, 1], got {v!r}")
        if np.shape(self.t_comms) != np.shape(self.t_p):
            raise ConfigError(
                f"t_comms and t_p must both be numbers or tuples of one length, "
                f"got {self.t_comms!r} and {self.t_p!r}"
            )
        fam = self.family.upper() if isinstance(self.family, str) else None
        if fam not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}, got {self.family!r}")
        object.__setattr__(self, "family", fam)


def _grid(fill, shape: tuple[int, ...]) -> np.ndarray:
    """A complex array of shape (…, N_c, N_T) stored as (…, N_T, N_c).

    Subcarriers are innermost in memory, so a projection onto a receiver
    row, which sums over N_T, runs one long contiguous loop per antenna
    instead of an N_T-long loop per subcarrier.
    """
    *batch, nc, nt = shape
    return fill((*batch, nt, nc), dtype=complex).swapaxes(-1, -2)


def _total_power(grid: np.ndarray) -> float:
    """Σ|grid|², summed in C order whatever the grid's memory order.

    A full reduction adds in memory order, so without ``order="C"`` a
    subcarrier-innermost grid would group the sum differently.
    """
    return float(np.sum(np.abs(grid, order="C") ** 2))


@dataclass(frozen=True)
class PrecoderSet:
    """Per-subcarrier precoders, one (n_subcarriers, n_tx) array per stream.

    Each array may carry leading batch axes. ``build_precoders`` stores
    every grid with subcarriers innermost in memory (see ``_grid``); the
    shape, and so all indexing, is the same as for a C-ordered grid.
    """

    p_c: np.ndarray
    p_1: np.ndarray
    p_2: np.ndarray
    p_r: np.ndarray

    def stream_powers(self) -> dict[str, float]:
        return {
            "common": _total_power(self.p_c),
            "private_1": _total_power(self.p_1),
            "private_2": _total_power(self.p_2),
            "sensing": _total_power(self.p_r),
        }


def common_direction(channels: ChannelSet) -> np.ndarray:
    """Equal-weight blend of the two users' unit channel estimates.

    Returns an (n_subcarriers, n_tx) grid of unit vectors. Antipodal
    estimates on any subcarrier leave no meaningful bisector and raise.
    """
    s = channels.unit_est[0] + channels.unit_est[1]
    norms = np.linalg.norm(s, axis=1)
    if np.any(norms < 1e-12):
        k = int(np.argmin(norms))
        raise DegenerateDirectionError(
            f"user channel estimates are antipodal on subcarrier {k}; "
            "the common beam direction is undefined"
        )
    return s / norms[:, None]


def private_directions(channels: ChannelSet, family: str) -> np.ndarray:
    """Unit beam directions for the two private streams, shape (2, N_c, N_T).

    MRT points each beam straight at its own user. ZF instead uses the
    columns of H (H^H H)^{-1}, which null the cross-user response, and
    renormalizes them to unit length so the power mapping downstream is
    identical for both families.
    """
    fam = family.upper()
    if fam == "MRT":
        return channels.unit_est.copy()
    if fam != "ZF":
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")

    # Stack per subcarrier: H[k] is (n_tx, 2) with user channels as columns.
    h = np.transpose(channels.est_channels, (1, 2, 0))
    sv = np.linalg.svd(h, compute_uv=False)
    bad = sv[:, -1] < 1e-9 * sv[:, 0]
    if np.any(bad):
        k = int(np.argmax(bad))
        raise RankDeficientChannelError(
            f"channel matrix is rank deficient on subcarrier {k}; "
            "ZF directions do not exist"
        )
    gram = np.conj(np.transpose(h, (0, 2, 1))) @ h
    w = h @ np.linalg.inv(gram)
    w = np.transpose(w, (2, 0, 1))
    return w / np.linalg.norm(w, axis=2)[..., None]


class BlendTable:
    """Unscaled blended beams of one family: common over alpha_c, private over alpha_p.

    Row i of a stream's table holds v(α_i) = √α_i·d + √(1−α_i)·u0, where
    d is the stream's steered direction grid and u0 the sensing direction,
    and its total power T(α_i) = Σ|v(α_i)|² over the whole grid. A stream
    of power P at mix α_i is then √(P/T(α_i))·v(α_i), so a sweep blends
    each (stream, α) once and every power split only rescales rows.

    ``common`` is (v, T), v (1, n_αc, N_c, N_T) and T (1, n_αc); ``private``
    holds the private streams, (2, n_αp, N_c, N_T) and (2, n_αp). Each is
    computed on first use, so a point that gives a stream no power never
    computes (or fails on) its direction. Only a sweep passes a table to
    ``build_precoders``; a point, a ``radar-heatmap`` row too, builds its own.

    v is stored with subcarriers innermost (``_grid``), so the precoders
    scaled from its rows are too, and every gain projection of a sweep
    block runs over contiguous subcarriers. Each T is summed from the
    C-ordered row before it is stored, so its summation order does not
    depend on the table's memory order.
    """

    def __init__(self, channels: ChannelSet, family: str, alpha_c, alpha_p) -> None:
        self.channels = channels
        self.family = family
        self.alpha_c = np.asarray(alpha_c, dtype=float)
        self.alpha_p = np.asarray(alpha_p, dtype=float)

    @cached_property
    def common(self) -> tuple[np.ndarray, np.ndarray]:
        return self._blend(common_direction(self.channels)[None], self.alpha_c)

    @cached_property
    def private(self) -> tuple[np.ndarray, np.ndarray]:
        return self._blend(private_directions(self.channels, self.family), self.alpha_p)

    def _blend(self, steered: np.ndarray, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v = _grid(np.empty, (len(steered), len(alphas)) + steered.shape[1:])
        alphas = alphas[:, None, None]
        np.multiply(np.sqrt(alphas), steered[:, None], out=v)
        v += np.sqrt(1.0 - alphas) * self.channels.target_unit
        # Each row's |v|² in C order, so its sum adds as _total_power's does.
        power = np.abs(v, order="C")
        np.square(power, out=power)
        return v, power.reshape(v.shape[:2] + (-1,)).sum(axis=-1)


def _scaled_rows(power: np.ndarray, table, mixes: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """√(power/T)·v, (streams, pairs, rows, N_c, N_T): zeros where power is 0."""
    if mixes.ravel().tolist() != axis.tolist():
        raise ValueError(f"mixes {mixes.tolist()} are not the table's axis {axis.tolist()}")
    v, total = table
    if np.any(total < 1e-24):
        raise DegenerateDirectionError(
            "blended beam direction vanished on every subcarrier"
        )
    scale = np.sqrt(power[:, None] / total[:, None])
    out = scale[..., None, None] * v[:, None]
    if not power.all():
        out[:, power == 0.0] = 0.0
    return out


def build_precoders(
    pp: ParameterPoint,
    channels: ChannelSet,
    cfg: ScenarioConfig,
    table: BlendTable | None = None,
) -> PrecoderSet:
    """Materialize the four precoder grids of a point or a block of points.

    A point whose alpha_c and alpha_p are axes (tuples) is the block of
    every pair of them: p_c comes back with batch shape (n_αc, 1) and p_1,
    p_2 with (1, n_αp), which broadcast to the block's (alpha_c, alpha_p)
    plane. A point of scalar mixes is a block of shape (). Tuples of
    t_comms and t_p put a leading axis of pairs in front: p_c is then
    (n_pairs, n_αc, 1), p_1 and p_2 (n_pairs, 1, n_αp) and p_r
    (n_pairs, 1, 1), with each pair's stream powers computed elementwise.
    Each stream is its whole ``table`` scaled to its power: a table of
    another family or channel draw, or a powered stream whose mixes are
    not the table's axis, raises ``ValueError``. Without a table the
    point's own is built; sweeps pass one per family, over the grid axis.

    Every entry of a batch equals its own point's build bit for bit. A
    stream with zero power comes back as exact zeros, and one with zero
    power in every pair never computes its direction, so e.g. an
    all-sensing point never trips the ZF rank check. Every grid is stored
    with subcarriers innermost, as the table rows are.
    """
    t, tp = np.asarray(pp.t_comms), np.asarray(pp.t_p)
    ac, ap = np.asarray(pp.alpha_c), np.asarray(pp.alpha_p)
    if table is None:
        table = BlendTable(channels, pp.family, ac.ravel(), ap.ravel())
    elif table.family != pp.family or table.channels is not channels:
        draw = "its" if table.channels is channels else "another"
        raise ValueError(f"a {pp.family} build got a {table.family} table of {draw} channel draw")
    nc, nt = channels.n_subcarriers, channels.n_tx
    common_shape = t.shape + ac.shape + (1,) * ap.ndim + (nc, nt)
    private_shape = t.shape + (1,) * ac.ndim + ap.shape + (nc, nt)
    sense_shape = t.shape + (1,) * (ac.ndim + ap.ndim) + (nc, nt)
    pt = cfg.total_power
    p_common = np.ravel(pt * t * (1.0 - tp))
    p_private = np.ravel(pt * t * tp / 2.0)
    p_sense = np.ravel(pt * (1.0 - t))

    if p_common.any():
        p_c = _scaled_rows(p_common, table.common, ac, table.alpha_c).reshape(common_shape)
    else:
        p_c = _grid(np.zeros, common_shape)

    if p_private.any():
        p_1, p_2 = _scaled_rows(p_private, table.private, ap, table.alpha_p)
        p_1, p_2 = p_1.reshape(private_shape), p_2.reshape(private_shape)
    else:
        p_1 = p_2 = _grid(np.zeros, private_shape)

    p_r = _grid(np.zeros, sense_shape)
    on = (p_sense > 0.0).reshape(sense_shape[:-2] + (1, 1))
    scale = np.sqrt(p_sense / nc).reshape(on.shape)
    np.multiply(scale, channels.target_unit, out=p_r, where=on)

    return PrecoderSet(p_c=p_c, p_1=p_1, p_2=p_2, p_r=p_r)
