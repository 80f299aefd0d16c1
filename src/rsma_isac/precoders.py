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

import numpy as np

from .core import ChannelSet, ScenarioConfig


class DegenerateDirectionError(ValueError):
    """A beam direction came out with (near) zero norm and cannot be used."""


class RankDeficientChannelError(ValueError):
    """ZF requested but the stacked channel matrix is rank deficient."""


FAMILIES = ("MRT", "ZF")

CASE_TAGS = (
    "RSMA_NoSense_General",
    "RSMA_NoSense_Soft",
    "SDMA_Sense_General",
    "SDMA_Sense_Hard",
    "SDMA_NoSense",
    "General",
)

_SOFT_ATOL = 1e-9


@dataclass(frozen=True)
class ParameterPoint:
    """One operating point of the parametric precoder.

    t_comms splits power between communications and dedicated sensing,
    t_p splits the communications share between private and common
    streams, alpha_c blends the common beam between the users' bisector
    and the sensing direction, and alpha_p does the same for each
    private beam.
    """

    t_comms: float
    t_p: float
    alpha_c: float
    alpha_p: float
    family: str = "MRT"

    def __post_init__(self) -> None:
        for name in ("t_comms", "t_p", "alpha_c", "alpha_p"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        fam = self.family.upper()
        if fam not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        object.__setattr__(self, "family", fam)

    def key(self) -> tuple:
        return (self.t_comms, self.t_p, self.alpha_c, self.alpha_p, self.family)


@dataclass(frozen=True)
class PrecoderSet:
    """Per-subcarrier precoders, one (n_subcarriers, n_tx) array per stream."""

    p_c: np.ndarray
    p_1: np.ndarray
    p_2: np.ndarray
    p_r: np.ndarray

    def stream_powers(self) -> dict[str, float]:
        return {
            "common": float(np.sum(np.abs(self.p_c) ** 2)),
            "private_1": float(np.sum(np.abs(self.p_1) ** 2)),
            "private_2": float(np.sum(np.abs(self.p_2) ** 2)),
            "sensing": float(np.sum(np.abs(self.p_r) ** 2)),
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


def _mixed_stream(
    power: float, alpha: float, steered: np.ndarray, u0: np.ndarray
) -> np.ndarray:
    """Blend a steered direction grid with the sensing direction and scale
    the whole grid so its total power equals ``power``."""
    v = np.sqrt(alpha) * steered + np.sqrt(1.0 - alpha) * u0[None, :]
    total = float(np.sum(np.abs(v) ** 2))
    if total < 1e-24:
        raise DegenerateDirectionError(
            "blended beam direction vanished on every subcarrier"
        )
    return np.sqrt(power / total) * v


def build_precoders(
    pp: ParameterPoint,
    channels: ChannelSet,
    cfg: ScenarioConfig,
    *,
    private_dirs: np.ndarray | None = None,
    common_dir: np.ndarray | None = None,
) -> PrecoderSet:
    """Materialize the four precoder grids for one parameter point.

    Streams with zero allocated power come back as exact zero arrays and
    their directions are never computed, so e.g. an all-sensing point never
    trips the ZF rank check. ``private_dirs`` / ``common_dir`` accept
    precomputed direction grids; sweeps use this to factor the per-channel
    work out of the inner loop.
    """
    nc, nt = channels.n_subcarriers, channels.n_tx
    pt = cfg.total_power
    p_common = pt * pp.t_comms * (1.0 - pp.t_p)
    p_private = pt * pp.t_comms * pp.t_p / 2.0
    p_sense = pt * (1.0 - pp.t_comms)
    u0 = channels.broadside_unit
    zeros = np.zeros((nc, nt), dtype=complex)

    if p_common > 0.0:
        uc = common_dir if common_dir is not None else common_direction(channels)
        p_c = _mixed_stream(p_common, pp.alpha_c, uc, u0)
    else:
        p_c = zeros

    if p_private > 0.0:
        dirs = (
            private_dirs
            if private_dirs is not None
            else private_directions(channels, pp.family)
        )
        p_1 = _mixed_stream(p_private, pp.alpha_p, dirs[0], u0)
        p_2 = _mixed_stream(p_private, pp.alpha_p, dirs[1], u0)
    else:
        p_1 = zeros
        p_2 = zeros

    if p_sense > 0.0:
        p_r = np.sqrt(p_sense / nc) * np.broadcast_to(u0, (nc, nt)).copy()
    else:
        p_r = zeros

    return PrecoderSet(p_c=p_c, p_1=p_1, p_2=p_2, p_r=p_r)


def classify_special_case(pp: ParameterPoint) -> str:
    """Name the operating regime a parameter point falls into.

    The named regimes are exact parameter patterns; anything else is
    ``General``. When several patterns overlap the more specific one wins,
    and the pure-SDMA patterns (t_p = 1) are checked before the
    full-communications ones.
    """
    t, tp, ac, ap = pp.t_comms, pp.t_p, pp.alpha_c, pp.alpha_p
    if tp == 1.0:
        if 0.0 < t < 1.0:
            if ap == 1.0:
                return "SDMA_Sense_Hard"
            if 0.0 < ap < 1.0:
                return "SDMA_Sense_General"
        elif t == 1.0 and 0.0 < ap < 1.0:
            return "SDMA_NoSense"
    if t == 1.0:
        if abs(ac - (1.0 - ap)) <= _SOFT_ATOL and 0.5 <= ap <= 1.0:
            return "RSMA_NoSense_Soft"
        return "RSMA_NoSense_General"
    return "General"
