"""SINR evaluation and MCS-limited throughput for the two-user downlink.

The common stream must be decoded by both users before SIC removes it, so
its rate is set by the weaker user, and a common stream that fails even the
lowest MCS at either user takes the whole sum throughput down with it.
Private streams fail individually. All SINRs are evaluated on the true
channels; estimates only ever enter precoder construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import WORKSPACE, ChannelSet, ScenarioConfig
from .precoders import PrecoderSet


# 100 MHz OFDM with a 1/4 cyclic prefix and 468 of 512 subcarriers carrying
# data: the link budget every throughput number in this package assumes,
# in Hz. total · N_c/(N_c + cp) · data/N_c = 73.125 MHz.
DEFAULT_BANDWIDTH = 100e6 * (512 / (512 + 128)) * (468 / 512)


# One row per MCS index: (modulation, bits per symbol m, code rate r).
MCS_TABLE: tuple[tuple[str, int, Fraction], ...] = (
    ("BPSK", 1, Fraction(1, 2)),
    ("BPSK", 1, Fraction(3, 4)),
    ("QPSK", 2, Fraction(1, 2)),
    ("QPSK", 2, Fraction(3, 4)),
    ("16QAM", 4, Fraction(1, 2)),
    ("16QAM", 4, Fraction(3, 4)),
    ("64QAM", 6, Fraction(2, 3)),
    ("64QAM", 6, Fraction(3, 4)),
    ("256QAM", 8, Fraction(3, 4)),
    ("256QAM", 8, Fraction(5, 6)),
)


def _float_above(x: Fraction) -> float:
    """The smallest float strictly greater than the exact rational ``x``."""
    f = float(x)
    return f if Fraction(f) > x else math.nextafter(f, math.inf)


# An efficiency e can carry a level exactly when e > m·r, that is when e is
# at least the level's threshold; the thresholds rise with the index.
_MCS_THRESHOLDS = np.array([_float_above(m * r) for _, m, r in MCS_TABLE])
# Bit rate over ``DEFAULT_BANDWIDTH`` per MCS index; index -1 (no level
# fits) picks the trailing 0.0.
_MCS_RATES = np.array([DEFAULT_BANDWIDTH * float(m * r) for _, m, r in MCS_TABLE] + [0.0])


def max_mcs(avg_spectral_efficiency) -> np.ndarray:
    """Index of the highest MCS whose bit density is strictly below the efficiency.

    Strictly: a stream whose averaged spectral efficiency exactly equals
    m·r cannot carry that level, and an efficiency below 0.5 bits/s/Hz
    cannot carry anything, which gives index -1. Scalars and arrays alike
    give integer indices of the input's shape. NaN and negative
    efficiencies raise ValueError.
    """
    eff = np.asarray(avg_spectral_efficiency, dtype=float)
    if not np.all(eff >= 0.0):
        raise ValueError("spectral efficiency must be a nonnegative number")
    return np.searchsorted(_MCS_THRESHOLDS, eff, side="right") - 1


def spectral_efficiency(sinr: np.ndarray, gap_db: float) -> float | np.ndarray:
    """Subcarrier-averaged log2(1 + SINR/gap) with the gap given in dB.

    The gap models the shortfall of practical coding from capacity; it
    scales every SINR down before averaging. Subcarriers are the last
    axis; any leading axes are a batch and come back as an array.
    """
    # One temporary, updated in place in resident buffer 0 (core.Workspace):
    # a batch's SINR grid is the largest array a sweep chunk makes.
    sinr = np.asarray(sinr)
    x = WORKSPACE.array(True, 0, sinr.shape, float)
    if gap_db == 0.0:
        # A 0 dB gap is a divide by 1.0, which changes nothing.
        np.add(sinr, 1.0, out=x)
    else:
        np.divide(sinr, 10.0 ** (gap_db / 10.0), out=x)
        x += 1.0
    return np.mean(np.log2(x, out=x), axis=-1)


def stream_gains(
    channels: ChannelSet, pset: PrecoderSet
) -> tuple[tuple[tuple[np.ndarray, ...], ...], tuple[np.ndarray, ...]]:
    """|h^H p|² and |a^H p|² per subcarrier: precoders seen by the users and the target.

    Returns ``(users, target)``. ``users[u]`` holds user u+1's (common,
    private 1, private 2) gains on the true channel; the sensing stream,
    which the users subtract, is not projected onto them. ``target`` holds
    the (common, private 1, private 2, sensing) powers along
    ``channels.target_steering``. Each keeps its precoder's batch shape,
    subcarriers last. The conjugated channel rows are stored with
    subcarriers innermost (Fortran order), as ``build_precoders`` stores
    the precoders, so each user projection sums over contiguous subcarriers.
    """

    def power(subscripts: str, row: np.ndarray, p: np.ndarray) -> np.ndarray:
        # The complex projection is a temporary, so it goes in resident
        # buffer 1 (core.Workspace); |·|² comes back in an array of its own.
        projection = WORKSPACE.array(True, 1, p.shape[:-1], complex)
        gain = np.abs(np.einsum(subscripts, row, p, out=projection))
        return np.square(gain, out=gain)

    users = tuple(
        tuple(power("kt,...kt->...k", h_conj, p) for p in (pset.p_c, pset.p_1, pset.p_2))
        for h_conj in (np.conj(h, order="F") for h in channels.true_channels)
    )
    a_conj = np.conj(channels.target_steering)
    target = tuple(
        power("t,...kt->...k", a_conj, p) for p in (pset.p_c, pset.p_1, pset.p_2, pset.p_r)
    )
    return users, target


def _plus_noise(noise_power: float, first, second=None) -> np.ndarray:
    """An SINR's denominator in resident buffer 1 (``core.Workspace``): the
    interfering gains, ``first`` then ``second`` if given, plus the noise."""
    shape = np.shape(first) if second is None else np.broadcast(first, second).shape
    out = WORKSPACE.array(True, 1, shape, float)
    if second is None:
        return np.add(first, noise_power, out=out)
    np.add(first, second, out=out)
    out += noise_power
    return out


def sinr_common(users: tuple, noise_power: float) -> tuple[np.ndarray, np.ndarray]:
    """Common-stream SINR at (user 1, user 2), per subcarrier, from ``stream_gains``' users.

    Both private streams interfere (SIC has not run yet); the sensing
    stream does not, because its symbols are known at the users and
    subtracted before decoding. Leading batch axes of the gains
    broadcast against each other.
    """
    return tuple(
        common / _plus_noise(noise_power, private_1, private_2)
        for common, private_1, private_2 in users
    )


def sinr_private(users: tuple, noise_power: float) -> tuple[np.ndarray, np.ndarray]:
    """Private-stream SINR at (user 1, user 2) after the common stream is removed."""
    (_, own_1, other_1), (_, other_2, own_2) = users
    return own_1 / _plus_noise(noise_power, other_1), own_2 / _plus_noise(noise_power, other_2)


class CollapseMask(np.ndarray):
    """Per-point collapse flags of a batch report.

    ``int()`` counts the collapsed points, as ``int()`` of a single
    point's flag (0 or 1) does, so a tally of collapses over reports
    needs no case for batches.
    """

    def __int__(self) -> int:
        return int(np.count_nonzero(self))


@dataclass(frozen=True)
class ThroughputReport:
    """One scoring pass: the SINRs and efficiencies it scored, the MCS
    indices they chose (-1 where no level is carried), the rates and a
    CollapseMask. ``sinr`` (subcarriers last) and ``efficiency`` hold
    ``((common at user 1, at user 2), (private 1, private 2))`` in the
    shapes the gains broadcast to; every other field has the batch shape.
    """

    sinr: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    efficiency: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    t_common: np.ndarray
    t_private: tuple[np.ndarray, np.ndarray]
    t_sum: np.ndarray
    mcs_chosen: tuple[np.ndarray, np.ndarray, np.ndarray]
    collapsed: CollapseMask


def throughput(
    users: tuple, pset: PrecoderSet, cfg: ScenarioConfig
) -> ThroughputReport:
    """MCS-limited sum throughput of precoder sets from their gains at the users.

    ``users`` is the first row of ``stream_gains(channels, pset)``; ``pset``
    tells which points carry a common stream. The common stream is
    decodable only if both users support at least MCS 0 for it; otherwise
    the whole report collapses to zero. Points with no common-stream power
    at all (pure SDMA, or sensing only) skip the collapse rule and simply
    add the surviving private streams. The report keeps the SINRs and
    efficiencies it scored, so no caller scores the gains again.

    The gains may carry leading batch axes that broadcast against each
    other. A plain PrecoderSet is a batch of shape () and gets 0-d rates,
    indices and efficiencies. Rates use ``DEFAULT_BANDWIDTH``.
    """
    sigma2 = cfg.noise_power_comms
    gap = cfg.shannon_gap_db
    has_common = np.any(pset.p_c, axis=(-2, -1))

    sinr_c = sinr_common(users, sigma2)
    eff_c = tuple(np.asarray(spectral_efficiency(sinr, gap)) for sinr in sinr_c)
    mcs_c = max_mcs(np.minimum(*eff_c))
    t_c = _MCS_RATES[mcs_c]
    collapsed = has_common & (t_c == 0.0)
    sinr_p = sinr_private(users, sigma2)
    eff_p = tuple(np.asarray(spectral_efficiency(sinr, gap)) for sinr in sinr_p)
    mcs_p = [max_mcs(eff) for eff in eff_p]
    t_private = tuple(np.where(collapsed, 0.0, _MCS_RATES[index]) for index in mcs_p)
    return ThroughputReport(
        sinr=(sinr_c, sinr_p),
        efficiency=(eff_c, eff_p),
        t_common=np.asarray(t_c),
        t_private=t_private,
        t_sum=np.asarray(t_c + t_private[0] + t_private[1]),
        mcs_chosen=(np.asarray(mcs_c), *(np.where(collapsed, -1, index) for index in mcs_p)),
        collapsed=np.asarray(collapsed).view(CollapseMask),
    )
