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

from .core import ChannelSet, ScenarioConfig
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
    gap = 10.0 ** (gap_db / 10.0)
    # One temporary, updated in place: a batch's SINR grid is the largest
    # array a sweep block makes.
    x = np.divide(sinr, gap)
    x += 1.0
    return np.mean(np.log2(x, out=x), axis=-1)


def stream_gains(
    channels: ChannelSet, pset: PrecoderSet
) -> tuple[tuple[np.ndarray, ...], ...]:
    """|h^H p|² per subcarrier of each comms stream at each user.

    ``gains[u]`` holds user u+1's (common, private 1, private 2) gains on
    the true channel, each with its precoder's batch shape and subcarriers
    last: one projection per (user, stream). The conjugated channel rows
    are stored with subcarriers innermost (Fortran order), as
    ``build_precoders`` stores the precoders, so each projection sums over
    contiguous subcarriers.
    """
    return tuple(
        tuple(
            np.abs(np.einsum("kt,...kt->...k", h_conj, p)) ** 2
            for p in (pset.p_c, pset.p_1, pset.p_2)
        )
        for h_conj in (np.conj(h, order="F") for h in channels.true_channels)
    )


def _check_ue(ue: int) -> int:
    if ue not in (1, 2):
        raise ValueError(f"ue must be 1 or 2, got {ue}")
    return ue - 1


def sinr_common(gains: tuple, ue: int, noise_power: float) -> np.ndarray:
    """Common-stream SINR at one user, per subcarrier, from ``stream_gains``.

    Both private streams interfere (SIC has not run yet); the sensing
    stream does not, because its symbols are known at the users and
    subtracted before decoding. Leading batch axes of the gains
    broadcast against each other.
    """
    common, private_1, private_2 = gains[_check_ue(ue)]
    return common / (private_1 + private_2 + noise_power)


def sinr_private(gains: tuple, ue: int, noise_power: float) -> np.ndarray:
    """Private-stream SINR at one user after the common stream is removed."""
    i = _check_ue(ue)
    own, other = gains[i][1 + i], gains[i][2 - i]
    return own / (other + noise_power)


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
    """Stream and sum throughputs with the MCS indices that produced them.

    Every field holds arrays of the batch shape: float rates, integer
    MCS indices (-1 where no level is carried), and a CollapseMask.
    """

    t_common: np.ndarray
    t_private: tuple[np.ndarray, np.ndarray]
    t_sum: np.ndarray
    mcs_chosen: tuple[np.ndarray, np.ndarray, np.ndarray]
    collapsed: CollapseMask


def throughput(
    channels: ChannelSet, pset: PrecoderSet, cfg: ScenarioConfig
) -> ThroughputReport:
    """MCS-limited sum throughput of precoder sets on one channel draw.

    The common stream is decodable only if both users support at least
    MCS 0 for it; otherwise the whole report collapses to zero. Points
    with no common-stream power at all (pure SDMA, or sensing only) skip
    the collapse rule and simply add the surviving private streams.

    The precoder arrays may carry leading batch axes that broadcast
    against each other; every report field then has the broadcast batch
    shape. A plain PrecoderSet is a batch of shape () and gets 0-d
    arrays. Rates use ``DEFAULT_BANDWIDTH``.
    """
    sigma2 = cfg.noise_power_comms
    gap = cfg.shannon_gap_db
    has_common = np.any(pset.p_c, axis=(-2, -1))
    gains = stream_gains(channels, pset)

    mcs_c = max_mcs(
        np.minimum(
            spectral_efficiency(sinr_common(gains, 1, sigma2), gap),
            spectral_efficiency(sinr_common(gains, 2, sigma2), gap),
        )
    )
    t_c = _MCS_RATES[mcs_c]
    collapsed = has_common & (t_c == 0.0)
    indices = [np.asarray(mcs_c)]
    rates = []
    for ue in (1, 2):
        index = max_mcs(spectral_efficiency(sinr_private(gains, ue, sigma2), gap))
        indices.append(np.where(collapsed, -1, index))
        rates.append(np.where(collapsed, 0.0, _MCS_RATES[index]))
    return ThroughputReport(
        t_common=np.asarray(t_c),
        t_private=(rates[0], rates[1]),
        t_sum=np.asarray(t_c + rates[0] + rates[1]),
        mcs_chosen=tuple(indices),
        collapsed=np.asarray(collapsed).view(CollapseMask),
    )
