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

from .core import ChannelSet, ConfigError, ScenarioConfig
from .precoders import PrecoderSet


@dataclass(frozen=True)
class EffectiveBandwidth:
    """Nominal bandwidth discounted by cyclic prefix and guard subcarriers."""

    total_hz: float
    cp_samples: int
    data_subcarriers: int
    value_hz: float


def effective_bandwidth(
    total_hz: float, n_subcarriers: int, cp_samples: int, data_subcarriers: int
) -> EffectiveBandwidth:
    """Bandwidth actually carrying data: total · N_c/(N_c+cp) · data/N_c."""
    if total_hz <= 0 or n_subcarriers <= 0 or data_subcarriers <= 0:
        raise ConfigError("bandwidth, subcarrier and data counts must be positive")
    if cp_samples < 0:
        raise ConfigError("cp_samples must be nonnegative")
    if data_subcarriers > n_subcarriers:
        raise ConfigError("data_subcarriers cannot exceed n_subcarriers")
    value = (
        total_hz
        * (n_subcarriers / (n_subcarriers + cp_samples))
        * (data_subcarriers / n_subcarriers)
    )
    return EffectiveBandwidth(total_hz, cp_samples, data_subcarriers, value)


# 100 MHz OFDM with a 1/4 cyclic prefix and 468 of 512 subcarriers carrying
# data: the link budget every throughput number in this package assumes.
DEFAULT_BANDWIDTH = effective_bandwidth(100e6, 512, 128, 468)


@dataclass(frozen=True)
class McsLevel:
    """One modulation-and-coding choice: index, bits/symbol, code rate."""

    index: int
    modulation: str
    bits_per_symbol: int
    code_rate: Fraction

    @property
    def bit_density(self) -> Fraction:
        """Information bits per subcarrier use, m·r."""
        return self.bits_per_symbol * self.code_rate

    def data_rate_bps(self, bandwidth_hz: float = DEFAULT_BANDWIDTH.value_hz) -> float:
        return bandwidth_hz * float(self.bit_density)


_MCS_ROWS = (
    (0, "BPSK", 1, Fraction(1, 2)),
    (1, "BPSK", 1, Fraction(3, 4)),
    (2, "QPSK", 2, Fraction(1, 2)),
    (3, "QPSK", 2, Fraction(3, 4)),
    (4, "16QAM", 4, Fraction(1, 2)),
    (5, "16QAM", 4, Fraction(3, 4)),
    (6, "64QAM", 6, Fraction(2, 3)),
    (7, "64QAM", 6, Fraction(3, 4)),
    (8, "256QAM", 8, Fraction(3, 4)),
    (9, "256QAM", 8, Fraction(5, 6)),
)

MCS_TABLE: tuple[McsLevel, ...] = tuple(McsLevel(*row) for row in _MCS_ROWS)


def _float_above(x: Fraction) -> float:
    """The smallest float strictly greater than the exact rational ``x``."""
    f = float(x)
    return f if Fraction(f) > x else math.nextafter(f, math.inf)


# An efficiency e can carry a level exactly when e > m·r, that is when e is
# at least the level's threshold; the thresholds rise with the index.
_MCS_THRESHOLDS = np.array([_float_above(level.bit_density) for level in MCS_TABLE])
# Indexed by MCS index, so index -1 (no level fits) picks the trailing entry.
_MCS_CHOICES = np.array(MCS_TABLE + (None,), dtype=object)
_BIT_DENSITIES = tuple(float(level.bit_density) for level in MCS_TABLE)
_bits_per_use = np.frompyfunc(
    lambda level: 0.0 if level is None else _BIT_DENSITIES[level.index], 1, 1
)


def max_mcs(avg_spectral_efficiency) -> McsLevel | None | np.ndarray:
    """Highest MCS whose bit density is strictly below the efficiency.

    Strictly: a stream whose averaged spectral efficiency exactly equals
    m·r cannot carry that level, and an efficiency below 0.5 bits/s/Hz
    cannot carry anything. A scalar gives its McsLevel, or None; an array
    gives an object array of the same shape holding one of those per
    element. NaN and negative efficiencies raise ValueError.
    """
    eff = np.asarray(avg_spectral_efficiency, dtype=float)
    if not np.all(eff >= 0.0):
        raise ValueError("spectral efficiency must be a nonnegative number")
    return _MCS_CHOICES[np.searchsorted(_MCS_THRESHOLDS, eff, side="right") - 1]


def spectral_efficiency(sinr: np.ndarray, gap_db: float = 0.0) -> float | np.ndarray:
    """Subcarrier-averaged log2(1 + SINR/gap) with the gap given in dB.

    The gap models the shortfall of practical coding from capacity; it
    scales every SINR down before averaging. Subcarriers are the last
    axis; any leading axes are a batch and come back as an array.
    """
    gap = 10.0 ** (gap_db / 10.0)
    return np.mean(np.log2(1.0 + np.asarray(sinr) / gap), axis=-1)


def _project(h: np.ndarray, p: np.ndarray) -> np.ndarray:
    """|h^H p|² per subcarrier: h is (N_c, N_T), p is (..., N_c, N_T)."""
    return np.abs(np.einsum("kt,...kt->...k", np.conj(h), p)) ** 2


def _check_ue(ue: int) -> int:
    if ue not in (1, 2):
        raise ValueError(f"ue must be 1 or 2, got {ue}")
    return ue - 1


def sinr_common(
    channels: ChannelSet, pset: PrecoderSet, ue: int, noise_power: float
) -> np.ndarray:
    """Common-stream SINR at one user, per subcarrier.

    Both private streams interfere (SIC has not run yet); the sensing
    stream does not, because its symbols are known at the users and
    subtracted before decoding. Leading batch axes of the precoders
    broadcast against each other.
    """
    i = _check_ue(ue)
    h = channels.true_channels[i]
    num = _project(h, pset.p_c)
    den = _project(h, pset.p_1) + _project(h, pset.p_2) + noise_power
    return num / den


def sinr_private(
    channels: ChannelSet, pset: PrecoderSet, ue: int, noise_power: float
) -> np.ndarray:
    """Private-stream SINR at one user after the common stream is removed."""
    i = _check_ue(ue)
    h = channels.true_channels[i]
    own = (pset.p_1, pset.p_2)[i]
    other = (pset.p_2, pset.p_1)[i]
    num = _project(h, own)
    den = _project(h, other) + noise_power
    return num / den


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
    """Stream and sum throughputs with the MCS levels that produced them.

    A report on a batch of precoder sets holds arrays of the batch shape:
    float rates, object arrays of levels, and a CollapseMask.
    """

    t_common: float
    t_private: tuple[float, float]
    t_sum: float
    mcs_chosen: tuple[McsLevel | None, McsLevel | None, McsLevel | None]
    collapsed: bool


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
    shape. A plain PrecoderSet is a batch of shape () and gets Python
    scalars. Rates use ``DEFAULT_BANDWIDTH``.
    """
    sigma2 = cfg.noise_power_comms
    gap = cfg.shannon_gap_db
    has_common = np.any(pset.p_c, axis=(-2, -1))

    def stream(eff):
        level = max_mcs(eff)
        rate = DEFAULT_BANDWIDTH.value_hz * np.asarray(_bits_per_use(level), dtype=float)
        return level, rate

    mcs_c, t_c = stream(
        np.minimum(
            spectral_efficiency(sinr_common(channels, pset, 1, sigma2), gap),
            spectral_efficiency(sinr_common(channels, pset, 2, sigma2), gap),
        )
    )
    collapsed = has_common & (t_c == 0.0)
    levels = [mcs_c]
    rates = []
    for ue in (1, 2):
        level, rate = stream(
            spectral_efficiency(sinr_private(channels, pset, ue, sigma2), gap)
        )
        levels.append(np.where(collapsed, None, level))
        rates.append(np.where(collapsed, 0.0, rate))
    t_sum = t_c + rates[0] + rates[1]
    if np.ndim(collapsed) == 0:
        def item(x):
            return np.asarray(x).tolist()

        return ThroughputReport(
            t_common=item(t_c),
            t_private=(item(rates[0]), item(rates[1])),
            t_sum=item(t_sum),
            mcs_chosen=tuple(map(item, levels)),
            collapsed=bool(collapsed),
        )
    return ThroughputReport(
        t_common=t_c,
        t_private=(rates[0], rates[1]),
        t_sum=t_sum,
        mcs_chosen=tuple(levels),
        collapsed=collapsed.view(CollapseMask),
    )
