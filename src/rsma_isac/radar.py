"""Monostatic OFDM radar chain: waveform, echo, matched filter, bounds.

The transmitter reuses the downlink waveform for sensing. A point target at
integer delay n0 multiplies the steered waveform by a phase ramp across
subcarriers; correlating the receive grid with the known steered waveform
and taking a DFT turns that ramp back into a peak at bin n0. Post-processing
SNR compares the peak against the off-peak average, and the delay CRB
follows from the Gaussian likelihood of the receive grid.

``sigma_r2`` is the TOTAL in-band noise energy of one capture; each of the
N_c subcarriers carries noise of variance sigma_r2/N_c. This is the reading
under which the measured peak-to-offpeak SNR and its closed form agree, and
the CRB below uses the same likelihood so every number in this module is
consistent with every other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ArrayGeometry, RngStream, steering_vector
from .precoders import PrecoderSet


class UndefinedProfileError(ValueError):
    """The matched-filter output is identically zero, so no peak exists."""


class ZeroInformationError(ValueError):
    """The waveform carries no delay information (no k-weighted energy)."""


# Stream id reserved for the clutter grid so captures that share a root seed
# see the same clutter no matter which noise streams they use.
_CLUTTER_STREAM_ID = 0x7FFFFFFF

# The sensing stream is a fixed pseudo-random BPSK pattern; users are assumed
# to know it, so it must not change between calls.
_SENSING_SYMBOL_SEED = 0x5EED


@dataclass(frozen=True)
class RangeProfile:
    """Matched-filter magnitudes with the derived delay estimate and SNR."""

    magnitudes: np.ndarray
    peak_bin: int
    snr_rad_db: float


def sensing_symbols(n_subcarriers: int) -> np.ndarray:
    """The fixed unit-energy BPSK pattern carried by the sensing stream."""
    gen = np.random.default_rng(_SENSING_SYMBOL_SEED)
    return 2.0 * gen.integers(0, 2, size=n_subcarriers).astype(float) - 1.0


def synthesize_tx(pset: PrecoderSet, rng: RngStream) -> np.ndarray:
    """Draw one OFDM symbol's worth of data and superpose the four streams.

    Returns the transmit grid x, shape (n_subcarriers, n_tx). Data streams
    carry random QPSK symbols (exactly unit energy). The sensing stream
    always carries the fixed BPSK pattern from :func:`sensing_symbols`.
    Streams whose precoders are zero contribute nothing, symbols included.
    """
    nc = pset.p_c.shape[0]
    gen = rng.generator()
    x = np.zeros_like(pset.p_c)
    for p in (pset.p_c, pset.p_1, pset.p_2):
        if np.any(p):
            quadrant = gen.integers(0, 4, size=nc)
            x = x + p * np.exp(1j * (np.pi / 4.0 + np.pi / 2.0 * quadrant))[:, None]
    if np.any(pset.p_r):
        x = x + pset.p_r * sensing_symbols(nc)[:, None]
    return x


def steered_projection(
    x: np.ndarray, geom: ArrayGeometry, angle_deg: float = 0.0
) -> np.ndarray:
    """Per-subcarrier complex amplitude c[k] = a^H x[k]; later stages take c."""
    a = steering_vector(geom, angle_deg)
    return np.einsum("t,kt->k", np.conj(a), x)


def expected_steered_power(
    pset: PrecoderSet, geom: ArrayGeometry, angle_deg: float = 0.0
) -> np.ndarray:
    """Symbol-averaged |a^H x[k]|² per subcarrier.

    Streams carry independent zero-mean unit-energy symbols, so the
    expectation is the sum of the per-stream projected powers; no symbol
    draw is needed, which keeps a sweep's sensing axis noise-free.
    Precoders may carry leading batch axes, which broadcast; the result
    keeps them, with subcarriers last.
    The streams add in the order common, 1, 2, sensing, so every entry of
    a batch equals what its own point gives, bit for bit.
    """
    a = np.conj(steering_vector(geom, angle_deg))
    c, p1, p2, r = (
        np.abs(np.einsum("t,...kt->...k", a, p)) ** 2
        for p in (pset.p_c, pset.p_1, pset.p_2, pset.p_r)
    )
    out = c + p1
    out += p2
    out += r
    return out


def radar_return(
    c: np.ndarray,
    n0: int,
    beta: float,
    sigma_r2: float,
    rng: RngStream,
    clutter_energy: float | None = None,
) -> np.ndarray:
    """Simulate one receive capture y of the steered waveform c echoed at delay n0.

    The echo is beta times c with a per-subcarrier phase ramp. Noise is
    white with total energy ``sigma_r2`` spread across the grid. A
    ``clutter_energy`` (None means no clutter) adds a static clutter grid
    of that total energy; the grid depends only on ``rng.seed`` (not the
    stream id), so captures that share a root seed and energy can subtract
    each other's clutter exactly.
    """
    nc = c.shape[0]
    if not 0 <= n0 < nc:
        raise ValueError(f"n0 must lie in [0, {nc}), got {n0}")
    k = np.arange(nc)
    echo = beta * c * np.exp(2j * np.pi * n0 * k / nc)

    gen = rng.generator()
    scale = math.sqrt(sigma_r2 / (2.0 * nc)) if sigma_r2 > 0 else 0.0
    noise = gen.normal(scale=scale, size=(nc, 2)) if scale else np.zeros((nc, 2))
    y = echo + noise[:, 0] + 1j * noise[:, 1]

    if clutter_energy is not None:
        cgen = np.random.default_rng((rng.seed, _CLUTTER_STREAM_ID))
        z = cgen.normal(scale=math.sqrt(0.5), size=(nc, 2))
        y = y + math.sqrt(clutter_energy / nc) * (z[:, 0] + 1j * z[:, 1])
    return y


def two_stage_capture(
    c: np.ndarray,
    n0: int,
    beta: float,
    sigma_r2: float,
    rng_with: RngStream,
    rng_without: RngStream,
) -> np.ndarray:
    """Capture the same waveform with and without the target and subtract.

    The two captures must share a root seed (same clutter) but use distinct
    stream ids (independent noise). Both see clutter of 10x the echo
    energy; the target-free capture has no echo to scale by, so the energy
    is fixed here. Clutter cancels exactly; the two noises add, so the
    difference carries noise of total energy 2·sigma_r2.
    """
    if rng_with.seed != rng_without.seed:
        raise ValueError("captures need the same root seed to share clutter")
    if rng_with.stream_id == rng_without.stream_id:
        raise ValueError("captures need distinct stream ids for independent noise")
    energy = 10.0 * float(beta**2) * float(np.sum(np.abs(c) ** 2))
    with_t = radar_return(c, n0, beta, sigma_r2, rng_with, energy)
    without = radar_return(c, n0, 0.0, sigma_r2, rng_without, energy)
    return with_t - without


def _delay_fisher(weighted: float, nc: int, beta: float, sigma_r2: float) -> float:
    """Fisher information for the delay in bins, from sum_k k^2 |c_k|^2.

    Per-subcarrier noise variance is sigma_r2/N_c, so the information is
    8 pi^2 beta^2 sum_k k^2 |c_k|^2 / (sigma_r2 N_c).
    """
    if weighted <= 0.0:
        raise ZeroInformationError(
            "waveform has no energy on k > 0 subcarriers; delay is unidentifiable"
        )
    if beta == 0.0:
        return 0.0
    if sigma_r2 == 0.0:
        return math.inf
    return 8.0 * math.pi**2 * beta**2 * weighted / (sigma_r2 * nc)


def _delay_crb(weighted: float, nc: int, beta: float, sigma_r2: float) -> float:
    """The inverse of :func:`_delay_fisher`: no information gives inf, infinite gives 0."""
    info = _delay_fisher(weighted, nc, beta, sigma_r2)
    if info == 0.0:
        return math.inf
    if math.isinf(info):
        return 0.0
    return 1.0 / info


def _k2_sum(power_per_k: np.ndarray) -> np.ndarray:
    """The delay-weighted energy sum_k k^2 |c_k|^2 of a per-subcarrier power.

    Subcarriers are the last axis; leading batch axes are kept.
    """
    return np.sum(np.arange(power_per_k.shape[-1]) ** 2 * power_per_k, axis=-1)


def snr_rad_closed_form(c: np.ndarray, beta: float, sigma_r2: float) -> float:
    """Predicted peak-to-offpeak power ratio, linear: β²(N_c−1)·Σ|c|²/σ_r²."""
    gain = float(np.sum(np.abs(c) ** 2))
    if sigma_r2 == 0.0:
        return math.inf if beta != 0.0 and gain > 0.0 else 0.0
    return beta**2 * (c.shape[0] - 1) * gain / sigma_r2


def range_profile(y: np.ndarray, c: np.ndarray) -> RangeProfile:
    """Correlate the capture y with the steered waveform c and locate the peak.

    The matched filter multiplies y by conj(c) and DFTs across
    subcarriers; a target at delay n0 lands on bin n0. SNR is the peak
    power over the average off-peak power. Ties in the peak search resolve
    to the lowest bin.
    """
    spectrum = np.fft.fft(y * np.conj(c))
    mags = np.abs(spectrum)
    if not np.any(mags > 0.0):
        raise UndefinedProfileError(
            "matched-filter output is identically zero; no energy toward the target"
        )
    peak = int(np.argmax(mags))
    off = np.delete(mags, peak)
    denom = float(np.mean(off**2))
    snr = math.inf if denom == 0.0 else float(mags[peak] ** 2) / denom
    snr_db = 10.0 * math.log10(snr) if math.isfinite(snr) else math.inf
    return RangeProfile(magnitudes=mags, peak_bin=peak, snr_rad_db=snr_db)
