"""Monostatic OFDM radar chain: waveform, echo, matched filter, bounds.

The transmitter reuses the downlink waveform for sensing. A point target at
integer delay n0 multiplies the steered waveform by a phase ramp across
subcarriers; correlating the receive grid with the known transmit grid and
taking a DFT turns that ramp back into a peak at bin n0. Post-processing
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
class TxGrid:
    """Transmit signal across subcarriers, shape (n_subcarriers, n_tx)."""

    x: np.ndarray

    @property
    def n_subcarriers(self) -> int:
        return self.x.shape[0]

    @property
    def n_tx(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class RadarObservation:
    """One receive capture plus the ground truth that produced it."""

    y_r: np.ndarray
    clutter_only: np.ndarray | None
    n0_true: int
    beta: float
    sigma_r2: float


@dataclass(frozen=True)
class RangeProfile:
    """Matched-filter magnitudes with the derived delay estimate and SNR."""

    magnitudes: np.ndarray
    peak_bin: int
    snr_rad_db: float
    crb_bins2: float


def sensing_symbols(n_subcarriers: int) -> np.ndarray:
    """The fixed unit-energy BPSK pattern carried by the sensing stream."""
    gen = np.random.default_rng(_SENSING_SYMBOL_SEED)
    return 2.0 * gen.integers(0, 2, size=n_subcarriers).astype(float) - 1.0


def synthesize_tx(
    pset: PrecoderSet, rng: RngStream, symbol_style: str = "qpsk"
) -> TxGrid:
    """Draw one OFDM symbol's worth of data and superpose the four streams.

    Data streams carry random QPSK symbols (exactly unit energy), or
    zero-mean unit-variance complex Gaussians with ``symbol_style=
    "gaussian"`` for sensitivity checks. The sensing stream always carries
    the fixed BPSK pattern from :func:`sensing_symbols`. Streams whose
    precoders are zero contribute nothing, symbols included.
    """
    if symbol_style not in ("qpsk", "gaussian"):
        raise ValueError(f"unknown symbol_style {symbol_style!r}")
    nc = pset.p_c.shape[0]
    gen = rng.generator()

    def draw() -> np.ndarray:
        if symbol_style == "qpsk":
            quadrant = gen.integers(0, 4, size=nc)
            return np.exp(1j * (np.pi / 4.0 + np.pi / 2.0 * quadrant))
        z = gen.normal(scale=math.sqrt(0.5), size=(nc, 2))
        return z[:, 0] + 1j * z[:, 1]

    x = np.zeros_like(pset.p_c)
    for p in (pset.p_c, pset.p_1, pset.p_2):
        if np.any(p):
            x = x + p * draw()[:, None]
    if np.any(pset.p_r):
        x = x + pset.p_r * sensing_symbols(nc)[:, None]
    return TxGrid(x)


def steered_projection(
    x: TxGrid, geom: ArrayGeometry, angle_deg: float = 0.0
) -> np.ndarray:
    """Per-subcarrier complex amplitude a^H x[k] toward one direction."""
    a = steering_vector(geom, angle_deg)
    return np.einsum("t,kt->k", np.conj(a), x.x)


def broadside_gain(x: TxGrid, geom: ArrayGeometry, angle_deg: float = 0.0) -> float:
    """Energy the waveform radiates toward the sensed direction, Σ|a^Hx|²."""
    return float(np.sum(np.abs(steered_projection(x, geom, angle_deg)) ** 2))


def expected_steered_power(
    pset: PrecoderSet, geom: ArrayGeometry, angle_deg: float = 0.0
) -> np.ndarray:
    """Symbol-averaged |a^H x[k]|² per subcarrier.

    Streams carry independent zero-mean unit-energy symbols, so the
    expectation is the sum of the per-stream projected powers; no symbol
    draw is needed. Sweeps use this instead of :func:`broadside_gain` to
    keep the sensing axis noise-free.
    """
    a = steering_vector(geom, angle_deg)
    out = np.zeros(pset.p_c.shape[0])
    for p in (pset.p_c, pset.p_1, pset.p_2, pset.p_r):
        out += np.abs(np.einsum("t,kt->k", np.conj(a), p)) ** 2
    return out


def expected_broadside_gain(
    pset: PrecoderSet, geom: ArrayGeometry, angle_deg: float = 0.0
) -> float:
    return float(np.sum(expected_steered_power(pset, geom, angle_deg)))


def radar_return(
    x: TxGrid,
    n0: int,
    beta: float,
    sigma_r2: float,
    rng: RngStream,
    with_clutter: bool = False,
    clutter_energy: float | None = None,
    geom: ArrayGeometry | None = None,
    angle_deg: float = 0.0,
) -> RadarObservation:
    """Simulate one receive capture of the waveform echoed at delay n0.

    The echo is beta times the steered waveform with a per-subcarrier phase
    ramp. Noise is white with total energy ``sigma_r2`` spread across the
    grid. When ``with_clutter`` is set, a static clutter grid is added and
    also reported separately; the grid depends only on ``rng.seed`` (not
    the stream id), so captures that share a root seed can subtract each
    other's clutter exactly. ``clutter_energy`` defaults to 10x the echo
    energy; pass the same explicit value to both captures of a two-stage
    measurement, since the target-free capture has no echo to scale by.
    """
    nc = x.n_subcarriers
    if not 0 <= n0 < nc:
        raise ValueError(f"n0 must lie in [0, {nc}), got {n0}")
    g = geom if geom is not None else ArrayGeometry(n_tx=x.n_tx)
    c = steered_projection(x, g, angle_deg)
    k = np.arange(nc)
    echo = beta * c * np.exp(2j * np.pi * n0 * k / nc)

    gen = rng.generator()
    scale = math.sqrt(sigma_r2 / (2.0 * nc)) if sigma_r2 > 0 else 0.0
    noise = gen.normal(scale=scale, size=(nc, 2)) if scale else np.zeros((nc, 2))
    y = echo + noise[:, 0] + 1j * noise[:, 1]

    clutter_grid = None
    if with_clutter:
        energy = clutter_energy
        if energy is None:
            energy = 10.0 * float(beta**2) * float(np.sum(np.abs(c) ** 2))
        cgen = np.random.default_rng((rng.seed, _CLUTTER_STREAM_ID))
        z = cgen.normal(scale=math.sqrt(0.5), size=(nc, 2))
        clutter_grid = math.sqrt(energy / nc) * (z[:, 0] + 1j * z[:, 1])
        y = y + clutter_grid

    return RadarObservation(
        y_r=y, clutter_only=clutter_grid, n0_true=n0, beta=beta, sigma_r2=sigma_r2
    )


def background_subtract(
    with_target: RadarObservation, without_target: RadarObservation
) -> RadarObservation:
    """Remove everything static by subtracting a target-free capture.

    Clutter cancels exactly when both captures used the same root seed and
    clutter energy. The noises of the two captures add, so the result's
    ``sigma_r2`` is the sum of the inputs'.
    """
    if with_target.y_r.shape != without_target.y_r.shape:
        raise ValueError("captures have different grid sizes")
    return RadarObservation(
        y_r=with_target.y_r - without_target.y_r,
        clutter_only=None,
        n0_true=with_target.n0_true,
        beta=with_target.beta,
        sigma_r2=with_target.sigma_r2 + without_target.sigma_r2,
    )


def two_stage_capture(
    x: TxGrid,
    n0: int,
    beta: float,
    sigma_r2: float,
    rng_with: RngStream,
    rng_without: RngStream,
    clutter_energy: float | None = None,
    geom: ArrayGeometry | None = None,
    angle_deg: float = 0.0,
) -> RadarObservation:
    """Transmit the same waveform with and without the target, subtract.

    The two captures must share a root seed (same clutter) but use distinct
    stream ids (independent noise).
    """
    if rng_with.seed != rng_without.seed:
        raise ValueError("captures need the same root seed to share clutter")
    if rng_with.stream_id == rng_without.stream_id:
        raise ValueError("captures need distinct stream ids for independent noise")
    g = geom if geom is not None else ArrayGeometry(n_tx=x.n_tx)
    energy = clutter_energy
    if energy is None:
        c = steered_projection(x, g, angle_deg)
        energy = 10.0 * float(beta**2) * float(np.sum(np.abs(c) ** 2))
    with_t = radar_return(
        x, n0, beta, sigma_r2, rng_with,
        with_clutter=True, clutter_energy=energy, geom=g, angle_deg=angle_deg,
    )
    without = radar_return(
        x, n0, 0.0, sigma_r2, rng_without,
        with_clutter=True, clutter_energy=energy, geom=g, angle_deg=angle_deg,
    )
    return background_subtract(with_t, without)


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


def _k2_sum(power_per_k: np.ndarray) -> float:
    """The delay-weighted energy sum_k k^2 |c_k|^2 of a per-subcarrier power."""
    return float(np.sum(np.arange(power_per_k.shape[0]) ** 2 * power_per_k))


def fisher_information(
    x: TxGrid, beta: float, sigma_r2: float,
    geom: ArrayGeometry | None = None, angle_deg: float = 0.0,
) -> float:
    g = geom if geom is not None else ArrayGeometry(n_tx=x.n_tx)
    power = np.abs(steered_projection(x, g, angle_deg)) ** 2
    return _delay_fisher(_k2_sum(power), power.shape[0], beta, sigma_r2)


def crb(
    x: TxGrid, beta: float, sigma_r2: float,
    geom: ArrayGeometry | None = None, angle_deg: float = 0.0,
) -> float:
    """Lower bound on the variance of any unbiased delay estimate, bins²."""
    g = geom if geom is not None else ArrayGeometry(n_tx=x.n_tx)
    power = np.abs(steered_projection(x, g, angle_deg)) ** 2
    return _delay_crb(_k2_sum(power), power.shape[0], beta, sigma_r2)


def snr_rad_closed_form(
    x: TxGrid, beta: float, sigma_r2: float,
    geom: ArrayGeometry | None = None, angle_deg: float = 0.0,
) -> float:
    """Predicted peak-to-offpeak power ratio, linear: β²(N_c−1)·Σ|a^Hx|²/σ_r²."""
    g = geom if geom is not None else ArrayGeometry(n_tx=x.n_tx)
    gain = broadside_gain(x, g, angle_deg)
    if sigma_r2 == 0.0:
        return math.inf if beta != 0.0 and gain > 0.0 else 0.0
    return beta**2 * (x.n_subcarriers - 1) * gain / sigma_r2


def range_profile(
    obs: RadarObservation,
    x: TxGrid,
    geom: ArrayGeometry | None = None,
    angle_deg: float = 0.0,
) -> RangeProfile:
    """Correlate the capture with the known waveform and locate the peak.

    The matched filter multiplies y by the conjugate steered waveform and
    DFTs across subcarriers; a target at delay n0 lands on bin n0. SNR is
    the peak power over the average off-peak power. Ties in the peak search
    resolve to the lowest bin.
    """
    g = geom if geom is not None else ArrayGeometry(n_tx=x.n_tx)
    c = steered_projection(x, g, angle_deg)
    spectrum = np.fft.fft(obs.y_r * np.conj(c))
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

    if obs.beta == 0.0:
        bound = math.inf
    else:
        bound = _delay_crb(_k2_sum(np.abs(c) ** 2), c.shape[0], obs.beta, obs.sigma_r2)
    return RangeProfile(
        magnitudes=mags, peak_bin=peak, snr_rad_db=snr_db, crb_bins2=bound
    )


def bins_to_meters(bins: float, bandwidth_hz: float = 100e6) -> float:
    """Range-bin index to one-way distance: bin · c/(2B)."""
    return bins * 299792458.0 / (2.0 * bandwidth_hz)


def write_range_profile_csv(profile: RangeProfile, path: str) -> None:
    """Dump (bin, magnitude_db) rows; zero magnitudes serialize as -inf."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin,magnitude_db\n")
        for n, mag in enumerate(profile.magnitudes):
            db = 20.0 * math.log10(mag) if mag > 0.0 else -math.inf
            fh.write(f"{n},{db:.6f}\n")
