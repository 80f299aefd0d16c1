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
from collections.abc import Callable, Sequence

import numpy as np

from .core import ArrayGeometry, RngStream, steering_vector
from .precoders import PrecoderSet


class UndefinedProfileError(ValueError):
    """The matched-filter output is identically zero, so no peak exists."""


# Stream id reserved for the clutter grid so captures that share a root seed
# see the same clutter no matter which noise streams they use.
_CLUTTER_STREAM_ID = 0x7FFFFFFF

# The sensing stream is a fixed pseudo-random BPSK pattern; users are assumed
# to know it, so it must not change between calls.
_SENSING_SYMBOL_SEED = 0x5EED


# monte_carlo stacks this many trials per call: enough to amortize numpy's
# per-call cost, few enough to keep the stacked temporaries small.
_TRIAL_CHUNK = 8


def sensing_symbols(n_subcarriers: int) -> np.ndarray:
    """The fixed unit-energy BPSK pattern carried by the sensing stream."""
    gen = np.random.default_rng(_SENSING_SYMBOL_SEED)
    return 2.0 * gen.integers(0, 2, size=n_subcarriers).astype(float) - 1.0


# The QPSK constellation exp(j(pi/4 + pi/2 q)) for quadrants q = 0..3;
# indexing it gives the same symbols as evaluating the exponential per draw.
_QPSK = np.exp(1j * (np.pi / 4.0 + np.pi / 2.0 * np.arange(4)))


def synthesize_tx(pset: PrecoderSet, rngs: Sequence[RngStream]) -> np.ndarray:
    """Draw one OFDM symbol's worth of data per trial and superpose the streams.

    Trial t draws from ``rngs[t]``. Returns the transmit grids x, shape
    (trials, n_subcarriers, n_tx). Data streams carry random QPSK symbols
    (exactly unit energy). The sensing stream always carries the fixed
    BPSK pattern from :func:`sensing_symbols`. Streams whose precoders are
    zero contribute nothing, symbols included.
    """
    nc = pset.p_c.shape[0]
    gens = [rng.generator() for rng in rngs]
    x = np.zeros((len(rngs), *pset.p_c.shape), dtype=pset.p_c.dtype)
    rows = np.empty((len(rngs), nc), dtype=np.intp)
    for p in (pset.p_c, pset.p_1, pset.p_2):
        if np.any(p):
            # Row q*N_c + k of the table is p[k]·QPSK[q]: the symbol the
            # quadrant q drawn for subcarrier k picks, times its precoder.
            for t, gen in enumerate(gens):
                rows[t] = gen.integers(0, 4, size=nc)
            rows *= nc
            rows += np.arange(nc)
            x += (p * _QPSK[:, None, None]).reshape(4 * nc, -1).take(rows, axis=0)
    if np.any(pset.p_r):
        x += pset.p_r * sensing_symbols(nc)[:, None]
    return x


def steered_projection(x: np.ndarray, geom: ArrayGeometry, angle_deg: float) -> np.ndarray:
    """Per-subcarrier complex amplitude c[k] = a^H x[k], leading trial axes kept."""
    a = steering_vector(geom, angle_deg)
    return np.einsum("t,...kt->...k", np.conj(a), x)


def expected_steered_power(
    pset: PrecoderSet, geom: ArrayGeometry, angle_deg: float
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
    rngs: Sequence[RngStream],
) -> np.ndarray:
    """Simulate receive captures y of the steered waveforms c, (trials, N_c), echoed at n0.

    The echo is beta times c with a per-subcarrier phase ramp. Trial t
    draws white noise of total energy ``sigma_r2`` from ``rngs[t]``.
    """
    nc = c.shape[-1]
    if not 0 <= n0 < nc:
        raise ValueError(f"n0 must lie in [0, {nc}), got {n0}")
    if c.shape != (len(rngs), nc):
        raise ValueError(f"need one stream key per row of c, got {len(rngs)} for {c.shape}")
    y = beta * c
    y *= np.exp(2j * np.pi * n0 * np.arange(nc) / nc)
    scale = math.sqrt(sigma_r2 / (2.0 * nc)) if sigma_r2 > 0 else 0.0
    noise = np.zeros((len(rngs), nc, 2))
    if scale:
        for t, rng in enumerate(rngs):
            noise[t] = rng.generator().normal(scale=scale, size=(nc, 2))
    y += noise[..., 0]
    y += 1j * noise[..., 1]
    return y


def two_stage_capture(
    c: np.ndarray,
    n0: int,
    beta: float,
    sigma_r2: float,
    rngs_with: Sequence[RngStream],
    rngs_without: Sequence[RngStream],
) -> np.ndarray:
    """Capture each trial's waveform with and without the target and subtract.

    Trial t captures with ``rngs_with[t]`` and ``rngs_without[t]``. All
    captures share a root seed and use distinct stream ids (independent
    noise). Both captures of a trial see clutter of 10x its echo energy
    on one unit grid, drawn once per call from the root seed alone. Clutter
    cancels exactly; the difference carries noise of energy 2·sigma_r2.
    """
    keys = [*rngs_with, *rngs_without]
    if any(rng.seed != keys[0].seed for rng in keys):
        raise ValueError("captures need the same root seed to share clutter")
    if len({rng.stream_id for rng in keys}) != len(keys):
        raise ValueError("captures need distinct stream ids for independent noise")
    nc = c.shape[-1]
    z = np.random.default_rng((keys[0].seed, _CLUTTER_STREAM_ID)).normal(
        scale=math.sqrt(0.5), size=(nc, 2)
    )
    energy = 10.0 * float(beta**2) * np.sum(np.abs(c) ** 2, axis=-1)
    clutter = np.sqrt(energy / nc)[:, None] * (z[:, 0] + 1j * z[:, 1])
    y = radar_return(c, n0, beta, sigma_r2, rngs_with)
    y += clutter
    without = radar_return(c, n0, 0.0, sigma_r2, rngs_without)
    without += clutter
    y -= without
    return y


def _delay_fisher(weighted, nc: int, beta: float, sigma_r2: float) -> np.ndarray:
    """Fisher information for the delay in bins, from sum_k k^2 |c_k|^2.

    Per-subcarrier noise variance is sigma_r2/N_c, so the information is
    8 pi^2 beta^2 sum_k k^2 |c_k|^2 / (sigma_r2 N_c). ``weighted`` may be
    an array; an entry with no energy on k > 0 (weighted <= 0) carries
    no delay information, 0.
    """
    weighted = np.asarray(weighted, dtype=float)
    if beta == 0.0:
        info = np.zeros_like(weighted)
    elif sigma_r2 == 0.0:
        info = np.full_like(weighted, math.inf)
    else:
        # Information past the float range is infinite, a CRB of 0.
        with np.errstate(over="ignore"):
            info = 8.0 * math.pi**2 * beta**2 * weighted / (sigma_r2 * nc)
    return np.where(weighted <= 0.0, 0.0, info)


def _delay_crb(weighted, nc: int, beta: float, sigma_r2: float) -> np.ndarray:
    """The inverse of :func:`_delay_fisher`: no information gives inf, infinite gives 0."""
    with np.errstate(divide="ignore"):
        return 1.0 / _delay_fisher(weighted, nc, beta, sigma_r2)


def _k2_sum(power_per_k: np.ndarray) -> np.ndarray:
    """The delay-weighted energy sum_k k^2 |c_k|^2 of a per-subcarrier power.

    Subcarriers are the last axis; leading batch axes are kept.
    """
    return np.sum(np.arange(power_per_k.shape[-1]) ** 2 * power_per_k, axis=-1)


def expected_sensing(
    pset: PrecoderSet, geom: ArrayGeometry, angle_deg: float, beta: float, sigma_r2: float
) -> tuple[np.ndarray, np.ndarray]:
    """The sensing numbers of precoders: g0 and the delay CRB in bins².

    g0 is the symbol-averaged energy radiated toward ``angle_deg``, the
    sum over subcarriers of :func:`expected_steered_power`; the CRB comes
    from its k²-weighted sum. Both keep the precoders' batch shape, and
    every entry of a batch equals what its own point gives, bit for bit.
    """
    power = expected_steered_power(pset, geom, angle_deg)
    nc = power.shape[-1]
    return np.sum(power, axis=-1), _delay_crb(_k2_sum(power), nc, beta, sigma_r2)


def snr_rad_closed_form(c: np.ndarray, beta: float, sigma_r2: float) -> float:
    """Predicted peak-to-offpeak power ratio, linear: β²(N_c−1)·Σ|c|²/σ_r²."""
    gain = float(np.sum(np.abs(c) ** 2))
    if sigma_r2 == 0.0:
        return math.inf if beta != 0.0 and gain > 0.0 else 0.0
    return beta**2 * (c.shape[0] - 1) * gain / sigma_r2


# Powers past the float range would read as an infinite SNR; fail instead.
@np.errstate(over="raise")
def range_profile(y: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Correlate each capture y with its steered waveform c, both (trials, N_c).

    The matched filter multiplies y by conj(c) and DFTs across subcarriers;
    a target at delay n0 lands on bin n0. SNR is the peak power over the
    average off-peak power. Returns ``(peak_bin, snr_rad_db)``, each of
    shape (trials,). Ties in the peak search resolve to the lowest bin.
    """
    mags = np.abs(np.fft.fft(y * np.conj(c), axis=-1))
    if not np.all(np.any(mags > 0.0, axis=-1)):
        raise UndefinedProfileError(
            "matched-filter output is identically zero; no energy toward the target"
        )
    peak = np.argmax(mags, axis=-1)
    trials, nc = mags.shape
    off_peak = mags[np.arange(nc) != peak[:, None]].reshape(trials, nc - 1)
    denom = np.mean(off_peak**2, axis=-1)
    # The SNR stays scalar math per trial: a numpy scalar's ** and math.log10
    # round differently from their array forms on some inputs.
    snr_db = []
    for m, d in zip(mags[np.arange(trials), peak], denom.tolist()):
        snr = math.inf if d == 0.0 else float(m**2) / d
        snr_db.append(10.0 * math.log10(snr) if math.isfinite(snr) else math.inf)
    return peak, np.array(snr_db)


def monte_carlo(
    pset: PrecoderSet,
    geom: ArrayGeometry,
    angle_deg: float,
    seed: int,
    streams: Sequence[Sequence[int]],
    capture: Callable[..., np.ndarray],
) -> tuple[list[int], float]:
    """Peak bins and summed linear SNR of seeded end-to-end radar trials.

    Trial t draws its waveform from stream ``streams[t][0]``. Its other
    ids are for the capture: ``capture(c, *rngs)`` gets the steered
    waveforms c and one list of keys per further id (``rngs[0][t]`` keys
    ``streams[t][1]``), and returns the captures y. The trials run
    ``_TRIAL_CHUNK`` at a time, and their SNRs are added one at a time as
    scalar math, in trial order. The precoders are copied to C order once
    per call: ``synthesize_tx`` reshapes each chunk's symbol table in that
    order, which a subcarrier-innermost grid would make copy per chunk.
    """
    pset = PrecoderSet(
        *(np.ascontiguousarray(p) for p in (pset.p_c, pset.p_1, pset.p_2, pset.p_r))
    )
    peaks: list[int] = []
    total = 0.0
    for lo in range(0, len(streams), _TRIAL_CHUNK):
        tx, *rngs = zip(*(
            [RngStream(seed, s) for s in ids] for ids in streams[lo:lo + _TRIAL_CHUNK]
        ))
        x = synthesize_tx(pset, tx)
        c = steered_projection(x, geom, angle_deg)
        del x  # each stack goes once the next stage has consumed it
        y = capture(c, *rngs)
        peak_bin, snr_rad_db = range_profile(y, c)
        del c, y
        peaks += peak_bin.tolist()
        for snr_db in snr_rad_db.tolist():
            total += 10.0 ** (snr_db / 10.0)
    return peaks, total
