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
from collections.abc import Callable, Hashable, Sequence

import numpy as np

from .core import WORKSPACE, ChannelSet, RngStream, ScenarioConfig, stream_states
from .precoders import PrecoderSet


class UndefinedProfileError(ValueError):
    """The matched-filter output is identically zero, so no peak exists."""


# Stream id reserved for the clutter grid so captures that share a root seed
# see the same clutter no matter which noise streams they use.
_CLUTTER_STREAM_ID = 0x7FFFFFFF

# The sensing stream is a fixed pseudo-random BPSK pattern; users are assumed
# to know it, so it must not change between calls.
_SENSING_SYMBOL_SEED = 0x5EED


# monte_carlo stacks as many trials as keep a transmit stack x (trials x
# N_c x N_T) within this many entries: 32 trials at N_c = 512 and N_T = 2,
# enough to amortize numpy's per-call cost, few enough to keep the
# resident stacks (``core.Workspace``) near 2 MB.
_STACK_ENTRIES = 2**15


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


# 10**k for k = 0..22, each exact as a double.
_POW10 = np.array([float(10**k) for k in range(23)])


def _round_sig_column(values: np.ndarray) -> np.ndarray:
    """:func:`round_sig` of every entry, bit for bit, by array arithmetic.

    An entry v of magnitude in [1e-11, 1e11) is scaled by the exact power
    10**k, k = 11 - floor(log10|v|), that puts its 12 significant digits
    before the point: p = |v|·10**k in [1e11, 1e12). Then rint(p) / 10**k,
    one correctly rounded division of exact operands, is the double
    nearest the 12-digit decimal, which is what round_sig's format and
    parse give. p is the exact product rounded, and rounding never
    carries a value across a half-integer, which is a double there; so
    rint(p) rounds the exact product unless p lands on one. Such an entry
    goes through round_sig itself, and so does every entry outside the
    range or whose p falls outside [1e11, 1e12) (log10 off by one next
    to a power of ten): zeros, infinities and NaN among them.
    """
    v = np.ravel(values)
    mag = np.abs(v)
    inside = (1e-11 <= mag) & (mag < 1e11)
    mag = np.where(inside, mag, 1.0)
    power = _POW10[11 - np.floor(np.log10(mag)).astype(int)]
    p = mag * power
    exact = inside & (1e11 <= p) & (p < 1e12) & (p - np.floor(p) != 0.5)
    rounded = np.copysign(np.rint(p) / power, v)
    rest = np.flatnonzero(~exact)
    if rest.size:
        rounded[rest] = [round_sig(x) for x in v[rest].tolist()]
    return rounded.reshape(np.shape(values))


def sensing_symbols(n_subcarriers: int) -> np.ndarray:
    """The fixed unit-energy BPSK pattern carried by the sensing stream."""
    gen = np.random.default_rng(_SENSING_SYMBOL_SEED)
    return 2.0 * gen.integers(0, 2, size=n_subcarriers).astype(float) - 1.0


# The QPSK constellation exp(j(pi/4 + pi/2 q)) for quadrants q = 0..3;
# indexing it gives the same symbols as evaluating the exponential per draw.
_QPSK = np.exp(1j * (np.pi / 4.0 + np.pi / 2.0 * np.arange(4)))


def _quadrants(rngs: Sequence, out: np.ndarray, resident: bool) -> np.ndarray:
    """Each key's QPSK quadrants into ``out``, (keys, ...): row t holds what
    ``rngs[t].generator().integers(0, 4, size=out.shape[1:])`` draws.

    For a range of 4, Lemire's method behind ``integers`` keeps the top two
    bits of each 32-bit draw and rejects none, and PCG64 draws 32 bits as
    the low half of a 64-bit word, then its high half. So each key takes
    its words raw, and one shift over the stack splits them; an odd count
    leaves a half word that its stream, drawn in this one stage, never
    uses. The words sit in stack slot 3 until c takes it.
    """
    n = math.prod(out.shape[1:])
    words = WORKSPACE.array(resident, 3, (len(rngs), (n + 1) // 2), np.uint64)
    for t, rng in enumerate(rngs):
        words[t] = rng.generator().bit_generator.random_raw(words.shape[1])
    # Little-endian words split into (low, high) halves on any host.
    halves = words.astype("<u8", copy=False).view("<u4")[:, :n]
    return np.right_shift(halves.reshape(out.shape), 30, out=out)


def _noise(rngs: Sequence, scale: float, out: np.ndarray) -> np.ndarray:
    """Each key's white noise into ``out``, (keys, N_c, 2): row t holds what
    ``rngs[t].generator().normal(scale=scale, size=(N_c, 2))`` draws.

    ``normal`` returns 0.0 + scale·z per standard normal z; scaling the
    stack once gives scale·z, which differs from it only where it is an
    exact zero, by the sign. A zero scale draws nothing.
    """
    if not scale:
        out.fill(0.0)
        return out
    for t, rng in enumerate(rngs):
        rng.generator().standard_normal(out=out[t])
    out *= scale
    return out


class _CallStream:
    """The stream (seed, stream_id) of a ``monte_carlo`` call, seeded ahead.

    ``generator()`` moves the Generator that every stream of the call
    shares to this stream's start and returns it, so it draws what
    ``RngStream(seed, stream_id).generator()`` draws until the next stream
    of the call asks for it. Each chain stage takes all of one trial's
    draws from its stream before it turns to the next trial, so the
    stages never need two streams at once. ``shared`` is the call's store
    of what the stages compute from its fixed inputs (see ``_per_call``).
    ``column`` is the stream's place in its trial's ids; a capture of
    column j goes in stack slot 3 + j (see ``core.Workspace``).
    """

    __slots__ = ("seed", "stream_id", "_state", "_gen", "shared", "column")

    def __init__(self, seed: int, stream_id: int, start: tuple[int, int],
                 gen: np.random.Generator, shared: dict, column: int) -> None:
        self.seed, self.stream_id = seed, stream_id
        state, inc = start
        self._state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0}
        self._gen = gen
        self.shared = shared
        self.column = column

    def generator(self) -> np.random.Generator:
        self._gen.bit_generator.state = self._state
        return self._gen


def _call_store(rngs: Sequence) -> dict | None:
    """The ``monte_carlo`` call's store that stream keys carry, or None."""
    return getattr(rngs[0], "shared", None) if len(rngs) else None


def _per_call(rngs: Sequence, key: Hashable, compute: Callable[[], object]):
    """``compute()``, computed once per ``monte_carlo`` call.

    ``rngs`` are a stage's stream keys. Those of a ``monte_carlo`` call
    share one store, and within a call the precoders, the seed and the
    capture are fixed, so the value the first chunk computes under ``key``
    serves every later chunk. Other keys (``RngStream``) compute it anew.
    """
    shared = _call_store(rngs)
    if shared is None:
        return compute()
    if key not in shared:
        shared[key] = compute()
    return shared[key]


def _tx_terms(pset: PrecoderSet) -> tuple[list[np.ndarray], np.ndarray | None]:
    """The powered data streams' symbol tables and the sensing stream's grid.

    Row q*N_c + k of a stream's table is p[k]·QPSK[q]: the symbol the
    quadrant q drawn for subcarrier k picks, times its precoder. The
    sensing grid is None when that stream carries no power.
    """
    nc = pset.p_c.shape[0]
    tables = [(p * _QPSK[:, None, None]).reshape(4 * nc, -1)
              for p in (pset.p_c, pset.p_1, pset.p_2) if np.any(p)]
    sensing = pset.p_r * sensing_symbols(nc)[:, None] if np.any(pset.p_r) else None
    return tables, sensing


def synthesize_tx(pset: PrecoderSet, rngs: Sequence[RngStream]) -> np.ndarray:
    """Draw one OFDM symbol's worth of data per trial and superpose the streams.

    Trial t draws from ``rngs[t]``: the QPSK quadrants of its powered data
    streams, common, 1 and 2 in that order. Returns the transmit grids x,
    shape (trials, n_subcarriers, n_tx). Data symbols are exactly unit
    energy. The sensing stream always carries the fixed BPSK pattern from
    :func:`sensing_symbols`. Streams whose precoders are zero contribute
    nothing, symbols included.
    """
    nc = pset.p_c.shape[0]
    tables, sensing = _per_call(rngs, "tx", lambda: _tx_terms(pset))
    resident = _call_store(rngs) is not None
    x = WORKSPACE.array(resident, 0, (len(rngs), *pset.p_c.shape), pset.p_c.dtype)
    if tables:
        rows = WORKSPACE.array(resident, 2, (len(tables), len(rngs), nc), np.intp)
        _quadrants(rngs, rows.transpose(1, 0, 2), resident)
        rows *= nc
        rows += np.arange(nc)
        # The rows lie in range by construction; "clip" lets take() write
        # straight into ``out``, where "raise" copies through a buffer of
        # its own. The first stream's symbols are x's start.
        tables[0].take(rows[0], axis=0, out=x, mode="clip")
        symbols = WORKSPACE.array(resident, 1, x.shape, x.dtype)
        for table, stream_rows in zip(tables[1:], rows[1:]):
            x += table.take(stream_rows, axis=0, out=symbols, mode="clip")
    else:
        x.fill(0)
    if sensing is not None:
        x += sensing
    return x


def steered_projection(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Per-subcarrier complex amplitude c[k] = a^H x[k], leading trial axes kept."""
    out = WORKSPACE.array(WORKSPACE.holds(0, x), 3, x.shape[:-1], np.result_type(a, x))
    return np.einsum("t,...kt->...k", np.conj(a), x, out=out)


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
    resident = WORKSPACE.holds(3, c)
    # Each key list of a stack captures into its own stack (see core.Workspace).
    slot = 3 + rngs[0].column if resident else 0
    y = np.multiply(beta, c, out=WORKSPACE.array(resident, slot, c.shape, complex))
    y *= _per_call(rngs, ("ramp", n0), lambda: np.exp(2j * np.pi * n0 * np.arange(nc) / nc))
    scale = math.sqrt(sigma_r2 / (2.0 * nc)) if sigma_r2 > 0 else 0.0
    noise = _noise(rngs, scale, WORKSPACE.array(resident, 0, (len(rngs), nc, 2), float))
    # Each (real, imaginary) pair of draws is one complex noise sample.
    y += noise.view(complex)[..., 0]
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
    on one unit grid, drawn from the root seed alone, once per call (once
    per ``monte_carlo`` call for its keys). Clutter cancels exactly; the
    difference carries noise of energy 2·sigma_r2.
    """
    keys = [*rngs_with, *rngs_without]
    if any(rng.seed != keys[0].seed for rng in keys):
        raise ValueError("captures need the same root seed to share clutter")
    if len({rng.stream_id for rng in keys}) != len(keys):
        raise ValueError("captures need distinct stream ids for independent noise")
    nc = c.shape[-1]

    def unit_grid() -> np.ndarray:
        z = RngStream(keys[0].seed, _CLUTTER_STREAM_ID).generator().normal(
            scale=math.sqrt(0.5), size=(nc, 2))
        return z[:, 0] + 1j * z[:, 1]

    resident = WORKSPACE.holds(3, c)
    power = np.abs(c, out=WORKSPACE.array(resident, 1, c.shape, float))
    energy = 10.0 * float(beta**2) * np.sum(np.square(power, out=power), axis=-1)
    clutter = np.multiply(np.sqrt(energy / nc)[:, None], _per_call(keys, "clutter", unit_grid),
                          out=WORKSPACE.array(resident, 2, c.shape, complex))
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
    """The inverse of :func:`_delay_fisher`: no information gives inf, infinite gives 0,
    and so does information too small for its inverse to be a float."""
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / _delay_fisher(weighted, nc, beta, sigma_r2)


def expected_sensing(
    target: tuple[np.ndarray, ...], cfg: ScenarioConfig
) -> tuple[np.ndarray, np.ndarray]:
    """g0 and the delay CRB in bins² from ``throughput.stream_gains``' target row.

    The streams carry independent zero-mean unit-energy symbols, so the
    symbol-averaged power toward the target is the sum of the row, added
    in the order common, 1, 2, sensing: every entry of a batch equals what
    its own point gives, bit for bit. g0 is that power summed over
    subcarriers and rounded to 12 significant digits (:func:`round_sig`,
    applied as a column) so that points equal on paper tie exactly; the
    CRB comes from its k²-weighted sum. Both keep the precoders' batch shape.
    """
    common, private_1, private_2, sensing = target
    # The power is one grid in resident buffer 0 (core.Workspace): summed
    # for g0 first, then weighted by k² in place for sum_k k² |c_k|².
    shape = np.broadcast(common, private_1).shape
    power = np.add(common, private_1, out=WORKSPACE.array(True, 0, shape, float))
    power += private_2
    power += sensing
    g0 = np.sum(power, axis=-1)
    nc = power.shape[-1]
    power *= np.arange(nc, dtype=float) ** 2
    crb = _delay_crb(np.sum(power, axis=-1), nc, cfg.target_attenuation, cfg.noise_power_radar)
    return _round_sig_column(g0), crb


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
    resident = WORKSPACE.holds(3, c)
    product = np.multiply(y, np.conj(c, out=WORKSPACE.array(resident, 0, c.shape, complex)),
                          out=WORKSPACE.array(resident, 1, c.shape, complex))
    spectrum = np.fft.fft(product, axis=-1, out=WORKSPACE.array(resident, 0, c.shape, complex))
    mags = np.abs(spectrum, out=WORKSPACE.array(resident, 1, c.shape, float))
    if not np.all(np.any(mags > 0.0, axis=-1)):
        raise UndefinedProfileError(
            "matched-filter output is identically zero; no energy toward the target"
        )
    peak = np.argmax(mags, axis=-1)
    trials, nc = mags.shape
    off_peak = WORKSPACE.array(resident, 2, (trials, nc - 1), float)
    # Each row without its peak bin: the bins below it, then those above it.
    np.copyto(off_peak, mags[:, :-1])
    np.copyto(off_peak, mags[:, 1:], where=np.arange(nc - 1) >= peak[:, None])
    denom = np.mean(np.square(off_peak, out=off_peak), axis=-1)
    # The SNR stays scalar math per trial: a numpy scalar's ** and math.log10
    # round differently from their array forms on some inputs.
    snr_db = []
    for m, d in zip(mags[np.arange(trials), peak], denom.tolist()):
        snr = math.inf if d == 0.0 else float(m**2) / d
        snr_db.append(10.0 * math.log10(snr) if math.isfinite(snr) else math.inf)
    return peak, np.array(snr_db)


def monte_carlo(
    channels: ChannelSet,
    pset: PrecoderSet,
    cfg: ScenarioConfig,
    streams: Sequence[Sequence[int]],
    capture: Callable[..., np.ndarray],
) -> tuple[list[int], float]:
    """Peak bins and mean SNR in dB of seeded end-to-end radar trials.

    Every stream is keyed by ``cfg.seed``, and the waveforms are steered
    along ``channels.target_steering``. Trial t draws its waveform from
    stream ``streams[t][0]``. Its other ids are for the capture:
    ``capture(c, *rngs)`` gets the steered waveforms c and one list of
    keys per further id (``rngs[0][t]`` keys ``streams[t][1]``), and
    returns the captures y. The trials run in stacks of as many as keep
    the stack of transmit grids within ``_STACK_ENTRIES`` entries; their
    linear SNRs are added one at a time as scalar math, in trial order,
    and the dB of the sum over the trial count is returned. No trials,
    trials with unequal numbers of ids, or an id used twice in the call
    raise ``ValueError``.

    Every stream's start is computed in one pass (``stream_states``) and
    all of them draw through one Generator (``_CallStream``). What the
    stages compute from the call's fixed inputs (the symbol tables, the
    sensing grid, the delay ramp, the clutter grid) is computed by the
    first stack and kept for the rest. The stages write each stack into
    the calling thread's resident buffers (``core.Workspace``), which the
    next stack overwrites: ``capture`` must not keep c or what the stages
    return to it, and when it hands the stages c it must hand them its
    own key lists, each once, since the captures of one list share a
    buffer.
    """
    if not streams:
        raise ValueError("monte_carlo needs at least one trial")
    if len({len(trial) for trial in streams}) != 1:
        raise ValueError(
            "every trial of a monte_carlo call needs the same number of stream ids"
        )
    ids = [s for trial in streams for s in trial]
    if len(set(ids)) != len(ids):
        raise ValueError("the stream ids of a monte_carlo call must be distinct")
    starts = iter(stream_states(cfg.seed, ids))
    # The Generator's own seed is never drawn from: each stream sets its state.
    gen, shared = np.random.default_rng(0), {}
    trials = [[_CallStream(cfg.seed, s, next(starts), gen, shared, column)
               for column, s in enumerate(trial)] for trial in streams]
    per_stack = max(1, _STACK_ENTRIES // pset.p_c.size)
    peaks: list[int] = []
    total = 0.0
    for lo in range(0, len(trials), per_stack):
        tx, *rngs = zip(*trials[lo:lo + per_stack])
        c = steered_projection(synthesize_tx(pset, tx), channels.target_steering)
        peak_bin, snr_rad_db = range_profile(capture(c, *rngs), c)
        peaks += peak_bin.tolist()
        for snr_db in snr_rad_db.tolist():
            total += 10.0 ** (snr_db / 10.0)
    return peaks, 10.0 * math.log10(total / len(streams))
