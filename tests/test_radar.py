"""OFDM radar chain: waveform synthesis, echo model, matched filter, CRB.

The chain's stages take a leading trial axis; most tests run one trial,
a stack of shape (1, N_c).
"""

import dataclasses
import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rsma_isac import (
    ArrayGeometry,
    ParameterPoint,
    RngStream,
    build_precoders,
    generate_channels,
    scenario_preset,
    stream_gains,
    synthesize_tx,
)
from rsma_isac import radar
from rsma_isac.core import steering_vector, stream_states
from rsma_isac.precoders import DegenerateDirectionError, PrecoderSet, RankDeficientChannelError
from rsma_isac.radar import (
    _CLUTTER_STREAM_ID,
    UndefinedProfileError,
    _delay_crb,
    _delay_fisher,
    _round_sig_column,
    expected_sensing,
    monte_carlo,
    radar_return,
    range_profile,
    round_sig,
    sensing_symbols,
    snr_rad_closed_form,
    steered_projection,
    two_stage_capture,
)

_GEOM = ArrayGeometry(2, 0.5)


def _k2_sum(power_per_k):
    """The delay-weighted energy sum_k k^2 |c_k|^2 of a per-subcarrier power,
    subcarriers last, as radar computed it before ``expected_sensing``
    weighted its power grid in place."""
    return np.sum(np.arange(power_per_k.shape[-1], dtype=float) ** 2 * power_per_k, axis=-1)


# Trials per monte_carlo stack in the tests that shrink the stacks, so that
# a few trials span several stacks.
_PER_STACK = 8


def _stack_entries(nc, per_stack=_PER_STACK):
    """The ``_STACK_ENTRIES`` that stacks ``per_stack`` trials at N_c = nc on ``_GEOM``."""
    return per_stack * nc * _GEOM.n_tx


def _sensing_only(make_channels, nc=64):
    cfg, channels = make_channels(n_subcarriers=nc)
    pset = build_precoders(ParameterPoint(0.0, 1.0, 1.0, 1.0, "MRT"), channels, cfg)
    return cfg, pset


def _steered(pset, rng):
    """The broadside steered waveform c of one synthesized symbol, shape (1, N_c)."""
    return steered_projection(synthesize_tx(pset, [rng]), steering_vector(_GEOM, 0.0))


def _gain(c):
    """Energy radiated toward the sensed direction, sum_k |c_k|^2."""
    return float(np.sum(np.abs(c) ** 2))


def _k2(c):
    """The delay-weighted energy sum_k k^2 |c_k|^2 of one trial's waveform."""
    return _k2_sum(np.abs(c[0]) ** 2)


def _sweep_chain(channels, pset, cfg, trials):
    """An SNR sweep point's Monte Carlo run: trial t uses streams 2t and 2t + 1."""
    def capture(c, noise):
        return radar_return(
            c, cfg.target_delay_bins, cfg.target_attenuation, cfg.noise_power_radar, noise
        )

    streams = [(2 * t, 2 * t + 1) for t in range(trials)]
    return monte_carlo(channels, pset, cfg, streams, capture)


def _heatmap_chain(channels, pset, cfg, n0, beta, trials):
    """A heatmap cell's Monte Carlo run: trial t uses streams s, s + 1, s + 2, s = 1 + 3t."""
    def capture(c, with_target, without):
        return two_stage_capture(c, n0, beta, cfg.noise_power_radar, with_target, without)

    streams = [(s, s + 1, s + 2) for s in range(1, 1 + 3 * trials, 3)]
    return monte_carlo(channels, pset, cfg, streams, capture)


def _dft_magnitudes(y, c):
    """|DFT of y·conj(c)| of each row, (trials, N_c): the matched-filter output."""
    return np.abs(np.fft.fft(y * np.conj(c), axis=-1))


def _assert_scores(peak_bin, snr_rad_db, mags):
    """Each row's peak is its first maximum and its SNR the peak over the off-peak power."""
    peaks = np.argmax(mags, axis=-1)
    assert peak_bin.tolist() == peaks.tolist()
    for row, peak, snr_db in zip(mags, peaks.tolist(), snr_rad_db.tolist()):
        denom = float(np.mean(np.delete(row, peak) ** 2))
        snr = math.inf if denom == 0.0 else float(row[peak] ** 2) / denom
        expect = 10.0 * math.log10(snr) if math.isfinite(snr) else math.inf
        assert snr_db == pytest.approx(expect, rel=1e-12)


def test_sensing_symbols_fixed_bpsk():
    s = sensing_symbols(64)
    assert s.shape == (64,)
    assert set(np.unique(s)) <= {-1.0, 1.0}
    assert np.array_equal(s, sensing_symbols(64))
    assert np.array_equal(s[:16], sensing_symbols(16))


def test_synthesize_sensing_only_is_deterministic(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=8)
    x = synthesize_tx(pset, [RngStream(cfg.seed, 50)])
    expect = pset.p_r * sensing_symbols(8)[:, None]
    assert np.array_equal(x, expect[None])
    # every subcarrier radiates total_power*n_tx/nc toward broadside
    per_k = np.abs(steered_projection(x, steering_vector(_GEOM, 0.0))) ** 2
    assert np.allclose(per_k, cfg.total_power * 2 / 8, rtol=1e-12)


def test_synthesize_zero_precoders_zero_signal():
    z = np.zeros((8, 2), dtype=complex)
    x = synthesize_tx(PrecoderSet(z, z, z, z), [RngStream(0, 0)])
    assert not np.any(x)
    assert x.shape == (1, 8, 2)


def test_symbol_statistics():
    col = np.ones((10000, 1), dtype=complex)
    zeros = np.zeros_like(col)
    pset = PrecoderSet(col, zeros, zeros, zeros)
    qpsk = synthesize_tx(pset, [RngStream(11, 0)])[0, :, 0]
    assert np.max(np.abs(np.abs(qpsk) - 1.0)) < 1e-12


def test_broadside_gain_matches_loop(make_channels):
    cfg, channels = make_channels(n_subcarriers=8)
    pset = build_precoders(ParameterPoint(0.7, 0.5, 0.4, 0.6, "MRT"), channels, cfg)
    x = synthesize_tx(pset, [RngStream(1, 1)])[0]
    a = np.ones(2, dtype=complex)  # broadside steering for a 2-element ULA
    total = sum(abs(np.vdot(a, x[k])) ** 2 for k in range(8))
    assert _gain(steered_projection(x, steering_vector(_GEOM, 0.0))) == pytest.approx(total, rel=1e-12)


def test_target_row_sums_streams(make_channels):
    cfg, channels = make_channels(n_subcarriers=8)
    pset = build_precoders(ParameterPoint(0.7, 0.5, 0.4, 0.6, "MRT"), channels, cfg)
    a = np.ones(2, dtype=complex)  # broadside, where the default target sits
    assert np.array_equal(channels.target_steering, steering_vector(_GEOM, 0.0))
    _, target = stream_gains(channels, pset)
    manual = np.zeros(8)
    for row, p in zip(target, (pset.p_c, pset.p_1, pset.p_2, pset.p_r)):
        per_stream = np.array([abs(np.vdot(a, p[k])) ** 2 for k in range(8)])
        assert np.allclose(row, per_stream, rtol=1e-12)
        manual += per_stream
    g0, _ = expected_sensing(target, cfg)
    assert g0 == pytest.approx(manual.sum(), rel=1e-11)


def test_sensing_helpers_on_a_stacked_batch_equal_per_point(make_channels):
    # Leading batch axes change nothing: each entry of a stacked batch is
    # bit for bit what its own point gives, zero streams included.
    cfg, channels = make_channels(n_subcarriers=16, csit_error_var=1e-3, target_angle_deg=10.0)
    points = [
        ParameterPoint(0.7, 0.5, 0.4, 0.6, "MRT"),
        ParameterPoint(0.0, 1.0, 1.0, 1.0, "MRT"),
        ParameterPoint(1.0, 0.0, 0.3, 1.0, "MRT"),
        ParameterPoint(0.5, 1.0, 1.0, 0.2, "ZF"),
    ]
    psets = [build_precoders(pp, channels, cfg) for pp in points]
    batch = PrecoderSet(
        *(np.stack([getattr(ps, name) for ps in psets]) for name in ("p_c", "p_1", "p_2", "p_r"))
    )
    _, target = stream_gains(channels, batch)
    g0, crb = expected_sensing(target, cfg)
    assert all(row.shape == (4, 16) for row in target) and g0.shape == crb.shape == (4,)
    for n, pset in enumerate(psets):
        _, single = stream_gains(channels, pset)
        assert all(np.array_equal(row[n], own) for row, own in zip(target, single))
        assert (g0[n], crb[n]) == expected_sensing(single, cfg)


@settings(deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    pairs=st.sampled_from([(), (1,), (3,)]),
    n_ac=st.integers(1, 4),
    n_ap=st.integers(1, 4),
    nc=st.integers(1, 70),
    point=st.booleans(),
    idle=st.sets(st.integers(0, 3), max_size=3),
)
def test_expected_sensing_weights_its_power_grid_in_place(
    seed, pairs, n_ac, n_ap, nc, point, idle
):
    # expected_sensing sums its power grid for g0, then weights the same
    # grid by k² in place: both sums are, bit for bit, the row's power
    # summed as the radar layer always did, and its k²-weighted sum as the
    # former _k2_sum gave it, over batch shapes of pairs × mixes and points.
    rng = np.random.default_rng(seed)
    shapes = [(nc,)] * 4 if point else [
        (*pairs, n_ac, 1, nc), (*pairs, 1, n_ap, nc), (*pairs, 1, n_ap, nc), (*pairs, 1, 1, nc)
    ]
    target = tuple(
        np.zeros(shape) if stream in idle
        else rng.random(shape) * 10.0 ** rng.integers(-6, 6, size=shape)
        for stream, shape in enumerate(shapes)
    )
    power = target[0] + target[1]
    power += target[2]
    power += target[3]
    cfg = scenario_preset("S1")
    seen = {}

    def record(name, fn):
        def wrapper(values, *args):
            seen[name] = np.array(values, copy=True)
            return fn(values, *args)
        return wrapper

    with mock.patch.object(radar, "_round_sig_column",
                           record("g0", radar._round_sig_column)), \
         mock.patch.object(radar, "_delay_crb", record("k2", radar._delay_crb)):
        g0, crb = expected_sensing(target, cfg)
    want_g0, want_k2 = np.sum(power, axis=-1), _k2_sum(power)
    assert seen["g0"].tobytes() == want_g0.tobytes()
    assert seen["k2"].tobytes() == want_k2.tobytes()
    assert g0.tobytes() == _round_sig_column(want_g0).tobytes()
    want_crb = _delay_crb(want_k2, nc, cfg.target_attenuation, cfg.noise_power_radar)
    assert crb.tobytes() == want_crb.tobytes()


def test_expected_equals_realized_for_sensing_only(make_channels):
    # the sensing stream carries fixed unit-modulus symbols, so the realized
    # steered energy equals its expectation exactly
    cfg, channels = make_channels(n_subcarriers=16)
    pset = build_precoders(ParameterPoint(0.0, 1.0, 1.0, 1.0, "MRT"), channels, cfg)
    c = _steered(pset, RngStream(2, 2))
    _, target = stream_gains(channels, pset)
    assert _gain(c) == pytest.approx(np.sum(sum(target)), rel=1e-12)


def test_radar_return_noiseless_zero_delay(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=8)
    c = _steered(pset, RngStream(0, 0))
    y = radar_return(c, 0, 1.0, 0.0, [RngStream(0, 1)])
    assert np.array_equal(y, c)


def test_radar_return_phase_ramp(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=8)
    c = _steered(pset, RngStream(0, 0))
    y = radar_return(c, 2, 0.5, 0.0, [RngStream(0, 1)])
    k = np.arange(8)
    assert np.allclose(y, 0.5 * c * np.exp(2j * np.pi * 2 * k / 8), atol=1e-15)


def test_radar_return_rejects_bad_delay(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=8)
    c = _steered(pset, RngStream(0, 0))
    for bad in (-1, 8, 100):
        with pytest.raises(ValueError, match="n0"):
            radar_return(c, bad, 0.5, 0.1, [RngStream(0, 1)])


def _record_clutter_draws(monkeypatch):
    """Collect the keys of every clutter-grid generator built from now on."""
    keys = []
    real = np.random.default_rng

    def spy(seed=None):
        if isinstance(seed, tuple) and seed[1] == _CLUTTER_STREAM_ID:
            keys.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", spy)
    return keys


def test_clutter_depends_only_on_root_seed(make_channels, monkeypatch):
    # the clutter generator is keyed by the root seed alone, so captures
    # with other stream ids see the same grid and another seed a new one
    cfg, pset = _sensing_only(make_channels, nc=16)
    c = _steered(pset, RngStream(0, 0))
    keys = _record_clutter_draws(monkeypatch)
    two_stage_capture(c, 3, 0.2, 0.0, [RngStream(9, 1)], [RngStream(9, 2)])
    two_stage_capture(c, 3, 0.2, 0.0, [RngStream(9, 5)], [RngStream(9, 6)])
    two_stage_capture(c, 3, 0.2, 0.0, [RngStream(10, 1)], [RngStream(10, 2)])
    assert keys == [(9, _CLUTTER_STREAM_ID), (9, _CLUTTER_STREAM_ID), (10, _CLUTTER_STREAM_ID)]


def test_clutter_drawn_once_per_capture_call(make_channels, monkeypatch):
    # a capture call draws the clutter once, and a heatmap cell of T trials,
    # whose capture runs once per stack of trials, draws it once in all
    # (twice per trial before the stacking, once per stack before that)
    monkeypatch.setattr(radar, "_STACK_ENTRIES", _stack_entries(16))
    cfg, channels = make_channels(n_subcarriers=16)
    pset = build_precoders(ParameterPoint(0.0, 1.0, 1.0, 1.0, "MRT"), channels, cfg)
    c = np.repeat(_steered(pset, RngStream(0, 0)), 3, axis=0)
    keys = _record_clutter_draws(monkeypatch)
    two_stage_capture(
        c, 3, 0.2, 0.01, [RngStream(4, t) for t in range(3)], [RngStream(4, 9 + t) for t in range(3)]
    )
    assert keys == [(4, _CLUTTER_STREAM_ID)]
    for trials in (1, _PER_STACK, 2 * _PER_STACK + 1):
        keys.clear()
        peaks, _ = _heatmap_chain(channels, pset, cfg, 3, 0.2, trials)
        assert len(peaks) == trials
        assert keys == [(cfg.seed, _CLUTTER_STREAM_ID)]


def test_monte_carlo_builds_no_generator_per_trial(make_channels, monkeypatch):
    # A call seeds its trials' streams in one pass, so the generators it
    # builds (the sensing pattern's and the clutter grid's among them) are
    # as many for one trial as for many stacks of them.
    monkeypatch.setattr(radar, "_STACK_ENTRIES", _stack_entries(16))
    cfg, channels = make_channels(n_subcarriers=16)
    pset = build_precoders(ParameterPoint(0.7, 0.5, 0.4, 0.6, "MRT"), channels, cfg)
    calls = []
    real = np.random.default_rng

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    for chain in (lambda t: _sweep_chain(channels, pset, cfg, t),
                  lambda t: _heatmap_chain(channels, pset, cfg, 3, 0.2, t)):
        counts = []
        for trials in (1, _PER_STACK, 2 * _PER_STACK + 1, 5 * _PER_STACK):
            calls.clear()
            chain(trials)
            counts.append(len(calls))
        assert len(set(counts)) == 1 and counts[0] <= 3, counts


def test_background_subtract_noiseless_recovers_echo(make_channels):
    # every trial of a stack carries its own clutter energy (10x its echo),
    # and each one cancels exactly between the two captures
    cfg, channels = make_channels(n_subcarriers=16)
    pset = build_precoders(ParameterPoint(0.7, 0.5, 0.4, 0.6, "MRT"), channels, cfg)
    c = steered_projection(
        synthesize_tx(pset, [RngStream(0, t) for t in range(3)]), steering_vector(_GEOM, 0.0)
    )
    beta = 0.3
    y = two_stage_capture(c, 4, beta, 0.0, [RngStream(9, 1), RngStream(9, 3), RngStream(9, 5)],
                          [RngStream(9, 2), RngStream(9, 4), RngStream(9, 6)])
    k = np.arange(16)
    echo = beta * c * np.exp(2j * np.pi * 4 * k / 16)
    for row in range(3):
        err = float(np.sum(np.abs(y[row] - echo[row]) ** 2))
        assert err <= 1e-12 * 10.0 * beta**2 * _gain(c[row])


def test_two_stage_noise_variance_doubles():
    c = np.ones((40, 512), dtype=complex)
    sigma = 0.04
    y = two_stage_capture(
        c, 3, 0.0, sigma,
        [RngStream(5, 2 * t) for t in range(40)], [RngStream(5, 2 * t + 1) for t in range(40)],
    )
    energies = np.sum(np.abs(y) ** 2, axis=-1)
    ratio = float(np.mean(energies)) / (2.0 * sigma)
    assert abs(ratio - 1.0) < 0.05


def test_two_stage_seed_discipline(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=8)
    c = _steered(pset, RngStream(0, 0))
    with pytest.raises(ValueError, match="root seed"):
        two_stage_capture(c, 1, 0.1, 0.01, [RngStream(1, 0)], [RngStream(2, 1)])
    with pytest.raises(ValueError, match="stream ids"):
        two_stage_capture(c, 1, 0.1, 0.01, [RngStream(1, 3)], [RngStream(1, 3)])


def test_two_stage_checks_every_pair_of_a_stack():
    # one bad pair among good ones is enough to stop the capture
    c = np.ones((3, 8), dtype=complex)
    with_t = [RngStream(1, 2 * t) for t in range(3)]
    without = [RngStream(1, 2 * t + 1) for t in range(3)]
    two_stage_capture(c, 1, 0.1, 0.01, with_t, without)
    with pytest.raises(ValueError, match="root seed"):
        two_stage_capture(c, 1, 0.1, 0.01, with_t, [*without[:2], RngStream(2, 5)])
    with pytest.raises(ValueError, match="stream ids"):
        two_stage_capture(c, 1, 0.1, 0.01, with_t, [without[0], RngStream(1, 2), without[2]])
    with pytest.raises(ValueError, match="n0"):
        two_stage_capture(c, 8, 0.1, 0.01, with_t, without)
    with pytest.raises(ValueError, match="one stream key per row"):
        radar_return(c, 1, 0.1, 0.01, with_t[:2])


def test_two_stage_noiseless_exact(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=16)
    c = _steered(pset, RngStream(0, 0))
    y = two_stage_capture(c, 5, 0.4, 0.0, [RngStream(8, 0)], [RngStream(8, 1)])
    k = np.arange(16)
    echo = 0.4 * c * np.exp(2j * np.pi * 5 * k / 16)
    clutter_power = 10.0 * 0.4**2 * _gain(c)
    assert _gain(y - echo) <= 1e-12 * clutter_power


def test_range_profile_flat_waveform_orthogonality(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=8)
    c = _steered(pset, RngStream(0, 0))
    y = radar_return(c, 5, 1.0, 0.0, [RngStream(0, 1)])
    peak_bin, snr_rad_db = range_profile(y, c)
    profile = _dft_magnitudes(y, c)
    assert peak_bin.tolist() == [5]
    _assert_scores(peak_bin, snr_rad_db, profile)
    mags = profile[0]
    # peak picks up the full steered energy, Sigma |c_k|^2 = P*n_tx
    assert mags[5] == pytest.approx(2.0, rel=1e-9)
    off = np.delete(mags, 5)
    assert np.max(off) < 1e-9 * mags[5]
    assert snr_rad_db[0] == math.inf or snr_rad_db[0] > 150.0


def test_range_profile_matches_direct_dft():
    nc = 16
    k = np.arange(nc)
    cvals = (1.0 + 0.3 * np.sin(2 * np.pi * k / nc)).astype(complex)[None]
    y = radar_return(cvals, 3, 1.0, 0.0, [RngStream(0, 1)])
    peak_bin, snr_rad_db = range_profile(y, cvals)
    z = (y * np.conj(cvals))[0]
    manual = np.array(
        [abs(np.sum(z * np.exp(-2j * np.pi * k * n / nc))) for n in range(nc)]
    )
    profile = _dft_magnitudes(y, cvals)
    assert np.allclose(profile[0], manual, atol=1e-9)
    assert peak_bin.tolist() == [3]
    _assert_scores(peak_bin, snr_rad_db, profile)
    # a real waveform is a waveform too; it gives the same profile
    real_peak_bin, real_snr_rad_db = range_profile(y, cvals.real)
    assert np.array_equal(_dft_magnitudes(y, cvals.real), profile)
    assert real_peak_bin.tolist() == [3]
    assert np.array_equal(real_snr_rad_db, snr_rad_db)


def test_range_profile_tie_resolves_to_lowest_bin():
    nc = 8
    y = np.zeros((1, nc), dtype=complex)
    y[0, 0] = 1.0
    c = np.ones((1, nc), dtype=complex)
    peak_bin, snr_rad_db = range_profile(y, c)
    profile = _dft_magnitudes(y, c)
    assert np.allclose(profile, 1.0, atol=1e-12)
    assert peak_bin.tolist() == [0]
    _assert_scores(peak_bin, snr_rad_db, profile)


def test_range_profile_ties_resolve_per_row():
    # exact ties on every row: flat (all bins), odd bins, and bins 2 and 6
    y = np.array(
        [[1, 0, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, -1, 0, 0, 0], [1, 0, -1, 0, 1, 0, -1, 0]],
        dtype=complex,
    )
    peak_bin, snr_rad_db = range_profile(y, np.ones_like(y))
    mags = _dft_magnitudes(y, np.ones_like(y))
    assert np.all(mags[0] == mags[0, 0])
    assert mags[1, 1] == mags[1, 3] == mags[1, 5] == mags[1, 7]
    assert mags[2, 2] == mags[2, 6]
    assert peak_bin.tolist() == [0, 1, 2]
    _assert_scores(peak_bin, snr_rad_db, mags)


def test_range_profile_zero_output_raises():
    nc = 8
    with pytest.raises(UndefinedProfileError):
        range_profile(np.zeros((1, nc), dtype=complex), np.ones((1, nc), dtype=complex))
    # one all-zero row is enough, wherever it sits in the stack
    for row in range(3):
        y = np.ones((3, nc), dtype=complex)
        y[row] = 0.0
        with pytest.raises(UndefinedProfileError):
            range_profile(y, np.ones((3, nc), dtype=complex))


def test_noise_only_peak_stays_small(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=64)
    c = np.repeat(_steered(pset, RngStream(cfg.seed, 50)), 100, axis=0)
    y = radar_return(c, 0, 0.0, 0.05, [RngStream(3, t) for t in range(100)])
    peak_bin, snr_rad_db = range_profile(y, c)
    profile = _dft_magnitudes(y, c)
    _assert_scores(peak_bin, snr_rad_db, profile)
    ratios = []
    for mags, peak in zip(profile, peak_bin):
        off = np.delete(mags, peak)
        ratios.append(float(mags[peak] / np.mean(off)))
    med = float(np.median(ratios))
    assert med == pytest.approx(2.4414815846520805, rel=1e-9)
    assert med < 3.0


def test_closed_form_snr_values(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=64)
    c = _steered(pset, RngStream(0, 0))[0]
    sigma = 0.5
    expect = 0.1**2 * 63 * (cfg.total_power * 2) / sigma
    assert snr_rad_closed_form(c, 0.1, sigma) == pytest.approx(expect, rel=1e-9)
    assert snr_rad_closed_form(c, 0.0, sigma) == 0.0
    assert snr_rad_closed_form(c, 0.1, 0.0) == math.inf


def test_measured_snr_tracks_closed_form():
    # 20 random mixed-stream waveforms on a large grid: the peak-to-offpeak
    # estimate of the matched filter must land within 1 dB of the closed
    # form once averaged over 20 noise draws; large N_c keeps the data
    # sidelobes of the random QPSK modulation out of the off-peak average
    cfg = dataclasses.replace(scenario_preset("S1"), n_subcarriers=1024)
    channels = generate_channels(cfg, _GEOM, RngStream(cfg.seed, 0))
    prng = np.random.default_rng(17)
    beta = 0.1
    worst = 0.0
    for i in range(20):
        pp = ParameterPoint(*prng.uniform(0.1, 1.0, 4), "MRT")
        pset = build_precoders(pp, channels, cfg)
        c = _steered(pset, RngStream(cfg.seed, 600 + i))
        sigma = beta**2 * (1024 - 1) * _gain(c) / 10**1.5  # closed form = 15 dB
        cf_db = 10 * math.log10(snr_rad_closed_form(c[0], beta, sigma))
        stack = np.repeat(c, 20, axis=0)
        y = radar_return(stack, 3, beta, sigma, [RngStream(7, 100 * i + t) for t in range(20)])
        meas = range_profile(y, stack)[1]
        worst = max(worst, abs(float(np.mean(meas)) - cf_db))
    assert worst <= 1.0


def test_fisher_matches_likelihood_curvature(make_channels):
    # central second difference of the expected negative log-likelihood in
    # the delay, against the closed-form information
    cfg = dataclasses.replace(scenario_preset("S1"), n_subcarriers=64)
    channels = generate_channels(cfg, _GEOM, RngStream(cfg.seed, 0))
    prng = np.random.default_rng(99)
    pp = ParameterPoint(*prng.uniform(0.05, 0.95, 4), "MRT")
    pset = build_precoders(pp, channels, cfg)
    beta, sigma, n0, h = 0.37, 0.8, 5.0, 1e-3
    c = _steered(pset, RngStream(cfg.seed, 200))
    k = np.arange(64)

    def g(n):
        mu0 = beta * c * np.exp(2j * np.pi * n0 * k / 64)
        mu = beta * c * np.exp(2j * np.pi * n * k / 64)
        return (64 / sigma) * float(np.sum(np.abs(mu0 - mu) ** 2))

    fd = (g(n0 + h) - 2 * g(n0) + g(n0 - h)) / h**2
    info = _delay_fisher(_k2(c), 64, beta, sigma)
    assert abs(fd - info) / info < 1e-3


def test_crb_flat_waveform_closed_form(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=16)
    c = _steered(pset, RngStream(0, 0))
    beta, sigma = 0.2, 0.3
    sum_k2 = 15 * 16 * 31 / 6.0
    per_k = cfg.total_power * 2 / 16.0
    expect = sigma * 16 / (8 * math.pi**2 * beta**2 * per_k * sum_k2)
    assert _delay_crb(_k2(c), 16, beta, sigma) == pytest.approx(expect, rel=1e-9)


def test_crb_parameter_scaling(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=16)
    weighted = _k2(_steered(pset, RngStream(0, 0)))
    base = _delay_crb(weighted, 16, 0.1, 0.065)
    assert math.isclose(_delay_crb(weighted, 16, 0.2, 0.065), base / 4.0, rel_tol=1e-12)
    assert math.isclose(_delay_crb(weighted, 16, 0.1, 0.195), base * 3.0, rel_tol=1e-12)


def test_crb_degenerate_inputs(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=16)
    weighted = _k2(_steered(pset, RngStream(0, 0)))
    assert _delay_fisher(weighted, 16, 0.0, 0.1) == 0.0
    assert _delay_crb(weighted, 16, 0.0, 0.1) == math.inf
    assert _delay_fisher(weighted, 16, 0.1, 0.0) == math.inf
    assert _delay_crb(weighted, 16, 0.1, 0.0) == 0.0


def test_dc_only_waveform_has_no_delay_information():
    c = np.zeros((1, 8), dtype=complex)
    c[0, 0] = 1.0
    assert _delay_fisher(_k2(c), 8, 0.5, 0.1) == 0.0
    assert _delay_crb(_k2(c), 8, 0.5, 0.1) == math.inf


def _per_point_crb(weighted: float, nc: int, beta: float, sigma_r2: float) -> float:
    """The per-point CRB in Python float arithmetic, no information giving inf."""
    if weighted <= 0.0 or beta == 0.0:
        return math.inf
    if sigma_r2 == 0.0:
        return 0.0
    return 1.0 / (8.0 * math.pi**2 * beta**2 * weighted / (sigma_r2 * nc))


@given(
    weighted=st.lists(
        st.one_of(st.just(0.0), st.floats(1e-30, 1e30)), min_size=1, max_size=12
    ),
    nc=st.sampled_from([8, 64, 512]),
    beta=st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
    sigma_r2=st.one_of(st.just(0.0), st.floats(1e-9, 1e9)),
)
def test_array_delay_crb_matches_per_point(weighted, nc, beta, sigma_r2):
    # One call over an array gives, entry by entry, the per-point bound
    # bit for bit; entries without k-weighted energy read 0 and inf.
    arr = np.array(weighted).reshape(1, -1)
    info = _delay_fisher(arr, nc, beta, sigma_r2)
    crb = _delay_crb(arr, nc, beta, sigma_r2)
    assert info.shape == crb.shape == arr.shape
    for w, i, b in zip(weighted, info.ravel().tolist(), crb.ravel().tolist()):
        assert b == _per_point_crb(w, nc, beta, sigma_r2)
        assert i == _delay_fisher(w, nc, beta, sigma_r2)
        assert b == _delay_crb(w, nc, beta, sigma_r2)
        if w == 0.0:
            assert (i, b) == (0.0, math.inf)


# The per-trial radar chain the stacked stages replaced, kept here as the
# reference the stacks must reproduce bit for bit.


def _reference_tx(pset, rng):
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


def _reference_return(c, n0, beta, sigma_r2, rng, clutter_energy=None):
    nc = c.shape[0]
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


def _reference_profile(y, c):
    """(peak bin, SNR dB) of one capture, or None when the output is all zero."""
    mags = np.abs(np.fft.fft(y * np.conj(c)))
    if not np.any(mags > 0.0):
        return None
    peak = int(np.argmax(mags))
    denom = float(np.mean(np.delete(mags, peak) ** 2))
    snr = math.inf if denom == 0.0 else float(mags[peak] ** 2) / denom
    return peak, 10.0 * math.log10(snr) if math.isfinite(snr) else math.inf


def _reference_trial(pset, cfg, stream, two_stage):
    seed, n0, beta = cfg.seed, cfg.target_delay_bins, cfg.target_attenuation
    sigma = cfg.noise_power_radar
    x = _reference_tx(pset, RngStream(seed, stream))
    c = np.einsum("t,kt->k", np.conj(steering_vector(_GEOM, cfg.target_angle_deg)), x)
    if not two_stage:
        return _reference_profile(_reference_return(c, n0, beta, sigma, RngStream(seed, stream + 1)), c)
    energy = 10.0 * float(beta**2) * float(np.sum(np.abs(c) ** 2))
    y = _reference_return(c, n0, beta, sigma, RngStream(seed, stream + 1), energy)
    y = y - _reference_return(c, n0, 0.0, sigma, RngStream(seed, stream + 2), energy)
    return _reference_profile(y, c)


def _linear_mean_sum(profiles):
    total = 0.0
    for _, snr_db in profiles:
        total += 10.0 ** (snr_db / 10.0)
    return total


_REFERENCE_POINTS = [
    ParameterPoint(0.7, 0.5, 0.4, 0.6, "MRT"),
    ParameterPoint(0.0, 1.0, 1.0, 1.0, "MRT"),
    ParameterPoint(1.0, 0.0, 0.3, 1.0, "MRT"),
    ParameterPoint(0.5, 0.8, 1.0, 0.2, "ZF"),
    ParameterPoint(0.9, 0.3, 0.6, 0.5, "ZF"),
]


@settings(max_examples=60, deadline=None)
@given(
    trials=st.integers(1, 2 * _PER_STACK + 1),
    nc=st.sampled_from([8, 9, 16, 64]),
    n0_frac=st.floats(0.0, 1.0, exclude_max=True),
    beta=st.just(0.0) | st.floats(1e-3, 2.0),
    sigma_r2=st.just(0.0) | st.floats(1e-4, 1.0),
    angle=st.floats(1.0, 60.0) | st.floats(-60.0, -1.0),
    seed=st.integers(0, 2**16),
    point=st.sampled_from(_REFERENCE_POINTS),
)
def test_stacked_chain_equals_per_trial_reference(
    trials, nc, n0_frac, beta, sigma_r2, angle, seed, point
):
    # Any trial count, stack boundaries included (1 to 3 stacks of
    # _PER_STACK trials at every N_c), gives every row's peak and SNR, and
    # monte_carlo each mean SNR in dB, exactly as the per-trial chain did,
    # under both callers' stream layouts and captures. At N_c = 9 one or
    # three powered streams end a trial's quadrants mid-word.
    with mock.patch.object(radar, "_STACK_ENTRIES", _stack_entries(nc)):
        _check_stacked_chain(trials, nc, n0_frac, beta, sigma_r2, angle, seed, point)


def _check_stacked_chain(trials, nc, n0_frac, beta, sigma_r2, angle, seed, point):
    cfg = dataclasses.replace(
        scenario_preset("S1"), n_subcarriers=nc, target_delay_bins=int(n0_frac * nc),
        target_attenuation=beta, noise_power_radar=sigma_r2, target_angle_deg=angle, seed=seed,
    )
    channels = generate_channels(cfg, _GEOM, RngStream(seed, 0))
    try:
        pset = build_precoders(point, channels, cfg)
    except (DegenerateDirectionError, RankDeficientChannelError):
        assume(False)
    n0 = cfg.target_delay_bins

    # the SNR-sweep chain: one radar_return per trial, streams 2t and 2t + 1
    want = [_reference_trial(pset, cfg, 2 * t, two_stage=False) for t in range(trials)]
    if None in want:
        with pytest.raises(UndefinedProfileError):
            _sweep_chain(channels, pset, cfg, trials)
    else:
        x = synthesize_tx(pset, [RngStream(seed, 2 * t) for t in range(trials)])
        c = steered_projection(x, steering_vector(_GEOM, angle))
        y = radar_return(c, n0, beta, sigma_r2, [RngStream(seed, 2 * t + 1) for t in range(trials)])
        peak_bin, snr_rad_db = range_profile(y, c)
        assert peak_bin.tolist() == [p for p, _ in want]
        assert snr_rad_db.tolist() == [s for _, s in want]
        peaks, snr_db = _sweep_chain(channels, pset, cfg, trials)
        assert peaks == [p for p, _ in want]
        assert snr_db == 10.0 * math.log10(_linear_mean_sum(want) / trials)

    # the heatmap chain: two-stage captures, streams 1 + 3t, +1 and +2
    want = [_reference_trial(pset, cfg, 1 + 3 * t, two_stage=True) for t in range(trials)]
    if None in want:
        with pytest.raises(UndefinedProfileError):
            _heatmap_chain(channels, pset, cfg, n0, beta, trials)
    else:
        peaks, snr_db = _heatmap_chain(channels, pset, cfg, n0, beta, trials)
        assert peaks == [p for p, _ in want]
        assert snr_db == 10.0 * math.log10(_linear_mean_sum(want) / trials)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    ids=st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=2, unique=True),
    n=st.integers(1, 1537),
    scale=st.just(0.0) | st.floats(1e-160, 1e3),
)
@example(seed=0, ids=[0, 1], n=1, scale=0.0)
@example(seed=2**64 - 1, ids=[2**32, 2**32 - 1], n=1537, scale=1.0)
def test_draws_equal_the_generator_calls_they_replace(seed, ids, n, scale):
    # The chain's quadrants come from raw PCG64 words and its noise from
    # standard normals scaled once per stack. For a plain key and for a
    # monte_carlo call's key, each row is bit for bit what the Generator
    # call they replace draws, odd counts (a half word left over) included.
    # The chain's noise scale sqrt(sigma_r2 / (2 N_c)) is at least about
    # 1e-163, where scale·z cannot underflow to a zero that normal's
    # 0.0 + scale·z would give another sign.
    (start,) = stream_states(seed, ids[1:])
    gen = np.random.default_rng(0)
    keys = [RngStream(seed, ids[0]),
            radar._CallStream(seed, ids[1], start, gen, {}, 0)]
    quadrants = radar._quadrants(keys, np.empty((2, n), np.intp), resident=False)
    noise = radar._noise(keys, scale, np.empty((2, n, 2)))
    for i, q, z in zip(ids, quadrants, noise):
        want = np.random.default_rng((seed, i)).integers(0, 4, size=n)
        assert q.tolist() == want.tolist()
        want = np.random.default_rng((seed, i)).normal(scale=scale, size=(n, 2))
        assert z.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_monte_carlo_needs_a_trial():
    # The mean SNR of no trials is undefined, so no trials is an error.
    cfg = scenario_preset("S1")
    channels = generate_channels(cfg, _GEOM, RngStream(cfg.seed, 0))
    pset = build_precoders(ParameterPoint(0.0, 1.0, 1.0, 1.0, "MRT"), channels, cfg)
    with pytest.raises(ValueError, match="at least one trial"):
        _sweep_chain(channels, pset, cfg, 0)


@pytest.mark.parametrize(
    "streams, match",
    [
        # zip would drop id 5 and run the call on two ids a trial
        ([(1, 2), (3, 4, 5)], "same number of stream ids"),
        ([(1, 2, 3), (4, 5)], "same number of stream ids"),
        # id 2 again 40 trials later: a stack boundary sits between them
        ([(2 * t + 1, 2 * t + 2) for t in range(40)] + [(2, 999)], "distinct"),
        # a trial's waveform and noise from one stream
        ([(1, 2), (3, 3)], "distinct"),
    ],
)
def test_monte_carlo_checks_the_whole_stream_layout(streams, match):
    # The layout is checked for the whole call, so the outcome does not
    # depend on how the trials are stacked.
    cfg = scenario_preset("S1")
    channels = generate_channels(cfg, _GEOM, RngStream(cfg.seed, 0))
    pset = build_precoders(ParameterPoint(0.7, 0.5, 0.4, 0.6, "MRT"), channels, cfg)

    def capture(c, *rngs):
        return radar_return(c, 3, 0.1, 0.01, rngs[0])

    with pytest.raises(ValueError, match=match):
        monte_carlo(channels, pset, cfg, streams, capture)


def _in_fresh_thread(fn):
    """fn() run on a new thread, which starts with no resident stacks."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and len(out) == 1
    return out[0]


def test_monte_carlo_stacks_stay_resident(monkeypatch):
    # After a warm-up call, an identical call allocates no stack-sized
    # array: every stage writes into the thread's resident stacks. Its
    # traced peak stays under one (trials, N_c) complex stack, the size of
    # the steered waveforms c, where a fresh x stack alone is twice that.
    # The stacks are made large (128 trials at N_c = 512), so that what a
    # call allocates whatever the stack size (its symbol tables, its
    # stream keys, numpy's iterator buffers) stays small beside one.
    monkeypatch.setattr(radar, "_STACK_ENTRIES", 2**17)
    cfg = scenario_preset("S1")
    channels = generate_channels(cfg, _GEOM, RngStream(cfg.seed, 0))
    pset = build_precoders(ParameterPoint(0.7, 0.5, 0.4, 0.6, "MRT"), channels, cfg)
    per_stack = 2**17 // (cfg.n_subcarriers * _GEOM.n_tx)
    one_stack = per_stack * cfg.n_subcarriers * np.dtype(complex).itemsize

    def peaks():
        out = []
        for trials in (per_stack, per_stack + 1):  # one stack, and a part of another
            for chain in (lambda: _sweep_chain(channels, pset, cfg, trials),
                          lambda: _heatmap_chain(channels, pset, cfg, 2, 0.05, trials)):
                want = chain()
                tracemalloc.start()
                try:
                    got = chain()
                    out.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                assert got == want
        return out

    # on a thread of its own, so these large stacks go when it ends
    for peak in _in_fresh_thread(peaks):
        assert peak < one_stack, (peak, one_stack)


def test_resident_stacks_keep_no_state_between_calls(make_channels, monkeypatch):
    # Calls that alternate N_c, capture kind and trial count on one thread
    # give the bytes each gives on a thread of its own.
    monkeypatch.setattr(radar, "_STACK_ENTRIES", _stack_entries(16))
    calls = []
    for nc, trials in ((16, 19), (64, 5), (8, 30)):
        cfg, channels = make_channels(n_subcarriers=nc)
        pset = build_precoders(ParameterPoint(0.7, 0.5, 0.4, 0.6, "MRT"), channels, cfg)
        calls += [lambda c=channels, p=pset, g=cfg, t=trials: _sweep_chain(c, p, g, t),
                  lambda c=channels, p=pset, g=cfg, t=trials: _heatmap_chain(c, p, g, 3, 0.2, t)]
    alone = [_in_fresh_thread(call) for call in calls]
    for call, want in zip(calls * 2, alone * 2):
        assert call() == want


def test_threads_running_heatmap_cells_get_their_sequential_results(make_channels, monkeypatch):
    # Each thread has its own stacks, so cells that run at once on two
    # threads, switching as often as the interpreter allows, give what
    # they give one after the other.
    monkeypatch.setattr(radar, "_STACK_ENTRIES", _stack_entries(16, per_stack=4))
    cells = []
    for nc, n0, beta in ((16, 3, 0.2), (64, 9, 0.1)):
        cfg, channels = make_channels(n_subcarriers=nc)
        pset = build_precoders(ParameterPoint(0.6, 0.5, 0.5, 0.5, "ZF"), channels, cfg)
        cells.append(
            lambda c=channels, p=pset, g=cfg, n=n0, b=beta: _heatmap_chain(c, p, g, n, b, 21)
        )
    want = [cell() for cell in cells]
    got = [[], []]

    def run(i):
        for _ in range(10):
            got[i].append(cells[i]())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert got == [[want[0]] * 10, [want[1]] * 10]


def _round_sig_bits(values) -> bytes:
    return np.array([round_sig(v) for v in np.ravel(values).tolist()]).tobytes()


def _with_neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    # The largest double's upper neighbour is inf, which nextafter flags.
    with np.errstate(over="ignore"):
        return np.concatenate([values, np.nextafter(values, -np.inf),
                               np.nextafter(values, np.inf)])


# Any double, by its bits: every decade, subnormals, zeros, infinities, NaNs.
_DOUBLES = st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(float)))


def _half_way(digits: int, exponent: int, offset: float) -> float:
    """The double at ``offset`` from the 12-digit half-way point digits.5 x 10**(exponent - 11)."""
    scale = 10.0 ** (11 - exponent)
    return float(f"{digits}5e{exponent - 12}") + offset / scale


@given(
    singles=st.lists(_DOUBLES | st.floats(), min_size=1, max_size=12),
    half_ways=st.lists(
        st.tuples(st.integers(10**11, 10**12 - 1), st.integers(-13, 13),
                  st.sampled_from([0.0, 2.0**-11, -(2.0**-11), 2.0**-10, -(2.0**-10),
                                   1.5 * 2.0**-10, -1.5 * 2.0**-10, 2.0**-8, 0.25])),
        max_size=8,
    ),
    shape=st.sampled_from([(-1,), (3, -1), (-1, 3, 1)]),
)
@example(singles=[0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-11, 1e11,
                  1e-308, 1.7976931348623157e308, 0.1 + 0.2, 1000.0, 999999999999.5],
         half_ways=[(10**11, -11, 0.0), (10**12 - 1, 10, 0.0)], shape=(-1,))
def test_column_rounding_is_round_sig_bit_for_bit(singles, half_ways, shape):
    # expected_sensing rounds g0 as a column; round_sig stays the rule.
    values = _with_neighbours(singles + [_half_way(*h) for h in half_ways])
    batch = np.concatenate([values, -values]).reshape(shape)  # 6n entries
    got = _round_sig_column(batch)
    assert got.shape == batch.shape and got.dtype == float
    assert got.tobytes() == _round_sig_bits(batch)
    for v in values[:6].tolist():
        point = _round_sig_column(np.float64(v))  # a point's g0 is 0-d
        assert point.shape == () and point.tobytes() == _round_sig_bits(v)


def test_expected_sensing_returns_round_sig_of_each_g0(make_channels):
    cfg, channels = make_channels(n_subcarriers=16, csit_error_var=1e-3)
    axis = (0.0, 0.3, 0.7, 1.0)
    pp = ParameterPoint((0.2, 0.6, 1.0), (0.0, 0.5, 1.0), axis, axis, "MRT")
    _, target = stream_gains(channels, build_precoders(pp, channels, cfg))
    g0, _ = expected_sensing(target, cfg)
    common, private_1, private_2, sensing = target
    raw = np.sum(common + private_1 + private_2 + sensing, axis=-1)
    assert g0.shape == raw.shape == (3, 4, 4)
    assert g0.tobytes() == _round_sig_bits(raw)
