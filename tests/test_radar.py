"""OFDM radar chain: waveform synthesis, echo model, matched filter, CRB.

The chain's stages take a leading trial axis; most tests run one trial,
a stack of shape (1, N_c).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rsma_isac import (
    ArrayGeometry,
    ParameterPoint,
    RngStream,
    build_precoders,
    generate_channels,
    scenario_preset,
    synthesize_tx,
)
from rsma_isac.core import steering_vector
from rsma_isac.precoders import DegenerateDirectionError, PrecoderSet, RankDeficientChannelError
from rsma_isac.radar import (
    _CLUTTER_STREAM_ID,
    _TRIAL_CHUNK,
    UndefinedProfileError,
    _delay_crb,
    _delay_fisher,
    _k2_sum,
    expected_steered_power,
    monte_carlo,
    radar_return,
    range_profile,
    sensing_symbols,
    snr_rad_closed_form,
    steered_projection,
    two_stage_capture,
)

_GEOM = ArrayGeometry(2, 0.5)


def _sensing_only(make_channels, nc=64):
    cfg, channels = make_channels(n_subcarriers=nc)
    pset = build_precoders(ParameterPoint(0.0, 1.0, 1.0, 1.0, "MRT"), channels, cfg)
    return cfg, pset


def _steered(pset, rng):
    """The broadside steered waveform c of one synthesized symbol, shape (1, N_c)."""
    return steered_projection(synthesize_tx(pset, [rng]), _GEOM, 0.0)


def _gain(c):
    """Energy radiated toward the sensed direction, sum_k |c_k|^2."""
    return float(np.sum(np.abs(c) ** 2))


def _k2(c):
    """The delay-weighted energy sum_k k^2 |c_k|^2 of one trial's waveform."""
    return _k2_sum(np.abs(c[0]) ** 2)


def _sweep_chain(pset, cfg, trials):
    """An SNR sweep point's Monte Carlo run: trial t uses streams 2t and 2t + 1."""
    def capture(c, noise):
        return radar_return(
            c, cfg.target_delay_bins, cfg.target_attenuation, cfg.noise_power_radar, noise
        )

    streams = [(2 * t, 2 * t + 1) for t in range(trials)]
    return monte_carlo(pset, _GEOM, cfg.target_angle_deg, cfg.seed, streams, capture)


def _heatmap_chain(pset, cfg, n0, beta, trials):
    """A heatmap cell's Monte Carlo run: trial t uses streams s, s + 1, s + 2, s = 1 + 3t."""
    def capture(c, with_target, without):
        return two_stage_capture(c, n0, beta, cfg.noise_power_radar, with_target, without)

    streams = [(s, s + 1, s + 2) for s in range(1, 1 + 3 * trials, 3)]
    return monte_carlo(pset, _GEOM, cfg.target_angle_deg, cfg.seed, streams, capture)


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
    per_k = np.abs(steered_projection(x, _GEOM, 0.0)) ** 2
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
    assert _gain(steered_projection(x, _GEOM, 0.0)) == pytest.approx(total, rel=1e-12)


def test_expected_steered_power_sums_streams(make_channels):
    cfg, channels = make_channels(n_subcarriers=8)
    pset = build_precoders(ParameterPoint(0.7, 0.5, 0.4, 0.6, "MRT"), channels, cfg)
    a = np.ones(2, dtype=complex)
    manual = np.zeros(8)
    for p in (pset.p_c, pset.p_1, pset.p_2, pset.p_r):
        manual += np.array([abs(np.vdot(a, p[k])) ** 2 for k in range(8)])
    got = expected_steered_power(pset, _GEOM, 0.0)
    assert np.allclose(got, manual, rtol=1e-12)
    assert np.sum(got) == pytest.approx(manual.sum())


def test_sensing_helpers_on_a_stacked_batch_equal_per_point(make_channels):
    # Leading batch axes change nothing: each entry of a stacked batch is
    # bit for bit what its own point gives, zero streams included.
    cfg, channels = make_channels(n_subcarriers=16, csit_error_var=1e-3)
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
    power = expected_steered_power(batch, _GEOM, 10.0)
    weighted = _k2_sum(power)
    assert power.shape == (4, 16) and weighted.shape == (4,)
    for n, pset in enumerate(psets):
        single = expected_steered_power(pset, _GEOM, 10.0)
        assert np.array_equal(power[n], single)
        assert weighted[n] == _k2_sum(single)


def test_expected_equals_realized_for_sensing_only(make_channels):
    # the sensing stream carries fixed unit-modulus symbols, so the realized
    # steered energy equals its expectation exactly
    cfg, pset = _sensing_only(make_channels, nc=16)
    c = _steered(pset, RngStream(2, 2))
    assert _gain(c) == pytest.approx(
        np.sum(expected_steered_power(pset, _GEOM, 0.0)), rel=1e-12
    )


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
    # a heatmap cell of T trials makes one capture call, hence one clutter
    # draw, per chunk of trials (it drew twice per trial before the stacking)
    cfg, pset = _sensing_only(make_channels, nc=16)
    c = np.repeat(_steered(pset, RngStream(0, 0)), 3, axis=0)
    keys = _record_clutter_draws(monkeypatch)
    two_stage_capture(
        c, 3, 0.2, 0.01, [RngStream(4, t) for t in range(3)], [RngStream(4, 9 + t) for t in range(3)]
    )
    assert keys == [(4, _CLUTTER_STREAM_ID)]
    for trials in (1, _TRIAL_CHUNK, 2 * _TRIAL_CHUNK + 1):
        keys.clear()
        peaks, _ = _heatmap_chain(pset, cfg, 3, 0.2, trials)
        assert len(peaks) == trials
        assert keys == [(cfg.seed, _CLUTTER_STREAM_ID)] * math.ceil(trials / _TRIAL_CHUNK)


def test_background_subtract_noiseless_recovers_echo(make_channels):
    # every trial of a stack carries its own clutter energy (10x its echo),
    # and each one cancels exactly between the two captures
    cfg, channels = make_channels(n_subcarriers=16)
    pset = build_precoders(ParameterPoint(0.7, 0.5, 0.4, 0.6, "MRT"), channels, cfg)
    c = steered_projection(synthesize_tx(pset, [RngStream(0, t) for t in range(3)]), _GEOM, 0.0)
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
    trials=st.integers(1, 2 * _TRIAL_CHUNK + 1),
    nc=st.sampled_from([8, 16, 64]),
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
    # Any trial count, chunk boundaries included, gives every row's peak and
    # SNR, and monte_carlo each summed SNR, exactly as the per-trial chain
    # did, under both callers' stream layouts and captures.
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
            _sweep_chain(pset, cfg, trials)
    else:
        x = synthesize_tx(pset, [RngStream(seed, 2 * t) for t in range(trials)])
        c = steered_projection(x, _GEOM, angle)
        y = radar_return(c, n0, beta, sigma_r2, [RngStream(seed, 2 * t + 1) for t in range(trials)])
        peak_bin, snr_rad_db = range_profile(y, c)
        assert peak_bin.tolist() == [p for p, _ in want]
        assert snr_rad_db.tolist() == [s for _, s in want]
        peaks, snr_sum = _sweep_chain(pset, cfg, trials)
        assert peaks == [p for p, _ in want]
        assert snr_sum == _linear_mean_sum(want)

    # the heatmap chain: two-stage captures, streams 1 + 3t, +1 and +2
    want = [_reference_trial(pset, cfg, 1 + 3 * t, two_stage=True) for t in range(trials)]
    if None in want:
        with pytest.raises(UndefinedProfileError):
            _heatmap_chain(pset, cfg, n0, beta, trials)
    else:
        peaks, snr_sum = _heatmap_chain(pset, cfg, n0, beta, trials)
        assert peaks == [p for p, _ in want]
        assert snr_sum == _linear_mean_sum(want)
