"""OFDM radar chain: waveform synthesis, echo model, matched filter, CRB."""

import dataclasses
import math

import numpy as np
import pytest

from rsma_isac import (
    ArrayGeometry,
    ParameterPoint,
    RngStream,
    build_precoders,
    generate_channels,
    scenario_preset,
    synthesize_tx,
)
from rsma_isac.precoders import PrecoderSet
from rsma_isac.radar import (
    UndefinedProfileError,
    ZeroInformationError,
    _delay_crb,
    _delay_fisher,
    _k2_sum,
    expected_steered_power,
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
    pset = build_precoders(ParameterPoint(0.0, 1.0, 1.0, 1.0), channels, cfg)
    return cfg, pset


def _steered(pset, rng):
    """The broadside steered waveform c of one synthesized symbol."""
    return steered_projection(synthesize_tx(pset, rng), _GEOM)


def _gain(c):
    """Energy radiated toward the sensed direction, sum_k |c_k|^2."""
    return float(np.sum(np.abs(c) ** 2))


def _k2(c):
    """The delay-weighted energy sum_k k^2 |c_k|^2 the Fisher formula takes."""
    return _k2_sum(np.abs(c) ** 2)


def test_sensing_symbols_fixed_bpsk():
    s = sensing_symbols(64)
    assert s.shape == (64,)
    assert set(np.unique(s)) <= {-1.0, 1.0}
    assert np.array_equal(s, sensing_symbols(64))
    assert np.array_equal(s[:16], sensing_symbols(16))


def test_synthesize_sensing_only_is_deterministic(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=8)
    x = synthesize_tx(pset, RngStream(cfg.seed, 50))
    expect = pset.p_r * sensing_symbols(8)[:, None]
    assert np.array_equal(x, expect)
    # every subcarrier radiates total_power*n_tx/nc toward broadside
    per_k = np.abs(steered_projection(x, _GEOM)) ** 2
    assert np.allclose(per_k, cfg.total_power * 2 / 8, rtol=1e-12)


def test_synthesize_zero_precoders_zero_signal():
    z = np.zeros((8, 2), dtype=complex)
    x = synthesize_tx(PrecoderSet(z, z, z, z), RngStream(0, 0))
    assert not np.any(x)
    assert x.shape == (8, 2)


def test_symbol_statistics():
    col = np.ones((10000, 1), dtype=complex)
    zeros = np.zeros_like(col)
    pset = PrecoderSet(col, zeros, zeros, zeros)
    qpsk = synthesize_tx(pset, RngStream(11, 0))[:, 0]
    assert np.max(np.abs(np.abs(qpsk) - 1.0)) < 1e-12


def test_broadside_gain_matches_loop(make_channels):
    cfg, channels = make_channels(n_subcarriers=8)
    pset = build_precoders(ParameterPoint(0.7, 0.5, 0.4, 0.6), channels, cfg)
    x = synthesize_tx(pset, RngStream(1, 1))
    a = np.ones(2, dtype=complex)  # broadside steering for a 2-element ULA
    total = sum(abs(np.vdot(a, x[k])) ** 2 for k in range(8))
    assert _gain(steered_projection(x, _GEOM)) == pytest.approx(total, rel=1e-12)


def test_expected_steered_power_sums_streams(make_channels):
    cfg, channels = make_channels(n_subcarriers=8)
    pset = build_precoders(ParameterPoint(0.7, 0.5, 0.4, 0.6), channels, cfg)
    a = np.ones(2, dtype=complex)
    manual = np.zeros(8)
    for p in (pset.p_c, pset.p_1, pset.p_2, pset.p_r):
        manual += np.array([abs(np.vdot(a, p[k])) ** 2 for k in range(8)])
    got = expected_steered_power(pset, _GEOM)
    assert np.allclose(got, manual, rtol=1e-12)
    assert np.sum(got) == pytest.approx(manual.sum())


def test_sensing_helpers_on_a_stacked_batch_equal_per_point(make_channels):
    # Leading batch axes change nothing: each entry of a stacked batch is
    # bit for bit what its own point gives, zero streams included.
    cfg, channels = make_channels(n_subcarriers=16, csit_error_var=1e-3)
    points = [
        ParameterPoint(0.7, 0.5, 0.4, 0.6),
        ParameterPoint(0.0, 1.0, 1.0, 1.0),
        ParameterPoint(1.0, 0.0, 0.3, 1.0),
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
        np.sum(expected_steered_power(pset, _GEOM)), rel=1e-12
    )


def test_radar_return_noiseless_zero_delay(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=8)
    c = _steered(pset, RngStream(0, 0))
    y = radar_return(c, 0, 1.0, 0.0, RngStream(0, 1))
    assert np.array_equal(y, c)


def test_radar_return_phase_ramp(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=8)
    c = _steered(pset, RngStream(0, 0))
    y = radar_return(c, 2, 0.5, 0.0, RngStream(0, 1))
    k = np.arange(8)
    assert np.allclose(y, 0.5 * c * np.exp(2j * np.pi * 2 * k / 8), atol=1e-15)


def test_radar_return_rejects_bad_delay(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=8)
    c = _steered(pset, RngStream(0, 0))
    for bad in (-1, 8, 100):
        with pytest.raises(ValueError, match="n0"):
            radar_return(c, bad, 0.5, 0.1, RngStream(0, 1))


def test_clutter_depends_only_on_root_seed(make_channels):
    # with no echo and no noise a capture is exactly its clutter grid
    cfg, pset = _sensing_only(make_channels, nc=16)
    c = _steered(pset, RngStream(0, 0))
    a = radar_return(c, 3, 0.0, 0.0, RngStream(9, 1), clutter_energy=2.0)
    b = radar_return(c, 3, 0.0, 0.0, RngStream(9, 2), clutter_energy=2.0)
    assert np.array_equal(a, b)
    other = radar_return(c, 3, 0.0, 0.0, RngStream(10, 1), clutter_energy=2.0)
    assert not np.array_equal(a, other)


def test_background_subtract_noiseless_recovers_echo(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=16)
    c = _steered(pset, RngStream(0, 0))
    beta = 0.3
    with_t = radar_return(c, 4, beta, 0.0, RngStream(9, 1), clutter_energy=5.0)
    without = radar_return(c, 4, 0.0, 0.0, RngStream(9, 2), clutter_energy=5.0)
    k = np.arange(16)
    echo = beta * c * np.exp(2j * np.pi * 4 * k / 16)
    err = float(np.sum(np.abs(with_t - without - echo) ** 2))
    assert err <= 1e-12 * _gain(without)  # the target-free capture is the clutter


def test_two_stage_noise_variance_doubles():
    c = np.ones(512, dtype=complex)
    sigma = 0.04
    energies = []
    for t in range(40):
        y = two_stage_capture(c, 3, 0.0, sigma, RngStream(5, 2 * t), RngStream(5, 2 * t + 1))
        energies.append(_gain(y))
    ratio = float(np.mean(energies)) / (2.0 * sigma)
    assert abs(ratio - 1.0) < 0.05


def test_two_stage_seed_discipline(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=8)
    c = _steered(pset, RngStream(0, 0))
    with pytest.raises(ValueError, match="root seed"):
        two_stage_capture(c, 1, 0.1, 0.01, RngStream(1, 0), RngStream(2, 1))
    with pytest.raises(ValueError, match="stream ids"):
        two_stage_capture(c, 1, 0.1, 0.01, RngStream(1, 3), RngStream(1, 3))


def test_two_stage_noiseless_exact(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=16)
    c = _steered(pset, RngStream(0, 0))
    y = two_stage_capture(c, 5, 0.4, 0.0, RngStream(8, 0), RngStream(8, 1))
    k = np.arange(16)
    echo = 0.4 * c * np.exp(2j * np.pi * 5 * k / 16)
    clutter_power = 10.0 * 0.4**2 * _gain(c)
    assert _gain(y - echo) <= 1e-12 * clutter_power


def test_range_profile_flat_waveform_orthogonality(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=8)
    c = _steered(pset, RngStream(0, 0))
    y = radar_return(c, 5, 1.0, 0.0, RngStream(0, 1))
    prof = range_profile(y, c)
    assert prof.peak_bin == 5
    # peak picks up the full steered energy, Sigma |c_k|^2 = P*n_tx
    assert prof.magnitudes[5] == pytest.approx(2.0, rel=1e-9)
    off = np.delete(prof.magnitudes, 5)
    assert np.max(off) < 1e-9 * prof.magnitudes[5]
    assert prof.snr_rad_db == math.inf or prof.snr_rad_db > 150.0


def test_range_profile_matches_direct_dft():
    nc = 16
    k = np.arange(nc)
    cvals = (1.0 + 0.3 * np.sin(2 * np.pi * k / nc)).astype(complex)
    y = radar_return(cvals, 3, 1.0, 0.0, RngStream(0, 1))
    prof = range_profile(y, cvals)
    z = y * np.conj(cvals)
    manual = np.array(
        [abs(np.sum(z * np.exp(-2j * np.pi * k * n / nc))) for n in range(nc)]
    )
    assert np.allclose(prof.magnitudes, manual, atol=1e-9)
    assert prof.peak_bin == 3


def test_range_profile_tie_resolves_to_lowest_bin():
    nc = 8
    y = np.zeros(nc, dtype=complex)
    y[0] = 1.0
    prof = range_profile(y, np.ones(nc, dtype=complex))
    assert np.allclose(prof.magnitudes, 1.0, atol=1e-12)
    assert prof.peak_bin == 0


def test_range_profile_zero_output_raises():
    nc = 8
    with pytest.raises(UndefinedProfileError):
        range_profile(np.zeros(nc, dtype=complex), np.ones(nc, dtype=complex))


def test_noise_only_peak_stays_small(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=64)
    c = _steered(pset, RngStream(cfg.seed, 50))
    ratios = []
    for t in range(100):
        prof = range_profile(radar_return(c, 0, 0.0, 0.05, RngStream(3, t)), c)
        off = np.delete(prof.magnitudes, prof.peak_bin)
        ratios.append(float(prof.magnitudes[prof.peak_bin] / np.mean(off)))
    med = float(np.median(ratios))
    assert med == pytest.approx(2.4414815846520805, rel=1e-9)
    assert med < 3.0


def test_closed_form_snr_values(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=64)
    c = _steered(pset, RngStream(0, 0))
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
        pp = ParameterPoint(*prng.uniform(0.1, 1.0, 4))
        pset = build_precoders(pp, channels, cfg)
        c = _steered(pset, RngStream(cfg.seed, 600 + i))
        sigma = beta**2 * (1024 - 1) * _gain(c) / 10**1.5  # closed form = 15 dB
        cf_db = 10 * math.log10(snr_rad_closed_form(c, beta, sigma))
        meas = []
        for t in range(20):
            y = radar_return(c, 3, beta, sigma, RngStream(7, 100 * i + t))
            meas.append(range_profile(y, c).snr_rad_db)
        worst = max(worst, abs(float(np.mean(meas)) - cf_db))
    assert worst <= 1.0


def test_fisher_matches_likelihood_curvature(make_channels):
    # central second difference of the expected negative log-likelihood in
    # the delay, against the closed-form information
    cfg = dataclasses.replace(scenario_preset("S1"), n_subcarriers=64)
    channels = generate_channels(cfg, _GEOM, RngStream(cfg.seed, 0))
    prng = np.random.default_rng(99)
    pp = ParameterPoint(*prng.uniform(0.05, 0.95, 4))
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
    c = np.zeros(8, dtype=complex)
    c[0] = 1.0
    with pytest.raises(ZeroInformationError):
        _delay_fisher(_k2(c), 8, 0.5, 0.1)
    with pytest.raises(ZeroInformationError):
        _delay_crb(_k2(c), 8, 0.5, 0.1)
