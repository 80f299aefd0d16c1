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
    crb,
    fisher_information,
    generate_channels,
    scenario_preset,
    synthesize_tx,
)
from rsma_isac.precoders import PrecoderSet
from rsma_isac.radar import (
    RadarObservation,
    RangeProfile,
    TxGrid,
    UndefinedProfileError,
    ZeroInformationError,
    _k2_sum,
    background_subtract,
    bins_to_meters,
    broadside_gain,
    expected_steered_power,
    radar_return,
    range_profile,
    sensing_symbols,
    snr_rad_closed_form,
    steered_projection,
    two_stage_capture,
    write_range_profile_csv,
)

_GEOM = ArrayGeometry(2, 0.5)
_G1 = ArrayGeometry(1, 0.5)


def _sensing_only(make_channels, nc=64):
    cfg, channels = make_channels(n_subcarriers=nc)
    pset = build_precoders(ParameterPoint(0.0, 1.0, 1.0, 1.0), channels, cfg)
    return cfg, pset


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
    assert np.array_equal(x.x, expect)
    # every subcarrier radiates total_power*n_tx/nc toward broadside
    per_k = np.abs(steered_projection(x, _GEOM)) ** 2
    assert np.allclose(per_k, cfg.total_power * 2 / 8, rtol=1e-12)


def test_synthesize_zero_precoders_zero_signal():
    z = np.zeros((8, 2), dtype=complex)
    x = synthesize_tx(PrecoderSet(z, z, z, z), RngStream(0, 0))
    assert not np.any(x.x)
    assert x.n_subcarriers == 8 and x.n_tx == 2


def test_symbol_statistics():
    col = np.ones((10000, 1), dtype=complex)
    zeros = np.zeros_like(col)
    pset = PrecoderSet(col, zeros, zeros, zeros)
    qpsk = synthesize_tx(pset, RngStream(11, 0)).x[:, 0]
    assert np.max(np.abs(np.abs(qpsk) - 1.0)) < 1e-12


def test_broadside_gain_matches_loop(make_channels):
    cfg, channels = make_channels(n_subcarriers=8)
    pset = build_precoders(ParameterPoint(0.7, 0.5, 0.4, 0.6), channels, cfg)
    x = synthesize_tx(pset, RngStream(1, 1))
    a = np.ones(2, dtype=complex)  # broadside steering for a 2-element ULA
    total = sum(abs(np.vdot(a, x.x[k])) ** 2 for k in range(8))
    assert broadside_gain(x, _GEOM) == pytest.approx(total, rel=1e-12)


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
    x = synthesize_tx(pset, RngStream(2, 2))
    assert broadside_gain(x, _GEOM) == pytest.approx(
        np.sum(expected_steered_power(pset, _GEOM)), rel=1e-12
    )


def test_radar_return_noiseless_zero_delay(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=8)
    x = synthesize_tx(pset, RngStream(0, 0))
    c = steered_projection(x, _GEOM)
    obs = radar_return(x, 0, 1.0, 0.0, RngStream(0, 1), geom=_GEOM)
    assert np.array_equal(obs.y_r, c)


def test_radar_return_phase_ramp(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=8)
    x = synthesize_tx(pset, RngStream(0, 0))
    c = steered_projection(x, _GEOM)
    obs = radar_return(x, 2, 0.5, 0.0, RngStream(0, 1), geom=_GEOM)
    k = np.arange(8)
    assert np.allclose(obs.y_r, 0.5 * c * np.exp(2j * np.pi * 2 * k / 8), atol=1e-15)


def test_radar_return_rejects_bad_delay(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=8)
    x = synthesize_tx(pset, RngStream(0, 0))
    for bad in (-1, 8, 100):
        with pytest.raises(ValueError, match="n0"):
            radar_return(x, bad, 0.5, 0.1, RngStream(0, 1), geom=_GEOM)


def test_clutter_depends_only_on_root_seed(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=16)
    x = synthesize_tx(pset, RngStream(0, 0))
    a = radar_return(x, 3, 0.1, 0.01, RngStream(9, 1), _GEOM, clutter_energy=2.0)
    b = radar_return(x, 3, 0.0, 0.01, RngStream(9, 2), _GEOM, clutter_energy=2.0)
    assert np.array_equal(a.clutter_only, b.clutter_only)
    c = radar_return(x, 3, 0.1, 0.01, RngStream(10, 1), _GEOM, clutter_energy=2.0)
    assert not np.array_equal(a.clutter_only, c.clutter_only)


def test_background_subtract_noiseless_recovers_echo(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=16)
    x = synthesize_tx(pset, RngStream(0, 0))
    c = steered_projection(x, _GEOM)
    beta = 0.3
    with_t = radar_return(x, 4, beta, 0.0, RngStream(9, 1), _GEOM, clutter_energy=5.0)
    without = radar_return(x, 4, 0.0, 0.0, RngStream(9, 2), _GEOM, clutter_energy=5.0)
    res = background_subtract(with_t, without)
    k = np.arange(16)
    echo = beta * c * np.exp(2j * np.pi * 4 * k / 16)
    err = float(np.sum(np.abs(res.y_r - echo) ** 2))
    clutter_power = float(np.sum(np.abs(with_t.clutter_only) ** 2))
    assert err <= 1e-12 * clutter_power


def test_background_subtract_bookkeeping(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=8)
    x = synthesize_tx(pset, RngStream(0, 0))
    a = radar_return(x, 1, 0.2, 0.03, RngStream(4, 1), geom=_GEOM)
    b = radar_return(x, 1, 0.0, 0.05, RngStream(4, 2), geom=_GEOM)
    res = background_subtract(a, b)
    assert res.sigma_r2 == pytest.approx(0.08)
    assert res.n0_true == 1 and res.beta == 0.2

    short = RadarObservation(np.zeros(4, dtype=complex), None, 0, 0.0, 0.0)
    with pytest.raises(ValueError, match="grid sizes"):
        background_subtract(a, short)


def test_two_stage_noise_variance_doubles():
    x = TxGrid(np.ones((512, 1), dtype=complex))
    sigma = 0.04
    energies = []
    for t in range(40):
        res = two_stage_capture(
            x, 3, 0.0, sigma, RngStream(5, 2 * t), RngStream(5, 2 * t + 1), _G1
        )
        energies.append(float(np.sum(np.abs(res.y_r) ** 2)))
    ratio = float(np.mean(energies)) / (2.0 * sigma)
    assert abs(ratio - 1.0) < 0.05


def test_two_stage_seed_discipline(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=8)
    x = synthesize_tx(pset, RngStream(0, 0))
    with pytest.raises(ValueError, match="root seed"):
        two_stage_capture(x, 1, 0.1, 0.01, RngStream(1, 0), RngStream(2, 1), _GEOM)
    with pytest.raises(ValueError, match="stream ids"):
        two_stage_capture(x, 1, 0.1, 0.01, RngStream(1, 3), RngStream(1, 3), _GEOM)


def test_two_stage_noiseless_exact(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=16)
    x = synthesize_tx(pset, RngStream(0, 0))
    res = two_stage_capture(x, 5, 0.4, 0.0, RngStream(8, 0), RngStream(8, 1),
                            geom=_GEOM)
    c = steered_projection(x, _GEOM)
    k = np.arange(16)
    echo = 0.4 * c * np.exp(2j * np.pi * 5 * k / 16)
    clutter_power = 10.0 * 0.4**2 * float(np.sum(np.abs(c) ** 2))
    assert float(np.sum(np.abs(res.y_r - echo) ** 2)) <= 1e-12 * clutter_power


def test_range_profile_flat_waveform_orthogonality(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=8)
    x = synthesize_tx(pset, RngStream(0, 0))
    obs = radar_return(x, 5, 1.0, 0.0, RngStream(0, 1), geom=_GEOM)
    prof = range_profile(obs, x, _GEOM)
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
    x = TxGrid(cvals[:, None])
    obs = radar_return(x, 3, 1.0, 0.0, RngStream(0, 1), geom=_G1)
    prof = range_profile(obs, x, _G1)
    z = obs.y_r * np.conj(cvals)
    manual = np.array(
        [abs(np.sum(z * np.exp(-2j * np.pi * k * n / nc))) for n in range(nc)]
    )
    assert np.allclose(prof.magnitudes, manual, atol=1e-9)
    assert prof.peak_bin == 3


def test_range_profile_tie_resolves_to_lowest_bin():
    nc = 8
    y = np.zeros(nc, dtype=complex)
    y[0] = 1.0
    obs = RadarObservation(y, None, 0, 1.0, 0.1)
    x = TxGrid(np.ones((nc, 1), dtype=complex))
    prof = range_profile(obs, x, _G1)
    assert np.allclose(prof.magnitudes, 1.0, atol=1e-12)
    assert prof.peak_bin == 0


def test_range_profile_zero_output_raises():
    nc = 8
    obs = RadarObservation(np.zeros(nc, dtype=complex), None, 0, 1.0, 0.1)
    x = TxGrid(np.ones((nc, 1), dtype=complex))
    with pytest.raises(UndefinedProfileError):
        range_profile(obs, x, _G1)


def test_noise_only_peak_stays_small(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=64)
    x = synthesize_tx(pset, RngStream(cfg.seed, 50))
    ratios = []
    for t in range(100):
        obs = radar_return(x, 0, 0.0, 0.05, RngStream(3, t), geom=_GEOM)
        prof = range_profile(obs, x, _GEOM)
        off = np.delete(prof.magnitudes, prof.peak_bin)
        ratios.append(float(prof.magnitudes[prof.peak_bin] / np.mean(off)))
    med = float(np.median(ratios))
    assert med == pytest.approx(2.4414815846520805, rel=1e-9)
    assert med < 3.0


def test_closed_form_snr_values(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=64)
    x = synthesize_tx(pset, RngStream(0, 0))
    sigma = 0.5
    expect = 0.1**2 * 63 * (cfg.total_power * 2) / sigma
    assert snr_rad_closed_form(x, 0.1, sigma, _GEOM) == pytest.approx(expect, rel=1e-9)
    assert snr_rad_closed_form(x, 0.0, sigma, _GEOM) == 0.0
    assert snr_rad_closed_form(x, 0.1, 0.0, _GEOM) == math.inf


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
        x = synthesize_tx(pset, RngStream(cfg.seed, 600 + i))
        gain = broadside_gain(x, _GEOM)
        sigma = beta**2 * (1024 - 1) * gain / 10**1.5  # closed form = 15 dB
        cf_db = 10 * math.log10(snr_rad_closed_form(x, beta, sigma, _GEOM))
        meas = []
        for t in range(20):
            obs = radar_return(x, 3, beta, sigma, RngStream(7, 100 * i + t),
                               geom=_GEOM)
            meas.append(range_profile(obs, x, _GEOM).snr_rad_db)
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
    x = synthesize_tx(pset, RngStream(cfg.seed, 200))
    beta, sigma, n0, h = 0.37, 0.8, 5.0, 1e-3
    c = steered_projection(x, _GEOM)
    k = np.arange(64)

    def g(n):
        mu0 = beta * c * np.exp(2j * np.pi * n0 * k / 64)
        mu = beta * c * np.exp(2j * np.pi * n * k / 64)
        return (64 / sigma) * float(np.sum(np.abs(mu0 - mu) ** 2))

    fd = (g(n0 + h) - 2 * g(n0) + g(n0 - h)) / h**2
    info = fisher_information(x, beta, sigma, _GEOM)
    assert abs(fd - info) / info < 1e-3


def test_crb_flat_waveform_closed_form(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=16)
    x = synthesize_tx(pset, RngStream(0, 0))
    beta, sigma = 0.2, 0.3
    sum_k2 = 15 * 16 * 31 / 6.0
    per_k = cfg.total_power * 2 / 16.0
    expect = sigma * 16 / (8 * math.pi**2 * beta**2 * per_k * sum_k2)
    assert crb(x, beta, sigma, _GEOM) == pytest.approx(expect, rel=1e-9)


def test_crb_parameter_scaling(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=16)
    x = synthesize_tx(pset, RngStream(0, 0))
    base = crb(x, 0.1, 0.065, _GEOM)
    assert math.isclose(crb(x, 0.2, 0.065, _GEOM), base / 4.0, rel_tol=1e-12)
    assert math.isclose(crb(x, 0.1, 0.195, _GEOM), base * 3.0, rel_tol=1e-12)


def test_crb_degenerate_inputs(make_channels):
    cfg, pset = _sensing_only(make_channels, nc=16)
    x = synthesize_tx(pset, RngStream(0, 0))
    assert fisher_information(x, 0.0, 0.1, _GEOM) == 0.0
    assert crb(x, 0.0, 0.1, _GEOM) == math.inf
    assert fisher_information(x, 0.1, 0.0, _GEOM) == math.inf
    assert crb(x, 0.1, 0.0, _GEOM) == 0.0


def test_dc_only_waveform_has_no_delay_information():
    grid = np.zeros((8, 1), dtype=complex)
    grid[0, 0] = 1.0
    x = TxGrid(grid)
    with pytest.raises(ZeroInformationError):
        fisher_information(x, 0.5, 0.1, _G1)
    with pytest.raises(ZeroInformationError):
        crb(x, 0.5, 0.1, _G1)


def test_bins_to_meters():
    assert bins_to_meters(1.0) == 299792458.0 / 2e8
    assert bins_to_meters(2.0, 100e6) == pytest.approx(2.99792458, rel=1e-12)
    assert bins_to_meters(1.0, 50e6) == pytest.approx(2.99792458, rel=1e-12)


def test_write_range_profile_csv(tmp_path):
    prof = RangeProfile(
        magnitudes=np.array([1.0, 0.0, 10.0]),
        peak_bin=2,
        snr_rad_db=20.0,
        crb_bins2=0.5,
    )
    path = tmp_path / "profile.csv"
    write_range_profile_csv(prof, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "bin,magnitude_db"
    assert lines[1] == "0,0.000000"
    assert lines[2] == "1,-inf"
    assert lines[3] == "2,20.000000"
    assert len(lines) == 4
