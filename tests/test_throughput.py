"""MCS table, SINR evaluation, and sum-throughput accounting."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsma_isac import (
    DEFAULT_BANDWIDTH,
    MCS_TABLE,
    ParameterPoint,
    PrecoderSet,
    build_precoders,
    max_mcs,
    sinr_common,
    sinr_private,
    spectral_efficiency,
    stream_gains,
    throughput,
)
from rsma_isac.throughput import _MCS_RATES, _MCS_THRESHOLDS


def _indices(report):
    return tuple(int(index) for index in report.mcs_chosen)


def test_default_bandwidth():
    # 100 MHz less a 1/4 cyclic prefix, on 468 of 512 subcarriers
    assert DEFAULT_BANDWIDTH == 73125000.0
    assert DEFAULT_BANDWIDTH == 100e6 * (512 / (512 + 128)) * (468 / 512)


def test_mcs_table_densities():
    expect = [
        Fraction(1, 2),
        Fraction(3, 4),
        Fraction(1),
        Fraction(3, 2),
        Fraction(2),
        Fraction(3),
        Fraction(4),
        Fraction(9, 2),
        Fraction(6),
        Fraction(20, 3),
    ]
    assert len(MCS_TABLE) == 10
    for i, (_, m, r) in enumerate(MCS_TABLE):
        assert m * r == expect[i]
        # the threshold max_mcs searches is the first float above m·r
        threshold = Fraction(_MCS_THRESHOLDS[i])
        assert Fraction(np.nextafter(_MCS_THRESHOLDS[i], -np.inf)) <= m * r < threshold


def test_mcs_data_rates():
    # rate = bandwidth * bits_per_symbol * code_rate, checked against exact
    # rational arithmetic at six significant figures, on the rates
    # throughput() scores with; the entry after the table is "no level", 0
    bw = Fraction(73125000)
    assert len(_MCS_RATES) == len(MCS_TABLE) + 1 and _MCS_RATES[-1] == 0.0
    for (_, m, r), rate in zip(MCS_TABLE, _MCS_RATES.tolist()):
        exact = bw * m * r
        assert math.isclose(rate, float(exact), rel_tol=1e-6)
    assert _MCS_RATES[9] == 487500000.0


@pytest.mark.parametrize(
    "eff,index",
    [
        (2.1, 4),
        (0.4, -1),
        (7.0, 9),
        (2.0, 3),
        (0.5, -1),
        (0.5000001, 0),
        (1e9, 9),
    ],
)
def test_max_mcs_selection(eff, index):
    assert max_mcs(eff) == index


def test_max_mcs_negative_raises():
    with pytest.raises(ValueError):
        max_mcs(-0.1)


def _oracle_mcs(eff: float) -> int:
    """The exact rule, level by level in rational arithmetic; -1 when none fits."""
    if eff < 0:
        raise ValueError("spectral efficiency cannot be negative")
    exact = Fraction(eff)
    for index in reversed(range(len(MCS_TABLE))):
        _, m, r = MCS_TABLE[index]
        if m * r < exact:
            return index
    return -1


# Every m·r as the nearest float, with the floats on either side of it.
_DENSITY_EDGES = sorted(
    {
        float(x)
        for _, m, r in MCS_TABLE
        for d in (float(m * r),)
        for x in (np.nextafter(d, -np.inf), d, np.nextafter(d, np.inf))
    }
)
_EFFICIENCIES = st.one_of(
    st.sampled_from(_DENSITY_EDGES),
    st.floats(0.0, 12.0, allow_nan=False),
    st.just(0.0),
)


def test_max_mcs_matches_oracle_at_every_density_edge():
    for eff in _DENSITY_EDGES:
        assert max_mcs(eff) == _oracle_mcs(eff)
    batched = max_mcs(np.array(_DENSITY_EDGES))
    assert batched.shape == (len(_DENSITY_EDGES),)
    assert batched.tolist() == [_oracle_mcs(e) for e in _DENSITY_EDGES]


@given(_EFFICIENCIES)
def test_max_mcs_scalar_matches_oracle(eff):
    assert max_mcs(eff) == _oracle_mcs(eff)


@given(st.lists(_EFFICIENCIES, min_size=1, max_size=24), st.booleans())
def test_max_mcs_array_matches_oracle(effs, as_matrix):
    arr = np.array(effs)
    if as_matrix and len(effs) % 2 == 0:
        arr = arr.reshape(2, -1)
    got = max_mcs(arr)
    assert got.shape == arr.shape
    assert got.ravel().tolist() == [_oracle_mcs(e) for e in arr.ravel()]


@pytest.mark.parametrize(
    "bad", [math.nan, -1e-300, np.array([1.0, math.nan]), np.array([[2.0], [-0.5]])]
)
def test_max_mcs_rejects_nan_and_negative(bad):
    with pytest.raises(ValueError):
        max_mcs(bad)


@given(st.floats(0.0, 10.0, allow_nan=False), st.floats(0.0, 10.0, allow_nan=False))
def test_max_mcs_monotone(a, b):
    lo, hi = sorted((a, b))
    assert max_mcs(lo) <= max_mcs(hi)


def test_spectral_efficiency_gap():
    assert spectral_efficiency(np.array([3.0]), 0.0) == pytest.approx(2.0)
    gap_db = 10 * math.log10(3.0)
    assert spectral_efficiency(np.array([3.0]), gap_db) == pytest.approx(1.0)
    assert spectral_efficiency(np.array([0.0]), 0.0) == 0.0
    # averaging over tones
    assert spectral_efficiency(np.array([1.0, 3.0]), 0.0) == pytest.approx(1.5)


def _brute_sinr(channels, pset, ue, noise, stream):
    # scalar re-derivation: common sees both private beams as interference,
    # private sees only the other private beam (common removed by SIC, the
    # sensing waveform is known and subtracted)
    h = channels.true_channels[ue - 1]
    nc = h.shape[0]
    out = np.empty(nc)
    if stream == "common":
        own = pset.p_c
        others = (pset.p_1, pset.p_2)
    else:
        own = pset.p_1 if ue == 1 else pset.p_2
        others = (pset.p_2 if ue == 1 else pset.p_1,)
    for k in range(nc):
        sig = abs(np.vdot(h[k], own[k])) ** 2
        interf = sum(abs(np.vdot(h[k], p[k])) ** 2 for p in others)
        out[k] = sig / (noise + interf)
    return out


def test_sinr_matches_bruteforce(make_channels):
    cfg, channels = make_channels(n_subcarriers=5, ue_angles_deg=(-37.0, 12.0))
    pset = build_precoders(ParameterPoint(0.7, 0.6, 0.4, 0.55, "MRT"), channels, cfg)
    noise = cfg.noise_power_comms
    gains = stream_gains(channels, pset)
    for ue in (1, 2):
        got_c = sinr_common(gains, ue, noise)
        got_p = sinr_private(gains, ue, noise)
        assert np.allclose(got_c, _brute_sinr(channels, pset, ue, noise, "common"))
        assert np.allclose(got_p, _brute_sinr(channels, pset, ue, noise, "private"))


def test_sinr_rejects_bad_ue(make_channels):
    cfg, channels = make_channels(n_subcarriers=4)
    pset = build_precoders(ParameterPoint(0.5, 0.5, 0.5, 0.5, "MRT"), channels, cfg)
    gains = stream_gains(channels, pset)
    with pytest.raises(ValueError):
        sinr_common(gains, 0, cfg.noise_power_comms)
    with pytest.raises(ValueError):
        sinr_private(gains, 3, cfg.noise_power_comms)


def test_sinr_zero_common_power(make_channels):
    cfg, channels = make_channels(n_subcarriers=4)
    pset = build_precoders(ParameterPoint(1.0, 1.0, 1.0, 0.5, "MRT"), channels, cfg)
    assert np.all(sinr_common(stream_gains(channels, pset), 1, cfg.noise_power_comms) == 0.0)


def test_sinr_interference_free(flat_channels, make_cfg):
    noise = 2e-4
    ch = flat_channels([1.0, 0.0], [0.0, 1.0], nc=4)
    cfg = make_cfg(n_subcarriers=4)
    pset = build_precoders(ParameterPoint(1.0, 1.0, 1.0, 1.0, "MRT"), ch, cfg)
    # each user sees only its own beam: SINR = (P/2/nc) / noise on every tone
    expect = (0.5 / 4) / noise
    for ue in (1, 2):
        got = sinr_private(stream_gains(ch, pset), ue, noise)
        assert np.allclose(got, expect, rtol=1e-12)


def test_zf_private_sinr_has_no_cross_interference(make_channels):
    cfg, channels = make_channels(n_subcarriers=32, ue_angles_deg=(42.0, 51.0))
    noise = cfg.noise_power_comms
    zf = build_precoders(ParameterPoint(1.0, 1.0, 1.0, 1.0, "ZF"), channels, cfg)
    for ue in (1, 2):
        h = channels.true_channels[ue - 1]
        other = zf.p_2 if ue == 1 else zf.p_1
        leak = np.abs(np.einsum("kt,kt->k", np.conj(h), other)) ** 2
        assert np.max(leak) < 1e-10 * noise


def test_throughput_sdma_top_mcs(make_channels):
    cfg, channels = make_channels(noise_power_comms=1e-5)
    pset = build_precoders(ParameterPoint(1.0, 1.0, 1.0, 1.0, "MRT"), channels, cfg)
    rep = throughput(channels, pset, cfg)
    assert _indices(rep) == (-1, 9, 9)
    assert rep.t_sum == pytest.approx(2 * 487500000.0, rel=1e-12)
    assert not rep.collapsed


def test_throughput_common_collapse(make_channels):
    cfg, channels = make_channels(noise_power_comms=10.0)
    pset = build_precoders(ParameterPoint(1.0, 0.5, 0.5, 0.5, "MRT"), channels, cfg)
    rep = throughput(channels, pset, cfg)
    assert rep.collapsed
    assert rep.t_sum == 0.0
    assert rep.t_private == (0.0, 0.0)
    assert _indices(rep) == (-1, -1, -1)


def test_throughput_sdma_never_collapses(make_channels):
    cfg, channels = make_channels(noise_power_comms=10.0)
    pset = build_precoders(ParameterPoint(1.0, 1.0, 1.0, 0.5, "MRT"), channels, cfg)
    rep = throughput(channels, pset, cfg)
    assert not rep.collapsed
    assert rep.t_sum == 0.0
    assert _indices(rep) == (-1, -1, -1)


def test_throughput_sensing_only(make_channels):
    cfg, channels = make_channels()
    pset = build_precoders(ParameterPoint(0.0, 1.0, 1.0, 1.0, "MRT"), channels, cfg)
    rep = throughput(channels, pset, cfg)
    assert rep.t_sum == 0.0
    assert not rep.collapsed
    assert _indices(rep) == (-1, -1, -1)


def test_throughput_sum_identity(make_channels):
    cfg, channels = make_channels()
    with_common = build_precoders(ParameterPoint(1.0, 0.5, 0.5, 0.5, "MRT"), channels, cfg)
    rep = throughput(channels, with_common, cfg)
    assert rep.t_sum == rep.t_common + rep.t_private[0] + rep.t_private[1]
    assert rep.t_common > 0

    sdma = build_precoders(ParameterPoint(1.0, 1.0, 1.0, 0.5, "MRT"), channels, cfg)
    rep2 = throughput(channels, sdma, cfg)
    assert rep2.t_common == 0.0
    assert rep2.t_sum == rep2.t_private[0] + rep2.t_private[1]


def test_throughput_gap_monotone(make_channels):
    prev_sum = None
    prev_rank = None
    for gap in (0.0, 1.0, 2.0, 4.0):
        cfg, channels = make_channels(shannon_gap_db=gap)
        pset = build_precoders(ParameterPoint(1.0, 0.5, 0.5, 0.5, "MRT"), channels, cfg)
        rep = throughput(channels, pset, cfg)
        rank = _indices(rep)
        if prev_sum is not None:
            assert rep.t_sum <= prev_sum
            assert all(r <= p for r, p in zip(rank, prev_rank))
        prev_sum, prev_rank = rep.t_sum, rank


def test_throughput_batch_matches_points(make_channels):
    # Precoders stacked on a leading axis give, per batch entry, exactly
    # the single-point report: sum rate, stream rates, levels, collapse.
    cfg, channels = make_channels(noise_power_comms=0.01)
    points = [
        ParameterPoint(1.0, 0.5, 0.5, 0.5, "MRT"),  # common stream fails: collapse
        ParameterPoint(1.0, 1.0, 1.0, 0.5, "MRT"),  # SDMA, no common stream
        ParameterPoint(0.6, 0.2, 0.9, 0.3, "MRT"),  # common stream carried
        ParameterPoint(0.0, 1.0, 1.0, 1.0, "MRT"),  # sensing only
    ]
    psets = [build_precoders(pp, channels, cfg) for pp in points]
    batch = PrecoderSet(
        *(np.stack([getattr(ps, name) for ps in psets]) for name in ("p_c", "p_1", "p_2", "p_r"))
    )
    rep = throughput(channels, batch, cfg)
    singles = [throughput(channels, ps, cfg) for ps in psets]

    def fields(report):
        return (report.t_common, *report.t_private, report.t_sum, *report.mcs_chosen,
                report.collapsed)

    assert rep.t_sum.shape == rep.collapsed.shape == (len(points),)
    for k, one in enumerate(singles):
        # a single point's report is the 0-d slice of the batch, dtype included
        for whole, single in zip(fields(rep), fields(one)):
            assert isinstance(single, np.ndarray) and single.shape == ()
            assert single.dtype == whole.dtype
            assert single == whole[k]
    assert int(rep.collapsed) == sum(int(one.collapsed) for one in singles) == 1


def _subcarriers_innermost(grid):
    """The same (…, N_c, N_T) values, stored with subcarriers innermost."""
    return np.ascontiguousarray(grid.swapaxes(-1, -2)).swapaxes(-1, -2)


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_tx=st.integers(1, 8),
    nc=st.integers(1, 600),
    batch=st.integers(1, 4),
)
def test_projection_bits_do_not_depend_on_memory_order(seed, n_tx, nc, batch):
    # stream_gains projects subcarrier-innermost precoders onto
    # subcarrier-innermost channel rows; the sums over antennas must give
    # the bits the C-ordered operands give, over 16 decades of magnitude.
    rng = np.random.default_rng(seed)

    def draw(shape):
        mag = 10.0 ** rng.uniform(-8.0, 8.0, size=shape)
        return mag * np.exp(2j * np.pi * rng.uniform(size=shape))

    h_conj, p = np.conj(draw((nc, n_tx))), draw((batch, nc, n_tx))
    c_ordered = np.einsum("kt,...kt->...k", h_conj, p)
    innermost = np.einsum(
        "kt,...kt->...k", _subcarriers_innermost(h_conj), _subcarriers_innermost(p)
    )
    assert np.array_equal(
        np.ascontiguousarray(c_ordered).view(np.uint64),
        np.ascontiguousarray(innermost).view(np.uint64),
    )
