"""MCS table, SINR evaluation, and sum-throughput accounting."""

import dataclasses
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsma_isac import (
    DEFAULT_BANDWIDTH,
    MCS_TABLE,
    ArrayGeometry,
    ParameterPoint,
    PrecoderSet,
    RngStream,
    build_precoders,
    expected_sensing,
    generate_channels,
    max_mcs,
    scenario_preset,
    sinr_common,
    sinr_private,
    spectral_efficiency,
    stream_gains,
    throughput,
)
from rsma_isac.core import WORKSPACE
from rsma_isac.throughput import _MCS_RATES, _MCS_THRESHOLDS


def _indices(report):
    return tuple(int(index) for index in report.mcs_chosen)


def _score(channels, pset, cfg):
    """throughput() of precoders on a channel draw, from their gains at the users."""
    users, _ = stream_gains(channels, pset)
    return throughput(users, pset, cfg)


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
    users, _ = stream_gains(channels, pset)
    common, private = sinr_common(users, noise), sinr_private(users, noise)
    for ue, got_c, got_p in zip((1, 2), common, private):
        assert np.allclose(got_c, _brute_sinr(channels, pset, ue, noise, "common"))
        assert np.allclose(got_p, _brute_sinr(channels, pset, ue, noise, "private"))


def test_sinr_zero_common_power(make_channels):
    cfg, channels = make_channels(n_subcarriers=4)
    pset = build_precoders(ParameterPoint(1.0, 1.0, 1.0, 0.5, "MRT"), channels, cfg)
    common_1, _ = sinr_common(stream_gains(channels, pset)[0], cfg.noise_power_comms)
    assert np.all(common_1 == 0.0)


def test_sinr_interference_free(flat_channels, make_cfg):
    noise = 2e-4
    ch = flat_channels([1.0, 0.0], [0.0, 1.0], nc=4)
    cfg = make_cfg(n_subcarriers=4)
    pset = build_precoders(ParameterPoint(1.0, 1.0, 1.0, 1.0, "MRT"), ch, cfg)
    # each user sees only its own beam: SINR = (P/2/nc) / noise on every tone
    expect = (0.5 / 4) / noise
    for got in sinr_private(stream_gains(ch, pset)[0], noise):
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
    rep = _score(channels, pset, cfg)
    assert _indices(rep) == (-1, 9, 9)
    assert rep.t_sum == pytest.approx(2 * 487500000.0, rel=1e-12)
    assert not rep.collapsed


def test_throughput_common_collapse(make_channels):
    cfg, channels = make_channels(noise_power_comms=10.0)
    pset = build_precoders(ParameterPoint(1.0, 0.5, 0.5, 0.5, "MRT"), channels, cfg)
    rep = _score(channels, pset, cfg)
    assert rep.collapsed
    assert rep.t_sum == 0.0
    assert rep.t_private == (0.0, 0.0)
    assert _indices(rep) == (-1, -1, -1)


def test_throughput_sdma_never_collapses(make_channels):
    cfg, channels = make_channels(noise_power_comms=10.0)
    pset = build_precoders(ParameterPoint(1.0, 1.0, 1.0, 0.5, "MRT"), channels, cfg)
    rep = _score(channels, pset, cfg)
    assert not rep.collapsed
    assert rep.t_sum == 0.0
    assert _indices(rep) == (-1, -1, -1)


def test_throughput_sensing_only(make_channels):
    cfg, channels = make_channels()
    pset = build_precoders(ParameterPoint(0.0, 1.0, 1.0, 1.0, "MRT"), channels, cfg)
    rep = _score(channels, pset, cfg)
    assert rep.t_sum == 0.0
    assert not rep.collapsed
    assert _indices(rep) == (-1, -1, -1)


def test_throughput_sum_identity(make_channels):
    cfg, channels = make_channels()
    with_common = build_precoders(ParameterPoint(1.0, 0.5, 0.5, 0.5, "MRT"), channels, cfg)
    rep = _score(channels, with_common, cfg)
    assert rep.t_sum == rep.t_common + rep.t_private[0] + rep.t_private[1]
    assert rep.t_common > 0

    sdma = build_precoders(ParameterPoint(1.0, 1.0, 1.0, 0.5, "MRT"), channels, cfg)
    rep2 = _score(channels, sdma, cfg)
    assert rep2.t_common == 0.0
    assert rep2.t_sum == rep2.t_private[0] + rep2.t_private[1]


def test_throughput_gap_monotone(make_channels):
    prev_sum = None
    prev_rank = None
    for gap in (0.0, 1.0, 2.0, 4.0):
        cfg, channels = make_channels(shannon_gap_db=gap)
        pset = build_precoders(ParameterPoint(1.0, 0.5, 0.5, 0.5, "MRT"), channels, cfg)
        rep = _score(channels, pset, cfg)
        rank = _indices(rep)
        if prev_sum is not None:
            assert rep.t_sum <= prev_sum
            assert all(r <= p for r, p in zip(rank, prev_rank))
        prev_sum, prev_rank = rep.t_sum, rank


def test_throughput_batch_matches_points(make_channels):
    # Precoders stacked on a leading axis give, per batch entry, exactly
    # the single-point report: sum rate, stream rates, levels, collapse,
    # efficiencies and SINR grids. Each report's SINRs and efficiencies are
    # bit for bit those the public functions give on the same users row.
    knobs = [
        (1.0, 0.5, 0.5, 0.5),  # MRT at 0 dB: common stream fails, collapse
        (1.0, 1.0, 1.0, 0.5),  # SDMA, no common stream
        (0.6, 0.2, 0.9, 0.3),  # common stream carried
        (0.0, 1.0, 1.0, 1.0),  # sensing only
    ]
    for family, gap in (("MRT", 0.0), ("MRT", 3.0), ("ZF", 0.0), ("ZF", 3.0)):
        cfg, channels = make_channels(noise_power_comms=0.01, shannon_gap_db=gap)
        psets = [build_precoders(ParameterPoint(*k, family), channels, cfg) for k in knobs]
        batch = PrecoderSet(*(np.stack([getattr(ps, name) for ps in psets])
                              for name in ("p_c", "p_1", "p_2", "p_r")))
        reports = [_score(channels, ps, cfg) for ps in (batch, *psets)]
        for ps, report in zip((batch, *psets), reports):
            users, _ = stream_gains(channels, ps)
            noise = cfg.noise_power_comms
            sinr = (sinr_common(users, noise), sinr_private(users, noise))
            assert [[a.tobytes() for a in pair] for pair in report.sinr] == \
                [[a.tobytes() for a in pair] for pair in sinr]
            assert [[np.asarray(e).tobytes() for e in pair] for pair in report.efficiency] == \
                [[np.asarray(spectral_efficiency(a, gap)).tobytes() for a in pair]
                 for pair in sinr]
        rep, singles = reports[0], reports[1:]

        def fields(report):
            return (report.t_common, *report.t_private, report.t_sum, *report.mcs_chosen,
                    report.collapsed, *report.efficiency[0], *report.efficiency[1])

        assert rep.t_sum.shape == rep.collapsed.shape == (len(knobs),)
        for k, one in enumerate(singles):
            # a single point's report is the 0-d slice of the batch, dtype
            # included, and its SINR grids the batch's k-th rows
            for whole, single in zip(fields(rep), fields(one)):
                assert isinstance(single, np.ndarray) and single.shape == ()
                assert single.dtype == whole.dtype
                assert single == whole[k]
            for whole, single in zip((*rep.sinr[0], *rep.sinr[1]), (*one.sinr[0], *one.sinr[1])):
                assert single.tobytes() == whole[k].tobytes()
        assert int(rep.collapsed) == sum(int(one.collapsed) for one in singles)
        if (family, gap) == ("MRT", 0.0):
            assert int(rep.collapsed) == 1


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


_KNOB = st.sampled_from([0.0, 0.25, 0.5, 0.7, 1.0])
# A mix is a number or an axis; (t_comms, t_p) is one pair or a list of them.
_MIX = st.one_of(_KNOB, st.lists(_KNOB, min_size=1, max_size=3).map(tuple))
_PAIRS = st.one_of(st.tuples(_KNOB, _KNOB), st.lists(st.tuples(_KNOB, _KNOB), min_size=1,
                                                     max_size=3))


@settings(deadline=None, max_examples=40)
@given(
    n_tx=st.integers(1, 4),
    zf=st.booleans(),
    csit_error_var=st.sampled_from([0.0, 1e-3]),
    angle=st.floats(-60.0, 60.0),
    pairs=_PAIRS,
    alpha_c=_MIX,
    alpha_p=_MIX,
)
def test_target_row_is_the_per_stream_steered_power(
    n_tx, zf, csit_error_var, angle, pairs, alpha_c, alpha_p
):
    # stream_gains' target row is, bit for bit, each stream's |a^H p|²
    # along the target's steering, whatever the batch shape; and a batch's
    # entries equal each point's own.
    cfg = dataclasses.replace(scenario_preset("S2"), n_subcarriers=16,
                              csit_error_var=csit_error_var, target_angle_deg=angle)
    channels = generate_channels(cfg, ArrayGeometry(n_tx, 0.5), RngStream(cfg.seed, 0))
    family = "ZF" if zf and n_tx >= 2 else "MRT"
    t, tp = (tuple(knobs) for knobs in zip(*pairs)) if isinstance(pairs, list) else pairs
    pset = build_precoders(ParameterPoint(t, tp, alpha_c, alpha_p, family), channels, cfg)
    streams = (pset.p_c, pset.p_1, pset.p_2, pset.p_r)
    _, target = stream_gains(channels, pset)
    assert len(target) == 4
    for row, p in zip(target, streams):
        oracle = np.abs(np.einsum("t,...kt->...k", np.conj(channels.target_steering), p))
        np.square(oracle, out=oracle)
        assert row.shape == p.shape[:-1]
        assert row.tobytes() == oracle.tobytes()
    knobs = [np.asarray(knob) for knob in (t, tp, alpha_c, alpha_p)]
    batch = knobs[0].shape + knobs[2].shape + knobs[3].shape
    rows = [np.broadcast_to(row, batch + row.shape[-1:]) for row in target]
    for index in np.ndindex(batch):
        pair, rest = index[:knobs[0].ndim], index[knobs[0].ndim:]
        point = ParameterPoint(float(knobs[0][pair]), float(knobs[1][pair]),
                               float(knobs[2][rest[:knobs[2].ndim]]),
                               float(knobs[3][rest[knobs[2].ndim:]]), family)
        _, own = stream_gains(channels, build_precoders(point, channels, cfg))
        for row, single in zip(rows, own):
            assert row[index].tobytes() == single.tobytes(), (point, index)


def _arrays(value) -> list[np.ndarray]:
    """Every array in a nest of tuples, lists and dataclasses; numpy scalars
    and Python numbers own no memory a later call could write."""
    if isinstance(value, np.ndarray):
        return [value]
    if dataclasses.is_dataclass(value):
        value = [getattr(value, field.name) for field in dataclasses.fields(value)]
    if isinstance(value, (tuple, list)):
        return [array for item in value for array in _arrays(item)]
    return []


def _score_chunk(channels, pset, cfg) -> list[np.ndarray]:
    """Every array a sweep chunk's scoring returns: the gains, the throughput
    report with its SINRs and efficiencies, g0 and the CRB."""
    users, target = stream_gains(channels, pset)
    return _arrays((users, target, throughput(users, pset, cfg),
                    expected_sensing(target, cfg)))


def _chunks(make_channels) -> list[tuple]:
    """Two chunks of different sizes, families and gaps, to score in turn."""
    chunks = []
    for nc, family, gap, axis in ((16, "MRT", 0.0, (0.0, 0.4, 1.0)),
                                  (64, "ZF", 3.0, (0.0, 0.25, 0.5, 0.75, 1.0))):
        cfg, channels = make_channels(n_subcarriers=nc, csit_error_var=1e-3,
                                      ue_angles_deg=(-20.0, 35.0), shannon_gap_db=gap)
        pp = ParameterPoint((0.3, 0.8, 1.0), (0.5, 0.25, 0.75), axis, axis, family)
        chunks.append((channels, build_precoders(pp, channels, cfg), cfg))
    return chunks


def test_scoring_returns_no_view_of_the_workspace(make_channels):
    # The scoring path writes its chunk-sized temporaries into the calling
    # thread's resident buffers, but what it returns is its own: no array
    # shares memory with a buffer, and a chunk's results stay as they were
    # while a larger chunk of another family and gap is scored after it.
    first, second = _chunks(make_channels)
    got = _score_chunk(*first)
    kept = [array.copy() for array in got]
    assert {0, 1} <= set(WORKSPACE.buffers)
    got_second = _score_chunk(*second)
    for array in got + got_second:
        assert array.size and not any(np.shares_memory(array, buffer)
                                      for buffer in WORKSPACE.buffers.values())
    assert all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, kept))
    # Those include the report's SINR grids and efficiencies: an efficiency
    # is the mean of the log grid in slot 0, never a view of it.
    report = _score(*second)
    scored = _arrays((report.sinr, report.efficiency))
    assert len(scored) == 8 and not any(
        np.shares_memory(array, WORKSPACE.buffers[0]) for array in scored
    )


def test_threads_scoring_chunks_get_their_sequential_results(make_channels):
    # Each thread has its own workspace, so two threads scoring different
    # chunks at once, switching as often as the interpreter allows, get
    # what each chunk gives on one thread.
    chunks = _chunks(make_channels)
    want = [[a.tobytes() for a in _score_chunk(*chunk)] for chunk in chunks]
    got = [[], []]

    def run(i):
        for _ in range(10):
            got[i].append([a.tobytes() for a in _score_chunk(*chunks[i])])

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
