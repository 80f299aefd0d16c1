"""Parametric precoder construction: directions, powers, special cases."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsma_isac import (
    CASE_TAGS,
    ArrayGeometry,
    BlendTable,
    ChannelSet,
    ConfigError,
    DegenerateDirectionError,
    ParameterPoint,
    RankDeficientChannelError,
    RngStream,
    ScenarioConfig,
    build_precoders,
    case_codes,
    common_direction,
    generate_channels,
    private_directions,
    scenario_preset,
)

_GEOM = ArrayGeometry(n_tx=2, spacing_wavelengths=0.5)
_CFG = ScenarioConfig(
    n_subcarriers=8,
    total_power=1.0,
    noise_power_comms=2e-4,
    noise_power_radar=0.065,
    ue_angles_deg=(-40.0, 25.0),
    ue_gains=(1.0, 1.0),
    target_angle_deg=0.0,
    target_delay_bins=3,
    target_attenuation=0.1,
    csit_error_var=0.0,
    shannon_gap_db=0.0,
    seed=3,
)
_CHANNELS = generate_channels(_CFG, _GEOM, RngStream(_CFG.seed, 0))

_unit = st.floats(0.0, 1.0, allow_nan=False)


def test_parameter_point_validation():
    with pytest.raises(ValueError):
        ParameterPoint(1.2, 0.0, 0.0, 0.0, "MRT")
    with pytest.raises(ValueError):
        ParameterPoint(0.5, -0.1, 0.0, 0.0, "MRT")
    with pytest.raises(ValueError):
        ParameterPoint(0.5, 0.5, 0.5, 0.5, family="QR")
    # A family that is not a string is a configuration error, not a crash.
    with pytest.raises(ConfigError, match="family must be one of"):
        ParameterPoint(0.5, 0.5, 0.5, 0.5, 5)
    # bools, non-finite values and strings are not knob values, on an axis too
    for knobs in ((True, 1.0, 1.0, 0.5), (0.5, 0.5, (0.0, True), 0.5),
                  (0.5, math.nan, 0.5, 0.5), (0.5, 0.5, 0.5, "0.5")):
        with pytest.raises(ConfigError, match="finite number in"):
            ParameterPoint(*knobs, "MRT")
    # (t_comms, t_p) pairs are two tuples of one length, each entry a knob
    # value; a point takes numbers or tuples, never lists
    for knobs in (((0.5, 0.6), (0.5,), 0.5, 0.5), ((0.5, 0.6), 0.5, 0.5, 0.5),
                  (0.5, (0.5, 0.6), 0.5, 0.5), ((), (0.5,), 0.5, 0.5)):
        with pytest.raises(ConfigError, match="tuples of one length"):
            ParameterPoint(*knobs, "MRT")
    for knobs in (((0.5, True), (0.5, 0.5), 0.5, 0.5), ((0.5, 0.5), (0.5, math.nan), 0.5, 0.5),
                  ((0.5, 1.5), (0.5, 0.5), 0.5, 0.5), ((0.5, 0.5), (-0.1, 0.5), 0.5, 0.5),
                  ((0.5, math.inf), (0.5, 0.5), 0.5, 0.5), ([0.5, 0.6], [0.5, 0.5], 0.5, 0.5)):
        with pytest.raises(ConfigError, match="finite number in"):
            ParameterPoint(*knobs, "MRT")
    pairs = ParameterPoint((0.0, 1.0), (1.0, 0.0), (0.5,), 0.5, "MRT")
    assert (pairs.t_comms, pairs.t_p) == ((0.0, 1.0), (1.0, 0.0))
    pp = ParameterPoint(0.5, 0.5, 0.5, 0.5, family="zf")
    assert pp.family == "ZF"
    assert dataclasses.astuple(pp) == (0.5, 0.5, 0.5, 0.5, "ZF")


def test_common_direction_identical_users(flat_channels):
    u = np.array([1.0, 1.0j]) / math.sqrt(2)
    ch = flat_channels(u, u, nc=4)
    uc = common_direction(ch)
    assert np.allclose(uc, np.tile(u, (4, 1)), atol=1e-12)


def test_common_direction_orthogonal_users(flat_channels):
    ch = flat_channels([1.0, 0.0], [0.0, 1.0], nc=4)
    uc = common_direction(ch)
    expect = np.array([1.0, 1.0]) / math.sqrt(2)
    assert np.allclose(uc, np.tile(expect, (4, 1)), atol=1e-12)


def test_common_direction_antipodal_raises(flat_channels):
    ch = flat_channels([1.0, 0.0], [-1.0, 0.0], nc=4)
    with pytest.raises(DegenerateDirectionError, match="antipodal"):
        common_direction(ch)


def test_vanished_private_blend_raises():
    # User 1's estimate is -u0 on every subcarrier, so at alpha_p = 0.5 its
    # private blend sqrt(0.5)*(-u0) + sqrt(0.5)*u0 is exactly zero. t_p = 1
    # gives the common stream no power, so its direction is never formed.
    u0 = _CHANNELS.target_unit
    est = np.stack([np.tile(-u0, (_CFG.n_subcarriers, 1)), _CHANNELS.unit_est[1]])
    channels = ChannelSet(est.copy(), est.copy(), est.copy(), _CHANNELS.target_steering)
    v, total = BlendTable(channels, "MRT", [1.0], [0.5]).private
    assert np.all(v[0] == 0.0) and total[0, 0] == 0.0 and total[1, 0] > 0.0
    with pytest.raises(DegenerateDirectionError, match="vanished"):
        build_precoders(ParameterPoint(1.0, 1.0, 1.0, 0.5, "MRT"), channels, _CFG)


def test_private_directions_mrt_are_unit_estimates():
    dirs = private_directions(_CHANNELS, "MRT")
    assert np.array_equal(dirs, _CHANNELS.unit_est)


def test_zf_equals_mrt_for_orthogonal_channels(flat_channels):
    ch = flat_channels([1.0, 0.0], [0.0, 1.0], nc=4)
    zf = private_directions(ch, "ZF")
    mrt = private_directions(ch, "MRT")
    assert np.allclose(zf, mrt, atol=1e-12)


def test_zf_nulls_cross_user():
    dirs = private_directions(_CHANNELS, "ZF")
    for i, j in ((0, 1), (1, 0)):
        cross = np.abs(
            np.einsum("kt,kt->k", np.conj(_CHANNELS.est_channels[j]), dirs[i])
        )
        assert np.max(cross) < 1e-10
        norms = np.linalg.norm(dirs[i], axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_zf_near_parallel_channels_stay_unit_and_null(flat_channels):
    u1 = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    u2 = u1 + 0.044 * v
    u2 = u2 / np.linalg.norm(u2)
    assert abs(np.vdot(u1, u2)) > 0.999
    ch = flat_channels(u1, u2, nc=4)
    dirs = private_directions(ch, "ZF")
    norms = np.linalg.norm(dirs, axis=2)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    cross = abs(np.vdot(ch.est_channels[1][0], dirs[0][0]))
    assert cross < 1e-10


def test_zf_rank_deficient_raises(flat_channels):
    ch = flat_channels([1.0, 0.5], [2.0, 1.0], nc=4)
    with pytest.raises(RankDeficientChannelError):
        private_directions(ch, "ZF")


@settings(deadline=None)
@given(t=_unit, tp=_unit, ac=_unit, ap=_unit, family=st.sampled_from(["MRT", "ZF"]))
def test_power_conservation(t, tp, ac, ap, family):
    pp = ParameterPoint(t, tp, ac, ap, family)
    pset = build_precoders(pp, _CHANNELS, _CFG)
    total = sum(pset.stream_powers().values())
    assert abs(total - _CFG.total_power) <= 1e-9 * _CFG.total_power


_AXIS = (0.0, 0.25, 0.5, 0.75, 1.0)
_SUB_AXES = st.lists(st.sampled_from(_AXIS), min_size=1, unique=True).map(sorted).map(tuple)


@settings(deadline=None, max_examples=60)
@given(
    t=_unit,
    tp=_unit,
    ac_axis=_SUB_AXES,
    ap_axis=_SUB_AXES,
    family=st.sampled_from(["MRT", "ZF"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_build_equals_point_build(t, tp, ac_axis, ap_axis, family, seed):
    # One build per block from a shared blend table gives, at every
    # (alpha_c, alpha_p) of the block, exactly the point's own precoders,
    # and both equal the blend-then-scale expression stream by stream.
    cfg = dataclasses.replace(_CFG, seed=seed, csit_error_var=1e-2)
    channels = generate_channels(cfg, _GEOM, RngStream(seed, 0))
    block = build_precoders(
        ParameterPoint(t, tp, ac_axis, ap_axis, family), channels, cfg,
        BlendTable(channels, family, ac_axis, ap_axis),
    )
    assert block.p_c.shape[:2] == (len(ac_axis), 1)
    assert block.p_1.shape[:2] == block.p_2.shape[:2] == (1, len(ap_axis))
    u0 = channels.target_unit
    p_common = cfg.total_power * t * (1.0 - tp)
    p_private = cfg.total_power * t * tp / 2.0
    for i, ac in enumerate(ac_axis):
        for j, ap in enumerate(ap_axis):
            single = build_precoders(ParameterPoint(t, tp, ac, ap, family), channels, cfg)
            assert (block.p_c[i, 0] == single.p_c).all()
            assert (block.p_1[0, j] == single.p_1).all()
            assert (block.p_2[0, j] == single.p_2).all()
            assert (block.p_r == single.p_r).all()
            if p_common > 0.0:
                ref = _blend(p_common, ac, common_direction(channels), u0)
                assert (single.p_c == ref).all()
            if p_private > 0.0:
                dirs = private_directions(channels, family)
                assert (single.p_1 == _blend(p_private, ap, dirs[0], u0)).all()
                assert (single.p_2 == _blend(p_private, ap, dirs[1], u0)).all()


_PAIRS = st.lists(
    st.tuples(st.sampled_from(_AXIS), st.sampled_from(_AXIS)), min_size=1, max_size=4
)


@settings(deadline=None, max_examples=60)
@given(
    pairs=_PAIRS,
    ac_axis=_SUB_AXES,
    ap_axis=_SUB_AXES,
    family=st.sampled_from(["MRT", "ZF"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_batch_equals_point_builds(pairs, ac_axis, ap_axis, family, seed):
    # A leading axis of (t_comms, t_p) pairs gives, at every (pair,
    # alpha_c, alpha_p), the point's own four precoders bit for bit, signed
    # zeros included. A stream with no power in any pair is exact zeros and
    # its direction stays uncomputed in the table.
    cfg = dataclasses.replace(_CFG, seed=seed, csit_error_var=1e-2)
    channels = generate_channels(cfg, _GEOM, RngStream(seed, 0))
    t, tp = (tuple(column) for column in zip(*pairs))
    table = BlendTable(channels, family, ac_axis, ap_axis)
    batch = build_precoders(ParameterPoint(t, tp, ac_axis, ap_axis, family), channels, cfg, table)
    n = len(pairs)
    assert batch.p_c.shape[:3] == (n, len(ac_axis), 1)
    assert batch.p_1.shape[:3] == batch.p_2.shape[:3] == (n, 1, len(ap_axis))
    assert batch.p_r.shape[:3] == (n, 1, 1)
    for k, (tk, tpk) in enumerate(pairs):
        for i, ac in enumerate(ac_axis):
            for j, ap in enumerate(ap_axis):
                single = build_precoders(ParameterPoint(tk, tpk, ac, ap, family), channels, cfg)
                for got, want in (
                    (batch.p_c[k, i, 0], single.p_c), (batch.p_1[k, 0, j], single.p_1),
                    (batch.p_2[k, 0, j], single.p_2), (batch.p_r[k, 0, 0], single.p_r),
                ):
                    assert got.tobytes() == want.tobytes()
    powered = {
        "common": any(tk > 0.0 and tpk < 1.0 for tk, tpk in pairs),
        "private": any(tk > 0.0 and tpk > 0.0 for tk, tpk in pairs),
    }
    grids = {"common": (batch.p_c,), "private": (batch.p_1, batch.p_2)}
    for stream, on in powered.items():
        assert (stream in table.__dict__) == on
        if not on:
            assert all(p.tobytes() == bytes(p.nbytes) for p in grids[stream])
    if all(tk == 1.0 for tk, _ in pairs):
        assert batch.p_r.tobytes() == bytes(batch.p_r.nbytes)


@pytest.mark.parametrize("family", ["MRT", "ZF"])
def test_grids_keep_subcarriers_innermost(family):
    # Table rows and every grid scaled from them (a block of rows, the
    # whole axis, a point) or built as zeros keep subcarriers innermost in
    # memory, so the gain projections sum over contiguous subcarriers. Each
    # T(alpha) is still summed in C order.
    table = BlendTable(_CHANNELS, family, _AXIS, _AXIS)
    for v, total in (table.common, table.private):
        assert v.strides[-2] == v.itemsize
        for s, i in np.ndindex(total.shape):
            assert total[s, i] == np.sum(np.abs(np.ascontiguousarray(v[s, i])) ** 2)
    for pp, tbl in (
        (ParameterPoint(0.5, 0.5, (0.0, 0.5), (0.25, 1.0), family),
         BlendTable(_CHANNELS, family, (0.0, 0.5), (0.25, 1.0))),
        (ParameterPoint(0.5, 0.5, _AXIS, _AXIS, family), table),
        (ParameterPoint(0.7, 0.4, 0.3, 0.6, family), None),
        (ParameterPoint(1.0, 1.0, 0.3, 0.6, family), None),
        (ParameterPoint(0.0, 1.0, 1.0, 1.0, family), None),
    ):
        pset = build_precoders(pp, _CHANNELS, _CFG, tbl)
        for p in (pset.p_c, pset.p_1, pset.p_2, pset.p_r):
            assert p.strides[-2] == p.itemsize, (pp, p.strides)


@pytest.mark.parametrize("family", ["MRT", "ZF"])
@pytest.mark.parametrize("nc, csit", [(16, 0.0), (64, 1e-2), (512, 1e-2)])
def test_blend_table_rows_are_the_per_row_blends(family, nc, csit):
    # The table blends every alpha at once; each row, and its T summed
    # from the C-ordered row, is what blending that one alpha gives, bit
    # for bit. ZF's direction stack is not C-contiguous.
    cfg = dataclasses.replace(scenario_preset("S2"), n_subcarriers=nc, csit_error_var=csit)
    channels = generate_channels(cfg, _GEOM, RngStream(cfg.seed, 0))
    alphas = (0.0, 0.1, 0.35, 0.5, 0.8, 1.0)
    table = BlendTable(channels, family, alphas, alphas)
    u0 = channels.target_unit
    for (v, total), steered in (
        (table.common, common_direction(channels)[None]),
        (table.private, private_directions(channels, family)),
    ):
        for s, d in enumerate(steered):
            for i, alpha in enumerate(alphas):
                row = np.sqrt(alpha) * d + np.sqrt(1.0 - alpha) * u0[None, :]
                assert v[s, i].tobytes() == row.tobytes()
                assert total[s, i] == np.sum(np.abs(row) ** 2)


def test_stream_powers_keep_their_summation_order():
    # Point-eval's stream powers for this S2 point at 512 subcarriers,
    # summed in C order. Summed in the memory order of the
    # subcarrier-innermost grids instead, the common power reads 0.35.
    cfg = scenario_preset("S2")
    channels = generate_channels(cfg, _GEOM, RngStream(cfg.seed, 0))
    expect = {
        "MRT": (0.3499999999999999, 0.17500000000000004, 0.175, 0.2999999999999999),
        "ZF": (0.3499999999999999, 0.17500000000000002, 0.175, 0.2999999999999999),
    }
    for family, powers in expect.items():
        pset = build_precoders(ParameterPoint(0.7, 0.5, 0.5, 0.5, family), channels, cfg)
        assert tuple(pset.stream_powers().values()) == powers


def test_block_mixes_must_be_the_table_axis():
    # A powered stream scales the whole table, so its mixes must be the
    # table's axis: a mix off it, a sub-axis or the axis reordered raises.
    table = BlendTable(_CHANNELS, "MRT", _AXIS, _AXIS)
    for ac, ap in (((0.3,), (0.5,)), (_AXIS, (0.5,)), (_AXIS[1:], _AXIS), (_AXIS[::-1], _AXIS)):
        with pytest.raises(ValueError, match="not the table's axis"):
            build_precoders(ParameterPoint(0.5, 0.5, ac, ap, "MRT"), _CHANNELS, _CFG, table)
    # An unpowered stream's mixes are never read: t_p = 1 gives the common
    # stream no power, so its off-axis mix passes.
    pset = build_precoders(ParameterPoint(0.5, 1.0, (0.3,), _AXIS, "MRT"), _CHANNELS, _CFG, table)
    assert not np.any(pset.p_c)


def test_build_rejects_a_table_of_another_family_or_draw():
    # A ZF point built on an MRT table would get MRT beams, and a table of
    # another channel draw another draw's beams, however alike the draws.
    pp = ParameterPoint(0.5, 0.5, _AXIS, _AXIS, "ZF")
    with pytest.raises(ValueError, match="ZF build got a MRT table of its channel draw"):
        build_precoders(pp, _CHANNELS, _CFG, BlendTable(_CHANNELS, "MRT", _AXIS, _AXIS))
    for seed in (_CFG.seed, _CFG.seed + 1):
        other = generate_channels(_CFG, _GEOM, RngStream(seed, 0))
        with pytest.raises(ValueError, match="ZF table of another channel draw"):
            build_precoders(pp, _CHANNELS, _CFG, BlendTable(other, "ZF", _AXIS, _AXIS))
    build_precoders(pp, _CHANNELS, _CFG, BlendTable(_CHANNELS, "ZF", _AXIS, _AXIS))


@settings(deadline=None, max_examples=60)
@given(
    t=st.sampled_from(_AXIS),
    tp=st.sampled_from(_AXIS),
    ac_axis=st.just(_AXIS) | _SUB_AXES,
    ap_axis=st.just(_AXIS) | _SUB_AXES,
    family=st.sampled_from(["MRT", "ZF"]),
)
def test_a_table_serves_exactly_the_points_on_its_axes(t, tp, ac_axis, ap_axis, family):
    # On a grid-axis table, a build raises if and only if a stream that
    # carries power has other mixes than the axis; otherwise it equals the
    # build on the point's own table byte for byte.
    table = BlendTable(_CHANNELS, family, _AXIS, _AXIS)
    pp = ParameterPoint(t, tp, ac_axis, ap_axis, family)
    common_off = t > 0.0 and tp < 1.0 and ac_axis != _AXIS
    private_off = t > 0.0 and tp > 0.0 and ap_axis != _AXIS
    if common_off or private_off:
        with pytest.raises(ValueError, match="not the table's axis"):
            build_precoders(pp, _CHANNELS, _CFG, table)
        return
    got = build_precoders(pp, _CHANNELS, _CFG, table)
    want = build_precoders(pp, _CHANNELS, _CFG, BlendTable(_CHANNELS, family, ac_axis, ap_axis))
    for name in ("p_c", "p_1", "p_2", "p_r"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_stream_powers_closed_form():
    pp = ParameterPoint(0.7, 0.4, 0.3, 0.6, "MRT")
    powers = build_precoders(pp, _CHANNELS, _CFG).stream_powers()
    assert abs(powers["common"] - 0.7 * 0.6) < 1e-12
    assert abs(powers["private_1"] - 0.7 * 0.4 / 2) < 1e-12
    assert abs(powers["private_2"] - 0.7 * 0.4 / 2) < 1e-12
    assert abs(powers["sensing"] - 0.3) < 1e-12


def test_zero_power_streams_are_exact_zeros():
    sdma = build_precoders(ParameterPoint(1.0, 1.0, 0.3, 0.7, "MRT"), _CHANNELS, _CFG)
    assert not np.any(sdma.p_c)
    assert not np.any(sdma.p_r)

    sensing = build_precoders(ParameterPoint(0.0, 1.0, 1.0, 1.0, "MRT"), _CHANNELS, _CFG)
    assert not np.any(sensing.p_c)
    assert not np.any(sensing.p_1)
    assert not np.any(sensing.p_2)
    nc = _CFG.n_subcarriers
    expect = math.sqrt(_CFG.total_power / nc) * np.tile(
        _CHANNELS.target_unit, (nc, 1)
    )
    assert np.array_equal(sensing.p_r, expect)


def test_sdma_splits_power_equally():
    pset = build_precoders(ParameterPoint(1.0, 1.0, 0.5, 0.7, "MRT"), _CHANNELS, _CFG)
    powers = pset.stream_powers()
    assert abs(powers["private_1"] - 0.5) < 1e-12
    assert abs(powers["private_2"] - 0.5) < 1e-12


def test_hard_separation_point():
    pset = build_precoders(ParameterPoint(0.6, 1.0, 1.0, 1.0, "MRT"), _CHANNELS, _CFG)
    nc = _CFG.n_subcarriers
    scale = math.sqrt(0.6 * _CFG.total_power / 2 / nc)
    assert np.allclose(pset.p_1, scale * _CHANNELS.unit_est[0], atol=1e-12)
    assert np.allclose(pset.p_2, scale * _CHANNELS.unit_est[1], atol=1e-12)
    assert abs(pset.stream_powers()["sensing"] - 0.4) < 1e-12


def test_precoders_invariant_to_channel_scale():
    scaled_est = 3.7 * _CHANNELS.est_channels
    scaled = ChannelSet(
        true_channels=3.7 * _CHANNELS.true_channels,
        est_channels=scaled_est,
        unit_est=scaled_est / np.linalg.norm(scaled_est, axis=2, keepdims=True),
        target_steering=_CHANNELS.target_steering,
    )
    pp = ParameterPoint(0.5, 0.4, 0.3, 0.8, "ZF")
    a = build_precoders(pp, _CHANNELS, _CFG)
    b = build_precoders(pp, scaled, _CFG)
    for pa, pb in zip((a.p_c, a.p_1, a.p_2, a.p_r), (b.p_c, b.p_1, b.p_2, b.p_r)):
        assert np.allclose(pa, pb, atol=1e-12)


def test_continuity_in_parameters():
    base = ParameterPoint(0.5, 0.5, 0.5, 0.5, "MRT")
    ref = build_precoders(base, _CHANNELS, _CFG)
    for name in ("t_comms", "t_p", "alpha_c", "alpha_p"):
        kwargs = {
            "t_comms": base.t_comms,
            "t_p": base.t_p,
            "alpha_c": base.alpha_c,
            "alpha_p": base.alpha_p,
            "family": base.family,
        }
        kwargs[name] += 1e-6
        moved = build_precoders(ParameterPoint(**kwargs), _CHANNELS, _CFG)
        delta = max(
            np.max(np.abs(p - q))
            for p, q in zip(
                (ref.p_c, ref.p_1, ref.p_2, ref.p_r),
                (moved.p_c, moved.p_1, moved.p_2, moved.p_r),
            )
        )
        assert delta < 1e-3


@pytest.mark.parametrize(
    "params,tag",
    [
        ((1.0, 0.3, 0.2, 0.8), "RSMA_NoSense_Soft"),
        ((1.0, 0.4, 0.25, 0.75), "RSMA_NoSense_Soft"),
        ((1.0, 0.4, 0.3, 0.6), "RSMA_NoSense_General"),
        ((1.0, 0.0, 0.3, 1.0), "RSMA_NoSense_General"),
        ((1.0, 1.0, 1.0, 1.0), "RSMA_NoSense_General"),
        ((1.0, 1.0, 1.0, 0.0), "RSMA_NoSense_General"),
        ((1.0, 1.0, 1.0, 0.5), "SDMA_NoSense"),
        ((0.6, 1.0, 1.0, 1.0), "SDMA_Sense_Hard"),
        ((0.5, 1.0, 1.0, 0.3), "SDMA_Sense_General"),
        ((0.5, 0.5, 0.5, 0.5), "General"),
        ((0.0, 1.0, 1.0, 1.0), "General"),
        ((0.5, 0.0, 1.0, 1.0), "General"),
    ],
)
def test_classification(params, tag):
    # a single point is 0-d input to the vectorized classifier
    code = case_codes(*params)
    assert code.shape == ()
    assert CASE_TAGS[code] == tag


def _blend(power, alpha, grid, u0):
    v = np.sqrt(alpha) * grid + np.sqrt(1.0 - alpha) * u0[None, :]
    return np.sqrt(power / np.sum(np.abs(v) ** 2)) * v


def test_special_case_closed_forms():
    """Each named regime's precoders match an independent closed-form build."""
    nc = _CFG.n_subcarriers
    pt = _CFG.total_power
    u0 = _CHANNELS.target_unit
    uc = common_direction(_CHANNELS)
    u1, u2 = _CHANNELS.unit_est

    zeros = np.zeros((nc, 2), dtype=complex)
    cases = {
        ParameterPoint(1.0, 0.4, 0.3, 0.6, "MRT"): (
            _blend(pt * 0.6, 0.3, uc, u0),
            _blend(pt * 0.2, 0.6, u1, u0),
            _blend(pt * 0.2, 0.6, u2, u0),
            zeros,
        ),
        ParameterPoint(1.0, 0.4, 0.25, 0.75, "MRT"): (
            _blend(pt * 0.6, 0.25, uc, u0),
            _blend(pt * 0.2, 0.75, u1, u0),
            _blend(pt * 0.2, 0.75, u2, u0),
            zeros,
        ),
        ParameterPoint(0.5, 1.0, 1.0, 0.4, "MRT"): (
            zeros,
            _blend(pt * 0.25, 0.4, u1, u0),
            _blend(pt * 0.25, 0.4, u2, u0),
            math.sqrt(pt * 0.5 / nc) * np.tile(u0, (nc, 1)),
        ),
        ParameterPoint(0.5, 1.0, 1.0, 1.0, "MRT"): (
            zeros,
            math.sqrt(pt * 0.25 / nc) * u1,
            math.sqrt(pt * 0.25 / nc) * u2,
            math.sqrt(pt * 0.5 / nc) * np.tile(u0, (nc, 1)),
        ),
        ParameterPoint(1.0, 1.0, 1.0, 0.3, "MRT"): (
            zeros,
            _blend(pt * 0.5, 0.3, u1, u0),
            _blend(pt * 0.5, 0.3, u2, u0),
            zeros,
        ),
    }
    seen = set()
    for pp, expect in cases.items():
        seen.add(CASE_TAGS[case_codes(pp.t_comms, pp.t_p, pp.alpha_c, pp.alpha_p)])
        pset = build_precoders(pp, _CHANNELS, _CFG)
        for built, closed in zip((pset.p_c, pset.p_1, pset.p_2, pset.p_r), expect):
            assert np.allclose(built, closed, atol=1e-12)
    assert seen == {
        "RSMA_NoSense_General",
        "RSMA_NoSense_Soft",
        "SDMA_Sense_General",
        "SDMA_Sense_Hard",
        "SDMA_NoSense",
    }
