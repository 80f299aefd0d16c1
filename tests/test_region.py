"""Grid sweeps, Pareto machinery, and region boundary reporting."""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsma_isac import (
    ArrayGeometry,
    BlendTable,
    ChannelSet,
    IsacPoints,
    ParameterPoint,
    RegionResult,
    RngStream,
    SweepSpec,
    build_precoders,
    enumerate_grid,
    generate_channels,
    pareto_indices,
    scenario_preset,
    scheme_frontier,
    scheme_points,
    sweep,
    throughput,
    write_boundary_params_csv,
    write_points_csv,
)
from rsma_isac.core import ConfigError
from rsma_isac.precoders import FAMILIES
from rsma_isac.radar import _delay_crb, round_sig
from rsma_isac.region import (
    _SOFT_ATOL,
    CASE_TAGS,
    _grid,
    case_codes,
    frontier_points,
    grid_axis,
)
from rsma_isac.throughput import sinr_common, sinr_private, spectral_efficiency, stream_gains

_GEOM = ArrayGeometry(2, 0.5)
# The CLI's sweep defaults; tests change fields with dataclasses.replace.
_SPEC = SweepSpec(0.1, ("MRT",), "G0", None, 25)


def _params(points, i):
    """Row i of a sweep's columns as the ParameterPoint it was evaluated at."""
    knobs = (points.t_comms, points.t_p, points.alpha_c, points.alpha_p)
    return ParameterPoint(*(float(k[i]) for k in knobs), FAMILIES[points.family[i]])


def test_grid_axis():
    a = grid_axis(0.5)
    assert a == (0.0, 0.5, 1.0)
    b = grid_axis(0.1)
    assert len(b) == 11
    assert b[0] == 0.0 and b[-1] == 1.0
    assert len(grid_axis(0.25)) == 5


@pytest.mark.parametrize("step", [0.5, 0.25, 0.2, 0.1])
def test_grid_planes_partition_the_columns(step):
    # The blocks of all planes tile the rows exactly once; each block's
    # rows are its (t_comms, t_p) times its plane's alpha_c x alpha_p
    # product, alpha_p fastest; and each plane key pins what cannot matter.
    axis = grid_axis(step)
    (t, tp, ac, ap), planes = _grid(step)
    assert len({len(t), len(tp), len(ac), len(ap)}) == 1
    covered = np.zeros(len(t), dtype=int)
    for (ac_axis, ap_axis), blocks in planes.items():
        assert [lo for _, _, lo, _ in blocks] == sorted(lo for _, _, lo, _ in blocks)
        for t_b, tp_b, lo, hi in blocks:
            covered[lo:hi] += 1
            assert hi - lo == len(ac_axis) * len(ap_axis)
            assert np.all(t[lo:hi] == t_b) and np.all(tp[lo:hi] == tp_b)
            pairs = [(a, b) for a in ac_axis for b in ap_axis]
            assert list(zip(ac[lo:hi].tolist(), ap[lo:hi].tolist())) == pairs
            if t_b == 0.0:
                assert (tp_b, ac_axis, ap_axis) == (1.0, (1.0,), (1.0,))
            else:
                assert ac_axis == ((1.0,) if tp_b == 1.0 else axis)
                assert ap_axis == ((1.0,) if tp_b == 0.0 else axis)
    assert np.all(covered == 1)
    # by row, the blocks are every (t_comms, t_p) of the grid once, t_p fastest
    order = sorted((lo, t_b, tp_b) for blocks in planes.values() for t_b, tp_b, lo, _ in blocks)
    assert [k[1:] for k in order] == [(0.0, 1.0)] + [(a, b) for a in axis[1:] for b in axis]


def test_grid_plan_is_built_once_and_read_only():
    # The plan of a step is shared by every sweep of that step, so no
    # caller may change it.
    columns, planes = _grid(0.25)
    assert _grid(0.25)[0] is columns
    for column in columns:
        with pytest.raises(ValueError):
            column[0] = 0.5
    with pytest.raises(TypeError):
        planes[(1.0,), (1.0,)] = ()
    assert all(isinstance(blocks, tuple) for blocks in planes.values())
    assert _grid(0.5)[0][0].tolist() != columns[0].tolist()


def test_enumerate_grid_counts_and_pinning():
    fine = enumerate_grid(0.1, "MRT")
    assert len(fine) == 11111
    assert len({dataclasses.astuple(pp) for pp in fine}) == len(fine)

    coarse = enumerate_grid(0.5, "MRT")
    assert len(coarse) == 31
    sensing_only = [pp for pp in coarse if pp.t_comms == 0.0]
    assert sensing_only == [ParameterPoint(0.0, 1.0, 1.0, 1.0, "MRT")]
    for pp in coarse:
        if pp.t_comms == 0.0:
            continue
        if pp.t_p == 1.0:
            assert pp.alpha_c == 1.0
        if pp.t_p == 0.0:
            assert pp.alpha_p == 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(grid_step=0.0),
        dict(grid_step=0.6),
        dict(grid_step=0.3),
        dict(families=()),
        dict(families=("QR",)),
        dict(metric="BEAM"),
        dict(include_cases=frozenset({"Nope"})),
        dict(metric="SNR_RAD", monte_carlo_trials=0),
        dict(monte_carlo_trials=True),
        dict(monte_carlo_trials=2.5),
        dict(monte_carlo_trials=math.nan),
        dict(monte_carlo_trials=-3),
        dict(metric="SNR_RAD", monte_carlo_trials=-3),
        dict(families=(5,)),
    ],
)
def test_sweep_spec_validation(kwargs):
    with pytest.raises(ConfigError):
        dataclasses.replace(_SPEC, **kwargs)


def test_sweep_spec_normalizes_family_case():
    spec = dataclasses.replace(_SPEC, families=("mrt", "zf"))
    assert spec.families == ("MRT", "ZF")
    # trials only constrain the Monte Carlo metric
    dataclasses.replace(_SPEC, monte_carlo_trials=0)


def classify_special_case(pp: ParameterPoint) -> str:
    """Name the operating regime of one point: the scalar oracle of case_codes.

    The named regimes are exact parameter patterns; anything else is
    ``General``. When several patterns overlap the more specific one wins,
    and the pure-SDMA patterns (t_p = 1) are checked before the
    full-communications ones.
    """
    t, tp, ac, ap = pp.t_comms, pp.t_p, pp.alpha_c, pp.alpha_p
    if tp == 1.0:
        if 0.0 < t < 1.0:
            if ap == 1.0:
                return "SDMA_Sense_Hard"
            if 0.0 < ap < 1.0:
                return "SDMA_Sense_General"
        elif t == 1.0 and 0.0 < ap < 1.0:
            return "SDMA_NoSense"
    if t == 1.0:
        if abs(ac - (1.0 - ap)) <= _SOFT_ATOL and 0.5 <= ap <= 1.0:
            return "RSMA_NoSense_Soft"
        return "RSMA_NoSense_General"
    return "General"


@pytest.mark.parametrize("family", ["MRT", "ZF"])
def test_case_codes_match_classify_special_case(family):
    grid = enumerate_grid(0.05, family)
    knobs = (np.array([dataclasses.astuple(pp)[k] for pp in grid]) for k in range(4))
    expect = [CASE_TAGS.index(classify_special_case(pp)) for pp in grid]
    assert case_codes(*knobs).tolist() == expect


_MIX = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@given(t=_MIX, tp=_MIX, ac=_MIX, ap=_MIX, nudge=st.sampled_from([0.0, 5e-10, -5e-10, 2e-9]))
def test_case_codes_match_classify_special_case_off_grid(t, tp, ac, ap, nudge):
    # nudge moves alpha_c around the soft-separation line alpha_c = 1 - alpha_p
    ac = min(max(1.0 - ap + nudge, 0.0), 1.0) if nudge else ac
    pp = ParameterPoint(t, tp, ac, ap, "MRT")
    assert CASE_TAGS[case_codes(t, tp, ac, ap)] == classify_special_case(pp)


def test_pareto_frontier_examples():
    pts = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (1.0, 1.0)]
    xs, ys = np.array(pts).T
    assert [pts[i] for i in pareto_indices(xs, ys, ())] == [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]
    assert pareto_indices(np.array([5.0]), np.array([5.0]), ()).tolist() == [0]


def _oracle_frontier(xs, ys, keys=None):
    """The O(n^2) definition; a duplicate keeps the lowest (key, index)."""
    n = len(xs)
    keys = [0] * n if keys is None else keys
    keep = []
    for i in range(n):
        dominated = any(
            xs[j] >= xs[i] and ys[j] >= ys[i] and (xs[j] > xs[i] or ys[j] > ys[i])
            for j in range(n)
        )
        if dominated:
            continue
        dup = [j for j in range(n) if xs[j] == xs[i] and ys[j] == ys[i]]
        if min(dup, key=lambda j: (keys[j], j)) != i:
            continue
        keep.append(i)
    keep.sort(key=lambda i: xs[i])
    return keep


def test_pareto_against_quadratic_oracle():
    rng = np.random.default_rng(123)
    for _ in range(150):
        n = int(rng.integers(1, 60))
        xs = rng.integers(0, 8, size=n).astype(float)
        ys = rng.integers(0, 8, size=n).astype(float)
        assert pareto_indices(xs, ys, ()).tolist() == _oracle_frontier(xs, ys)


_SMALL = st.integers(0, 5).map(float)


@settings(deadline=None)
@given(st.lists(st.tuples(_SMALL, _SMALL, st.integers(0, 3), st.integers(0, 3)), max_size=40))
def test_columnar_frontier_matches_quadratic_oracle(rows):
    # Few distinct values, so exact duplicates are common; their two key
    # columns decide which one the frontier keeps.
    xs = np.array([r[0] for r in rows])
    ys = np.array([r[1] for r in rows])
    k1 = np.array([r[2] for r in rows], dtype=int)
    k2 = np.array([r[3] for r in rows], dtype=int)
    got = pareto_indices(xs, ys, (k1, k2)).tolist()
    assert got == _oracle_frontier(xs, ys, list(zip(k1.tolist(), k2.tolist())))


def test_pareto_duplicate_keeps_lowest_key():
    idx = pareto_indices(np.array([1.0, 1.0]), np.array([2.0, 2.0]), keys=(np.array(["b", "a"]),))
    assert idx.tolist() == [1]


def test_round_sig():
    assert round_sig(1.0000000000000002) == 1.0
    assert round_sig(123456789012345.0) == 123456789012000.0
    assert round_sig(-1.0000000000000002) == -1.0
    assert round_sig(math.inf) == math.inf
    assert round_sig(0.0) == 0.0
    assert round_sig(round_sig(2.0000000000000004)) == 2.0


def test_metric_value_requires_snr():
    p = IsacPoints(
        *(np.array([v]) for v in (0.5, 0.5, 0.5, 0.5, 0, CASE_TAGS.index("General"), 1.0, 2.0)),
        snr_rad_db=None,
        crb_bins2=np.array([1.0]),
        collapsed=np.array([False]),
        mcs=np.array([[-1, -1, -1]]),
    )
    assert p.metric_values("G0").tolist() == [2.0]
    with pytest.raises(ConfigError):
        p.metric_values("SNR_RAD")


@pytest.fixture(scope="module")
def smoke_sweep():
    cfg = scenario_preset("S1")
    cfg = dataclasses.replace(cfg, n_subcarriers=16)
    channels = generate_channels(cfg, _GEOM, RngStream(cfg.seed, 0))
    spec = dataclasses.replace(_SPEC, grid_step=0.5)
    return cfg, channels, spec, sweep(spec, channels, cfg)


def test_sweep_smoke_structure(smoke_sweep):
    cfg, channels, spec, result = smoke_sweep
    assert len(result.points) == 31
    assert not result.skipped
    assert result.boundary == frontier_points(result.points, "G0")
    pts = result.points
    assert np.all(pts.t_sum_bps[pts.collapsed] == 0.0)
    assert pts.snr_rad_db is None
    assert np.all(pts.g0 > 0.0)


def test_sweep_boundary_is_nondominated(smoke_sweep):
    cfg, channels, spec, result = smoke_sweep
    xs = result.points.t_sum_bps.tolist()
    ys = result.points.g0.tolist()
    for bx, by in zip(result.boundary.t_sum_bps.tolist(), result.boundary.g0.tolist()):
        strictly_better = [
            1
            for x, y in zip(xs, ys)
            if x >= bx and y >= by and (x > bx or y > by)
        ]
        assert not strictly_better
    bx = result.boundary.t_sum_bps.tolist()
    assert bx == sorted(bx)


def test_sweep_deterministic(smoke_sweep):
    cfg, channels, spec, result = smoke_sweep
    again = sweep(spec, channels, cfg)
    assert again == result


def _grid_scenarios():
    """S2 (tight users, so some points collapse) with perfect and noisy CSIT."""
    for csit_error_var in (0.0, 1e-3):
        cfg = dataclasses.replace(
            scenario_preset("S2"), n_subcarriers=32, csit_error_var=csit_error_var
        )
        yield cfg, generate_channels(cfg, _GEOM, RngStream(cfg.seed, 0))


def test_sweep_matches_standalone_throughput():
    # Every point of a step-0.25 grid, both families: the block-batched
    # sweep must give exactly what a per-point throughput() call gives.
    spec = dataclasses.replace(_SPEC, grid_step=0.25, families=("MRT", "ZF"))
    for cfg, channels in _grid_scenarios():
        result = sweep(spec, channels, cfg)
        pts = result.points
        assert not result.skipped
        assert len(pts) == 2 * len(enumerate_grid(0.25, "MRT"))
        for i in range(len(pts)):
            pset = build_precoders(_params(pts, i), channels, cfg)
            rep = throughput(stream_gains(channels, pset)[0], pset, cfg)
            assert pts.t_sum_bps[i] == rep.t_sum
            assert pts.collapsed[i] == rep.collapsed
            assert tuple(pts.mcs[i].tolist()) == tuple(int(index) for index in rep.mcs_chosen)
        assert any(pts.collapsed)
        assert not all(pts.collapsed)


def test_block_sinr_is_bit_identical_to_per_point():
    # The batched SINRs and efficiencies of a (t_comms, t_p) block equal
    # the per-point values bit for bit, which keeps the CSVs byte-identical.
    for cfg, channels in _grid_scenarios():
        noise, gap = cfg.noise_power_comms, cfg.shannon_gap_db
        for family, ((ac_axis, ap_axis), blocks) in itertools.product(
            ("MRT", "ZF"), _grid(0.25)[1].items()
        ):
            table = BlendTable(channels, family, grid_axis(0.25), grid_axis(0.25))
            for t, tp, _, _ in blocks:
                block = build_precoders(
                    ParameterPoint(t, tp, ac_axis, ap_axis, family), channels, cfg, table
                )
                users, _ = stream_gains(channels, block)
                batched = {}
                for fn in (sinr_common, sinr_private):
                    for ue, values in zip((1, 2), fn(users, noise)):
                        batched[fn, ue] = values, spectral_efficiency(values, gap)
                for i, ac in enumerate(ac_axis):
                    for j, ap in enumerate(ap_axis):
                        pp = ParameterPoint(t, tp, ac, ap, family)
                        single_users, _ = stream_gains(
                            channels, build_precoders(pp, channels, cfg)
                        )
                        for (fn, ue), (values, eff) in batched.items():
                            single = fn(single_users, noise)[ue - 1]
                            # p_c batches over rows, p_1 and p_2 over columns
                            row = min(i, values.shape[0] - 1)
                            assert np.array_equal(values[row, j], single), (pp, ue)
                            assert eff[row, j] == spectral_efficiency(single, gap)


def _point_eval_sensing(pp, channels, cfg):
    """g0 and CRB of one operating point, computed the way point-eval does."""
    _, (common, private_1, private_2, sensing) = stream_gains(
        channels, build_precoders(pp, channels, cfg)
    )
    power = common + private_1 + private_2 + sensing
    bound = _delay_crb(
        np.sum(np.arange(power.shape[0], dtype=float) ** 2 * power), power.shape[0],
        cfg.target_attenuation, cfg.noise_power_radar,
    )
    return round_sig(float(np.sum(power))), float(bound)


def test_sweep_sensing_numbers_cross_check():
    # Every point's g0 and CRB come from the same batched arithmetic as a
    # single point's, so they are equal, not merely close.
    spec = dataclasses.replace(_SPEC, grid_step=0.25, families=("MRT", "ZF"))
    for preset in ("S1", "S2"):
        for csit_error_var in (0.0, 1e-3):
            cfg = dataclasses.replace(
                scenario_preset(preset), n_subcarriers=32, csit_error_var=csit_error_var
            )
            channels = generate_channels(cfg, _GEOM, RngStream(cfg.seed, 0))
            result = sweep(spec, channels, cfg)
            pts = result.points
            assert not result.skipped
            for i in range(len(pts)):
                g0, bound = _point_eval_sensing(_params(pts, i), channels, cfg)
                assert pts.g0[i] == g0, _params(pts, i)
                assert pts.crb_bins2[i] == bound, _params(pts, i)


@settings(max_examples=40, deadline=None)
@given(
    angle=st.floats(-60.0, 60.0, exclude_min=True, exclude_max=True),
    spacing=st.sampled_from([0.25, 0.5, 1.0]),
    n_tx=st.integers(1, 4),
)
def test_g0_ceiling_is_reached_by_sensing_only(angle, spacing, n_tx):
    # By Cauchy–Schwarz no precoder radiates more than N_T·P toward the
    # target, |a^H p|² ≤ N_T·|p|², and the sensing-only point, whose beam
    # lies along the target's response, radiates exactly that: the
    # precoders' sensing beam and the radar's steering agree.
    cfg = dataclasses.replace(scenario_preset("S1"), n_subcarriers=8, target_angle_deg=angle)
    channels = generate_channels(cfg, ArrayGeometry(n_tx, spacing), RngStream(cfg.seed, 0))
    families = ("MRT", "ZF") if n_tx >= 2 else ("MRT",)
    result = sweep(dataclasses.replace(_SPEC, grid_step=0.5, families=families), channels, cfg)
    ceiling = n_tx * cfg.total_power
    pts = result.points
    assert np.all(pts.g0 <= ceiling * (1.0 + 1e-11))
    sensing_only = pts.g0[pts.t_comms == 0.0]
    assert len(sensing_only) == len(families)
    assert np.allclose(sensing_only, ceiling, rtol=1e-11, atol=0.0)


def test_rank_deficient_zf_sweep_scores_common_only_blocks(make_channels):
    # Users at the same angle make every subcarrier's channel matrix rank 1,
    # so ZF has no private directions; the blocks without private power are
    # still scored, and their sensing numbers equal point-eval's.
    cfg, channels = make_channels(n_subcarriers=16, ue_angles_deg=(30.0, 30.0))
    zf = dataclasses.replace(_SPEC, grid_step=0.5, families=("ZF",))
    result = sweep(zf, channels, cfg)
    pts = result.points
    assert len(result.skipped) == 24
    assert all("rank" in reason for reason in result.skipped.reason.tolist())
    assert len(pts) == 7
    assert set(pts.t_p[pts.t_comms > 0.0].tolist()) == {0.0}
    for i in range(len(pts)):
        sensing = (pts.g0[i], pts.crb_bins2[i])
        assert sensing == _point_eval_sensing(_params(pts, i), channels, cfg)
    # Swept together, MRT is scored everywhere and ZF loses the same points
    # for the same reason as when it is swept alone.
    both_spec = dataclasses.replace(_SPEC, grid_step=0.5, families=("MRT", "ZF"))
    both = sweep(both_spec, channels, cfg)
    mrt = sweep(dataclasses.replace(_SPEC, grid_step=0.5), channels, cfg)
    assert both.points.take(both.points.family == FAMILIES.index("MRT")) == mrt.points
    assert len(mrt.points) == 31 and not mrt.skipped
    assert both.skipped == result.skipped
    assert set(both.skipped.family.tolist()) == {FAMILIES.index("ZF")}


def test_zf_sweep_computes_private_directions_once(make_channels, monkeypatch):
    # The blend table caches the ZF directions: one SVD per family, not
    # one per block.
    import rsma_isac.precoders as precoders_mod

    calls = []
    original = precoders_mod.private_directions

    def counting(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(precoders_mod, "private_directions", counting)
    cfg, channels = make_channels(n_subcarriers=16)
    zf = dataclasses.replace(_SPEC, grid_step=0.25, families=("ZF",))
    result = sweep(zf, channels, cfg)
    assert calls == ["ZF"]
    assert len(result.points) == len(enumerate_grid(0.25, "ZF")) and not result.skipped
    # Without ZF directions the first failed chunk of a mix plane skips the
    # rest of it: at most one attempt per group with private power (the
    # interior and t_p = 1 planes), even with one block per chunk.
    import rsma_isac.region as region_mod

    monkeypatch.setattr(region_mod, "_CHUNK_ELEMENTS", 1)
    cfg, channels = make_channels(n_subcarriers=16, ue_angles_deg=(30.0, 30.0))
    calls.clear()
    result = sweep(zf, channels, cfg)
    assert calls and set(calls) == {"ZF"} and len(calls) <= 2
    assert set(result.points.t_p[result.points.t_comms > 0.0].tolist()) == {0.0}
    assert len(result.points) + len(result.skipped) == len(enumerate_grid(0.25, "ZF"))


@pytest.mark.parametrize(
    "overrides,sweep_fields",
    [
        ({}, {}),
        ({}, dict(metric="SNR_RAD", monte_carlo_trials=2)),
        ({}, dict(include_cases=frozenset({"General", "SDMA_Sense_Hard"}))),
        ({"ue_angles_deg": (30.0, 30.0)}, {}),
        ({"ue_angles_deg": (30.0, 30.0)}, dict(metric="SNR_RAD", monte_carlo_trials=2)),
    ],
)
def test_sweep_results_do_not_depend_on_the_chunk_budget(
    make_channels, monkeypatch, overrides, sweep_fields
):
    # One block per call (a budget of 1), several blocks per call (five
    # 5 x 5 x 16 interior blocks) and one call per mix plane (a budget
    # past any chunk) give equal results: the same rows in the same order,
    # the same SNR streams, and on rank-deficient channels the same
    # skipped knobs and reasons.
    import rsma_isac.region as region_mod

    cfg, channels = make_channels(n_subcarriers=16, **overrides)
    spec = dataclasses.replace(
        _SPEC, grid_step=0.25, families=("MRT", "ZF"), **sweep_fields
    )
    built = []
    original = region_mod.build_precoders

    def counting(pp, *args):
        built.append(pp)
        return original(pp, *args)

    monkeypatch.setattr(region_mod, "build_precoders", counting)
    results, chunks = [], []
    for budget in (1, 5 * 25 * 16, 2**40):
        monkeypatch.setattr(region_mod, "_CHUNK_ELEMENTS", budget)
        built.clear()
        results.append(sweep(spec, channels, cfg))
        chunks.append(list(built))
        # Measuring SNR_RAD reuses the precoders each chunk was scored with.
        built.clear()
        sweep(dataclasses.replace(spec, metric="G0"), channels, cfg)
        assert built == chunks[-1]
    # a budget of 1 builds every kept block alone; the middle budget
    # splits the kept interior blocks (12 of them unfiltered) into chunks
    # of 5 and a shorter last one; 2**40 builds one chunk per family and
    # mix plane
    assert {len(pp.t_comms) for pp in chunks[0]} == {1}
    interior = [len(pp.t_comms) for pp in chunks[1]
                if pp.family == "MRT" and len(pp.alpha_c) == len(pp.alpha_p) == 5]
    assert interior[:-1] == [5] * (len(interior) - 1) and 1 < interior[-1] < 5
    assert len(interior) >= 2 and (interior == [5, 5, 2] or "include_cases" in sweep_fields)
    assert len(chunks[2]) == 2 * 4 < len(chunks[1]) < len(chunks[0])
    assert results[0] == results[1] == results[2]
    if overrides:
        assert len(results[0].skipped) > 0
        assert set(results[0].skipped.family.tolist()) == {FAMILIES.index("ZF")}


@functools.cache
def _unfiltered_sweep(metric, families, ue_angles_deg):
    """S2 at 16 subcarriers and perfect CSIT, swept on the step-0.5 grid with no filter."""
    cfg = dataclasses.replace(scenario_preset("S2"), n_subcarriers=16, csit_error_var=0.0)
    if ue_angles_deg is not None:
        cfg = dataclasses.replace(cfg, ue_angles_deg=ue_angles_deg)
    channels = generate_channels(cfg, _GEOM, RngStream(cfg.seed, 0))
    spec = dataclasses.replace(
        _SPEC, grid_step=0.5, families=families, metric=metric, monte_carlo_trials=2
    )
    return cfg, channels, spec, sweep(spec, channels, cfg)


@settings(max_examples=40, deadline=None)
@given(
    cases=st.frozensets(st.sampled_from(CASE_TAGS), min_size=1),
    metric=st.sampled_from(["G0", "SNR_RAD"]),
    families=st.sampled_from([("MRT",), ("ZF",), ("MRT", "ZF")]),
    ue_angles_deg=st.sampled_from([None, (30.0, 30.0)]),
)
def test_case_filter_keeps_the_unfiltered_points(cases, metric, families, ue_angles_deg):
    # A point's values, SNR_RAD included, depend on its grid row alone, so
    # filtering by case only drops rows; on rank-deficient channels the
    # kept ZF points are still the unfiltered sweep's.
    cfg, channels, spec, full = _unfiltered_sweep(metric, families, ue_angles_deg)
    filtered = sweep(dataclasses.replace(spec, include_cases=cases), channels, cfg)
    in_filter = np.isin(full.points.case, [CASE_TAGS.index(tag) for tag in cases])
    assert filtered.points == full.points.take(in_filter)


def test_frontier_idempotent(smoke_sweep):
    *_, spec, result = smoke_sweep
    again = frontier_points(result.boundary, spec.metric)
    assert again == result.boundary


def test_grid_refinement_weakly_dominates(smoke_sweep):
    cfg, channels, spec, coarse_result = smoke_sweep
    fine = sweep(dataclasses.replace(_SPEC, grid_step=0.25), channels, cfg).boundary
    coarse = coarse_result.boundary
    for bx, by in zip(coarse.t_sum_bps, coarse.g0):
        assert np.any((fine.t_sum_bps >= bx) & (fine.g0 >= by))


def test_scheme_filters(smoke_sweep):
    *_, result = smoke_sweep
    pts = result.points
    sdma = scheme_points(pts, "SDMA")
    assert sdma and np.all(sdma.t_p == 1.0)
    rsma = scheme_points(pts, "RSMA_NoSense")
    assert rsma and np.all(rsma.t_comms == 1.0)
    with pytest.raises(ConfigError, match="scheme"):
        scheme_points(pts, "NOMA")
    with pytest.raises(ConfigError, match="scheme"):
        scheme_frontier(pts, "noma", "G0")


def test_scheme_frontier_contained_in_region(smoke_sweep):
    *_, result = smoke_sweep
    full = result.boundary
    sdma = scheme_frontier(result.points, "SDMA", "G0")
    for px, py in zip(sdma.t_sum_bps, sdma.g0):
        assert np.any((full.t_sum_bps >= px) & (full.g0 >= py))


def test_sweep_skips_zf_on_rank_deficient_channels(make_channels):
    cfg, base = make_channels(n_subcarriers=16)
    dup = ChannelSet(
        true_channels=np.stack([base.true_channels[0], base.true_channels[0]]),
        est_channels=np.stack([base.est_channels[0], base.est_channels[0]]),
        unit_est=np.stack([base.unit_est[0], base.unit_est[0]]),
        target_steering=base.target_steering,
    )
    result = sweep(dataclasses.replace(_SPEC, grid_step=0.5, families=("ZF",)), dup, cfg)
    pts = result.points
    assert len(result.skipped) == 24
    assert len(pts) == 7
    assert all("rank" in reason for reason in result.skipped.reason.tolist())
    assert np.all((pts.t_comms == 0.0) | (pts.t_p == 0.0))


def test_sweep_snr_metric_smoke(make_channels):
    cfg, channels = make_channels(n_subcarriers=16)
    spec = dataclasses.replace(_SPEC, grid_step=0.5, metric="SNR_RAD", monte_carlo_trials=2)
    result = sweep(spec, channels, cfg)
    assert result.boundary == frontier_points(result.points, "SNR_RAD")
    assert len(result.points.snr_rad_db) == len(result.points)
    assert all(math.isfinite(snr) for snr in result.points.snr_rad_db.tolist())
    again = sweep(spec, channels, cfg)
    assert again == result


def test_sensing_dominant_sdma_boundary(make_cfg):
    cfg = make_cfg(noise_power_comms=1.5e-3, ue_angles_deg=(-60.0, 60.0), seed=21)
    channels = generate_channels(cfg, _GEOM, RngStream(cfg.seed, 0))
    result = sweep(_SPEC, channels, cfg)

    rows = scheme_frontier(result.points, "SDMA", "G0")
    assert len(rows) == 5
    expect = [
        ((0.0, 1.0, 1.0, 1.0), 0.0, 2.0),
        ((0.5, 1.0, 1.0, 0.1), 73125000.0, 1.90491643182),
        ((1.0, 1.0, 1.0, 0.1), 109687500.0, 1.80983286363),
        ((0.9, 1.0, 1.0, 0.4), 127968750.0, 1.31783317945),
        ((1.0, 1.0, 1.0, 0.5), 146250000.0, 1.05272351354),
    ]
    for i, (params, t_sum, g0) in enumerate(expect):
        assert dataclasses.astuple(_params(rows, i))[:4] == pytest.approx(params, abs=1e-12)
        assert rows.t_sum_bps[i] == t_sum
        assert rows.g0[i] == pytest.approx(g0, rel=1e-9)

    rsma_rows = scheme_frontier(result.points, "RSMA_NoSense", "G0")
    assert len(rsma_rows) == 9
    assert np.all(rsma_rows.t_comms == 1.0)


def test_boundary_params_csv_exact(tmp_path, make_cfg):
    cfg = make_cfg(noise_power_comms=1.5e-3, ue_angles_deg=(-60.0, 60.0), seed=21)
    channels = generate_channels(cfg, _GEOM, RngStream(cfg.seed, 0))
    result = sweep(_SPEC, channels, cfg)
    path = tmp_path / "boundary_params.csv"
    write_boundary_params_csv(scheme_frontier(result.points, "SDMA", "G0"), str(path))
    lines = path.read_text().splitlines()
    assert lines == [
        "index,t_comms,t_p,alpha_c,alpha_p,mcs_c,mcs_1,mcs_2",
        "0,0,-,-,-,-,-,-",
        "1,0.5,1,-,0.1,-,0,0",
        "2,1,1,-,0.1,-,1,1",
        "3,0.9,1,-,0.4,-,2,1",
        "4,1,1,-,0.5,-,2,2",
    ]


def test_preset_regression_tight_angles():
    cfg = dataclasses.replace(scenario_preset("S2"), n_subcarriers=64)
    channels = generate_channels(cfg, _GEOM, RngStream(cfg.seed, 0))
    result = sweep(_SPEC, channels, cfg)

    sdma = scheme_points(result.points, "SDMA")
    assert max(sdma.t_sum_bps) == 146250000.0
    sdma_front = scheme_frontier(result.points, "SDMA", "G0")
    corner = sdma_front.take([-1])
    corner_knobs = dataclasses.astuple(_params(corner, 0))[:4]
    assert corner_knobs == pytest.approx((0.4, 1.0, 1.0, 0.1), abs=1e-12)
    assert corner.g0[0] == pytest.approx(1.93621959579, rel=1e-9)

    rsma_pts = scheme_points(result.points, "RSMA_NoSense")
    dominators = rsma_pts.take(
        (rsma_pts.t_sum_bps > corner.t_sum_bps[0]) & (rsma_pts.g0 > corner.g0[0])
    )
    assert len(dominators) == 14
    assert dataclasses.astuple(_params(dominators, 0))[:4] == (1.0, 0.0, 0.0, 1.0)
    assert dominators.t_sum_bps[0] == 292500000.0
    assert dominators.g0[0] == 2.0

    assert len(scheme_frontier(result.points, "RSMA_NoSense", "G0")) == 4
    assert len(result.boundary) == 5
    tset = {round(t, 6) for t in result.boundary.t_comms.tolist()}
    assert tset == {0.5, 0.7, 0.9, 1.0}


# How write_points_csv spelled each row when it %-formatted every field.
_PER_ROW = "%.10g,%.10g,%.10g,%.10g,%s,%s,%.10g,%.10g,%s,%.10g,%d\n"
# Few values, so columns repeat them, with both zeros, NaN, the
# infinities and the extremes of the float range among them.
_CELL_VALUES = st.sampled_from([
    0.0, -0.0, 0.25, 1.0, 1e-7, 123456.789, 73125000.0, math.inf, -math.inf, math.nan,
    5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1e300,
    1 / 3, 0.1 + 0.2, 12345678901234.0,
]) | st.floats()


@given(
    rows=st.lists(st.tuples(*[_CELL_VALUES] * 7, st.integers(0, 1), st.integers(0, 5),
                            st.booleans()), min_size=1, max_size=30),
    measured=st.booleans(),
)
def test_points_csv_cells_are_the_per_row_spellings(tmp_path_factory, rows, measured):
    # Each column but g0 and the CRB is spelled once per distinct value;
    # the file is still what per-row formatting wrote, -0.0 and NaN too.
    t, tp, ac, ap, t_sum, g0, crb, family, case, collapsed = map(np.array, zip(*rows))
    snr = t_sum[::-1].copy() if measured else None
    points = IsacPoints(t, tp, ac, ap, family, case, t_sum, g0, snr, crb, collapsed,
                        np.zeros((len(t), 3), dtype=int))
    path = tmp_path_factory.mktemp("csv") / "points.csv"
    write_points_csv(points, str(path))
    mbps = (t_sum / 1e6).tolist()
    snr_cells = [""] * len(t) if snr is None else [format(v, ".10g") for v in snr.tolist()]
    want = "".join(
        _PER_ROW % (*knobs, FAMILIES[f], CASE_TAGS[c], m, g, s, b, flag)
        for *knobs, f, c, m, g, s, b, flag in zip(
            t.tolist(), tp.tolist(), ac.tolist(), ap.tolist(), family.tolist(), case.tolist(),
            mbps, g0.tolist(), snr_cells, crb.tolist(), collapsed.tolist())
    )
    header, *lines = path.read_text(encoding="utf-8").splitlines(True)
    assert "".join(lines) == want


def test_write_points_csv(tmp_path, smoke_sweep):
    *_, result = smoke_sweep
    path = tmp_path / "points.csv"
    write_points_csv(result.points, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "t_comms,t_p,alpha_c,alpha_p,family,case,"
        "t_sum_mbps,g0,snr_rad_db,crb_bins2,collapsed"
    )
    assert len(lines) == 1 + len(result.points)
    first = lines[1].split(",")
    assert len(first) == 11
    assert first[4] == "MRT"
    assert first[5] in CASE_TAGS
    assert first[8] == ""  # no SNR column under the G0 metric
    assert first[10] in ("0", "1")
