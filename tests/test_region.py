"""Grid sweeps, Pareto machinery, and region boundary reporting."""

import dataclasses
import math

import numpy as np
import pytest

from rsma_isac import (
    ArrayGeometry,
    ChannelSet,
    IsacPoint,
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
from rsma_isac.precoders import CASE_TAGS
from rsma_isac.radar import _delay_crb, _k2_sum, expected_steered_power
from rsma_isac.precoders import common_direction, private_directions
from rsma_isac.region import (
    _block_precoders,
    _grid_blocks,
    frontier_points,
    grid_axis,
    round_sig,
)
from rsma_isac.throughput import sinr_common, sinr_private, spectral_efficiency

_GEOM = ArrayGeometry(2, 0.5)


def test_grid_axis():
    a = grid_axis(0.5)
    assert a == (0.0, 0.5, 1.0)
    b = grid_axis(0.1)
    assert len(b) == 11
    assert b[0] == 0.0 and b[-1] == 1.0
    assert len(grid_axis(0.25)) == 5


def test_enumerate_grid_counts_and_pinning():
    fine = enumerate_grid(0.1, "MRT")
    assert len(fine) == 11111
    assert len({pp.key() for pp in fine}) == len(fine)

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
    ],
)
def test_sweep_spec_validation(kwargs):
    with pytest.raises(ConfigError):
        SweepSpec(**kwargs)


def test_sweep_spec_normalizes_family_case():
    spec = SweepSpec(families=("mrt", "zf"))
    assert spec.families == ("MRT", "ZF")
    # trials only constrain the Monte Carlo metric
    SweepSpec(metric="G0", monte_carlo_trials=0)


def test_pareto_frontier_examples():
    pts = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (1.0, 1.0)]
    xs, ys = np.array(pts).T
    assert [pts[i] for i in pareto_indices(xs, ys)] == [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]
    assert pareto_indices(np.array([5.0]), np.array([5.0])) == [0]


def _oracle_frontier(xs, ys):
    n = len(xs)
    keep = []
    for i in range(n):
        dominated = any(
            xs[j] >= xs[i] and ys[j] >= ys[i] and (xs[j] > xs[i] or ys[j] > ys[i])
            for j in range(n)
        )
        if dominated:
            continue
        dup = [j for j in range(n) if xs[j] == xs[i] and ys[j] == ys[i]]
        if min(dup) != i:
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
        assert pareto_indices(xs, ys) == _oracle_frontier(xs, ys)


def test_pareto_duplicate_keeps_lowest_key():
    idx = pareto_indices(np.array([1.0, 1.0]), np.array([2.0, 2.0]), keys=["b", "a"])
    assert idx == [1]


def test_round_sig():
    assert round_sig(1.0000000000000002) == 1.0
    assert round_sig(123456789012345.0) == 123456789012000.0
    assert round_sig(-1.0000000000000002) == -1.0
    assert round_sig(math.inf) == math.inf
    assert round_sig(0.0) == 0.0
    assert round_sig(round_sig(2.0000000000000004)) == 2.0


def test_metric_value_requires_snr():
    p = IsacPoint(
        params=ParameterPoint(0.5, 0.5, 0.5, 0.5),
        t_sum_bps=1.0,
        g0=2.0,
        snr_rad_db=None,
        crb_bins2=1.0,
        case="General",
        collapsed=False,
    )
    assert p.metric_value("G0") == 2.0
    with pytest.raises(ConfigError):
        p.metric_value("SNR_RAD")


@pytest.fixture(scope="module")
def smoke_sweep():
    cfg = scenario_preset("S1")
    cfg = dataclasses.replace(cfg, n_subcarriers=16)
    channels = generate_channels(cfg, _GEOM, RngStream(cfg.seed, 0))
    spec = SweepSpec(grid_step=0.5, families=("MRT",))
    return cfg, channels, spec, sweep(spec, channels, cfg, _GEOM)


def test_sweep_smoke_structure(smoke_sweep):
    cfg, channels, spec, result = smoke_sweep
    assert len(result.points) == 31
    assert not result.skipped
    assert result.metric == "G0"
    for p in result.points:
        if p.collapsed:
            assert p.t_sum_bps == 0.0
        assert p.snr_rad_db is None
        assert p.g0 > 0.0


def test_sweep_boundary_is_nondominated(smoke_sweep):
    cfg, channels, spec, result = smoke_sweep
    xs = [p.t_sum_bps for p in result.points]
    ys = [p.g0 for p in result.points]
    for b in result.boundary:
        strictly_better = [
            1
            for x, y in zip(xs, ys)
            if x >= b.t_sum_bps and y >= b.g0 and (x > b.t_sum_bps or y > b.g0)
        ]
        assert not strictly_better
    bx = [p.t_sum_bps for p in result.boundary]
    assert bx == sorted(bx)


def test_sweep_deterministic(smoke_sweep):
    cfg, channels, spec, result = smoke_sweep
    again = sweep(spec, channels, cfg, _GEOM)
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
    spec = SweepSpec(grid_step=0.25, families=("MRT", "ZF"))
    for cfg, channels in _grid_scenarios():
        result = sweep(spec, channels, cfg, _GEOM)
        assert not result.skipped
        assert len(result.points) == 2 * len(enumerate_grid(0.25, "MRT"))
        for p in result.points:
            rep = throughput(channels, build_precoders(p.params, channels, cfg), cfg)
            assert p.t_sum_bps == rep.t_sum
            assert p.collapsed == rep.collapsed
            assert p.mcs_indices == tuple(int(index) for index in rep.mcs_chosen)
        assert any(p.collapsed for p in result.points)
        assert not all(p.collapsed for p in result.points)


def test_block_sinr_is_bit_identical_to_per_point():
    # The batched SINRs and efficiencies of a (t_comms, t_p) block equal
    # the per-point values bit for bit, which keeps the CSVs byte-identical.
    for cfg, channels in _grid_scenarios():
        noise, gap = cfg.noise_power_comms, cfg.shannon_gap_db
        for family in ("MRT", "ZF"):
            dirs = private_directions(channels, family)
            uc = common_direction(channels)
            for t, tp, ac_axis, ap_axis in _grid_blocks(0.25):
                block = _block_precoders(
                    t, tp, ac_axis, ap_axis, family, channels, cfg, dirs, uc
                )
                batched = {}
                for fn in (sinr_common, sinr_private):
                    for ue in (1, 2):
                        values = fn(channels, block, ue, noise)
                        batched[fn, ue] = values, spectral_efficiency(values, gap)
                for i, ac in enumerate(ac_axis):
                    for j, ap in enumerate(ap_axis):
                        pp = ParameterPoint(t, tp, ac, ap, family)
                        pset = build_precoders(pp, channels, cfg)
                        for (fn, ue), (values, eff) in batched.items():
                            single = fn(channels, pset, ue, noise)
                            # p_c batches over rows, p_1 and p_2 over columns
                            row = min(i, values.shape[0] - 1)
                            assert np.array_equal(values[row, j], single), (pp, ue)
                            assert eff[row, j] == spectral_efficiency(single, gap)


def _point_eval_sensing(pp, channels, cfg):
    """g0 and CRB of one operating point, computed the way point-eval does."""
    power = expected_steered_power(
        build_precoders(pp, channels, cfg), _GEOM, cfg.target_angle_deg
    )
    bound = _delay_crb(
        _k2_sum(power), power.shape[0], cfg.target_attenuation, cfg.noise_power_radar
    )
    return round_sig(float(np.sum(power))), float(bound)


def test_sweep_sensing_numbers_cross_check():
    # Every point's g0 and CRB come from the same batched arithmetic as a
    # single point's, so they are equal, not merely close.
    spec = SweepSpec(grid_step=0.25, families=("MRT", "ZF"))
    for preset in ("S1", "S2"):
        for csit_error_var in (0.0, 1e-3):
            cfg = dataclasses.replace(
                scenario_preset(preset), n_subcarriers=32, csit_error_var=csit_error_var
            )
            channels = generate_channels(cfg, _GEOM, RngStream(cfg.seed, 0))
            result = sweep(spec, channels, cfg, _GEOM)
            assert not result.skipped
            for p in result.points:
                g0, bound = _point_eval_sensing(p.params, channels, cfg)
                assert p.g0 == g0, p.params
                assert p.crb_bins2 == bound, p.params


def test_rank_deficient_zf_sweep_scores_common_only_blocks(make_channels):
    # Users at the same angle make every subcarrier's channel matrix rank 1,
    # so ZF has no private directions; the blocks without private power are
    # still scored, and their sensing numbers equal point-eval's.
    cfg, channels = make_channels(n_subcarriers=16, ue_angles_deg=(30.0, 30.0))
    result = sweep(SweepSpec(grid_step=0.5, families=("ZF",)), channels, cfg, _GEOM)
    assert len(result.skipped) == 24
    assert all("rank" in s.reason for s in result.skipped)
    assert len(result.points) == 7
    assert {p.params.t_p for p in result.points if p.params.t_comms > 0.0} == {0.0}
    for p in result.points:
        assert (p.g0, p.crb_bins2) == _point_eval_sensing(p.params, channels, cfg)


def test_frontier_idempotent(smoke_sweep):
    *_, result = smoke_sweep
    again = frontier_points(list(result.boundary), result.metric)
    assert tuple(again) == result.boundary


def test_grid_refinement_weakly_dominates(smoke_sweep):
    cfg, channels, spec, coarse_result = smoke_sweep
    fine = sweep(SweepSpec(grid_step=0.25), channels, cfg, _GEOM)
    for b in coarse_result.boundary:
        assert any(
            q.t_sum_bps >= b.t_sum_bps and q.g0 >= b.g0 for q in fine.boundary
        )


def test_scheme_filters(smoke_sweep):
    *_, result = smoke_sweep
    pts = list(result.points)
    sdma = scheme_points(pts, "SDMA")
    assert sdma and all(p.params.t_p == 1.0 for p in sdma)
    rsma = scheme_points(pts, "RSMA_NoSense")
    assert rsma and all(p.params.t_comms == 1.0 for p in rsma)
    with pytest.raises(ConfigError, match="scheme"):
        scheme_points(pts, "NOMA")
    with pytest.raises(ConfigError, match="scheme"):
        scheme_frontier(pts, "noma")


def test_scheme_frontier_contained_in_region(smoke_sweep):
    *_, result = smoke_sweep
    full = list(result.boundary)
    for p in scheme_frontier(list(result.points), "SDMA"):
        assert any(q.t_sum_bps >= p.t_sum_bps and q.g0 >= p.g0 for q in full)


def test_sweep_skips_zf_on_rank_deficient_channels(make_channels):
    cfg, base = make_channels(n_subcarriers=16)
    dup = ChannelSet(
        true_channels=np.stack([base.true_channels[0], base.true_channels[0]]),
        est_channels=np.stack([base.est_channels[0], base.est_channels[0]]),
        unit_est=np.stack([base.unit_est[0], base.unit_est[0]]),
        broadside_unit=base.broadside_unit,
    )
    result = sweep(SweepSpec(grid_step=0.5, families=("ZF",)), dup, cfg, _GEOM)
    assert len(result.skipped) == 24
    assert len(result.points) == 7
    assert all("rank" in s.reason for s in result.skipped)
    assert all(p.params.t_comms == 0.0 or p.params.t_p == 0.0 for p in result.points)


def test_sweep_snr_metric_smoke(make_channels):
    cfg, channels = make_channels(n_subcarriers=16)
    spec = SweepSpec(grid_step=0.5, metric="SNR_RAD", monte_carlo_trials=2)
    result = sweep(spec, channels, cfg, _GEOM)
    assert result.metric == "SNR_RAD"
    assert all(p.snr_rad_db is not None for p in result.points)
    assert all(math.isfinite(p.snr_rad_db) for p in result.points)
    again = sweep(spec, channels, cfg, _GEOM)
    assert again == result


def test_sensing_dominant_sdma_boundary(make_cfg):
    cfg = make_cfg(noise_power_comms=1.5e-3, ue_angles_deg=(-60.0, 60.0), seed=21)
    channels = generate_channels(cfg, _GEOM, RngStream(cfg.seed, 0))
    result = sweep(SweepSpec(grid_step=0.1), channels, cfg, _GEOM)

    rows = scheme_frontier(list(result.points), "SDMA")
    assert len(rows) == 5
    expect = [
        ((0.0, 1.0, 1.0, 1.0), 0.0, 2.0),
        ((0.5, 1.0, 1.0, 0.1), 73125000.0, 1.90491643182),
        ((1.0, 1.0, 1.0, 0.1), 109687500.0, 1.80983286363),
        ((0.9, 1.0, 1.0, 0.4), 127968750.0, 1.31783317945),
        ((1.0, 1.0, 1.0, 0.5), 146250000.0, 1.05272351354),
    ]
    for row, (params, t_sum, g0) in zip(rows, expect):
        assert row.params.key()[:4] == pytest.approx(params, abs=1e-12)
        assert row.t_sum_bps == t_sum
        assert row.g0 == pytest.approx(g0, rel=1e-9)

    rsma_rows = scheme_frontier(list(result.points), "RSMA_NoSense")
    assert len(rsma_rows) == 9
    assert all(r.params.t_comms == 1.0 for r in rsma_rows)


def test_boundary_params_csv_exact(tmp_path, make_cfg):
    cfg = make_cfg(noise_power_comms=1.5e-3, ue_angles_deg=(-60.0, 60.0), seed=21)
    channels = generate_channels(cfg, _GEOM, RngStream(cfg.seed, 0))
    result = sweep(SweepSpec(grid_step=0.1), channels, cfg, _GEOM)
    path = tmp_path / "boundary_params.csv"
    write_boundary_params_csv(scheme_frontier(list(result.points), "SDMA"), str(path))
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
    result = sweep(SweepSpec(grid_step=0.1), channels, cfg, _GEOM)

    sdma = scheme_points(list(result.points), "SDMA")
    assert max(p.t_sum_bps for p in sdma) == 146250000.0
    corner = scheme_frontier(list(result.points), "SDMA")[-1]
    assert corner.params.key()[:4] == pytest.approx((0.4, 1.0, 1.0, 0.1), abs=1e-12)
    assert corner.g0 == pytest.approx(1.93621959579, rel=1e-9)

    rsma_pts = scheme_points(list(result.points), "RSMA_NoSense")
    dominators = [
        p for p in rsma_pts if p.t_sum_bps > corner.t_sum_bps and p.g0 > corner.g0
    ]
    assert len(dominators) == 14
    first = dominators[0]
    assert first.params.key()[:4] == (1.0, 0.0, 0.0, 1.0)
    assert first.t_sum_bps == 292500000.0
    assert first.g0 == 2.0

    assert len(scheme_frontier(list(result.points), "RSMA_NoSense")) == 4
    assert len(result.boundary) == 5
    tset = {round(p.params.t_comms, 6) for p in result.boundary}
    assert tset == {0.5, 0.7, 0.9, 1.0}


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
