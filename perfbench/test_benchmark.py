"""Tests of the benchmark itself: python3 -m pytest perfbench -q

The smoke runs drive every workload at reduced size, traced and untraced,
at the golden seed (digests checked) and at another seed (reproduce round
trip), and check the result line against BENCHMARK.json.
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def test_benchmark_json_matches_the_metrics_run_py_reports():
    assert [m["name"] for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in BENCH["end_to_end"]] == list(run.END_TO_END.values())
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_every_rate_is_higher_is_better():
    rates = [m for m in BENCH["end_to_end"] + BENCH["per_layer"] if m["unit"] == "1/s"]
    assert rates and all(m["better"] == "higher" for m in rates)


@pytest.mark.parametrize("seed", [workloads.GOLDEN_SEED, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_is_correct_and_complete(workload, seed):
    for trace_on, spec in ((False, BENCH["end_to_end"]), (True, BENCH["per_layer"])):
        result = run.run_workload(workload, seed, 0.5, trace_on, smoke=True)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {k: m["unit"] for k, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec}
        if not trace_on:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_predictions_cite_metrics_and_workloads_that_exist():
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as fh:
        predictions = json.load(fh)["predictions"]
    metrics = set(run.END_TO_END) | {name for name, _ in run.PER_LAYER}
    for p in predictions:
        assert set(p["layer_metrics"]) <= metrics, p["id"]
        for pairing in p["moves"] + p["holds"]:
            assert pairing["metric"] in metrics and pairing["workload"] in workloads.WORKLOADS
    assert len({p["id"] for p in predictions}) == len(predictions)


def test_golden_digest_mismatch_is_reported():
    found = {"s1-sweep/points.csv": "a" * 64}
    assert checks.golden_problems(found, {"s1-sweep/points.csv": "a" * 64}) == []
    assert checks.golden_problems(found, {"s1-sweep/points.csv": "b" * 64})
    assert checks.golden_problems(found, {})


def _rows(pairs):
    return [{"t_sum_mbps": str(x), "g0": str(y), "tag": str(i)} for i, (x, y) in enumerate(pairs)]


def test_frontier_check_accepts_the_pareto_set_and_rejects_others():
    points = _rows([(0, 3), (1, 2), (2, 1), (0.5, 1), (2, 0.5)])
    assert checks.frontier_problems(points, [points[0], points[1], points[2]], "g0") == []
    # A dominated boundary point, and a boundary that leaves a point beyond it.
    assert checks.frontier_problems(points, [points[0], points[3], points[2]], "g0")
    assert checks.frontier_problems(points, [points[0], points[2]], "g0")


def test_grid_point_count_matches_the_cli_grid():
    run._load_program()
    from rsma_isac.region import enumerate_grid

    for step in (0.5, 0.25, 0.1):
        assert workloads.grid_points(step, 1) == len(enumerate_grid(step, "MRT"))


def test_self_times_subtract_direct_children():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    spans = {"name": np.array([0, 1, 2, 3]), "parent": np.array([-1, 0, 1, 0]),
             "start": np.array([0.0, 1.0, 2.0, 5.0]), "end": np.array([10.0, 4.0, 3.0, 9.0])}
    calls, self_s = tracing.self_times(spans, 4)
    assert calls.tolist() == [1, 1, 1, 1]
    assert self_s.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert self_s.sum() == 10.0


def test_tracer_rebinds_by_name_imports_and_restores_them():
    run._load_program()
    import rsma_isac.cli as cli
    import rsma_isac.radar as radar
    import rsma_isac.region as region

    originals = (region.build_precoders, cli.sweep, radar.steered_projection)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert region.build_precoders is not originals[0]
        assert cli.sweep is not originals[1]
        assert radar.steered_projection is not originals[2]
    finally:
        tracer.uninstall()
    assert (region.build_precoders, cli.sweep, radar.steered_projection) == originals
