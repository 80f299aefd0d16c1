"""End-to-end command-line flows, exercised in process through main()."""

import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from importlib.metadata import entry_points
from pathlib import Path

import pytest

import rsma_isac
from rsma_isac import ConfigError, ScenarioConfig, scenario_preset
from rsma_isac.cli import _parse_params_csv, main

_S2_SMALL = ["--preset", "S2", "--set", "n_subcarriers=32"]


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_sweep(out_dir, extra=()):
    return main(
        ["sweep", *_S2_SMALL, "--step", "0.5", "--family", "both",
         "--out", str(out_dir), *extra]
    )


def test_sweep_writes_outputs_and_manifest(tmp_path):
    out = tmp_path / "sw"
    assert _run_sweep(out) == 0
    names = ["points.csv", "boundary.csv", "boundary_params.csv"]
    for name in names + ["run.json"]:
        assert (out / name).exists()
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["command"] == "sweep"
    assert manifest["scenario"]["n_subcarriers"] == 32
    assert manifest["sweep"]["families"] == ["MRT", "ZF"]
    for name in names:
        assert manifest["outputs"][name] == _digest(out / name)


def test_sweep_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run_sweep(a) == 0
    assert _run_sweep(b) == 0
    for name in ("points.csv", "boundary.csv", "boundary_params.csv", "run.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_sweep_rerun_replaces_its_files(tmp_path):
    # A rerun into a directory that holds a sweep removes each file and
    # creates it anew: a hard link to the old points.csv keeps the old
    # bytes, and every new file equals a run into a fresh directory.
    out, fresh, old = tmp_path / "sw", tmp_path / "fresh", tmp_path / "old_points.csv"
    assert _run_sweep(out) == 0
    old_bytes = (out / "points.csv").read_bytes()
    os.link(out / "points.csv", old)
    assert _run_sweep(out, extra=("--step", "0.25")) == 0
    assert _run_sweep(fresh, extra=("--step", "0.25")) == 0
    assert old.read_bytes() == old_bytes
    assert (out / "points.csv").stat().st_ino != old.stat().st_ino
    for name in ("points.csv", "boundary.csv", "boundary_params.csv", "run.json"):
        assert (out / name).read_bytes() == (fresh / name).read_bytes()


def test_reproduce_into_the_manifest_directory(tmp_path, capsys):
    # The re-run replaces the outputs next to the manifest, never the manifest.
    out = tmp_path / "sw"
    assert _run_sweep(out) == 0
    manifest, points = (out / "run.json").read_bytes(), (out / "points.csv").read_bytes()
    rc = main(["reproduce", "--run", str(out / "run.json"), "--out", str(out)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
    assert (out / "run.json").read_bytes() == manifest
    assert (out / "points.csv").read_bytes() == points


def test_reproduce_matches_manifest(tmp_path, capsys):
    out = tmp_path / "sw"
    assert _run_sweep(out) == 0
    redo = tmp_path / "redo"
    rc = main(["reproduce", "--run", str(out / "run.json"), "--out", str(redo)])
    assert rc == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["status"] == "ok"
    for name in ("points.csv", "boundary.csv", "boundary_params.csv"):
        assert (redo / name).read_bytes() == (out / name).read_bytes()


def test_reproduce_rejects_tampered_digest(tmp_path, capsys):
    out = tmp_path / "sw"
    assert _run_sweep(out) == 0
    manifest = json.loads((out / "run.json").read_text())
    digest = manifest["outputs"]["points.csv"]
    manifest["outputs"]["points.csv"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(manifest))
    rc = main(["reproduce", "--run", str(tampered), "--out", str(tmp_path / "redo")])
    assert rc == 3
    captured = capsys.readouterr()
    assert '"mismatch"' in captured.out
    err = json.loads(captured.err)
    assert err["error"]["type"] == "ReproduceMismatchError"


def test_reproduce_checks_the_command_outputs_only(tmp_path, capsys):
    # An empty outputs map would check no file, and a name with a path
    # would digest a file outside --out; both stop before the re-run.
    out = tmp_path / "sw"
    assert _run_sweep(out) == 0
    manifest = json.loads((out / "run.json").read_text())
    digests = manifest["outputs"]
    foreign = {**digests, "../sw/points.csv": digests["points.csv"]}
    renamed = {("../sw/" + name if name == "points.csv" else name): digest
               for name, digest in digests.items()}
    for i, outputs in enumerate(({}, foreign, renamed, list(digests))):
        manifest["outputs"] = outputs
        run = tmp_path / "run.json"
        run.write_text(json.dumps(manifest))
        redo = tmp_path / f"redo{i}"
        capsys.readouterr()
        assert main(["reproduce", "--run", str(run), "--out", str(redo)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["type"] == "ConfigError"
        assert not redo.exists()


def test_reproduce_missing_manifest(tmp_path):
    rc = main(["reproduce", "--run", str(tmp_path / "nope.json")])
    assert rc == 2


_POINT_SETS = ["--set", "t_comms=1", "--set", "t_p=0.5", "--set", "alpha_c=0.5",
               "--set", "alpha_p=0.5"]
_PARAMS_HEADER = "index,t_comms,t_p,alpha_c,alpha_p,mcs_c,mcs_1,mcs_2\n"
# "{params}" stands for a one-row boundary_params.csv the test writes.
_HEATMAP_ON_PARAMS = ["radar-heatmap", "--params", "{params}", "--set", "n_subcarriers=16"]
_SMALL_SNR_SWEEP = ["sweep", "--metric", "snr", "--step", "0.5", "--set", "n_subcarriers=16"]


def _point_eval(out_dir, params, extra=()):
    sets = [f"--set={k}={v}" for k, v in params.items()]
    return main(
        ["point-eval", "--preset", "S1", "--set", "n_subcarriers=64",
         *sets, "--out", str(out_dir), *extra]
    )


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_point_eval_sensing_only(tmp_path, capsys):
    out = tmp_path / "pt"
    rc = _point_eval(out, dict(t_comms=0, t_p=1, alpha_c=1, alpha_p=1))
    assert rc == 0
    payload = _strict_json((out / "point.json").read_text())
    assert payload == json.loads(capsys.readouterr().out)
    assert payload["g0"] == 2.0
    assert payload["t_sum_bps"] == 0.0
    assert payload["stream_powers"]["sensing"] == pytest.approx(1.0, rel=1e-12)
    assert payload["stream_powers"]["common"] == 0.0
    assert payload["case"] == "General"
    assert not payload["collapsed"]
    assert payload["mcs_indices"] == [None, None, None]
    assert isinstance(payload["crb_bins2"], float)
    assert payload["sinr_common_mean_db"] == ["-inf", "-inf"]
    assert payload["sinr_private_mean_db"] == ["-inf", "-inf"]

    redo = tmp_path / "redo"
    rc = main(["reproduce", "--run", str(out / "run.json"), "--out", str(redo)])
    assert rc == 0
    assert (redo / "point.json").read_bytes() == (out / "point.json").read_bytes()


def test_point_eval_hard_split(tmp_path):
    out = tmp_path / "pt"
    rc = _point_eval(out, dict(t_comms=0.6, t_p=1, alpha_c=1, alpha_p=1))
    assert rc == 0
    payload = _strict_json((out / "point.json").read_text())
    assert payload["case"] == "SDMA_Sense_Hard"
    assert payload["sinr_common_mean_db"] == ["-inf", "-inf"]
    assert payload["stream_powers"]["sensing"] == pytest.approx(0.4, rel=1e-9)
    assert payload["stream_powers"]["common"] == 0.0
    assert payload["t_common_bps"] == 0.0
    assert payload["t_sum_bps"] > 0.0


def test_point_eval_missing_param(tmp_path, capsys):
    rc = _point_eval(tmp_path / "pt", dict(t_comms=0.5, t_p=1, alpha_c=1))
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert "alpha_p" in err["error"]["message"]


def test_point_eval_rejects_both_family(tmp_path):
    rc = _point_eval(
        tmp_path / "pt",
        dict(t_comms=0.5, t_p=1, alpha_c=1, alpha_p=1),
        extra=("--family", "both"),
    )
    assert rc == 2


def test_point_eval_same_seed_same_output(tmp_path, capsys):
    params = dict(t_comms=0.7, t_p=0.5, alpha_c=0.5, alpha_p=0.5)
    assert _point_eval(tmp_path / "a", params) == 0
    first = capsys.readouterr().out
    assert _point_eval(tmp_path / "b", params) == 0
    second = capsys.readouterr().out
    assert first == second
    assert (tmp_path / "a/point.json").read_bytes() == (
        tmp_path / "b/point.json"
    ).read_bytes()


def test_point_eval_gap_override_monotone(tmp_path):
    params = dict(t_comms=1, t_p=0.5, alpha_c=0.5, alpha_p=0.5)
    sums = []
    for i, gap in enumerate((0.0, 3.0)):
        out = tmp_path / f"g{i}"
        rc = _point_eval(out, dict(params, shannon_gap_db=gap))
        assert rc == 0
        sums.append(json.loads((out / "point.json").read_text())["t_sum_bps"])
    assert sums[0] > 0.0
    assert sums[1] <= sums[0]


def test_seed_and_overrides_land_in_manifest(tmp_path):
    out = tmp_path / "sw"
    rc = _run_sweep(out, extra=("--seed", "123", "--set", "total_power=2.0"))
    assert rc == 0
    scenario = json.loads((out / "run.json").read_text())["scenario"]
    assert scenario["seed"] == 123
    assert scenario["total_power"] == 2.0


def test_scenario_file_input(tmp_path):
    cfg = scenario_preset("S3")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg.to_json_dict()))
    out = tmp_path / "pt"
    rc = main(
        ["point-eval", "--scenario", str(path),
         "--set", "t_comms=1", "--set", "t_p=1",
         "--set", "alpha_c=1", "--set", "alpha_p=1", "--out", str(out)]
    )
    assert rc == 0
    manifest = json.loads((out / "run.json").read_text())
    assert ScenarioConfig.from_json_dict(manifest["scenario"]) == cfg


def test_missing_scenario_file(tmp_path):
    rc = main(
        ["sweep", "--scenario", str(tmp_path / "absent.json"),
         "--out", str(tmp_path / "o")]
    )
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--set", "warp_factor=9"],
        ["sweep", "--set", "nodelimiter"],
        ["sweep", "--step", "0.3"],
        ["sweep", "--family", "qr"],
        # keys another command owns are rejected, not silently ignored
        ["sweep", "--set", "t_comms=0.5"],
        ["calibrate-demo", "--set", "grid_step=0.25"],
        ["radar-heatmap", "--params", os.devnull, "--set", 'metric="SNR_RAD"'],
        # non-finite and non-numeric values stop at the boundary
        ["point-eval", "--set", "total_power=NaN", *_POINT_SETS],
        ["point-eval", "--set", "seed=true", *_POINT_SETS],
        ["point-eval", *_POINT_SETS, "--set", "t_comms=true"],
        # radar-heatmap checks its own knobs before it writes anything
        [*_HEATMAP_ON_PARAMS, "--beta", "nan"],
        [*_HEATMAP_ON_PARAMS, "--beta", "inf"],
        [*_HEATMAP_ON_PARAMS, "--beta-decay", "nan"],
        [*_HEATMAP_ON_PARAMS, "--beta-decay=-inf"],
        [*_HEATMAP_ON_PARAMS, "--trials", "-3"],
        # finite betas whose clutter energy 10*beta**2*sum|c|**2 can overflow,
        # at any n0 step; more transmit power lowers the betas that overflow
        [*_HEATMAP_ON_PARAMS, "--beta", "3e154"],
        [*_HEATMAP_ON_PARAMS, "--beta", "1e154"],
        [*_HEATMAP_ON_PARAMS, "--beta", "4e153"],
        [*_HEATMAP_ON_PARAMS, "--beta", "1e105", "--set", "total_power=1e100"],
        [*_HEATMAP_ON_PARAMS, "--beta", "1", "--beta-decay", "1e200", "--n0", "1,2,3"],
        # a truncated row of the params file is an error, not a skipped row
        ["radar-heatmap", "--params", "{truncated}", "--set", "n_subcarriers=16"],
        # the Monte Carlo trial count is an integer under either metric
        [*_SMALL_SNR_SWEEP, "--set", "monte_carlo_trials=true"],
        [*_SMALL_SNR_SWEEP, "--set", "monte_carlo_trials=2.5"],
        [*_SMALL_SNR_SWEEP, "--set", "monte_carlo_trials=NaN"],
        ["sweep", "--step", "0.5", "--set", "n_subcarriers=16",
         "--set", "monte_carlo_trials=true"],
        ["sweep", "--step", "0.5", "--set", "n_subcarriers=16", "--trials", "-3"],
        # every delay is measured once
        [*_HEATMAP_ON_PARAMS, "--n0", ""],
        [*_HEATMAP_ON_PARAMS, "--n0", "1,1"],
        # a finite clutter energy but a matched-filter peak power (beta*G)**2
        # past the float range
        [*_HEATMAP_ON_PARAMS, "--set", "total_power=1e100", "--beta", "1e60",
         "--n0", "1,2", "--trials", "5"],
        # a finite echo amplitude whose square, which the delay CRB and the
        # radar chain take, is past the float range
        ["sweep", "--preset", "S1", "--set", "n_subcarriers=16", "--step", "0.5",
         "--family", "mrt", "--set", "target_attenuation=1e200"],
        ["point-eval", "--set", "target_attenuation=-1e160", *_POINT_SETS],
        # a case filter that is empty, or a bare tag that would split into
        # characters, is a configuration error, not a sweep with no points
        ["sweep", "--preset", "S1", "--set", "n_subcarriers=16", "--step", "0.5",
         "--family", "mrt", "--set", "include_cases=[]"],
        ["sweep", "--preset", "S1", "--set", "n_subcarriers=16", "--step", "0.5",
         "--family", "mrt", "--set", 'include_cases="General"'],
        # a params file with no operating points, or without the knob columns
        ["radar-heatmap", "--params", "{empty}", "--set", "n_subcarriers=16"],
        ["radar-heatmap", "--params", "{noheader}", "--set", "n_subcarriers=16"],
        # a repeated family would be swept, and written, twice
        ["sweep", "--preset", "S2", "--set", "n_subcarriers=16", "--step", "0.5",
         "--set", 'families=["MRT","MRT"]'],
        # a family that is not a string
        ["sweep", "--preset", "S1", "--set", "n_subcarriers=16", "--step", "0.5",
         "--set", "families=[5]"],
    ],
)
def test_bad_configuration_exits_2(tmp_path, argv):
    params = tmp_path / "boundary_params.csv"
    params.write_text(_PARAMS_HEADER + "0,1,1,-,0.5,-,9,9\n")
    truncated = tmp_path / "truncated.csv"
    truncated.write_text(_PARAMS_HEADER + "0,1,1,-,0.5,-,9,9\n1,0.5\n2,1,1,-,0.5,-,9,9\n")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    noheader = tmp_path / "noheader.csv"
    noheader.write_text("foo,bar\n")
    files = {"{params}": str(params), "{truncated}": str(truncated),
             "{empty}": str(empty), "{noheader}": str(noheader)}
    argv = [files.get(arg, arg) for arg in argv]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists() or not any(out.iterdir())


def test_radar_power_overflow_exits_3(tmp_path):
    # The echo's matched-filter power overflows float64: once an inf SNR
    # on every row with exit 0, now a numeric failure with no rows written.
    out = tmp_path / "o"
    argv = [*_SMALL_SNR_SWEEP, "--family", "mrt", "--trials", "2", "--set", "total_power=1e100",
            "--set", "target_attenuation=1e60", "--out", str(out)]
    assert main(argv) == 3
    assert not (out / "points.csv").exists()


def test_params_csv_skips_blank_lines_only(tmp_path):
    path = tmp_path / "boundary_params.csv"
    path.write_text(_PARAMS_HEADER + "0,0,-,-,-,-,-,-\n\n1,1,1,-,0.5,-,9,9\n")
    assert _parse_params_csv(str(path), "ZF") == [
        [0, [0.0, 1.0, 1.0, 1.0, "ZF"]],
        [1, [1.0, 1.0, 1.0, 0.5, "ZF"]],
    ]
    path.write_text(_PARAMS_HEADER + "0,0,-,-,-,-,-,-\n1,1,1,-,0.5\n")
    with pytest.raises(ConfigError, match="line 3"):
        _parse_params_csv(str(path), "ZF")


def test_params_csv_needs_knob_columns_and_a_row(tmp_path):
    path = tmp_path / "boundary_params.csv"
    path.write_text(_PARAMS_HEADER)
    with pytest.raises(ConfigError, match="no operating points"):
        _parse_params_csv(str(path), "MRT")
    path.write_text("index,t_comms,alpha_c,mcs_c\n0,1,1,9\n")
    with pytest.raises(ConfigError, match=r"\['t_p', 'alpha_p'\]"):
        _parse_params_csv(str(path), "MRT")


def test_point_eval_agrees_with_sweep_rows(tmp_path):
    # point-eval and a sweep label and score an operating point through the
    # same functions, so every column they share reads the same
    sw = tmp_path / "sw"
    small = ["--preset", "S2", "--set", "n_subcarriers=16"]
    knob_names = ("t_comms", "t_p", "alpha_c", "alpha_p")
    assert main(["sweep", *small, "--step", "0.5", "--family", "both", "--out", str(sw)]) == 0
    with open(sw / "points.csv", encoding="utf-8") as fh:
        rows = {
            (row["family"], *(float(row[k]) for k in knob_names)): row
            for row in csv.DictReader(fh)
        }
    picks = {
        ("MRT", 0.5, 1.0, 1.0, 1.0): "SDMA_Sense_Hard",
        ("MRT", 1.0, 0.5, 0.0, 1.0): "RSMA_NoSense_Soft",  # collapsed
        ("MRT", 0.0, 1.0, 1.0, 1.0): "General",  # sensing only
        ("ZF", 1.0, 0.5, 0.5, 0.5): "RSMA_NoSense_Soft",
        ("ZF", 0.5, 0.5, 1.0, 1.0): "General",
    }
    assert {rows[key]["collapsed"] for key in picks} == {"0", "1"}
    for i, ((family, *knobs), case) in enumerate(picks.items()):
        row = rows[(family, *knobs)]
        sets = [f"--set={k}={v}" for k, v in zip(knob_names, knobs)]
        out = tmp_path / f"pt{i}"
        assert main(["point-eval", *small, *sets, "--family", family, "--out", str(out)]) == 0
        payload = _strict_json((out / "point.json").read_text())
        assert payload["case"] == row["case"] == case
        assert format(payload["g0"], ".10g") == row["g0"]
        assert format(float(payload["crb_bins2"]), ".10g") == row["crb_bins2"]
        assert format(payload["t_sum_bps"] / 1e6, ".10g") == row["t_sum_mbps"]
        assert str(int(payload["collapsed"])) == row["collapsed"]


def test_bad_preset_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--preset", "S9", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


@pytest.fixture(scope="module")
def heatmap_flow(tmp_path_factory):
    root = tmp_path_factory.mktemp("heatmap")
    sw = root / "sw"
    rc = main(
        ["sweep", "--preset", "S1", "--set", "n_subcarriers=64",
         "--step", "0.5", "--family", "mrt", "--out", str(sw)]
    )
    assert rc == 0
    hm = root / "hm"
    rc = main(
        ["radar-heatmap", "--preset", "S1", "--set", "n_subcarriers=64",
         "--params", str(sw / "boundary_params.csv"), "--n0", "1,2,3",
         "--trials", "20", "--beta", "0.5", "--out", str(hm)]
    )
    assert rc == 0
    return sw, hm


def test_boundary_params_file_exact(heatmap_flow):
    sw, _ = heatmap_flow
    lines = (sw / "boundary_params.csv").read_text().splitlines()
    assert lines == [
        "index,t_comms,t_p,alpha_c,alpha_p,mcs_c,mcs_1,mcs_2",
        "0,1,0,0,-,8,-,-",
        "1,0.5,0.5,0,1,1,6,6",
        "2,1,0.5,0,1,1,7,7",
        "3,1,1,-,1,-,8,8",
    ]


def test_heatmap_rows(heatmap_flow):
    _, hm = heatmap_flow
    lines = (hm / "heatmap.csv").read_text().splitlines()
    assert lines[0] == "index,n0,bin,snr_db,peak_correct"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 12  # 4 boundary rows x 3 delays

    by_index = {}
    for index, n0, bin_, snr_db, correct in rows:
        by_index.setdefault(index, []).append(
            (int(n0), int(bin_), float(snr_db), float(correct))
        )
    assert set(by_index) == {"0", "1", "2", "3"}
    for entries in by_index.values():
        assert [e[0] for e in entries] == [1, 2, 3]
        snrs = [e[2] for e in entries]
        # the echo amplitude halves per delay step, so measured SNR drops
        assert snrs[0] > snrs[1] > snrs[2]
        for n0, bin_, _, correct in entries:
            assert correct >= 0.8
            if n0 == 1:
                assert correct == 1.0
            if correct == 1.0:
                assert bin_ == n0


def test_heatmap_reproduces(heatmap_flow, tmp_path, capsys):
    _, hm = heatmap_flow
    redo = tmp_path / "redo"
    rc = main(["reproduce", "--run", str(hm / "run.json"), "--out", str(redo)])
    assert rc == 0
    assert (redo / "heatmap.csv").read_bytes() == (hm / "heatmap.csv").read_bytes()


def test_heatmap_zero_trials(heatmap_flow, tmp_path):
    sw, _ = heatmap_flow
    out = tmp_path / "hm0"
    rc = main(
        ["radar-heatmap", "--preset", "S1", "--set", "n_subcarriers=64",
         "--params", str(sw / "boundary_params.csv"), "--trials", "0",
         "--out", str(out)]
    )
    assert rc == 0
    assert (out / "heatmap.csv").read_text() == "index,n0,bin,snr_db,peak_correct\n"


def test_reproduce_rejects_negative_heatmap_trials(heatmap_flow, tmp_path):
    _, hm = heatmap_flow
    manifest = json.loads((hm / "run.json").read_text())
    manifest["heatmap"]["trials"] = -3
    run = tmp_path / "run.json"
    run.write_text(json.dumps(manifest))
    out = tmp_path / "redo"
    assert main(["reproduce", "--run", str(run), "--out", str(out)]) == 2
    assert not (out / "heatmap.csv").exists()


def test_reproduce_rejects_overflowing_heatmap_beta(heatmap_flow, tmp_path):
    _, hm = heatmap_flow
    manifest = json.loads((hm / "run.json").read_text())
    # an integer beyond the float range is as unusable as an overflowing float
    for i, (beta0, decay) in enumerate(((3e154, 0.5), (4e153, 1.0), (1.0, 1e200), (10**400, 0.5))):
        manifest["heatmap"].update(beta0=beta0, beta_decay=decay)
        run = tmp_path / "run.json"
        run.write_text(json.dumps(manifest))
        out = tmp_path / f"redo{i}"
        assert main(["reproduce", "--run", str(run), "--out", str(out)]) == 2
        assert not (out / "heatmap.csv").exists()


def test_reproduce_rejects_empty_or_repeated_heatmap_n0(heatmap_flow, tmp_path):
    _, hm = heatmap_flow
    manifest = json.loads((hm / "run.json").read_text())
    # non-integer delays stop before heatmap.csv is opened, bools included
    for i, n0_values in enumerate(([], [1, 1], [1.5, 2], [True, 2])):
        manifest["heatmap"]["n0_values"] = n0_values
        run = tmp_path / "run.json"
        run.write_text(json.dumps(manifest))
        out = tmp_path / f"redo{i}"
        assert main(["reproduce", "--run", str(run), "--out", str(out)]) == 2
        assert not (out / "heatmap.csv").exists()


def test_failed_heatmap_rerun_leaves_no_files(heatmap_flow, tmp_path, capsys):
    # The second delay's echo decays to zero with no radar noise, so its
    # matched-filter output is identically zero. The rerun fails after the
    # first delay's rows: neither a partial heatmap.csv nor the earlier
    # run's run.json, which describes another file, may stay behind.
    sw, hm = heatmap_flow
    out = tmp_path / "hm"
    shutil.copytree(hm, out)
    capsys.readouterr()
    rc = main(["radar-heatmap", "--preset", "S1", "--set", "n_subcarriers=64",
               "--params", str(sw / "boundary_params.csv"), "--set", "noise_power_radar=0",
               "--beta", "0.1", "--beta-decay", "0", "--out", str(out)])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "UndefinedProfileError"
    assert not (out / "heatmap.csv").exists()
    assert not (out / "run.json").exists()


def test_reproduce_rejects_empty_heatmap_rows(heatmap_flow, tmp_path, capsys):
    # A fresh run rejects a params file without rows; a replay does too.
    _, hm = heatmap_flow
    manifest = json.loads((hm / "run.json").read_text())
    manifest["heatmap"]["params_rows"] = []
    run = tmp_path / "run.json"
    run.write_text(json.dumps(manifest))
    out = tmp_path / "redo"
    capsys.readouterr()
    assert main(["reproduce", "--run", str(run), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "ConfigError"
    assert not any(out.iterdir())


def test_reproduce_rejects_bool_knobs(heatmap_flow, tmp_path, capsys):
    # point-eval --set t_comms=true exits 2; a replayed manifest that
    # carries the same bool, as a point or as a heatmap row, does too. So
    # do a family that is not a string and a heatmap row index that is not
    # an integer, or is negative, or repeats another row's (row 1's here),
    # which would otherwise be written into heatmap.csv.
    pt = tmp_path / "pt"
    assert _point_eval(pt, dict(t_comms=1, t_p=1, alpha_c=1, alpha_p=0.5)) == 0
    _, hm = heatmap_flow
    manifests = []
    for knobs in ([True, 1.0, 1.0, 0.5, "MRT"], [1.0, 1.0, 1.0, 0.5, 5]):
        point = json.loads((pt / "run.json").read_text())
        point["point"] = knobs
        manifests.append(point)
    for row in ([0, [True, 1.0, 1.0, 0.5, "MRT"]], [0, [1.0, 1.0, 1.0, 0.5, 5]],
                [True, [1.0, 1.0, 1.0, 0.5, "MRT"]], ["x,y", [1.0, 1.0, 1.0, 0.5, "MRT"]],
                [1.5, [1.0, 1.0, 1.0, 0.5, "MRT"]], [-1, [1.0, 1.0, 1.0, 0.5, "MRT"]],
                [1, [1.0, 1.0, 1.0, 0.5, "MRT"]]):
        heatmap = json.loads((hm / "run.json").read_text())
        heatmap["heatmap"]["params_rows"][0] = row
        manifests.append(heatmap)
    for i, manifest in enumerate(manifests):
        run = tmp_path / "run.json"
        run.write_text(json.dumps(manifest))
        out = tmp_path / f"redo{i}"
        capsys.readouterr()
        assert main(["reproduce", "--run", str(run), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "error" in json.loads(err)
        assert not any(out.iterdir())


def test_radar_chain_projects_once_per_trial(tmp_path, monkeypatch):
    # Every Monte Carlo trial synthesizes one waveform and steers it once;
    # the capture and matched-filter stages take the projection as given.
    import rsma_isac.radar as radar_mod

    counts = {"synthesize_tx": 0, "steered_projection": 0}

    def counting(name):
        original = getattr(radar_mod, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    # radar.monte_carlo runs the chain for both commands
    for name in counts:
        monkeypatch.setattr(radar_mod, name, counting(name))

    sw = tmp_path / "sw"
    assert main(["sweep", "--metric", "snr", "--step", "0.5", "--family", "mrt",
                 "--set", "n_subcarriers=16", "--trials", "3", "--out", str(sw)]) == 0
    assert counts["synthesize_tx"] > 0
    assert counts["steered_projection"] == counts["synthesize_tx"]

    counts.update(synthesize_tx=0, steered_projection=0)
    assert main(["radar-heatmap", "--set", "n_subcarriers=16", "--n0", "1,2",
                 "--params", str(sw / "boundary_params.csv"), "--trials", "2",
                 "--out", str(tmp_path / "hm")]) == 0
    assert counts["synthesize_tx"] > 0
    assert counts["steered_projection"] == counts["synthesize_tx"]


def test_heatmap_missing_params_file(tmp_path):
    rc = main(
        ["radar-heatmap", "--params", str(tmp_path / "absent.csv"),
         "--out", str(tmp_path / "o")]
    )
    assert rc == 2


def test_heatmap_bad_inputs(heatmap_flow, tmp_path):
    sw, _ = heatmap_flow
    params = str(sw / "boundary_params.csv")
    base = ["radar-heatmap", "--preset", "S1", "--set", "n_subcarriers=64",
            "--params", params, "--out", str(tmp_path / "o")]
    assert main(base + ["--n0", "1,foo"]) == 2
    assert main(base + ["--n0", "70"]) == 2
    assert main(base + ["--family", "both"]) == 2


# sha256 of run.json for one small run of each command. Drift in the
# manifest format would stop existing manifests from reproducing, so a
# change here has to be deliberate.
_RUN_JSON_SHA256 = {
    "sweep": "0ee4d7b104156a1bf4cde94f5cca18618a88784b8e1edbc162e18d787d0b0236",
    "radar-heatmap": "68527fd2221f2a582855f80cf04be3ac47115696dd9905ad557477d6b43fdd12",
    "point-eval": "0ab9e9e2f28c4ebed7365b222d1d5262ecfef9f96198e03e7bbbc50c35070647",
    "calibrate-demo": "3ab390882321f4938bc05c0c8c4a6c05292ceaeb49799231fe871c1948aeb139",
}


def test_run_json_bytes_pinned(heatmap_flow, tmp_path):
    sw, hm = heatmap_flow
    pt, cal = tmp_path / "pt", tmp_path / "cal"
    assert _point_eval(pt, dict(t_comms=0.7, t_p=0.5, alpha_c=0.5, alpha_p=0.5)) == 0
    assert main(["calibrate-demo", "--preset", "S2", "--set", "n_subcarriers=64",
                 "--out", str(cal)]) == 0
    dirs = {"sweep": sw, "radar-heatmap": hm, "point-eval": pt, "calibrate-demo": cal}
    actual = {command: _digest(d / "run.json") for command, d in dirs.items()}
    assert actual == _RUN_JSON_SHA256


def test_calibrate_demo(tmp_path, capsys):
    out = tmp_path / "cal"
    rc = main(["calibrate-demo", "--preset", "S2",
               "--set", "n_subcarriers=64", "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "calibration.json").read_text())
    assert payload == json.loads(capsys.readouterr().out)
    assert payload["correction"] == -payload["delta_phi"]
    before = payload["misalignment_before_rad"]
    after = payload["misalignment_after_rad"]
    assert after < 0.05
    assert after < before / 5.0

    redo = tmp_path / "redo"
    rc = main(["reproduce", "--run", str(out / "run.json"), "--out", str(redo)])
    assert rc == 0


_SCRIPT = "rsma-isac"
_TARGET = "rsma_isac.cli:main"
_PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.mark.parametrize("launcher", ["console-script", "python-m"])
def test_console_script_installed(tmp_path, launcher):
    """The script pyproject.toml declares starts the CLI, installed or not,
    and so does ``python -m rsma_isac``.

    For the script, the subprocess runs what a console-script wrapper runs
    for the declared target. Both run against the same rsma_isac package
    this test session imported.
    """
    if launcher == "python-m":
        argv = [sys.executable, "-m", "rsma_isac", "--help"]
    else:
        tomllib = pytest.importorskip("tomllib")
        with _PYPROJECT.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts.get(_SCRIPT) == _TARGET
        module, func = scripts[_SCRIPT].split(":")
        wrapper = (
            "import sys\n"
            f"from {module} import {func}\n"
            f"sys.argv = [{_SCRIPT!r}, '--help']\n"
            f"sys.exit({func}())\n"
        )
        argv = [sys.executable, "-c", wrapper]
    pkg_root = str(Path(rsma_isac.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"usage: {_SCRIPT}")
    assert "sweep" in proc.stdout


@pytest.mark.skipif(
    shutil.which(_SCRIPT) is None,
    reason=f"{_SCRIPT} is not on PATH (the package is not installed)",
)
def test_console_script_on_path():
    (ep,) = entry_points(group="console_scripts", name=_SCRIPT)
    assert ep.value == _TARGET
    assert ep.dist is not None
    assert re.sub(r"[-_.]+", "-", ep.dist.name).lower() == _SCRIPT
    exe = shutil.which(_SCRIPT)
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "sweep" in proc.stdout
