"""End-to-end command-line flows, exercised in process through main()."""

import argparse
import csv
import dataclasses
import hashlib
import json
import math
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
from rsma_isac.cli import _COMMANDS, _KNOBS, _parse_params_csv, build_parser, main

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


def test_reproduce_refuses_a_directory_holding_another_run(tmp_path, capsys):
    # Reproducing b into a, which holds its own run, would leave b's outputs
    # beside a's manifest; it stops before any file is touched.
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run_sweep(a) == 0
    assert _run_sweep(b, extra=("--step", "0.25")) == 0
    before = {path.name: path.read_bytes() for path in a.iterdir()}
    capsys.readouterr()
    assert main(["reproduce", "--run", str(b / "run.json"), "--out", str(a)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "ConfigError"
    assert {path.name: path.read_bytes() for path in a.iterdir()} == before


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


def _point_sets(**knobs):
    knobs = {"t_comms": 1, "t_p": 0.5, "alpha_c": 0.5, "alpha_p": 0.5, **knobs}
    return [arg for key, value in knobs.items() for arg in ("--set", f"{key}={value}")]


_POINT_SETS = _point_sets()
_PARAMS_HEADER = "index,t_comms,t_p,alpha_c,alpha_p,mcs_c,mcs_1,mcs_2\n"
# "{params}" stands for a one-row boundary_params.csv the test writes.
_HEATMAP_ON_PARAMS = ["radar-heatmap", "--params", "{params}", "--set", "n_subcarriers=16"]
_SMALL_SNR_SWEEP = ["sweep", "--metric", "snr", "--step", "0.5", "--set", "n_subcarriers=16"]
_SMALL_G0_SWEEP = ["sweep", "--preset", "S1", "--set", "n_subcarriers=16", "--step", "0.5"]


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


def test_flags_are_the_only_route_for_their_settings(tmp_path, capsys):
    # --seed, --step, --family, --metric and --trials set these fields, and
    # --set does not take them, so no rule has to pick between two values
    for pair in ("seed=7", "grid_step=0.25", 'families=["MRT"]', 'metric="SNR_RAD"',
                 "monte_carlo_trials=3"):
        key = pair.split("=")[0]
        out = tmp_path / key
        assert _run_sweep(out, extra=("--set", pair)) == 2
        assert not out.exists()
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message == f"unknown override keys for sweep: [{key!r}]"
    out = tmp_path / "sw"
    assert _run_sweep(out, extra=("--seed", "5")) == 0
    assert json.loads((out / "run.json").read_text())["scenario"]["seed"] == 5


def test_set_takes_one_json_value_per_key(tmp_path, capsys):
    cases = [
        # the seed comes from --seed or the scenario, on every command
        *((argv + ["--set", "seed=7"], f"unknown override keys for {argv[0]}: ['seed']")
          for argv in (["sweep"], ["radar-heatmap", "--params", os.devnull],
                       ["point-eval", *_POINT_SETS], ["calibrate-demo"])),
        # a key given twice is an error, even with the same value
        (["sweep", "--set", "total_power=2", "--set", "total_power=2"],
         "--set total_power given twice"),
        (["point-eval", *_POINT_SETS, "--set", "t_p=1"], "--set t_p given twice"),
        # a value is JSON or an error, never a plain string
        (["sweep", "--set", "total_power=abc"], "--set total_power: 'abc' is not a JSON value"),
        (["sweep", "--set", "include_cases=General"],
         "--set include_cases: 'General' is not a JSON value"),
        (["point-eval", *_point_sets(alpha_c="")], "--set alpha_c: '' is not a JSON value"),
    ]
    for argv, message in cases:
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert json.loads(capsys.readouterr().err)["error"]["message"] == message


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


# Each case keeps its id when another is added or deleted: a deleted
# case's id is retired, and a new case takes the next unused number.
# A dict argument stands for a hand-written sweep manifest, run through
# reproduce, whose "sweep" section takes the dict's values.
_BAD_CONFIGURATIONS = {
    "argv0": ["sweep", "--set", "warp_factor=9"],
    "argv1": ["sweep", "--set", "nodelimiter"],
    "argv2": ["sweep", "--step", "0.3"],
    "argv3": ["sweep", "--family", "qr"],
    # keys another command owns are rejected, not silently ignored
    "argv4": ["sweep", "--set", "t_comms=0.5"],
    "argv5": ["calibrate-demo", "--set", 'include_cases=["General"]'],
    "argv6": ["radar-heatmap", "--params", os.devnull, "--set", "t_p=0.5"],
    # non-finite and non-numeric values stop at the boundary
    "argv7": ["point-eval", "--set", "total_power=NaN", *_POINT_SETS],
    "argv8": ["point-eval", "--scenario", "{seed_true}", *_POINT_SETS],
    # random streams are keyed by 64-bit seeds
    "argv9": ["point-eval", "--seed", "-1", *_POINT_SETS],
    "argv10": ["point-eval", "--seed", str(2**64), *_POINT_SETS],
    "argv11": ["point-eval", *_point_sets(t_comms="true")],
    # radar-heatmap checks its echo and its own knobs before it writes anything
    "argv12": [*_HEATMAP_ON_PARAMS, "--set", "target_attenuation=NaN"],
    "argv13": [*_HEATMAP_ON_PARAMS, "--set", "target_attenuation=Infinity"],
    "argv14": [*_HEATMAP_ON_PARAMS, "--set", "target_attenuation=-Infinity"],
    "argv15": [*_HEATMAP_ON_PARAMS, "--set", "target_attenuation=true"],
    "argv16": [*_HEATMAP_ON_PARAMS, "--trials", "-3"],
    # finite first echoes whose clutter energy 10*beta**2*sum|c|**2 can
    # overflow; more transmit power lowers the echoes that overflow
    "argv17": [*_HEATMAP_ON_PARAMS, "--set", "target_attenuation=3e154"],
    "argv18": [*_HEATMAP_ON_PARAMS, "--set", "target_attenuation=1e154"],
    "argv19": [*_HEATMAP_ON_PARAMS, "--set", "target_attenuation=4e153"],
    "argv20": [*_HEATMAP_ON_PARAMS, "--set", "target_attenuation=1e105",
               "--set", "total_power=1e100"],
    # the bound is on the first listed delay's echo, whichever delay it is
    "argv21": [*_HEATMAP_ON_PARAMS, "--set", "target_attenuation=4e153", "--n0", "3"],
    # a truncated row of the params file is an error, not a skipped row
    "argv22": ["radar-heatmap", "--params", "{truncated}", "--set", "n_subcarriers=16"],
    # so is a row with more cells than the header
    "argv23": ["radar-heatmap", "--params", "{overlong}", "--set", "n_subcarriers=16"],
    # the Monte Carlo trial count is an integer under either metric
    "argv24": ["reproduce", "--run", {"metric": "SNR_RAD", "monte_carlo_trials": True}],
    "argv25": ["reproduce", "--run", {"metric": "SNR_RAD", "monte_carlo_trials": 2.5}],
    "argv26": ["reproduce", "--run", {"metric": "SNR_RAD", "monte_carlo_trials": math.nan}],
    "argv27": ["reproduce", "--run", {"monte_carlo_trials": True}],
    "argv28": ["sweep", "--step", "0.5", "--set", "n_subcarriers=16", "--trials", "-3"],
    # every delay is measured once
    "argv29": [*_HEATMAP_ON_PARAMS, "--n0", ""],
    "argv30": [*_HEATMAP_ON_PARAMS, "--n0", "1,1"],
    # a finite clutter energy but a matched-filter peak power (beta*G)**2
    # past the float range
    "argv31": [*_HEATMAP_ON_PARAMS, "--set", "total_power=1e100",
               "--set", "target_attenuation=1e60", "--n0", "1,2", "--trials", "5"],
    # a finite echo amplitude whose square, which the delay CRB and the
    # radar chain take, is past the float range
    "argv32": ["sweep", "--preset", "S1", "--set", "n_subcarriers=16", "--step", "0.5",
               "--family", "mrt", "--set", "target_attenuation=1e200"],
    "argv33": ["point-eval", "--set", "target_attenuation=-1e160", *_POINT_SETS],
    # a case filter that is empty, or a bare tag that would split into
    # characters, is a configuration error, not a sweep with no points
    "argv34": ["sweep", "--preset", "S1", "--set", "n_subcarriers=16", "--step", "0.5",
               "--family", "mrt", "--set", "include_cases=[]"],
    "argv35": ["sweep", "--preset", "S1", "--set", "n_subcarriers=16", "--step", "0.5",
               "--family", "mrt", "--set", 'include_cases="General"'],
    # a params file with no operating points, or without the knob columns
    "argv36": ["radar-heatmap", "--params", "{empty}", "--set", "n_subcarriers=16"],
    "argv37": ["radar-heatmap", "--params", "{noheader}", "--set", "n_subcarriers=16"],
    # a repeated family would be swept, and written, twice
    "argv38": ["reproduce", "--run", {"families": ["MRT", "MRT"]}],
    # a family that is not a string
    "argv39": ["reproduce", "--run", {"families": [5]}],
    # a list-valued knob, typed or replayed: (t_comms, t_p) pairs are
    # for sweeps, and a command evaluates one point
    "argv40": ["point-eval", *_point_sets(t_comms="[0.5,0.6]")],
    "argv41": ["reproduce", "--run", "{point_run}"],
    "argv42": ["reproduce", "--run", "{heatmap_run}"],
    # link budgets whose gains, SINRs or sensing energies pass the float
    # range stop at the boundary, naming the field
    "argv43": [*_SMALL_G0_SWEEP, "--set", "total_power=1e308"],
    "argv44": [*_SMALL_G0_SWEEP, "--set", "noise_power_comms=1e-310"],
    "argv45": [*_SMALL_G0_SWEEP, "--set", "ue_gains=[1e160,1e160]"],
    "argv46": ["point-eval", "--preset", "S1", "--set", "total_power=1.5e308", *_POINT_SETS],
    # so do channel estimates whose energy passes it
    "argv47": [*_SMALL_G0_SWEEP, "--set", "csit_error_var=1e308"],
    # and a subcarrier count that is itself past the float range
    "argv48": ["sweep", "--preset", "S1", "--step", "0.5", "--set", f"n_subcarriers={10**400}"],
    # a link too large for any address space (568 PiB of channel rows):
    # the allocation fails at once, whatever the host's overcommit setting
    "argv49": ["sweep", "--preset", "S1", "--step", "0.5", "--set", f"n_subcarriers={10**16}"],
    "argv50": ["point-eval", "--set", f"n_subcarriers={10**16}", *_POINT_SETS],
    "argv51": ["radar-heatmap", "--params", "{params}", "--set", f"n_subcarriers={10**16}"],
}


@pytest.mark.parametrize(
    "argv", list(_BAD_CONFIGURATIONS.values()), ids=list(_BAD_CONFIGURATIONS)
)
def test_bad_configuration_exits_2(tmp_path, argv):
    params = tmp_path / "boundary_params.csv"
    params.write_text(_PARAMS_HEADER + "0,1,1,-,0.5,-,9,9\n")
    truncated = tmp_path / "truncated.csv"
    truncated.write_text(_PARAMS_HEADER + "0,1,1,-,0.5,-,9,9\n1,0.5\n2,1,1,-,0.5,-,9,9\n")
    overlong = tmp_path / "overlong.csv"
    overlong.write_text(_PARAMS_HEADER + "0,1,1,-,0.5,-,9,9,99\n")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    noheader = tmp_path / "noheader.csv"
    noheader.write_text("foo,bar\n")
    scenario = {**scenario_preset("S1").to_json_dict(), "n_subcarriers": 16}
    seed_true = tmp_path / "seed_true.json"
    seed_true.write_text(json.dumps({**scenario, "seed": True}))
    listed = [[0.5, 0.6], [0.5, 0.5], 0.5, 0.5, "MRT"]
    point_run = tmp_path / "point_run.json"
    point_run.write_text(json.dumps({
        "command": "point-eval", "scenario": scenario,
        "outputs": {"point.json": "0" * 64}, "point": listed,
    }))
    heatmap_run = tmp_path / "heatmap_run.json"
    heatmap_run.write_text(json.dumps({
        "command": "radar-heatmap", "scenario": scenario,
        "outputs": {"heatmap.csv": "0" * 64},
        "heatmap": {"params_rows": [[0, listed]], "n0_values": [1], "trials": 2,
                    "beta0": 0.1, "beta_decay": 0.5, "family": "mrt"},
    }))

    def sweep_run(changes):
        path = tmp_path / "sweep_run.json"
        path.write_text(json.dumps({
            "command": "sweep", "scenario": scenario,
            "outputs": {name: "0" * 64 for name in _COMMANDS["sweep"][2]},
            "sweep": {"grid_step": 0.5, "families": ["MRT"], "metric": "G0",
                      "include_cases": None, "monte_carlo_trials": 2, **changes},
        }))
        return str(path)

    files = {"{params}": str(params), "{truncated}": str(truncated),
             "{overlong}": str(overlong), "{empty}": str(empty), "{noheader}": str(noheader),
             "{seed_true}": str(seed_true),
             "{point_run}": str(point_run), "{heatmap_run}": str(heatmap_run)}
    argv = [sweep_run(arg) if isinstance(arg, dict) else files.get(arg, arg) for arg in argv]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists() or not any(out.iterdir())


def test_link_budget_past_the_float_range_names_its_field(tmp_path, capsys):
    # Exit 2 before any file is written, with the field that breaks the bound.
    for argv, field in (
        ([*_SMALL_G0_SWEEP, "--set", "total_power=1e308"], "total_power 1e+308"),
        ([*_SMALL_G0_SWEEP, "--set", "noise_power_comms=1e-310"], "noise_power_comms 1e-310"),
        ([*_SMALL_G0_SWEEP, "--set", "ue_gains=[1e160,1e160]"], "ue_gains (1e+160, 1e+160)"),
        ([*_SMALL_G0_SWEEP, "--set", "csit_error_var=1e308"], "csit_error_var 1e+308"),
    ):
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists() or not any(out.iterdir())
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ConfigError" and field in error["message"]


def test_underflowing_delay_information_gives_an_inf_crb(tmp_path):
    # Information too small to invert is an infinite CRB, without a
    # warning (RuntimeWarnings fail the tests).
    out = tmp_path / "o"
    assert main([*_SMALL_G0_SWEEP, "--set", "total_power=1e-320", "--out", str(out)]) == 0
    header, *rows = (out / "points.csv").read_text().splitlines()
    assert rows and {row.split(",")[9] for row in rows} == {"inf"}


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
    path.write_text(_PARAMS_HEADER + "0,0,-,-,-,-,-,-\n1,1,1,-,0.5,-,9,9,99\n")
    with pytest.raises(ConfigError, match="line 3"):
        _parse_params_csv(str(path), "ZF")
    # a knob or index cell that is not a number names the file and its line
    path.write_text(_PARAMS_HEADER + "0,0,-,-,-,-,-,-\n1,abc,1,-,0.5,-,9,9\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}, line 3: .*'abc'"):
        _parse_params_csv(str(path), "ZF")
    path.write_text(_PARAMS_HEADER + "0.5,1,1,-,0.5,-,9,9\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}, line 2: .*'0.5'"):
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


@pytest.mark.parametrize(
    "argv",
    [
        # the echo comes from the scenario's target_attenuation alone
        ["radar-heatmap", "--params", os.devnull, "--beta", "0.5"],
        ["radar-heatmap", "--params", os.devnull, "--beta-decay", "0.5"],
        # a run takes its scenario from one source, never dropping the other
        ["sweep", "--scenario", os.devnull, "--preset", "S1"],
        ["point-eval", "--preset", "S2", "--scenario", os.devnull, *_POINT_SETS],
        ["radar-heatmap", "--params", os.devnull, "--scenario", os.devnull, "--preset", "S1"],
        ["calibrate-demo", "--scenario", os.devnull, "--preset", "S3"],
    ],
)
def test_gone_or_conflicting_options_are_usage_errors(tmp_path, argv):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


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
         "--trials", "20", "--set", "target_attenuation=0.5", "--out", str(hm)]
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
    # Manifests written while the section still carried the unread
    # "family" key reproduce too.
    manifest = json.loads((hm / "run.json").read_text())
    assert "family" not in manifest["heatmap"]
    manifest["heatmap"]["family"] = "mrt"
    old = tmp_path / "old.json"
    old.write_text(json.dumps(manifest))
    assert main(["reproduce", "--run", str(old), "--out", str(tmp_path / "old")]) == 0


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


def test_heatmap_zero_trials_still_builds_each_row(heatmap_flow, tmp_path):
    # With no trials there is nothing to measure, but every row is still
    # built: ZF rows with private power on parallel users cannot be.
    sw, _ = heatmap_flow
    out = tmp_path / "hm0"
    rc = main(
        ["radar-heatmap", "--preset", "S1", "--set", "n_subcarriers=64",
         "--set", "ue_angles_deg=[30,30]", "--family", "zf",
         "--params", str(sw / "boundary_params.csv"), "--trials", "0", "--out", str(out)]
    )
    assert rc == 3
    assert not (out / "heatmap.csv").exists()


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
    # The echo is the scenario's: ScenarioConfig turns away 3e154, whose
    # square overflows, and an integer beyond the float range; the heatmap's
    # bound turns away 4e153, whose clutter energy overflows.
    for i, beta in enumerate((3e154, 4e153, 10**400)):
        manifest["scenario"]["target_attenuation"] = beta
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
    # On parallel users ZF can build the sensing-only row 0 but not row 1,
    # which gives the private streams power. The rerun fails after row 0's
    # cells are measured: neither a partial heatmap.csv nor the earlier
    # run's run.json, which describes another file, may stay behind.
    _, hm = heatmap_flow
    params = tmp_path / "boundary_params.csv"
    params.write_text(_PARAMS_HEADER + "0,0,-,-,-,-,-,-\n1,0.5,0.5,0.5,0.5,-,-,-\n")
    out = tmp_path / "hm"
    shutil.copytree(hm, out)
    capsys.readouterr()
    rc = main(["radar-heatmap", "--preset", "S1", "--set", "n_subcarriers=64",
               "--params", str(params), "--family", "zf",
               "--set", "ue_angles_deg=[30,30]", "--out", str(out)])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "RankDeficientChannelError"
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


@pytest.mark.parametrize("name, calls", [
    ("stream_gains", 1), ("sinr_common", 1), ("sinr_private", 1), ("spectral_efficiency", 4),
])
def test_point_eval_scores_once(tmp_path, monkeypatch, name, calls):
    # One stream_gains call gives point-eval its throughput, its SINR
    # fields and its sensing numbers, and one throughput() call scores the
    # gains: its report carries the SINRs and the four efficiencies (two
    # per user for the common stream, one per private stream) that
    # point.json reads. Every module's binding of the function is counted,
    # so a call by any route shows.
    original = getattr(rsma_isac, name)
    seen = []

    def counting(*args, **kwargs):
        seen.append(args)
        return original(*args, **kwargs)

    modules = [module for key, module in sys.modules.items()
               if key == "rsma_isac" or key.startswith("rsma_isac.")]
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, counting)
    assert _point_eval(tmp_path / "pt", dict(t_comms=0.6, t_p=0.5, alpha_c=0.5, alpha_p=0.5)) == 0
    assert len(seen) == calls


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
    assert main(base + ["--n0", "1,,2"]) == 2
    assert main(base + ["--n0", "1,2,"]) == 2
    assert main(base + ["--n0", "70"]) == 2
    assert main(base + ["--family", "both"]) == 2


# sha256 of run.json for one small run of each command. Drift in the
# manifest format would stop existing manifests from reproducing, so a
# change here has to be deliberate.
_RUN_JSON_SHA256 = {
    "sweep": "0ee4d7b104156a1bf4cde94f5cca18618a88784b8e1edbc162e18d787d0b0236",
    "radar-heatmap": "967e9fecdcd973daa0cd45a6f2e558d4b7979943e93287471c27112b149bab35",
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
_README = _PYPROJECT.with_name("README.md")


def _readme_set_keys(text: str) -> dict:
    """Each command's --set keys as the README's CLI section names them.

    The keys are the backquoted names outside parentheses: those of the
    paragraph listing the scenario fields, plus those of the command's row
    of the table under it.
    """
    common, table = re.search(
        r"`--set` takes the scenario fields on every command:(.*?)\.\s.*?\n(\|.*?)\n\n", text, re.S
    ).groups()

    def keys(cell):
        return set(re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", cell)))

    return {
        command: keys(common) | keys(row_keys)
        for commands, row_keys in re.findall(r"^\| (`.*?) \| (.*?) \|$", table, re.M)
        for command in re.findall(r"`([\w-]+)`", commands)
    }


def test_readme_names_every_set_key():
    scenario = {f.name for f in dataclasses.fields(ScenarioConfig)} - {"seed"}
    own = {"sweep": {"include_cases"}, "point-eval": set(_KNOBS)}
    expected = {command: scenario | own.get(command, set()) for command in _COMMANDS}
    assert _readme_set_keys(_README.read_text(encoding="utf-8")) == expected


def _readme_cli_flags(text: str) -> set:
    """The ``--flag`` tokens of the README's CLI section."""
    section = re.search(r"^## CLI\n(.*?)^## ", text, re.S | re.M).group(1)
    return set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))


def test_readme_names_every_cli_flag():
    parser = build_parser()
    (subcommands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        option
        for sub in subcommands.choices.values()
        for action in sub._actions
        for option in action.option_strings
    }
    assert _readme_cli_flags(_README.read_text(encoding="utf-8")) == flags - {"-h", "--help"}


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
