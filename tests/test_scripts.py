"""The experiment scripts under scripts/, run the way the README shows."""

import os
import pathlib
import subprocess
import sys

import rsma_isac

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_SRC = str(pathlib.Path(rsma_isac.__file__).resolve().parents[1])


def _run(script: str, *args: str, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / script), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_run_regions_script(tmp_path):
    out = tmp_path / "regions"
    proc = _run("run_regions.py", "--step", "0.5", "--subcarriers", "16",
                "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for preset in ("s1", "s2", "s3"):
        for family in ("mrt", "zf"):
            d = out / f"{preset}_{family}"
            for name in ("points.csv", "boundary.csv", "boundary_params.csv", "run.json"):
                assert (d / name).is_file(), d / name
    assert proc.stdout.startswith("scenario")
    # one table row per scenario/family pair, each with the 31-point grid
    rows = [line.split() for line in proc.stdout.splitlines()[1:7]]
    assert [(r[0], r[1], r[2]) for r in rows] == [
        (p, f, "31") for p in ("S1", "S2", "S3") for f in ("mrt", "zf")
    ]


def test_radar_demo_script(tmp_path):
    out = tmp_path / "radar"
    proc = _run("radar_demo.py", "--subcarriers", "16", "--trials", "2",
                "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for stage, name in (("sweep", "boundary_params.csv"), ("heatmap", "heatmap.csv"),
                        ("calibration", "calibration.json")):
        assert (out / stage / name).is_file()
        assert (out / stage / "run.json").is_file()
    heatmap = (out / "heatmap" / "heatmap.csv").read_text().splitlines()
    assert heatmap[0] == "index,n0,bin,snr_db,peak_correct"
    assert len(heatmap) > 1
    assert "mean misalignment:" in proc.stdout
