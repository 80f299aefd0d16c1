"""The golden-digest matrix: S1-S3 x MRT/ZF x 64/512 subcarriers, byte for byte.

``perfbench/run.py --check-matrix`` sweeps the twelve scenarios with the
checkout's own ``src/`` and compares each output file's sha256 with
``perfbench/golden.json``. It writes only under ``perfbench/_work/``.
"""

import pathlib
import subprocess
import sys

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_golden_matrix_is_byte_identical():
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "perfbench" / "run.py"), "--check-matrix"],
        cwd=_ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "12/12" in proc.stdout, proc.stdout
