"""What a bare ``import repro`` costs: numpy is the only third-party import."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_repro_loads_no_scipy():
    probe = "import sys, repro; print('scipy' in sys.modules)"
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert completed.stdout.strip() == "False"
