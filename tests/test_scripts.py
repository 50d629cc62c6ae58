"""The sweep scripts under scripts/ run to the end without a traceback.

Each runs in a subprocess with src/ on PYTHONPATH, on a small input.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RUNS = [
    *(["toric_demo.py", "--model", m, "--box", "6"]
      for m in ("plane", "diagonal-mod3", "pinched-plane")),
    ["ext_lab.py", "--m", "3", "--p", "2"],
    ["family_report.py", "--bound", "5"],
    ["family_report.py", "--bound", "5", "--field", "F5"],
]


@pytest.mark.parametrize("argv", RUNS, ids=" ".join)
def test_script_runs(argv):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]),
                           *argv[1:]], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout
