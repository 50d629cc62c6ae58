"""The sweep scripts under scripts/ run to the end without a traceback,
the README's Python tour runs and prints what its comments claim, and
the benchmark's span tracer still wraps the library.

Each runs in a subprocess with src/ and the repository root on
PYTHONPATH, on a small input.
"""

import os
import re
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


# Expressions of the README tour and the value each one's comment states.
TOUR_CLAIMS = {
    "ring.delta": 2,
    "ring.cond": (3,),
    "omega.is_principal()": None,
    "cd.dual(cd.dual(m)) == m": True,
    'cd.herbrand(m, cd.parse_element(QQ, "t^3"))': (3, 3),
}


def run_python(argv):
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    proc = subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stdout


@pytest.mark.parametrize("argv", RUNS, ids=" ".join)
def test_script_runs(argv):
    assert run_python([str(ROOT / "scripts" / argv[0]), *argv[1:]])


def test_readme_tour_matches_its_comments():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    for expr, value in TOUR_CLAIMS.items():
        assert re.search(rf"^{re.escape(expr)}\s+# {re.escape(repr(value))}",
                         tour, re.M), expr
    probe = "".join(f"print(repr({expr}))\n" for expr in TOUR_CLAIMS)
    out = run_python(["-c", tour + probe])
    assert out.splitlines() == [repr(v) for v in TOUR_CLAIMS.values()]


# perfbench/spans.py wraps library functions and methods by name, so a
# rename there breaks only the traced benchmark (--trace 1) unless a
# traced run is tried here
TRACED_LAB = """
from curvedual import cli
from perfbench import spans
tracer = spans.Tracer()
spans.install(tracer)
code = cli.main(["ext-lab", "--m", "3", "--p", "2", "--claim2"])
print(tracer.layer_metrics()["linalg.tracked.calls"])
raise SystemExit(code)
"""


def test_traced_ext_lab_runs():
    out = run_python(["-c", TRACED_LAB])
    assert int(out.splitlines()[-1]) > 0
