"""The sweep scripts under scripts/ run to the end without a traceback,
the benchmark jobs of seed 1 print the pinned digests, the README's
Python tour runs and prints what its comments claim, and the
benchmark's span tracer still wraps the library.

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
    ["job_digests.py", "--workload", "finite-labs", "--seeds", "1"],
]


# Expressions of the README tour and the value each one's comment states.
TOUR_CLAIMS = {
    "ring.delta": 2,
    "ring.cond": (3,),
    "omega.is_principal()": None,
    "omega.colon(cd.dual(m)) == m": True,
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


def test_job_digests_match_golden():
    # One digest line per benchmark job of seed 1, every workload: a
    # changed byte or exit code in any job fails here, not only in the
    # jobs a golden file happens to cover.  A change that alters job
    # output on purpose rewrites tests/golden/job-digests-seeds1.txt.
    out = run_python([str(ROOT / "scripts" / "job_digests.py"),
                      "--seeds", "1"])
    golden = ROOT / "tests" / "golden" / "job-digests-seeds1.txt"
    assert out == golden.read_text(encoding="utf-8")


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
# traced run is tried here.  TRACED runs the CLI call in sys.argv[2:]
# and prints the metrics named in sys.argv[1].
TRACED = """
import sys
from curvedual import cli
from perfbench import spans
tracer = spans.Tracer()
spans.install(tracer)
code = cli.main(sys.argv[2:])
metrics = tracer.layer_metrics()
print(" ".join(str(metrics[name]) for name in sys.argv[1].split(",")))
raise SystemExit(code)
"""

# (CLI call, metrics that must be positive after it)
TRACED_RUNS = [
    (["ext-lab", "--m", "3", "--p", "2", "--claim2"],
     ["linalg.tracked.calls"]),
    (["report", "3,4,5"], ["curvering.build.calls", "fracideal.init.calls"]),
]


def test_traced_ext_lab_runs():
    for argv, names in TRACED_RUNS:
        out = run_python(["-c", TRACED, ",".join(names), *argv])
        counts = out.splitlines()[-1].split()
        assert len(counts) == len(names)
        assert all(int(c) > 0 for c in counts), (argv, names, counts)
