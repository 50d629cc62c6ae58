"""curvedual benchmark: seeded CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload conductor-sweep --seed 1 \\
        --seconds 40 --trace 0

The checkout measured is the one holding this directory (its
``src/curvedual`` is put on the children's PYTHONPATH).  Load model:
closed loop, one client.  Each pass of the workload's job list runs in
a fresh child interpreter that imports ``curvedual.cli`` once and calls
``curvedual.cli.main(argv)`` for each job in turn; at most two processes
(this one and the child) are alive.  Every job's output is checked by
``oracles.py``, which does not use curvedual, and its stdout bytes must
match across passes.

``--trace 0`` runs passes until the next one would end after
``--seconds`` (at least two; a pass takes about a second, so a run
makes dozens) and reports the end-to-end metrics: ``wall_s`` (a pass
over the job list, each job at its fastest pass), ``setup_s`` (median
over the passes of the child's launch until its ``import
curvedual.cli`` returns) and ``peak_rss_mb`` (median child
``ru_maxrss``).  Per-command and per-field sums, medians, percentiles
and the failure rate are printed above the result line.  ``--trace 1``
runs one untraced and one traced pass and reports the per-layer metrics
derived from the traced pass's spans.  The last stdout line is one JSON
object: correct, attempted, failed, metrics; the exit code is 1 when an
output check failed.  A results file with run metadata, per-pass
numbers, scaling records and failures goes to ``perfbench/results/``;
the traced pass also leaves its span dump there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracles import check
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
MIN_PASSES = 2
MAX_PASSES = 200
CHILD_TIMEOUT_S = 170
# stop starting passes once a run has taken this long, whatever --seconds says
RUN_LIMIT_S = 140

COMMAND_METRICS = {"report": "report_s", "omega": "omega_s",
                   "check": "check_s", "ext-lab": "ext_lab_s",
                   "toric": "toric_s"}
FIELD_METRICS = {"Q": "wall_q_s", "Fp": "wall_fp_s"}


# -- host and process plumbing -------------------------------------------------

def child_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def warm_up(env):
    """Import curvedual.cli once in a fresh interpreter, untimed, so the
    compiled bytecode is on disk before the first timed set-up."""
    subprocess.run([sys.executable, "-c", "import curvedual.cli"], env=env,
                   capture_output=True, timeout=CHILD_TIMEOUT_S, check=True)


def run_pass(env, jobs, trace=False, dump=None):
    """One pass in a fresh child.  Its `setup_s` is the seconds from
    launching the child until its `import curvedual.cli` returned, read
    on the shared wall clock."""
    spec = json.dumps({"jobs": jobs, "trace": trace,
                       "dump": str(dump) if dump else None})
    t0 = time.time_ns()
    proc = subprocess.run([sys.executable, str(HERE / "child.py")], env=env,
                          input=spec, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass runner exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout)
    result["setup_s"] = (result.pop("imported_ns") - t0) / 1e9
    return result


def reference_seconds():
    """Fixed pure-Python work beside each pass, timed to show host
    drift: sparse dict-row elimination mod a prime, no curvedual."""
    p, n = 10007, 90
    t0 = time.perf_counter()
    x = 12345
    pivots = {}
    for _ in range(5 * n):
        row = {}
        for col in range(n):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            if x % 3 == 0:
                row[col] = x % p
        for col in sorted(row):
            c = row.get(col)
            if c and col in pivots:
                for k, v in pivots[col].items():
                    y = (row.get(k, 0) - c * v) % p
                    if y:
                        row[k] = y
                    else:
                        row.pop(k, None)
        if row and len(pivots) < n:
            col = min(row)
            inv = pow(row[col], p - 2, p)
            pivots[col] = {k: v * inv % p for k, v in row.items()}
    return time.perf_counter() - t0


def git_commit(root):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def percentile_summary(samples):
    """Median, the highest of p90/p95/p99 with at least ten samples
    beyond it, and the sample count."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    for q in (99, 95, 90):
        if len(samples) * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(samples, n=100, method="inclusive")
            out[f"p{q}"] = cut[q - 1]
            break
    return out


# -- judging passes --------------------------------------------------------------

def judge(jobs, passes, seed):
    """Per job run: failure reasons.  A run fails on a wrong exit code,
    an exception escaping main, an oracle problem, or stdout bytes that
    differ from the first pass of the same job."""
    failures = []
    for n, result in enumerate(passes):
        for i, (job, run) in enumerate(zip(jobs, result["jobs"])):
            if run["crash"]:
                reasons = ["exception escaped main"]
            else:
                reasons = check(job, run["rc"], run["stdout"], seed)
            if n and run["stdout"] != passes[0]["jobs"][i]["stdout"]:
                reasons.append("stdout differs from the first pass")
            if reasons:
                failures.append({"pass": n, "job": i, "argv": run["argv"],
                                 "reasons": reasons, "rc": run["rc"],
                                 "traceback": run["crash"],
                                 "stderr": run["stderr"]})
    return failures


def job_stat(passes, stat):
    """stat (min or median) of each job's seconds over the passes."""
    return [stat([p["jobs"][i]["seconds"] for p in passes])
            for i in range(len(passes[0]["jobs"]))]


def scaling_records(jobs, passes):
    records = []
    for i, job in enumerate(jobs):
        if "scale" in job:
            secs = [p["jobs"][i]["seconds"] for p in passes]
            records.append({**job["scale"], "command": job["cmd"],
                            "seconds_median": statistics.median(secs),
                            "seconds": secs})
    return records


def middles_useful_ratio(result):
    """Useful share of the built Ext-lab middles, read from the
    claim4 and cor3 payloads of one pass."""
    useful = total = 0
    for run in result["jobs"]:
        if run["rc"] != 0 or not run["stdout"].startswith("{"):
            continue
        out = json.loads(run["stdout"])
        if "claim4" in out:
            useful += out["claim4"]["middles_checked"]
            total += out["claim4"]["middles_total"]
        if "cor3" in out:
            useful += out["cor3"]["classes_passing_quotient_test"]
            total += out["cor3"]["classes_total"]
    return useful / total if total else 0.0


# -- the two kinds of run -----------------------------------------------------------

def measure(env, jobs, seconds):
    passes, refs = [], []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(env, jobs))
        refs.append(reference_seconds())
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= MAX_PASSES or elapsed + typical > RUN_LIMIT_S:
            break
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
    return passes, refs


def end_to_end(jobs, passes):
    """The gated timing is a sum over jobs of each job's fastest pass.
    On a shared host a core's speed can halve for tens of milliseconds
    at a time, and the share of such slow time drifts over seconds to
    minutes while CPU time keeps tracking wall time (the reference
    timing shows it).  The jobs are short and a run repeats each one
    dozens of times, so each job's fastest pass is a reading that drift
    moves little; sums of per-job medians are reported beside it.
    Per-command and per-field sums that no job of the workload feeds
    are left out."""
    best, medians = job_stat(passes, min), job_stat(passes, statistics.median)
    metrics = {
        "wall_s": sum(best),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    extra = {"wall_median_s": sum(medians)}
    for job, seconds in zip(jobs, best):
        for name in (COMMAND_METRICS[job["cmd"]],
                     FIELD_METRICS.get(job["field"])):
            if name:
                extra[name] = extra.get(name, 0.0) + seconds
    return metrics, dict(sorted(extra.items()))


def per_layer(jobs, untraced, traced):
    layers = dict(traced["layers"])
    layers["artin.middles_useful_ratio"] = middles_useful_ratio(traced)
    layers["cli.output_bytes"] = sum(len(r["stdout"].encode())
                                     for r in traced["jobs"])
    layers["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"] - 1
    accounted = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    layers["trace.accounted_ratio"] = accounted / traced["wall_s"]
    return layers


def _fmt_summary(summary):
    return ", ".join(f"{k} {v}" if k == "n" else f"{k} {v:.4f}"
                     for k, v in summary.items())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "curvedual" / "cli.py").is_file():
        print(f"error: {root} holds no src/curvedual/cli.py; the benchmark "
              f"directory must sit in a curvedual checkout", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in bench["per_layer" if args.trace
                                       else "end_to_end"]]
    # every printed extra is a time sum except the traced pass's span count
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    units["span_count"] = "count"
    env = child_env(root)
    jobs = WORKLOADS[args.workload](args.seed)
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    try:
        warm_up(env)
        if args.trace:
            untraced = run_pass(env, jobs)
            refs = [reference_seconds()]
            traced = run_pass(env, jobs, trace=True,
                              dump=out_dir / f"{stem}_spans.tsv.gz")
            refs.append(reference_seconds())
            passes = [untraced, traced]
            metrics = per_layer(jobs, untraced, traced)
            extra = {"span_count": traced["span_count"]}
        else:
            passes, refs = measure(env, jobs, args.seconds)
            metrics, extra = end_to_end(jobs, passes)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    mismatch = sorted(set(metrics) ^ set(listed))
    if mismatch:
        print(f"error: metrics {mismatch} are not both measured and listed "
              f"in BENCHMARK.json", file=sys.stderr)
        return 1

    failures = judge(jobs, passes, args.seed)
    attempted = len(jobs) * len(passes)
    failed = len({(f["pass"], f["job"]) for f in failures})
    untraced = passes[:1] if args.trace else passes
    job_seconds = [r["seconds"] for p in untraced for r in p["jobs"]]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "host": platform.node(),
        "nproc": os.cpu_count(), "commit": git_commit(root),
        "metrics": metrics, "extra": extra,
        "fail_rate": failed / attempted, "attempted": attempted,
        "failed": failed, "failures": failures,
        "passes": [{"wall_s": p["wall_s"], "setup_s": p["setup_s"],
                    "peak_rss_mb": p["peak_rss_mb"], "reference_s": ref}
                   for p, ref in zip(passes, refs)],
        "job_seconds": percentile_summary(job_seconds),
        "scaling": scaling_records(jobs, untraced),
        "jobs": [{"argv": r["argv"], "seconds": [p["jobs"][i]["seconds"]
                                                 for p in passes]}
                 for i, r in enumerate(passes[0]["jobs"])],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))

    for f in failures:
        print(f"FAIL pass {f['pass']} job {f['job']} {f['argv']}: "
              f"{'; '.join(f['reasons'])}", file=sys.stderr)
        if f["traceback"]:
            print(f["traceback"], file=sys.stderr)
    wall = [p["wall_s"] for p in passes]
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{len(jobs)} jobs a pass")
    for name, value in {**metrics, **extra}.items():
        print(f"  {name:<14} {value:10.4f} {units.get(name, 's')}")
    if not args.trace:
        print("  pass wall s: " + _fmt_summary(percentile_summary(wall)))
    print("  job s: " + _fmt_summary(record["job_seconds"]))
    print(f"  fail_rate      {failed}/{attempted} = {failed / attempted:.4f} ratio")
    print("  reference_s    " + " ".join(f"{r:.4f}" for r in refs))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
