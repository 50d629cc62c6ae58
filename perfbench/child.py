"""One pass of a workload, run in a fresh interpreter.

Reads ``{"jobs": [...], "trace": bool, "dump": path or null}`` as JSON on
stdin, imports ``curvedual.cli`` once, and runs the jobs in order
through ``curvedual.cli.main`` with ``--format json``, each after the
previous one returns.  Each job's stdout and stderr are captured.  An
exception escaping ``main`` is recorded with its traceback and the pass
goes on.  The pass result is one JSON document on stdout.  Its
``imported_ns`` is the wall clock (``time.time_ns``) when the import of
``curvedual.cli`` returned; the parent reads the child's set-up time
from it, so this import comes first.
"""

import time

from curvedual import cli

IMPORTED_NS = time.time_ns()

import contextlib  # noqa: E402  (after the timed import)
import io
import json
import resource
import shlex
import sys
import traceback


def derive_argv(job, outputs):
    """The argv of a job that replays or extends an earlier job's output."""
    rule = job["derive"]["rule"]
    out = json.loads(outputs[job["derive"]["from"]])
    if rule == "rerun":
        # the printed line starts with the program name
        return shlex.split(out["counterexample"]["rerun"])[1:]
    if rule == "saturation":
        gens = " ".join(f"{x},{y}" for x, y in out["saturation_generators"])
        return ["toric", "omega", "--gens", gens, "--seed", str(out["seed"])]
    raise ValueError(f"unknown derive rule {rule!r}")


def run_jobs(main, jobs, tracer=None):
    results, outputs = [], []
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        crash = None
        try:
            argv = job["argv"] if "argv" in job else derive_argv(job, outputs)
        except (KeyError, TypeError, ValueError, IndexError):
            argv, crash = None, traceback.format_exc()
        out, err = io.StringIO(), io.StringIO()
        rc, seconds = None, 0.0
        if argv is not None:
            argv = [*argv, "--format", "json"]
            if tracer is not None:
                tracer.current_job = index
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = main(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception:
                    crash = traceback.format_exc()
            seconds = time.perf_counter() - t0
        outputs.append(out.getvalue())
        results.append({"argv": argv, "rc": rc, "seconds": seconds,
                        "stdout": outputs[-1], "stderr": err.getvalue()[-2000:],
                        "crash": crash})
    return results, time.perf_counter() - start


def main():
    spec = json.load(sys.stdin)
    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    # cli.main is looked up on each call, so a traced pass runs the wrapper
    results, wall = run_jobs(lambda argv: cli.main(argv), spec["jobs"], tracer)
    payload = {
        "imported_ns": IMPORTED_NS,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": results,
    }
    if tracer is not None:
        payload["layers"] = tracer.layer_metrics()
        payload["span_count"] = len(tracer.dur)
        if spec.get("dump"):
            tracer.dump(spec["dump"])
    json.dump(payload, sys.stdout)


if __name__ == "__main__":
    main()
