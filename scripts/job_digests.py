#!/usr/bin/env python3
"""Print one digest line per benchmark job, for byte-identity checks.

Builds the jobs of each workload in perfbench/workloads.py for each
seed and runs them in this interpreter through perfbench/child.py's
`run_jobs`, so jobs derived from an earlier job's output (injection
reruns, `toric omega` on a saturation) run too.  Each line holds the
workload, the seed, the job index, the exit code and the SHA-256 of
the job's stdout.  Two checkouts that print the same lines answered
every job with the same exit code and the same bytes:

    python scripts/job_digests.py --seeds 1-10 > after.txt
    diff before.txt after.txt

The library is imported from this checkout's src/, whatever PYTHONPATH
says.
"""

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from child import run_jobs  # noqa: E402
from curvedual import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    try:
        lo, hi = int(lo), int(hi or lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return range(lo, hi + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=["all", *sorted(WORKLOADS)],
                    default="all")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                    help="inclusive seed range A-B, or one seed")
    ns = ap.parse_args()
    names = sorted(WORKLOADS) if ns.workload == "all" else [ns.workload]
    for name in names:
        for seed in ns.seeds:
            results, _ = run_jobs(cli.main, WORKLOADS[name](seed))
            for index, res in enumerate(results):
                digest = hashlib.sha256(res["stdout"].encode()).hexdigest()
                print(f"{name} {seed} {index} {res['rc']} {digest}",
                      flush=True)


if __name__ == "__main__":
    main()
