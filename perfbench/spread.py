"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload finite-labs --seeds 1-10 --sets 2

Runs ``run.py --trace 0`` once per seed and set, one run at a time, at
BENCHMARK.json's ``run_seconds``.  The sets take turns on each seed,
the first set going first on every other seed, so slow spells of the
host fall on both.  For each set and metric (the gated ones and the
per-command and per-field sums of the results file) it prints the
median, the quartiles as ``statistics.quantiles(values, n=4)`` gives
them, and the spread (q3 - q1) / median next to the bound in
BENCHMARK.json; then how far each later set's median, and the median of
its per-seed ratios, lies from the first set's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed):
    """The end-to-end metrics, extras and median reference timing of
    one `run.py --trace 0` run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
         "--trace", "0"],
        capture_output=True, text=True, check=False)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "results" / f"BENCH_{workload}_seed{seed}"
                         f"_trace0.json").read_text())
    row = {k: v["value"] for k, v in last["metrics"].items()}
    row.update(record["extra"])
    row["reference_s"] = statistics.median(
        p["reference_s"] for p in record["passes"])
    print(f"seed {seed}: correct={last['correct']} failed={last['failed']}"
          f"/{last['attempted']} passes={len(record['passes'])} " +
          " ".join(f"{k}={v:.4f}" for k, v in row.items()), flush=True)
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    # values[set][metric] -> one value per seed
    values = [{} for _ in range(args.sets)]
    for i, seed in enumerate(args.seeds):
        order = range(args.sets) if i % 2 == 0 else reversed(range(args.sets))
        for k in order:
            print(f"set {k} ", end="")
            for name, value in run_once(bench, args.workload, seed).items():
                values[k].setdefault(name, []).append(value)
    medians = []
    for k, table in enumerate(values):
        medians.append({})
        for name, vals in table.items():
            med = medians[k][name] = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            bound = bounds.get(name)
            note = f" bound {bound} (a third: {bound / 3:.4f})" if bound else ""
            print(f"set {k} {name:<14} median {med:.4f} q1 {q1:.4f} "
                  f"q3 {q3:.4f} spread {(q3 - q1) / med:.4f}{note}")
    for k in range(1, args.sets):
        for name, med in medians[k].items():
            paired = statistics.median(
                b / a for a, b in zip(values[0][name], values[k][name]))
            print(f"set {k} against set 0: {name:<14} medians "
                  f"{med / medians[0][name] - 1:+.4f}, "
                  f"median paired ratio {paired - 1:+.4f}")


if __name__ == "__main__":
    main()
