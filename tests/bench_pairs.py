"""Paired benchmark runs of two checkouts, alternating which goes first.

    python3 tests/bench_pairs.py --parent ../old --change . --workload fe-verify
    python3 tests/bench_pairs.py --parent ../old --change . \\
        --workload damped-grid --pairs 10 --seed 20261017

runs `perfbench/run.py --trace 0` in each checkout for every pair, for
the `run_seconds` that the change's BENCHMARK.json sets, the parent first
in even pairs and the change first in odd ones (a side that always runs
second can read a few percent low on a busy host).  It prints
each run's end-to-end metrics, then for every metric of `BENCHMARK.json`
the two medians, the parent's quartiles, the ratio change / parent and the
number of pairs the change won.  It exits 1 if any run exits non-zero or
reports `correct: false`.  Nothing is written here or under perfbench/;
each run keeps its scratch under its own checkout's .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def _run(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        report = {"correct": False, "metrics": {}}
    report["exit"] = proc.returncode
    return report


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    ok = True
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            report = _run(sides[side], args.workload, args.seed, seconds)
            runs[side].append(report)
            good = report["exit"] == 0 and report.get("correct") is True
            ok = ok and good
            values = " ".join(f"{m['name']}={report['metrics'].get(m['name'], {}).get('value')}"
                              for m in metrics)
            print(f"pair {pair} {side}: exit {report['exit']} "
                  f"correct {report.get('correct')} {values}", flush=True)

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"{seconds:g} s runs")
    print(f"{'metric':<16} {'parent':>10} {'quartiles':>21} {'change':>10} "
          f"{'ratio':>7} wins")
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        try:
            par = [r["metrics"][name]["value"] for r in runs["parent"]]
            chg = [r["metrics"][name]["value"] for r in runs["change"]]
        except KeyError:
            print(f"{name:<16} missing from a run")
            continue
        wins = sum((c > p) if higher else (c < p) for p, c in zip(par, chg))
        p_med, c_med = statistics.median(par), statistics.median(chg)
        q1, q3 = _quartiles(par)
        ratio = c_med / p_med if p_med else float("nan")
        print(f"{name:<16} {p_med:>10.4g} [{q1:>9.4g}, {q3:>9.4g}] {c_med:>10.4g} "
              f"{ratio:>7.3f} {wins}/{len(par)}")
    if not ok:
        print("a run failed or was not correct", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
