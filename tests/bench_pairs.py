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
number of pairs the change won.  Each run's line shows its pass count and
peak_rss_mb per pass: the worker holds every pass's stdout, so a faster
pass raises peak_rss_mb through the pass count alone.  It exits 1 if any
run exits non-zero or reports `correct: false`.

    python3 tests/bench_pairs.py --parent ../old --change . \
        --workload fe-verify --out BENCH_21.json

also writes the runs to BENCH_21.json in BENCH_14.json's layout: each
run's final JSON line, passes, calibration scale and min_digits, the
medians and quartiles, and `git rev-parse HEAD` of both checkouts.  An
existing file of the same two commits keeps its other workloads and seeds;
this workload and seed replace their entry.  Nothing is written under
perfbench/; each run keeps its scratch under its own checkout's
.perfbench/.

    python3 tests/bench_pairs.py --in-process --parent 6801b7d --change HEAD \
        --workload damped-grid --pairs 31
    python3 tests/bench_pairs.py --in-process --parent HEAD --change HEAD \
        --workload damped-grid --pairs 31

times both sides in this one process instead.  --parent and --change are
then commits of the repository holding this script: `git archive` unpacks
each one's src/zetalab as a package of its own name (every import inside
it is relative), so a commit given as both runs against itself (an A/A
pair, the tool's own spread).  After a warm-up round, each of --pairs
rounds runs the workload's job list job by job through both packages'
`cli.main` (`perfbench/worker.run_job`), the side that goes first
alternating per job and per round, and each side's grid jobs against a
cache directory of its own, emptied when the round starts.
Any job whose exit code or canonical stdout differs between the sides is
printed.  Then it reports the median and quartiles of the per-round
ratios parent seconds / change seconds, the change's rate over the
parent's: above 1 the change is faster.  peak_rss_mb and setup_s cannot be
told apart in one process and stay with the whole-process runs.  It
gates nothing: it exits 0 unless a package cannot be unpacked.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import import_module

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# figures of run.py's report that its final JSON line leaves out
_REPORT_FIGURES = (("passes", r"mean of (\d+) passes", int),
                   ("calibration_scale", r"times scaled by ([\d.]+)", float),
                   ("min_digits", r"min_digits\s+([\d.]+) digits", float))


def _run(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """run.py's final JSON line as "result", its exit code and the
    `_REPORT_FIGURES` read from the lines above it (None where absent)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}}
    run = {"result": result, "exit": proc.returncode}
    for key, pattern, kind in _REPORT_FIGURES:
        found = re.search(pattern, proc.stdout)
        run[key] = kind(found.group(1)) if found else None
    return run


def _head(checkout: str) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _write(path: str, args, seconds: float, runs: dict, summary: dict) -> None:
    """Merge this workload and seed into the BENCH file at `path`."""
    commits = {"parent_commit": _head(args.parent),
               "change_commit": _head(args.change)}
    doc = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
        if any(doc.get(k) != v for k, v in commits.items()):
            raise SystemExit(f"{path} holds runs of other commits")
    doc.update(commits)
    doc["command"] = (f"python3 perfbench/run.py --workload W --seed S "
                      f"--seconds {seconds:g} --trace 0")
    doc["host"] = (f"{os.cpu_count()} CPUs, Python {sys.version.split()[0]}; "
                   "times scaled to the 0.6 ms calibration loop")
    doc["pairing"] = ("pair i runs parent then change for even i, change "
                      "then parent for odd i")
    pairs = [{"pair": i, "first": "parent" if i % 2 == 0 else "change",
              "parent": {k: v for k, v in p.items() if k != "exit"},
              "change": {k: v for k, v in c.items() if k != "exit"}}
             for i, (p, c) in enumerate(zip(runs["parent"], runs["change"]))]
    entry = {"workload": args.workload, "seed": args.seed, "pairs": pairs,
             "summary": summary}
    doc["workloads"] = [w for w in doc.get("workloads", [])
                        if (w["workload"], w["seed"]) != (args.workload, args.seed)]
    doc["workloads"].append(entry)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _unpack(rev: str, name: str, into: str):
    """`git archive` of rev's src/zetalab, unpacked in `into` as the
    package `name`; returns its cli module."""
    tar = subprocess.run(["git", "-C", _ROOT, "archive", f"--prefix={name}/",
                          f"{rev}:src/zetalab"], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", into], input=tar.stdout, check=True)
    return import_module(f"{name}.cli")


def _in_process(parent: str, change: str, workload: str, seed: int,
                rounds: int) -> None:
    """The --in-process mode (module docstring)."""
    sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
    sys.path.insert(0, os.path.join(_ROOT, "perfbench"))
    worker, workloads = import_module("worker"), import_module("workloads")
    jobs = workloads.generate(workload, seed)
    with tempfile.TemporaryDirectory(prefix="zetalab-pairs-") as tmp:
        sys.path.insert(0, tmp)
        clis = (_unpack(parent, "zl_parent", tmp), _unpack(change, "zl_change", tmp))
        caches = [os.path.join(tmp, f"cache{side}") for side in (0, 1)]
        for cli in clis:
            for argv in worker.WARMUP:
                worker.run_job(cli, list(argv))
        ratios, seconds, mismatched = [], ([], []), set()
        for r in range(-1, rounds):  # round -1 warms both sides up, untimed
            for cache in caches:
                shutil.rmtree(cache, ignore_errors=True)
                os.makedirs(cache)
            spent = [0.0, 0.0]
            for index, job in enumerate(jobs):
                outs = [None, None]
                for side in ((0, 1) if (index + r) % 2 == 0 else (1, 0)):
                    argv = [caches[side] if a == workloads.CACHE_TOKEN else a
                            for a in job["argv"]]
                    rc, wall, out, _ = worker.run_job(clis[side], argv)
                    spent[side] += wall
                    outs[side] = rc, worker.canonical_output(out)
                if outs[0] != outs[1] and index not in mismatched:
                    mismatched.add(index)
                    what = "stdout" if outs[0][1] != outs[1][1] else "exit code"
                    print(f"mismatch: {workload} job {index} {job['kind']}: "
                          f"{what} differs (exit {outs[0][0]} against "
                          f"{outs[1][0]})", flush=True)
            if r >= 0:
                ratios.append(spent[0] / spent[1])
                for side in (0, 1):
                    seconds[side].append(spent[side])
    q1, q3 = _quartiles(ratios)
    print(f"{workload} seed {seed}, {rounds} rounds in process: "
          f"{parent} {statistics.median(seconds[0]):.3f} s a round, "
          f"{change} {statistics.median(seconds[1]):.3f} s; parent / change "
          f"{statistics.median(ratios):.4f} [{q1:.4f}, {q3:.4f}], change "
          f"faster in {sum(x > 1.0 for x in ratios)} of {rounds}; "
          f"{len(mismatched)} of {len(jobs)} jobs differ")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs of runs, or rounds with --in-process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", metavar="PATH",
                        help="also write the runs to this BENCH_*.json")
    parser.add_argument("--in-process", action="store_true",
                        help="time two commits' packages in this process")
    args = parser.parse_args(argv)
    if args.in_process:
        if args.out:
            parser.error("--in-process takes no --out")
        _in_process(args.parent, args.change, args.workload, args.seed,
                    args.pairs)
        return 0

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    ok = True
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            run = _run(sides[side], args.workload, args.seed, seconds)
            runs[side].append(run)
            report = run["result"]
            ok = ok and run["exit"] == 0 and report.get("correct") is True
            values = {m["name"]: report["metrics"].get(m["name"], {}).get("value")
                      for m in metrics}
            rss, passes = values.get("peak_rss_mb"), run["passes"]
            per_pass = (f"{rss / passes:.3f}" if rss is not None and passes
                        else None)
            print(f"pair {pair} {side}: exit {run['exit']} "
                  f"correct {report.get('correct')} "
                  + " ".join(f"{k}={v}" for k, v in values.items())
                  + f" passes={passes} peak_rss_mb/pass={per_pass}", flush=True)

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"{seconds:g} s runs")
    print(f"{'metric':<16} {'parent':>10} {'quartiles':>21} {'change':>10} "
          f"{'ratio':>7} wins")
    summary = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        try:
            par, chg = ([r["result"]["metrics"][name]["value"] for r in runs[side]]
                        for side in ("parent", "change"))
        except KeyError:
            print(f"{name:<16} missing from a run")
            continue
        wins = sum((c > p) if higher else (c < p) for p, c in zip(par, chg))
        p_med, c_med = statistics.median(par), statistics.median(chg)
        q1, q3 = _quartiles(par)
        ratio = c_med / p_med if p_med else float("nan")
        print(f"{name:<16} {p_med:>10.4g} [{q1:>9.4g}, {q3:>9.4g}] {c_med:>10.4g} "
              f"{ratio:>7.3f} {wins}/{len(par)}")
        summary[name] = {side: dict(zip(("median", "q1", "q3"),
                                        (statistics.median(v), *_quartiles(v))))
                         for side, v in (("parent", par), ("change", chg))}
        summary[name]["wins"] = wins
    if args.out:
        _write(args.out, args, seconds, runs, summary)
    if not ok:
        print("a run failed or was not correct", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
