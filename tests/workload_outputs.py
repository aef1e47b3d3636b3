"""One line per benchmark job: workload, index, exit code, sha256 of its
stdout, and the job's kind.

    python3 tests/workload_outputs.py --seed 1 > a.txt
    python3 tests/workload_outputs.py --seed 1 --workload damped-grid > b.txt

builds each workload's (all of them, or those named by --workload, which
can be repeated) job list with `perfbench/workloads.generate` and runs
every job in this process through `perfbench/worker.run_job`, the way the
benchmark does, against a fresh temporary cache directory per workload (so
grid replays read what their cold twins wrote).  The hash is taken over
`worker.canonical_output(stdout)`, which drops meta.wall_ms.  The kind is
the workload's label for the job (`verify:riemann-classic`, `grid:omega`,
...).  Run it in two checkouts and `diff` the files: a change that should
not move any printed byte shows no line, and one that does names the kinds
it moved.  Nothing is written under perfbench/.

    python3 tests/workload_outputs.py --seed 1 --against ../before

runs ../before's own tests/workload_outputs.py with the same --seed and
--workload flags in a subprocess, next to this checkout's pass, and prints
only the jobs whose exit code or hash differ: a `-` line for ../before and a
`+` line for this checkout, then `<kind> <moved> of <jobs>` for each kind
that moved.  With no difference it prints nothing.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import os
import subprocess
import sys
import tempfile

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "perfbench"))
sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/

import worker  # noqa: E402
import workloads  # noqa: E402


def _lines(seed: int, names: list[str]):
    """This checkout's line for every job of the named workloads."""
    sys.path.insert(0, os.path.join(_ROOT, "src"))
    import zetalab.cli as cli
    for name in names:
        with tempfile.TemporaryDirectory(prefix="zetalab-outputs-") as cache:
            for index, job in enumerate(workloads.generate(name, seed)):
                job_argv = [cache if a == workloads.CACHE_TOKEN else a
                            for a in job["argv"]]
                rc, _, out, _ = worker.run_job(cli, job_argv)
                digest = hashlib.sha256(
                    worker.canonical_output(out).encode("utf-8")).hexdigest()
                yield f"{name} {index} {rc} {digest} {job['kind']}"


def _by_job(lines) -> dict:
    """{(workload, index): line}."""
    return {tuple(line.split()[:2]): line for line in lines}


def _diff(theirs: dict, ours: dict) -> None:
    jobs, moved = collections.Counter(), collections.Counter()
    for key in sorted(theirs.keys() | ours.keys(),
                      key=lambda k: (k[0], int(k[1]))):
        old, new = theirs.get(key), ours.get(key)
        kind = (new or old).split()[4]
        jobs[kind] += 1
        if old != new:
            moved[kind] += 1
            for sign, line in (("-", old), ("+", new)):
                if line is not None:
                    print(sign, line)
    for kind in sorted(moved):
        print(kind, moved[kind], "of", jobs[kind])


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS),
                        help="a workload to run (repeatable; default: all)")
    parser.add_argument("--against", metavar="DIR",
                        help="print only the jobs that differ from DIR's run")
    args = parser.parse_args(argv)
    names = [n for n in workloads.WORKLOADS
             if not args.workload or n in args.workload]
    if args.against is None:
        for line in _lines(args.seed, names):
            print(line, flush=True)
        return
    flags = ["--seed", str(args.seed)]
    for name in args.workload or ():
        flags += ["--workload", name]
    theirs = subprocess.Popen(
        [sys.executable,
         os.path.join(args.against, "tests", "workload_outputs.py"), *flags],
        stdout=subprocess.PIPE, text=True)
    ours = _by_job(_lines(args.seed, names))
    out, _ = theirs.communicate()
    if theirs.returncode != 0:
        sys.exit(f"{args.against}'s workload_outputs.py exited "
                 f"{theirs.returncode}")
    _diff(_by_job(out.splitlines()), ours)


if __name__ == "__main__":
    main(sys.argv[1:])
