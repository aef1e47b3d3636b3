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
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "perfbench"))
sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/

import worker  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS),
                        help="a workload to run (repeatable; default: all)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(_ROOT, "src"))
    import zetalab.cli as cli
    for name in [n for n in workloads.WORKLOADS
                 if not args.workload or n in args.workload]:
        with tempfile.TemporaryDirectory(prefix="zetalab-outputs-") as cache:
            for index, job in enumerate(workloads.generate(name, args.seed)):
                job_argv = [cache if a == workloads.CACHE_TOKEN else a
                            for a in job["argv"]]
                rc, _, out, _ = worker.run_job(cli, job_argv)
                digest = hashlib.sha256(
                    worker.canonical_output(out).encode("utf-8")).hexdigest()
                print(name, index, rc, digest, job["kind"], flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
