"""One workload process: a closed loop of zetalab CLI jobs with a single client.

Run by run.py in a fresh interpreter (run.py imports it only for its helpers):

    python3 perfbench/worker.py --setup SRC        import zetalab.cli, warm up, exit
    python3 perfbench/worker.py SPEC.json OUT.json run the jobs SPEC describes

Each job is `zetalab.cli.main(argv)` with stdout and stderr captured, so the
program sees only the generated argv.  The job starts after the previous one
returned.  Everything is written to OUT.json once the loop has ended; the
checks that need parsing or mpmath happen in run.py, outside the timed region.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import re
import resource
import shutil
import sys
import traceback
from time import perf_counter

# Filled lazy state a user's first job pays for: the quadrature node tables
# (tanh-sinh and exp-sinh levels) and the H^d heat-kernel ladder.
WARMUP = (
    ["verify", "--kind", "generic-h", "--cutoff", "exp", "--lambda", "1",
     "--s=0.5+3i"],
    ["eval", "--fn", "heat-kernel-hd", "--t", "1", "--rho", "1", "--d", "9"],
)

# Runs of the calibration loop after every timed job, and after the warm-up
# of a set-up child.
CALIBRATION_REPS = 2
SETUP_CALIBRATION_REPS = 6

# meta.wall_ms is the last key of its sorted, indented JSON object; it goes
# together with the comma before it.
_WALL_MS = re.compile(r',\n\s*"wall_ms": [^\n]*\n')


def _import_cli(src: str):
    sys.path.insert(0, src)
    import zetalab.cli
    return zetalab.cli


def run_job(cli, argv: list[str]) -> tuple:
    """(exit code or "raised", wall seconds, stdout text, stderr tail)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:          # argparse usage errors exit with 1
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:                  # a job that raises is counted, not fatal
        rc = "raised"
        err.write(traceback.format_exc())
    wall = perf_counter() - t0
    return rc, wall, out.getvalue(), err.getvalue()[-400:]


def canonical_output(text: str) -> str:
    """A job's stdout without meta.wall_ms, the one field that may differ
    between identical invocations."""
    return _WALL_MS.sub("\n", text)


def calibration_loop() -> complex:
    """A fixed piece of interpreter work that owes nothing to zetalab: a
    Dirichlet partial sum in complex floating point, which is the kind of
    bytecode the program itself spends its time in."""
    s = complex(0.5, 14.134725)
    acc = 0j
    for k in range(1, 1500):
        acc += cmath.exp(-s * math.log(k))
    return acc


def calibrate(reps: int) -> list[float]:
    """Seconds taken by each of `reps` runs of calibration_loop()."""
    samples = []
    for _ in range(reps):
        t0 = perf_counter()
        calibration_loop()
        samples.append(perf_counter() - t0)
    return samples


def _warm_up(cli) -> None:
    for argv in WARMUP:
        rc, _, _, err = run_job(cli, list(argv))
        if rc != 0:
            raise SystemExit(f"warm-up job {argv} exited {rc}: {err}")


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _bind(argv: list[str], token: str, cache_dir: str) -> list[str]:
    return [cache_dir if a == token else a for a in argv]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def timed(cli, spec: dict) -> dict:
    """Run the whole job list pass after pass within spec["seconds"].

    Every pass is the same closed loop over the same jobs in the same order,
    grid jobs against a cache directory emptied at the start of the pass.  A
    pass starts only if it should end inside the time, judged by the longest
    pass so far; at least two passes run.  Every later execution must print
    the same bytes as the first.

    A job's time is the mean of its executions, and after every execution
    the calibration loop runs CALIBRATION_REPS times.  On a shared host each
    CPU switches between a slow and a fast state, about 1.7x apart, in
    spells of a second or two, and the share of time spent in either state
    changes from minute to minute.  The mean job time and the mean
    calibration time are both that share's mixture of the two speeds, so
    their ratio, which run.py reports, stays put when the share moves.
    """
    jobs = spec["jobs"]
    cache = os.path.join(spec["scratch"], "cache")
    results = []
    calibration: list[float] = []
    start = perf_counter()
    longest = 0.0
    while len(results) < 2 or perf_counter() - start + longest <= spec["seconds"]:
        _fresh_dir(cache)
        began = perf_counter()
        executions = []
        for argv in jobs:
            executions.append(run_job(cli, _bind(argv, spec["cache_token"], cache)))
            calibration += calibrate(CALIBRATION_REPS)
        results.append(executions)
        longest = max(longest, perf_counter() - began)
    wall = perf_counter() - start
    rss = _peak_rss_mb()
    first = results[0]
    merged = []
    for i, (rc, _, text, err) in enumerate(first):
        same = all(p[i][0] == rc and canonical_output(p[i][2]) == canonical_output(text)
                   for p in results[1:])
        merged.append([i, rc, sum(p[i][1] for p in results) / len(results),
                       text, err, same])
    return {"jobs": merged, "passes": len(results), "wall_s": wall,
            "peak_rss_mb": rss,
            "calibration_s": sum(calibration) / len(calibration),
            "calibration_n": len(calibration)}


def fixed(cli, spec: dict) -> dict:
    """Run the job list once, traced when spec["trace"] is set."""
    jobs = spec["jobs"]
    cache = _fresh_dir(os.path.join(spec["scratch"], "cache"))
    tracer = None
    if spec["trace"]:
        from tracer import Tracer     # this script's directory leads sys.path
        tracer = Tracer()
        tracer.install()
    results = []
    try:
        for index, argv in enumerate(jobs):
            if tracer is not None:
                tracer.job = index
            results.append([index, *run_job(cli, _bind(argv, spec["cache_token"], cache))])
    finally:
        if tracer is not None:
            tracer.uninstall()
    doc = {"jobs": results, "wall_s": sum(r[2] for r in results)}
    if tracer is not None:
        doc["trace"] = tracer.totals()
        if spec.get("spans_out"):
            with open(spec["spans_out"], "w", encoding="utf-8") as fh:
                for span in tracer.spans():
                    fh.write(json.dumps(span) + "\n")
    return doc


def main(argv: list[str]) -> int:
    if argv[:1] == ["--setup"]:
        _warm_up(_import_cli(argv[1]))
        done = perf_counter()
        cal = calibrate(SETUP_CALIBRATION_REPS)
        print(repr(done), repr(sum(cal) / len(cal)))
        return 0
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    cli = _import_cli(spec["src"])
    _warm_up(cli)
    doc = (timed if spec["mode"] == "timed" else fixed)(cli, spec)
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
