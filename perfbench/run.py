"""zetalab benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload fe-verify --seed 1 --seconds 38 --trace 0

Run from anywhere inside a checkout that holds src/zetalab and tests/oracles.py.
--trace 0 runs the timed closed loop with tracing off and reports the
end-to-end metrics of BENCHMARK.json; --trace 1 runs a fixed prefix of the
same job list once untraced and twice traced and reports the per-layer
metrics.  Both print a human-readable report and, as the last line of
stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
The exit code is 1 when a determinism or referee check fails and 2 when the
checkout is incomplete.  See perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

sys.dont_write_bytecode = True      # the benchmark leaves no .pyc in the checkout

import referee                      # noqa: E402  (this directory leads sys.path)
import tracer                       # noqa: E402
import worker                       # noqa: E402
import workloads                    # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
STATE = os.path.join(ROOT, ".perfbench")

SETUP_RUNS = 9
# Every reported time is scaled to a CPU on which worker.calibration_loop()
# takes this long: about its mean on the 2-vCPU development host, so the
# figures there read close to wall time.  See worker.timed().
CALIBRATION_REF_S = 0.6e-3
SETUP_TIMEOUT_S = 60
PASS_TIMEOUT_S = 120
FAIL_CODES = (1, 2, 3, 4)


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    # Bytecode is cached, as for an installed package, but under .perfbench
    # rather than in src/.  Without a cache every interpreter would compile
    # the package and half the standard library again, and setup_s would
    # measure the compiler.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(STATE, "pycache")
    env["PYTHONHASHSEED"] = "0"
    env["ZETALAB_CACHE_DIR"] = ""       # no job may fall back to a user cache
    return env


def measure_setup(env: dict, runs: int, discard_first: bool) -> list[tuple]:
    """(seconds, scale) for each fresh interpreter, from its spawn to the end
    of its warm-up job.

    The child prints perf_counter() when its warm-up is done; the clock is
    system-wide, so the difference to the parent's reading before the spawn
    is the set-up time, free of the parent's polling granularity in wait().
    The child then times the calibration loop, and `scale` brings its set-up
    time to the reference CPU.  Set-up lasts a tenth of a second, shorter
    than the spells in which the CPU keeps one speed, so the loop right
    after it runs at the speed set-up ran at.  The first spawn of a run
    fills the bytecode cache, which a user who installed the package
    already has, and is discarded.
    """
    argv = [sys.executable, WORKER, "--setup", SRC]
    samples = []
    for i in range(runs + discard_first):
        t0 = perf_counter()
        done = subprocess.run(argv, env=env, check=True, timeout=SETUP_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
        if i or not discard_first:
            end, calibration = (float(x) for x in done.stdout.split())
            samples.append((end - t0, CALIBRATION_REF_S / calibration))
    return samples


def run_worker(spec: dict, scratch: str, name: str, env: dict, timeout: float) -> dict:
    spec_path = os.path.join(scratch, f"{name}.spec.json")
    out_path = os.path.join(scratch, f"{name}.out.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    subprocess.run([sys.executable, WORKER, spec_path, out_path], env=env,
                   check=True, timeout=timeout)
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def output_hash(text: str) -> str:
    return hashlib.sha256(worker.canonical_output(text).encode("utf-8")).hexdigest()


def count_records(job: dict, text: str) -> int:
    try:
        return len(referee.records_of(job, text))
    except (ValueError, KeyError):
        return 0


def failure_counts(results: list) -> dict:
    counts = {f"exit_{c}": 0 for c in FAIL_CODES}
    counts["raised"] = 0
    for r in results:
        rc = r[1]
        if rc == "raised":
            counts["raised"] += 1
        elif rc != 0:
            counts[f"exit_{rc}" if rc in FAIL_CODES else "raised"] += 1
    return counts


def replay_check(jobs: list, results: list) -> tuple[int, list[str]]:
    """Grid replays must match their cold twin byte for byte."""
    first = {}
    for r in results:
        first.setdefault(r[0], output_hash(r[3]))
    checked, problems = 0, []
    for r in results:
        twin = jobs[r[0]].get("replay_of")
        if twin is None or twin not in first:
            continue
        checked += 1
        if output_hash(r[3]) != first[twin]:
            problems.append(f"grid replay of job {twin} differs from its cold run")
    return checked, problems


def run_referee(jobs: list, results: list, seed: int) -> tuple[list, list[str]]:
    """Score one sampled record per category; return (scores, problems)."""
    oracles = referee.load_oracles(ROOT)
    judge = referee.Referee(oracles)
    seen, candidates = set(), []
    for pos, r in enumerate(results):
        index, rc, text = r[0], r[1], r[3]
        if index in seen or not text:
            continue
        seen.add(index)
        try:
            recs = referee.records_of(jobs[index], text)
        except (ValueError, KeyError):
            continue
        for k, rec in enumerate(recs):
            cat = referee.category(jobs[index], rec)
            if cat is not None:
                candidates.append((cat, pos, k))
    scores, problems = [], []
    for cat, pos, k in referee.sample(candidates, seed):
        index, rc, text = results[pos][0], results[pos][1], results[pos][3]
        job = jobs[index]
        rec = referee.records_of(job, text)[k]
        for what, dig, note in judge.score(job, rec):
            scores.append((cat, what, dig, rc, note))
            if rc == 0 and dig < referee.GATE_DIGITS:
                problems.append(f"referee: {cat} {what} {note} has {dig:.2f} "
                                f"digits from a job that exited 0")
    return scores, problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def layer_metrics(jobs: list, base: dict, traced: list[dict]) -> dict:
    """Every per-layer figure of the traced passes, by metric name.

    Counts come from the first traced pass (the self-check makes sure the
    second agrees); self times are the mean of the two passes.
    """
    first = traced[0]["trace"]
    out = {}
    job_wall = statistics.mean(t["wall_s"] for t in traced)
    for key in tracer.metric_keys():
        calls, evals, _ = first["agg"].get(key, (0, 0, 0.0))
        self_s = statistics.mean(t["trace"]["agg"].get(key, (0, 0, 0.0))[2]
                                 for t in traced)
        out[f"{key}.calls"] = calls
        out[f"{key}.evals"] = evals
        out[f"{key}.self_s"] = self_s
        out[f"{key}.self_frac"] = self_s / job_wall
    scalars = first["scalars"]
    series_calls = out["regularized.completed_series.calls"]
    out["regularized.completed_series.terms"] = (
        scalars["regularized.completed_series.bessel_calls"] / series_calls
        if series_calls else 0.0)
    out["quadrature.integrate.nonconverged"] = scalars["quadrature.integrate.nonconverged"]
    hits, misses = scalars["cache.hits"], scalars["cache.misses"]
    out["cache.hits"], out["cache.misses"] = hits, misses
    out["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    results = traced[0]["jobs"]
    zeros = sum(count_records(jobs[r[0]], r[3]) for r in results
                if jobs[r[0]]["argv"][0] == "scan")
    out["zeta_classic.z_evals_per_zero"] = (
        out["zeta_classic.hardy_z.calls"] / zeros if zeros else 0.0)
    out["records.bytes_out"] = sum(len(r[3].encode("utf-8")) for r in results)
    fails = failure_counts(results)
    for name, n in fails.items():
        out[f"cli.{name}"] = n
    out["cli.fail_frac"] = sum(fails.values()) / len(results)
    out["trace.overhead_frac"] = job_wall / base["wall_s"] - 1.0
    return out


def count_signature(trace: dict) -> dict:
    """The figures that must repeat exactly between two traced runs."""
    sig = {f"{k}.calls": v[0] for k, v in trace["agg"].items()}
    sig.update({f"{k}.evals": v[1] for k, v in trace["agg"].items()})
    sig.update(trace["scalars"])
    return sig


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def timed_run(args, jobs: list, scratch: str, env: dict) -> dict:
    # set-up is sampled before the passes and again after the checks, so a
    # spell of host contention shorter than the run cannot move its median
    setup = measure_setup(env, SETUP_RUNS - SETUP_RUNS // 2, discard_first=True)
    spec = {"mode": "timed", "src": SRC, "seconds": args.seconds,
            "scratch": os.path.join(scratch, "timed"),
            "cache_token": workloads.CACHE_TOKEN, "jobs": [j["argv"] for j in jobs]}
    doc = run_worker(spec, scratch, "timed", env, args.seconds + PASS_TIMEOUT_S)
    results = doc["jobs"]
    problems = []

    raw_walls = [r[2] for r in results]
    records = sum(count_records(jobs[r[0]], r[3]) for r in results)
    fails = failure_counts(results)
    n_failed = sum(fails.values())

    replays, replay_problems = replay_check(jobs, results)
    problems += replay_problems
    for r in results:
        if not r[5]:
            problems.append(f"a later execution of job {r[0]} ({jobs[r[0]]['kind']}) "
                            "differs from the first")
    scores, ref_problems = run_referee(jobs, results, args.seed)
    problems += ref_problems
    setup += measure_setup(env, SETUP_RUNS // 2, discard_first=False)

    scale = CALIBRATION_REF_S / doc["calibration_s"]
    walls = [w * scale for w in raw_walls]
    metrics = {
        "records_per_s": records / sum(walls),
        "job_p50_ms": 1e3 * statistics.median(walls),
        "job_p90_ms": 1e3 * p90(walls) if len(walls) > 1 else 1e3 * walls[0],
        "setup_s": statistics.median(t * k for t, k in setup),
        "peak_rss_mb": doc["peak_rss_mb"],
    }
    lines = [
        f"end-to-end (tracing off; times scaled by {scale:.4f} to the reference CPU):",
        f"  records_per_s  {metrics['records_per_s']:12.4f} 1/s     "
        f"{records} records in {sum(walls):.4f} s of mean job times "
        f"({records / sum(raw_walls):.4f} 1/s unscaled)",
        f"  job_p50_ms     {metrics['job_p50_ms']:12.4f} ms      n={len(walls)} jobs, "
        f"mean of {doc['passes']} passes in {doc['wall_s']:.3f} s",
        f"  job_p90_ms     {metrics['job_p90_ms']:12.4f} ms      n={len(walls)} jobs",
        f"  setup_s        {metrics['setup_s']:12.6f} s       median of "
        f"{len(setup)}: " + " ".join(f"{t * k:.4f}" for t, k in setup),
        f"  calibration    {1e3 * doc['calibration_s']:12.6f} ms      mean of "
        f"{doc['calibration_n']} loops between jobs; reference "
        f"{1e3 * CALIBRATION_REF_S:g} ms",
        f"  peak_rss_mb    {metrics['peak_rss_mb']:12.3f} MB",
        f"  fail_frac      {n_failed / len(results):12.6f}         "
        f"{n_failed} of {len(results)} jobs: "
        + " ".join(f"{k}={v}" for k, v in fails.items()),
        *_referee_lines(scores),
        f"determinism: {len(results)} jobs executed {doc['passes']} times and "
        f"{replays} grid replays compared byte for byte (meta.wall_ms removed)",
    ]
    return {"metrics": metrics, "attempted": len(results), "failed": n_failed,
            "problems": problems, "lines": lines}


def _referee_lines(scores: list) -> list[str]:
    if not scores:
        return ["  min_digits     (no record had an oracle)"]
    worst = min(s[2] for s in scores)
    lines = [f"  min_digits     {worst:12.4f} digits  over {len(scores)} values "
             "scored against mpmath"]
    for cat, what, dig, rc, note in scores:
        lines.append(f"    referee {cat:40s} {what:9s} {dig:7.2f} digits  "
                     f"exit={rc} {note}")
    return lines


def traced_run(args, jobs: list, scratch: str, env: dict) -> dict:
    spec = {"mode": "fixed", "src": SRC, "cache_token": workloads.CACHE_TOKEN,
            "jobs": [j["argv"] for j in jobs]}
    os.makedirs(os.path.join(STATE, "trace"), exist_ok=True)
    spans_out = os.path.join(STATE, "trace", f"{args.workload}-seed{args.seed}.jsonl")
    passes = []
    for name, trace in (("base", False), ("traced-1", True), ("traced-2", True)):
        passes.append(run_worker(
            {**spec, "trace": trace, "scratch": os.path.join(scratch, name),
             "spans_out": spans_out if name == "traced-1" else None},
            scratch, name, env, PASS_TIMEOUT_S))
    base, traced = passes[0], passes[1:]
    problems = []
    for p in traced:
        for a, b in zip(base["jobs"], p["jobs"]):
            if a[1] != b[1] or output_hash(a[3]) != output_hash(b[3]):
                problems.append(f"traced output of job {a[0]} differs from untraced")
    sig1, sig2 = (count_signature(t["trace"]) for t in traced)
    for key in sorted(set(sig1) | set(sig2)):
        if sig1.get(key) != sig2.get(key):
            problems.append(f"count determinism: {key} {sig1.get(key)} != {sig2.get(key)}")
    for p in passes:
        problems += replay_check(jobs, p["jobs"])[1]
    scores, ref_problems = run_referee(jobs, base["jobs"], args.seed)
    problems += ref_problems

    metrics = layer_metrics(jobs, base, traced)
    metrics["referee.min_digits"] = min((s[2] for s in scores), default=17.0)
    results = traced[0]["jobs"]
    lines = [f"per-layer (traced, {len(jobs)} jobs, counts from pass 1, self time "
             "mean of 2 passes):"]
    lines += [f"  {k:55s} {v:.6g}" for k, v in sorted(metrics.items())]
    lines.append("failures by job kind (traced pass 1):")
    by_kind: dict[str, list] = {}
    for r in results:
        by_kind.setdefault(jobs[r[0]]["kind"], []).append(r)
    for kind in sorted(by_kind):
        fails = failure_counts(by_kind[kind])
        lines.append(f"  {kind:40s} {len(by_kind[kind]):4d} jobs  "
                     + " ".join(f"{k}={v}" for k, v in fails.items()))
    lines += _referee_lines(scores)
    lines.append(f"determinism: counts of two traced passes compared "
                 f"({len(sig1)} figures); outputs of all three passes compared; "
                 f"spans in {os.path.relpath(spans_out, ROOT)}")
    return {"metrics": metrics, "attempted": len(results),
            "failed": sum(failure_counts(results).values()),
            "problems": problems, "lines": lines}


# ---------------------------------------------------------------------------

def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    needed = [os.path.join(SRC, "zetalab", "cli.py"),
              os.path.join(ROOT, "tests", "oracles.py"),
              os.path.join(ROOT, "BENCHMARK.json")]
    missing = [os.path.relpath(p, ROOT) for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: checkout is missing {', '.join(missing)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    jobs = workloads.generate(args.workload, args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"held_out_seed={workloads.HELD_OUT_SEED} trace={args.trace} "
          f"jobs_sha256={workloads.jobs_digest(jobs)} "
          f"python={platform.python_version()} nproc={os.cpu_count()} "
          f"commit={_commit()}")
    os.makedirs(STATE, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=STATE)
    try:
        run = (traced_run if args.trace else timed_run)(args, jobs, scratch, _child_env())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in run["lines"]:
        print(line)
    for problem in run["problems"]:
        print(f"CHECK FAILED: {problem}")
    correct = not run["problems"]
    print(f"checks: {'all passed' if correct else 'FAILED'}")
    result = {"correct": correct, "attempted": run["attempted"],
              "failed": run["failed"],
              "metrics": {m["name"]: {"value": run["metrics"][m["name"]],
                                      "unit": m["unit"]} for m in wanted}}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
