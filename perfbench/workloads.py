"""Seeded job lists for the three benchmark workloads.

Every job is a zetalab CLI argv exactly as a user would type it.  The lists
are built in blocks of the same composition (the same kinds, grid shapes or
number of windows), and every random parameter is stratified twice over:
each block takes one value from each coarse stratum of the parameter's
range and the list as a whole one value from each fine stratum.  The cost
mix of a list is then close to the same for every seed, which is what keeps
the timing spread between seeds small, while every value is still drawn
from the seed.  Nothing is filtered: jobs that the program answers with a
failure exit code stay in the list.

Grid jobs carry the token CACHE_TOKEN in place of their --cache-dir; the
worker substitutes a directory that is empty when each pass starts.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random

WORKLOADS = ("fe-verify", "damped-grid", "zero-scan")

# A seed kept for checking a claimed gain on inputs nobody looked at while
# writing the change (the benchmark was developed on seed 1).
HELD_OUT_SEED = 20261017

CACHE_TOKEN = "{cache}"

# Blocks per job list, sized so that one pass over the list takes five to
# thirteen seconds on a 2-CPU machine and a 38-second timed run makes two to
# eight passes; the traced run makes one per process.  Fewer blocks would give
# more passes, but then the quantiles of a list move with the seed.
BLOCKS = {"fe-verify": 10, "damped-grid": 8, "zero-scan": 4}

# Window length of every zero-scan job, in units of t.
SCAN_WINDOW = 5.0


def _job(argv, kind: str, **extra) -> dict:
    """One CLI invocation: its argv, a kind label for failure accounting, and
    for a grid replay the index of the cold job it repeats."""
    return dict(argv=[str(a) for a in argv], kind=kind, **extra)


class _Strata:
    """Stratified uniforms in (0, 1) for the blocks of one list.

    draws(key, b, k) gives block b its k values of parameter `key`.  The
    interval is cut into k coarse strata and each of those into one fine
    stratum per block; block b gets one value in every coarse stratum, and
    over the whole list every fine stratum is used once.
    """

    def __init__(self, rng: random.Random, blocks: int):
        self.rng = rng
        self.blocks = blocks
        self.table: dict = {}

    def draws(self, key, b: int, k: int = 1) -> list[float]:
        if key not in self.table:
            n, rng = self.blocks, self.rng
            rows = [[0.0] * k for _ in range(n)]
            for c in range(k):
                fine = list(range(n))
                rng.shuffle(fine)
                for blk in range(n):
                    rows[blk][c] = (c + (fine[blk] + rng.random()) / n) / k
            for row in rows:
                rng.shuffle(row)
            self.table[key] = rows
        return self.table[key][b]

    def u(self, key, b: int) -> float:
        return self.draws(key, b)[0]


def _log_between(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _num(x: float, digits: int = 3) -> str:
    return f"{x:.{digits}g}"


# ---------------------------------------------------------------------------
# fe-verify
# ---------------------------------------------------------------------------

_VERIFY_KINDS = ("riemann-classic", "exp-symmetric", "exp-alpha",
                 "quarter-alpha-single-k", "two-param", "generic-h")
_GENERIC_CUTOFFS = ("exp", "exp-alpha", "two-param", "two-param-nu")
_RESOLVENT_D = ("2", "2.5", "3", "4")
GENERIC_MIN_POWER = 0.65
_HD_D = ("5", "7", "9")


def _fe_verify_block(rng: random.Random, st: _Strata, b: int) -> list[dict]:
    def lam(*key) -> str:
        return _num(_log_between(st.u(("lam",) + key, b), 0.05, 5.0))

    def alpha(*key, lo=0.25) -> str:
        return _num(lo + (2.0 - lo) * st.u(("alpha",) + key, b))

    def lam1_complex(*key) -> str:
        # |lambda1| log-uniform, arg within +-pi/4: steeper arguments make the
        # integrand oscillate and one job alone can take a second, which
        # would leave the figures of a run to whichever seed drew it
        z = cmath.rect(_log_between(st.u(("lam1-mod",) + key, b), 0.05, 5.0),
                       (st.u(("lam1-arg",) + key, b) - 0.5) * 0.5 * math.pi)
        return f"{_num(z.real)}{'+' if z.imag >= 0 else '-'}{_num(abs(z.imag))}i"

    def params(kind: str, role: str, n_lam: int) -> list[str]:
        lams = ",".join(lam(kind, role, i) for i in range(n_lam))
        if kind == "riemann-classic":
            return []
        if kind in ("exp-symmetric", "quarter-alpha-single-k"):
            return ["--lambda", lams]
        if kind == "exp-alpha":
            return ["--lambda", lams, "--alpha", alpha(kind, role)]
        if kind == "two-param":
            return ["--lambda1", lam1_complex(kind, role), "--lambda2", lam(kind, role, "2")]
        cutoff = _GENERIC_CUTOFFS[(b + (0 if role == "strip" else 2)) % 4]
        if cutoff == "exp":
            return ["--cutoff", "exp", "--lambda", lam(kind, role)]
        # generic-h refuses (exit 1) a cutoff too flat at 0 for its integrals
        # to converge; exponents from GENERIC_MIN_POWER up always pass
        if cutoff == "exp-alpha":
            return ["--cutoff", "exp-alpha", "--lambda", lam(kind, role),
                    "--alpha", alpha(kind, role, lo=GENERIC_MIN_POWER)]
        if cutoff == "two-param":
            return ["--cutoff", "two-param", "--lambda1", lam1_complex(kind, role),
                    "--lambda2", lam(kind, role, "2")]
        return ["--cutoff", "two-param-nu", "--lambda1", lam(kind, role),
                "--lambda2", lam(kind, role, "2"),
                "--nu", _num(GENERIC_MIN_POWER
                             + (2.0 - GENERIC_MIN_POWER) * st.u(("nu", role), b))]

    def label(kind: str, role: str) -> str:
        if kind != "generic-h":
            return f"verify:{kind}"
        return f"verify:{kind}:{_GENERIC_CUTOFFS[(b + (0 if role == 'strip' else 2)) % 4]}"

    jobs = []
    t_points = st.draws("point-t", b, len(_VERIFY_KINDS))
    for kind, t_u in zip(_VERIFY_KINDS, t_points):
        jobs.append(_job(["verify", "--kind", kind, "--s-grid", "strip-default",
                          *params(kind, "strip", 1)], label(kind, "strip")))
        sigma = 0.02 + 0.96 * st.u(("sigma", kind), b)
        s_arg = f"--s={sigma:.3f}+{20.0 * t_u:.2f}i"
        jobs.append(_job(["verify", "--kind", kind, s_arg, *params(kind, "point", 2)],
                         label(kind, "point")))

    def between(key, lo, hi) -> str:
        return _num(lo + (hi - lo) * st.u(key, b))

    alpha_r = _log_between(st.u("resolvent-alpha", b), 0.25, 4.0)
    r = between("resolvent-r", 0.2, 4.0)
    d = _RESOLVENT_D[b % len(_RESOLVENT_D)]
    # the two resolvent routes are one kernel: bessel(alpha) = 4 pi quad(2 alpha)
    jobs.append(_job(["eval", "--fn", "resolvent", "--alpha", _num(alpha_r, 4),
                      "--r", r, "--d", d], "eval:resolvent"))
    jobs.append(_job(["eval", "--fn", "resolvent-quad", "--alpha",
                      _num(2.0 * alpha_r, 4), "--r", r, "--d", d],
                     "eval:resolvent-quad"))
    jobs.append(_job(["eval", "--fn", "laplace-h3", "--alpha",
                      _num(_log_between(st.u("laplace-alpha", b), 0.25, 4.0)),
                      "--rho", between("laplace-rho", 0.2, 4.0)], "eval:laplace-h3"))
    jobs.append(_job(["eval", "--fn", "heat-kernel-h3", "--t", between("h3-t", 0.1, 4.0),
                      "--rho", between("h3-rho", 0.2, 4.0)], "eval:heat-kernel-h3"))
    jobs.append(_job(["eval", "--fn", "heat-kernel-hd", "--t", between("hd-t", 0.1, 4.0),
                      "--rho", between("hd-rho", 0.2, 4.0),
                      "--d", _HD_D[b % len(_HD_D)]], "eval:heat-kernel-hd"))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# damped-grid
# ---------------------------------------------------------------------------

_GRID_FNS = ("omega", "xi-lambda", "zeta-reg")
# (sigma points, t values, lambda values) per cold job of a block; jobs with
# two t values put one of them on the real axis t = 0.
_GRID_SHAPES = ((2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3), (3, 1, 3), (2, 2, 3))


def _damped_grid_block(rng: random.Random, st: _Strata, b: int) -> list[dict]:
    """Six cold jobs, one per shape, then a seeded half of them replayed.

    A grid job costs what its smallest lambda and largest t cost, so which
    strata a job draws is fixed by its slot and the block number, never by
    the seed: the coarse lambda strata are dealt round-robin over the slots
    and the t strata rotate.  The seed picks the values inside the strata
    and the replays.
    """
    n = len(_GRID_SHAPES)
    lam_u = sorted(st.draws("lam", b, sum(shape[2] for shape in _GRID_SHAPES)))
    t_u = sorted(st.draws("t", b, n))
    step_u = sorted(st.draws("step", b, n))
    lo_u = sorted(st.draws("sigma-lo", b, n))
    lam_of: list[list[float]] = [[] for _ in range(n)]
    order = [(j + b) % n for j in range(n)]
    for u in lam_u:
        slot = next(j for j in order if len(lam_of[j]) < _GRID_SHAPES[j][2])
        lam_of[slot].append(u)
        order = order[1:] + order[:1]
    cold = []
    for j, (n_sigma, n_t, n_lam) in enumerate(_GRID_SHAPES):
        fn = _GRID_FNS[(j + b) % len(_GRID_FNS)]
        fmt = ("csv", "json")[(j + b) % 2]
        step = round(0.1 + 0.2 * step_u[(j + 3 * b) % n], 2)
        lo = round(lo_u[(j + 5 * b) % n] * (1.0 - (n_sigma - 1) * step), 2)
        hi = round(lo + (n_sigma - 1) * step, 2)
        t = f"{20.0 * t_u[(j + 2 * b) % n]:.2f}"
        ts = f"0,{t}" if n_t == 2 else t
        lams = sorted(_log_between(u, 1e-4, 30.0) for u in lam_of[j])
        argv = ["grid", "--fn", fn, "--sigma", f"{lo:.2f}:{hi:.2f}:{step:.2f}",
                "--t", ts, "--lambda", ",".join(_num(x) for x in lams),
                "--jobs", "2", "--cache-dir", CACHE_TOKEN, "--format", fmt]
        cold.append(_job(argv, f"grid:{fn}"))
    rng.shuffle(cold)
    replays = rng.sample(range(n), n // 2)
    return cold + [_job(cold[i]["argv"], cold[i]["kind"] + ":replay",
                        replay_of=i) for i in replays]


# ---------------------------------------------------------------------------
# zero-scan
# ---------------------------------------------------------------------------

_SCAN_PER_BLOCK = 16


def _zero_scan_block(rng: random.Random, st: _Strata, b: int) -> list[dict]:
    jobs = []
    for u in st.draws("height", b, _SCAN_PER_BLOCK):
        lo = round(_log_between(u, 10.0, 5000.0), 2)
        jobs.append(_job(["scan", "--t", f"{lo:.2f}:{lo + SCAN_WINDOW:.2f}"],
                         "scan"))
    return jobs


_BLOCK_MAKERS = {"fe-verify": _fe_verify_block,
                 "damped-grid": _damped_grid_block,
                 "zero-scan": _zero_scan_block}


def generate(workload: str, seed: int) -> list[dict]:
    """The job list of `workload` for `seed`; the same seed gives the same list.

    Replay jobs carry `replay_of`, the absolute index of the cold job whose
    argv they repeat.
    """
    rng = random.Random(f"zetalab-perfbench:{workload}:{seed}")
    strata = _Strata(rng, BLOCKS[workload])
    make = _BLOCK_MAKERS[workload]
    jobs: list[dict] = []
    for b in range(BLOCKS[workload]):
        block = make(rng, strata, b)
        for job in block:
            if "replay_of" in job:
                job["replay_of"] += len(jobs)
            job["block"] = b
        jobs.extend(block)
    return jobs


def jobs_digest(jobs: list[dict]) -> str:
    text = json.dumps([j["argv"] for j in jobs], separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
