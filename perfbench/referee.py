"""Score sampled output records against mpmath through tests/oracles.py.

The oracles are imported read-only from the checkout's tests/ directory; the
benchmark adds only the algebra that maps a CLI record onto them (which side
of which identity, bare versus completed).  Each reference costs 0.1 to 1 s
of mpmath, so run.py calls this after the timed loop has ended and scores
one record per category (kind, lambda band, height band) rather than all.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import sys

# A record from a job that exited 0 must agree with mpmath to at least this
# many significant digits, or the run is marked incorrect.  Records of jobs
# that exited non-zero are scored but not gated: the program already
# reported those as failures and they are counted in `failed`.
GATE_DIGITS = 1.0

_LAMBDA_BANDS = (1e-3, 1e-2, 1e-1, 1.0, 10.0)
_HEIGHT_BANDS = (50.0, 250.0, 1000.0)


def load_oracles(root: str):
    sys.path.insert(0, os.path.join(root, "tests"))
    import oracles
    return oracles


def digits(value: complex, reference: complex) -> float:
    """-log10 of the relative error, clamped to [-17, 17]."""
    if reference == 0:
        return 17.0 if value == 0 else -17.0
    rel = abs(complex(value) - complex(reference)) / abs(complex(reference))
    return max(-17.0, min(17.0, -math.log10(max(rel, 1e-17))))


def _flag(argv: list[str], name: str) -> str | None:
    for i, a in enumerate(argv):
        if a == name and i + 1 < len(argv):
            return argv[i + 1]
        if a.startswith(name + "="):
            return a.split("=", 1)[1]
    return None


def _cx(obj) -> complex:
    return complex(obj["re"], obj["im"]) if isinstance(obj, dict) else complex(obj)


# ---------------------------------------------------------------------------
# records and their sampling categories
# ---------------------------------------------------------------------------

def records_of(job: dict, text: str) -> list[dict]:
    """Every output record of one job, normalised to plain dicts."""
    argv = job["argv"]
    cmd = argv[0]
    if cmd == "grid" and _flag(argv, "--format") == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        return [{"sigma": float(r["sigma"]), "t": float(r["t"]),
                 "lambda": float(r["lambda"]),
                 "value": complex(float(r["value_re"]), float(r["value_im"]))}
                for r in rows]
    doc = json.loads(text)
    if cmd == "eval":
        return [{"input": doc["input"], "value": _cx(doc["value"])}]
    if cmd == "grid":
        return [{"sigma": r["sigma"], "t": r["t"], "lambda": r["lambda"],
                 "value": _cx(r["value"])} for r in doc["records"]]
    if cmd == "scan":
        return list(doc["records"])
    return [{"s": _cx(r["s"]), "params": r["params"], "lhs": _cx(r["lhs"]),
             "rhs": _cx(r["rhs"])} for r in doc["records"]]


_SCORED_VERIFY = ("verify:riemann-classic", "verify:exp-symmetric",
                  "verify:exp-alpha", "verify:quarter-alpha-single-k",
                  "verify:generic-h:exp", "verify:generic-h:exp-alpha")


def category(job: dict, record: dict) -> str | None:
    """The sampling stratum of a record, or None when no oracle covers it."""
    kind = job["kind"]
    if kind.startswith("eval:"):
        return kind
    if kind in _SCORED_VERIFY:
        return kind
    if kind.startswith("grid:") and not kind.endswith(":replay"):
        lam = record["lambda"]
        band = sum(lam >= edge for edge in _LAMBDA_BANDS)
        axis = "real" if record["t"] == 0.0 else "complex"
        return f"grid:lambda-band-{band}:{axis}-s"
    if kind == "scan":
        band = sum(record["refined_t"] >= edge for edge in _HEIGHT_BANDS)
        return f"scan:height-band-{band}"
    return None


def sample(candidates: list[tuple], seed: int) -> list[tuple]:
    """One (category, position, record) per category, chosen by the seed."""
    rng = random.Random(f"referee:{seed}")
    by_cat: dict[str, list] = {}
    for cand in candidates:
        by_cat.setdefault(cand[0], []).append(cand)
    return [rng.choice(by_cat[c]) for c in sorted(by_cat)]


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

class Referee:
    def __init__(self, oracles):
        self.o = oracles
        self.mp = oracles.mp

    def _exp_side(self, s, lam):
        return self.o.completed_exp_ref(s, lam) + self.o.besselk_ref(s / 2, 2 * lam)

    def _alpha_side(self, s, lam, alpha):
        return (self.o.completed_alpha_ref(s, lam, alpha)
                + self.o.besselk_ref(s / (2 * alpha), 2 * lam) / alpha)

    def verify_sides(self, job: dict, rec: dict) -> tuple[complex, complex]:
        """mpmath values of (lhs, rhs) of one verify record."""
        kind, argv, s = job["kind"], job["argv"], rec["s"]
        params = rec["params"]
        if kind == "verify:riemann-classic":
            side = lambda w: self.o.xi_ref(w) / (w * (w - 1))
            return side(s), side(1 - s)
        if kind == "verify:exp-symmetric":
            lam = _cx(params["lam"]).real
            return self._exp_side(1 - s, lam), self._exp_side(s, lam)
        if kind == "verify:exp-alpha":
            lam, alpha = float(params["lam"]), float(params["alpha"])
            return self._alpha_side(1 - s, lam, alpha), self._alpha_side(s, lam, alpha)
        if kind == "verify:quarter-alpha-single-k":
            lam = float(params["lam"])
            lhs = (self.o.completed_alpha_ref(1 - s, lam, 0.25)
                   - self.o.completed_alpha_ref(s, lam, 0.25))
            rhs = -4 * (1 - 2 * s) / lam * self.o.besselk_ref(1 - 2 * s, 2 * lam)
            return lhs, rhs
        lam = float(_flag(argv, "--lambda"))
        if kind == "verify:generic-h:exp":
            return self._exp_side(1 - s, lam), self._exp_side(s, lam)
        alpha = float(_flag(argv, "--alpha"))
        return self._alpha_side(1 - s, lam, alpha), self._alpha_side(s, lam, alpha)

    def eval_value(self, job: dict, rec: dict) -> complex:
        inp = rec["input"]
        fn = inp["fn"]
        if fn == "resolvent":
            return self.o.resolvent_bessel_ref(_cx(inp["alpha"]).real, inp["r"],
                                               _cx(inp["d"]).real)
        if fn == "resolvent-quad":
            return self.o.resolvent_quad_ref(_cx(inp["alpha"]).real, inp["r"], inp["d"])
        if fn == "laplace-h3":
            return self.o.laplace_h3_closed(_cx(inp["alpha"]).real, inp["rho"])
        d = int(inp.get("d", 3))
        return self.o.hyperbolic_kernel_ref(inp["t"], inp["rho"], d)

    def grid_value(self, job: dict, rec: dict) -> complex:
        fn = _flag(job["argv"], "--fn")
        s, lam = complex(rec["sigma"], rec["t"]), rec["lambda"]
        if fn == "omega":
            return self.o.omega_ref(s, lam)
        if fn == "xi-lambda":
            return self.o.xi_lambda_ref(s, lam)
        mp = self.mp
        sm = mp.mpc(s)
        completed = mp.mpc(self.o.completed_exp_ref(s, lam))
        return complex(completed * mp.power(mp.pi, sm / 2) * mp.rgamma(sm / 2))

    def scan_zero(self, rec: dict) -> tuple[float, bool]:
        """(the mpmath zero, whether it lies in the reported bracket)."""
        n = int(self.mp.nzeros(rec["t_lo"])) + 1
        zero = self.o.zero_ref(n)
        return zero, rec["t_lo"] <= zero <= rec["t_hi"]

    def score(self, job: dict, rec: dict) -> list[tuple[str, float, str]]:
        """[(what, digits, note)] for one record."""
        cmd = job["argv"][0]
        if cmd == "verify":
            lhs, rhs = self.verify_sides(job, rec)
            where = f"s={rec['s']:.4g}"
            return [("lhs", digits(rec["lhs"], lhs), where),
                    ("rhs", digits(rec["rhs"], rhs), where)]
        if cmd == "eval":
            return [("value", digits(rec["value"], self.eval_value(job, rec)), "")]
        if cmd == "grid":
            ref = self.grid_value(job, rec)
            where = f"sigma={rec['sigma']} t={rec['t']} lambda={rec['lambda']}"
            return [("value", digits(rec["value"], ref), where)]
        zero, inside = self.scan_zero(rec)
        note = f"t={zero:.10g}" + ("" if inside else " OUTSIDE bracket")
        return [("refined_t", digits(rec["refined_t"], zero) if inside else -17.0, note)]
