"""Double-exponential (tanh-sinh / exp-sinh) adaptive quadrature.

One engine serves every integral in the package: finite intervals map through
tanh-sinh, half-lines through exp-sinh. Both transforms push the integrand's
endpoint behavior into double-exponentially decaying tails, so analytic
integrands converge at roughly digits-doubling-per-level, and integrable
endpoint singularities (x^{p}, p > -1) cost nothing extra.

Node/weight tables are canonical (interval-independent) and cached per level;
the mapping onto (a, b) happens at evaluation time. Nodes are generated so
that the distance to the nearer endpoint is computed from exponentials
directly — never as 1 - tanh(u) — which is what keeps integrands like
t^{s/2-1} honest down to distances ~1e-154 from the endpoint.

The tanh-sinh table stops at u = (pi/2)sinh(t) ~ 177.4, where the weight's
sech^2(u) underflows to 0; nodes beyond it would only cost evaluations. That
bounds the usable endpoint singularity: x^p needs the transformed tail
e^{-2(1+p)u} to die before the cap, so p should stay above roughly -0.9.
Everything this package integrates has p >= -1/2.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .errors import DomainError, NonConvergence, NonFiniteIntegrand
from .types import DEFAULT_QUAD, EvalResult, QuadratureSpec, make_result

# Caps on u = (pi/2)sinh(t) keep every exp() call inside double range:
# tanh-sinh evaluates exp(2u), exp-sinh evaluates exp(u).  Past its cap the
# tanh-sinh weight 4e^{2u}/(e^{2u}+1)^2 overflows its denominator to 0.
_U_CAP_TS = 0.25 * math.log(sys.float_info.max)
_U_CAP_ES = 690.0

# ---------------------------------------------------------------------------
# canonical node tables
# ---------------------------------------------------------------------------

# level -> list of (sm, w) for t = k*h > 0 on the tanh-sinh transform, where
# sm = 1 - tanh(u) = 2/(e^{2u}+1) is the distance to the endpoint on the
# canonical (-1, 1) interval and w = (pi/2)cosh(t) sech^2(u).
_TANH_SINH_CACHE: dict[int, list[tuple[float, float]]] = {}

# level -> list of (x, w_plus, w_minus) for t = k*h > 0 on exp-sinh, where
# x = e^u, w_plus = (pi/2)cosh(t)*x, w_minus = (pi/2)cosh(t)/x.
_EXP_SINH_CACHE: dict[int, list[tuple[float, float, float]]] = {}


def _level_nodes(cache: dict, level: int, u_cap: float, node) -> list[tuple]:
    """Positive-t nodes new at `level` (odd multiples of h, except level 0).

    node(t, u) turns t and u = (pi/2)sinh(t) into the row the transform
    stores; the table stops at t = 7 or where u passes u_cap.
    """
    try:
        return cache[level]
    except KeyError:
        pass
    h = 0.5 ** level
    nodes = []
    for k in range(1, int(7.0 / h) + 1, 1 if level == 0 else 2):
        t = k * h
        u = 0.5 * math.pi * math.sinh(t)
        if u > u_cap:
            break
        nodes.append(node(t, u))
    cache[level] = nodes
    return nodes


def _tanh_sinh_node(t: float, u: float) -> tuple[float, float]:
    e2u = math.exp(2.0 * u)
    sm = 2.0 / (e2u + 1.0)
    # sech^2(u) = 4 e^{2u} / (e^{2u}+1)^2 == sm * (1 - sm/2) * 2 ... just
    # compute it from e2u directly to stay stable for large u.
    sech2 = 4.0 * e2u / ((e2u + 1.0) * (e2u + 1.0))
    return sm, 0.5 * math.pi * math.cosh(t) * sech2


def _exp_sinh_node(t: float, u: float) -> tuple[float, float, float]:
    x = math.exp(u)
    c = 0.5 * math.pi * math.cosh(t)
    return x, c * x, c / x


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def _check(fx: complex, x: float) -> complex:
    if isinstance(fx, complex):
        if math.isfinite(fx.real) and math.isfinite(fx.imag):
            return fx
    elif math.isfinite(fx):
        return fx
    raise NonFiniteIntegrand(f"integrand returned {fx!r} at x = {x!r}")


def integrate(f: Callable[[float], complex], domain: tuple[float, float],
              q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """Integrate f over `domain` = (a, b), where b may be math.inf.

    Returns an EvalResult whose err_estimate is the last refinement increment.
    Raises DomainError for an empty/reversed interval, NonFiniteIntegrand if f
    produces nan/inf at a node, and NonConvergence if max_levels refinements
    do not reach tolerance.
    """
    a, b = float(domain[0]), float(domain[1])
    if math.isinf(a) or math.isnan(a) or math.isnan(b):
        raise DomainError(f"unsupported domain ({a!r}, {b!r})")
    if not a < b:
        raise DomainError(f"domain requires a < b, got ({a!r}, {b!r})")

    if math.isinf(b):
        return _integrate_half_line(f, a, q)
    return _integrate_finite(f, a, b, q)


def _integrate_finite(f, a: float, b: float, q: QuadratureSpec) -> EvalResult:
    half = 0.5 * (b - a)

    def add_level(raw, level):
        evaluations = 0
        for sm, w in _level_nodes(_TANH_SINH_CACHE, level, _U_CAP_TS,
                                  _tanh_sinh_node):
            d = half * sm  # distance to either endpoint
            if d == 0.0:
                continue
            for x in (a + d, b - d):
                fx = f(x)
                evaluations += 1
                if fx != 0:
                    raw += _check(fx, x) * w
        return raw, evaluations

    return _de_levels(f, a + half, add_level, half, q, "tanh-sinh")


def _integrate_half_line(f, a: float, q: QuadratureSpec) -> EvalResult:
    def add_level(raw, level):
        evaluations = 0
        for x, wp, wm in _level_nodes(_EXP_SINH_CACHE, level, _U_CAP_ES,
                                      _exp_sinh_node):
            xp = a + x
            fx = f(xp)
            evaluations += 1
            if fx != 0:
                raw += _check(fx, xp) * wp
            xm = a + 1.0 / x
            fx = f(xm)
            evaluations += 1
            if fx != 0:
                raw += _check(fx, xm) * wm
        return raw, evaluations

    return _de_levels(f, a + 1.0, add_level, 1.0, q, "exp-sinh")


def _de_levels(f, x0: float, add_level, scale: float, q: QuadratureSpec,
               name: str) -> EvalResult:
    """The level loop both transforms share.

    x0 is the centre node (t = 0, weight pi/2); add_level(raw, level) adds
    the nodes new at `level` to the raw sum and returns it with the number
    of evaluations spent.  The level's estimate is raw * h * scale.
    """
    raw = _check(f(x0), x0) * (0.5 * math.pi)
    evaluations = 1

    prev = None
    for level in range(q.max_levels + 1):
        raw, spent = add_level(raw, level)
        evaluations += spent
        result = raw * (0.5 ** level * scale)
        if prev is not None:
            err = abs(result - prev)
            # comparing successive levels only from level 2 on guards against
            # a coincidentally tiny first increment being mistaken for
            # convergence
            if level >= 2 and err <= q.tolerance_for(result):
                return make_result(result, err, evaluations, q)
        prev = result
    raise NonConvergence(
        f"{name} failed to reach tolerance after {q.max_levels} levels "
        f"(last increment {err:.3e})", best=result, err_estimate=err)
