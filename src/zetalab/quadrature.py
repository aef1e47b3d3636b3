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

One level loop (`_de_levels`) carries any number of integrals over the same
nodes.  `integrate` runs one; `integrate_powers` runs the K Mellin integrals
int_0^inf base(x) x^{w_k} dx that share a base -- completed values at s and
1 - s, or at the sigma values of a grid row -- in one exp-sinh pass, taking
base and log x once a node.  Each component is accepted at its own level by
the same rule, so its result is bit-identical to a pass of its own.
"""

from __future__ import annotations

import cmath
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

# level -> list of (offset, w) on exp-sinh: for each t = k*h > 0 the pair
# (x, (pi/2)cosh(t)*x) and then (1/x, (pi/2)cosh(t)/x), x = e^u.  The nodes
# on (a, inf) are a + offset, so the table serves a = 0 as it stands.
_EXP_SINH_CACHE: dict[int, list[tuple[float, float]]] = {}


def _level_nodes(cache: dict, level: int, u_cap: float, node) -> list[tuple]:
    """Positive-t nodes new at `level` (odd multiples of h, except level 0).

    node(t, u) turns t and u = (pi/2)sinh(t) into the rows the transform
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
        nodes.extend(node(t, u))
    cache[level] = nodes
    return nodes


def _tanh_sinh_node(t: float, u: float) -> tuple[tuple[float, float]]:
    e2u = math.exp(2.0 * u)
    sm = 2.0 / (e2u + 1.0)
    # sech^2(u) = 4 e^{2u} / (e^{2u}+1)^2 == sm * (1 - sm/2) * 2 ... just
    # compute it from e2u directly to stay stable for large u.
    sech2 = 4.0 * e2u / ((e2u + 1.0) * (e2u + 1.0))
    return (sm, 0.5 * math.pi * math.cosh(t) * sech2),


def _exp_sinh_node(t: float, u: float) -> tuple[tuple[float, float], ...]:
    x = math.exp(u)
    c = 0.5 * math.pi * math.cosh(t)
    return (x, c * x), (1.0 / x, c / x)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

_CENTER_WEIGHT = 0.5 * math.pi


def _check(fx: complex, x: float) -> complex:
    if isinstance(fx, complex):
        if math.isfinite(fx.real) and math.isfinite(fx.imag):
            return fx
    elif math.isfinite(fx):
        return fx
    raise NonFiniteIntegrand(f"integrand returned {fx!r} at x = {x!r}")


def _transform(domain: tuple[float, float]):
    """(x0, scale, name, points) for `domain`, after validating it.

    x0 is the centre node (t = 0, weight pi/2); points(level) yields the
    (x, weight) pairs new at `level`, in the order the sums take them.  A
    level's estimate is its raw sum * h * scale.
    """
    a, b = float(domain[0]), float(domain[1])
    if math.isinf(a) or math.isnan(a) or math.isnan(b):
        raise DomainError(f"unsupported domain ({a!r}, {b!r})")
    if not a < b:
        raise DomainError(f"domain requires a < b, got ({a!r}, {b!r})")

    if math.isinf(b):
        def half_line(level):
            table = _level_nodes(_EXP_SINH_CACHE, level, _U_CAP_ES,
                                 _exp_sinh_node)
            if a == 0.0:
                return table
            return ((a + offset, w) for offset, w in table)

        return a + 1.0, 1.0, "exp-sinh", half_line

    half = 0.5 * (b - a)

    def finite(level):
        for sm, w in _level_nodes(_TANH_SINH_CACHE, level, _U_CAP_TS,
                                  _tanh_sinh_node):
            d = half * sm  # distance to either endpoint
            if d == 0.0:
                continue
            yield a + d, w
            yield b - d, w

    return a + half, half, "tanh-sinh", finite


def integrate(f: Callable[[float], complex], domain: tuple[float, float],
              q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """Integrate f over `domain` = (a, b), where b may be math.inf.

    Returns an EvalResult whose err_estimate is the last refinement increment.
    Raises DomainError for an empty/reversed interval, NonFiniteIntegrand if f
    produces nan/inf at a node, and NonConvergence if max_levels refinements
    do not reach tolerance.
    """
    def start(x0):
        return [_check(f(x0), x0) * _CENTER_WEIGHT]

    def add(points, raws, active):
        raw = raws[0]
        evaluations = 0
        for x, w in points:
            fx = f(x)
            evaluations += 1
            if fx != 0:
                raw += _check(fx, x) * w
        raws[0] = raw
        return evaluations

    return _de_levels(start, add, 1, _transform(domain), q)[0]


def integrate_powers(base: Callable[[float], complex], exponents,
                     q: QuadratureSpec = DEFAULT_QUAD) -> list[EvalResult]:
    """[integral of base(x) x^w over (0, inf) for w in exponents], in one pass.

    Every component sees the same nodes, so base and log x are evaluated
    once a node and each component adds base(x) * exp(w log x) -- the float
    operations of `power_real_base`, in its order -- to its own sum.  A
    component is accepted at its own level by `integrate`'s rule and leaves
    the later levels, so each result equals, bit for bit in value,
    err_estimate and evaluations, what `integrate` returns for
    x -> base(x) * power_real_base(x, w).  A base that is 0 at a node skips
    the node for every component, as those integrands' early returns do.

    Raises as `integrate` does; when components fail to converge,
    NonConvergence carries the best value and last increment of the first
    of them.
    """
    # (component, w, w is complex): power_real_base's two branches
    powers = []
    for k, w in enumerate(exponents):
        if isinstance(w, complex) and w.imag != 0.0:
            powers.append((k, w, True))
        else:
            powers.append((k, w.real if isinstance(w, complex) else float(w),
                           False))

    def start(x0):
        b = base(x0)
        if b == 0:
            return [_check(b, x0) * _CENTER_WEIGHT for _ in powers]
        lx = math.log(x0)
        return [_check(b * (cmath.exp(w * lx) if cx else math.exp(w * lx) + 0.0j),
                       x0) * _CENTER_WEIGHT for _, w, cx in powers]

    def add(points, raws, active):
        live = [powers[k] for k in active]
        evaluations = 0
        for x, weight in points:
            b = base(x)
            evaluations += 1
            if b == 0:
                continue
            lx = math.log(x)
            for k, w, cx in live:
                fx = b * (cmath.exp(w * lx) if cx else math.exp(w * lx) + 0.0j)
                if fx != 0:
                    raws[k] += _check(fx, x) * weight
        return evaluations

    return _de_levels(start, add, len(powers), _transform((0.0, math.inf)), q)


def _de_levels(start, add, n: int, transform, q: QuadratureSpec) -> list[EvalResult]:
    """The level loop every integral runs through, for n components at once.

    start(x0) returns the n raw sums of the centre node; add(points, raws,
    active) adds the nodes of one level to raws[k] for each k in active and
    returns the number of evaluations spent.  Component k is accepted when
    its increment meets the tolerance (from level 2 on) and is then left
    out of later levels.
    """
    x0, scale, name, points = transform
    raws = start(x0)
    evaluations = 1
    results: list = [None] * n
    prev: list = [None] * n
    errs = [0.0] * n
    active = list(range(n))
    for level in range(q.max_levels + 1):
        evaluations += add(points(level), raws, active)
        h = 0.5 ** level * scale
        still = []
        for k in active:
            result = raws[k] * h
            if prev[k] is not None:
                err = errs[k] = abs(result - prev[k])
                # comparing successive levels only from level 2 on guards
                # against a coincidentally tiny first increment being
                # mistaken for convergence
                if level >= 2 and err <= q.tolerance_for(result):
                    results[k] = make_result(result, err, evaluations, q)
                    continue
            prev[k] = result
            still.append(k)
        active = still
        if not active:
            return results
    k = active[0]
    raise NonConvergence(
        f"{name} failed to reach tolerance after {q.max_levels} levels "
        f"(last increment {errs[k]:.3e})", best=prev[k], err_estimate=errs[k])
