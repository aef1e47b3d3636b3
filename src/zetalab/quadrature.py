"""Double-exponential (tanh-sinh / exp-sinh) adaptive quadrature.

One engine and one node table serve every integral in the package.  The
table is exp-sinh's, cached per level: y = e^u, u = (pi/2)sinh(t), with
weight w = (pi/2)cosh(t) y, and its mirror 1/y; the centre t = 0 is level 0's
first row, (1, pi/2), held once.  A half-line (a, inf) reads
it as x = a + y; a finite (a, b) as x = a + (b - a) y/(1 + y), weight
4w/(1 + y)^2 on the scale (b - a)/4.  As y/(1 + y) = (1 + tanh(u/2))/2,
that is a tanh-sinh rule in (pi/4)sinh(t) (Takahasi & Mori, Publ. RIMS 9,
1974).  Both push the endpoint behavior into double-exponentially decaying
tails: analytic integrands double their digits about every level, and
endpoint singularities x^p (p > -1) cost nothing extra.

A finite node is placed as a distance from its nearer end, never as a
difference of nearly equal numbers, so integrands like t^{s/2-1} stay
honest ~1e-300 from the end.  The table stops at u = 690, inside double
range, so x^p needs its tail e^{-(1+p)u} to die by then: p above about
-0.95 (x^{-0.96} on (0, 1) lands within 3e-13; x^{-0.97} does not
converge).  Everything this package integrates has p >= -1/2.

One level loop (`_de_levels`) carries any number of integrals over the same
nodes.  `integrate` runs one; `integrate_powers` runs the K Mellin integrals
int_0^inf base(x) x^{w_k} dx that share a base -- completed values at s and
1 - s, or at the sigma values of a grid row -- in one exp-sinh pass, taking
base and log x once a node.  Each component is accepted at its own level by
the same rule, so its result is bit-identical to a pass of its own.  Every
weight is finite and positive, so a nan or inf at any node leaves its level's
sum non-finite: finiteness is tested once a level, on each active sum.

A caller that can show its integrand is exactly 0 outside a closed interval
[lo, hi] of x passes it as `support`: the nodes outside it are neither
evaluated nor counted, and the rest keep their order.  Adding 0 to a sum
changes no bit of it (up to the sign of a zero sum), so value and estimate
are those of the full walk; only `evaluations` falls.  The exponential
cutoffs vanish outside a window in log x and psi past x = 237 (`cutoffs`,
`theta`): most of the table's far tails.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Callable

from .errors import DomainError, NonConvergence, NonFiniteIntegrand
from .types import DEFAULT_QUAD, EvalResult, QuadratureSpec, make_result

# level -> the (y, w) rows new at that level: (y, (pi/2)cosh(t) y), then
# (1/y, (pi/2)cosh(t)/y), y = e^u, for u = (pi/2)sinh(t) up to _U_CAP, which
# keeps e^u inside double range; level 0 leads with the centre (1, pi/2).
_U_CAP = 690.0
_EXP_SINH_CACHE: dict[int, list[tuple[float, float]]] = {}


def _level_nodes(level: int) -> list[tuple[float, float]]:
    """Rows for the t <= 7 new at `level`: odd multiples of h (level 0: 0, 1, ...)."""
    try:
        return _EXP_SINH_CACHE[level]
    except KeyError:
        pass
    h = 0.5 ** level
    nodes = [(1.0, 0.5 * math.pi)] if level == 0 else []
    for k in range(1, int(7.0 / h) + 1, 1 if level == 0 else 2):
        t = k * h
        u = 0.5 * math.pi * math.sinh(t)
        if u > _U_CAP:
            break
        y = math.exp(u)
        c = 0.5 * math.pi * math.cosh(t)
        nodes.append((y, c * y))
        nodes.append((1.0 / y, c / y))
    _EXP_SINH_CACHE[level] = nodes
    return nodes


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

# The reported error is at least _ROUNDING |value|, the rounding that an
# increment of 0 hides: twice the worst |error| / (eps |value|), 4.54, at the
# positive integrands of tests/fixtures/completed_exp_real_axis.json.
_ROUNDING = 10.0 * sys.float_info.epsilon


def _transform(domain: tuple[float, float], support=None):
    """(scale, name, points) for `domain`, after validating it.

    points(level) yields the (x, weight) pairs new at `level` with
    lo <= x <= hi for support = (lo, hi), in the order the sums take them.
    A level's estimate is its raw sum * h * scale.
    """
    a, b = float(domain[0]), float(domain[1])
    if math.isinf(a) or math.isnan(a) or math.isnan(b):
        raise DomainError(f"unsupported domain ({a!r}, {b!r})")
    if not a < b:
        raise DomainError(f"domain requires a < b, got ({a!r}, {b!r})")
    lo, hi = (a, b) if support is None else support
    whole = lo <= a and hi >= b

    if math.isinf(b):
        def half_line(level):
            table = _level_nodes(level)
            if a != 0.0:
                table = [(a + y, w) for y, w in table]
            return table if whole else [(x, w) for x, w in table
                                        if lo <= x <= hi]

        return 1.0, "exp-sinh", half_line

    width = b - a

    def finite(level):
        for y, w in _level_nodes(level):
            r = 1.0 + y
            d = width * min(y, 1.0) / r  # distance to the nearer end
            if d:  # else it underflowed, and the node would sit on the end
                x = a + d if y <= 1.0 else b - d
                if whole or lo <= x <= hi:
                    # 4w/(1 + y)^2, whose denominator could overflow
                    yield x, 4.0 * (w / r) / r

    return 0.25 * width, "tanh-sinh", finite


def integrate(f: Callable[[float], complex], domain: tuple[float, float],
              q: QuadratureSpec = DEFAULT_QUAD, support=None) -> EvalResult:
    """Integrate f over `domain` = (a, b), where b may be math.inf.

    Both kinds of domain read the one exp-sinh table (module docstring): a
    finite one through x = a + (b - a) y/(1 + y), which takes an endpoint
    singularity x^p down to p of about -0.95, a half-line as x = a + y.
    Returns an EvalResult whose err_estimate is the last refinement
    increment, or the rounding floor _ROUNDING * |value| when that is larger.
    The sum starts at 0j, so the value is complex even when f is real.
    support = (lo, hi) promises f(x) == 0 exactly for x outside [lo, hi];
    those nodes are skipped (module docstring), which moves only
    `evaluations`.
    Raises DomainError for an empty/reversed interval, NonFiniteIntegrand at
    the end of a level in which f produced nan/inf at a node, and
    NonConvergence if max_levels refinements do not reach tolerance.
    """
    def add(points, raws, active):
        raw = raws[0]
        evaluations = 0
        for x, w in points:
            raw += f(x) * w
            evaluations += 1
        raws[0] = raw
        return evaluations

    return _de_levels(add, 1, _transform(domain, support), q)[0]


def integrate_powers(base: Callable[[float], complex], exponents,
                     q: QuadratureSpec = DEFAULT_QUAD,
                     support=None) -> list[EvalResult]:
    """[integral of base(x) x^w over (0, inf) for w in exponents], in one pass.

    Every component sees the same nodes, so base and log x are evaluated
    once a node and each component adds base(x) * exp(w log x) -- the float
    operations of `power_real_base`, in its order -- to its own sum.  A
    component is accepted at its own level by `integrate`'s rule and leaves
    the later levels, so each result equals, bit for bit in value,
    err_estimate and evaluations, what `integrate` returns for
    x -> base(x) * power_real_base(x, w).  A base that is 0 at a node skips
    the node for every component, as those integrands' early returns do, and
    support = (lo, hi), the interval outside which base is exactly 0, keeps
    the nodes outside it from being evaluated or counted at all.

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
                raws[k] += b * (cmath.exp(w * lx) if cx
                                else math.exp(w * lx) + 0.0j) * weight
        return evaluations

    return _de_levels(add, len(powers), _transform((0.0, math.inf), support), q)


def _de_levels(add, n: int, transform, q: QuadratureSpec) -> list[EvalResult]:
    """The level loop every integral runs through, for n components at once.

    The n raw sums start at 0j; add(points, raws, active) adds the nodes of
    one level to raws[k] for each k in active and returns the number of
    evaluations spent.  A non-finite active sum raises NonFiniteIntegrand at
    the end of its level.  Component k is accepted when its increment meets
    the tolerance (from level 2 on) and is then left out of later levels,
    reporting max(increment, _ROUNDING * |value|) as its error.
    """
    scale, name, points = transform
    raws = [0j] * n
    evaluations = 0
    results: list = [None] * n
    prev: list = [None] * n
    errs = [0.0] * n
    active = list(range(n))
    for level in range(q.max_levels + 1):
        evaluations += add(points(level), raws, active)
        h = 0.5 ** level * scale
        still = []
        for k in active:
            if not cmath.isfinite(raws[k]):
                raise NonFiniteIntegrand(
                    f"integrand not finite at a {name} node of level {level}")
            result = raws[k] * h
            if prev[k] is not None:
                err = errs[k] = abs(result - prev[k])
                # comparing successive levels only from level 2 on guards
                # against a coincidentally tiny first increment being
                # mistaken for convergence
                if level >= 2 and err <= q.tolerance_for(result):
                    results[k] = make_result(
                        result, max(err, _ROUNDING * abs(result)), evaluations, q)
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
