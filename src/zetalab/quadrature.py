"""Double-exponential (tanh-sinh / exp-sinh) adaptive quadrature.

One engine and one node table serve every integral in the package.  The
table is exp-sinh's, cached per level: y = e^u, u = (pi/2)sinh(t), with
weight w = (pi/2)cosh(t) y, and its mirror 1/y; the centre t = 0 is level 0's
first row, (1, pi/2), held once.  Its rows, with log y, are those of the
half-line (0, inf) (`_half_level`).  A half-line (a, inf) reads
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
int_a^inf base(x) x^{w_k} dx (a = 0 or 1) that share a base -- completed
values at s and 1 - s or at the sigma values of a grid row, the two powers
of Riemann's xi integral -- in one exp-sinh pass, taking base once a node.
Each component is accepted at its own level by the same rule, so its
result is bit-identical to a pass of its own.  Every weight is
finite and positive, so a nan or inf at any node leaves its level's sum
non-finite: finiteness is tested once a level, on each active sum.

The half-lines callers integrate over start at 0 (every completed value)
or 1 (Riemann's xi integral), so their nodes x = a + y are the same on
every pass.  Their rows (x, w, log x) are built once a level
(`_half_level`).  `integrate_powers` walks either one with a by-row base:
base(level) returns at(i, x), handed each node's row index.  `column_rows`
is that base for node(x) factor(x): it keeps node(x) in a column beside
the rows, so the caller that keeps the columns computes it once a node per
process -- psi (`theta.psi_rows`), and psi - G at x = r e^{i theta} on the
exp-symmetric ray (`regularized._ray_rows`).

A caller that can show its integrand is exactly 0 outside a closed interval
[lo, hi] of x passes it as `support`: the nodes outside it are neither
evaluated nor counted, and the rest keep their order.  Adding 0 to a sum
changes no bit of it (up to the sign of a zero sum), so value and estimate
are those of the full walk; only `evaluations` falls.  The exponential
cutoffs vanish outside a window in log x and psi past x = 237 (`cutoffs`,
`theta`): most of the table's far tails.  x is monotone along each
direction of a level (y up, 1/y down), so a support is cut by bisection
(`_kept`), not by a walk of the level.
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Callable

from .errors import DomainError, NonConvergence, NonFiniteIntegrand
from .types import DEFAULT_QUAD, EvalResult, QuadratureSpec, make_result

# The (y, w) rows new at a level: (y, (pi/2)cosh(t) y), then
# (1/y, (pi/2)cosh(t)/y), y = e^u, for u = (pi/2)sinh(t) up to _U_CAP, which
# keeps e^u inside double range; level 0 leads with the centre (1, pi/2).
_U_CAP = 690.0


def _level_nodes(level: int) -> list[tuple[float, float]]:
    """Rows for the t <= 7 new at `level`: odd multiples of h (level 0: 0, 1, ...).

    Built afresh; walks read them as the cached rows of (0, inf)."""
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
    return nodes


# (start, level) -> `_half_level` of the half-line (start, inf), for the
# starts callers use: 0 (completed values, and the node table itself) and 1
# (Riemann's xi integral).  Only grows.
_ROW_STARTS = (0.0, 1.0)
_HALF_ROWS: dict[tuple[float, int], tuple[list, list, list]] = {}


def _half_level(a: float, level: int) -> tuple[list, list, list]:
    """(rows, ups, downs) of `level` on the half-line (a, inf).

    rows[i] = (x, w, log x), x = a + y, in `_level_nodes` order; ups holds
    the x of the rows with y > 1 and downs those with y < 1, both ascending
    (downs reverses their row order).  Cached for a in _ROW_STARTS; any
    other start is built afresh, with log x None.
    """
    try:
        return _HALF_ROWS[a, level]
    except KeyError:
        pass
    cached = a in _ROW_STARTS
    if a == 0.0:
        rows = [(y, w, math.log(y)) for y, w in _level_nodes(level)]
    else:
        rows = [(a + y, w, math.log(a + y) if cached else None)
                for y, w, _ in _half_level(0.0, level)[0]]
    first = 1 if level == 0 else 0  # level 0 leads with the centre y = 1
    ups = [row[0] for row in rows[first::2]]
    downs = [row[0] for row in rows[first + 1::2]]
    downs.reverse()
    if cached:
        _HALF_ROWS[a, level] = rows, ups, downs
    return rows, ups, downs


def column_rows(levels: dict, start: float, node, factor=None):
    """The by-row base (`integrate_powers`) of node(x) factor(x) on
    (start, inf), or of node(x) without a factor.

    node(x) is kept in levels[level][i], beside row i of
    `_half_level(start, level)`: computed on its first read, and only where
    factor(x) != 0, so a caller that keeps `levels` computes it once a node.
    """
    def level_base(level: int):
        column = levels.get(level)
        if column is None:
            column = levels[level] = [None] * len(_half_level(start, level)[0])

        def at(i: int, x: float):
            hv = 1.0 if factor is None else factor(x)  # p * 1.0 is p
            if hv == 0:
                return hv
            p = column[i]
            if p is None:
                p = column[i] = node(x)
            return p * hv

        return at

    return level_base


def _kept(level: int, rows: list, ups: list, downs: list,
          lo: float, hi: float) -> list[int]:
    """The indices of `_half_level` rows with lo <= x <= hi, ascending.

    Past level 0's centre the rows alternate up (y > 1) and down (1/y),
    and x is monotone along each direction, so each keeps one run of pairs,
    found by bisection instead of a walk of the level.
    """
    if not lo <= hi:
        return []
    first = 1 if level == 0 else 0
    n = len(ups)
    up = range(first + 2 * bisect_left(ups, lo),
               first + 2 * bisect_right(ups, hi), 2)
    down = range(first + 2 * (n - bisect_right(downs, hi)) + 1,
                 first + 2 * (n - bisect_left(downs, lo)), 2)
    kept = sorted(chain(up, down))  # two ascending runs: one merge
    if first and lo <= rows[0][0] <= hi:
        kept.insert(0, 0)
    return kept


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

# The reported error is at least _ROUNDING |value|, the rounding that an
# increment of 0 hides: twice the worst |error| / (eps |value|), 4.54, at the
# positive integrands of tests/fixtures/completed_exp_real_axis.json.
_ROUNDING = 10.0 * sys.float_info.epsilon


def _transform(domain: tuple[float, float], support=None):
    """(scale, name, points) for `domain`, after validating it.

    points(level) returns (rows, kept): rows[i] = (x, weight, log x) for the
    nodes new at `level` (log x only on the cached half-line rows, else
    None), and kept the indices i with lo <= x <= hi for support =
    (lo, hi), in the order the sums take them.  A level's estimate is its
    raw sum * h * scale.
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
            rows, ups, downs = _half_level(a, level)
            return rows, (range(len(rows)) if whole
                          else _kept(level, rows, ups, downs, lo, hi))

        return 1.0, "exp-sinh", half_line

    width = b - a

    def finite(level):
        rows = []
        for y, w, _ in _half_level(0.0, level)[0]:
            r = 1.0 + y
            d = width * min(y, 1.0) / r  # distance to the nearer end
            if d:  # else it underflowed, and the node would sit on the end
                x = a + d if y <= 1.0 else b - d
                if whole or lo <= x <= hi:
                    # 4w/(1 + y)^2, whose denominator could overflow
                    rows.append((x, 4.0 * (w / r) / r, None))
        return rows, range(len(rows))

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
    scale, name, points = _transform(domain, support)

    def add(level, raws, active):
        rows, kept = points(level)
        raw = raws[0]
        for i in kept:
            x, w, _ = rows[i]
            raw += f(x) * w
        raws[0] = raw
        return len(kept)

    return _de_levels(add, 1, scale, name, q)[0]


def integrate_powers(base: Callable, exponents,
                     q: QuadratureSpec = DEFAULT_QUAD, support=None,
                     start: float = 0.0) -> list[EvalResult]:
    """[integral of base(x) x^w over (start, inf) for w in exponents], in one
    pass, start 0 or 1: the two half-lines whose rows are cached.

    base is by row: base(level), called once a level, returns at(i, x),
    base at row i of `_half_level(start, level)`, whose node is x, so a
    caller can keep columns beside the rows (`column_rows`).
    Every component sees the same nodes, so base is evaluated once a node,
    log x is read from the node's row, and each component adds
    base(x) * exp(w log x) -- the float operations of `power_real_base`, in
    its order -- to its own sum.  A component is accepted at its own level
    by `integrate`'s rule and leaves the later levels, so each result
    equals, bit for bit in value, err_estimate and evaluations, what
    `integrate` returns for x -> base(x) * power_real_base(x, w).  A base
    that is 0 at a node skips the node for every component, as those
    integrands' early returns do, and support = (lo, hi), the interval
    outside which base is exactly 0, keeps the nodes outside it from being
    evaluated or counted at all.

    Raises DomainError for any other start, and otherwise as `integrate`
    does; when components fail to converge, NonConvergence carries the best
    value and last increment of the first of them.
    """
    if start not in _ROW_STARTS:
        raise DomainError(f"integrate_powers walks (0, inf) or (1, inf), "
                          f"got ({start!r}, inf)")
    # (component, w, w is complex): power_real_base's two branches
    powers = []
    for k, w in enumerate(exponents):
        if isinstance(w, complex) and w.imag != 0.0:
            powers.append((k, w, True))
        else:
            powers.append((k, w.real if isinstance(w, complex) else float(w),
                           False))
    scale, name, points = _transform((start, math.inf), support)

    def add(level, raws, active):
        rows, kept = points(level)
        live = [powers[k] for k in active]
        at = base(level)
        for i in kept:
            x, weight, lx = rows[i]
            b = at(i, x)
            if b == 0:
                continue
            for k, w, cx in live:
                raws[k] += b * (cmath.exp(w * lx) if cx
                                else math.exp(w * lx) + 0.0j) * weight
        return len(kept)

    return _de_levels(add, len(powers), scale, name, q)


def _de_levels(add, n: int, scale: float, name: str,
               q: QuadratureSpec) -> list[EvalResult]:
    """The level loop every integral runs through, for n components at once.

    The n raw sums start at 0j; add(level, raws, active) adds the nodes of
    `level` to raws[k] for each k in active and returns the number of
    evaluations spent.  A non-finite active sum raises NonFiniteIntegrand at
    the end of its level.  Component k is accepted when its increment meets
    the tolerance (from level 2 on) and is then left out of later levels,
    reporting max(increment, _ROUNDING * |value|) as its error.
    """
    raws = [0j] * n
    evaluations = 0
    results: list = [None] * n
    prev: list = [None] * n
    errs = [0.0] * n
    active = list(range(n))
    for level in range(q.max_levels + 1):
        evaluations += add(level, raws, active)
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
