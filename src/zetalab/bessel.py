"""Modified Bessel function of the second kind: one dispatch, three routes.

`_cosh_route` is the dispatch behind `bessel_k` and `bessel_k_complex_arg`:

* Ascending series, for complex order (Im nu != 0) at |z| <= _SERIES_Z = 2:

      K_nu(z) = (1/2) [Gamma(nu) (z/2)^-nu 0F1(;1-nu;z^2/4)
                       + Gamma(-nu) (z/2)^nu 0F1(;1+nu;z^2/4)]

  (DLMF 10.27.4 with 10.25.2; Temme, J. Comput. Phys. 19 (1975)).  About
  10-30 terms give ~1e-14 relative where the trapezoids below need
  400-1,100 evaluations, and it serves complex z as well as real z.  Its
  err_estimate carries the cancellation between the two parts; when it
  misses rel_tol (near a zero of K, say) the call falls through to the
  trapezoid the next two items name.

* Cosh-route trapezoid, for real order and for complex order at
  |z| > _SERIES_Z with complex z:

      K_nu(z) = integral_0^inf exp(-z cosh t) cosh(nu t) dt,   Re z > 0,

  summed by a halving trapezoid rule.  The integrand is even and decays
  like exp(-(z/2) e^t), so the untransformed trapezoid already converges
  geometrically; no endpoint treatment is needed.  Real order and real z
  accept on relative error (~1e-16 in ~40 evaluations); complex z accepts
  on the spec's tolerance_for, whose absolute floor can pass a value far
  below it with few correct digits when Im nu is large.

* Shifted contour, for complex order at real z > _SERIES_Z.  Orders with
  Im nu != 0 make the cosh integrand oscillate, and for |Im nu| large
  against z the value is exponentially smaller than the integrand's
  envelope.  The integral is taken in its two-sided form
  (1/2) integral over R of exp(-z cosh u + nu u) du on the contour
  Im u = theta, with theta picked so the path passes near the saddle
  sinh u = i Im(nu)/z.  The exp(-Im(nu) theta) smallness comes out of the
  integral as an honest prefactor instead of being assembled from
  cancelling oscillations, so the trapezoid keeps relative accuracy.

Both trapezoids read their nodes from rows kept once per process
(`_K_ROWS`): level L holds (x, cosh x, sinh x) at x = k 2^-(L+1), extended
only as far as a sum has read and never past k h = 80 (the tail stop
usually ends near x = 5-10).  The shifted contour takes x and -x from one
row, as cosh is even and sinh odd bit for bit, and forms its exponent in
the level sum with the call's constants hoisted.  The float operations and
their order are those of one integrand call a node, so every value,
estimate and evaluation count is what that walk gives.

Cross-check route: the two-sided Laplace integral `laplace_pair_integral`,
whose saddle is scaled to x = 1 (the heat side's time integrals too).  Tests
hold the routes against each other; none is derived from another.

The symmetry K_nu = K_{-nu} holds on every route (cosh is even in nu, and
the series is symmetric in its two parts).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import replace

from .errors import DomainError, NonConvergence
from .gammafn import gamma_complex
from .quadrature import integrate
from .types import (DEFAULT_QUAD, EvalResult, QuadratureSpec, make_result,
                    sum_pieces)

_TAIL_STOP = 1e-19
# Complex orders at |z| <= _SERIES_Z try the ascending series first: there
# z^2/4 <= 1, so its terms fall like 1/(k!)^2 and ~20 of them serve.
_SERIES_Z = 2.0
_EPS = sys.float_info.epsilon

# level -> the rows (x, cosh x, sinh x) of the trapezoid nodes x = k h,
# h = 2^-(level + 1): every k >= 1 at level 0, the odd k after.  Every K
# call of the process reads the same rows; a level holds them only as far
# as a sum has read (`_tail_sum`), and never past k h = _REACH.
_K_ROWS: dict[int, list] = {}
_REACH = 80.0
# the row of the centre x = 0, which every trapezoid takes once
_CENTRE = ((0.0, 1.0, 0.0),)


def _grow(level: int, rows: list) -> int:
    """Append the next row of `level` to its rows unless it passes k h =
    _REACH; the number of rows."""
    k = len(rows) + 1 if level == 0 else 2 * len(rows) + 1
    x = k * 0.5 ** (level + 1)
    if x <= _REACH:
        rows.append((x, math.cosh(x), math.sinh(x)))
    return len(rows)


def _level_rows(level: int) -> list:
    rows = _K_ROWS.get(level)
    if rows is None:
        rows = _K_ROWS[level] = []
        _grow(level, rows)
    return rows


def _tail_sum(level: int, rows: list, terms) -> tuple[complex, int]:
    """The sum of `terms`, one for each of the rows of `level` in order,
    with its term count.

    Stops after three terms in a row below _TAIL_STOP relative to the sum,
    or past the last row (k h = 80).  `terms` walks the list `rows` itself,
    so the row appended here when it reaches the end is the next it reads.
    """
    total = 0j
    count = 0
    small_run = 0
    n = len(rows)
    for term in terms:
        count += 1
        total += term
        if abs(term) <= _TAIL_STOP * (abs(total) + 1e-300):
            small_run += 1
            if small_run >= 3:
                break
        else:
            small_run = 0
        if count == n:
            n = _grow(level, rows)
    return total, count


def _halving_trapezoid(f0: complex, sides, relative: bool, q: QuadratureSpec,
                       route: str) -> EvalResult:
    """(1/2) integral over R of f by the trapezoid rule, halving h from 0.5.

    f0 is f(0).  Each side is a function of a level's rows that yields f at
    x (the first side) or at -x (the second) for each row (x, cosh x,
    sinh x); one side means f is even, and that side is counted twice.  Each
    halving adds the odd multiples of the new h and is accepted on
    err <= rel_tol |value| when `relative`, else on the spec's
    tolerance_for; err is the change from the previous h.
    """
    evaluations = 1
    acc = 0j
    prev = None
    for level in range(q.max_levels + 1):
        h = 0.5 ** (level + 1)
        rows = _level_rows(level)
        plus, spent = _tail_sum(level, rows, sides[0](rows))
        if len(sides) == 1:
            part = plus + plus
        else:
            minus, more = _tail_sum(level, rows, sides[1](rows))
            part, spent = plus + minus, spent + more
        acc += part
        evaluations += spent
        result = 0.5 * h * (f0 + acc)
        if prev is not None:
            err = abs(result - prev)
            if err <= (q.rel_tol * abs(result) if relative
                       else q.tolerance_for(result)):
                return make_result(result, err, evaluations, q)
        prev = result
    raise NonConvergence(f"bessel_k {route} trapezoid did not converge",
                         best=result, err_estimate=err)


def _contour_terms(rows, zc: float, zs: float, nr: float, b: float,
                   bt: float, nt: float):
    """exp(w) at each row, w = zc cosh x + nr x - bt + i (zs sinh x + b x + nt),
    and 0 where Re w < -745.  With zs, nr and b negated these are the values
    at -x: cosh is even and sinh odd, bit for bit."""
    for x, c, sh in rows:
        re = zc * c + nr * x - bt
        yield 0j if re < -745.0 else cmath.exp(complex(re, zs * sh + b * x + nt))


def _shifted_route(nu: complex, z: float, q: QuadratureSpec) -> EvalResult:
    """Two-sided trapezoid on the contour Im u = theta; needs Im nu > 0."""
    b = nu.imag
    # Through the saddle when it is reachable (b <= z); otherwise stop a
    # margin short of pi/2 where the envelope stops decaying. The margin
    # shrinks with b to keep the residual conditioning ~exp(3) at worst.
    delta = max(math.acos(min(b / z, 1.0)), min(0.3, 3.0 / b))
    theta = 0.5 * math.pi - delta
    # the integrand exp(-z cosh(x + i theta) + nu (x + i theta)) at x is
    # exp(w) with w the exponent `_contour_terms` forms from these
    zc = -z * math.cos(theta)
    zs = -z * math.sin(theta)
    nr = nu.real
    bt = b * theta
    nt = nr * theta
    f0 = next(_contour_terms(_CENTRE, zc, zs, nr, b, bt, nt))
    # relative-only acceptance: these values can sit far below abs_tol
    # and still need every digit when a series divides by their scale
    return _halving_trapezoid(
        f0, (lambda rows: _contour_terms(rows, zc, zs, nr, b, bt, nt),
             lambda rows: _contour_terms(rows, zc, -zs, -nr, -b, bt, nt)),
        True, q, "contour")


def _series_route(nu: complex, z: complex,
                  q: QuadratureSpec) -> EvalResult | None:
    """K_nu(z) by the ascending series, or None when its estimate misses rel_tol.

    K_nu = (1/2) [Gamma(nu) (z/2)^-nu 0F1(;1-nu;z^2/4)
                  + Gamma(-nu) (z/2)^nu 0F1(;1+nu;z^2/4)]
    (DLMF 10.27.4 with 10.25.2), each 0F1 term the previous one times
    (z^2/4) / (k (a+k-1)).  A part's relative error is Gamma's, which grows
    with |nu| through the phase of its exponential, plus the power's
    eps |nu log(z/2)|, plus the rounding of the 0F1 sum.  For Gamma's the
    estimate takes 2 eps (4 + |nu| (1 + log(1 + |nu|))), at least 1.3 times
    the error measured at 800 orders with Re nu in [-3, 3] and
    0.05 <= |Im nu| <= 40.  err_estimate is each part's magnitude times
    its relative error, so cancellation between the parts shows up in it.
    A part beyond the double range returns None too.  `evaluations` counts
    both sums' terms.
    """
    w = 0.25 * z * z
    log_half = cmath.log(0.5 * z)
    value = 0j
    err = 0.0
    terms = 0
    for order in (nu, -nu):
        a = 1.0 - order
        term = total = 1.0 + 0j
        size = 1.0
        k = 0
        # past k = |Re nu| + 1 the ratio of terms only shrinks
        while k <= abs(order.real) + 1.0 or abs(term) > q.series_tail_tol * abs(total):
            k += 1
            term *= w / (k * (a + (k - 1)))
            total += term
            size += abs(term)
        terms += k + 1
        expo = -order * log_half
        try:
            power = cmath.exp(expo)
            gamma = gamma_complex(order)
        except OverflowError:       # a part past the double range
            return None
        rel = _EPS * (2.0 * (4.0 + abs(order) * (1.0 + math.log1p(abs(order))))
                      + 2.0 * (1.0 + abs(expo)))
        # an underflowed Gamma is known only to the spacing of denormals
        err += abs(power) * (abs(gamma) * (rel * abs(total) + _EPS * k * size
                                           + abs(term))
                             + math.ulp(0.0) * abs(total))
        value += gamma * power * total
    value *= 0.5
    err *= 0.5
    if not err <= q.rel_tol * abs(value):
        return None
    return make_result(value, err, terms, q)


def _cosh_route(nu: complex, z: complex, q: QuadratureSpec) -> EvalResult:
    """The one Bessel dispatch: ascending series for complex order at
    |z| <= _SERIES_Z when it meets rel_tol, else the shifted contour (real
    z, complex order) or the cosh-route trapezoid."""
    nu = complex(nu)
    z = complex(z)
    if nu.imag != 0.0 and abs(z) <= _SERIES_Z:
        series = _series_route(nu, z, q)
        if series is not None:
            return series
    if z.imag == 0.0 and nu.imag != 0.0:
        if nu.imag < 0.0:
            inner = _shifted_route(nu.conjugate(), z.real, q)
            return replace(inner, value=inner.value.conjugate())
        return _shifted_route(nu, z.real, q)
    real_case = nu.imag == 0.0 and z.imag == 0.0

    def terms(rows):
        nr = nu.real
        for t, c, _ in rows:
            zc = z * c
            if real_case:
                ez = math.exp(-zc.real) if zc.real < 745.0 else 0.0
                yield ez * math.cosh(nr * t) if ez != 0.0 else 0.0
            elif zc.real > 745.0:
                yield 0.0
            else:
                nt = nu * t
                yield 0.5 * (cmath.exp(-zc + nt) + cmath.exp(-zc - nt))

    # real order and argument: a positive integrand, so relative-only
    # acceptance (as on the shifted contour) is reachable and keeps
    # K_nu(z) ~ e^{-z} honest far below abs_tol
    return _halving_trapezoid(next(terms(_CENTRE)), (terms,), real_case, q,
                              "cosh-route")


def bessel_k(nu: complex, z: float, q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """K_nu(z) for real z > 0 (complex order allowed).

    Raises DomainError for z <= 0; the z-plane beyond the positive axis is
    deliberately not part of the public surface.
    """
    if isinstance(z, complex):
        if z.imag != 0.0:
            raise DomainError("bessel_k takes real z > 0")
        z = z.real
    if not z > 0.0:
        raise DomainError(f"bessel_k needs z > 0, got {z!r}")
    return _cosh_route(nu, z, q)


def bessel_k_complex_arg(nu: complex, z: complex,
                         q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """Internal-use K_nu(z) for complex z with Re z > 0.

    The Bessel series for complex cutoff parameters needs this; it is not
    part of the advertised contract (which stops at z > 0) but shares the
    dispatch of `bessel_k`.  Complex order at |z| <= _SERIES_Z takes the
    ascending series, relative to ~1e-14; above that, and for a series
    estimate that misses rel_tol, complex z takes the cosh-route trapezoid,
    which accepts on tolerance_for's absolute floor.
    """
    z = complex(z)
    if not z.real > 0.0:
        raise DomainError(f"cosh-route needs Re z > 0, got {z!r}")
    return _cosh_route(nu, z, q)


def laplace_pair_integral(nu: complex, beta: float, gamma: complex,
                          q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """integral_0^inf x^{nu-1} e^{-beta/x - gamma x} dx = 2 (beta/gamma)^{nu/2}
    K_nu(2c), c = sqrt(beta gamma), for beta >= 0 (Re nu > 0 at 0), Re gamma > 0.

    x = kappa u, kappa = sqrt(beta/gamma) (1/gamma at beta = 0), leaves kappa^nu
    e^{-2c} times the integral of u^{nu-1} e^{-c(u-1)^2/u} (e^{-u} at beta = 0),
    whose modulus peaks at 1 at u = 1 (DLMF 10.32.10), so the abs_tol floor
    sits at the integrand's own scale.  Complex gamma turns the path to
    arg x = arg kappa, inside |arg x| < pi/4 where the integrand decays at
    both ends.  The estimate adds the factor's rounding, eps (2 + |nu log
    kappa| + 2|c|) |pass|; a factor that underflows to 0 skips the pass.
    """
    gamma, nu = complex(gamma), complex(nu)
    if not (beta >= 0.0 and gamma.real > 0.0 and (beta * gamma or nu.real > 0.0)):
        raise DomainError(f"laplace_pair_integral needs beta >= 0, Re gamma > 0 and "
                          f"Re nu > 0 at beta = 0, got ({nu!r}, {beta!r}, {gamma!r})")
    c = cmath.sqrt(beta * gamma)
    kappa = cmath.sqrt(beta / gamma) if c else 1.0 / gamma
    lift = nu * cmath.log(kappa)
    factor = cmath.exp(lift - 2.0 * c)
    if not factor:
        return sum_pieces([EvalResult(0j, 0.0, 0, True)], factor)
    power = nu - 1.0

    def f(u: float) -> complex:
        # (u - 1)^2 / u is u + 1/u - 2 without its cancellation at the saddle
        w = c * ((u - 1.0) * (u - 1.0) / u) if c else u
        if w.real > 745.0:
            return 0.0
        return cmath.exp(power * math.log(u) - w)

    inner = integrate(f, (0.0, math.inf), q)
    rounding = _EPS * (2.0 + abs(lift) + 2.0 * abs(c)) * abs(inner.value)
    inner = replace(inner, err_estimate=inner.err_estimate + rounding)
    return sum_pieces([inner], factor)


def bessel_k_from_laplace(nu: complex, z: float,
                          q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """K_nu(z) recovered from the two-sided Laplace integral at beta=gamma=z/2."""
    half = 0.5 * z  # the pair rejects z <= 0 as Re gamma <= 0
    return sum_pieces([laplace_pair_integral(nu, half, half, q)], 0.5)
