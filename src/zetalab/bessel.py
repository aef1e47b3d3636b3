"""Modified Bessel function of the second kind, two independent routes.

Production route: the cosh-transform integral

    K_nu(z) = integral_0^inf exp(-z cosh t) cosh(nu t) dt,   Re z > 0,

summed by a halving trapezoid rule. The integrand is even and decays like
exp(-(z/2) e^t), so the untransformed trapezoid already converges
geometrically; no endpoint treatment is needed.

Orders with Im nu != 0 make that integrand oscillate, and for |Im nu|
large against z the value is exponentially smaller than the integrand's
envelope -- the real axis then loses the answer to cancellation long
before double precision runs out of digits. For those orders (real z
only) the same integral is taken in its two-sided form
(1/2) integral over R of exp(-z cosh u + nu u) du and the contour is
shifted to Im u = theta, with theta picked so the path passes near the
saddle sinh u = i Im(nu)/z. The exp(-Im(nu) theta) smallness comes out
of the integral as an honest prefactor instead of being assembled from
cancelling oscillations, so the trapezoid keeps relative accuracy; as
Im nu -> 0 the shifted contour degenerates back to the real axis.

Cross-check route: the two-sided Laplace integral

    integral_0^inf x^{nu-1} exp(-beta/x - gamma x) dx
        = 2 (beta/gamma)^{nu/2} K_nu(2 sqrt(beta gamma)),

evaluated with the generic exp-sinh engine. Tests hold the two routes against
each other; neither is derived from the other.

The symmetry K_nu = K_{-nu} is automatic (cosh is even in nu). The true
three-term recurrence is K_{nu-1}(z) - K_{nu+1}(z) = -(2 nu / z) K_nu(z);
`recurrence_residual` measures exactly that combination.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import replace

from .errors import DomainError, NonConvergence
from .gammafn import power_real_base
from .quadrature import integrate
from .types import DEFAULT_QUAD, EvalResult, QuadratureSpec, make_result

_TAIL_STOP = 1e-19


def _tail_sum(f, h: float, stride: int, sign: int) -> tuple[complex, int]:
    """sum of f(sign k h) for k = 1, 1 + stride, ..., with its term count.

    Stops after three terms in a row below _TAIL_STOP relative to the sum,
    or once k h passes 80.
    """
    total = 0j
    k = 1
    count = 0
    small_run = 0
    while True:
        term = f(sign * k * h)
        count += 1
        total += term
        if abs(term) <= _TAIL_STOP * (abs(total) + 1e-300):
            small_run += 1
            if small_run >= 3:
                break
        else:
            small_run = 0
        k += stride
        if k * h > 80.0:
            break
    return total, count


def _halving_trapezoid(f, even: bool, relative: bool, q: QuadratureSpec,
                       route: str) -> EvalResult:
    """(1/2) integral over R of f by the trapezoid rule, halving h from 0.5.

    An even f is summed on the positive side only and that side counted
    twice.  Each halving adds the odd multiples of the new h and is accepted
    on err <= rel_tol |value| when `relative`, else on the spec's
    tolerance_for; err is the change from the previous h.
    """
    def level_sum(h: float, stride: int) -> tuple[complex, int]:
        plus, count = _tail_sum(f, h, stride, +1)
        if even:
            return plus + plus, count
        minus, more = _tail_sum(f, h, stride, -1)
        return plus + minus, count + more

    f0 = f(0.0)
    evaluations = 1
    acc = 0j
    h = 1.0
    prev = None
    for level in range(q.max_levels + 1):
        h *= 0.5
        part, spent = level_sum(h, 2 if level else 1)
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


def _shifted_route(nu: complex, z: float, q: QuadratureSpec) -> EvalResult:
    """Two-sided trapezoid on the contour Im u = theta; needs Im nu > 0."""
    b = nu.imag
    # Through the saddle when it is reachable (b <= z); otherwise stop a
    # margin short of pi/2 where the envelope stops decaying. The margin
    # shrinks with b to keep the residual conditioning ~exp(3) at worst.
    delta = max(math.acos(min(b / z, 1.0)), min(0.3, 3.0 / b))
    theta = 0.5 * math.pi - delta
    ct = math.cos(theta)
    st = math.sin(theta)

    def f(x: float) -> complex:
        w = complex(-z * ct * math.cosh(x) + nu.real * x - b * theta,
                    -z * st * math.sinh(x) + b * x + nu.real * theta)
        if w.real < -745.0:
            return 0j
        return cmath.exp(w)

    # relative-only acceptance: these values can sit far below abs_tol
    # and still need every digit when a series divides by their scale
    return _halving_trapezoid(f, False, True, q, "contour")


def _cosh_route(nu: complex, z: complex, q: QuadratureSpec) -> EvalResult:
    nu = complex(nu)
    z = complex(z)
    if z.imag == 0.0 and nu.imag != 0.0:
        if nu.imag < 0.0:
            inner = _shifted_route(nu.conjugate(), z.real, q)
            return replace(inner, value=inner.value.conjugate())
        return _shifted_route(nu, z.real, q)
    real_case = nu.imag == 0.0 and z.imag == 0.0

    def f(t: float) -> complex:
        zc = z * math.cosh(t)
        if real_case:
            ez = math.exp(-zc.real) if zc.real < 745.0 else 0.0
            if ez == 0.0:
                return 0.0
            return ez * math.cosh(nu.real * t)
        if zc.real > 745.0:
            return 0.0
        nt = nu * t
        return 0.5 * (cmath.exp(-zc + nt) + cmath.exp(-zc - nt))

    # real order and argument: a positive integrand, so relative-only
    # acceptance (as on the shifted contour) is reachable and keeps
    # K_nu(z) ~ e^{-z} honest far below abs_tol
    return _halving_trapezoid(f, True, real_case, q, "cosh-route")


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

    The Bessel series for complex cutoff parameters needs this; it is not part
    of the advertised contract (which stops at z > 0) but shares the same
    convergent cosh-route integral.
    """
    z = complex(z)
    if not z.real > 0.0:
        raise DomainError(f"cosh-route needs Re z > 0, got {z!r}")
    return _cosh_route(nu, z, q)


def laplace_pair_integral(nu: complex, beta: float, gamma: float,
                          q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """integral_0^inf x^{nu-1} e^{-beta/x - gamma x} dx via exp-sinh.

    Equals 2 (beta/gamma)^{nu/2} K_nu(2 sqrt(beta gamma)); tests use it as the
    independent representation of K.
    """
    if not (beta > 0.0 and gamma > 0.0):
        raise DomainError("laplace_pair_integral needs beta > 0 and gamma > 0")
    nu = complex(nu)

    def f(x: float) -> complex:
        expo = -beta / x - gamma * x
        if expo < -745.0:
            return 0.0
        return power_real_base(x, nu - 1.0) * math.exp(expo)

    return integrate(f, (0.0, math.inf), q)


def bessel_k_from_laplace(nu: complex, z: float,
                          q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """K_nu(z) recovered from the two-sided Laplace integral at beta=gamma=z/2."""
    if not z > 0.0:
        raise DomainError(f"needs z > 0, got {z!r}")
    half = 0.5 * z
    inner = laplace_pair_integral(nu, half, half, q)
    return replace(inner, value=0.5 * inner.value,
                   err_estimate=0.5 * inner.err_estimate)


def symmetry_residual(nu: complex, z: float,
                      q: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Relative |K_nu(z) - K_{-nu}(z)| (0 up to quadrature noise)."""
    a = bessel_k(nu, z, q).value
    b = bessel_k(-nu, z, q).value
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def recurrence_residual(nu: complex, z: float,
                        q: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Absolute residual of the three-term recurrence.

    |K_{nu-1}(z) - K_{nu+1}(z) + (2 nu / z) K_nu(z)|, which is the identity
    with its standard sign (the minus-family recurrence).
    """
    km = bessel_k(nu - 1.0, z, q).value
    kp = bessel_k(nu + 1.0, z, q).value
    k0 = bessel_k(nu, z, q).value
    return abs(km - kp + (2.0 * complex(nu) / z) * k0)
