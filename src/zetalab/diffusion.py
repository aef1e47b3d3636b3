"""Heat kernels, resolvents, and their contact points with the damped zeta.

Flat space gets the Gaussian kernel and its resolvent in two independent
forms (Bessel closed form vs. time integral).  Odd-dimensional hyperbolic
space gets the exact recursion kernel obtained by repeatedly applying
(1/sinh rho) d/drho to the Gaussian seed.  Every time integral here is one
`bessel.laplace_pair_integral`.  The *_identification_residual functions tie
these back to the two-parameter damped zeta values.
"""

from __future__ import annotations

import cmath
import math
import sys

from .bessel import bessel_k, bessel_k_complex_arg, laplace_pair_integral
from .cutoffs import TwoParam
from .errors import DomainError, NonConvergence
from .gammafn import gamma_complex, power_real_base
from .regularized import _completed_quadrature
from .types import (DEFAULT_QUAD, EvalResult, QuadratureSpec, make_result,
                    sum_pieces)

_FOUR_PI = 4.0 * math.pi
# the largest rho with sinh rho finite in double
_SINH_MAX_ARG = math.asinh(sys.float_info.max)
_EPS = sys.float_info.epsilon


def heat_kernel_rd(t: float, r: float, d: float) -> float:
    """Gaussian heat kernel on R^d at radius r: (4 pi t)^(-d/2) exp(-r^2/4t)."""
    if not t > 0.0:
        raise DomainError(f"heat_kernel_rd needs t > 0, got {t!r}")
    if r < 0.0:
        raise DomainError(f"heat_kernel_rd needs r >= 0, got {r!r}")
    if d < 1.0:
        raise DomainError(f"heat_kernel_rd needs d >= 1, got {d!r}")
    expo = -r * r / (4.0 * t)
    if expo < -745.0:
        return 0.0
    return math.pow(_FOUR_PI * t, -0.5 * d) * math.exp(expo)


def resolvent_rd_bessel(alpha: complex, r: float, d: complex,
                        q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """Closed Bessel form of the flat resolvent kernel.

    u_alpha(r) = 2 (2 pi)^(-(d-2)/2) (sqrt(2 alpha)/r)^((d-2)/2)
                 K_((d-2)/2)(sqrt(2 alpha) r),
    with d allowed complex (the formula is meromorphic in d).
    """
    alpha = complex(alpha)
    if not alpha.real > 0.0:
        raise DomainError(f"resolvent_rd_bessel needs Re alpha > 0, got {alpha!r}")
    if not r > 0.0:
        raise DomainError(f"resolvent_rd_bessel needs r > 0, got {r!r}")
    d = complex(d)
    nu = 0.5 * (d - 2.0)
    root = cmath.sqrt(2.0 * alpha)
    k = bessel_k_complex_arg(nu, root * r, q)
    scale = 2.0 * power_real_base(2.0 * math.pi, -nu) * cmath.exp(
        nu * cmath.log(root / r))
    return make_result(scale * k.value, abs(scale) * k.err_estimate,
                       k.evaluations, q)


def resolvent_rd_quad(alpha: complex, r: float, d: float,
                      q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """Time-integral form int_0^inf (4 pi t)^(-d/2) exp(-(alpha t + r^2/4t)) dt:
    (4 pi)^(-d/2) times the pair at nu = 1 - d/2, beta = r^2/4, gamma = alpha."""
    alpha = complex(alpha)
    if not alpha.real > 0.0:
        raise DomainError(f"resolvent_rd_quad needs Re alpha > 0, got {alpha!r}")
    if r < 0.0 or (r == 0.0 and d >= 2.0):
        raise DomainError(
            f"resolvent_rd_quad needs r > 0 (r = 0 is allowed only for d < 2 "
            f"where the kernel stays integrable); got r = {r!r}, d = {d!r}")
    if d < 1.0:
        raise DomainError(f"resolvent_rd_quad needs d >= 1, got {d!r}")
    pair = laplace_pair_integral(1.0 - 0.5 * d, 0.25 * r * r, alpha, q)
    return sum_pieces([pair], math.pow(_FOUR_PI, -0.5 * d))


# ---------------------------------------------------------------------------
# hyperbolic space, odd dimension: exact recursion kernel
# ---------------------------------------------------------------------------
#
# Terms are stored as {(a, b, e, f): coeff} meaning
#     coeff * rho^a * t^(-b) * sinh(rho)^(-e) * cosh(rho)^f,
# all multiplying exp(-m^2 t - rho^2 / 4t).  Applying (1/sinh) d/drho maps
# this space into itself, which is the whole trick.

_TERM_CACHE: dict[int, dict[tuple[int, int, int, int], float]] = {
    0: {(0, 0, 0, 0): 1.0}}


def _apply_ladder(terms: dict) -> dict:
    out: dict[tuple[int, int, int, int], float] = {}

    def add(key, coeff):
        if coeff != 0.0:
            out[key] = out.get(key, 0.0) + coeff

    for (a, b, e, f), c in terms.items():
        if a:
            add((a - 1, b, e + 1, f), c * a)
        if e:
            add((a, b, e + 2, f + 1), -c * e)
        if f:
            add((a, b, e, f - 1), c * f)
        add((a + 1, b + 1, e + 1, f), -0.5 * c)
    return out


def _ladder_terms(m: int) -> dict:
    top = max(_TERM_CACHE)
    while top < m:
        _TERM_CACHE[top + 1] = _apply_ladder(_TERM_CACHE[top])
        top += 1
    return _TERM_CACHE[m]


def heat_kernel_hyperbolic_odd(t: float, rho: float, d: int) -> float:
    """Heat kernel on hyperbolic d-space (curvature -1), d odd >= 3.

    Exact closed form: ((-1)^m / (2 pi)^m) (4 pi t)^(-1/2) applied-ladder of
    exp(-m^2 t - rho^2/4t), m = (d-1)/2.  rho must be positive; use
    heat_kernel_h3 for the stable rho -> 0 form in three dimensions.
    NonConvergence where the terms' rounding, eps sum |term|, exceeds 1e-8
    of their sum: at small rho the ladder cancels (d = 9, t = 0.1,
    rho = 1e-3 would read -0.184 against 0.105).
    """
    if not isinstance(d, int) or d < 3 or d % 2 == 0:
        raise DomainError(f"heat_kernel_hyperbolic_odd needs odd integer d >= 3, "
                          f"got {d!r}")
    if not t > 0.0:
        raise DomainError(f"heat_kernel_hyperbolic_odd needs t > 0, got {t!r}")
    if not rho > 0.0:
        raise DomainError(f"heat_kernel_hyperbolic_odd needs rho > 0, got {rho!r}")
    m = (d - 1) // 2
    expo = -m * m * t - rho * rho / (4.0 * t)
    # a term is at most c rho^a t^-b 2^m e^{-2 m rho} (sinh^-e cosh^f with
    # e - f = m; m^2 t + rho^2/4t >= m rho): 0.0 wherever sinh rho overflows
    if expo < -745.0 or rho > _SINH_MAX_ARG:
        return 0.0  # before the ladder, whose cost grows with d
    sh = math.sinh(rho)
    ch = math.cosh(rho)
    acc = size = 0.0
    for (a, b, e, f), c in _ladder_terms(m).items():
        term = (c * math.pow(rho, a) * math.pow(t, -b)
                * math.pow(sh, -e) * math.pow(ch, f))
        acc += term
        size += abs(term)
    if not _EPS * size <= 1e-8 * abs(acc):  # nan and inf included
        raise NonConvergence(
            f"the d = {d} ladder cancels at this rho: its rounding "
            f"{_EPS * size:.3g} exceeds 1e-8 of its sum {abs(acc):.3g}")
    pref = math.pow(-1.0, m) * math.pow(2.0 * math.pi, -m) / math.sqrt(_FOUR_PI * t)
    return pref * acc * math.exp(expo)


def _rho_over_sinh(rho: float) -> float:
    """rho / sinh rho for rho >= 0, exact at 0; from rho = 36 on sinh rho is
    e^rho / 2 in double, so the ratio is 2 rho e^-rho, and never overflows."""
    if rho >= 36.0:
        return 2.0 * rho * math.exp(-rho)
    return 1.0 if rho == 0.0 else rho / math.sinh(rho)


def heat_kernel_h3(t: float, rho: float) -> float:
    """d = 3 kernel (4 pi t)^(-3/2) (rho/sinh rho) exp(-t - rho^2/4t).

    rho/sinh rho from `_rho_over_sinh`: exact at 0, finite past sinh's overflow.
    """
    if not t > 0.0:
        raise DomainError(f"heat_kernel_h3 needs t > 0, got {t!r}")
    if rho < 0.0:
        raise DomainError(f"heat_kernel_h3 needs rho >= 0, got {rho!r}")
    expo = -t - rho * rho / (4.0 * t)
    if expo < -745.0:
        return 0.0
    return math.pow(_FOUR_PI * t, -1.5) * _rho_over_sinh(rho) * math.exp(expo)


def laplace_hyperbolic(alpha: complex, rho: float,
                       q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """Laplace transform int_0^inf exp(-alpha t) p3(t, rho) dt, Re alpha > -1.

    The spectral gap of H^3 contributes exp(-t), so the transform converges
    on the half-plane Re alpha > -1 rather than just Re alpha > 0.  It is
    (4 pi)^(-3/2) rho/sinh rho times the pair at (-1/2, rho^2/4, alpha + 1).
    """
    alpha = complex(alpha)
    if not alpha.real > -1.0:
        raise DomainError(f"laplace_hyperbolic needs Re alpha > -1, got {alpha!r}")
    if not rho > 0.0:
        raise DomainError(f"laplace_hyperbolic needs rho > 0, got {rho!r}")
    pair = laplace_pair_integral(-0.5, 0.25 * rho * rho, alpha + 1.0, q)
    return sum_pieces([pair], math.pow(_FOUR_PI, -1.5) * _rho_over_sinh(rho))


# ---------------------------------------------------------------------------
# identification residuals against the two-parameter damped zeta
# ---------------------------------------------------------------------------


def _time_integral(p: float, alpha: float, c: float, q: QuadratureSpec) -> complex:
    """int_0^inf t^(-p) exp(-(alpha t + c/4t)) dt, the Laplace pair at
    nu = 1 - p, beta = c/4, gamma = alpha."""
    return laplace_pair_integral(1.0 - p, 0.25 * c, alpha, q).value


def _shifted_series(p: float, alpha: float, r: float, q: QuadratureSpec) -> complex:
    """sum over integer n of the t-integral with r^2 shifted to r^2 + 4 pi n^2."""
    total = _time_integral(p, alpha, r * r, q)
    for n in range(1, q.max_terms + 1):
        piece = _time_integral(p, alpha, r * r + 4.0 * math.pi * n * n, q)
        total += 2.0 * piece
        if abs(piece) < 0.5 * q.series_tail_tol * max(abs(total), 1e-30):
            return total
    raise NonConvergence(
        f"shifted series did not settle within {q.max_terms} terms; alpha may be "
        "too small for the tail rule", best=total, err_estimate=abs(piece))


def euclidean_identification_residual(d: float, alpha: float, r: float,
                                      q: QuadratureSpec = DEFAULT_QUAD,
                                      limit_free: bool = False) -> float:
    """Relative gap between the damped-zeta value at s = 2 - d and its
    four-term time-integral expansion.

    The left side is pi^(d/2-1) Gamma(1 - d/2) zeta(2-d; alpha, r^2/4); at
    even d >= 2 the Gamma factor sits on a pole and PoleError propagates.
    Passing limit_free=True compares the pole-free completed values instead,
    which is the analytic content of the identity without the prefactor.
    """
    if not alpha > 0.0:
        raise DomainError(f"needs alpha > 0, got {alpha!r}")
    if not r > 0.0:
        raise DomainError(f"needs r > 0, got {r!r}")
    s = 2.0 - d
    completed = _completed_quadrature([s], TwoParam(lam1=alpha, lam2=0.25 * r * r),
                                      q)[0].value
    if limit_free:
        lhs = completed
    else:
        # pi^(d/2-1) Gamma(1-d/2) zeta_TP(2-d, ...) collapses back onto the
        # completed value, but going through the literal prefactors keeps the
        # pole structure of the printed identity (PoleError at even d >= 2).
        g = gamma_complex(0.5 * s)
        bare = completed * power_real_base(math.pi, 0.5 * s) / g
        lhs = power_real_base(math.pi, -0.5 * s) * g * bare

    t1 = _time_integral(0.5 * d, alpha, r * r, q)
    t2 = _time_integral(2.0 - 0.5 * d, alpha, r * r, q)
    t3 = _shifted_series(0.5 * (d + 1.0), alpha, r, q)
    t4 = _shifted_series(2.0 - 0.5 * d, alpha, r, q)
    rhs = -0.25 * t1 - 0.25 * t2 + 0.25 * t3 + 0.25 * t4
    return abs(lhs - rhs) / abs(lhs)


def hyperbolic_identification_residual(alpha: float, rho: float,
                                       q: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Relative gap between the t-integral at (gamma, beta) = (1 + alpha,
    rho^2/4) in its K closed form, 2 (beta/gamma)^(-1/4) K_(-1/2)(2 sqrt(beta
    gamma)), and the resonance-shifted Laplace transform of the H^3 kernel.
    """
    if not alpha > 0.0:
        raise DomainError(f"needs alpha > 0, got {alpha!r}")
    if not rho > 0.0:
        raise DomainError(
            f"needs rho > 0 (the sinh normalization degenerates as rho -> 0), "
            f"got {rho!r}")
    root = math.sqrt(1.0 + alpha)  # sqrt(gamma); 2 sqrt(beta gamma) = rho root
    lhs = -0.5 * math.sqrt(2.0 * root / rho) * bessel_k(-0.5, rho * root, q).value
    transform = laplace_hyperbolic(alpha, rho, q).value
    if lhs == 0 or transform == 0:
        raise DomainError(f"a side underflows to 0 at rho = {rho!r}")
    rhs = -0.25 * math.pow(_FOUR_PI, 1.5) * transform / _rho_over_sinh(rho)
    return abs(lhs - rhs) / abs(lhs)
