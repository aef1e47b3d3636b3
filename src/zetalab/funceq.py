"""Functional-equation verification across all supported cutoff families.

Each generalized kind checks side(1 - s) = side(s), where for a cutoff
with h(x) = h(1/x), side(u) = completed(u; h) plus the boundary term
(1/2) int_0^inf h(x) x^(u/2 - 1) dx.  The kinds differ only in its form:
exp-symmetric K_{u/2}(2 lam), exp-alpha (1/alpha) K_{u/(2 alpha)}(2 lam),
two-param the closed-form K pair, generic-h the quadrature itself.
riemann-classic compares the completed classical zeta at s and 1 - s, and
quarter-alpha-single-k the alpha = 1/4 difference with its single-K form.
The completed values at 1 - s and s come from one exp-sinh pass over
(0, inf), which gives each the bits a pass of its own gives: on the real
axis for exp-alpha, two-param, generic-h and quarter-alpha-single-k, and
for exp-symmetric at real lam on the ray of one of them, the other taken
as its conjugate (`regularized._completed_exp`).  In the strip
riemann-classic takes zeta at s and 1 - s by two routes, one each.
Residuals are *reported*, never asserted here — deciding whether a
residual is acceptable belongs to callers (and the CLI exit-code layer).
"""

from __future__ import annotations

import cmath
import math
from enum import Enum

from .bessel import bessel_k, bessel_k_complex_arg
from .cutoffs import (CutoffSpec, ExpAlpha, ExpSymmetric, TwoParam,
                      ensure_symmetric_for_fe)
from .errors import DomainError, PoleError
from .gammafn import gamma_complex, power_real_base
from .quadrature import integrate_powers
from .regularized import (_completed_exp, _completed_quadrature,
                          _require_positive_real)
from .types import DEFAULT_QUAD, FunctionalEqReport, QuadratureSpec, build_report
from .zeta_classic import zeta_analytic


class FunctionalEqKind(Enum):
    RIEMANN_CLASSIC = "riemann-classic"
    GENERIC_H = "generic-h"
    EXP_SYMMETRIC = "exp-symmetric"
    EXP_ALPHA = "exp-alpha"
    QUARTER_ALPHA_SINGLE_K = "quarter-alpha-single-k"
    TWO_PARAM = "two-param"


# sigma x t panel covering the critical strip away from the real axis and on it
STANDARD_S_GRID = tuple(complex(sigma, t)
                        for sigma in (0.1, 0.3, 0.5, 0.7, 0.9)
                        for t in (0.0, 5.0, 14.0))

_GATE_SMALL_X = (1e-5, 1e-7)
_GATE_LARGE_X = (1e5, 1e7)


def _completed_classic(s_row, q: QuadratureSpec) -> list[complex]:
    return [power_real_base(math.pi, -0.5 * s) * gamma_complex(0.5 * s)
            * zeta_analytic(s, q).value for s in s_row]


def _half_integrals_quad(cutoff: CutoffSpec, nus,
                         q: QuadratureSpec) -> list[complex]:
    """[(1/2) int_0^inf h(x) x^(nu - 1) dx for nu in nus], in one exp-sinh
    pass over the nodes inside h's window (`CutoffSpec.support`)."""

    return [r.value for r in integrate_powers(
        lambda level: lambda i, x: 0.5 * cutoff.value(x),
        [nu - 1.0 for nu in nus], q, cutoff.support())]


def _half_integral_two_param(nu: complex, lam1: complex, lam2: complex,
                             q: QuadratureSpec) -> complex:
    """Closed form of the same half-integral for the two-parameter cutoff.

    Each exponential piece is a Laplace-pair integral, so the whole thing
    collapses onto a single K with the lambda-ratio powers attached.
    """
    l1, l2 = complex(lam1), complex(lam2)
    k = bessel_k_complex_arg(nu, 2.0 * cmath.sqrt(l1 * l2), q).value
    ratio = cmath.exp(0.5 * nu * cmath.log(l2 / l1))
    return 0.5 * k * (ratio + 1.0 / ratio)


def _decay_gate(cutoff: CutoffSpec, s: complex, q: QuadratureSpec) -> None:
    """Reject cutoffs that leave the half-integrals divergent at 0 or inf.

    The probe exponents are the worst powers appearing on either side of
    the identity (at s and at 1 - s); if |h(x) x^p| is not already below
    abs_tol at the sample points, the tails cannot be truncated honestly.
    The test reads log|h(x)| + p log x, since x^p alone leaves the double
    range once |Re s| passes about 86; a probe where h(x) == 0 passes.
    """
    sigma = complex(s).real
    # the exponent sets at s and 1 - s coincide, so two probes suffice
    p_small = min(0.5 * (sigma - 3.0), -0.5 * (sigma + 2.0))
    p_large = max(0.5 * (sigma - 2.0), -0.5 * (sigma + 1.0))
    log_tol = math.log(q.abs_tol)
    for end, probes, p in (("0", _GATE_SMALL_X, p_small),
                           ("infinity", _GATE_LARGE_X, p_large)):
        for x in probes:
            h = abs(cutoff.value(x))
            if h != 0.0 and math.log(h) + p * math.log(x) >= log_tol:
                raise DomainError(
                    f"cutoff {cutoff.kind_name} does not decay fast enough at "
                    f"{end} for s = {s}; the half-integrals would diverge")


def _need(kind: FunctionalEqKind, params: dict, key: str):
    if key not in params:
        raise DomainError(f"{kind.value} verify needs parameter {key!r}")
    return params[key]


def _sides(kind: FunctionalEqKind, s: complex, params: dict, q: QuadratureSpec):
    """Run kind's checks at s and return sides(us) = [side(u) for u in us]
    (module docstring).

    riemann-classic has no cutoff; its side is the completed classical zeta
    (`_completed_classic`), at most one of 1 - s and s on the theta route.
    exp-symmetric, exp-alpha, two-param and generic-h take the completed
    values of all us from one row call (`_completed_exp`,
    `_completed_quadrature`), and generic-h its half-integrals from one
    more pass.
    """
    if kind is FunctionalEqKind.RIEMANN_CLASSIC:
        if abs(s) <= 1e-12 or abs(s - 1.0) <= 1e-12:
            raise PoleError("the completed classical form has poles at s = 0 and "
                            "s = 1; pick s away from them")
        return lambda us: _completed_classic(us, q)
    if kind is FunctionalEqKind.EXP_SYMMETRIC:
        lam = ExpSymmetric(complex(_need(kind, params, "lam"))).lam
        return lambda us: [c.value + bessel_k_complex_arg(0.5 * u, 2.0 * lam, q).value
                           for u, c in zip(us, _completed_exp(us, lam, q)[0])]
    if kind is FunctionalEqKind.EXP_ALPHA:
        lam, alpha = _need(kind, params, "lam"), _need(kind, params, "alpha")
        if not alpha > 0.0:
            raise DomainError(
                f"exp-alpha verify needs alpha > 0 (the K reduction uses u = "
                f"x^alpha increasing), got {alpha!r}")
        cutoff = ExpAlpha(lam=float(lam), alpha=float(alpha))
        z = 2.0 * cutoff.lam
        inv_a = 1.0 / alpha
        return lambda us: [c.value + inv_a * bessel_k(u * 0.5 * inv_a, z, q).value
                           for u, c in zip(us, _completed_quadrature(us, cutoff, q))]
    if kind is FunctionalEqKind.TWO_PARAM:
        lam1, lam2 = _need(kind, params, "lam1"), _need(kind, params, "lam2")
        cutoff = TwoParam(lam1=lam1, lam2=lam2)
        return lambda us: [c.value + _half_integral_two_param(0.5 * u, lam1, lam2, q)
                           for u, c in zip(us, _completed_quadrature(us, cutoff, q))]
    if kind is FunctionalEqKind.GENERIC_H:
        cutoff = _need(kind, params, "cutoff")
        if not isinstance(cutoff, CutoffSpec):
            raise DomainError("generic-h verify needs a CutoffSpec under 'cutoff'")
        ensure_symmetric_for_fe(cutoff)
        _decay_gate(cutoff, s, q)
        return lambda us: [c.value + half for c, half in zip(
            _completed_quadrature(us, cutoff, q),
            _half_integrals_quad(cutoff, [0.5 * u for u in us], q))]
    raise DomainError(f"unknown functional-equation kind {kind!r}")


def verify(kind: FunctionalEqKind, s: complex, params: dict | None = None,
           q: QuadratureSpec = DEFAULT_QUAD) -> FunctionalEqReport:
    """Evaluate both sides of the functional equation named by kind.

    params by kind:
      riemann-classic: (none)
      exp-symmetric:   lam (Re > 0, complex ok)
      exp-alpha:       lam (> 0), alpha (> 0)
      quarter-alpha-single-k: lam (> 0)
      two-param:       lam1, lam2 (Re > 0, complex ok)
      generic-h:       cutoff (a CutoffSpec; must be symmetric and decaying)

    The generalized kinds report lhs = side(1 - s), rhs = side(s); the
    riemann-classic record keeps lhs = completed(s), and quarter-alpha-single-k
    lhs = completed(1 - s) - completed(s), rhs = -4 (1-2s) K_{1-2s}(2 lam) / lam.
    """
    s = complex(s)
    params = dict(params or {})
    if kind is FunctionalEqKind.QUARTER_ALPHA_SINGLE_K:
        lam = _require_positive_real(_need(kind, params, "lam"),
                                     "the quarter-alpha reduction")
        reflected, direct = _completed_quadrature(
            [1.0 - s, s], ExpAlpha(lam=lam, alpha=0.25), q)
        lhs = reflected.value - direct.value
        order = 1.0 - 2.0 * s
        rhs = -4.0 * (order * bessel_k(order, 2.0 * lam, q).value / lam)
    else:
        lhs, rhs = _sides(kind, s, params, q)([1.0 - s, s])
        if kind is FunctionalEqKind.RIEMANN_CLASSIC:
            lhs, rhs = rhs, lhs

    report_params = {k: (v.kind_name if isinstance(v, CutoffSpec) else v)
                     for k, v in params.items()}
    return build_report(kind.value, s, report_params, lhs, rhs)
