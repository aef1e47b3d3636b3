"""Core value types: quadrature configuration, evaluation results, brackets.

Everything here is immutable; computations never mutate shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budgets shared by quadrature and series summation.

    Parameters
    ----------
    abs_tol, rel_tol : float
        Convergence targets for integrals; both must lie in (0, 1).
    series_tail_tol : float
        Relative cutoff for dropping series tails.
    max_levels : int
        Refinement-level budget for double-exponential quadrature.
    max_terms : int
        Term budget for series summation.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    series_tail_tol: float = 1e-16
    max_levels: int = 12
    max_terms: int = 10**6

    def __post_init__(self) -> None:
        for name in ("abs_tol", "rel_tol", "series_tail_tol"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise DomainError(f"{name} must lie in (0, 1), got {v!r}")
        if self.max_levels < 1:
            raise DomainError(f"max_levels must be >= 1, got {self.max_levels}")
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {self.max_terms}")

    def tolerance_for(self, value: complex) -> float:
        return max(self.abs_tol, self.rel_tol * abs(value))


DEFAULT_QUAD = QuadratureSpec()


@dataclass(frozen=True)
class EvalResult:
    """A numeric result with its honesty metadata.

    ``converged`` is only set when err_estimate <= max(abs_tol, rel_tol*|value|)
    for the spec the computation ran under; constructors go through
    :func:`make_result` to keep that invariant true by construction.  A sum
    of separately accepted pieces follows a different rule, and
    :func:`sum_pieces` is the one place that states it.
    """

    value: complex
    err_estimate: float
    evaluations: int
    converged: bool

    def __post_init__(self) -> None:
        if self.err_estimate < 0:
            raise DomainError("err_estimate must be >= 0")


def make_result(value: complex, err_estimate: float, evaluations: int,
                q: QuadratureSpec) -> EvalResult:
    """Build an EvalResult, deriving `converged` from the spec's tolerances."""
    err = abs(err_estimate)
    return EvalResult(value=value, err_estimate=err, evaluations=evaluations,
                      converged=err <= q.tolerance_for(value))


def sum_pieces(pieces, factor: complex | None = None) -> EvalResult:
    """factor * (sum of pieces) for a list of separately accepted EvalResults.

    Values and errors are summed, then scaled by factor (errors by |factor|,
    plus ulp(0.0) for a product that rounds subnormal); evaluations are
    summed; converged only when every piece converged.  No tolerance test
    on the sum: pieces each at the abs_tol floor would fail it.
    """
    first, *rest = pieces
    value, err = first.value, first.err_estimate
    for piece in rest:
        value += piece.value
        err += piece.err_estimate
    if factor is not None:
        value, err = factor * value, abs(factor) * err + math.ulp(0.0)
    return EvalResult(value=value, err_estimate=err,
                      evaluations=sum(p.evaluations for p in pieces),
                      converged=all(p.converged for p in pieces))


@dataclass(frozen=True)
class ZeroBracket:
    """A sign-change bracket for Hardy's Z and the zero refined inside it.

    z_lo and z_hi are `hardy_z` values at the ends, of opposite signs
    (Riemann-Siegel in fixed point at t >= 100, Euler-Maclaurin below);
    refined_t is the midpoint of a bracket no wider than 1e-8 whose ends
    carry certified signs of Z, found by Illinois (modified regula falsi)
    refinement.
    """

    t_lo: float
    t_hi: float
    z_lo: float
    z_hi: float
    refined_t: float

    def __post_init__(self) -> None:
        if not self.t_lo < self.t_hi:
            raise DomainError("bracket needs t_lo < t_hi")
        if not self.z_lo * self.z_hi < 0:
            raise DomainError("bracket endpoints must straddle a sign change")
        if not (self.t_lo <= self.refined_t <= self.t_hi):
            raise DomainError("refined_t must lie inside the bracket")


@dataclass(frozen=True)
class RegZetaValue:
    """A regularized zeta evaluation: completed value plus the bare one.

    completed = pi^{-s/2} Gamma(s/2) zeta_h(s, ...); bare divides the Gamma
    dressing back out. ``representation`` names the route that produced it
    (quadrature | bessel-series | boundary-form).
    """

    s: complex
    completed: EvalResult
    bare: complex
    representation: str

    def __post_init__(self) -> None:
        if self.representation not in ("quadrature", "bessel-series",
                                       "boundary-form"):
            raise DomainError(
                f"unknown representation {self.representation!r}")


@dataclass(frozen=True)
class FunctionalEqReport:
    """Residual report for one functional-equation verification point."""

    kind: str
    s: complex
    params: dict = field(compare=False)
    lhs: complex = 0j
    rhs: complex = 0j
    abs_residual: float = 0.0
    rel_residual: float = 0.0


def build_report(kind: str, s: complex, params: dict, lhs: complex,
                 rhs: complex) -> FunctionalEqReport:
    abs_res = abs(lhs - rhs)
    rel_res = abs_res / max(abs(lhs), abs(rhs), 1e-300)
    return FunctionalEqReport(kind=kind, s=s, params=dict(params), lhs=lhs,
                              rhs=rhs, abs_residual=abs_res,
                              rel_residual=rel_res)
