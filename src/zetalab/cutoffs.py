"""Multiplicative cutoffs h(x; ...) inserted into the zeta integrals.

A cutoff is its values: the package reads h only through `value(x)`, at
finite x > 0 or, on the exp-symmetric ray, at complex x.
Every theorem downstream assumes the inversion symmetry h(x) = h(1/x) and
h -> 1 pointwise as the damping vanishes; the built-in kinds have the
symmetry by construction, while Custom carries a declared flag that the
functional-equation verifier spot-checks before trusting.

Each kind also says where it vanishes: `support()` is the x interval
(e^-L, e^L) with value(x) == 0 exactly for |log x| > L, or (0, inf) when
there is no such L; the quadrature skips the nodes outside it.  The
exponential kinds cut exp(-w) to 0 once Re w > 745 (`_damped_exp`), and their
Re w is at least rate * 2cosh(scale log x); L solves that for
_ZERO_FLOOR = 745 * 1.001, so rounding in w cannot bring a node past L
back inside.  The window is symmetric in log x because h(x) = h(1/x).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, SymmetryViolation

_SPOT_CHECK_POINTS = (2.0, 5.0, 10.0)
_SPOT_CHECK_TOL = 1e-12
# value(x) is 0 past this exponent, with a margin over the 745 of _damped_exp
_ZERO_FLOOR = 745.0 * 1.001


def _damped_exp(w: complex) -> complex:
    """exp(-w) with a hard underflow floor instead of range errors."""
    if w.real > 745.0:
        return 0.0 + 0.0j
    if w.imag == 0.0:
        return complex(math.exp(-w.real))
    return cmath.exp(-w)


def _window(rate: float, scale: float = 1.0) -> tuple[float, float]:
    """(e^-L, e^L) with rate * 2cosh(scale L) = _ZERO_FLOOR.

    An exponent of at least rate * 2cosh(scale log x) is past the floor at
    every |log x| > L.  When it is past it already at x = 1, L is 0.  The
    window is (0, inf) unless rate > 0, and once L > 700 spans every
    positive float the quadrature reaches.
    """
    if not rate > 0.0:
        return 0.0, math.inf
    reach = math.acosh(max(1.0, _ZERO_FLOOR / (2.0 * rate))) / scale
    if reach > 700.0:
        return 0.0, math.inf
    return math.exp(-reach), math.exp(reach)


@dataclass(frozen=True)
class CutoffSpec:
    """Base class; concrete kinds implement value() and, when they vanish
    outside a window, support()."""

    @property
    def kind_name(self) -> str:
        return type(self).__name__

    def value(self, x: float) -> complex:  # pragma: no cover - abstract
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        """The x interval outside which value(x) == 0; (0, inf) by default."""
        return 0.0, math.inf


@dataclass(frozen=True)
class NoCutoff(CutoffSpec):
    """h identically 1 (the classical, undamped integrals)."""

    def value(self, x: float) -> complex:
        return 1.0 + 0.0j


@dataclass(frozen=True)
class ExpSymmetric(CutoffSpec):
    """h(x) = exp(-lam (x + 1/x)), Re lam > 0 (complex lam allowed)."""

    lam: complex

    def __post_init__(self) -> None:
        if not complex(self.lam).real > 0.0:
            raise DomainError(f"ExpSymmetric needs Re lam > 0, got {self.lam!r}")

    def value(self, x: float) -> complex:
        return _damped_exp(complex(self.lam) * (x + 1.0 / x))

    def support(self) -> tuple[float, float]:
        return _window(complex(self.lam).real)


@dataclass(frozen=True)
class ExpAlpha(CutoffSpec):
    """h(x) = exp(-lam (x^alpha + x^-alpha)), real lam > 0, real alpha != 0."""

    lam: float
    alpha: float

    def __post_init__(self) -> None:
        if not self.lam > 0.0:
            raise DomainError(f"ExpAlpha needs lam > 0, got {self.lam!r}")
        if self.alpha == 0.0:
            raise DomainError("ExpAlpha needs alpha != 0")

    def value(self, x: float) -> complex:
        try:
            xa = math.pow(x, self.alpha)
        except OverflowError:
            return 0.0 + 0.0j
        if xa == 0.0 or math.isinf(xa):
            # x^alpha + x^-alpha has blown past float range; h underflows
            return 0.0 + 0.0j
        return _damped_exp(complex(self.lam * (xa + 1.0 / xa)))

    def support(self) -> tuple[float, float]:
        return _window(self.lam, abs(self.alpha))


@dataclass(frozen=True)
class TwoParam(CutoffSpec):
    """h(x) = (1/2)[e^{-(l1 x + l2/x)} + e^{-(l2 x + l1/x)}], Re l1, Re l2 > 0."""

    lam1: complex
    lam2: complex

    def __post_init__(self) -> None:
        for name, v in (("lam1", self.lam1), ("lam2", self.lam2)):
            if not complex(v).real > 0.0:
                raise DomainError(f"TwoParam needs Re {name} > 0, got {v!r}")

    def value(self, x: float) -> complex:
        l1, l2 = complex(self.lam1), complex(self.lam2)
        inv = 1.0 / x
        return 0.5 * (_damped_exp(l1 * x + l2 * inv)
                      + _damped_exp(l2 * x + l1 * inv))

    def support(self) -> tuple[float, float]:
        return _window(min(complex(self.lam1).real, complex(self.lam2).real))


@dataclass(frozen=True)
class TwoParamNu(CutoffSpec):
    """Power-warped two-parameter cutoff: x acts through x^nu.

    h(x) = (1/2)[e^{-(l1 x^nu + l2 x^-nu)} + e^{-(l2 x^nu + l1 x^-nu)}].
    """

    lam1: complex
    lam2: complex
    nu: float

    def __post_init__(self) -> None:
        for name, v in (("lam1", self.lam1), ("lam2", self.lam2)):
            if not complex(v).real > 0.0:
                raise DomainError(f"TwoParamNu needs Re {name} > 0, got {v!r}")
        if self.nu == 0.0:
            raise DomainError("TwoParamNu needs nu != 0")

    def value(self, x: float) -> complex:
        try:
            xa = math.pow(x, self.nu)
        except OverflowError:
            return 0.0 + 0.0j
        if xa == 0.0 or math.isinf(xa):
            return 0.0 + 0.0j
        l1, l2 = complex(self.lam1), complex(self.lam2)
        return 0.5 * (_damped_exp(l1 * xa + l2 / xa)
                      + _damped_exp(l2 * xa + l1 / xa))

    def support(self) -> tuple[float, float]:
        return _window(min(complex(self.lam1).real, complex(self.lam2).real),
                          abs(self.nu))


@dataclass(frozen=True)
class CustomCutoff(CutoffSpec):
    """User-supplied h with a *declared* symmetry flag.

    Evaluation trusts the function as-is; the functional-equation layer
    spot-checks the declaration before using it in any identity.
    """

    fn: Callable[[float], complex]
    declared_symmetric: bool = True
    label: str = "custom"

    def value(self, x: float) -> complex:
        return complex(self.fn(x))


def cutoff_value(cutoff: CutoffSpec, x: float) -> complex:
    """Evaluate h(x) at finite x > 0; the checked entry for outside callers."""
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"cutoff_value needs finite x > 0, got {x!r}")
    return cutoff.value(float(x))


def ensure_symmetric_for_fe(cutoff: CutoffSpec) -> None:
    """Gate used by the functional-equation verifier.

    Built-in kinds are symmetric by construction. Custom cutoffs must both
    declare the symmetry and survive |h(x) - h(1/x)| < 1e-12 at x in
    {2, 5, 10}; otherwise SymmetryViolation is raised (evaluation elsewhere
    remains allowed).
    """
    if not isinstance(cutoff, CustomCutoff):
        return
    if not cutoff.declared_symmetric:
        raise SymmetryViolation(
            f"cutoff {cutoff.label!r} is declared asymmetric; the identities "
            "all assume h(x) = h(1/x)")
    for x in _SPOT_CHECK_POINTS:
        a = cutoff.value(x)
        b = cutoff.value(1.0 / x)
        if abs(a - b) >= _SPOT_CHECK_TOL:
            raise SymmetryViolation(
                f"cutoff {cutoff.label!r} failed the symmetry spot-check at "
                f"x = {x}: |h(x) - h(1/x)| = {abs(a - b):.3e}")
