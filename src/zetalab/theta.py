"""Jacobi theta sums and the half-theta psi that drives every zeta integral.

    psi(x)   = sum_{n>=1} exp(-pi n^2 x)                x > 0
    Theta(v) = sum_{n in Z} exp(-pi n^2 v) = 1 + 2 psi(v)
    theta3(z, nome) = 1 + 2 sum_{n>=1} nome^{n^2} cos(2 pi n z)

Small arguments route through the modular identity
psi(x) = -1/2 + x^{-1/2}(psi(1/x) + 1/2), which turns the slowly converging
regime into a one-term sum and is itself the object under test in
`theta_modular_residual`.

Every zeta integral is a Mellin transform of psi over (0, inf) or (1, inf),
so psi at those half-lines' cached nodes is kept in columns beside their
rows, once a node per process: `psi_rows`, the base they are walked with,
is the quadrature's one column base (`column_rows`) with psi as its node.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, NonConvergence
from .quadrature import column_rows
from .types import DEFAULT_QUAD, EvalResult, QuadratureSpec

# Below this point the direct series needs > ~70 terms and the modular
# identity needs 1; the exact cutover value only trades constants.
_MODULAR_CUTOVER = 0.05
# psi(x) is exactly 0 for x > PSI_REACH: its first term e^{-pi x} is cut to 0
# once pi x passes 745 (`_psi_direct`), and 745.2 leaves room for rounding.
# On the ray, `_psi_complex_remainder(z)` is exactly 0 for Re z > PSI_REACH,
# where cmath.exp(-pi z) underflows (below e^{-745.13}).
PSI_REACH = 745.2 / math.pi


def _psi_direct(x: float, tail_tol: float, max_terms: int) -> tuple[float, float, int]:
    # The tail test is relative, as in _psi_direct_complex: psi(x) ~ e^{-pi x}
    # keeps its digits at large x (an absolute test would drop n = 2 while it
    # is 1e-12 of psi near x = 3, and psi itself past x = 11.7).  `<=` stops
    # at once on a first term that underflowed to 0.
    total = 0.0
    n = 1
    while n <= max_terms:
        expo = -math.pi * n * n * x
        term = math.exp(expo) if expo > -745.0 else 0.0
        if term <= tail_tol * total:
            return total, term, n
        total += term
        n += 1
    raise NonConvergence(f"psi series hit max_terms at x = {x!r}", best=total)


def _psi_parts(x: float, tail_tol: float, max_terms: int) -> tuple[float, float, int]:
    """(psi(x), dropped tail, terms), through the modular flip below the cutover."""
    if x >= _MODULAR_CUTOVER:
        return _psi_direct(x, tail_tol, max_terms)
    total, dropped, terms = _psi_direct(1.0 / x, tail_tol, max_terms)
    root = math.sqrt(x)
    return -0.5 + (total + 0.5) / root, dropped / root, terms


def _psi_raw(x: float, tail_tol: float, max_terms: int) -> float:
    """Bare float psi(x) for integrands (no result wrapper)."""
    return _psi_parts(x, tail_tol, max_terms)[0]


# (start, series_tail_tol, max_terms) -> {level: psi at that level's rows},
# the columns of `psi_rows`.  Only grows, and every writer of an entry
# stores the same value.
_PSI_COLUMNS: dict[tuple, dict[int, list]] = {}


def psi_rows(q: QuadratureSpec, start: float = 0.0, factor=None):
    """The by-row base (`integrate_powers`) of psi on (start, inf), start 0
    or 1, or of psi * factor for a factor (a cutoff's value): psi sits in
    q's tail settings' column (`quadrature.column_rows`), computed there by
    `_psi_raw` on first read, and only where factor(x) != 0."""
    tol, terms = q.series_tail_tol, q.max_terms
    levels = _PSI_COLUMNS.setdefault((start, tol, terms), {})
    return column_rows(levels, start, lambda x: _psi_raw(x, tol, terms), factor)


def _psi_direct_complex(z: complex, tail_tol: float, max_terms: int) -> complex:
    # e^{-pi n^2 z} by the ratio recurrence: term_{n+1} = term_n * step_n,
    # step_{n+1} = step_n * e^{-2 pi z}; the real part sets the decay.  The
    # tail test is relative: psi(z) - G(z) needs every digit of tiny psi.
    base = cmath.exp(-math.pi * z)
    base2 = base * base
    total = base
    term = base2 * base2
    step = base * base2 * base2
    for _ in range(max_terms):
        if abs(term) <= tail_tol * abs(total):
            return total
        total += term
        term *= step
        step *= base2
    raise NonConvergence(f"complex psi series hit max_terms at z = {z!r}", best=total)


def _one_minus_exp(w: complex) -> complex:
    """1 - e^{-w}, without the cancellation of the direct form at small |w|."""
    a, b = w.real, w.imag
    return complex(2.0 * math.sin(0.5 * b) ** 2 - math.expm1(-a) * math.cos(b),
                   math.exp(-a) * math.sin(b))


def _psi_complex_remainder(z: complex, tail_tol: float, max_terms: int) -> complex:
    """psi(z) - G(z) for Re z > 0, where G(z) = (z^{-1/2} - 1) e^{-pi z} / 2.

    G is psi's small-z asymptote from the modular identity, damped so it
    also vanishes at infinity.  Inside the unit disc the same flip as in
    `_psi_parts` gives psi - G = (z^{-1/2} - 1)(1 - e^{-pi z})/2
    + z^{-1/2} psi(1/z), summed on 1/z, whose real part cos(arg z)/|z| is
    the larger; outside it the direct sum is used.  The principal square
    root is the right branch in the whole half-plane.
    """
    root_inv = 1.0 / cmath.sqrt(z)
    half_gap = 0.5 * (root_inv - 1.0)
    if abs(z) >= 1.0:
        return (_psi_direct_complex(z, tail_tol, max_terms)
                - half_gap * cmath.exp(-math.pi * z))
    inv = _psi_direct_complex(1.0 / z, tail_tol, max_terms)
    return half_gap * _one_minus_exp(math.pi * z) + root_inv * inv


def psi(x: float, q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """psi(x) = sum_{n>=1} e^{-pi n^2 x} with truncation metadata."""
    if not (isinstance(x, (int, float)) and x > 0.0 and math.isfinite(x)):
        raise DomainError(f"psi needs finite x > 0, got {x!r}")
    total, dropped, terms = _psi_parts(float(x), q.series_tail_tol, q.max_terms)
    return EvalResult(value=complex(total), err_estimate=dropped,
                      evaluations=terms, converged=True)


def big_theta(v: float, q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """Theta(v) = 1 + 2 psi(v) (the full two-sided Gaussian sum)."""
    p = psi(v, q)
    return EvalResult(value=1.0 + 2.0 * p.value,
                      err_estimate=2.0 * p.err_estimate,
                      evaluations=p.evaluations, converged=p.converged)


def jacobi_theta3(z: complex, nome: complex,
                  q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """theta_3(z, nome) = 1 + 2 sum_{n>=1} nome^{n^2} cos(2 pi n z).

    `nome` is the series base (commonly written q); |nome| < 1 is required.
    Complex z is accepted; the cosine growth e^{2 pi n |Im z|} is always
    eventually beaten by the n^2 decay of the nome powers.
    """
    nome = complex(nome)
    if not abs(nome) < 1.0:
        raise DomainError(f"jacobi_theta3 needs |nome| < 1, got |{nome!r}|")
    z = complex(z)
    real_z = z.imag == 0.0 and nome.imag == 0.0

    total = 1.0 + 0.0j
    n = 1
    while n <= q.max_terms:
        qn = nome ** (n * n)
        if real_z:
            term = 2.0 * qn.real * math.cos(2.0 * math.pi * n * z.real)
            bound = 2.0 * abs(qn)
        else:
            term = 2.0 * qn * cmath.cos(2.0 * math.pi * n * z)
            # envelope, not |term|: cos may vanish at isolated n
            grow = 2.0 * math.pi * n * abs(z.imag)
            bound = 2.0 * abs(qn) * (math.exp(grow) if grow < 700.0 else math.inf)
        if bound < q.series_tail_tol * (abs(total) + 1.0):
            return EvalResult(value=total, err_estimate=bound,
                              evaluations=n, converged=True)
        total += term
        n += 1
    raise NonConvergence("jacobi_theta3 hit max_terms", best=total)


def theta_modular_residual(v: float, q: QuadratureSpec = DEFAULT_QUAD) -> float:
    """|Theta(1/v) - sqrt(v) Theta(v)|, the modular-transformation defect."""
    if not v > 0.0:
        raise DomainError(f"theta_modular_residual needs v > 0, got {v!r}")
    lhs = big_theta(1.0 / v, q).value
    rhs = math.sqrt(v) * big_theta(v, q).value
    return abs(lhs - rhs)
