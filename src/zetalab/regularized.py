"""Damped (regularized) zeta values and the objects built on top of them.

The central quantity is the completed integral

    completed(s; h) = int_0^inf psi(x) h(x) x^(s/2 - 1) dx,

where psi is the Gaussian lattice sum and h a symmetric cutoff.  For the
exponential cutoff h = exp(-lam (x + 1/x)) the same object has a
Bessel-series form and a boundary form assembled from four explicit
pieces; all three routes are exposed and must agree, which the test suite
exercises heavily.

`zeta_regularized`, `omega`, `xi_lambda` and the exp-symmetric functional
equation take that value from `_completed_exp`, which picks the cheaper of
two routes by one constant, _RAY_LAM = 5:

* ray quadrature for real lam < 5, and for every real lam once
  |t| > 100 (t = Im s), where the series stops early, 0.56-1.0 off at
  t = 150 against the ray's 1e-14, and reports converged=False;
* the Bessel series everywhere else, complex lam included.

The series needs about 18.4 / sqrt(pi lam) terms, each a Bessel K, so its
cost grows like lam^(-1/2): at lam = 1e-4, s = 0.4 + 20i it takes ~174k
evaluations where the ray takes ~6k.  With the cutoff's peak taken out
of the quadrature (`_completed_quadrature`), rows of three sigma at lam
in [0.5, 4.9] held the series' digits on the ray for |t| <= 100, in
0.3-26 ms against the series' 0.9-100 ms: cheaper for lam <= 2, within
1.1x for lam > 2 (1.7x on a cold angle).  Above lam = 5 the ray loses digits
(5.6e-14 relative at lam = 10, t = 20; 5e-9 at lam = 20), so 5 serves
every t (CHANGES.md).

Every quadrature route evaluates a row at a time: the s values that share
a cutoff and a contour -- both sides of a functional equation, the sigma
values of a grid row at one (t, lam) -- take their completed values from
one `integrate_powers` pass over (0, inf), since only x^(s/2-1) changes
with s.  Each value is bit-identical to a pass of its own.  For real lam
the exp-symmetric integrand is real on the real axis, so the ray of t
also serves -t, as completed(conj s) = conj completed(s): at 1 - s and s
a verify is one pass, and its asymptote K values are taken once per
order up to sign and conjugation (`_k_once`).
`_completed_exp`, `_zeta_regularized_row`, `_xi_lambda_row` and
`_omega_row` are the row forms; the public functions are their one-s case.
The node factor that depends on neither s nor lam sits in a column beside
the quadrature's rows (`quadrature.column_rows`) and is computed once a
node per process: psi on the real axis (`theta.psi_rows`), and psi - G on
the ray, kept for the last _RAY_THETAS angles (`_ray_rows`), so the
lambdas of a grid row and the sides of a verify job share it.  The cutoff
h(x) is the other factor, on either contour.

Why a ray: on the real axis the integral is of size ~e^{-pi |t| / 4}
while its integrand is of order one, so it loses about e^{pi |t| / 4} to
cancellation (2e-9 relative at t = 20).  The integrand is analytic for
Re x > 0, so the contour can turn to x = r e^{i theta} with theta close to
sign(t) pi/2, where the saddles are; the smallness e^{-theta t / 2} then
comes out as an explicit factor, the same contour shift that
`bessel._shifted_route` makes for K.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import replace

from .bessel import bessel_k, bessel_k_complex_arg
from .cutoffs import CutoffSpec, ExpSymmetric, NoCutoff
from .errors import DomainError, NonConvergence
from .gammafn import power_real_base, rgamma
from .quadrature import column_rows, integrate, integrate_powers
from .theta import PSI_REACH, _psi_complex_remainder, _psi_raw, psi_rows
from .types import (DEFAULT_QUAD, EvalResult, QuadratureSpec, RegZetaValue,
                    make_result, sum_pieces)
from .zeta_classic import zeta_series

_MIN_SERIES_TERMS = 3
# Each series term rounds by up to (2 + |z_n|) eps |term|, as K's exponent
# z cosh x does: 32 eps |value| at lam = 30 (z_1 = 63), s = 0.3 + 14i.
_SERIES_ROUNDING = sys.float_info.epsilon

# Route rule for the exp-symmetric completed value at real lam > 0: the ray
# quadrature below lam = _RAY_LAM, the Bessel series above (measured
# crossover, module docstring).
_RAY_LAM = 5.0
# Above this |Im s| the Bessel series is not trusted, and real lam takes the ray.
_SERIES_MAX_T = 100.0
# c in the ray margin delta = c / (|t|/2): the conditioning loss is ~e^c;
# 3 and 4 give the same digits, 4 fewer levels at large |t|.
_RAY_MARGIN = 4.0
# The ray pass's rounding, unseen by its levels (16 eps |value| at t = 70).
_RAY_ROUNDING = math.exp(_RAY_MARGIN) * sys.float_info.epsilon


def _require_positive_real(lam, what: str) -> float:
    lamc = complex(lam)
    if lamc.imag != 0.0 or not lamc.real > 0.0:
        raise DomainError(f"{what} needs real lam > 0, got {lam!r}")
    return lamc.real


def _completed_series(s: complex, lam: complex, q: QuadratureSpec) -> EvalResult:
    """S(s) = sum_n 2 (lam/(lam+n^2 pi))^(s/4) K_{s/2}(2 sqrt(lam^2 + lam n^2 pi)).

    Terms decay like exp(-2 n sqrt(pi lam)), so the truncation rule
    |term| < series_tail_tol * |partial sum| is honest up to |Im s| = 100.
    Above that height the sum settles on a wrong value (0.56-1.0 relative
    error at Im s = 150), and the result reports converged=False.

    The cause is an early stop: while z_n = 2 sqrt(lam (lam + n^2 pi)) is
    below about |s| = 2|nu|, the K terms oscillate instead of decaying.
    Measured at s = 0.5 + 150i against tests/fixtures/completed_exp_high_t.json,
    without that converged=False gate: a tail test that waits for
    n >= |s/2| / (2 sqrt(pi lam)) still leaves the sum 7.9e-2 off at
    lam = 0.05 and 8.2e-3 off at lam = 1, both with converged=True; waiting
    for n >= |s/2| / sqrt(pi lam) brings it to 1.7e-14 and 1.5e-14, with
    err_estimate 1.9e-13 and 4.5e-14 relative (ROADMAP item 7).

    That guard could replace the gate for real lam only.  At s = 0.5 + 150i,
    lam = 0.5 + 0.2i the guarded sum returns 5.3e-19 + 1.0e-18i (estimate
    1.4e-19) against 2.1e-50 + 1.4e-50i from mpmath: its K terms at order
    0.25 + 75i and |z_n| in [2.8, 7.9] come back near 1e-16 against true
    values near 1e-45, each converged=True.  Only the gate reports that
    value as converged=False.  For real lam above |Im s| = 100 the ray is
    also the cheaper route up to lam of about 1-2, so that clause of
    _completed_exp is a cost rule as well.
    """
    s = complex(s)
    lamc = complex(lam)
    if not lamc.real > 0.0:
        raise DomainError(f"bessel series needs Re lam > 0, got {lam!r}")
    nu = 0.5 * s

    total = 0.0 + 0.0j
    err = 0.0
    evals = 0
    for n in range(1, q.max_terms + 1):
        shifted = lamc + (n * n) * math.pi
        coef = 2.0 * cmath.exp(0.25 * s * cmath.log(lamc / shifted))
        z = 2.0 * cmath.sqrt(lamc * shifted)
        k = bessel_k_complex_arg(nu, z, q)
        term = coef * k.value
        total += term
        err += (abs(coef) * k.err_estimate
                + _SERIES_ROUNDING * (2.0 + abs(z)) * abs(term))
        evals += k.evaluations
        if n >= _MIN_SERIES_TERMS and abs(term) < q.series_tail_tol * max(abs(total), 1e-30):
            result = make_result(total, err + abs(term), evals, q)
            if abs(s.imag) > _SERIES_MAX_T:
                return replace(result, converged=False)
            return result
    raise NonConvergence(
        f"bessel series for completed zeta did not settle within {q.max_terms} terms "
        f"(lam = {lam!r})", best=total, err_estimate=err)


def _asymptote_integral(s: complex, lam: float, q: QuadratureSpec,
                        ks: dict) -> EvalResult:
    """int_0^inf G(x) e^{-lam(x+1/x)} x^(s/2-1) dx, G = (x^(-1/2) - 1) e^{-pi x}/2.

    Both halves of G are Laplace pairs with beta = lam, gamma = lam + pi:
    r^((s-1)/4) K_{(s-1)/2}(z) - r^(s/4) K_{s/2}(z), r = lam/(lam+pi),
    z = 2 sqrt(lam (lam+pi)).  Converged when both K terms are.  The s of
    one row share lam, and with it z: through the row's dict ks, each K is
    taken once per canonical order of the row (`_k_once`).
    """
    shifted = lam + math.pi
    z = 2.0 * math.sqrt(lam * shifted)
    ratio = lam / shifted
    c_odd = power_real_base(ratio, 0.25 * (s - 1.0))
    c_even = power_real_base(ratio, 0.25 * s)
    k_odd = _k_once(0.5 * (s - 1.0), z, q, ks)
    k_even = _k_once(0.5 * s, z, q, ks)
    return sum_pieces([sum_pieces([k_odd], c_odd), sum_pieces([k_even], -c_even)])


def _k_once(nu: complex, z: float, q: QuadratureSpec, ks: dict) -> EvalResult:
    """bessel_k(nu, z, q), kept in ks under |Re nu| + i |Im nu| beside the
    order it was computed at.  K_{-nu} = K_nu and K_{conj nu} = conj K_nu
    hold bit for bit on every route of the dispatch, so an order of the same
    key reads the kept value, conjugated where it is the kept order's
    conjugate up to sign (never at a real order, whose value keeps its
    +0.0 imaginary part)."""
    key = complex(abs(nu.real), abs(nu.imag))
    kept = ks.get(key)
    if kept is None:
        k = bessel_k(nu, z, q)
        ks[key] = nu, k
        return k
    first, k = kept
    if nu.imag != 0.0 and ((nu.real < 0.0) != (nu.imag < 0.0)) != (
            (first.real < 0.0) != (first.imag < 0.0)):
        return replace(k, value=k.value.conjugate())
    return k


def _quadrature_support(cutoff: CutoffSpec,
                        theta: float | None = None) -> tuple[float, float]:
    """(lo, hi) outside which `_completed_quadrature`'s integrand is exactly
    0: the cutoff's window, cut at psi's reach (`theta.PSI_REACH`).

    On the ray x = r e^{i theta} (real lam) both are read in r:
    Re(lam (x + 1/x)) = lam cos(theta) (r + 1/r), so the window is that of
    ExpSymmetric(lam cos(theta)), and psi - G vanishes once
    r cos(theta) > PSI_REACH.
    """
    if theta is None:
        window, cos = cutoff, 1.0
    else:
        cos = math.cos(theta)
        window = ExpSymmetric(cutoff.lam * cos)
    lo, hi = window.support()
    return lo, min(hi, PSI_REACH / cos)


# (theta, series_tail_tol, max_terms) -> {level: psi(x) - G(x) at
# x = r e^{i theta}, r the level's rows}, the ray's columns.
# Only the _RAY_THETAS angles used last are kept: a grid row walks its
# lambdas at one t, and a verify job takes both its sides on one angle.
_RAY_COLUMNS: dict[tuple, dict[int, list]] = {}
_RAY_THETAS = 4


def _peak_scaled(lam: complex, peak: complex, rot: complex = 1.0):
    """h(r) = e^{peak - lam (x + 1/x)} at x = r rot, the exp-symmetric
    cutoff over its peak e^{-peak}; 0 where Re(lam (x + 1/x)) > 745, as the
    cutoff is (`cutoffs._damped_exp`), so its zeros are those
    `_quadrature_support` marks.  On the real axis rot = 1.0 and x is r
    bit for bit."""
    def h(r: float) -> complex:
        x = r * rot
        w = lam * (x + 1.0 / x)
        return 0j if w.real > 745.0 else cmath.exp(peak - w)

    return h


def _ray_rows(h, theta: float, q: QuadratureSpec):
    """The by-row base of the ray x = r e^{i theta} (`integrate_powers`):
    at(i, r) = (psi(x) - G(x)) h(r), h the cutoff at x, psi - G read from
    the angle's column (`quadrature.column_rows`), computed there once a
    node per process and only where h(r) != 0."""
    key = theta, q.series_tail_tol, q.max_terms
    levels = _RAY_COLUMNS.pop(key, {})
    _RAY_COLUMNS[key] = levels  # the most recent angle last
    if len(_RAY_COLUMNS) > _RAY_THETAS:
        del _RAY_COLUMNS[next(iter(_RAY_COLUMNS))]
    rot = cmath.exp(1j * theta)
    tol, terms = q.series_tail_tol, q.max_terms
    return column_rows(
        levels, 0.0, lambda r: _psi_complex_remainder(r * rot, tol, terms), h)


def _completed_quadrature(s_values, cutoff: CutoffSpec, q: QuadratureSpec,
                          theta: float | None = None) -> list[EvalResult]:
    """[completed(s; h) for s in s_values], by one exp-sinh pass over (0,inf).

    The values share that pass (`integrate_powers`): psi h is evaluated once
    a node and only x^(s/2-1) changes with s, so each value is bit for bit
    what a pass of its own gives; the node columns are the module
    docstring's.

    theta = None integrates psi h x^(s/2-1) along the real axis, for any
    cutoff.  A float theta, |theta| < pi/2, is the exp-symmetric ray route
    (an ExpSymmetric cutoff with real lam > 0): the contour turns to
    x = r e^{i theta}, where the integrand is analytic and decays, and the
    integrand is psi - G with G psi's small-x asymptote
    (`_psi_complex_remainder`), whose own integral `_asymptote_integral` is
    added back in closed form.  Without G the e^{-lam/x} edge at x ~ lam
    carries a mass that grows like lam^{-(1 - sigma)/2} and costs digits
    and levels.  On the ray x^(s/2-1) dx = r^(s/2-1) e^{i theta s/2} dr;
    the constant factor e^{i theta s/2}, of size e^{-theta t/2}, stays out
    of the integrand and multiplies the sum, and so does the cutoff's peak
    e^{-2 lam cos(theta)} (ExpSymmetric's on the real axis too), so the
    quadrature accepts on the scale of what it integrates; unscaled, the
    ray accepted on the 1e-12 abs_tol floor 5e-9 off at lam = 10.  The ray
    value is the rotated pass, its estimate widened by its rounding
    (_RAY_ROUNDING), plus the closed form, summed by `sum_pieces`, which
    asks no fresh tolerance test.  Both walks skip the nodes outside
    `_quadrature_support`.
    """
    s_values = [complex(s) for s in s_values]
    half_exps = [0.5 * s - 1.0 for s in s_values]

    support = _quadrature_support(cutoff, theta)
    if theta is None and not isinstance(cutoff, ExpSymmetric):
        return integrate_powers(psi_rows(q, factor=cutoff.value), half_exps, q, support)
    if theta is None:
        peak = 2.0 * complex(cutoff.lam)
        rows = psi_rows(q, factor=_peak_scaled(cutoff.lam, peak))
        return [sum_pieces([r], cmath.exp(-peak))
                for r in integrate_powers(rows, half_exps, q, support)]

    lam = _require_positive_real(cutoff.lam, "the ray route")
    peak = 2.0 * lam * math.cos(theta)
    rows = []
    ks: dict = {}
    for s, ray in zip(s_values, integrate_powers(
            _ray_rows(_peak_scaled(lam, peak, cmath.exp(1j * theta)), theta,
                      q), half_exps, q, support)):
        ray = sum_pieces([ray], cmath.exp(0.5j * theta * s - peak))
        rounding = EvalResult(0j, _RAY_ROUNDING * abs(ray.value), 0, True)
        rows.append(sum_pieces([ray, rounding, _asymptote_integral(s, lam, q, ks)]))
    return rows


def _ray_angle(t: float) -> float:
    """theta = sign(t) (pi/2 - delta), delta = min(pi/2, c / (|t|/2)), t != 0.

    Both saddles of the integrand -- of e^{-pi x} x^{s/2} near x = s/(2 pi)
    and of its modular image near x = 2 pi i / t -- sit on the ray arg x =
    sign(t) pi/2 for large |t|.  Stopping delta short of it leaves a decay
    e^{-pi r sin(delta)} along the ray and a conditioning loss of about
    e^{c} instead of the real axis's e^{pi |t| / 4}.  For |t| <= 4c/pi the
    real axis already loses no more than that, and theta is 0.
    """
    delta = min(0.5 * math.pi, _RAY_MARGIN / (0.5 * abs(t)))
    return math.copysign(0.5 * math.pi - delta, t)


def _completed_exp(s_row, lam, q: QuadratureSpec) -> tuple[list[EvalResult], str]:
    """completed(s; e^{-lam(x+1/x)}) for each s of s_row by the cheaper route,
    with the route name.

    The s of a row share |Im s|, so they share the route: real lam below
    _RAY_LAM = 5 (the measured crossover, module docstring), or any real
    lam once |Im s| > 100, takes the ray quadrature, as one batch (the
    real axis at Im s = 0); complex lam and everything else takes the
    Bessel series, one s at a time.  Callers have checked Re lam > 0.

    For real lam the integrand is real on the real axis, so
    completed(conj s) = conj completed(s): the batch runs on the contour of
    s_row[0], and an s whose Im s has the other sign (1 - s beside s in a
    verify) is integrated there as conj s and its value conjugated, bit for
    bit what its own contour gives.  At Im s = 0 nothing is conjugated.
    """
    s_row = [complex(s) for s in s_row]
    lamc = complex(lam)
    t = s_row[0].imag
    if any(abs(s.imag) != abs(t) for s in s_row):
        raise DomainError("the s of one row must share Im s up to its sign")
    if lamc.imag == 0.0 and (lamc.real < _RAY_LAM or abs(t) > _SERIES_MAX_T):
        theta = _ray_angle(t) if t != 0.0 else None
        far = [s.imag != t for s in s_row]
        rows = _completed_quadrature(
            [s.conjugate() if f else s for s, f in zip(s_row, far)],
            ExpSymmetric(lamc.real), q, theta)
        return ([replace(r, value=r.value.conjugate()) if f else r
                 for r, f in zip(rows, far)], "quadrature")
    return [_completed_series(s, lamc, q) for s in s_row], "bessel-series"


def _reg_value(s: complex, completed: EvalResult, route: str) -> RegZetaValue:
    """The RegZetaValue of a completed value taken by `route`.

    completed = pi^(-s/2) Gamma(s/2) zeta_h(s), so bare divides the prefactor out.
    """
    s = complex(s)
    bare = completed.value * power_real_base(math.pi, 0.5 * s) * rgamma(0.5 * s)
    return RegZetaValue(s=s, completed=completed, bare=bare, representation=route)


def _zeta_regularized_row(s_row, cutoff: CutoffSpec,
                          q: QuadratureSpec) -> list[RegZetaValue]:
    """`zeta_regularized` at each s of s_row, which share Im s when the
    cutoff is ExpSymmetric; the completed values come from one row call."""
    s_row = [complex(s) for s in s_row]
    if isinstance(cutoff, ExpSymmetric):
        completed, route = _completed_exp(s_row, cutoff.lam, q)
    else:
        for s in s_row:
            if isinstance(cutoff, NoCutoff) and not s.real > 1.0:
                raise DomainError(
                    f"the undamped integral needs Re s > 1, got s = {s}")
        completed, route = _completed_quadrature(s_row, cutoff, q), "quadrature"
    return [_reg_value(s, c, route) for s, c in zip(s_row, completed)]


def zeta_regularized(s: complex, cutoff: CutoffSpec,
                     q: QuadratureSpec = DEFAULT_QUAD) -> RegZetaValue:
    """Cutoff-damped zeta value, returned as completed + bare pair.

    The exponential-symmetric cutoff takes the cheaper of the ray
    quadrature and the Bessel series (`_completed_exp`), and
    `representation` names the one taken; every other kind is integrated
    directly along the real axis.
    With no cutoff the defining integral only converges for Re s > 1.
    """
    return _zeta_regularized_row([s], cutoff, q)[0]


def zeta_exp_bessel_series(s: complex, lam: complex,
                           q: QuadratureSpec = DEFAULT_QUAD) -> RegZetaValue:
    """Bessel-series route for the exponential-symmetric cutoff, Re lam > 0.

    Always the series, whatever `zeta_regularized` would pick: the explicit
    cross-check of the routed value.
    """
    return _reg_value(s, _completed_series(s, lam, q), "bessel-series")


def _damped_edge(lam_r: float, weight: float, p: complex,
                 p_minus: complex | None = None):
    """The (0,1) edge integrand x -> weight e^{-lam_r (x + 1/x)} x^p.

    With p_minus given, x^p becomes x^p - x^p_minus (both edge terms).  It
    is 0 outside `_edge_support(lam_r)`.
    """
    def f(x: float) -> complex:
        damp = lam_r * (x + 1.0 / x)
        if damp > 745.0:
            return 0.0
        power = power_real_base(x, p)
        if p_minus is not None:
            power = power - power_real_base(x, p_minus)
        return weight * math.exp(-damp) * power

    return f


def _edge_support(lam_r: float) -> tuple[float, float]:
    """(lo, 1): the edge and bulk integrands cut e^{-lam_r (x + 1/x)} to 0
    past 745 as `ExpSymmetric` does, so they are 0 below its window."""
    return ExpSymmetric(lam_r).support()[0], 1.0


def boundary_i1(s: complex, lam, q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """(1/2) int_0^1 e^{-lam(x+1/x)} x^((s-3)/2) dx."""
    s = complex(s)
    lam_r = _require_positive_real(lam, "boundary_i1")
    return integrate(_damped_edge(lam_r, 0.5, 0.5 * (s - 3.0)), (0.0, 1.0), q,
                     _edge_support(lam_r))


def boundary_i2(s: complex, lam, q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """-(1/2) int_0^1 e^{-lam(x+1/x)} x^((s-2)/2) dx."""
    s = complex(s)
    lam_r = _require_positive_real(lam, "boundary_i2")
    return integrate(_damped_edge(lam_r, -0.5, 0.5 * (s - 2.0)), (0.0, 1.0), q,
                     _edge_support(lam_r))


def zeta_exp_boundary_form(s: complex, lam,
                           q: QuadratureSpec = DEFAULT_QUAD) -> RegZetaValue:
    """Boundary form of completed(s; lam): two (0,1) integrals plus S(s) + S(1-s).

    The split makes the s <-> 1-s symmetry visible term by term, which is
    exactly what makes it a useful independent route.  As for the ray
    quadrature, the result is converged only when every piece is; unlike
    it, the summed estimate must also pass the spec's tolerance.
    """
    s = complex(s)
    lam_r = _require_positive_real(lam, "zeta_exp_boundary_form")
    edge = _damped_edge(lam_r, 0.5, 0.5 * (s - 3.0), 0.5 * (s - 2.0))

    def bulk(x: float) -> complex:
        damp = lam_r * (x + 1.0 / x)
        if damp > 745.0:
            return 0.0
        ps = _psi_raw(x, q.series_tail_tol, q.max_terms)
        if ps == 0.0:
            return 0.0
        return -ps * math.exp(-damp) * (power_real_base(x, 0.5 * (s - 2.0))
                                        + power_real_base(x, -0.5 * (s + 1.0)))

    support = _edge_support(lam_r)
    pieces = sum_pieces([integrate(edge, (0.0, 1.0), q, support),
                         integrate(bulk, (0.0, 1.0), q, support),
                         _completed_series(s, lam_r, q),
                         _completed_series(1.0 - s, lam_r, q)])
    completed = make_result(pieces.value, pieces.err_estimate, pieces.evaluations, q)
    if not pieces.converged:
        completed = replace(completed, converged=False)
    return _reg_value(s, completed, "boundary-form")


def smooth_F(s: complex, lam, q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """F(s, lam) = sum_n n^(-s) exp(-lam pi n^2).

    lam = 0 falls back to the plain Dirichlet series (Re s > 1 only);
    any damping with Re lam > 0 makes the sum entire in s.
    """
    s = complex(s)
    lamc = complex(lam)
    if lamc == 0.0:
        return zeta_series(s, q)
    if not lamc.real > 0.0:
        raise DomainError(f"smooth_F needs Re lam >= 0 (and > 0 unless lam == 0), "
                          f"got {lam!r}")
    # |terms| can grow like n^(-Re s) before the Gaussian bites; do not
    # test the tail rule until past that turnover.
    n_guard = 2 + int(math.sqrt(max(0.0, -s.real) / (2.0 * math.pi * lamc.real)))
    total = 0.0 + 0.0j
    small_run = 0
    for n in range(1, q.max_terms + 1):
        damp = lamc * (math.pi * n * n)
        if damp.real > 745.0:
            term = 0.0 + 0.0j
        else:
            term = cmath.exp(-damp - s * math.log(n))
        total += term
        if n >= n_guard and abs(term) < q.series_tail_tol * (abs(total) + 1.0):
            small_run += 1
            if small_run >= 2:
                return make_result(total, abs(term) + q.series_tail_tol * abs(total),
                                   n, q)
        else:
            small_run = 0
    raise NonConvergence(
        f"smooth_F series did not settle within {q.max_terms} terms (lam = {lam!r})",
        best=total, err_estimate=abs(total))


def abcd_terms(s: complex, lam, q: QuadratureSpec = DEFAULT_QUAD):
    """The four pieces of pi^(-s/2) Gamma(s/2) F(s, lam) after shifting x -> t + lam.

    A: tail integral of psi against t^(s/2-1) from 1;
    B: the reflected (0,1) piece carrying psi(1/(t+lam));
    C: the exact pole term -1/s;
    D: half the bare (0,1) power integral.
    Returns (A, B, C, D) as EvalResults; C costs nothing and is exact.
    """
    s = complex(s)
    lamc = complex(lam)
    if lamc.imag != 0.0 or lamc.real < 0.0:
        raise DomainError(f"abcd_terms needs real lam >= 0, got {lam!r}")
    lam_r = lamc.real
    if not s.real > 0.0:
        raise DomainError(f"abcd_terms needs Re s > 0, got s = {s}")
    if lam_r == 0.0 and not s.real > 1.0:
        raise DomainError("abcd_terms with lam = 0 needs Re s > 1 "
                          "(the D piece diverges otherwise)")

    def f_a(t: float) -> complex:
        ps = _psi_raw(t + lam_r, q.series_tail_tol, q.max_terms)
        if ps == 0.0:
            return 0.0
        return ps * power_real_base(t, 0.5 * s - 1.0)

    def f_b(t: float) -> complex:
        u = t + lam_r
        ps = _psi_raw(1.0 / u, q.series_tail_tol, q.max_terms)
        if ps == 0.0:
            return 0.0
        return ps * power_real_base(t, 0.5 * s - 1.0) / math.sqrt(u)

    def f_d(t: float) -> complex:
        return 0.5 * power_real_base(t, 0.5 * s - 1.0) / math.sqrt(t + lam_r)

    a = integrate(f_a, (1.0, math.inf), q)
    b = integrate(f_b, (0.0, 1.0), q)
    c = EvalResult(value=-1.0 / s, err_estimate=0.0, evaluations=0, converged=True)
    d = integrate(f_d, (0.0, 1.0), q)
    return a, b, c, d


def pde_residual_F(s: complex, lam, h_step: float,
                   q: QuadratureSpec = DEFAULT_QUAD) -> float:
    """|d/dlam F(s, lam) + pi F(s-2, lam)| with a centered difference.

    The heat-flow identity says the true value is 0; the centered stencil
    leaves an O(h^2) remainder, which is what callers probe by halving h.
    """
    s = complex(s)
    lam_r = _require_positive_real(lam, "pde_residual_F")
    if not (h_step > 0.0 and h_step < lam_r):
        raise DomainError(f"pde_residual_F needs 0 < h_step < lam, got {h_step!r}")
    plus = smooth_F(s, lam_r + h_step, q).value
    minus = smooth_F(s, lam_r - h_step, q).value
    deriv = (plus - minus) / (2.0 * h_step)
    coupled = smooth_F(s - 2.0, lam_r, q).value
    return abs(deriv + math.pi * coupled)


def _xi_lambda_row(s_row, lam, q: QuadratureSpec) -> list[EvalResult]:
    """`xi_lambda` at each s of s_row (sharing Im s), from one row call."""
    s_row = [complex(s) for s in s_row]
    lam_r = _require_positive_real(lam, "xi_lambda")
    # xi vanishes at s = 0, 1, where no completed value is needed
    needed = [s for s in s_row if 0.5 * s * (s - 1.0) != 0.0]
    completed = dict(zip(needed, _completed_exp(needed, lam_r, q)[0]
                         if needed else ()))
    results = []
    for s in s_row:
        pref = 0.5 * s * (s - 1.0)
        if pref == 0.0:
            results.append(EvalResult(value=0.0 + 0.0j, err_estimate=0.0,
                                      evaluations=0, converged=True))
            continue
        c = completed[s]
        if s.imag == 0.0:
            # everything on the real-s path is real arithmetic; keep it exact
            value = complex(pref.real * c.value.real)
        else:
            value = pref * c.value
        results.append(make_result(value, abs(pref) * c.err_estimate,
                                   c.evaluations, q))
    return results


def xi_lambda(s: complex, lam, q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """xi(s, lam) = (1/2) s (s-1) completed(s; lam), entire in s, zero at s = 0, 1."""
    return _xi_lambda_row([s], lam, q)[0]


def _omega_row(s_row, lam, q: QuadratureSpec) -> list[EvalResult]:
    """`omega` at each s of s_row (sharing Im s), from one row call."""
    s_row = [complex(s) for s in s_row]
    lam_r = _require_positive_real(lam, "omega")
    results = []
    for s, completed in zip(s_row, _completed_exp(s_row, lam_r, q)[0]):
        k = bessel_k(0.5 * s, 2.0 * lam_r, q)
        pref = 0.5 * s * (s - 1.0)
        value = pref * (completed.value + k.value)
        err = abs(pref) * (completed.err_estimate + k.err_estimate)
        results.append(make_result(value, err, completed.evaluations
                                   + k.evaluations, q))
    return results


def omega(s: complex, lam, q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """Omega(s, lam) = (1/2) s(s-1) (completed(s; lam) + K_{s/2}(2 lam)).

    Adding the single Bessel term symmetrizes the completed value exactly:
    Omega(s, lam) = Omega(1-s, lam).
    """
    return _omega_row([s], lam, q)[0]
