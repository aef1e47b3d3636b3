"""Classical Riemann zeta machinery.

Two independent evaluation routes:

* `zeta_series` — Dirichlet sum with an Euler-Maclaurin tail (Re s > 1 only);
* `zeta_analytic` — the theta-integral continuation

      pi^{-s/2} Gamma(s/2) zeta(s)
          = 1/(s(s-1)) + integral_1^inf psi(x)(x^{(s-2)/2} + x^{-(s+1)/2}) dx,

  valid on all of C minus s = 1. Written with reciprocal gammas,

      zeta(s) = pi^{s/2} [ rgamma(s/2 + 1) / (2(s-1)) + rgamma(s/2) I(s) ],

  which makes zeta(0) = -1/2 and the trivial zeros exact (rgamma vanishes at
  the right spots) instead of 0*inf fights.

The theta integral is manifestly symmetric and superb near the real axis, but
extracting bare zeta from it divides by Gamma(s/2) ~ e^{-pi|t|/4}: the 1e-18
absolute noise in 1/(s(s-1)) + I(s) is amplified by e^{pi|t|/4}, which already
costs seven digits at t = 40. double precision cannot buy that back, so for
|Im s| > 10 `zeta_analytic` switches to the Euler-Maclaurin sum, which the
extended coefficient table keeps near machine accuracy there.

On top of those: the chi factor of the asymmetric functional equation, the
entire xi function, Hardy's Z with its gamma phase, the two-sum approximate
functional equation, and a sign-scan zero finder on the critical line.

The zero finder reads Z from the Riemann-Siegel formula (about
sqrt(t / 2 pi) terms plus Gabcke's remainder series, against 16 + 1.5 t for
Euler-Maclaurin) wherever |Z| clears the formula's error bound, so the sign
it takes there is certified.  That holds for grid points and refinement
steps alike; every other point, and both ends of every bracket, evaluate
`hardy_z`.  The brackets are therefore those of an Euler-Maclaurin scan, and
each refined zero lies between two points whose signs are certified.

The Dirichlet sums of Euler-Maclaurin and of the two-sum value run over a
table of log n kept for the life of the process, term for term the float
operations of `power_real_base`.
"""

from __future__ import annotations

import cmath
import math
from array import array
from itertools import islice

from .errors import DomainError, PoleError
from .gammafn import _log_sin, log_gamma_complex, power_real_base, rgamma
from .quadrature import integrate
from .theta import _psi_raw
from .types import (DEFAULT_QUAD, EvalResult, QuadratureSpec, ZeroBracket,
                    make_result)

_LOG_PI = math.log(math.pi)
_LOG_TWO = math.log(2.0)
_LOG_TWO_PI = math.log(2.0 * math.pi)

# B_{2k}/(2k)! for the Euler-Maclaurin tail
_EM_COEFFS = (
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30240.0,
    -1.0 / 1209600.0,
    1.0 / 47900160.0,
    -691.0 / 1307674368000.0,
    1.0 / 74724249600.0,
    -3617.0 / 10670622842880000.0,
    43867.0 / 5109094217170944000.0,
    -174611.0 / 802857662698291200000.0,
    77683.0 / 14101100039391805440000.0,
    -236364091.0 / 1693824136731743669452800000.0,
)

# Riemann-Siegel remainder coefficients C_0..C_4 (Gabcke 1979) as power
# series in y = (p - 1/2)^2, p = frac(sqrt(t / 2 pi)); C_1 and C_3 carry one
# more factor p - 1/2.  Written by tests/oracles.py:rs_coefficient_tables
# from exact series arithmetic in mpmath; dropped terms are < 1e-20.
_RS_COEFFS = (
    (0.3826834323650898, 1.7489618723100817, 2.118025207685496,
     -0.8707216670511481, -3.4733112243465167, -1.6626947308999325,
     1.216731288919232, 1.3014304161007977, 0.03051102182736167,
     -0.3755803051545095, -0.1085784416564066, 0.051832902999549624,
     0.029999480619902277, -0.0022759396706125644, -0.004382647416580339,
     -0.0004064230183729847, 0.0004006097785422114, 8.971057991388841e-05,
     -2.3025650027239108e-05, -9.380006601906792e-06, 6.323514947609108e-07,
     6.551022819231502e-07),
    (-0.053650205256750697, 0.11027818741081483, 1.2317200154315227,
     1.2634964862799458, -1.695108997559503, -2.9998711967650102,
     -0.10819944959899208, 1.9407662946212714, 0.7838423561500687,
     -0.5054829667900366, -0.38450723496057976, 0.03747264646531532,
     0.09092026610973176, 0.01044923755006451, -0.012582979651583417,
     -0.003399503721151274, 0.0010410950537714891, 0.0005010949051118486,
     -3.956359669003182e-05, -4.7624592453571896e-05,
     -1.8539355338085133e-06, 3.1936918080068973e-06,
     4.0907807608506065e-07),
    (0.005188542830293168, 0.0012378633552253898, -0.18137505725166997,
     0.14291492748532125, 1.3303391766687565, 0.3522472353403734,
     -2.421001595891951, -1.6760787022538108, 1.3689416723328371,
     1.5539019430222982, -0.1722164273472998, -0.6359068055045431,
     -0.09911649873041208, 0.14033480067387008, 0.04782352019827292,
     -0.017356040641479782, -0.010225012534028593, 0.0009274149159794888,
     0.0013572194372373386, 6.41369012029388e-05, -0.0001230080569819663,
     -1.83135074047892e-05, 7.821628604322627e-06, 2.0087542484759946e-06),
    (-0.0026794321814389136, 0.02995372109103515, -0.042570172541828696,
     -0.28997965779803886, 0.4888831999235446, 1.230855876395746,
     -0.8297560708527408, -2.249763536666567, 0.07845139961005472,
     1.7467492800868893, 0.45968080979749937, -0.6619353471039775,
     -0.31590441036173633, 0.12844792545207495, 0.10073382716626152,
     -0.009530183848825268, -0.019264421687514088, -0.001246463715876929,
     0.0024243969641103086, 0.000437647697741857, -0.00020714032687001792,
     -6.274344504186516e-05, 1.157534381459567e-05, 5.88385492454038e-06),
    (0.00046483389361763383, -0.004022642946136188, 0.003847177051796127,
     0.06581175135809486, -0.19604124343694448, -0.20854053686358853,
     0.9507754185141751, 0.5341535312914873, -1.67634944117634,
     -1.076747157875129, 1.235339301656597, 1.0257825340057276,
     -0.40124095793988546, -0.5036663995108304, 0.03573487795502745,
     0.14431763086785418, 0.01509152741790347, -0.026098874779194363,
     -0.006126628379519262, 0.003077503129870841, 0.0011562478934088753,
     -0.00022775966758472127, -0.00014189637118181445,
     7.4648603079559195e-06, 1.2479701645409117e-05),
)

# The scan reads Riemann-Siegel signs from t >= 2 pi (a = sqrt(t / 2 pi) >= 1,
# so the main sum has a term).  It costs 0.01-0.02 ms there against
# 0.05-0.1 ms for Euler-Maclaurin Z at t = 10..100 and ~0.5 ms for the
# theta integral below 10, so no height where the formula applies favours
# Euler-Maclaurin.
_RS_T_MIN = 2.0 * math.pi
# Bound on |Z_RS - Z|: truncation after C_4 (~1e-4 a^(-11/2) measured) plus
# rounding in t log n (~7e-15 t measured), each taken 20 times over.
_RS_TRUNC = 2e-3
_RS_ROUND = 2e-13
# Width of the sign-change bracket the refinement leaves around each zero.
_ZERO_TOL = 1e-8

# With twelve correction terms the remainder carries N^{-(Re s + 23)}, so the
# sum stays usable well left of the critical strip; past that we reflect.
_EM_SIGMA_FLOOR = -2.0


# _LOG_N[n] = log n (entry 0 unused), grown on demand by _dirichlet_sum; its
# entries never change once written, so every caller may share it.
_LOG_N = array("d", [0.0])


def _dirichlet_sum(n_top: int, w: complex) -> complex:
    """sum_{n=1}^{n_top} n^w for complex w, summed in order of n.

    Each term is exp(w log n), the same float operations as
    `power_real_base(n, w)`, so the sum is bit-equal to a loop over it.
    """
    logs = _LOG_N
    if len(logs) <= n_top:
        logs.extend(map(math.log, range(len(logs), n_top + 1)))
    exp = cmath.exp
    total = 0j
    for log_n in islice(logs, 1, n_top + 1):
        total += exp(w * log_n)
    return total


def _euler_maclaurin(s: complex, q: QuadratureSpec) -> EvalResult:
    """zeta(s) by direct sum to N ~ |Im s| plus Bernoulli corrections."""
    n_cut = 16 + int(1.5 * abs(s.imag))
    total = _dirichlet_sum(n_cut, -s)

    ninv = power_real_base(n_cut, -s)
    total += ninv * n_cut / (s - 1.0) - 0.5 * ninv

    # correction terms B_{2k}/(2k)! * s(s+1)...(s+2k-2) * N^{-s-2k+1}
    rising = s
    scale = ninv * n_cut  # N^{1-s}; each k divides by N^2
    err = abs(ninv)
    n2 = float(n_cut * n_cut)
    for k, c in enumerate(_EM_COEFFS, start=1):
        scale = scale / n2
        term = c * rising * scale
        new_err = abs(term)
        if new_err > err and k > 1:
            break  # asymptotic turnaround; keep the smaller bound
        total += term
        rising = rising * (s + (2 * k - 1)) * (s + 2 * k)
        err = new_err
        if new_err < 1e-18 * abs(total):
            break
    return make_result(total, err, n_cut + len(_EM_COEFFS), q)


def zeta_series(s: complex, q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """zeta(s) for Re s > 1 by direct sum plus Euler-Maclaurin tail."""
    s = complex(s)
    if not s.real > 1.0:
        raise DomainError(f"zeta_series needs Re s > 1, got {s!r}")
    return _euler_maclaurin(s, q)


def _tail_integral(s: complex, q: QuadratureSpec) -> EvalResult:
    """I(s) = integral_1^inf psi(x) (x^{(s-2)/2} + x^{-(s+1)/2}) dx.

    Manifestly symmetric under s -> 1-s; decays like e^{-pi x}, so the
    half-line engine sees an entire, rapidly vanishing integrand.
    """
    s = complex(s)
    a = 0.5 * (s - 2.0)
    b = -0.5 * (s + 1.0)

    def f(x: float) -> complex:
        p = _psi_raw(x, q.series_tail_tol, q.max_terms)
        if p == 0.0:
            return 0.0
        return p * (power_real_base(x, a) + power_real_base(x, b))

    return integrate(f, (1.0, math.inf), q)


def zeta_analytic(s: complex, q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """zeta(s) everywhere except the pole.

    Theta-integral continuation near the real axis; Euler-Maclaurin once
    |Im s| > 10 (see the module docstring for why the integral route cannot
    hold its accuracy there), reflecting through chi when Re s is far left.
    """
    s = complex(s)
    if abs(s - 1.0) <= 1e-12:
        raise PoleError("zeta has its only pole at s = 1")
    if abs(s.imag) > 10.0:
        if s.real >= _EM_SIGMA_FLOOR:
            return _euler_maclaurin(s, q)
        dual = _euler_maclaurin(1.0 - s, q)
        chi = chi_factor(s)
        return make_result(chi * dual.value, abs(chi) * dual.err_estimate,
                           dual.evaluations, q)
    tail = _tail_integral(s, q)
    pis = power_real_base(math.pi, 0.5 * s)
    value = pis * (rgamma(0.5 * s + 1.0) / (2.0 * (s - 1.0))
                   + rgamma(0.5 * s) * tail.value)
    err = abs(pis * rgamma(0.5 * s)) * tail.err_estimate
    return make_result(value, err, tail.evaluations, q)


def chi_factor(s: complex) -> complex:
    """chi(s) = (2 pi)^s / (2 Gamma(s) cos(pi s / 2)), with zeta = chi * zeta(1-s).

    Integer s mixes Gamma poles with cosine zeros; the contract simply rejects
    every integer except the positive even ones (where the formula is plainly
    finite). Some excluded points are removable in the limit, but keeping the
    rule uniform keeps the caller's obligations simple.

    log chi is summed first and exponentiated once: cos(pi s / 2) and
    1/Gamma(s) each overflow once pi |t| / 2 passes ~710, while chi stays of
    modest size.  Re s < 1/2 reflects to
    chi = (2 pi)^s sin(pi s / 2) Gamma(1 - s) / pi, so Lanczos always sees an
    argument with real part >= 1/2.
    """
    s = complex(s)
    if s.imag == 0.0 and s.real == math.floor(s.real):
        n = int(s.real)
        if not (n > 0 and n % 2 == 0):
            raise PoleError(f"chi_factor rejects integer s = {n} "
                            "(Gamma pole or cos zero)")
    if s.real < 0.5:
        log_chi = (_log_sin(0.5 * math.pi * s) + log_gamma_complex(1.0 - s)
                   - _LOG_PI)
    else:
        # cos(pi s / 2) = sin(pi s / 2 + pi / 2)
        log_chi = -(_log_sin(0.5 * math.pi * (s + 1.0)) + log_gamma_complex(s)
                    + _LOG_TWO)
    return cmath.exp(s * _LOG_TWO_PI + log_chi)


def xi_entire(s: complex, q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """xi(s) = s(s-1) pi^{-s/2} Gamma(s/2) zeta(s) = 1 + s(s-1) I(s); entire."""
    s = complex(s)
    tail = _tail_integral(s, q)
    pref = s * (s - 1.0)
    return make_result(1.0 + pref * tail.value,
                       abs(pref) * tail.err_estimate, tail.evaluations, q)


def riemann_siegel_theta(t: float) -> float:
    """Phase theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi."""
    t = float(t)
    if t == 0.0:
        return 0.0
    lg = log_gamma_complex(0.25 + 0.5j * t)
    return lg.imag - 0.5 * t * _LOG_PI


def hardy_z(t: float, q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """Hardy's Z(t) = e^{i theta(t)} zeta(1/2 + it).

    Real-valued in exact arithmetic; the imaginary part is kept in the result
    as an honest noise indicator. Z(0) = zeta(1/2) < 0 fixes the branch.
    """
    t = float(t)
    zv = zeta_analytic(0.5 + 1j * t, q)
    phase = cmath.exp(1j * riemann_siegel_theta(t))
    return EvalResult(value=phase * zv.value, err_estimate=zv.err_estimate,
                      evaluations=zv.evaluations, converged=zv.converged)


def approx_functional_sum(s: complex, x: float, y: float,
                          q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """Two-sum approximate functional equation value at s.

    sum_{n<=x} n^{-s} + chi(s) sum_{n<=y} n^{s-1}, requiring x y = t/(2 pi).
    The err_estimate is the honestly *observed* |sum - zeta(s)| against the
    analytic route, not the paper's unspecified O-constants, so `converged`
    says whether the asymptotic sums happen to meet the working tolerance.
    """
    s = complex(s)
    sigma, t = s.real, s.imag
    if not (0.0 <= sigma < 1.0):
        raise DomainError(f"needs 0 <= Re s < 1, got {sigma!r}")
    if not t > 0.0:
        raise DomainError(f"needs Im s > 0, got {t!r}")
    if not (x >= 1.0 and y >= 1.0):
        raise DomainError("both sum lengths must be >= 1")
    if abs(x * y - t / (2.0 * math.pi)) > 1e-9:
        raise DomainError(f"x*y must equal Im s / 2 pi, got x*y = {x * y!r}")

    total = _dirichlet_sum(int(math.floor(x)), -s)
    dual = _dirichlet_sum(int(math.floor(y)), s - 1.0)
    value = total + chi_factor(s) * dual

    reference = zeta_analytic(s, q)
    err = abs(value - reference.value)
    evals = int(math.floor(x)) + int(math.floor(y)) + reference.evaluations
    return make_result(value, err, evals, q)


def _z_riemann_siegel(t: float) -> float:
    """Hardy's Z(t) by the Riemann-Siegel formula, t >= 2 pi.

    2 sum_{n <= N} n^(-1/2) cos(theta(t) - t log n) plus the remainder
    (-1)^(N-1) a^(-1/2) sum_{k <= 4} C_k(p) a^(-k), a = sqrt(t / 2 pi),
    N = floor(a), p = a - N.  Its error is below `_rs_bound(t)`.
    """
    a = math.sqrt(t / (2.0 * math.pi))
    n_top = int(a)
    theta = riemann_siegel_theta(t)
    main = 0.0
    for n in range(1, n_top + 1):
        main += math.cos(theta - t * math.log(n)) / math.sqrt(n)
    x = a - n_top - 0.5
    y = x * x
    rem = 0.0
    scale = 1.0
    for k, coeffs in enumerate(_RS_COEFFS):
        ck = 0.0
        for c in reversed(coeffs):
            ck = ck * y + c
        if k % 2:
            ck *= x
        rem += ck * scale
        scale /= a
    if n_top % 2 == 0:
        rem = -rem
    return 2.0 * main + rem / math.sqrt(a)


def _rs_bound(t: float) -> float:
    """Error bound of `_z_riemann_siegel` at t >= 2 pi."""
    return _RS_TRUNC * (t / (2.0 * math.pi)) ** -2.75 + _RS_ROUND * t


def _illinois(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Midpoint of a sign-change bracket of f, no wider than _ZERO_TOL.

    Regula falsi with the Illinois rule: when the same end survives twice,
    its function value is halved, so both ends close in.  Each new point is
    kept a quarter tolerance inside the bracket, which closes it as soon as
    the secant lands within that distance of an end.
    """
    side = 0
    while hi - lo > _ZERO_TOL:
        x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        x = min(max(x, lo + 0.25 * _ZERO_TOL), hi - 0.25 * _ZERO_TOL)
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (f_lo < 0.0):
            lo, f_lo = x, fx
            if side == -1:
                f_hi *= 0.5
            side = -1
        else:
            hi, f_hi = x, fx
            if side == 1:
                f_lo *= 0.5
            side = 1
    return 0.5 * (lo + hi)


def find_zeros(t_min: float, t_max: float, step: float,
               q: QuadratureSpec = DEFAULT_QUAD) -> list[ZeroBracket]:
    """Zeros of Hardy's Z on [t_min, t_max]: sign scan on a grid, then refinement.

    The grid runs from t_min in steps of `step`, the last one clamped to
    t_max.  At a point t >= 2 pi whose Riemann-Siegel value clears its
    error bound, that value is taken; anywhere else Z comes from `hardy_z`
    (Euler-Maclaurin above |t| = 10).  A sign change between two grid
    points is re-checked with `hardy_z` at both ends, whose values become
    z_lo and z_hi, and refined by the Illinois method on the same rule to a
    sign-change bracket no wider than 1e-8, whose midpoint is refined_t.
    The brackets are exactly those of a scan that evaluates `hardy_z` at
    every grid point; above t = 1000 a zero costs about three `hardy_z`
    calls, the two bracket ends and the step that lands inside the bound.
    """
    if not t_min < t_max:
        raise DomainError(f"needs t_min < t_max, got [{t_min!r}, {t_max!r}]")
    if not (0.0 < step <= 1.0):
        raise DomainError(f"step must lie in (0, 1], got {step!r}")

    def z_em(t: float) -> float:
        return hardy_z(t, q).value.real

    def z_certified(t: float) -> tuple[float, bool]:
        """Z(t) with a certified sign, and whether it came from hardy_z."""
        if t >= _RS_T_MIN:
            z = _z_riemann_siegel(t)
            if abs(z) > _rs_bound(t):
                return z, False
        return z_em(t), True

    brackets: list[ZeroBracket] = []
    t_lo = float(t_min)
    z_lo, em_lo = z_certified(t_lo)
    while t_lo < t_max:
        t_hi = min(t_lo + step, float(t_max))
        z_hi, em_hi = z_certified(t_hi)
        if z_lo * z_hi < 0.0:
            if not em_lo:
                z_lo, em_lo = z_em(t_lo), True
            if not em_hi:
                z_hi, em_hi = z_em(t_hi), True
            if z_lo * z_hi < 0.0:
                root = _illinois(lambda t: z_certified(t)[0],
                                 t_lo, t_hi, z_lo, z_hi)
                brackets.append(ZeroBracket(t_lo=t_lo, t_hi=t_hi, z_lo=z_lo,
                                            z_hi=z_hi, refined_t=root))
        t_lo, z_lo, em_lo = t_hi, z_hi, em_hi
    return brackets
