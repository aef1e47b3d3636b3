"""Reference values computed away from the package under test.

Every oracle here leans on mpmath at 30 significant digits (or on sympy
symbolics for the hyperbolic ladder); nothing imports zetalab.  Frozen
constants in the test modules were produced by

    python3 tests/oracles.py

which also regenerates tests/fixtures/*.json, so any suspicious number can
be re-derived on demand; `python3 tests/oracles.py riemann_siegel` (any
fixture names) rewrites only those fixtures.  The Euler-Maclaurin oracle
`em_zeta` is written directly from the textbook remainder formula --
independently of both the package's quadrature route and of mpmath.zeta --
because the continuation checks need a reference that shares no code path
with either side.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import re
import sys
from fractions import Fraction

import mpmath as mp

mp.mp.dps = 30

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def to_complex(v) -> complex:
    return complex(mp.mpc(v))


# ---------------------------------------------------------------------------
# classical special functions (thin mpmath wrappers, used live in tests)
# ---------------------------------------------------------------------------


def zeta_ref(s) -> complex:
    return to_complex(mp.zeta(mp.mpc(s)))


def gamma_ref(z) -> complex:
    return to_complex(mp.gamma(mp.mpc(z)))


def loggamma_ref(z) -> complex:
    return to_complex(mp.loggamma(mp.mpc(z)))


def besselk_ref(nu, z) -> complex:
    return to_complex(mp.besselk(mp.mpc(nu), mp.mpc(z)))


def psi_ref(x) -> float:
    xm = mp.mpf(x)
    return float(mp.nsum(lambda n: mp.exp(-mp.pi * n * n * xm), [1, mp.inf]))


def big_theta_ref(v) -> float:
    return 1.0 + 2.0 * psi_ref(v)


def theta3_ref(z, nome) -> complex:
    # mpmath's jtheta takes the half-period argument: theta3(z, q) here uses
    # the cos(2 pi n z) convention, which is jtheta(3, pi z, q).
    return to_complex(mp.jtheta(3, mp.pi * mp.mpc(z), mp.mpc(nome)))


def hardy_z_ref(t) -> float:
    return float(mp.siegelz(mp.mpf(t)))


def siegel_theta_ref(t) -> float:
    return float(mp.siegeltheta(mp.mpf(t)))


def fixed_gap_ref(value: int, bits: int, exact) -> float:
    """value / 2^bits - exact(), formed in mpmath at 50 digits: the error of
    a fixed-point number; exact() runs at those digits too."""
    with mp.workdps(50):
        return float(mp.mpf(value) / mp.mpf(2) ** bits - exact())


def siegel_theta_mp(t):
    return mp.siegeltheta(mp.mpf(t))


def log_mp(x):
    return mp.log(mp.mpf(x))


def two_pi_mp():
    return 2 * mp.pi


def zero_ref(n: int) -> float:
    return float(mp.im(mp.zetazero(n)))


def zero_count_ref(t) -> int:
    """Number of zeta zeros with 0 < Im rho <= t."""
    return int(mp.nzeros(mp.mpf(t)))


def chi_ref(s) -> complex:
    sm = mp.mpc(s)
    return to_complex((2 * mp.pi) ** sm / (2 * mp.gamma(sm) * mp.cos(mp.pi * sm / 2)))


def xi_ref(s) -> complex:
    sm = mp.mpc(s)
    return to_complex(sm * (sm - 1) * mp.pi ** (-sm / 2)
                      * mp.gamma(sm / 2) * mp.zeta(sm))


# ---------------------------------------------------------------------------
# standalone Euler-Maclaurin zeta (the independent continuation oracle)
# ---------------------------------------------------------------------------


def em_zeta(s, n_cut: int = 40, k_max: int = 14) -> complex:
    """zeta(s) from the Euler-Maclaurin formula, no library zeta involved.

    Valid for Re s > 1 - 2*k_max; accuracy is limited by the first omitted
    Bernoulli term, which the chosen defaults push far below 1e-20 for
    |Im s| <= 60.
    """
    sm = mp.mpc(s)
    total = mp.nsum(lambda n: n ** (-sm), [1, n_cut], method="direct")
    total += n_cut ** (1 - sm) / (sm - 1) - mp.mpf(0.5) * n_cut ** (-sm)
    rising = sm
    for k in range(1, k_max + 1):
        coeff = mp.bernoulli(2 * k) / mp.factorial(2 * k)
        total += coeff * rising * n_cut ** (1 - sm - 2 * k)
        rising *= (sm + 2 * k - 1) * (sm + 2 * k)
    return to_complex(total)


# ---------------------------------------------------------------------------
# damped completed integrals (expensive; frozen into fixtures, not run live)
# ---------------------------------------------------------------------------


def _psi_sum_mp(x):
    total = mp.mpf(0)
    n = 1
    while True:
        term = mp.exp(-mp.pi * n * n * x)
        total += term
        if term < mp.mpf(10) ** (-40) * (total + 1):
            return total
        n += 1


def _psi_mp(x):
    # the direct sum needs O(x^-1/2) terms; below 1 flip through the modular
    # identity (verified separately against jtheta) to keep the quad oracles
    # from going quadratic at the lower endpoint.
    if x >= 1:
        return _psi_sum_mp(x)
    return -mp.mpf(0.5) + (_psi_sum_mp(1 / x) + mp.mpf(0.5)) / mp.sqrt(x)


def _quad_split(f, points):
    return mp.quad(f, points)


def completed_exp_ref(s, lam) -> complex:
    """integral_0^inf psi(x) e^{-lam(x + 1/x)} x^{s/2-1} dx by mp.quad.

    The factor e^{-2 lam}, the size of the cutoff at its peak x = 1, is taken
    out of the integrand and multiplied back at the end: mp.quad accepts on an
    absolute error, which at lam = 28 left the value (~1e-27) 8e-10 off,
    relative.  On the real axis the integral is ~e^{-pi |t| / 4} while its
    integrand is of order one, so at 30 digits this oracle keeps double
    precision only up to |Im s| of about 40 (at 150 it is off by 1e16,
    relative); `completed_exp_series_ref` has no such limit.
    """
    sm, lm = mp.mpc(s), mp.mpf(lam)

    def f(x):
        return _psi_mp(x) * mp.exp(-lm * (x + 1 / x - 2)) * x ** (sm / 2 - 1)

    lo = float(lm)
    inner = [lo * r for r in (0.1, 1.0, 10.0)] if lo < 0.05 else []
    points = [0] + inner + [0.05, 0.3, 1, 3, 10, mp.inf]
    return to_complex(_quad_split(f, points) * mp.exp(-2 * lm))


def completed_exp_series_ref(s, lam) -> complex:
    """The same integral as sum_n 2 (lam/(lam + pi n^2))^{s/4} K_{s/2}(2 sqrt(lam(lam + pi n^2))).

    Term-by-term Laplace transform of psi against the cutoff: no quadrature
    and no cancellation, so it holds at any height.
    """
    sm, lm = mp.mpc(s), mp.mpf(lam)
    total = mp.mpc(0)
    n = 1
    while True:
        shifted = lm + mp.pi * n * n
        term = 2 * (lm / shifted) ** (sm / 4) * mp.besselk(sm / 2, 2 * mp.sqrt(lm * shifted))
        total += term
        if n > 3 and abs(term) < mp.mpf(10) ** (-28) * abs(total):
            return to_complex(total)
        n += 1


def completed_alpha_ref(s, lam, alpha) -> complex:
    """Same integral with the steeper/flatter cutoff e^{-lam(x^a + x^-a)}."""
    sm, lm, am = mp.mpc(s), mp.mpf(lam), mp.mpf(alpha)

    def f(x):
        return _psi_mp(x) * mp.exp(-lm * (x ** am + x ** (-am))) * x ** (sm / 2 - 1)

    points = [0, 1e-8, 1e-4, 0.01, 0.3, 1, 3, 30, 1e4, 1e6, mp.inf]
    return to_complex(_quad_split(f, points))


def smooth_f_ref(s, lam) -> complex:
    sm, lm = mp.mpc(s), mp.mpc(lam)
    return to_complex(mp.nsum(lambda n: n ** (-sm) * mp.exp(-lm * mp.pi * n * n),
                              [1, mp.inf]))


def boundary_i1_ref(s, lam) -> complex:
    sm, lm = mp.mpc(s), mp.mpf(lam)

    def f(x):
        return mp.exp(-lm * (x + 1 / x)) * x ** ((sm - 3) / 2) / 2

    return to_complex(_quad_split(f, [0, float(lm) / 10, 0.1, 1]))


def boundary_i2_ref(s, lam) -> complex:
    sm, lm = mp.mpc(s), mp.mpf(lam)

    def f(x):
        return -mp.exp(-lm * (x + 1 / x)) * x ** ((sm - 2) / 2) / 2

    return to_complex(_quad_split(f, [0, float(lm) / 10, 0.1, 1]))


def xi_lambda_ref(s, lam) -> complex:
    sm = mp.mpc(s)
    return to_complex(sm * (sm - 1) / 2 * mp.mpc(completed_exp_ref(s, lam)))


def xi_lambda_limit_ref(s, lam) -> complex:
    """s(s-1) sum_n (rho/2 pi n)^{s/2} K_{s/2}(rho n), rho = sqrt(4 pi lam)."""
    sm, lm = mp.mpc(s), mp.mpf(lam)
    rho = mp.sqrt(4 * mp.pi * lm)
    total = mp.mpc(0)
    n = 1
    while True:
        term = (rho / (2 * mp.pi * n)) ** (sm / 2) * mp.besselk(sm / 2, rho * n)
        total += term
        if abs(term) < mp.mpf(10) ** (-35) * max(abs(total), mp.mpf(10) ** -30):
            break
        n += 1
    return to_complex(sm * (sm - 1) * total)


def omega_ref(s, lam) -> complex:
    sm, lm = mp.mpc(s), mp.mpf(lam)
    completed = mp.mpc(completed_exp_ref(s, lam))
    return to_complex(sm * (sm - 1) / 2
                      * (completed + mp.besselk(sm / 2, 2 * lm)))


# ---------------------------------------------------------------------------
# Riemann-Siegel remainder coefficients (Gabcke 1979; Arias de Reyna 2011)
# ---------------------------------------------------------------------------

# C_0..C_12: the first order left out, C_13, adds less than 2e-15 at t = 100
RS_ORDERS = 13


def _rs_f_series(degree: int) -> list:
    """Taylor coefficients of F(z) = (e^{i pi (z^2/2 + 3/8)} - i sqrt2 cos(pi z / 2)) / (2 cos pi z).

    F is even and entire (every zero of the denominator is a zero of the
    numerator); the power-series division grows rounding like 4^n, hence
    the extra working digits of the caller.
    """
    pi = mp.pi
    e38 = mp.expjpi(mp.mpf(3) / 8)
    num = [mp.mpc(0)] * (degree + 1)
    den = [mp.mpf(0)] * (degree + 1)
    for j in range(degree // 2 + 1):
        num[2 * j] = (e38 * (0.5j * pi) ** j / mp.factorial(j)
                      - 1j * mp.sqrt(2) * (-1) ** j * (pi / 2) ** (2 * j)
                      / mp.factorial(2 * j))
        den[2 * j] = 2 * (-1) ** j * pi ** (2 * j) / mp.factorial(2 * j)
    out = []
    for n in range(degree + 1):
        acc = num[n] - sum(den[k] * out[n - k] for k in range(2, n + 1, 2))
        out.append(acc / den[0])
    return out


def _rs_d_table(orders: int) -> dict:
    """Arias de Reyna's d(n, k), n < orders, at sigma = 1/2.

    The recursion of his part II, section 3.17, as mpmath 1.3.0 runs it in
    functions/rszeta.py (Rzeta_simul, mu = 0); its (1 - 2 sigma) term
    vanishes on the critical line.
    """
    d = {(0, 0): mp.mpf(1)}
    for n in range(1, orders):
        for k in range(3 * n // 2 + 1):
            m = 3 * n - 2 * k
            if m:
                d[n, k] = (d.get((n - 1, k), 0) / (4 * m)
                           - (m + 1) * d.get((n - 1, k - 2), 0))
            else:
                d[n, k] = -sum((-1) ** (k - r) * d[n, r] * mp.factorial(2 * k - 2 * r)
                               / mp.factorial(k - r) for r in range(k))
    return d


def rs_coefficient_tables(orders: int = RS_ORDERS, degree: int = 160,
                          cut: float = 1e-20) -> list:
    """Gabcke's C_0..C_{orders-1} as power series in y = (p - 1/2)^2.

    Arias de Reyna writes zeta(1/2 + it) as the main sum plus
    (-1)^(N-1) a^(-1/2) e^(-i h(t)) sum_n T_n(z) a^(-n), with a = sqrt(t / 2 pi),
    p = frac(a), z = 1 - 2p, h(t) = t/2 log(t / 2 pi) - t/2 - pi/8 and

        T_n(z) = sum_k d(n, k) F^(3n - 2k)(z) / (pi^(2n - k) (2i)^k).

    Z = 2 Re e^(i theta) zeta and theta = h + eps, eps(t) being the Stirling
    tail sum_j (1 - 2^(1-2j)) |B_2j| / (4j (2j - 1) t^(2j-1)), so with
    e^(i eps) = sum_j e_j a^(-j) (t = 2 pi a^2) the real remainder series has
    C_n = 2 Re sum_j e_j T_(n-j).  C_n(p) = x^(n mod 2) sum_j c_j y^j with
    x = p - 1/2; each series stops at the first term below `cut` on
    |x| <= 1/2.  For n <= 4 this reproduces Gabcke's closed forms in the
    derivatives of Psi(p) = cos 2pi(p^2 - p - 1/16) / cos 2pi p bit for bit.
    """
    with mp.workdps(200):
        pi = mp.pi
        f = _rs_f_series(degree)
        d = _rs_d_table(orders)

        def t_series(n):
            out = [mp.mpc(0)] * (degree + 1)
            for k in range(3 * n // 2 + 1):
                m = 3 * n - 2 * k
                w = d[n, k] / (pi ** (2 * n - k) * (2j) ** k)
                for i in range(degree + 1 - m):
                    # x^i coefficient of F^(m)(z) at z = -2x
                    out[i] += w * mp.ff(i + m, m) * f[i + m] * (-2) ** i
            return out

        series_t = [t_series(n) for n in range(orders)]
        eps = [mp.mpf(0)] * orders
        for j in range(1, (orders + 1) // 4 + 1):
            eps[4 * j - 2] = ((1 - mp.mpf(2) ** (1 - 2 * j)) * abs(mp.bernoulli(2 * j))
                              / (4 * j * (2 * j - 1) * (2 * pi) ** (2 * j - 1)))
        e = [mp.mpc(1)]
        for n in range(1, orders):
            e.append(1j * sum(k * eps[k] * e[n - k] for k in range(1, n + 1)) / n)
        tables = []
        for n in range(orders):
            row = []
            for i in range(n % 2, degree + 1, 2):
                c = 2 * mp.re(sum(e[j] * series_t[n - j][i] for j in range(n + 1)))
                if abs(c) * mp.mpf(0.5) ** i < cut and i > 10:
                    break
                row.append(float(c))
            else:
                raise ArithmeticError(f"C_{n} needs a series longer than {degree}")
            tables.append(row)
        return tables


def theta_tail_coefficients(count: int) -> list:
    """(1 - 2^(1-2k)) |B_2k| / (4k (2k-1)), k = 1..count, as exact Fractions
    from mpmath's Bernoulli numbers: the coefficients of t^(1-2k) in the
    asymptotic series of theta (Edwards, Riemann's Zeta Function, 1974)."""
    return [(1 - Fraction(1, 2 ** (2 * k - 1))) * abs(Fraction(*mp.bernfrac(2 * k)))
            / (4 * k * (2 * k - 1)) for k in range(1, count + 1)]


def theta_series_mp(t, terms: int):
    """theta's asymptotic series at t in mpmath, `terms` tail terms and
    atan(e^(-pi t))/2 included; mp.siegeltheta minus this is what the
    series leaves out."""
    t = mp.mpf(t)
    tail = sum(mp.mpf(c.numerator) / c.denominator / t ** (2 * k - 1)
               for k, c in enumerate(theta_tail_coefficients(terms), start=1))
    return (t / 2 * mp.log(t / (2 * mp.pi)) - t / 2 - mp.pi / 8 + tail
            + mp.atan(mp.exp(-mp.pi * t)) / 2)


# lowest height where the scan uses the Riemann-Siegel sign (a >= 1, N >= 1)
RS_T_MIN = 2 * math.pi
# lowest height where hardy_z takes the Riemann-Siegel sum in extra precision
RS_HARDY_T_MIN = 100.0
# indices n of the zeros the refinement test pins, at heights 14, 1000, 5000
RS_ZERO_INDICES = (1, 649, 4519)
# Lehmer's pair near t = 7005.08: two zeros 0.038 apart, one grid step of 0.05
LEHMER_PAIR_INDICES = (6709, 6710)


def regenerate_riemann_siegel(n_points: int = 500, n_high: int = 200,
                              seed: int = 20261018) -> dict:
    """Coefficient tables, Z(t) at seeded log-uniform heights, zeros.

    "z" holds n_points heights in [RS_T_MIN, 1e4] and "z_high" n_high more
    in [RS_HARDY_T_MIN, 1e6], drawn after them from the same generator.
    mp.siegelz takes 5-70 ms a point at 30 digits below 1e4 and up to
    0.3 s near 1e6, too slow to run live.
    """
    rng = random.Random(seed)

    def draw(count, t_lo, t_hi):
        lo, hi = math.log(t_lo), math.log(t_hi)
        return [[t, hardy_z_ref(t)]
                for t in (math.exp(rng.uniform(lo, hi)) for _ in range(count))]

    return {"coefficients": rs_coefficient_tables(),
            "z": draw(n_points, RS_T_MIN, 1e4),
            "z_high": draw(n_high, RS_HARDY_T_MIN, 1e6),
            "zeros": [[n, zero_ref(n)] for n in RS_ZERO_INDICES],
            "lehmer_pair": [[n, zero_ref(n)] for n in LEHMER_PAIR_INDICES]}


# hardy_z heights far above riemann_siegel.json's 1e6
HARDY_Z_EXTREME_T = (1e9, 1e10, 1e11, 1e12)


def regenerate_hardy_z_extreme() -> dict:
    """mp.siegelz at 35 digits at HARDY_Z_EXTREME_T (2.9 s at 1e12)."""
    with mp.workdps(35):
        return {"z": [[t, float(mp.siegelz(mp.mpf(t)))]
                      for t in HARDY_Z_EXTREME_T]}


# (lam, s) above the height where the package's Bessel series broke down
HIGH_T_POINTS = ((0.05, complex(0.5, 150.0)), (1.0, complex(0.5, 150.0)))


def regenerate_completed_exp_high_t() -> dict:
    """completed_exp_series_ref at HIGH_T_POINTS (1-4 s each, so frozen)."""
    rows = []
    for lam, s in HIGH_T_POINTS:
        value = completed_exp_series_ref(s, lam)
        rows.append({"lam": lam, "s_re": s.real, "s_im": s.imag,
                     "completed_re": value.real, "completed_im": value.imag})
    return {"completed": rows}


def regenerate_completed_exp_real_axis(n_points: int = 100, seed: int = 15) -> dict:
    """completed_exp_series_ref at real s in [-1.5, 3], lam log-uniform in
    [0.005, 0.5]: the real-axis quadrature's rows, where the integrand is
    positive and the error is the rounding of its sum."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n_points):
        s = rng.uniform(-1.5, 3.0)
        lam = math.exp(rng.uniform(math.log(0.005), math.log(0.5)))
        rows.append({"lam": lam, "s": s,
                     "completed": completed_exp_series_ref(s, lam).real})
    return {"completed": rows}


# rows of three sigma on both sides of the ray/series crossover in lam, from
# the real axis to the top of damped-grid's heights; then below it up to the
# series' last trusted height, t = 30 and 70 where the ray's estimate once
# fell short of its rounding
CROSSOVER_LAMS = (0.5, 1.0, 2.0, 5.0, 10.0)
CROSSOVER_TS = (0.0, 5.0, 14.0, 20.0)
CROSSOVER_HIGH_LAMS = (0.5, 2.0, 4.9)
CROSSOVER_HIGH_TS = (30.0, 50.0, 70.0, 100.0)
CROSSOVER_SIGMAS = (0.1, 0.5, 0.9)


def regenerate_completed_exp_crossover() -> dict:
    """completed_exp_series_ref at 40 digits for every (lam, t, sigma) of
    CROSSOVER_LAMS x CROSSOVER_TS and CROSSOVER_HIGH_LAMS x
    CROSSOVER_HIGH_TS, each with CROSSOVER_SIGMAS."""
    grid = ([(lam, t) for lam in CROSSOVER_LAMS for t in CROSSOVER_TS]
            + [(lam, t) for lam in CROSSOVER_HIGH_LAMS for t in CROSSOVER_HIGH_TS])
    rows = []
    with mp.workdps(40):
        for lam, t in grid:
            for sigma in CROSSOVER_SIGMAS:
                value = completed_exp_series_ref(complex(sigma, t), lam)
                rows.append({"lam": lam, "s_re": sigma, "s_im": t,
                             "completed_re": value.real,
                             "completed_im": value.imag})
    return {"completed": rows}


# ---------------------------------------------------------------------------
# diffusion oracles
# ---------------------------------------------------------------------------


def resolvent_quad_ref(alpha, r, d) -> float:
    am, rm, dm = mp.mpf(alpha), mp.mpf(r), mp.mpf(d)

    def f(t):
        return (4 * mp.pi * t) ** (-dm / 2) * mp.exp(-(am * t + rm * rm / (4 * t)))

    return float(mp.quad(f, [0, 0.01, 0.1, 1, 10, mp.inf]))


def resolvent_bessel_ref(alpha, r, d) -> float:
    am, rm, dm = mp.mpf(alpha), mp.mpf(r), mp.mpf(d)
    nu = (dm - 2) / 2
    root = mp.sqrt(2 * am)
    return float(2 * (2 * mp.pi) ** (-nu) * (root / rm) ** nu
                 * mp.besselk(nu, root * rm))


def hyperbolic_kernel_ref(t, rho, d: int) -> float:
    """Odd-d hyperbolic kernel via symbolic (1/sinh) d/drho ladder (sympy)."""
    import sympy as sp

    m = (d - 1) // 2
    T, R = sp.symbols("T R", positive=True)
    expr = sp.exp(-m**2 * T - R**2 / (4 * T))
    for _ in range(m):
        expr = sp.diff(expr, R) / sp.sinh(R)
    expr = (sp.Integer(-1) ** m / (2 * sp.pi) ** m
            / sp.sqrt(4 * sp.pi * T) * expr)
    return float(expr.subs({T: sp.Float(t, 30), R: sp.Float(rho, 30)}).evalf(30))


def laplace_h3_closed(alpha, rho) -> float:
    am, rm = mp.mpf(alpha), mp.mpf(rho)
    return float(mp.exp(-rm * mp.sqrt(1 + am)) / (4 * mp.pi * mp.sinh(rm)))


def laplace_h3_ref(alpha, rho) -> complex:
    """H^3's Laplace transform e^{-rho sqrt(1+alpha)} / (4 pi sinh rho) at
    complex alpha, Re alpha > -1 (`laplace_h3_closed` takes real alpha)."""
    am, rm = mp.mpc(alpha), mp.mpf(rho)
    return to_complex(mp.exp(-rm * mp.sqrt(1 + am)) / (4 * mp.pi * mp.sinh(rm)))


def resolvent_k_ref(alpha, r, d) -> complex:
    """The time-integral form of the flat resolvent by its K closed form,
    (4 pi)^(-d/2) 2 (beta/alpha)^(nu/2) K_nu(2 sqrt(beta alpha)) with
    nu = 1 - d/2 and beta = r^2/4, at complex alpha, Re alpha > 0.
    `resolvent_quad_ref` integrates the same kernel with mp.quad, which
    loses it at large r."""
    am, dm = mp.mpc(alpha), mp.mpf(d)
    nu, beta = 1 - dm / 2, mp.mpf(r) ** 2 / 4
    return to_complex((4 * mp.pi) ** (-dm / 2) * 2 * (beta / am) ** (nu / 2)
                      * mp.besselk(nu, 2 * mp.sqrt(beta * am)))


# ---------------------------------------------------------------------------
# fixture regeneration + frozen table
# ---------------------------------------------------------------------------


def _write_fixture(name: str, payload: dict, compact_rows: bool = False) -> None:
    """Write payload as JSON; compact_rows puts each list of numbers on one line."""
    os.makedirs(FIXTURE_DIR, exist_ok=True)
    path = os.path.join(FIXTURE_DIR, name)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if compact_rows:
        text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                      lambda m: "[" + ", ".join(v.strip() for v in m.group(1).split(","))
                      + "]", text)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"wrote {path}")


def regenerate_quarter_alpha(s=0.3, lam=0.8) -> dict:
    lhs = (mp.mpc(completed_alpha_ref(1 - s, lam, 0.25))
           - mp.mpc(completed_alpha_ref(s, lam, 0.25)))
    base = (1 - 2 * mp.mpf(s)) / mp.mpf(lam) * mp.besselk(1 - 2 * mp.mpf(s),
                                                          2 * mp.mpf(lam))
    res_plus2 = float(abs(lhs - 2 * base))
    res_minus4 = float(abs(lhs + 4 * base))
    verdict = "-4" if res_minus4 < res_plus2 else "+2"
    return {
        "s": s,
        "lam": lam,
        "lhs_re": float(mp.re(lhs)),
        "residual_prefactor_plus2": res_plus2,
        "residual_prefactor_minus4": res_minus4,
        "supported_prefactor": verdict,
    }


def regenerate_resolvent_ratio(alpha=0.9) -> dict:
    rows = []
    for d in (1.0, 2.5, 3.0):
        for r in (0.5, 1.0, 2.0):
            ratio = resolvent_bessel_ref(alpha, r, d) / resolvent_quad_ref(
                2 * alpha, r, d)
            rows.append({"d": d, "r": r, "ratio": ratio})
    return {"alpha": alpha, "expected": float(4 * mp.pi), "rows": rows}


# (lam, s) where the exp-symmetric completed value takes the ray quadrature:
# small lam, both signs of Im s, and the real axis
RAY_POINTS = ((1e-4, complex(0.4, 20.0)), (3e-3, complex(0.4, 12.0)),
              (0.03, complex(0.7, 5.0)), (1e-3, complex(0.3, 0.0)),
              (3e-3, complex(0.4, -12.0)))


def regenerate_completed_exp_ray() -> dict:
    """completed_exp_ref at RAY_POINTS, plus omega at a large-lam real point.

    omega(0.3, 20) is ~e^{-40}: the point where an absolute tolerance floor
    in the real-order Bessel K route used to cost three digits.
    """
    rows = []
    for lam, s in RAY_POINTS:
        value = completed_exp_ref(s, lam)
        rows.append({"lam": lam, "s_re": s.real, "s_im": s.imag,
                     "completed_re": value.real, "completed_im": value.imag})
    om = omega_ref(0.3, 20.0)
    return {"completed": rows,
            "omega": [{"s": 0.3, "lam": 20.0,
                       "value_re": om.real, "value_im": om.imag}]}


# item 9 of ROADMAP.md: 4.2e-4 relative on the cosh-route trapezoid
BESSEL_SERIES_WORST = (complex(-2.99, -27.97), complex(0.270, 0.077))


def regenerate_bessel_series(n_points: int = 80, seed: int = 14) -> dict:
    """mpmath K_nu(z) at 40 digits where complex orders take the ascending series.

    Re nu in [-3, 3], |Im nu| log-uniform in [0.05, 40] with either sign,
    |z| <= 2 (uniform in the disc's area), |arg z| <= 1.2, every other
    point on the real axis; plus BESSEL_SERIES_WORST.
    """
    rng = random.Random(seed)
    points = []
    for i in range(n_points):
        b = math.exp(rng.uniform(math.log(0.05), math.log(40.0)))
        nu = complex(rng.uniform(-3.0, 3.0), rng.choice((-1.0, 1.0)) * b)
        r = max(2.0 * math.sqrt(rng.random()), 1e-3)
        z = complex(r) if i % 2 == 0 else cmath.rect(r, rng.uniform(-1.2, 1.2))
        points.append((nu, z))
    points.append(BESSEL_SERIES_WORST)
    rows = []
    with mp.workdps(40):
        for nu, z in points:
            k = complex(mp.besselk(mp.mpc(nu), mp.mpc(z)))
            rows.append({"nu_re": nu.real, "nu_im": nu.imag, "z_re": z.real,
                         "z_im": z.imag, "k_re": k.real, "k_im": k.imag})
    return {"points": rows}


# far from the origin of the heat side, where the e^{-beta/x - gamma x}
# integrands peak below abs_tol: H^3's transform and the flat resolvent, and
# K recovered from the Laplace pair
LAPLACE_FAR_H3_RHOS = (10.0, 20.0, 30.0, 100.0, 250.0)
LAPLACE_FAR_H3_ALPHAS = (-0.5, 1.0, 10.0, complex(-0.5, 10.0), complex(2.0, 20.0))
LAPLACE_FAR_RS = (10.0, 30.0, 60.0, 200.0)
LAPLACE_FAR_DS = (2.5, 3.0, 4.0)
LAPLACE_FAR_ALPHAS = (0.5, 2.0, complex(1.0, 0.5))
LAPLACE_FAR_K = ((1.5, 80.0), (complex(0.25, 0.5), 30.0))


def regenerate_laplace_pair_far() -> dict:
    """`laplace_h3_ref`, `resolvent_k_ref` and mpmath's K at 40 digits on
    the LAPLACE_FAR_* grids, leaving out every point whose value is not a
    normal double."""
    def normal(value):
        return abs(value) >= sys.float_info.min

    with mp.workdps(40):
        h3 = [(alpha, rho, laplace_h3_ref(alpha, rho))
              for rho in LAPLACE_FAR_H3_RHOS for alpha in LAPLACE_FAR_H3_ALPHAS]
        flat = [(alpha, r, d, resolvent_k_ref(alpha, r, d))
                for r in LAPLACE_FAR_RS for d in LAPLACE_FAR_DS
                for alpha in LAPLACE_FAR_ALPHAS]
        k = [(nu, z, to_complex(mp.besselk(mp.mpc(nu), mp.mpf(z))))
             for nu, z in LAPLACE_FAR_K]
    return {
        "laplace_h3": [{"alpha_re": complex(a).real, "alpha_im": complex(a).imag,
                        "rho": rho, "value_re": v.real, "value_im": v.imag}
                       for a, rho, v in h3 if normal(v)],
        "resolvent_quad": [{"alpha_re": complex(a).real,
                            "alpha_im": complex(a).imag, "r": r, "d": d,
                            "value_re": v.real, "value_im": v.imag}
                           for a, r, d, v in flat if normal(v)],
        "bessel_k_from_laplace": [{"nu_re": complex(nu).real,
                                   "nu_im": complex(nu).imag, "z": z,
                                   "value_re": v.real, "value_im": v.imag}
                                  for nu, z, v in k if normal(v)],
    }


# fixture file -> (generator, one list of numbers a line)
FIXTURES = {
    "quarter_alpha_verdict.json": (regenerate_quarter_alpha, False),
    "resolvent_ratio.json": (regenerate_resolvent_ratio, False),
    "completed_exp_ray.json": (regenerate_completed_exp_ray, False),
    "riemann_siegel.json": (regenerate_riemann_siegel, True),
    "hardy_z_extreme.json": (regenerate_hardy_z_extreme, True),
    "completed_exp_high_t.json": (regenerate_completed_exp_high_t, False),
    "bessel_k_series.json": (regenerate_bessel_series, False),
    "completed_exp_real_axis.json": (regenerate_completed_exp_real_axis, False),
    "completed_exp_crossover.json": (regenerate_completed_exp_crossover, False),
    "laplace_pair_far.json": (regenerate_laplace_pair_far, False),
}


def _print_frozen() -> None:
    frozen = [
        ("psi(1)", psi_ref(1.0)),
        ("big_theta(1)", big_theta_ref(1.0)),
        ("zeta(1/2)", zeta_ref(0.5).real),
        ("zeta(3)", zeta_ref(3.0).real),
        ("xi(1/2)", xi_ref(0.5).real),
        ("zeros 1..6", [zero_ref(n) for n in range(1, 7)]),
        ("em_zeta(0) check", em_zeta(0.0)),
        ("em_zeta(-1) check", em_zeta(-1.0)),
        ("em_zeta(0.5+30j) vs mp", abs(em_zeta(complex(0.5, 30.0))
                                       - zeta_ref(complex(0.5, 30.0)))),
        ("completed_exp(2, 1)", completed_exp_ref(2.0, 1.0)),
        ("completed_exp(0.5+7j, 0.5)", completed_exp_ref(complex(0.5, 7.0), 0.5)),
        ("completed_exp(2, 1e-6)", completed_exp_ref(2.0, 1e-6)),
        ("smooth_F(0, 1)", smooth_f_ref(0.0, 1.0)),
        ("smooth_F(2.5, 0.3)", smooth_f_ref(2.5, 0.3)),
        ("smooth_F(0.5+3j, 1.2)", smooth_f_ref(complex(0.5, 3.0), 1.2)),
        ("boundary_i1(0.7, 0.9)", boundary_i1_ref(0.7, 0.9)),
        ("boundary_i2(0.7, 0.9)", boundary_i2_ref(0.7, 0.9)),
        ("xi_lambda(2, 1e-4)", xi_lambda_ref(2.0, 1e-4)),
        ("xi_limit(2, 1e-4)", xi_lambda_limit_ref(2.0, 1e-4)),
        ("xi_lambda(2, 1e-2)", xi_lambda_ref(2.0, 1e-2)),
        ("xi_limit(2, 1e-2)", xi_lambda_limit_ref(2.0, 1e-2)),
        ("omega(0.4, 1e-2)", omega_ref(0.4, 1e-2)),
        ("omega(0.4, 1e-3)", omega_ref(0.4, 1e-3)),
        ("h3 kernel(1, 0.7) ladder", hyperbolic_kernel_ref(1.0, 0.7, 3)),
        ("h5 kernel(0.7, 1.1) ladder", hyperbolic_kernel_ref(0.7, 1.1, 5)),
        ("h7 kernel(0.1, 0.2) ladder", hyperbolic_kernel_ref(0.1, 0.2, 7)),
        ("h9 kernel(1.3, 2.5) ladder", hyperbolic_kernel_ref(1.3, 2.5, 9)),
        ("laplace_h3(1, 0.7) closed", laplace_h3_closed(1.0, 0.7)),
        ("besselk(0.5, 2)", besselk_ref(0.5, 2.0)),
        ("besselk(0.3+2j, 1)", besselk_ref(complex(0.3, 2.0), 1.0)),
        ("besselk(1.5636, 92.4)", besselk_ref(1.5636, 92.4)),
        ("besselk(0.3, 700)", besselk_ref(0.3, 700.0)),
    ]
    print("\nfrozen values:")
    for name, value in frozen:
        print(f"  {name} = {value!r}")


def main(argv: list[str]) -> None:
    """Rewrite the fixtures named in argv (file name, .json optional).

    With no name, rewrite every fixture and print the frozen values.
    """
    names = [a if a.endswith(".json") else a + ".json" for a in argv]
    unknown = [n for n in names if n not in FIXTURES]
    if unknown:
        raise SystemExit(f"unknown fixture {', '.join(unknown)}; "
                         f"choose from {', '.join(FIXTURES)}")
    for name in names or FIXTURES:
        generate, compact_rows = FIXTURES[name]
        _write_fixture(name, generate(), compact_rows=compact_rows)
    if not names:
        _print_frozen()


if __name__ == "__main__":
    main(sys.argv[1:])
