"""Reference values computed away from the package under test.

Every oracle here leans on mpmath at 30 significant digits (or on sympy
symbolics for the hyperbolic ladder); nothing imports zetalab.  Frozen
constants in the test modules were produced by

    python3 tests/oracles.py

which also regenerates tests/fixtures/*.json, so any suspicious number can
be re-derived on demand.  The Euler-Maclaurin oracle `em_zeta` is written
directly from the textbook remainder formula -- independently of both the
package's quadrature route and of mpmath.zeta -- because the continuation
checks need a reference that shares no code path with either side.
"""

from __future__ import annotations

import json
import math
import os

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


def zero_ref(n: int) -> float:
    return float(mp.im(mp.zetazero(n)))


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
    """integral_0^inf psi(x) e^{-lam(x + 1/x)} x^{s/2-1} dx by mp.quad."""
    sm, lm = mp.mpc(s), mp.mpf(lam)

    def f(x):
        return _psi_mp(x) * mp.exp(-lm * (x + 1 / x)) * x ** (sm / 2 - 1)

    lo = float(lm)
    inner = [lo * r for r in (0.1, 1.0, 10.0)] if lo < 0.05 else []
    points = [0] + inner + [0.05, 0.3, 1, 3, 10, mp.inf]
    return to_complex(_quad_split(f, points))


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


def approx_fe_ref(s, x, y):
    """Two-sum value and its true error against mp.zeta."""
    sm = mp.mpc(s)
    head = mp.nsum(lambda n: n ** (-sm), [1, int(math.floor(x))], method="direct")
    dual = mp.nsum(lambda n: n ** (sm - 1), [1, int(math.floor(y))],
                   method="direct")
    value = head + mp.mpc(chi_ref(s)) * dual
    return to_complex(value), float(abs(value - mp.zeta(sm)))


# ---------------------------------------------------------------------------
# fixture regeneration + frozen table
# ---------------------------------------------------------------------------


def _write_fixture(name: str, payload: dict) -> None:
    os.makedirs(FIXTURE_DIR, exist_ok=True)
    path = os.path.join(FIXTURE_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
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


def regenerate_approx_fe(t=30.0) -> dict:
    x = math.sqrt(t / (2.0 * math.pi))
    value, err = approx_fe_ref(complex(0.5, t), x, x)
    return {"sigma": 0.5, "t": t, "x": x, "y": x,
            "value_re": value.real, "value_im": value.imag,
            "observed_error": err,
            "scale_x_pow_minus_sigma": x ** -0.5}


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


def main() -> None:
    _write_fixture("quarter_alpha_verdict.json", regenerate_quarter_alpha())
    _write_fixture("resolvent_ratio.json", regenerate_resolvent_ratio())
    _write_fixture("approx_fe_constant.json", regenerate_approx_fe())
    _write_fixture("completed_exp_ray.json", regenerate_completed_exp_ray())

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
        ("laplace_h3(1, 0.7) closed", laplace_h3_closed(1.0, 0.7)),
        ("besselk(0.5, 2)", besselk_ref(0.5, 2.0)),
        ("besselk(0.3+2j, 1)", besselk_ref(complex(0.3, 2.0), 1.0)),
        ("besselk(1.5636, 92.4)", besselk_ref(1.5636, 92.4)),
        ("besselk(0.3, 700)", besselk_ref(0.3, 700.0)),
    ]
    print("\nfrozen values:")
    for name, value in frozen:
        print(f"  {name} = {value!r}")


if __name__ == "__main__":
    main()
