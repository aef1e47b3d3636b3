"""Acceptance gate: one test (and one pass/fail line under -v) per criterion.

Each test prints the measured figure before asserting, so a failing line
still reports what was actually observed.  Randomized grids are seeded:
reruns check the identical points.
"""

import json
import math
import pathlib
import random

from zetalab.bessel import bessel_k, laplace_pair_integral
from zetalab.cli import main as cli_main
from zetalab.cutoffs import ExpSymmetric, TwoParam
from zetalab.diffusion import (
    euclidean_identification_residual,
    heat_kernel_h3,
    heat_kernel_rd,
    hyperbolic_identification_residual,
    resolvent_rd_bessel,
    resolvent_rd_quad,
)
from zetalab.funceq import FunctionalEqKind, verify
from zetalab.gammafn import gamma_complex, power_real_base
from zetalab.quadrature import integrate
from zetalab.regularized import (
    abcd_terms,
    omega,
    pde_residual_F,
    smooth_F,
    zeta_exp_bessel_series,
    zeta_exp_boundary_form,
    zeta_regularized,
)
from zetalab.theta import theta_modular_residual
from zetalab.types import QuadratureSpec
from zetalab.zeta_classic import (
    find_zeros,
    hardy_z,
    xi_entire,
    zeta_analytic,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

S_PANEL = tuple(
    complex(sigma, t)
    for sigma in (0.1, 0.3, 0.5, 0.7, 0.9)
    for t in (0.0, 5.0, 14.0)
)

# 40 pole-free strip points: eight sigmas (1/2 excluded), five heights
STRIP_40 = tuple(
    complex(sigma, t)
    for sigma in (0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9)
    for t in (-30.0, -12.0, 3.0, 15.0, 30.0)
)


def _report(name: str, detail: str) -> None:
    print(f"[{name}] {detail}")


def test_c01_theta_modularity():
    grid = [0.05 * (20.0 / 0.05) ** (k / 49.0) for k in range(50)]
    worst = max(theta_modular_residual(v) for v in grid)
    _report("c01", f"theta modularity, max |defect| over 50 log points: {worst:.3e}")
    assert worst < 1e-12


def test_c02_classical_continuation():
    cases = {0.0: -0.5, -1.0: -1.0 / 12.0, 2.0: math.pi**2 / 6.0}
    worst = 0.0
    for s, want in cases.items():
        got = zeta_analytic(s).value.real
        worst = max(worst, abs(got - want))
    _report("c02", f"zeta(0), zeta(-1), zeta(2) worst absolute error: {worst:.3e}")
    assert worst < 1e-10


def test_c03_classical_functional_equation():
    worst_fe = 0.0
    worst_xi = 0.0
    for s in STRIP_40:
        lhs = (power_real_base(math.pi, -0.5 * s) * gamma_complex(0.5 * s)
               * zeta_analytic(s).value)
        sd = 1.0 - s
        rhs = (power_real_base(math.pi, -0.5 * sd) * gamma_complex(0.5 * sd)
               * zeta_analytic(sd).value)
        worst_fe = max(worst_fe, abs(lhs - rhs))
        a = xi_entire(s).value
        b = xi_entire(sd).value
        worst_xi = max(worst_xi, abs(a - b) / abs(a))
    _report("c03", f"completed-form residual {worst_fe:.3e}, "
                   f"xi symmetry {worst_xi:.3e} over 40 strip points")
    assert worst_fe < 1e-9
    assert worst_xi < 1e-10


def test_c04_critical_line_zeros():
    known = [14.1347, 21.0220, 25.0109, 30.4249, 32.9351, 37.5862]
    brackets = find_zeros(10.0, 40.0, 0.05)
    assert len(brackets) == len(known)
    worst_zero = max(abs(b.refined_t - t) for b, t in zip(brackets, known))
    rng = random.Random(20260814)
    worst_im = max(
        abs(hardy_z(rng.uniform(-50.0, 50.0)).value.imag) for _ in range(50)
    )
    _report("c04", f"six zeros worst offset {worst_zero:.3e}, "
                   f"worst |Im Z| over 50 random t: {worst_im:.3e}")
    assert worst_zero < 1e-4
    assert worst_im < 1e-9


def test_c05_main_functional_equation():
    worst = 0.0
    for lam in (0.2, 1.0, 3.0):
        for s in S_PANEL:
            r = verify(FunctionalEqKind.EXP_SYMMETRIC, s, {"lam": lam})
            worst = max(worst, r.rel_residual)
    _report("c05", f"exp-symmetric FE, worst relative residual: {worst:.3e}")
    assert worst < 1e-8


def test_c06_alpha_family():
    worst = 0.0
    for lam in (0.5, 1.0):
        for alpha in (0.25, 0.5, 1.0, 2.0):
            for s in S_PANEL:
                r = verify(FunctionalEqKind.EXP_ALPHA, s,
                           {"lam": lam, "alpha": alpha})
                worst = max(worst, r.rel_residual)
    fix = json.loads((FIXTURES / "quarter_alpha_verdict.json").read_text())
    rep = verify(FunctionalEqKind.QUARTER_ALPHA_SINGLE_K, fix["s"],
                 {"lam": fix["lam"]})
    # rhs = -4 base exactly: the x-4 form's residual, then the x2 form's
    r4, r2 = rep.abs_residual, abs(rep.lhs + 0.5 * rep.rhs)
    _report("c06", f"exp-alpha FE worst residual {worst:.3e}; alpha=1/4 "
                   f"reduction prefactor {fix['supported_prefactor']} "
                   f"(residuals: x2 {r2:.3e}, x-4 {r4:.3e})")
    assert worst < 1e-8
    assert fix["supported_prefactor"] == "-4"
    assert r4 < 1e-9 < r2


def test_c07_two_parameter_family():
    worst = 0.0
    for lam1, lam2 in ((1.0, 0.7), (1.0 + 0.5j, 0.7), (0.3, 2.0)):
        for s in S_PANEL:
            r = verify(FunctionalEqKind.TWO_PARAM, s,
                       {"lam1": lam1, "lam2": lam2})
            worst = max(worst, r.rel_residual)
    _report("c07", f"two-parameter FE, worst relative residual: {worst:.3e}")
    assert worst < 1e-8


def test_c08_representation_triple_agreement():
    worst = 0.0
    for s in (-1.0, 0.0, 0.5 + 7.0j, 2.0):
        for lam in (0.1, 0.5, 2.0):
            series = zeta_exp_bessel_series(s, lam).completed.value
            quad = zeta_regularized(
                s, TwoParam(lam1=lam, lam2=lam)).completed.value
            boundary = zeta_exp_boundary_form(s, lam).completed.value
            scale = max(abs(series), abs(quad), abs(boundary))
            worst = max(worst, abs(series - quad) / scale,
                        abs(series - boundary) / scale,
                        abs(quad - boundary) / scale)
    _report("c08", f"triple agreement, worst pairwise relative gap: {worst:.3e}")
    assert worst < 1e-9


def test_c09_abcd_and_pde():
    rng = random.Random(20260814)
    worst_sum = 0.0
    worst_c = 0.0
    for _ in range(10):
        s = complex(rng.uniform(0.5, 3.0), rng.uniform(-3.0, 3.0))
        lam = rng.uniform(0.1, 2.0)
        a, b, c, d = abcd_terms(s, lam)
        total = a.value + b.value + c.value + d.value
        want = (power_real_base(math.pi, -0.5 * s) * gamma_complex(0.5 * s)
                * smooth_F(s, lam).value)
        worst_sum = max(worst_sum, abs(total - want) / abs(want))
        worst_c = max(worst_c, abs(c.value + 1.0 / s))
    ratios = []
    for _ in range(5):
        s = rng.uniform(0.5, 3.0)
        lam = rng.uniform(0.5, 2.0)
        ratios.append(pde_residual_F(s, lam, 2e-2) / pde_residual_F(s, lam, 1e-2))
    _report("c09", f"A+B+C+D worst relative gap {worst_sum:.3e}, C exactness "
                   f"{worst_c:.3e}, PDE halving ratios "
                   f"{['%.2f' % r for r in ratios]}")
    assert worst_sum < 1e-9
    assert worst_c < 1e-12
    assert all(3.5 <= r <= 4.5 for r in ratios)


def test_c10_omega_symmetry_and_divergence():
    worst = 0.0
    for lam in (0.2, 1.0):
        for s in STRIP_40:
            a = omega(s, lam).value
            b = omega(1.0 - s, lam).value
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    # small-lambda law: Omega diverges like the small-argument form of the
    # added K terms; subtract the finite part (the lam-free completed value)
    # so the measured slope is the divergence's own exponent
    s = 0.4
    fin = (0.5 * s * (s - 1.0) * power_real_base(math.pi, -0.5 * s).real
           * gamma_complex(0.5 * s).real * zeta_analytic(s).value.real)
    lams = (1e-2, 1e-3, 1e-4)

    def law(lam: float) -> float:
        k_here = 0.5 * gamma_complex(0.5 * s).real * lam ** (-0.5 * s)
        k_dual = 0.5 * gamma_complex(0.5 * (1 - s)).real * lam ** (-0.5 * (1 - s))
        return 0.5 * abs(s * (s - 1.0)) * (k_here + k_dual)

    meas = [abs(omega(s, lam).value.real - fin) for lam in lams]
    slope_errs = []
    for i in range(2):
        m = math.log(meas[i + 1] / meas[i]) / math.log(lams[i + 1] / lams[i])
        lw = math.log(law(lams[i + 1]) / law(lams[i])) / math.log(
            lams[i + 1] / lams[i])
        slope_errs.append(abs(m - lw) / abs(lw))
    _report("c10", f"Omega symmetry worst {worst:.3e}; divergence slope "
                   f"vs K-law, per-decade mismatch "
                   f"{['%.1f%%' % (100 * e) for e in slope_errs]}")
    assert worst < 1e-9
    assert all(err < 0.05 for err in slope_errs)


def test_c11_lambda_zero_recovery():
    target = math.pi**2 / 6.0
    lams = (1e-2, 1e-3, 1e-4, 1e-6)
    devs = [
        abs(zeta_regularized(2.0, ExpSymmetric(lam=lam)).bare.real - target)
        for lam in lams
    ]
    _report("c11", "|zeta(2, lam) - pi^2/6| = "
            + ", ".join(f"{lam:g}: {dev:.3e}" for lam, dev in zip(lams, devs))
            + f"; monotone: {devs == sorted(devs, reverse=True)}")
    assert devs == sorted(devs, reverse=True)
    # the damped value approaches zeta(2) like pi^(3/2) sqrt(lam), which is
    # 5.5e-3 at lam = 1e-6 -- orders of magnitude above this bound; kept at
    # the stated tolerance and left to fail rather than silently loosened
    assert devs[-1] < 2e-4


def test_c12_diffusion():
    q = QuadratureSpec()
    worst_norm = 0.0
    for d, area in ((1.0, 2.0), (2.0, 2.0 * math.pi), (3.0, 4.0 * math.pi)):
        def shell(r, d=d, area=area):
            k = heat_kernel_rd(0.7, r, d)
            # kernel first: it underflows to 0 long before r**(d-1) overflows
            return 0.0 if k == 0.0 else area * r ** (d - 1.0) * k
        total = integrate(shell, (0.0, math.inf), q).value.real
        worst_norm = max(worst_norm, abs(total - 1.0))

    worst_res = 0.0
    for alpha, r in ((1.0, 0.5), (2.5, 1.0), (0.3, 2.0)):
        want = math.exp(-math.sqrt(alpha) * r) / (4.0 * math.pi * r)
        got = resolvent_rd_quad(alpha, r, 3.0).value.real
        worst_res = max(worst_res, abs(got - want) / want)

    def hyp_shell(rho):
        k = heat_kernel_h3(0.5, rho)
        return 0.0 if k == 0.0 else 4.0 * math.pi * math.sinh(rho) ** 2 * k

    hyp_norm = abs(integrate(hyp_shell, (0.0, math.inf), q).value.real - 1.0)

    worst_ident = max(
        euclidean_identification_residual(1.0, 1.0, 1.0),
        euclidean_identification_residual(1.5, 0.8, 1.2),
        hyperbolic_identification_residual(0.5, 0.8),
        hyperbolic_identification_residual(1.2, 1.5),
    )

    fix = json.loads((FIXTURES / "resolvent_ratio.json").read_text())
    assert fix["rows"], "normalization-ratio fixture must be populated"
    ratio_spread = 0.0
    for d in (1.0, 2.5, 3.0):
        ratios = []
        for r in (0.5, 1.0, 2.0):
            num = resolvent_rd_bessel(fix["alpha"], r, d).value.real
            den = resolvent_rd_quad(2.0 * fix["alpha"], r, d).value.real
            ratios.append(num / den)
        ratio_spread = max(
            ratio_spread, (max(ratios) - min(ratios)) / abs(ratios[0]))

    _report("c12", f"flat normalization worst {worst_norm:.3e}, d=3 resolvent "
                   f"{worst_res:.3e}, hyperbolic normalization {hyp_norm:.3e}, "
                   f"identifications worst {worst_ident:.3e}, ratio spread in "
                   f"r {ratio_spread:.3e}")
    assert worst_norm < 1e-10
    assert worst_res < 1e-10
    assert hyp_norm < 1e-8
    assert worst_ident < 1e-8
    assert ratio_spread < 1e-6


def test_c13_bessel_and_gamma_layer():
    rng = random.Random(20260814)
    worst_sym = 0.0
    worst_rec = 0.0
    for _ in range(50):
        nu = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        for z in (0.1, 1.0, 10.0):
            a = bessel_k(nu, z).value
            b = bessel_k(-nu, z).value
            worst_sym = max(worst_sym, abs(a - b) / abs(a))
            km = bessel_k(nu - 1.0, z).value
            kp = bessel_k(nu + 1.0, z).value
            worst_rec = max(worst_rec, abs(km - kp + 2.0 * nu / z * a))

    worst_pair = 0.0
    for nu in (0.0, 0.5, 1.0, 0.25 + 0.5j):
        for beta in (0.5, 1.0, 3.0):
            for gamma in (0.5, 1.0, 3.0):
                lhs = laplace_pair_integral(nu, beta, gamma).value
                z = 2.0 * math.sqrt(beta * gamma)
                rhs = (2.0 * power_real_base(beta / gamma, 0.5 * nu)
                       * bessel_k(nu, z).value)
                worst_pair = max(worst_pair, abs(lhs - rhs) / abs(rhs))

    worst_gamma = 0.0
    n_gamma = 0
    while n_gamma < 100:
        z = complex(rng.uniform(-10.0, 10.0), rng.uniform(-30.0, 30.0))
        if abs(z.imag) < 0.1 and abs(z.real - round(z.real)) < 0.1:
            continue  # too close to a pole of Gamma(z) or Gamma(z+1)
        n_gamma += 1
        lhs = gamma_complex(z + 1.0)
        worst_gamma = max(worst_gamma, abs(lhs - z * gamma_complex(z)) / abs(lhs))

    _report("c13", f"K symmetry {worst_sym:.3e}, K recurrence {worst_rec:.3e}, "
                   f"integral-pair gap {worst_pair:.3e}, Gamma recurrence "
                   f"{worst_gamma:.3e}")
    assert worst_sym < 1e-10
    assert worst_rec < 1e-10
    assert worst_pair < 1e-10
    assert worst_gamma < 1e-12


def test_c14_cli_contract(tmp_path, capsys):
    def run(*argv):
        code = cli_main(list(argv))
        return code, capsys.readouterr().out

    # determinism: byte-identical reruns (eval CSV, grid CSV, scan JSON)
    pairs = [
        ("eval", "--fn", "zeta", "--s", "0.5+21i", "--format", "csv"),
        ("grid", "--fn", "omega", "--sigma", "0.3,0.7", "--t", "0,5",
         "--lambda", "1", "--format", "csv"),
        ("scan", "--t", "13:15", "--step", "0.1"),
    ]
    deterministic = True
    for args in pairs:
        c1, out1 = run(*args)
        c2, out2 = run(*args)
        deterministic = deterministic and c1 == c2 == 0 and out1 == out2

    # eval JSON: stable except the wall-clock field the schema carries
    _, j1 = run("eval", "--fn", "zeta", "--s", "2+0i")
    _, j2 = run("eval", "--fn", "zeta", "--s", "2+0i")
    d1, d2 = json.loads(j1), json.loads(j2)
    d1["meta"].pop("wall_ms"), d2["meta"].pop("wall_ms")
    json_stable = d1 == d2

    # round-trip: parse -> serialize reproduces the bytes
    from zetalab.records import dumps_record

    _, doc = run("eval", "--fn", "psi", "--x", "0.5")
    round_trip = dumps_record(json.loads(doc)) == doc

    # exit-code contract
    codes = {
        0: run("eval", "--fn", "theta", "--v", "2")[0],
        1: run("scan", "--t", "40:10", "--step", "0.05")[0],
        2: run("eval", "--fn", "zeta", "--s", "1+0i")[0],
        3: run("verify", "--kind", "generic-h", "--cutoff",
               "custom:asymmetric", "--s", "0.4")[0],
        4: run("eval", "--fn", "psi", "--x", "1",
               "--out", str(tmp_path / "no-such-dir" / "x.json"))[0],
    }
    _report("c14", f"deterministic reruns: {deterministic}, JSON stable "
                   f"(mod wall_ms): {json_stable}, round-trip: {round_trip}, "
                   f"exit codes: {codes}")
    assert deterministic
    assert json_stable
    assert round_trip
    assert codes == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
