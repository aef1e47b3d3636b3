"""Heat kernels and resolvents, flat and hyperbolic, plus the tie-backs."""

import json
import math
import pathlib
import sys

import mpmath as mp
import pytest

from oracles import hyperbolic_kernel_ref, laplace_h3_closed, laplace_h3_ref
from zetalab import diffusion
from zetalab.bessel import bessel_k_from_laplace
from zetalab.diffusion import (
    euclidean_identification_residual,
    heat_kernel_h3,
    heat_kernel_hyperbolic_odd,
    heat_kernel_rd,
    hyperbolic_identification_residual,
    laplace_hyperbolic,
    resolvent_rd_bessel,
    resolvent_rd_quad,
)
from zetalab.errors import DomainError, NonConvergence, PoleError
from zetalab.types import QuadratureSpec

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_heat_kernel_rd_formula():
    assert heat_kernel_rd(1.0, 0.0, 3.0) == pytest.approx(
        (4.0 * math.pi) ** -1.5, rel=1e-15
    )
    assert heat_kernel_rd(0.5, 2.0, 1.0) == pytest.approx(
        (2.0 * math.pi) ** -0.5 * math.exp(-2.0), rel=1e-15
    )
    # normalization: int p_t r^{d-1} dr * sphere area = 1 checked in acceptance
    assert heat_kernel_rd(1e-3, 10.0, 2.0) == 0.0  # exp underflow guard


def test_heat_kernel_rd_domain():
    with pytest.raises(DomainError):
        heat_kernel_rd(0.0, 1.0, 3.0)
    with pytest.raises(DomainError):
        heat_kernel_rd(1.0, -1.0, 3.0)
    with pytest.raises(DomainError):
        heat_kernel_rd(1.0, 1.0, 0.5)


def test_resolvent_d1_at_origin():
    # int_0^inf (4 pi t)^(-1/2) e^(-alpha t) dt = 1/(2 sqrt(alpha))
    r = resolvent_rd_quad(1.0, 0.0, 1.0)
    assert r.value.real == pytest.approx(0.5, rel=1e-11)
    assert resolvent_rd_quad(4.0, 0.0, 1.0).value.real == pytest.approx(
        0.25, rel=1e-11
    )


def test_resolvent_d3_closed_form():
    # time-integral form at d = 3: e^{-sqrt(alpha) r} / (4 pi r)
    for alpha, r in ((1.0, 0.5), (2.5, 1.0), (0.3, 2.0)):
        want = math.exp(-math.sqrt(alpha) * r) / (4.0 * math.pi * r)
        got = resolvent_rd_quad(alpha, r, 3.0).value.real
        assert abs(got - want) <= 1e-10 * want


def test_resolvent_bessel_d3_closed_form():
    # the Bessel form carries sqrt(2 alpha) and no 1/(4 pi): e^{-sqrt(2a) r}/r
    for alpha, r in ((0.9, 0.5), (2.0, 1.5)):
        want = math.exp(-math.sqrt(2.0 * alpha) * r) / r
        got = resolvent_rd_bessel(alpha, r, 3.0).value.real
        assert abs(got - want) <= 1e-10 * want


def test_resolvent_ratio_fixture():
    # frozen reference: bessel form at alpha over quad form at 2*alpha is
    # exactly 4 pi, independent of d and r
    fix = json.loads((FIXTURES / "resolvent_ratio.json").read_text())
    assert fix["expected"] == pytest.approx(4.0 * math.pi, rel=1e-15)
    for row in fix["rows"]:
        d, r, frozen_ratio = row["d"], row["r"], row["ratio"]
        num = resolvent_rd_bessel(fix["alpha"], r, d).value.real
        den = resolvent_rd_quad(2.0 * fix["alpha"], r, d).value.real
        assert num / den == pytest.approx(frozen_ratio, rel=1e-9)
        assert num / den == pytest.approx(4.0 * math.pi, rel=1e-9)


def test_resolvent_domain():
    with pytest.raises(DomainError):
        resolvent_rd_bessel(-1.0, 1.0, 3.0)
    with pytest.raises(DomainError):
        resolvent_rd_bessel(1.0, 0.0, 3.0)
    with pytest.raises(DomainError):
        resolvent_rd_quad(1.0, 0.0, 3.0)  # r = 0 integrable only below d = 2
    with pytest.raises(DomainError):
        resolvent_rd_quad(1.0, 1.0, 0.0)


def test_h3_kernel():
    assert heat_kernel_h3(1.0, 0.0) == pytest.approx(
        (4.0 * math.pi) ** -1.5 * math.exp(-1.0), rel=1e-15
    )
    # the generic odd-d ladder at d = 3 must match the explicit form
    for t, rho in ((1.0, 0.7), (0.3, 2.0), (2.0, 0.1)):
        assert heat_kernel_hyperbolic_odd(t, rho, 3) == pytest.approx(
            heat_kernel_h3(t, rho), rel=1e-13
        )


def test_ladder_frozen_values():
    # checked against a symbolic (1/sinh) d/drho ladder evaluated at 30 digits
    assert heat_kernel_hyperbolic_odd(1.0, 0.7, 3) == pytest.approx(
        0.006741929089773011, rel=1e-13
    )
    assert heat_kernel_hyperbolic_odd(0.7, 1.1, 5) == pytest.approx(
        0.00016716437678228156, rel=1e-13
    )
    # d = 7 is the first rung whose terms carry a power of cosh
    assert heat_kernel_hyperbolic_odd(0.1, 0.2, 7) == pytest.approx(
        0.19615927477538136, rel=1e-13
    )
    assert heat_kernel_hyperbolic_odd(1.3, 2.5, 9) == pytest.approx(
        3.3748757162443493e-16, rel=1e-13
    )


def test_ladder_underflow_returns_zero_without_building_the_ladder():
    # exp(-m^2 t - rho^2/4t) underflows at m = 60; the ladder there took 0.36 s
    top = max(diffusion._TERM_CACHE)
    assert heat_kernel_hyperbolic_odd(1.0, 1.0, 121) == 0.0
    assert max(diffusion._TERM_CACHE) == top


def test_ladder_is_zero_where_sinh_overflows():
    # every ladder term is at most c rho^a t^-b 2^m e^{-2 m rho}, so past
    # sinh's overflow (rho ~ 710.48) the kernel is 0.0, as h3's form reads it
    assert heat_kernel_hyperbolic_odd(356.0, 712.0, 3) == 0.0
    assert heat_kernel_h3(356.0, 712.0) == 0.0


@pytest.mark.parametrize("t, rho, d", [
    (0.1, 1e-3, 9),     # would read -0.184 against 0.105
    (1.0, 1e-2, 11),    # 27x off
    (1e-3, 1e-3, 21),   # -4.2e40
    (1.0, 1e-3, 7),     # bound 1.3e-3 of the sum, error 5.4e-4
])
def test_ladder_refuses_a_rho_where_its_terms_cancel(t, rho, d):
    with pytest.raises(NonConvergence, match="ladder cancels"):
        heat_kernel_hyperbolic_odd(t, rho, d)


def test_ladder_keeps_the_worst_benchmark_draw():
    # fe-verify's heat-kernel-hd draw with the largest bound at seed 1:
    # 1.7e-10 of the sum, below the 1e-8 refusal
    want = hyperbolic_kernel_ref(3.16, 0.201, 9)
    assert abs(heat_kernel_hyperbolic_odd(3.16, 0.201, 9) - want) <= 1e-10 * want


@pytest.mark.parametrize("rho", [1e-8, 0.5, 35.9, 36.0, 36.1, 100.0, 700.0,
                                 711.0, 800.0])
def test_rho_over_sinh_matches_mpmath(rho):
    # one form below rho = 36, 2 rho e^-rho from there (sinh rho = e^rho / 2
    # in double); at 800 the ratio is below the smallest subnormal
    want = float(mp.mpf(rho) / mp.sinh(mp.mpf(rho)))
    assert diffusion._rho_over_sinh(rho) == pytest.approx(want, rel=1e-15)


def test_ladder_domain():
    with pytest.raises(DomainError):
        heat_kernel_hyperbolic_odd(1.0, 0.7, 4)
    with pytest.raises(DomainError):
        heat_kernel_hyperbolic_odd(1.0, 0.7, 1)
    with pytest.raises(DomainError):
        heat_kernel_hyperbolic_odd(0.0, 0.7, 3)
    with pytest.raises(DomainError):
        heat_kernel_hyperbolic_odd(1.0, 0.0, 3)
    with pytest.raises(DomainError):
        heat_kernel_h3(1.0, -0.1)


def test_laplace_hyperbolic():
    r = laplace_hyperbolic(1.0, 0.7)
    assert r.value.real == pytest.approx(0.038981363495721816, rel=1e-11)
    # closed form e^{-rho sqrt(1+alpha)} / (4 pi sinh rho)
    for alpha, rho in ((1.0, 0.7), (0.25, 1.5), (-0.5, 1.0)):
        want = math.exp(-rho * math.sqrt(1.0 + alpha)) / (
            4.0 * math.pi * math.sinh(rho)
        )
        assert laplace_hyperbolic(alpha, rho).value.real == pytest.approx(
            want, rel=1e-10
        )
    # past sinh's overflow: 1.29e-310 in closed form, subnormal but not 0
    r = laplace_hyperbolic(-0.999999, 711.0)
    assert math.isfinite(r.value.real) and r.value.real > 0.0
    assert abs(r.value - laplace_h3_closed(-0.999999, 711.0)) <= r.err_estimate
    assert laplace_hyperbolic(1.0, 720.0).value == 0.0
    with pytest.raises(DomainError):
        laplace_hyperbolic(-1.0, 0.7)
    with pytest.raises(DomainError):
        laplace_hyperbolic(1.0, 0.0)


def test_laplace_hyperbolic_estimate_covers_a_subnormal_value():
    # 1.29e-310 holds about 44 bits: its estimate is at least their spacing
    # ulp(0.0), and the referee (40 digits) lies within it
    r = laplace_hyperbolic(-0.999999, 711.0)
    with mp.workdps(40):
        ref = laplace_h3_ref(-0.999999, 711.0)
    assert 0.0 < r.value.real < sys.float_info.min
    assert r.err_estimate >= math.ulp(0.0)
    assert abs(r.value - ref) <= r.err_estimate
    # past the factor's underflow the pair returns its 0 without a pass
    r = laplace_hyperbolic(1.0, 720.0)
    assert (r.value, r.evaluations, r.converged) == (0j, 0, True)


def test_laplace_pair_far_fixture():
    # every caller of the Laplace pair where its integrand peaks far below
    # abs_tol: mpmath at 40 digits (tests/oracles.py)
    fix = json.loads((FIXTURES / "laplace_pair_far.json").read_text())
    cases = (
        [(f"laplace_hyperbolic({p['alpha_re']}+{p['alpha_im']}j, {p['rho']})",
          laplace_hyperbolic(complex(p["alpha_re"], p["alpha_im"]), p["rho"]), p)
         for p in fix["laplace_h3"]]
        + [(f"resolvent_rd_quad({p['alpha_re']}+{p['alpha_im']}j, {p['r']}, {p['d']})",
            resolvent_rd_quad(complex(p["alpha_re"], p["alpha_im"]), p["r"], p["d"]), p)
           for p in fix["resolvent_quad"]]
        + [(f"bessel_k_from_laplace({p['nu_re']}+{p['nu_im']}j, {p['z']})",
            bessel_k_from_laplace(complex(p["nu_re"], p["nu_im"]), p["z"]), p)
           for p in fix["bessel_k_from_laplace"]])
    assert len(cases) == 60
    bad = []
    for name, got, p in cases:
        want = complex(p["value_re"], p["value_im"])
        err = abs(got.value - want)
        if not (err <= 1e-13 * abs(want) and err <= got.err_estimate):
            bad.append(f"{name}: {err / abs(want):.2e} relative, "
                       f"estimate {got.err_estimate / abs(want):.2e}")
    assert bad == []


def test_euclidean_identification():
    assert euclidean_identification_residual(1.0, 1.0, 1.0) < 1e-13
    assert euclidean_identification_residual(1.5, 0.8, 1.2) < 1e-13


def test_euclidean_identification_pole():
    with pytest.raises(PoleError):
        euclidean_identification_residual(2.0, 1.0, 1.0)
    # the pole sits in the printed prefactor, not the analytic content
    assert euclidean_identification_residual(2.0, 1.0, 1.0, limit_free=True) < 1e-8


def test_shifted_series_out_of_terms_is_nonconvergence():
    # a spent term budget is NonConvergence, carrying the partial sum and
    # the last shifted term
    q = QuadratureSpec(max_terms=2)
    with pytest.raises(NonConvergence) as exc:
        diffusion._shifted_series(2.0, 0.01, 1.0, q)
    first, *shifted = (
        diffusion._time_integral(2.0, 0.01, 1.0 + 4.0 * math.pi * n * n, q)
        for n in (0, 1, 2))
    assert exc.value.best == first + 2.0 * shifted[0] + 2.0 * shifted[1]
    assert exc.value.err_estimate == abs(shifted[1]) > 0.0


def test_hyperbolic_identification():
    assert hyperbolic_identification_residual(0.5, 0.8) < 1e-8
    assert hyperbolic_identification_residual(1.2, 1.5) < 1e-8
    # the left side is K's closed form, so an error of the transform shows
    for rho in (10.0, 30.0, 100.0, 250.0):
        assert hyperbolic_identification_residual(1.0, rho) < 1e-12
    with pytest.raises(DomainError):
        hyperbolic_identification_residual(0.0, 0.8)
    with pytest.raises(DomainError):
        hyperbolic_identification_residual(0.5, 0.0)
    # both sides underflow to 0 (700), and sinh rho overflows (720)
    for rho in (700.0, 720.0):
        with pytest.raises(DomainError, match="underflows"):
            hyperbolic_identification_residual(1.0, rho)
