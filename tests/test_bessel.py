"""K_nu tests: closed forms, the nu-symmetry, recurrence, and each route of the dispatch."""

import json
import math
import pathlib

import pytest
from hypothesis import given, strategies as st

from oracles import besselk_ref
from zetalab.bessel import (
    _SERIES_Z,
    _shifted_route,
    bessel_k,
    bessel_k_complex_arg,
    bessel_k_from_laplace,
    laplace_pair_integral,
    recurrence_residual,
    symmetry_residual,
)
from zetalab.errors import DomainError, NonConvergence
from zetalab.gammafn import gamma_complex, power_real_base
from zetalab.types import DEFAULT_QUAD, QuadratureSpec


def test_half_order_closed_form():
    # K_{1/2}(z) = sqrt(pi / 2z) e^{-z}
    v = bessel_k(0.5, 2.0).value
    assert v == pytest.approx(math.sqrt(math.pi / 4.0) * math.exp(-2.0), rel=1e-12)
    assert v == pytest.approx(0.11993777196806145, rel=1e-12)


def test_frozen_against_reference():
    assert bessel_k(0.0, 1.0).value == pytest.approx(0.42102443824070834, rel=1e-12)
    assert bessel_k(0.3 + 2.0j, 1.0).value == pytest.approx(
        0.07342889192381581 + 0.04676626322008167j, rel=1e-12
    )


@pytest.mark.parametrize("nu, z, ref", [
    # mpmath besselk at 30 digits (tests/oracles.py frozen table)
    (1.5636, 92.4, 9.807180339285012e-42),
    (0.3, 700.0, 4.670076427132578e-306),
])
def test_real_order_keeps_relative_accuracy_far_below_abs_tol(nu, z, ref):
    r = bessel_k(nu, z)
    assert r.converged
    assert abs(r.value - ref) <= 1e-12 * ref


@pytest.mark.parametrize("fn, nu, z, evaluations", [
    (bessel_k, 0.3, 1.0, 45),            # real order: cosh route, relative test
    (bessel_k, 0.25 + 15.0j, 3.0, 673),  # shifted contour (z above _SERIES_Z)
    (bessel_k, 0.25 - 15.0j, 3.0, 673),  # shifted contour through the conjugate
    (bessel_k, 0.25 + 15.0j, 1.0, 16),   # ascending series: its term count
    (bessel_k_complex_arg, 0.7 + 3.0j, 1.5 + 0.8j, 23),  # series, complex z
    (bessel_k_complex_arg, 0.7, 1.5 + 0.8j, 78),
])
def test_cost_pinned(fn, nu, z, evaluations):
    r = fn(nu, z)
    ref = besselk_ref(nu, z)
    assert r.converged
    assert r.evaluations == evaluations
    assert abs(r.value - ref) <= 1e-13 * abs(ref)


def test_complex_argument_route():
    v = bessel_k_complex_arg(0.7, 1.5 + 0.8j).value
    assert v == pytest.approx(0.10902928565169526 - 0.19806620446678222j, rel=1e-11)
    with pytest.raises(DomainError):
        bessel_k_complex_arg(0.7, -1.0 + 0.5j)


@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
    st.sampled_from([0.1, 1.0, 10.0]),
)
def test_symmetry_in_order(nu_re, nu_im, z):
    assert symmetry_residual(complex(nu_re, nu_im), z) <= 1e-12


def test_recurrence():
    # K_{nu-1} - K_{nu+1} = -(2 nu / z) K_nu
    assert recurrence_residual(0.3 + 2.0j, 1.0) < 1e-10
    assert recurrence_residual(1.5, 0.7) < 1e-10


def test_two_integral_representations_agree():
    # laplace integral vs 2 (beta/gamma)^{nu/2} K_nu(2 sqrt(beta gamma))
    for nu in (0.0, 0.5, 1.0, 0.25 + 0.5j):
        for beta, gamma in ((0.5, 1.0), (1.0, 3.0), (3.0, 0.5)):
            lhs = laplace_pair_integral(nu, beta, gamma).value
            z = 2.0 * math.sqrt(beta * gamma)
            rhs = 2.0 * power_real_base(beta / gamma, nu / 2.0) * bessel_k(nu, z).value
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_laplace_recovery_route():
    for nu, z in ((0.0, 1.0), (0.5, 2.0), (1.25, 0.6)):
        a = bessel_k(nu, z).value
        b = bessel_k_from_laplace(nu, z).value
        assert abs(a - b) <= 1e-11 * abs(a)


def test_small_argument_law():
    # K_nu(x) ~ 2^{nu-1} Gamma(nu) x^{-nu} as x -> 0
    v = bessel_k(1.0, 0.01).value.real
    law = (2.0 ** 0.0) * gamma_complex(1.0).real / 0.01
    assert v == pytest.approx(99.97389411829624, rel=1e-12)
    assert abs(v - law) / law < 0.01


def test_domain():
    with pytest.raises(DomainError):
        bessel_k(0.5, 0.0)
    with pytest.raises(DomainError):
        bessel_k(0.5, -2.0)
    with pytest.raises(DomainError):
        bessel_k(0.5, 1.0 + 1.0j)
    with pytest.raises(DomainError):
        laplace_pair_integral(0.5, -1.0, 1.0)
    with pytest.raises(DomainError):
        bessel_k_from_laplace(0.5, 0.0)


def test_nonconvergence_carries_best():
    q = QuadratureSpec(max_levels=1)
    with pytest.raises(NonConvergence) as exc:
        bessel_k(0.5, 2.0, q)
    assert exc.value.best == pytest.approx(0.11993777196806145, rel=1e-3)


@pytest.mark.parametrize("nu", [0.5, 0.3 + 15.0j])
def test_nonconvergence_reports_last_increment(nu):
    # cosh route and shifted contour (z above _SERIES_Z, so no series): one
    # halving is not enough, and the error carries the change it made
    with pytest.raises(NonConvergence) as exc:
        bessel_k(nu, 3.0, QuadratureSpec(max_levels=1))
    assert exc.value.err_estimate > 0.0


# mpmath K_nu(z) at 40 digits, complex order, |z| <= _SERIES_Z
SERIES_FIXTURE = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "bessel_k_series.json").read_text())


@pytest.mark.parametrize(
    "row", SERIES_FIXTURE["points"],
    ids=lambda r: f"nu={r['nu_re']:.3g}{r['nu_im']:+.3g}i,z={r['z_re']:.3g}{r['z_im']:+.3g}i")
def test_series_route_meets_its_estimate_and_rel_tol(row):
    nu = complex(row["nu_re"], row["nu_im"])
    z = complex(row["z_re"], row["z_im"])
    ref = complex(row["k_re"], row["k_im"])
    assert abs(z) <= _SERIES_Z
    r = bessel_k(nu, z.real) if z.imag == 0.0 else bessel_k_complex_arg(nu, z)
    assert r.converged
    assert r.evaluations < 100  # the series served it, not a trapezoid
    err = abs(r.value - ref)
    assert err <= r.err_estimate
    assert err <= 1e-12 * abs(ref)


def test_series_falls_through_to_the_trapezoid():
    # K_{10i}(x) has a zero near x = 0.6448; at 0.645 the two series parts
    # cancel to 0.6% of their size, the estimate (8e-12 relative) misses
    # rel_tol, and the call returns the shifted contour's value bit for bit
    r = bessel_k(10.0j, 0.645)
    assert r == _shifted_route(10.0j, 0.645, DEFAULT_QUAD)
    assert r.evaluations > 100
