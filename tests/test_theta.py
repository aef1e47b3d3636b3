"""Theta-sum tests: frozen reference values, the modular identity, cutover."""

import math

import pytest
from hypothesis import given, strategies as st

from zetalab.errors import DomainError, NonConvergence
from zetalab.theta import (
    big_theta,
    jacobi_theta3,
    psi,
    theta_modular_residual,
)
from zetalab.types import QuadratureSpec


def test_psi_frozen():
    assert psi(1.0).value.real == pytest.approx(0.043217405606654005, rel=1e-14)
    assert psi(0.7).value.real == pytest.approx(0.11105254860380452, rel=1e-14)
    # deep in the modular regime: psi(0.02) ~ 3.0355 (one-term inverted sum)
    assert psi(0.02).value.real == pytest.approx(3.0355339059327376, rel=1e-14)


@pytest.mark.parametrize("x", [12.0, 50.0, 200.0])
def test_psi_keeps_its_digits_at_large_x(x):
    # psi(x) = e^{-pi x} (1 + e^{-3 pi x} + ...): the first term to an ulp,
    # where an absolute tail test returned 0
    want = math.exp(-math.pi * x)
    assert abs(psi(x).value.real - want) <= math.ulp(want)


def test_big_theta_is_one_plus_two_psi():
    assert big_theta(1.0).value.real == pytest.approx(1.086434811213308, rel=1e-14)
    for v in (0.3, 1.7):
        assert big_theta(v).value == 1.0 + 2.0 * psi(v).value


@given(st.floats(min_value=0.01, max_value=25.0))
def test_modular_identity(v):
    assert theta_modular_residual(v) < 1e-12


def test_cutover_continuity():
    # the direct series and the inverted one must agree where they hand off
    eps = 1e-9
    below = psi(0.05 - eps).value.real
    above = psi(0.05 + eps).value.real
    assert abs(below - above) < 1e-7


def test_jacobi_theta3_frozen():
    assert jacobi_theta3(0.0, 0.3).value == pytest.approx(
        1.6162393746095136, rel=1e-13
    )
    assert jacobi_theta3(0.2, 0.5).value == pytest.approx(
        1.2047391375077052, rel=1e-13
    )
    assert jacobi_theta3(0.1 + 0.05j, 0.4).value == pytest.approx(
        1.698223930218629 - 0.1833606703818571j, rel=1e-13
    )
    assert jacobi_theta3(0.3, 0.2 + 0.1j).value == pytest.approx(
        0.8775246643039292 - 0.06568862044885435j, rel=1e-13
    )


def test_theta3_at_zero_matches_big_theta():
    # nome e^{-pi v} turns theta3(0, .) into Theta(v)
    for v in (0.5, 1.0, 2.0):
        nome = math.exp(-math.pi * v)
        assert jacobi_theta3(0.0, nome).value == pytest.approx(
            big_theta(v).value, rel=1e-14
        )


def test_domain():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            psi(bad)
    with pytest.raises(DomainError):
        theta_modular_residual(0.0)
    with pytest.raises(DomainError):
        jacobi_theta3(0.0, 1.0)
    with pytest.raises(DomainError):
        jacobi_theta3(0.0, 1.5 + 0.2j)


def test_series_budget():
    q = QuadratureSpec(max_terms=2)
    with pytest.raises(NonConvergence) as exc:
        psi(0.05, q)  # needs ~16 terms at the cutover
    # best is the partial sum: positive, short of the full value
    assert 0.0 < exc.value.best < psi(0.05).value.real
    with pytest.raises(NonConvergence):
        jacobi_theta3(0.0, 0.99, q)


def test_metadata():
    r = psi(4.0)
    assert r.converged
    assert r.evaluations <= 4  # e^{-16 pi} is already below any tail tol
    assert r.err_estimate < 1e-16
