"""Cutoff kinds: symmetry, underflow safety, domain checks, the FE gate."""

import math

import pytest
from hypothesis import given, strategies as st

from zetalab.cutoffs import (
    CustomCutoff,
    ExpAlpha,
    ExpSymmetric,
    NoCutoff,
    TwoParam,
    TwoParamNu,
    cutoff_value,
    ensure_symmetric_for_fe,
)
from zetalab.errors import DomainError, SymmetryViolation

_KINDS = [
    NoCutoff(),
    ExpSymmetric(lam=0.7),
    ExpSymmetric(lam=1.0 + 0.5j),
    ExpAlpha(lam=0.5, alpha=2.0),
    ExpAlpha(lam=1.0, alpha=0.25),
    TwoParam(lam1=1.0, lam2=0.7),
    TwoParam(lam1=1.0 + 0.5j, lam2=0.7),
    TwoParamNu(lam1=0.3, lam2=2.0, nu=1.5),
]


@pytest.mark.parametrize("cutoff", _KINDS, ids=lambda c: c.kind_name)
@given(st.floats(min_value=1e-6, max_value=1e6))
def test_inversion_symmetry(cutoff, x):
    # h(x) = h(1/x) by construction; the only slack is 1/x rounding scaled
    # by the exponent argument (|w| <= ~745 before underflow), so ~1e-13
    assert cutoff_value(cutoff, x) == pytest.approx(
        cutoff_value(cutoff, 1.0 / x), rel=1e-12, abs=0.0
    )


def test_exp_symmetric_value():
    h = ExpSymmetric(lam=0.5)
    assert cutoff_value(h, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert cutoff_value(h, 2.0) == pytest.approx(math.exp(-1.25), rel=1e-15)


def test_underflow_is_zero_not_error():
    # the warped kinds hit pow overflow/underflow long before exp does
    assert cutoff_value(ExpAlpha(lam=1.0, alpha=8.0), 1e300) == 0.0
    assert cutoff_value(ExpAlpha(lam=1.0, alpha=8.0), 1e-300) == 0.0
    assert cutoff_value(TwoParamNu(lam1=1.0, lam2=2.0, nu=6.0), 1e200) == 0.0
    assert cutoff_value(ExpSymmetric(lam=2.0), 1e12) == 0.0


def test_no_cutoff():
    assert cutoff_value(NoCutoff(), 17.3) == 1.0 + 0.0j


def test_kind_names():
    assert NoCutoff().kind_name == "NoCutoff"
    assert ExpSymmetric(lam=1.0).kind_name == "ExpSymmetric"
    assert TwoParamNu(lam1=1.0, lam2=1.0, nu=1.0).kind_name == "TwoParamNu"


def test_constructor_domains():
    with pytest.raises(DomainError):
        ExpSymmetric(lam=0.0)
    with pytest.raises(DomainError):
        ExpSymmetric(lam=-1.0 + 2.0j)
    with pytest.raises(DomainError):
        ExpAlpha(lam=-0.5, alpha=1.0)
    with pytest.raises(DomainError):
        ExpAlpha(lam=0.5, alpha=0.0)
    with pytest.raises(DomainError):
        TwoParam(lam1=1.0, lam2=0.0)
    with pytest.raises(DomainError):
        TwoParamNu(lam1=1.0, lam2=1.0, nu=0.0)


def test_cutoff_value_domain():
    h = ExpSymmetric(lam=1.0)
    for bad in (0.0, -2.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            cutoff_value(h, bad)


def test_fe_gate_builtin_kinds_pass():
    for cutoff in _KINDS:
        ensure_symmetric_for_fe(cutoff)  # must not raise


def test_fe_gate_custom():
    good = CustomCutoff(
        fn=lambda x: math.exp(-math.log(x) ** 2), label="log-symmetric"
    )
    ensure_symmetric_for_fe(good)

    declared_bad = CustomCutoff(
        fn=lambda x: math.exp(-x), declared_symmetric=False, label="one-sided"
    )
    with pytest.raises(SymmetryViolation):
        ensure_symmetric_for_fe(declared_bad)

    # declared symmetric but actually not: caught by the spot-check
    lying = CustomCutoff(fn=lambda x: math.exp(-x), label="one-sided")
    with pytest.raises(SymmetryViolation):
        ensure_symmetric_for_fe(lying)
