"""Gamma helper tests: recurrence, reflection, poles, and the power helper."""

import cmath
import math

import pytest
from hypothesis import assume, given, strategies as st

from oracles import gamma_ref
from zetalab.errors import DomainError, PoleError
from zetalab.gammafn import (
    gamma_complex,
    log_gamma_complex,
    power_real_base,
    rgamma,
)


def test_exact_small_integers():
    assert gamma_complex(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma_complex(5.0) == pytest.approx(24.0, rel=1e-14)
    assert gamma_complex(0.5).real == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert abs(gamma_complex(0.5).imag) < 1e-15


def test_frozen_against_reference():
    # mpmath at 30 digits, rounded to doubles
    assert log_gamma_complex(3.5 + 2.0j) == pytest.approx(
        0.5807332120812682 + 2.3353168419161627j, rel=1e-13
    )
    assert log_gamma_complex(0.75 - 4.0j) == pytest.approx(
        -5.018166396319228 - 1.9404830783040448j, rel=1e-13
    )
    assert gamma_complex(0.25 + 15.0j) == pytest.approx(
        7.41745541267481e-11 + 7.143251783121811e-12j, rel=1e-12
    )
    assert gamma_complex(-2.5 + 0.5j) == pytest.approx(
        -0.33387520352243233 - 0.20645730796360842j, rel=1e-12
    )


@given(
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=-30.0, max_value=30.0),
)
def test_recurrence(re, im):
    z = complex(re, im)
    # stay away from poles of Gamma(z) and Gamma(z+1)
    assume(abs(im) > 0.05 or re - round(re) != 0.0)
    assume(abs(z) > 1e-3 and abs(z + 1.0) > 1e-3)
    lhs = gamma_complex(z + 1.0)
    rhs = z * gamma_complex(z)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=-20.0, max_value=20.0),
)
def test_reflection(re, im):
    z = complex(re, im)
    lhs = gamma_complex(z) * gamma_complex(1.0 - z)
    rhs = math.pi / cmath.sin(math.pi * z)
    assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


def test_log_form_is_the_primitive():
    for z in (2.0 + 0.0j, 0.6 + 3.0j, 7.25 - 11.0j):
        assert cmath.exp(log_gamma_complex(z)) == pytest.approx(
            gamma_complex(z), rel=1e-13
        )


def test_log_gamma_left_half_plane_rejected():
    with pytest.raises(DomainError):
        log_gamma_complex(-0.5 + 2.0j)
    with pytest.raises(DomainError):
        log_gamma_complex(0.0 + 1.0j)


def test_poles():
    for n in (0.0, -1.0, -2.0, -7.0):
        with pytest.raises(PoleError):
            gamma_complex(n)


def test_rgamma_entire():
    for n in (0.0, -1.0, -5.0):
        assert rgamma(n) == 0.0
    for z in (3.0 + 0.0j, 0.4 - 2.0j, -1.5 + 0.25j):
        assert rgamma(z) * gamma_complex(z) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("z", [0.25 + 250.0j, -1.5 + 240.0j])
def test_rgamma_past_sine_overflow(z):
    # pi |Im z| > 710 overflows cmath.sin(pi z); 1/Gamma itself is finite
    ref = 1.0 / gamma_ref(z)
    assert abs(rgamma(z) - ref) <= 1e-11 * abs(ref)
    assert abs(gamma_complex(z) * ref - 1.0) <= 1e-11


def test_power_real_base():
    assert power_real_base(2.0, 3.0) == pytest.approx(8.0, rel=1e-15)
    assert power_real_base(4.0, -0.5) == pytest.approx(0.5, rel=1e-15)
    # real exponent comes back with a genuinely zero imaginary part
    assert power_real_base(3.7, 2.0).imag == 0.0
    w = 0.5 + 7.0j
    assert power_real_base(5.0, w) == pytest.approx(
        cmath.exp(w * math.log(5.0)), rel=1e-15
    )


def test_power_real_base_domain():
    with pytest.raises(DomainError):
        power_real_base(0.0, 2.0)
    with pytest.raises(DomainError):
        power_real_base(-1.0, 0.5)
