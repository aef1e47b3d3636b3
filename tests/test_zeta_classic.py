"""Zeta continuation, chi/xi, Hardy Z, and the zero scan.

Frozen reference values were produced by an Euler-Maclaurin summation written
independently in tests/oracles.py (and cross-checked against mpmath at 30
digits); the analytic route under test is the theta-integral / EM hybrid.
"""

import cmath
import json
import math
import os
import pathlib
import random
import subprocess
import sys
from array import array
from decimal import Context, Decimal

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

import zetalab.zeta_classic as zeta_classic
from oracles import (chi_ref, fixed_gap_ref, hardy_z_ref, log_mp,
                     siegel_theta_mp, theta_series_mp,
                     theta_tail_coefficients, two_pi_mp, xi_ref,
                     zero_count_ref, zero_ref, zeta_ref)
from zetalab.errors import DomainError, NonConvergence, PoleError
from zetalab.funceq import STANDARD_S_GRID
from zetalab.gammafn import power_real_base, rgamma
from zetalab.types import QuadratureSpec
from zetalab.zeta_classic import (
    _HARDY_RS_T_MIN,
    _RS_COEFFS,
    _RS_COEFFS_GRID,
    _RS_REACH,
    _RS_T_MIN,
    _THETA_TAIL,
    _dirichlet_sum,
    _euler_maclaurin,
    _hardy_rs_bound,
    _hardy_z_rs,
    _poly,
    _rs_bound,
    _rs_remainder,
    chi_factor,
    find_zeros,
    hardy_z,
    riemann_siegel_theta,
    xi_entire,
    zeta_analytic,
    zeta_series,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
# mpmath: Riemann-Siegel coefficient tables C_0..C_12, siegelz at 500 seeded
# heights in [2 pi, 1e4] and 200 in [100, 1e6], three zeros and Lehmer's pair
# (tests/oracles.py:regenerate_riemann_siegel)
RS_FIXTURE = json.loads((FIXTURES / "riemann_siegel.json").read_text())
# every fixture height where hardy_z takes the extended Riemann-Siegel sum
RS_HIGH = [(t, z) for t, z in RS_FIXTURE["z"] + RS_FIXTURE["z_high"]
           if t >= _HARDY_RS_T_MIN]
# mpmath siegelz at 35 digits at t = 1e9, 1e10, 1e11, 1e12
# (tests/oracles.py:regenerate_hardy_z_extreme)
Z_EXTREME = dict(
    json.loads((FIXTURES / "hardy_z_extreme.json").read_text())["z"])


def test_series_exact():
    assert zeta_series(2.0).value.real == pytest.approx(math.pi**2 / 6.0, rel=1e-13)
    assert zeta_series(4.0).value.real == pytest.approx(math.pi**4 / 90.0, rel=1e-13)
    assert zeta_series(3.0).value.real == pytest.approx(1.2020569031595942, rel=1e-13)


def test_series_domain():
    with pytest.raises(DomainError):
        zeta_series(1.0)
    with pytest.raises(DomainError):
        zeta_series(0.5 + 3.0j)


def test_analytic_special_values():
    assert zeta_analytic(0.0).value.real == pytest.approx(-0.5, abs=1e-13)
    assert zeta_analytic(-1.0).value.real == pytest.approx(-1.0 / 12.0, abs=1e-13)
    assert zeta_analytic(2.0).value.real == pytest.approx(math.pi**2 / 6.0, rel=1e-12)
    assert zeta_analytic(0.5).value.real == pytest.approx(
        -1.4603545088095868, rel=1e-12
    )


def test_trivial_zeros_exact():
    # rgamma kills the even negative integers identically, and the tail
    # integral it multiplies is not computed: from -264 on it overflowed
    for s in (-2.0, -4.0, -6.0, -264.0, -270.0, -300.0, -1000.0):
        r = zeta_analytic(s)
        assert r.value == 0j and r.converged


def test_pole():
    with pytest.raises(PoleError):
        zeta_analytic(1.0)
    with pytest.raises(PoleError):
        zeta_analytic(1.0 + 1e-15j)


def test_frozen_points_both_routes():
    # spans the integral route (|t| < 10), EM (|t| > 10), and reflection
    cases = {
        2.0 + 3.0j: 0.7980219851462758 - 0.1137443080529385j,
        0.5 + 30.0j: -0.1206422875900437 - 0.5836912147637063j,
        -1.5 + 40.0j: -4.305763532490102 - 37.08674306205625j,
        -5.0 + 12.0j: 41.78340180305192 - 1.2829359107467624j,
    }
    for s, want in cases.items():
        assert zeta_analytic(s).value == pytest.approx(want, rel=1e-11)


def test_route_crossover_consistency():
    # values straddling the |Im s| = 10 dispatch line, against one reference
    assert zeta_analytic(0.3 + 9.999j).value == pytest.approx(
        1.6217643087615905 - 0.11255302442051333j, rel=1e-11
    )
    assert zeta_analytic(0.3 + 10.001j).value == pytest.approx(
        1.6218062627657663 - 0.11337076872509258j, rel=1e-11
    )


def test_conjugate_symmetry():
    s = 0.7 + 21.0j
    a = zeta_analytic(s).value
    b = zeta_analytic(s.conjugate()).value
    assert a == pytest.approx(b.conjugate(), rel=1e-12)


@pytest.mark.parametrize("s", [-2.5 + 1000.0j, -3.0 + 200.0j, -4.0 - 500.0j])
def test_reflection_route_err_estimate_covers_chi_rounding(s):
    # chi's phase is of size |t| log |t|: its rounding (4.9e-13 relative at
    # -2.5 + 1000i) dwarfs Euler-Maclaurin's own estimate of 1e-19
    r = zeta_analytic(s)
    assert abs(r.value - zeta_ref(s)) <= r.err_estimate


def _theta_route_points():
    rng = random.Random(20261019)
    return [complex(rng.uniform(-2.0, 200.0), rng.uniform(-10.0, 10.0))
            for _ in range(52)]


@pytest.mark.parametrize("s", _theta_route_points())
def test_theta_route_meets_its_estimate_far_right_of_the_strip(s):
    # psi's relative tail test keeps psi(x) ~ e^{-pi x} past x = 11.7, where
    # an absolute one flushed it to 0 and zeta(14) came out 4.1e-10 off; the
    # estimate carries the rounding of pi^{s/2} / Gamma(s/2) (zeta(200):
    # 5.4e-14 off against a tail-only 2.2e-15).  zeta_analytic takes this
    # route only left of Re s = 1; it is called directly here
    r = zeta_classic._theta_route(s, QuadratureSpec())
    assert abs(r.value - zeta_ref(s)) <= r.err_estimate
    # converged wherever the prefactor |pi^{s/2} / Gamma(s/2)| keeps the
    # tail integral's absolute floor, 1e-12, within the value's tolerance;
    # beyond that the tail may accept on the floor, whose scaled increment
    # the estimate then reads (9.3e-11 at 3.59 - 7.24i for an error of
    # 1.2e-15): the tail's tolerance is not yet divided by the prefactor
    pref = abs(power_real_base(math.pi, 0.5 * s) * rgamma(0.5 * s))
    assert r.converged or pref > abs(r.value)


def test_theta_route_in_the_strip_meets_its_estimate():
    # 300 seeded points with Re s in [-2, 1), |t| <= 10, and verify's
    # strip-default points below t = 10: every error within its estimate,
    # and the worst relative error, 3.0e-14 at this seed, kept under 1.5x
    rng = random.Random(20261017)
    points = ([complex(rng.uniform(-2.0, 1.0), rng.uniform(-10.0, 10.0))
               for _ in range(300)]
              + [s for s in STANDARD_S_GRID if abs(s.imag) <= 10.0])
    worst = 0.0
    for s in points:
        r = zeta_analytic(s)
        ref = zeta_ref(s)
        assert abs(r.value - ref) <= r.err_estimate, s
        worst = max(worst, abs(r.value - ref) / abs(ref))
    assert worst <= 4.5e-14


@pytest.mark.parametrize("s", [-225.0, -229.0, -225.5 + 3.0j, -229.0 + 10.0j])
def test_theta_route_far_left_of_the_strip(s):
    # the tail times 1/Gamma(s/2) overflows here though zeta (~1e253 at
    # -225) does not: pi^{s/2} / Gamma(s/2) is formed first
    r = zeta_analytic(s)
    with mp.workdps(40):
        ref = complex(mp.zeta(mp.mpc(s)))
    assert r.converged
    assert abs(r.value - ref) <= r.err_estimate
    assert abs(r.value - ref) <= 2e-13 * abs(ref)


@pytest.mark.parametrize("s", [-261.0, -262.0 + 5.0j, -265.0, -270.5])
def test_zeta_past_the_double_range_raises(s):
    # |zeta| leaves the double range (1.5e310 at -261 to 3.1e325 at -270.5,
    # per mpmath): an OverflowError, never inf or nan reported converged
    with pytest.raises(OverflowError):
        zeta_analytic(s)


def _right_of_one_points():
    # the theta points right of Re s = 1, seeded points with Re s in
    # [1, 1000] and |t| <= 10, and points next to the pole
    rng = random.Random(20261020)
    return ([s for s in _theta_route_points() if s.real >= 1.0]
            + [complex(rng.uniform(1.0, 1000.0), rng.uniform(-10.0, 10.0))
               for _ in range(24)]
            + [complex(1.0 + rng.uniform(0.0, 1e-3), rng.uniform(-1e-3, 1e-3))
               for _ in range(8)])


@pytest.mark.parametrize("s", _right_of_one_points())
def test_euler_maclaurin_meets_its_estimate_right_of_one(s):
    # Re s >= 1 takes Euler-Maclaurin; its estimate is floored at
    # 10 eps |value|, since the terms alone read below the error at most
    # of these points
    r = zeta_analytic(s)
    assert r.evaluations == 16 + len(zeta_classic._EM_COEFFS) + int(1.5 * abs(s.imag))
    assert abs(r.value - zeta_ref(s)) <= r.err_estimate
    assert r.converged


def _em_points():
    rng = random.Random(20261018)
    return ([-1.91 - 429.6j, -1.5 + 1000.0j, 0.5 + 300.0j, 0.5 + 4850.0j]
            + [complex(0.5, rng.uniform(2000.0, 5000.0)) for _ in range(12)]
            + [complex(rng.uniform(-2.0, 4.0), rng.uniform(11.0, 1000.0))
               for _ in range(12)])


@pytest.mark.parametrize("s", _em_points())
def test_euler_maclaurin_err_estimate_covers_its_rounding(s):
    # the rounding of the phases t log n grows with |t|: 1.5e-13 off at
    # 0.5 + 300i and up to 8.7e-12 near t = 5000, where the last Bernoulli
    # term alone reads 1e-19
    r = zeta_analytic(s)
    assert abs(r.value - zeta_ref(s)) <= r.err_estimate


def test_chi_functional_equation():
    for s in (0.3 + 5.0j, 0.5 + 14.0j, -0.5 + 2.0j):
        lhs = zeta_analytic(s).value
        rhs = chi_factor(s) * zeta_analytic(1.0 - s).value
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_chi_inverse_pair():
    for s in (0.2 + 7.0j, 0.8 - 3.0j):
        assert chi_factor(s) * chi_factor(1.0 - s) == pytest.approx(1.0, rel=1e-12)


def test_chi_integer_rejection():
    for n in (0.0, 1.0, 3.0, -2.0, -1.0):
        with pytest.raises(PoleError):
            chi_factor(n)
    # positive even integers are fine: chi(2) = pi^2/6 / zeta(-1) = -2 pi^2
    assert chi_factor(2.0).real == pytest.approx(-2.0 * math.pi**2, rel=1e-12)


@pytest.mark.parametrize("s", [0.3 + 227.0j, 0.7 + 453.0j, -3.0 + 300.0j,
                               0.3 + 1000.0j, 0.7 - 600.0j])
def test_chi_past_gamma_and_cosine_overflow(s):
    # sin, cos and Gamma each leave the double range here; chi does not
    ref = chi_ref(s)
    assert abs(chi_factor(s) - ref) <= 1e-11 * abs(ref)


def test_xi_special_values():
    assert xi_entire(0.0).value == pytest.approx(1.0, rel=1e-13)
    assert xi_entire(1.0).value == pytest.approx(1.0, rel=1e-13)
    assert xi_entire(0.5).value.real == pytest.approx(0.9942415563766283, rel=1e-12)


@pytest.mark.parametrize("s", [300.0, 400.0, -299.0, 300.0 + 5.0j])
def test_xi_past_the_overflow_of_the_theta_route(s):
    # x^{(s-2)/2} overflows in I(s) here, so xi is read from its logarithm
    with pytest.raises(OverflowError):
        zeta_classic._tail_integral(s, QuadratureSpec())
    r = xi_entire(s)
    with mp.workdps(40):
        ref = xi_ref(s)
    assert r.converged
    assert abs(r.value - ref) <= 2e-13 * abs(ref)


@pytest.mark.parametrize("s", [200.0, 240.0, 250.0, 255.0, 260.0, -259.0,
                               250.0 + 3.0j])
def test_xi_theta_route_estimate_covers_its_error(s):
    # near the top of the theta route the rounding of x^{(s-2)/2} is the
    # error, and the tail's increment alone under-reported it 7-fold
    r = xi_entire(s)
    with mp.workdps(40):
        ref = complex(xi_ref(s))
    assert r.converged
    assert abs(r.value - ref) <= r.err_estimate


@given(
    st.floats(min_value=-2.0, max_value=3.0),
    st.floats(min_value=-8.0, max_value=8.0),
)
def test_xi_symmetry(re, im):
    s = complex(re, im)
    a = xi_entire(s).value
    b = xi_entire(1.0 - s).value
    assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)


def test_theta_phase():
    assert riemann_siegel_theta(0.0) == 0.0
    t = 14.134725141734695
    assert riemann_siegel_theta(t) == pytest.approx(-1.7286702466758372, rel=1e-12)
    assert riemann_siegel_theta(-t) == pytest.approx(1.7286702466758372, rel=1e-12)


def test_theta_tail_is_the_bernoulli_series_to_the_first_term_below_eps():
    # each coefficient is the double nearest its exact rational, highest
    # power first
    exact = theta_tail_coefficients(len(_THETA_TAIL))
    assert list(_THETA_TAIL) == [float(c) for c in reversed(exact)]
    # and there are as few as leave less than eps |theta| out at t = 2 pi
    with mp.workdps(40):
        t = 2 * mp.pi
        floor = sys.float_info.epsilon * abs(mp.siegeltheta(t))
        left = [abs(mp.siegeltheta(t) - theta_series_mp(t, k))
                for k in (len(_THETA_TAIL) - 1, len(_THETA_TAIL))]
    assert left[0] > floor > left[1]


def _theta_heights(lo, hi, count=150):
    """Seeded heights on [lo, hi), log-uniform when lo > 0."""
    rng = random.Random(28)
    if lo == 0.0:
        return [rng.uniform(lo, hi) for _ in range(count)]
    return [lo * (hi / lo) ** rng.random() for _ in range(count)]


@pytest.mark.parametrize("lo, hi", [(0.0, _RS_T_MIN), (_RS_T_MIN, 1e6)],
                         ids=["lanczos", "series"])
def test_theta_meets_mpmath_within_the_rounding_of_its_terms(lo, hi):
    # theta is formed from terms of size (t/2)(|log(t / 2 pi)| + 1); its
    # error over eps times that reads 1.29 below 2 pi (Lanczos) and 0.99
    # above (the series), where Lanczos read 1.62 at these heights
    for t in _theta_heights(lo, hi):
        size = 0.5 * t * (abs(math.log(t / (2.0 * math.pi))) + 1.0) + 1.0
        with mp.workdps(30):
            error = abs(float(riemann_siegel_theta(t) - siegel_theta_mp(t)))
        assert error <= 1.5 * sys.float_info.epsilon * size, t


@pytest.mark.parametrize("lo, hi", [(0.0, _RS_T_MIN), (_RS_T_MIN, 1e6)],
                         ids=["lanczos", "series"])
def test_theta_is_exactly_odd(lo, hi):
    for t in _theta_heights(lo, hi):
        assert riemann_siegel_theta(-t) == -riemann_siegel_theta(t)


def test_hardy_z_below_the_switch_height_meets_its_estimate():
    # e^{i theta} zeta(1/2 + it) with theta by its series from t = 2 pi:
    # the worst error / estimate reads 0.58 at these heights
    rng = random.Random(2810)
    for t in (rng.uniform(10.0, _HARDY_RS_T_MIN) for _ in range(120)):
        r = hardy_z(t)
        with mp.workdps(30):
            ref = hardy_z_ref(t)
        assert abs(r.value.real - ref) <= r.err_estimate, t


def _fixed(x):
    """x = num / 2^k exactly, as (num, k)."""
    num, den = x.as_integer_ratio()
    return num, den.bit_length() - 1


def test_fixed_point_theta_log_and_two_pi_match_mpmath():
    # a float theta is off by its ulp (the Lanczos one by 9.3e-10 at t = 1e6);
    # 6.2e12 is near the default term ceiling of hardy_z
    bits = zeta_classic._FIX_BITS
    for t in (100.0, 1234.5, 98765.4, 999999.9, 6.2e12):
        num, k = _fixed(t)
        theta = zeta_classic._theta_fix(num, k)
        assert abs(fixed_gap_ref(theta, bits + k,
                                 lambda: siegel_theta_mp(t))) <= 2e-16
    for x in (0.37, 100.0, 6.5e4, 1e12):
        log = zeta_classic._log_fix(*_fixed(x))
        assert abs(fixed_gap_ref(log, bits, lambda: log_mp(x))) <= 1e-22
    # the constants are the integers nearest their values
    assert abs(fixed_gap_ref(zeta_classic._TWO_PI_FIX, bits,
                             two_pi_mp)) <= 2.0 ** -(bits + 1)
    assert abs(fixed_gap_ref(zeta_classic._LOG_TWO_PI_FIX, bits,
                             lambda: log_mp(two_pi_mp()))) <= 2.0 ** -(bits + 1)


@pytest.mark.parametrize("t", [1e10, 1e11], ids=["1e10", "1e11"])
def test_hardy_z_meets_its_estimate_far_above_one_million(t):
    # 4e4 and 1.3e5 terms, where a phase of size t log t held in floats
    # loses the estimate (a double-double one left 2.0e-10 at 1e10 against
    # 8.0e-13).  1e12 is in the fixture but not run here: its 4e5-entry log
    # table takes about 1 s to build.
    r = hardy_z(t)
    assert abs(r.value.real - Z_EXTREME[t]) <= r.err_estimate
    # the estimate no longer grows with t: 1.8e-14 at 1e11, where the
    # fitted (t / 2 pi)^(1/4) term read 1.4e-12, above the 1e-12 tolerance
    assert r.converged


def test_hardy_z():
    z0 = hardy_z(0.0)
    assert z0.value.real == pytest.approx(-1.4603545088095868, rel=1e-12)
    assert hardy_z(20.0).value.real == pytest.approx(1.1478424121851973, rel=1e-11)
    assert hardy_z(27.5).value.real == pytest.approx(2.816917528127119, rel=1e-11)
    for t in (5.0, 17.3, 33.0):
        assert abs(hardy_z(t).value.imag) < 1e-11


def test_find_zeros_first_two():
    brackets = find_zeros(13.0, 22.0, 0.2)
    assert len(brackets) == 2
    assert brackets[0].refined_t == pytest.approx(14.134725141734695, abs=1e-6)
    assert brackets[1].refined_t == pytest.approx(21.022039638771556, abs=1e-6)
    for b in brackets:
        assert b.t_lo <= b.refined_t <= b.t_hi
        assert b.z_lo * b.z_hi < 0.0


def test_find_zeros_empty_window():
    assert find_zeros(2.0, 10.0, 0.25) == []


def test_find_zeros_domain():
    with pytest.raises(DomainError):
        find_zeros(40.0, 10.0, 0.1)
    with pytest.raises(DomainError):
        find_zeros(10.0, 40.0, 0.0)
    with pytest.raises(DomainError):
        find_zeros(10.0, 40.0, 1.5)


def test_riemann_siegel_coefficients_match_oracle_tables():
    # the fixture's rows run lowest power first, the module's highest first
    assert len(_RS_COEFFS) == len(RS_FIXTURE["coefficients"]) == 13
    for mine, ref in zip(_RS_COEFFS, RS_FIXTURE["coefficients"]):
        assert list(mine[::-1]) == pytest.approx(ref, rel=1e-15, abs=1e-22)


def _z_rs(t):
    """Z_RS: twice the main sum plus the remainder on the grid's rows."""
    a, n_top, main = zeta_classic._rs_main(t)
    return 2.0 * main + _rs_remainder(a, n_top, a - n_top - 0.5, _RS_COEFFS_GRID)


def test_riemann_siegel_z_stays_well_inside_its_bound():
    points = RS_FIXTURE["z"]
    assert len(points) >= 500
    assert min(t for t, _ in points) >= _RS_T_MIN
    assert max(t for t, _ in points) <= 1e4
    # the bound is a conservative envelope: at least ten times the error
    worst = max(abs(_z_rs(t) - z) / _rs_bound(t) for t, z in points)
    assert worst <= 0.1


def test_riemann_siegel_z_stays_well_inside_its_bound_up_to_one_million():
    # the grid serves any height a scan asks for: 0.039 at worst here
    points = RS_FIXTURE["z_high"]
    assert len(points) >= 200 and max(t for t, _ in points) > 9e5
    worst = max(abs(_z_rs(t) - z) / _rs_bound(t) for t, z in points)
    assert worst <= 0.1


def test_grid_rows_keep_the_fewest_terms_the_grid_bound_needs():
    # row k's dropped tail at |p - 1/2| <= 1/2 (y <= 1/4, odd rows times
    # 1/2), weighted by a^(-k-1/2), stays below 1% of _rs_bound(t) at every
    # t >= 2 pi, and one term fewer would not; the allowance is least near
    # t = 1000-2000 and grows on both sides.  Rows run highest power first,
    # so a cut row is a suffix
    heights = [_RS_T_MIN * 10.0 ** (i / 1000) for i in range(8001)]
    assert len(_RS_COEFFS_GRID) == 5
    for k, (row, grid) in enumerate(zip(_RS_COEFFS, _RS_COEFFS_GRID)):
        assert grid == row[-len(grid):]
        allowance = [0.01 * _rs_bound(t) * (t / (2.0 * math.pi)) ** (0.5 * k + 0.25)
                     for t in heights]
        least = min(allowance)
        assert least < allowance[0] and least < allowance[-1]

        def tail(m):
            return ((0.5 if k % 2 else 1.0)
                    * sum(abs(c) * 0.25 ** j for j, c in enumerate(row[::-1])
                          if j >= m))
        assert tail(len(grid)) <= least < tail(len(grid) - 1), k


def _reach(a):
    """a^(-1/2) sum_k R_k a^(-k): the grid remainder's largest size at a."""
    return sum(r * a ** -k for k, r in enumerate(_RS_REACH[::-1])) / math.sqrt(a)


def test_grid_reach_bounds_the_grid_remainder():
    # R_k is row k's coefficients in absolute value at y = 1/4, halved on
    # the odd rows (their factor |p - 1/2| <= 1/2), computed from the table
    # and stored R_4 first, the order Horner's rule reads them in
    assert len(_RS_REACH) == len(_RS_COEFFS_GRID) == 5
    for k, (reach, row) in enumerate(zip(_RS_REACH[::-1], _RS_COEFFS_GRID)):
        total = math.fsum(abs(c) * 0.25 ** j for j, c in enumerate(row[::-1]))
        assert reach == pytest.approx(total * (0.5 if k % 2 else 1.0), rel=1e-15)
    assert _RS_REACH == pytest.approx((0.0040, 0.0104, 0.0253, 0.0938, 0.9815),
                                      abs=5e-5)
    # so it bounds the remainder at every a; the worst ratio here is 0.94
    rng = random.Random(29)
    worst = 0.0
    for _ in range(10_000):
        a = rng.uniform(1.0, 1e3)
        n_top = int(a)
        rem = _rs_remainder(a, n_top, a - n_top - 0.5, _RS_COEFFS_GRID)
        worst = max(worst, abs(rem) / _reach(a))
    assert 0.9 < worst < 1.0


def _remainder_by_poly(a, n_top, x, orders):
    """`_rs_remainder` summed row by row through `_poly`."""
    rem, scale = 0.0, 1.0
    for k, coeffs in enumerate(orders):
        rem += _poly(coeffs, x * x) * (x if k % 2 else 1.0) * scale
        scale /= a
    return (rem if n_top % 2 else -rem) / math.sqrt(a)


def test_remainder_rows_in_one_loop_equal_poly_bit_for_bit():
    # at a = 1, one row alone, _rs_remainder is that row's Horner sum
    rng = random.Random(2929)
    for _ in range(10_000):
        a, x = rng.uniform(1.0, 1e3), rng.uniform(-0.5, 0.5)
        n_top = int(a)
        for rows in (_RS_COEFFS, _RS_COEFFS_GRID):
            for row in rows:
                assert _rs_remainder(1.0, 1, x, (row,)) == _poly(row, x * x)
            assert (_rs_remainder(a, n_top, x, rows)
                    == _remainder_by_poly(a, n_top, x, rows))


def test_extended_riemann_siegel_keeps_a_tenfold_margin_on_its_bound():
    assert len(RS_FIXTURE["z_high"]) >= 200
    assert min(t for t, _ in RS_HIGH) >= _HARDY_RS_T_MIN
    assert max(t for t, _ in RS_HIGH) <= 1e6
    worst = max(abs(_hardy_z_rs(t)[0] - z) / _hardy_rs_bound(t, z)
                for t, z in RS_HIGH)
    assert worst <= 0.1


def test_hardy_z_err_estimate_bounds_its_error_above_the_switch_height():
    for t, z in RS_HIGH:
        r = hardy_z(t)
        assert r.value.imag == 0.0
        assert abs(r.value.real - z) <= r.err_estimate <= 1e-13
        assert r.converged


def test_hardy_z_is_even_above_the_switch_height():
    for t, _ in RS_HIGH[::10]:
        assert hardy_z(-t) == hardy_z(t)


def test_hardy_z_at_the_switch_height_agrees_with_mpmath():
    below = hardy_z(math.nextafter(_HARDY_RS_T_MIN, 0.0))
    above = hardy_z(_HARDY_RS_T_MIN)
    ref = hardy_z_ref(_HARDY_RS_T_MIN)
    assert abs(above.value.real - ref) <= above.err_estimate
    assert abs(below.value.real - ref) <= 1e-13


def _em_z(t):
    """Z(t) from Euler-Maclaurin zeta and the Lanczos phase, no Riemann-Siegel."""
    zeta = _euler_maclaurin(complex(0.5, t), zeta_classic.DEFAULT_QUAD).value
    return (cmath.exp(1j * riemann_siegel_theta(t)) * zeta).real


def _em_sign_scan(t_min, t_max, step):
    """(t_lo, t_hi) of every sign change of _em_z on the grid."""
    out = []
    t_lo, k = float(t_min), 1
    z_lo = _em_z(t_lo)
    while t_lo < t_max:
        t_hi = min(t_min + k * step, float(t_max))
        z_hi = _em_z(t_hi)
        if z_lo * z_hi < 0.0:
            out.append((t_lo, t_hi))
        t_lo, z_lo, k = t_hi, z_hi, k + 1
    return out


@pytest.mark.parametrize("t_min", [10.0, 300.0, 1000.0, 4990.0])
def test_find_zeros_brackets_equal_euler_maclaurin_scan(t_min):
    t_max = t_min + 5.0
    brackets = find_zeros(t_min, t_max, 0.05)
    assert [(b.t_lo, b.t_hi) for b in brackets] == _em_sign_scan(t_min, t_max, 0.05)
    assert len(brackets) == zero_count_ref(t_max) - zero_count_ref(t_min)
    # Euler-Maclaurin's err_estimate leaves its rounding out (1e-19 against
    # 1e-13..1e-11 here), so the bracket values are held to mpmath: within
    # hardy_z's bound above the switch height, and equal to the
    # Euler-Maclaurin route below it, which is hardy_z's route there
    for b in brackets:
        for t, z in ((b.t_lo, b.z_lo), (b.t_hi, b.z_hi)):
            if t >= _HARDY_RS_T_MIN:
                assert abs(z - hardy_z_ref(t)) <= _hardy_rs_bound(t, z)
            else:
                assert z == _em_z(t)


def test_find_zeros_above_the_switch_height_makes_no_euler_maclaurin_call(
        monkeypatch):
    calls = []

    def counted(s, q):
        calls.append(s)
        return _euler_maclaurin(s, q)

    monkeypatch.setattr(zeta_classic, "_euler_maclaurin", counted)
    assert _HARDY_RS_T_MIN <= 1000.0
    brackets = find_zeros(1000.0, 1005.0, 0.05)
    assert len(brackets) == 4
    assert calls == []


def _z_rs_by_poly(t):
    """Z_RS with its remainder summed through `_poly`."""
    a, n_top, main = zeta_classic._rs_main(t)
    return 2.0 * main + _remainder_by_poly(a, n_top, a - n_top - 0.5,
                                           _RS_COEFFS_GRID)


def _scan_reading_every_remainder(t_min, t_max, step):
    """find_zeros by the rule without the main-sum signs: Z_RS (`_poly`'s
    rows) at every grid point, `hardy_z` where it does not clear its bound."""
    def z_sign(t):
        if t >= _RS_T_MIN:
            z = _z_rs_by_poly(t)
            if abs(z) > _rs_bound(t):
                return z
        return zeta_classic.hardy_z(t).value.real

    out = []
    t_lo, k = float(t_min), 1
    s_lo = z_sign(t_lo)
    while t_lo < t_max:
        t_hi = min(t_min + k * step, float(t_max))
        s_hi = z_sign(t_hi)
        if s_lo * s_hi < 0.0:
            z_lo = zeta_classic.hardy_z(t_lo).value.real
            z_hi = zeta_classic.hardy_z(t_hi).value.real
            if z_lo * z_hi < 0.0:
                root = zeta_classic._illinois(z_sign, t_lo, t_hi, z_lo, z_hi)
                out.append((t_lo, t_hi, z_lo, z_hi, root))
        t_lo, s_lo, k = t_hi, s_hi, k + 1
    return out


@pytest.mark.parametrize("t_min,t_max,step", [
    (6.0, 11.0, 0.05), (97.5, 102.5, 0.05), (1000.0, 1005.0, 0.05),
    (4990.0, 4995.0, 0.05), (7005.0, 7005.2, 0.01)])
def test_find_zeros_equals_a_scan_that_reads_every_remainder(
        monkeypatch, t_min, t_max, step):
    # the windows start below 2 pi, cross H = 100, and hold Lehmer's pair
    calls = []

    def counted(t, q=zeta_classic.DEFAULT_QUAD):
        calls.append(t)
        return hardy_z(t, q)

    monkeypatch.setattr(zeta_classic, "hardy_z", counted)
    reference = _scan_reading_every_remainder(t_min, t_max, step)
    reference_calls = list(calls)
    calls.clear()
    brackets = find_zeros(t_min, t_max, step)
    assert [(b.t_lo, b.t_hi, b.z_lo, b.z_hi, b.refined_t)
            for b in brackets] == reference
    assert calls == reference_calls
    assert len(brackets) == zero_count_ref(t_max) - zero_count_ref(t_min)


def test_find_zeros_sums_few_remainders_on_its_grid(monkeypatch):
    # 101 grid points, t_min + k step; the main sum alone settles all but
    # 13 of them.  Every Illinois
    # step here lands inside the reach and reads the remainder, and
    # hardy_z's calls are those of a scan that reads every remainder
    counts = {"remainder": 0, "illinois": 0, "grid": 0, "hardy_z": 0}

    def counter(name, key, only=None):
        original = getattr(zeta_classic, name)

        def counted(*args):
            if only is None or args[-1] is only:
                counts[key] += 1
            return original(*args)
        monkeypatch.setattr(zeta_classic, name, counted)

    illinois = zeta_classic._illinois

    def counted_steps(f, *bracket):
        def step(t):
            counts["illinois"] += 1
            return f(t)
        return illinois(step, *bracket)

    monkeypatch.setattr(zeta_classic, "_illinois", counted_steps)
    counter("_rs_remainder", "remainder", only=_RS_COEFFS_GRID)
    counter("_rs_main", "grid")
    counter("hardy_z", "hardy_z")
    brackets = find_zeros(1000.0, 1005.0, 0.05)
    assert len(brackets) == 4
    grid = counts["grid"] - counts["illinois"]
    assert grid == 101
    assert counts["remainder"] - counts["illinois"] == 13
    assert counts["illinois"] > 0
    assert counts["hardy_z"] == 12


@pytest.mark.parametrize("t_min,t_max,step", [
    (10.0, 20.0, 0.05), (1000.0, 1005.0, 0.05), (7005.0, 7005.2, 0.01)])
def test_find_zeros_grid_is_t_min_plus_k_step(t_min, t_max, step):
    # no drift: a grid that added up its steps put scan --t 10:20's t_lo
    # at 14.100000000000058
    brackets = find_zeros(t_min, t_max, step)
    assert brackets
    for b in brackets:
        k = round((b.t_lo - t_min) / step)
        assert b.t_lo == t_min + k * step
        assert b.t_hi == min(t_min + (k + 1) * step, t_max)


def test_grid_skips_the_remainder_only_past_its_reach_plus_the_bound(
        monkeypatch):
    # twice the main sum placed half a bound inside, then half a bound
    # outside, reach + _rs_bound: only outside does the grid skip the
    # remainder, so a skip implies |Z_RS| > _rs_bound
    rs_main, remainder = zeta_classic._rs_main, zeta_classic._rs_remainder
    calls = []

    def counted(*args):
        calls.append(args[-1] is _RS_COEFFS_GRID)
        return remainder(*args)

    monkeypatch.setattr(zeta_classic, "_rs_remainder", counted)
    for share, expected in ((0.5, 2), (1.5, 0)):
        def placed(t, share=share):
            a, n_top, _ = rs_main(t)
            return a, n_top, 0.5 * (_reach(a) + share * _rs_bound(t))

        monkeypatch.setattr(zeta_classic, "_rs_main", placed)
        calls.clear()
        assert find_zeros(1000.0, 1000.05, 0.05) == []
        assert calls.count(True) == expected, share


def test_find_zeros_separates_lehmer_pair():
    brackets = find_zeros(7005.0, 7005.2, 0.01)
    assert len(brackets) == 2 == zero_count_ref(7005.2) - zero_count_ref(7005.0)
    assert brackets[0].t_hi <= brackets[1].t_lo
    for b in brackets:
        assert b.t_lo <= b.refined_t <= b.t_hi
        assert b.z_lo * b.z_hi < 0.0


@pytest.mark.parametrize("n,zero", RS_FIXTURE["zeros"],
                         ids=lambda v: f"{v:g}" if isinstance(v, float) else str(v))
def test_refined_zero_within_1e8_of_mpmath(n, zero):
    brackets = find_zeros(zero - 0.3, zero + 0.3, 0.05)
    near = [b for b in brackets if b.t_lo <= zero <= b.t_hi]
    assert len(near) == 1
    assert abs(near[0].refined_t - zero) <= 1e-8


def test_refined_zeros_at_a_coarse_step_within_1e8_of_mpmath():
    # at step 1.0 some Illinois steps land where twice the main sum clears
    # the remainder's reach, and the sign rule returns that value instead
    # of Z_RS; the refined zeros stay within 1e-8.  44 of the 50 zeros in
    # (100, 200]: three steps hold two zeros each
    brackets = find_zeros(100.0, 200.0, 1.0)
    assert len(brackets) == 44
    for b in brackets:
        n = zero_count_ref(b.t_hi)
        assert n - zero_count_ref(b.t_lo) == 1
        assert abs(b.refined_t - zero_ref(n)) <= 1e-8


def test_find_zeros_spends_few_hardy_z_calls_per_zero(monkeypatch):
    calls = []

    def counted(t, q=zeta_classic.DEFAULT_QUAD):
        calls.append(t)
        return hardy_z(t, q)

    monkeypatch.setattr(zeta_classic, "hardy_z", counted)
    brackets = find_zeros(1000.0, 1005.0, 0.05)
    # two bracket ends plus the Illinois steps; a bisection scan spent
    # 101 grid points plus 23 steps a zero
    assert len(brackets) == 4
    assert len(calls) <= 8 * len(brackets)


def _bits(z):
    return (z.real.hex(), z.imag.hex())


def _power_loop(n_top, w):
    total = 0j
    for n in range(1, n_top + 1):
        total += power_real_base(n, w)
    return total


def test_dirichlet_sum_and_euler_maclaurin_are_bit_equal_to_a_power_loop(
        monkeypatch):
    # a fresh log table, grown out of order: N = 466, then 16 and 32, then 7516
    monkeypatch.setattr(zeta_classic, "_LOG_N", array("d", [0.0]))
    largest = 0
    for t in (300.0, 0.0, 11.0, 5000.0):
        n_cut = 16 + int(1.5 * t)
        largest = max(largest, n_cut)
        for sigma in (-1.5, 0.5, 2.0):
            s = complex(sigma, t)
            assert _bits(_dirichlet_sum(n_cut, -s)) == _bits(_power_loop(n_cut, -s))
            fast = _euler_maclaurin(s, zeta_classic.DEFAULT_QUAD)
            with monkeypatch.context() as m:
                m.setattr(zeta_classic, "_dirichlet_sum", _power_loop)
                slow = _euler_maclaurin(s, zeta_classic.DEFAULT_QUAD)
            assert _bits(fast.value) == _bits(slow.value)
            assert fast.err_estimate == slow.err_estimate
        assert len(zeta_classic._LOG_N) == largest + 1


@pytest.mark.parametrize("t_min", [1000.0, 2000.0])
def test_find_zeros_spends_three_hardy_z_calls_per_zero_above_1000(
        monkeypatch, t_min):
    calls = []

    def counted(t, q=zeta_classic.DEFAULT_QUAD):
        calls.append(t)
        return hardy_z(t, q)

    monkeypatch.setattr(zeta_classic, "hardy_z", counted)
    brackets = find_zeros(t_min, t_min + 5.0, 0.05)
    # the two bracket ends, then Illinois steps on certified Riemann-Siegel
    # values until one lands inside the bound
    assert len(brackets) == zero_count_ref(t_min + 5.0) - zero_count_ref(t_min)
    assert len(calls) <= 3 * len(brackets)


def test_refinement_stays_within_1e8_when_riemann_siegel_errs_by_its_bound(
        monkeypatch):
    # push every Z_RS the sign rule sums, on the grid and in the Illinois
    # steps, 0.9 bound toward zero through the remainder it adds: a sign
    # taken only where |Z_RS| clears the bound stays right, any other would
    # not
    rs_main, remainder = zeta_classic._rs_main, zeta_classic._rs_remainder
    last = {}

    def seen(t):
        a, n_top, main = rs_main(t)
        last.update(t=t, main=main)
        return a, n_top, main

    def pushed(a, n_top, x, rows):
        rem = remainder(a, n_top, x, rows)
        if rows is not _RS_COEFFS_GRID:
            return rem
        z = 2.0 * last["main"] + rem
        return rem - math.copysign(0.9 * _rs_bound(last["t"]), z)

    monkeypatch.setattr(zeta_classic, "_rs_main", seen)
    monkeypatch.setattr(zeta_classic, "_rs_remainder", pushed)
    _assert_fixture_zeros_refined_within_1e8()


def test_refinement_stays_within_1e8_when_the_main_sum_errs_by_its_bound(
        monkeypatch):
    # push every main sum 0.45 bound toward zero: Z_RS and the grid's main
    # sum alone are 0.9 bound off, and the signs taken stay right
    rs_main = zeta_classic._rs_main

    def pushed(t):
        a, n_top, main = rs_main(t)
        return a, n_top, main - math.copysign(0.45 * _rs_bound(t), main)

    monkeypatch.setattr(zeta_classic, "_rs_main", pushed)
    _assert_fixture_zeros_refined_within_1e8()


def _assert_fixture_zeros_refined_within_1e8():
    """Each fixture zero and Lehmer's pair in its own bracket, refined_t
    within 1e-8 of mpmath."""
    for _, zero in RS_FIXTURE["zeros"]:
        near = [b for b in find_zeros(zero - 0.3, zero + 0.3, 0.05)
                if b.t_lo <= zero <= b.t_hi]
        assert len(near) == 1
        assert abs(near[0].refined_t - zero) <= 1e-8
    lehmer = find_zeros(7005.0, 7005.2, 0.01)
    assert len(lehmer) == len(RS_FIXTURE["lehmer_pair"]) == 2
    for b, (_, zero) in zip(lehmer, RS_FIXTURE["lehmer_pair"]):
        assert b.t_lo <= zero <= b.t_hi
        assert abs(b.refined_t - zero) <= 1e-8


def test_term_budget_refuses_a_height_before_a_table_grows(monkeypatch):
    # each route's term count is checked against max_terms first, so the
    # shared log tables stay as they were; max_terms moves the ceiling
    monkeypatch.setattr(zeta_classic, "_LOG_N", array("d", [0.0]))
    monkeypatch.setattr(zeta_classic, "_LOG_FIX", [0, 0])
    # Euler-Maclaurin takes 16 + 1.5 |t| terms: 1516 at t = 1000
    with pytest.raises(NonConvergence, match="Euler-Maclaurin"):
        zeta_analytic(0.5 + 1000.0j, QuadratureSpec(max_terms=1515))
    # Riemann-Siegel takes floor(sqrt(t / 2 pi)) terms: 126 at t = 1e5
    with pytest.raises(NonConvergence, match="Riemann-Siegel"):
        hardy_z(1e5, QuadratureSpec(max_terms=125))
    with pytest.raises(NonConvergence, match="Riemann-Siegel"):
        find_zeros(1e5, 1e5 + 0.2, 0.05, QuadratureSpec(max_terms=125))
    assert len(zeta_classic._LOG_N) == 1 and len(zeta_classic._LOG_FIX) == 2
    # 1516 terms run; their rounding (err_estimate 2.5e-12) is above the
    # 1e-12 tolerance, so the value reports converged=False
    r = zeta_analytic(0.5 + 1000.0j, QuadratureSpec(max_terms=1516))
    assert r.evaluations == 1516 + len(zeta_classic._EM_COEFFS)
    assert abs(r.value - zeta_ref(0.5 + 1000.0j)) <= r.err_estimate
    assert hardy_z(1e5, QuadratureSpec(max_terms=126)).converged


def test_find_zeros_refuses_a_step_that_does_not_move_t():
    with pytest.raises(DomainError):
        find_zeros(1e17, 1e17 + 32.0, 0.05)


@pytest.mark.parametrize("argv", [
    ["eval", "--fn", "hardy-z", "--t", "1e13"],
    ["eval", "--fn", "hardy-z", "--t", "1e300"],
    ["eval", "--fn", "zeta", "--s", "0.5+1e9i"],
    ["scan", "--t", "1e17:100000000000000032"],
])
def test_heights_no_route_can_serve_fail_fast(argv):
    # each of these ran until killed, its log table growing, before the
    # term budget; a fresh interpreter keeps a regression from eating memory
    env = {**os.environ,
           "PYTHONPATH": str(pathlib.Path(zeta_classic.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "zetalab.cli", *argv],
                          capture_output=True, env=env, timeout=2.0)
    assert done.returncode in (1, 2)
    assert done.stderr.startswith(b"zetalab: error: ")


def test_fixed_point_log_table_matches_decimal(monkeypatch):
    # a table grown from scratch against 40-digit decimal logarithms: every
    # n <= 2e4 (ln of each prime, sums of those for the composites), and 200
    # seeded n <= 2^20, past the 1e6 terms of the default max_terms
    monkeypatch.setattr(zeta_classic, "_LOG_FIX", [0, 0])
    table = zeta_classic._log_fix_table(2 ** 20)
    ctx = Context(prec=40)
    unit = Decimal(2 ** zeta_classic._FIX_BITS)
    ln = {1: Decimal(0)}
    for n in range(2, 20001):
        a = next((p for p in range(2, math.isqrt(n) + 1) if n % p == 0), n)
        ln[n] = ctx.ln(Decimal(n)) if a == n else ctx.add(ln[a], ln[n // a])
    rng = random.Random(20261018)
    for _ in range(200):
        n = rng.randrange(20001, 2 ** 20 + 1)
        ln[n] = ctx.ln(Decimal(n))
    assert max(abs(float(ctx.subtract(ctx.divide(Decimal(table[n]), unit), v)))
               for n, v in ln.items()) <= 1e-30
