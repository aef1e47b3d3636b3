"""K_nu tests: closed forms, the nu-symmetry, recurrence, and each route of the dispatch."""

import cmath
import json
import math
import pathlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

import zetalab.bessel as bessel
from oracles import besselk_ref, gamma_ref
from zetalab.bessel import (
    _SERIES_Z,
    _shifted_route,
    bessel_k,
    bessel_k_complex_arg,
    bessel_k_from_laplace,
    laplace_pair_integral,
)
from zetalab.errors import DomainError, NonConvergence
from zetalab.gammafn import gamma_complex, power_real_base
from zetalab.types import DEFAULT_QUAD, EvalResult, QuadratureSpec, make_result


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
    # relative |K_nu(z) - K_{-nu}(z)|
    nu = complex(nu_re, nu_im)
    a, b = bessel_k(nu, z).value, bessel_k(-nu, z).value
    assert abs(a - b) / max(abs(a), abs(b), 1e-300) <= 1e-12


def _symmetry_points(route: str):
    # seeded (nu, z) that take each route of the dispatch
    rng = random.Random({"series": 31, "contour": 32, "cosh": 33}[route])
    points = []
    for _ in range(100):
        nu_re = rng.uniform(-3.0, 3.0)
        if route == "cosh":
            points.append((complex(nu_re, 0.0), rng.uniform(0.05, 30.0)))
            continue
        nu = complex(nu_re, rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 40.0))
        z = rng.uniform(0.05, _SERIES_Z) if route == "series" \
            else rng.uniform(2.05, 30.0)
        points.append((nu, z))
    return points


@pytest.mark.parametrize("route", ["series", "contour", "cosh"])
def test_order_symmetries_hold_bit_for_bit(route):
    # K_{-nu} = K_nu and K_{conj nu} = conj K_nu, field for field: a ray
    # row of the exp-symmetric quadrature takes each K once per pair
    # (regularized._k_once)
    for nu, z in _symmetry_points(route):
        k = bessel_k(nu, z)
        assert bessel_k(-nu, z) == k, (nu, z)
        if route != "cosh":
            assert bessel_k(nu.conjugate(), z) == replace(
                k, value=k.value.conjugate()), (nu, z)
            assert bessel_k(-nu.conjugate(), z) == replace(
                k, value=k.value.conjugate()), (nu, z)
        else:
            assert k.value.imag == 0.0 and k.evaluations < 100


def test_order_symmetry_series_points_take_the_series():
    # 10-25 terms where the trapezoids take 70 and more; the contour points
    # have z > _SERIES_Z and real z, which the dispatch sends to the contour
    assert all(bessel_k(nu, z).evaluations <= 30
               for nu, z in _symmetry_points("series"))


def test_recurrence():
    # K_{nu-1} - K_{nu+1} = -(2 nu / z) K_nu
    for nu, z in ((0.3 + 2.0j, 1.0), (1.5, 0.7)):
        km, kp = bessel_k(nu - 1.0, z).value, bessel_k(nu + 1.0, z).value
        k0 = bessel_k(nu, z).value
        assert abs(km - kp + (2.0 * complex(nu) / z) * k0) < 1e-10


def test_two_integral_representations_agree():
    # laplace integral vs 2 (beta/gamma)^{nu/2} K_nu(2 sqrt(beta gamma))
    for nu in (0.0, 0.5, 1.0, 0.25 + 0.5j):
        for beta, gamma in ((0.5, 1.0), (1.0, 3.0), (3.0, 0.5)):
            lhs = laplace_pair_integral(nu, beta, gamma).value
            z = 2.0 * math.sqrt(beta * gamma)
            rhs = 2.0 * power_real_base(beta / gamma, nu / 2.0) * bessel_k(nu, z).value
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)
    # complex gamma turns the path; beta = 0 is Gamma(nu) / gamma^nu
    for nu in (0.5, 1.5, 0.25 + 0.5j):
        for beta, gamma in ((2.0, 1.0 - 3.0j), (0.5, 0.2 + 4.0j), (30.0, 2.0 + 1.0j)):
            lhs = laplace_pair_integral(nu, beta, gamma).value
            rhs = (2.0 * cmath.exp(0.5 * nu * cmath.log(beta / gamma))
                   * besselk_ref(nu, 2.0 * cmath.sqrt(beta * gamma)))
            assert abs(lhs - rhs) <= 1e-13 * abs(rhs)
        for gamma in (1.0, 2.0 - 1.0j, 0.1 + 3.0j):
            lhs = laplace_pair_integral(nu, 0.0, gamma).value
            rhs = gamma_ref(nu) * cmath.exp(-nu * cmath.log(gamma))
            assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


def test_laplace_pair_skips_the_pass_when_its_factor_underflows(monkeypatch):
    # kappa^nu e^{-2c} is exactly 0 at the first two: the pass would scale
    # to 0 within ulp(0.0), which comes back with no evaluation; at the
    # third it is 2.7e-262 and the pass runs
    passes, integrate = [], bessel.integrate

    def counted(*args):
        passes.append(args)
        return integrate(*args)

    monkeypatch.setattr(bessel, "integrate", counted)
    for nu, beta, gamma in ((0.5, 400.0, 400.0), (-0.5, 720.0 ** 2 / 4, 2.0)):
        r = laplace_pair_integral(nu, beta, gamma)
        assert r == EvalResult(0j, math.ulp(0.0), 0, True)
    assert passes == []
    r = laplace_pair_integral(0.5, 300.0, 300.0)
    assert len(passes) == 1 and r.evaluations > 0 and r.converged
    ref = 2.0 * besselk_ref(0.5, 600.0)
    assert abs(r.value - ref) <= min(r.err_estimate, 1e-14 * abs(ref))


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
    for gamma in (0.0, -1.0, 2.0j, -0.5 + 1.0j):
        with pytest.raises(DomainError, match="Re gamma > 0"):
            laplace_pair_integral(0.5, 1.0, gamma)
    with pytest.raises(DomainError):
        laplace_pair_integral(-0.5, 0.0, 1.0)  # diverges at 0 without beta
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


# ---------------------------------------------------------------------------
# the trapezoids read cached node rows: every result is that of a walk that
# evaluates the integrand at each node, bit for bit
# ---------------------------------------------------------------------------


def _ref_tail_sum(f, h, stride, sign):
    total = 0j
    k = 1
    count = 0
    small_run = 0
    while True:
        term = f(sign * k * h)
        count += 1
        total += term
        if abs(term) <= bessel._TAIL_STOP * (abs(total) + 1e-300):
            small_run += 1
            if small_run >= 3:
                break
        else:
            small_run = 0
        k += stride
        if k * h > 80.0:
            break
    return total, count


def _ref_halving_trapezoid(f, even, relative, q, route):
    def level_sum(h, stride):
        plus, count = _ref_tail_sum(f, h, stride, +1)
        if even:
            return plus + plus, count
        minus, more = _ref_tail_sum(f, h, stride, -1)
        return plus + minus, count + more

    f0 = f(0.0)
    evaluations = 1
    acc = 0j
    h = 1.0
    prev = None
    for level in range(q.max_levels + 1):
        h *= 0.5
        part, spent = level_sum(h, 2 if level else 1)
        acc += part
        evaluations += spent
        result = 0.5 * h * (f0 + acc)
        if prev is not None:
            err = abs(result - prev)
            if err <= (q.rel_tol * abs(result) if relative
                       else q.tolerance_for(result)):
                return make_result(result, err, evaluations, q)
        prev = result
    raise NonConvergence(f"bessel_k {route} trapezoid did not converge",
                         best=result, err_estimate=err)


def _ref_shifted_route(nu, z, q):
    b = nu.imag
    delta = max(math.acos(min(b / z, 1.0)), min(0.3, 3.0 / b))
    theta = 0.5 * math.pi - delta
    ct = math.cos(theta)
    st = math.sin(theta)

    def f(x):
        w = complex(-z * ct * math.cosh(x) + nu.real * x - b * theta,
                    -z * st * math.sinh(x) + b * x + nu.real * theta)
        if w.real < -745.0:
            return 0j
        return cmath.exp(w)

    return _ref_halving_trapezoid(f, False, True, q, "contour")


def _ref_trapezoids(nu, z, q):
    """`bessel._cosh_route` without its series, one integrand call a node."""
    nu = complex(nu)
    z = complex(z)
    if z.imag == 0.0 and nu.imag != 0.0:
        if nu.imag < 0.0:
            inner = _ref_shifted_route(nu.conjugate(), z.real, q)
            return replace(inner, value=inner.value.conjugate())
        return _ref_shifted_route(nu, z.real, q)
    real_case = nu.imag == 0.0 and z.imag == 0.0

    def f(t):
        zc = z * math.cosh(t)
        if real_case:
            ez = math.exp(-zc.real) if zc.real < 745.0 else 0.0
            if ez == 0.0:
                return 0.0
            return ez * math.cosh(nu.real * t)
        if zc.real > 745.0:
            return 0.0
        nt = nu * t
        return 0.5 * (cmath.exp(-zc + nt) + cmath.exp(-zc - nt))

    return _ref_halving_trapezoid(f, True, real_case, q, "cosh-route")


def _trapezoid_points():
    """240 seeded (nu, z) that no series serves: complex order at real
    z > _SERIES_Z with Im nu of both signs (shifted contour), real order at
    real z, and complex z through the cosh route."""
    rng = random.Random(20261019)
    points = []
    for _ in range(80):
        points.append((complex(rng.uniform(-3.0, 3.0),
                               rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 60.0)),
                       rng.uniform(2.01, 40.0)))
        points.append((complex(rng.uniform(-6.0, 6.0)), 10.0 ** rng.uniform(-3.0, 2.7)))
        points.append((complex(rng.uniform(-3.0, 3.0), rng.uniform(-15.0, 15.0)),
                       complex(rng.uniform(2.1, 20.0), rng.uniform(-10.0, 10.0))))
    return points


def _outcome(call):
    try:
        return call()
    except NonConvergence as exc:
        return ("NonConvergence", str(exc), exc.best, exc.err_estimate)


def test_trapezoids_on_cached_rows_equal_a_walk_of_the_integrand(monkeypatch):
    points = _trapezoid_points()
    assert sum(nu.imag > 0 for nu, z in points) > 20
    assert sum(nu.imag < 0 for nu, z in points) > 20
    want = [_ref_trapezoids(nu, z, DEFAULT_QUAD) for nu, z in points]
    monkeypatch.setattr(bessel, "_K_ROWS", {})
    for _ in ("cold", "warm"):
        got = [bessel._cosh_route(nu, z, DEFAULT_QUAD) for nu, z in points]
        assert got == want
    assert bessel._K_ROWS  # the warm pass read the rows the cold one made


@pytest.mark.parametrize("nu, z", [(0.5, 3.0), (0.3 + 15.0j, 3.0),
                                   (0.3 - 15.0j, 3.0), (0.7 + 3.0j, 4.0 + 2.0j)])
def test_nonconvergence_equals_a_walk_of_the_integrand(monkeypatch, nu, z):
    q = QuadratureSpec(max_levels=1)
    want = _outcome(lambda: _ref_trapezoids(nu, z, q))
    assert want[0] == "NonConvergence"
    monkeypatch.setattr(bessel, "_K_ROWS", {})
    for _ in ("cold", "warm"):
        assert _outcome(lambda: bessel._cosh_route(nu, z, q)) == want


def test_rows_hold_the_nodes_a_sum_read_and_no_more(monkeypatch):
    monkeypatch.setattr(bessel, "_K_ROWS", {})
    bessel_k(0.3, 1.0)
    assert bessel._K_ROWS
    for level, rows in bessel._K_ROWS.items():
        step = 1 if level == 0 else 2
        h = 0.5 ** (level + 1)
        assert [x for x, _, _ in rows] == [k * h for k in
                                           range(1, step * len(rows) + 1, step)]
        assert all(c == math.cosh(x) and s == math.sinh(x) for x, c, s in rows)
        assert rows[-1][0] < 10.0  # the tail stop ended it, not k h = 80
