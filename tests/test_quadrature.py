"""Double-exponential quadrature: exact values, singularities, error paths."""

import cmath
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import besselk_ref
from zetalab.errors import DomainError, NonConvergence, NonFiniteIntegrand
from zetalab.gammafn import power_real_base
from zetalab.quadrature import (_ROW_STARTS, _half_level, _level_nodes, _transform,
                                column_rows, integrate, integrate_powers)
from zetalab.types import QuadratureSpec


def _by_row(base):
    """A base(x) as `integrate_powers` takes it: by row, at(i, x) = base(x)."""
    return lambda level: lambda i, x: base(x)


def test_polynomial_exact():
    r = integrate(lambda x: x * x, (0.0, 1.0))
    assert r.value == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert r.converged


def test_shifted_interval():
    # int_2^5 x dx = 10.5
    r = integrate(lambda x: x, (2.0, 5.0))
    assert r.value == pytest.approx(10.5, abs=1e-12)


def test_endpoint_singularity_integrable():
    # x^(-1/2) on (0,1): the map to the exp-sinh nodes sends the singular
    # end into a double-exponentially decaying tail
    r = integrate(lambda x: 1.0 / math.sqrt(x), (0.0, 1.0))
    assert r.value == pytest.approx(2.0, abs=1e-12)


def test_both_endpoints_singular():
    # int_0^1 dx / sqrt(x(1-x)) = pi; nodes can round onto the endpoint
    # itself, where the integrand owes the engine a finite answer.  Forming
    # 1-x inside f throws away digits the node placement worked to keep, so
    # this configuration has an honest noise floor around 1e-10.
    def f(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return 1.0 / math.sqrt(x * (1.0 - x))

    q = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9)
    r = integrate(f, (0.0, 1.0), q)
    assert r.value == pytest.approx(math.pi, abs=1e-7)


def test_half_line_exponential():
    r = integrate(lambda x: math.exp(-x), (0.0, math.inf))
    assert r.value == pytest.approx(1.0, abs=1e-13)
    assert r.err_estimate < 1e-12


def test_half_line_gaussian():
    r = integrate(lambda x: math.exp(-x * x), (0.0, math.inf))
    assert r.value == pytest.approx(0.5 * math.sqrt(math.pi), abs=1e-13)


def test_half_line_shifted_origin():
    # int_1^inf e^(1-x) dx = 1
    r = integrate(lambda x: math.exp(1.0 - x), (1.0, math.inf))
    assert r.value == pytest.approx(1.0, abs=1e-12)


def test_oscillatory_damped():
    # int_0^inf e^(-x) cos x dx = 1/2
    r = integrate(lambda x: math.exp(-x) * math.cos(x), (0.0, math.inf))
    assert r.value == pytest.approx(0.5, abs=1e-12)


def test_complex_integrand():
    # int_0^inf e^(-(1+2i)x) dx = 1/(1+2i)
    r = integrate(lambda x: cmath.exp(-(1.0 + 2.0j) * x), (0.0, math.inf))
    assert r.value == pytest.approx(1.0 / (1.0 + 2.0j), abs=1e-12)


def test_log_singularity():
    # int_0^1 ln(x) dx = -1
    r = integrate(lambda x: math.log(x), (0.0, 1.0))
    assert r.value == pytest.approx(-1.0, abs=1e-12)


@given(k=st.integers(min_value=0, max_value=8))
def test_monomials(k):
    r = integrate(lambda x: x ** k, (0.0, 1.0))
    assert r.value == pytest.approx(1.0 / (k + 1.0), rel=1e-12)


@given(p=st.floats(min_value=-0.9, max_value=3.0))
@settings(max_examples=30)
def test_power_family_with_singular_end(p):
    r = integrate(lambda x: x ** p, (0.0, 1.0))
    assert r.value == pytest.approx(1.0 / (p + 1.0), rel=1e-10)


@given(a=st.floats(min_value=0.2, max_value=4.0))
@settings(max_examples=30)
def test_scaled_exponential_half_line(a):
    r = integrate(lambda x: math.exp(-a * x), (0.0, math.inf))
    assert r.value == pytest.approx(1.0 / a, rel=1e-11)


def test_result_metadata():
    r = integrate(lambda x: math.exp(-x), (0.0, math.inf))
    assert r.converged
    assert r.evaluations > 10
    assert r.err_estimate >= 0.0


def test_domain_validation():
    with pytest.raises(DomainError):
        integrate(lambda x: x, (1.0, 1.0))
    with pytest.raises(DomainError):
        integrate(lambda x: x, (2.0, 1.0))
    with pytest.raises(DomainError):
        integrate(lambda x: x, (math.inf, math.inf))
    with pytest.raises(DomainError):
        integrate(lambda x: x, (math.nan, 1.0))


def test_nonfinite_integrand_diagnosed():
    with pytest.raises(NonFiniteIntegrand):
        integrate(lambda x: float("nan"), (0.0, 1.0))
    with pytest.raises(NonFiniteIntegrand):
        integrate(lambda x: math.inf, (0.0, math.inf))


def _xs(domain, level):
    rows, kept = _transform(domain)[2](level)
    return [rows[i][0] for i in kept]


_HALF, _FINITE = (0.0, math.inf), (0.0, 3.0)
_CLEAN = {_HALF: lambda x: cmath.exp(-x),
          _FINITE: lambda x: math.exp(-x) / math.sqrt(x)}

# (domain, level, pick): the node pick(level's xs) is poisoned -- the centre,
# the node nearest the finite end 0, and a tail node new at level 3
_SITES = {
    "half-line centre": (_HALF, 0, lambda xs: xs[0]),
    "finite centre": (_FINITE, 0, lambda xs: xs[0]),
    "half-line end": (_HALF, 0, min),
    "finite end": (_FINITE, 0, min),
    "half-line tail": (_HALF, 3, max),
    "finite tail": (_FINITE, 3, min),
}
_BAD = [math.nan, math.inf, -math.inf, complex(0.0, math.nan)]


def _poisoned(clean, domain, level, pick, bad):
    target = pick(_xs(domain, level))
    assert all(target not in _xs(domain, lv) for lv in range(level))
    return lambda x: bad if x == target else clean(x)


def test_the_centre_is_level_zeros_first_row_only():
    assert _level_nodes(0)[0] == (1.0, 0.5 * math.pi)
    assert [y for y, _ in _level_nodes(0)].count(1.0) == 1
    assert all(y != 1.0 for lv in range(1, 13) for y, _ in _level_nodes(lv))
    assert _xs(_HALF, 0)[0] == 1.0 and _xs(_FINITE, 0)[0] == 1.5


@pytest.mark.parametrize("bad", _BAD, ids=repr)
@pytest.mark.parametrize("site", list(_SITES))
def test_one_nonfinite_node_raises_at_the_end_of_its_level(site, bad):
    domain, level, pick = _SITES[site]
    clean = _CLEAN[domain]
    # the clean integrand reaches the poisoned node's level
    assert integrate(clean, domain).evaluations >= sum(
        len(_xs(domain, lv)) for lv in range(level + 1))
    rule = "exp-sinh" if domain == _HALF else "tanh-sinh"
    with pytest.raises(NonFiniteIntegrand, match=f"{rule} node of level {level}$"):
        integrate(_poisoned(clean, domain, level, pick, bad), domain)
    if domain == _HALF:
        powers = (0.5, 0.25 + 1.0j)
        batch = integrate_powers(_by_row(_wavy), powers)
        assert min(r.evaluations for r in batch) >= sum(
            len(_xs(domain, lv)) for lv in range(level + 1))
        with pytest.raises(NonFiniteIntegrand, match=f"level {level}$"):
            integrate_powers(_by_row(_poisoned(_wavy, domain, level, pick, bad)),
                             powers)


def test_powers_raise_when_one_component_overflows():
    # the base is finite, but near x = e^{-690} base * x^{-1.02} passes
    # the double range while x^{-1.02} itself does not
    def base(x):
        return 1e100 * math.exp(-x)

    assert integrate_powers(_by_row(base), (0.5,))[0].converged
    with pytest.raises(NonFiniteIntegrand):
        integrate_powers(_by_row(base), (0.5, -1.02))


def test_nonconvergence_carries_best_value():
    q = QuadratureSpec(max_levels=1)
    with pytest.raises(NonConvergence) as exc:
        integrate(lambda x: math.exp(-x), (0.0, math.inf), q)
    # the partial answer is still in the right neighborhood
    assert exc.value.best is not None
    assert abs(exc.value.best - 1.0) < 0.1


def test_finite_nonconvergence_carries_best_value():
    q = QuadratureSpec(max_levels=1)
    with pytest.raises(NonConvergence) as exc:
        integrate(lambda x: math.exp(-x), (0.0, 1.0), q)
    assert exc.value.best is not None
    assert abs(exc.value.best - (1.0 - math.exp(-1.0))) < 0.1
    # the last increment, not 0: here it bounds the error of the best value
    assert exc.value.err_estimate >= abs(exc.value.best - (1.0 - math.exp(-1.0))) > 0.0


def test_cost_pinned_finite():
    # int_0^1 e^{-x} x^{-1/2} dx = sqrt(pi) erf(1); the count pins the
    # exp-sinh node schedule as the finite map reads it, and the level at
    # which it accepts
    r = integrate(lambda x: math.exp(-x) / math.sqrt(x), (0.0, 1.0))
    assert r.converged
    assert r.evaluations == 109
    assert abs(r.value - math.sqrt(math.pi) * math.erf(1.0)) <= 1e-14


def test_cost_pinned_half_line():
    # Laplace pair: int_0^inf x^{nu-1} e^{-b/x - g x} dx
    #   = 2 (b/g)^{nu/2} K_nu(2 sqrt(b g)), referee from mpmath
    nu, b, g = 0.3 + 0.5j, 0.7, 1.3
    r = integrate(lambda x: power_real_base(x, nu - 1.0) * math.exp(-b / x - g * x),
                  (0.0, math.inf))
    ref = 2.0 * (b / g) ** (nu / 2.0) * besselk_ref(nu, 2.0 * math.sqrt(b * g))
    assert r.converged
    assert r.evaluations == 433
    assert abs(r.value - ref) <= 1e-13 * abs(ref)


def test_tolerance_respected_loose():
    q = QuadratureSpec(abs_tol=1e-6, rel_tol=1e-6, max_levels=12)
    r = integrate(lambda x: math.exp(-x), (0.0, math.inf), q)
    assert r.converged
    assert abs(r.value - 1.0) < 1e-6


def test_deep_endpoint_approach_is_finite():
    # nodes come within ~1e-300 of the endpoint; x^(-0.9) must neither
    # overflow nor lose the mass sitting against the singularity
    r = integrate(lambda x: x ** -0.9, (0.0, 1.0))
    assert r.value == pytest.approx(10.0, rel=1e-9)


def test_deep_approach_to_the_upper_end():
    # the nodes above the centre are placed as b - (b - a)/(1 + y), so the
    # singular end at b = 0 is approached as closely as a is
    r = integrate(lambda x: (-x) ** -0.9, (-1.0, 0.0))
    assert r.value == pytest.approx(10.0, rel=1e-9)


def test_tiny_interval_keeps_off_its_ends():
    # on a width of 1e-40 the deepest distances underflow to 0; those nodes
    # are skipped rather than evaluated on the singular end
    w = 1e-40
    r = integrate(lambda x: 1.0 / math.sqrt(x / w), (0.0, w))
    assert r.value == pytest.approx(2.0 * w, rel=1e-12)


def test_steeper_endpoint_singularity():
    # x^(-0.95): the transformed tail e^{-0.05 u} is ~1e-15 by the table's
    # cap u = 690
    r = integrate(lambda x: x ** -0.95, (0.0, 1.0))
    assert r.converged
    assert r.value == pytest.approx(20.0, rel=1e-12)


def test_zero_integrand_short_circuit():
    r = integrate(lambda x: 0.0, (0.0, math.inf))
    assert r.value == 0.0


@pytest.mark.parametrize("domain, support", [
    ((0.0, 1.0), (1e-3, 0.75)),
    ((2.0, math.inf), (2.5, 6.0)),
    ((0.0, math.inf), (0.5, 3.0)),
])
def test_support_skips_only_the_zero_nodes(domain, support):
    # a smooth bump, exactly 0 outside [lo, hi]: the nodes there are not
    # evaluated, and value and estimate keep every bit of the full walk
    lo, hi = support
    seen = []

    def bump(x):
        seen.append(x)
        return math.exp(-1.0 / ((x - lo) * (hi - x))) if lo < x < hi else 0.0

    full = integrate(bump, domain)
    seen.clear()
    cut = integrate(bump, domain, support=support)
    assert all(lo <= x <= hi for x in seen)
    assert cut.evaluations == len(seen) < full.evaluations
    assert (cut.value, cut.err_estimate, cut.converged) == (
        full.value, full.err_estimate, full.converged)
    if domain == (0.0, math.inf):
        seen.clear()
        batch = integrate_powers(_by_row(bump), [0.5, 1.5j], support=support)
        assert all(lo <= x <= hi for x in seen)
        for got, want in zip(batch, integrate_powers(_by_row(bump), [0.5, 1.5j])):
            assert (got.value, got.err_estimate) == (want.value, want.err_estimate)
            assert got.evaluations < want.evaluations


# ---------------------------------------------------------------------------
# integrate_powers: K integrals of base(x) x^w over (0, inf) on one set of nodes
# ---------------------------------------------------------------------------


def _damped(x):
    # e^{-x - 1/x}, exactly 0 where it underflows at both ends of (0, inf),
    # as the cutoffs are
    w = x + 1.0 / x
    return 0.0 if w > 745.0 else math.exp(-w)


def _wavy(x):
    return cmath.exp(-(1.0 + 0.5j) * x) / (1.0 + x * x)


_EXPONENTS = (-0.5 + 3.0j, 0.25, 1.5 - 0.75j, 4.0, -0.25 - 8.0j)


def _assert_as_scalar(base, exponents, q=QuadratureSpec(), start=0.0):
    batch = integrate_powers(_by_row(base), exponents, q, start=start)
    assert len(batch) == len(exponents)
    for w, got in zip(exponents, batch):
        want = integrate(lambda x: (0.0 if base(x) == 0
                                    else base(x) * power_real_base(x, w)),
                         (start, math.inf), q)
        assert (got.value, got.err_estimate, got.evaluations, got.converged) == (
            want.value, want.err_estimate, want.evaluations, want.converged)
    return batch


# x -> x / c puts the base's mass inside `domain`: on (0, 1), on (1, inf), or
# across x = 1
_MASS_AT = {(0.0, 1.0): 0.125, (1.0, math.inf): 8.0, (0.0, math.inf): 1.0}


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("domain", list(_MASS_AT))
@pytest.mark.parametrize("base", [_damped, _wavy])
def test_powers_equal_scalar_passes(base, domain, k):
    c = _MASS_AT[domain]
    _assert_as_scalar(lambda x: base(x / c), _EXPONENTS[:k])


@pytest.mark.parametrize("base", [_damped, _wavy])
def test_powers_from_one_equal_scalar_passes(base):
    _assert_as_scalar(lambda x: base(x / 8.0), _EXPONENTS[:3], start=1.0)


def test_powers_accept_each_component_at_its_own_level():
    batch = _assert_as_scalar(_wavy, (0.0, 10.0j, 2.5 + 20.0j, 40.0j))
    # the faster a power oscillates, the later it settles
    assert len({r.evaluations for r in batch}) == 4


def test_powers_skip_a_zero_base():
    seen = []

    def base(x):
        seen.append(x)
        return _damped(x)

    batch = _assert_as_scalar(base, _EXPONENTS[:2])
    assert min(seen) < 1e-3 and _damped(min(seen)) == 0.0
    assert max(seen) > 1e3 and _damped(max(seen)) == 0.0
    assert all(r.converged for r in batch)


def test_powers_raise_nonconvergence_as_the_scalar_call():
    q = QuadratureSpec(max_levels=5)
    bad = 40.0j  # x^{40i} oscillates too fast to settle in five levels

    def damped_power(x):
        return 0.0 if _damped(x) == 0 else _damped(x) * power_real_base(x, bad)

    with pytest.raises(NonConvergence) as scalar:
        integrate(damped_power, (0.0, math.inf), q)
    with pytest.raises(NonConvergence) as batch:
        integrate_powers(_by_row(_damped), (0.5, bad, 1.0), q)
    assert batch.value.best == scalar.value.best
    assert batch.value.err_estimate == scalar.value.err_estimate
    assert str(batch.value) == str(scalar.value)


# ---------------------------------------------------------------------------
# column_rows: a node factor kept beside the cached rows
# ---------------------------------------------------------------------------


def _seeded_node(seed):
    """(node, calls): node(x) = a e^{-b x} cos(c x) with a, b, c drawn from
    `seed`, and the list of the x it has been called at."""
    rng = random.Random(seed)
    a, b, c = rng.uniform(0.5, 2.0), rng.uniform(0.2, 2.0), rng.uniform(0.0, 3.0)
    calls = []

    def node(x):
        calls.append(x)
        return a * math.exp(-b * x) * math.cos(c * x)

    return node, calls


def _cut(lam):
    """e^{-lam (x + 1/x)}, exactly 0 where the exponent passes 745, as the
    cutoffs cut theirs: the far rows of both ends at start 0, and the far
    rows above at start 1."""
    def factor(x):
        w = lam * (x + 1.0 / x)
        return 0.0 if w > 745.0 else math.exp(-w)

    return factor


def _fields(results):
    return [(r.value, r.err_estimate, r.evaluations, r.converged) for r in results]


@pytest.mark.parametrize("start", _ROW_STARTS)
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("cut", [False, True])
def test_column_rows_equal_a_base_that_computes_every_node(start, seed, cut):
    node, calls = _seeded_node(seed)
    factor = _cut(random.Random(-seed).uniform(0.2, 2.0)) if cut else None
    exponents = (0.0, -0.25 + 1.5j, 0.7)

    def plain(x):
        return node(x) * factor(x) if cut else node(x)

    want = integrate_powers(_by_row(plain), exponents, start=start)
    del calls[:]
    levels = {}
    got = integrate_powers(column_rows(levels, start, node, factor), exponents,
                           start=start)
    assert _fields(got) == _fields(want)
    # one column a level walked, one entry a row: node(x) where it was read
    assert sorted(levels) == list(range(len(levels)))
    zeros = 0
    for level, column in levels.items():
        rows = _half_level(start, level)[0]
        assert len(column) == len(rows)
        for (x, _, _), p in zip(rows, column):
            if cut and factor(x) == 0:
                assert p is None
                zeros += 1
            else:
                assert p == node(x)
    assert zeros > 0 if cut else zeros == 0


@pytest.mark.parametrize("start", _ROW_STARTS)
def test_column_rows_compute_a_node_once_and_never_where_the_factor_is_0(start):
    node, calls = _seeded_node(7)
    factor = _cut(0.3)
    levels = {}
    counts = []
    for exponents in [(0.0,), (-0.25 + 1.5j, 0.7), (0.0,), (2.0 - 3.0j,)]:
        integrate_powers(column_rows(levels, start, node, factor), exponents,
                         start=start)
        counts.append(len(calls))
    assert all(factor(x) != 0 for x in calls)
    assert counts[0] > 0 and counts[2] == counts[1]  # a pass over read rows
    # each call fills one entry, so no row was computed twice (at start 1
    # the rows of tiny y share x = 1.0, so the x alone cannot tell)
    assert len(calls) == sum(p is not None for column in levels.values()
                             for p in column)
