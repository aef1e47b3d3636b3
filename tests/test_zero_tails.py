"""Supports: the nodes a caller skips carry an exactly-zero integrand, and
skipping them moves no bit of a value or its estimate."""

import math

import pytest

import zetalab.funceq as funceq
import zetalab.quadrature as quadrature
import zetalab.regularized as regularized
import zetalab.zeta_classic as zeta_classic
from oracles import boundary_i1_ref
from zetalab.cutoffs import (CustomCutoff, ExpAlpha, ExpSymmetric, NoCutoff,
                             TwoParam, TwoParamNu)
from zetalab.quadrature import _transform
from zetalab.theta import PSI_REACH, _psi_complex_remainder, _psi_raw
from zetalab.types import QuadratureSpec

_LEVELS = range(13)
_HALF_LINE = (0.0, math.inf)
_TOL, _TERMS = QuadratureSpec().series_tail_tol, QuadratureSpec().max_terms


def _nodes(domain, level, support=None):
    """The (x, weight) pairs a walk of `level` takes, in its order."""
    rows, kept = _transform(domain, support)[2](level)
    return [rows[i][:2] for i in kept]


def _skipped(domain, support):
    """The nodes of levels 0-12 on `domain` that `support` skips, after
    checking that the kept ones are the rest in their order."""
    lo, hi = support
    out = []
    for level in _LEVELS:
        every = _nodes(domain, level)
        kept = _nodes(domain, level, support)
        assert kept == [(x, w) for x, w in every if lo <= x <= hi]
        out += [x for x, _ in every if not lo <= x <= hi]
    return out


@pytest.mark.parametrize("domain, support", [
    (_HALF_LINE, TwoParam(1e-3, 50.0).support()),  # around 1
    (_HALF_LINE, (3.0, 400.0)),  # up rows only
    (_HALF_LINE, (1e-5, 0.25)),  # down rows only
    (_HALF_LINE, (1.0, 1.0)),  # the centre only
    (_HALF_LINE, (2.0, 1.0)),  # empty
    (_HALF_LINE, (math.nan, 5.0)),  # empty
    ((1.0, math.inf), (1.0, PSI_REACH)),
    ((1.0, math.inf), (1.5, 1.75)),  # down rows only
    ((2.5, math.inf), (2.7, 90.0)),  # a start without cached rows
])
def test_the_index_cut_keeps_what_the_filter_keeps(domain, support):
    _skipped(domain, support)  # some of these skip nothing


def _assert_zero_where_skipped(f, support, domain=_HALF_LINE):
    skipped = _skipped(domain, support)
    assert skipped  # each case cuts something
    for x in skipped:
        assert f(x) == 0, x


_RAY_TS = (5.0, -14.0, 150.0)


@pytest.mark.parametrize("lam", [1e-4, 0.3, 400.0])
def test_exp_symmetric_is_zero_outside_its_window(lam):
    cutoff = ExpSymmetric(lam)
    _assert_zero_where_skipped(cutoff.value, cutoff.support())


@pytest.mark.parametrize("t", _RAY_TS)
@pytest.mark.parametrize("lam", [1e-4, 0.3, 400.0])
def test_exp_symmetric_is_zero_outside_its_window_on_the_ray(lam, t):
    # on the ray the rate lam becomes lam cos(theta)
    cutoff = ExpSymmetric(lam)
    theta = regularized._ray_angle(t)
    rot = complex(math.cos(theta), math.sin(theta))
    _assert_zero_where_skipped(lambda r: cutoff.value(r * rot),
                               ExpSymmetric(lam * math.cos(theta)).support())


def test_the_window_widens_as_the_ray_turns():
    # at t = 150 the ray is 3 degrees off the imaginary axis and the
    # quadrature support is far wider than on the real axis
    cutoff = ExpSymmetric(0.3)
    lo = regularized._quadrature_support(cutoff, regularized._ray_angle(150.0))[0]
    assert lo < cutoff.support()[0] * math.exp(-2.5)
    # 2 lam past the floor: h vanishes everywhere, only x = 1 is kept
    assert ExpSymmetric(400.0).support() == (1.0, 1.0)


@pytest.mark.parametrize("alpha", [0.25, 2.0, -0.5])
def test_exp_alpha_is_zero_outside_its_window(alpha):
    cutoff = ExpAlpha(0.7, alpha)
    _assert_zero_where_skipped(cutoff.value, cutoff.support())


def test_two_param_is_zero_outside_its_window():
    cutoff = TwoParam(0.4 + 3.0j, 1.2)
    _assert_zero_where_skipped(cutoff.value, cutoff.support())


def test_two_param_nu_is_zero_outside_its_window():
    cutoff = TwoParamNu(0.9 - 0.5j, 0.2 + 1.0j, -0.6)
    _assert_zero_where_skipped(cutoff.value, cutoff.support())


def test_unbounded_kinds_reach_everywhere():
    for cutoff in (NoCutoff(), CustomCutoff(lambda x: 1.0)):
        assert cutoff.support() == (0.0, math.inf)


def test_psi_is_zero_past_its_reach():
    _assert_zero_where_skipped(lambda x: _psi_raw(x, _TOL, _TERMS),
                               (0.0, PSI_REACH))


@pytest.mark.parametrize("t", _RAY_TS)
def test_psi_remainder_is_zero_past_its_reach_on_the_ray(t):
    theta = regularized._ray_angle(t)
    rot = complex(math.cos(theta), math.sin(theta))
    _assert_zero_where_skipped(
        lambda r: _psi_complex_remainder(r * rot, _TOL, _TERMS),
        (0.0, PSI_REACH / math.cos(theta)))


@pytest.mark.parametrize("t", _RAY_TS)
@pytest.mark.parametrize("lam", [1e-4, 0.3])
def test_ray_integrand_is_zero_outside_the_quadrature_support(lam, t):
    cutoff = ExpSymmetric(lam)
    theta = regularized._ray_angle(t)
    rot = complex(math.cos(theta), math.sin(theta))

    def ray_base(r):
        x = r * rot
        return cutoff.value(x) * _psi_complex_remainder(x, _TOL, _TERMS)

    _assert_zero_where_skipped(ray_base,
                               regularized._quadrature_support(cutoff, theta))


@pytest.mark.parametrize("lam", [0.05, 0.9, 400.0])
def test_damped_edge_is_zero_below_its_support(lam):
    edge = regularized._damped_edge(lam, 0.5, 0.5 * (0.7 - 3.0), -0.65)
    _assert_zero_where_skipped(edge, regularized._edge_support(lam), (0.0, 1.0))


# ---------------------------------------------------------------------------
# the skip moves no bit: each caller against the same walk without a support
# ---------------------------------------------------------------------------


def _assert_skips_move_no_bit(monkeypatch, module, name, call):
    """call(), with each walk of module.name checked against a walk of every
    node: the same value, estimate and verdict for fewer evaluations."""
    full = getattr(quadrature, name)
    supports = []

    def both(f, a, q, support=None, **start):
        got, want = full(f, a, q, support, **start), full(f, a, q, **start)
        pairs = zip(got, want) if isinstance(got, list) else [(got, want)]
        for g, w in pairs:
            assert (g.value, g.err_estimate, g.converged) == (
                w.value, w.err_estimate, w.converged)
            assert g.evaluations < w.evaluations
        supports.append(support)
        return got

    monkeypatch.setattr(module, name, both)
    call()
    assert supports and None not in supports


_Q = QuadratureSpec()


@pytest.mark.parametrize("cutoff, s_values, theta", [
    (ExpSymmetric(0.05), [0.3 + 20.0j, 0.7 + 20.0j], regularized._ray_angle(20.0)),
    (ExpSymmetric(1e-4), [0.4 - 150.0j], regularized._ray_angle(-150.0)),
    (ExpSymmetric(0.2), [0.3, 0.7], None),
    (ExpAlpha(0.5, 1.5), [0.3 + 2.0j, 0.7 + 2.0j], None),
    (TwoParam(0.3 + 0.2j, 0.8), [0.25 + 5.0j], None),
])
def test_completed_quadrature_skips_move_no_bit(monkeypatch, cutoff, s_values,
                                                theta):
    _assert_skips_move_no_bit(
        monkeypatch, regularized, "integrate_powers",
        lambda: regularized._completed_quadrature(s_values, cutoff, _Q, theta))


@pytest.mark.parametrize("cutoff", [ExpAlpha(0.3, 0.8), TwoParam(0.2, 0.5 + 1.0j)])
def test_half_integrals_skips_move_no_bit(monkeypatch, cutoff):
    _assert_skips_move_no_bit(
        monkeypatch, funceq, "integrate_powers",
        lambda: funceq._half_integrals_quad(cutoff, [0.15 + 3.0j, 0.85 - 3.0j], _Q))


@pytest.mark.parametrize("s", [0.3 + 4.0j, 0.5 + 9.9j, -1.5 + 0.5j, 0.8])
def test_tail_integral_skips_move_no_bit(monkeypatch, s):
    _assert_skips_move_no_bit(monkeypatch, zeta_classic, "integrate_powers",
                              lambda: zeta_classic._tail_integral(s, _Q))


@pytest.mark.parametrize("s, lam", [(0.7, 0.9), (0.3 + 10.0j, 0.05), (2.0, 0.1)])
def test_boundary_skips_move_no_bit(monkeypatch, s, lam):
    _assert_skips_move_no_bit(monkeypatch, regularized, "integrate",
                              lambda: regularized.boundary_i1(s, lam))
    _assert_skips_move_no_bit(monkeypatch, regularized, "integrate",
                              lambda: regularized.zeta_exp_boundary_form(s, lam))


def test_cost_pinned_boundary_edge():
    # (1/2) int_0^1 e^{-lam(x+1/x)} x^{(s-3)/2} dx walks only x >= e^{-L}:
    # 433 evaluations without the support, 347 on the former tanh-sinh table
    s, lam = 0.7, 0.9
    r = regularized.boundary_i1(s, lam)
    assert r.converged
    assert r.evaluations == 286
    assert abs(r.value - boundary_i1_ref(s, lam)) <= 1e-14 * abs(r.value)


def test_cost_pinned_completed_alpha():
    # both completed values of an exp-alpha row from one pass inside
    # h's window and psi's reach
    row = regularized._completed_quadrature([0.3 + 2.0j, 0.7 + 2.0j],
                                            ExpAlpha(0.5, 1.5), _Q)
    assert [r.evaluations for r in row] == [119, 119]
