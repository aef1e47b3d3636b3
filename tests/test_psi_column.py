"""The half-line rows of starts 0 and 1 and their psi columns: every psi a
walk reads from a column is `_psi_raw` at the node, bit for bit, and the
callers that read them give the values of a walk that calls `_psi_raw`."""

import math

import pytest

import zetalab.quadrature as quadrature
import zetalab.regularized as regularized
import zetalab.zeta_classic as zeta_classic
from zetalab.cutoffs import ExpAlpha, ExpSymmetric, TwoParam
from zetalab.errors import DomainError, NonConvergence
from zetalab.gammafn import power_real_base
from zetalab.quadrature import (_ROW_STARTS, _half_level, _psi_column,
                                integrate, integrate_powers)
from zetalab.theta import PSI_REACH, _psi_raw
from zetalab.types import QuadratureSpec

_LEVELS = range(13)
_Q = QuadratureSpec()


def _fill_every_level(start, q):
    """Walk all 13 levels of (start, inf) with psi=True: the integrand jumps
    at start + 1, so no level meets the tolerance and every row is read."""
    with pytest.raises(NonConvergence):
        integrate(lambda x, lx, p: p + (1j if x < start + 1.0 else 0j),
                  (start, math.inf), q, psi=True)


@pytest.mark.parametrize("start", _ROW_STARTS)
def test_the_column_is_psi_raw_at_every_node(start):
    _fill_every_level(start, _Q)
    zeros = 0
    for level in _LEVELS:
        rows = _half_level(start, level)[0]
        column = _psi_column(start, level, _Q)
        assert len(column) == len(rows)
        want = [_psi_raw(x, 1e-16, 10**6) for x, _, _ in rows]
        assert [p.hex() for p in column] == [p.hex() for p in want]
        zeros += sum(p == 0.0 for (x, _, _), p in zip(rows, column)
                     if x > PSI_REACH)
    assert zeros > 0  # the exact zeros past psi's reach are held too


@pytest.mark.parametrize("start", _ROW_STARTS)
def test_rows_carry_x_and_log_x(start):
    for level in _LEVELS:
        rows = _half_level(start, level)[0]
        nodes = quadrature._level_nodes(level)
        assert [(x, w) for x, w, _ in rows] == [(start + y, w) for y, w in nodes]
        assert all(lx == math.log(x) for x, _, lx in rows)


def test_no_column_holds_more_entries_than_its_level_has_rows():
    _fill_every_level(1.0, _Q)
    for (start, level, _, _), column in quadrature._PSI_COLUMNS.items():
        assert len(column) == len(_half_level(start, level)[0])


def test_psi_rows_only_on_the_cached_half_lines():
    for domain in ((2.0, math.inf), (0.0, 1.0)):
        with pytest.raises(DomainError):
            integrate(lambda x, lx, p: p, domain, _Q, psi=True)


# ---------------------------------------------------------------------------
# a non-default spec has its own column and today's values
# ---------------------------------------------------------------------------

_LOOSE = QuadratureSpec(series_tail_tol=1e-12)


def _same(got, want):
    assert (got.value, got.err_estimate, got.evaluations, got.converged) == (
        want.value, want.err_estimate, want.evaluations, want.converged)


@pytest.mark.parametrize("q", [_Q, _LOOSE, QuadratureSpec(max_terms=40)])
@pytest.mark.parametrize("s", [0.3 + 4.0j, -1.5 + 0.5j, 0.8])
def test_tail_integral_reads_what_psi_raw_gives(q, s):
    a, b = 0.5 * (s - 2.0), -0.5 * (s + 1.0)

    def f(x):
        p = _psi_raw(x, q.series_tail_tol, q.max_terms)
        if p == 0.0:
            return 0.0
        return p * (power_real_base(x, a) + power_real_base(x, b))

    _same(zeta_classic._tail_integral(s, q),
          integrate(f, (1.0, math.inf), q, (1.0, PSI_REACH)))


@pytest.mark.parametrize("q", [_Q, _LOOSE])
@pytest.mark.parametrize("cutoff, s_values", [
    (ExpSymmetric(0.2), [0.3, 0.7]),
    (ExpAlpha(0.5, 1.5), [0.3 + 2.0j, 0.7 + 2.0j]),
    (TwoParam(0.3 + 0.2j, 0.8), [0.25 + 5.0j]),
])
def test_completed_quadrature_reads_what_psi_raw_gives(q, cutoff, s_values):
    def base(x):
        hv = cutoff.value(x)
        if hv == 0.0:
            return 0.0
        return _psi_raw(x, q.series_tail_tol, q.max_terms) * hv

    want = integrate_powers(base, [0.5 * s - 1.0 for s in s_values], q,
                            regularized._quadrature_support(cutoff))
    for g, w in zip(regularized._completed_quadrature(s_values, cutoff, q), want):
        _same(g, w)


def test_the_loose_spec_has_a_column_of_its_own():
    _fill_every_level(0.0, _LOOSE)
    loose, tight = (_psi_column(0.0, 3, q) for q in (_LOOSE, _Q))
    assert loose is not tight
    rows = _half_level(0.0, 3)[0]
    assert loose == [_psi_raw(x, 1e-12, 10**6) for x, _, _ in rows]
    assert loose != tight  # the looser tail drops terms the default keeps
