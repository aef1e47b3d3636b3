"""The half-line rows of starts 0 and 1 and their psi columns: every psi a
walk reads from a column is `_psi_raw` at the node, bit for bit, and the
callers that read them give the values of a walk that calls `_psi_raw`."""

import cmath
import math

import pytest

import zetalab.quadrature as quadrature
import zetalab.regularized as regularized
import zetalab.theta as theta
import zetalab.zeta_classic as zeta_classic
from zetalab.cutoffs import ExpAlpha, ExpSymmetric, TwoParam
from zetalab.errors import DomainError, NonConvergence
from zetalab.quadrature import _ROW_STARTS, _half_level, integrate_powers
from zetalab.theta import PSI_REACH, _psi_raw, psi_rows
from zetalab.types import QuadratureSpec, sum_pieces

_LEVELS = range(13)
_Q = QuadratureSpec()


def _column(start, level, q):
    """psi's column of `level` on (start, inf) for q's tail settings."""
    return theta._PSI_COLUMNS[start, q.series_tail_tol, q.max_terms][level]


def _by_row(base):
    """A base(x) as `integrate_powers` takes it: by row, at(i, x) = base(x)."""
    return lambda level: lambda i, x: base(x)


def _fill_every_level(start, q):
    """Walk all 13 levels of (start, inf) on psi's rows: the factor jumps
    at start + 1, so no level meets the tolerance, and as it is nowhere 0,
    every row's psi is read."""
    with pytest.raises(NonConvergence):
        integrate_powers(
            psi_rows(q, start, lambda x: 1.0 + (1j if x < start + 1.0 else 0j)),
            (0.0,), q, start=start)


@pytest.mark.parametrize("start", _ROW_STARTS)
def test_the_column_is_psi_raw_at_every_node(start):
    _fill_every_level(start, _Q)
    zeros = 0
    for level in _LEVELS:
        rows = _half_level(start, level)[0]
        column = _column(start, level, _Q)
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
    for (start, _, _), levels in theta._PSI_COLUMNS.items():
        for level, column in levels.items():
            assert len(column) == len(_half_level(start, level)[0])


def test_psi_rows_only_on_the_cached_half_lines():
    for start in (0.5, 2.0):
        with pytest.raises(DomainError):
            integrate_powers(psi_rows(_Q, start), (0.0,), _Q, start=start)


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
    # a two-power walk of (1, inf) whose base calls _psi_raw at every node
    lo, hi = integrate_powers(
        _by_row(lambda x: _psi_raw(x, q.series_tail_tol, q.max_terms)),
        (0.5 * (s - 2.0), -0.5 * (s + 1.0)), q, (1.0, PSI_REACH), start=1.0)
    got = zeta_classic._tail_integral(s, q)
    assert (got.value, got.err_estimate, got.evaluations, got.converged) == (
        lo.value + hi.value, lo.err_estimate + hi.err_estimate,
        max(lo.evaluations, hi.evaluations), lo.converged and hi.converged)


@pytest.mark.parametrize("q", [_Q, _LOOSE])
@pytest.mark.parametrize("cutoff, s_values", [
    (ExpSymmetric(0.2), [0.3, 0.7]),
    (ExpAlpha(0.5, 1.5), [0.3 + 2.0j, 0.7 + 2.0j]),
    (TwoParam(0.3 + 0.2j, 0.8), [0.25 + 5.0j]),
])
def test_completed_quadrature_reads_what_psi_raw_gives(q, cutoff, s_values):
    # ExpSymmetric's pass integrates psi e^{2 lam - lam (x + 1/x)}, the
    # cutoff's peak e^{-2 lam} taken out, and multiplies it back after
    exp_symmetric = isinstance(cutoff, ExpSymmetric)
    peak = 2.0 * complex(cutoff.lam) if exp_symmetric else 0j

    def base(x):
        if exp_symmetric:
            w = complex(cutoff.lam) * (x + 1.0 / x)
            hv = 0j if w.real > 745.0 else cmath.exp(peak - w)
        else:
            hv = cutoff.value(x)
        if hv == 0.0:
            return 0.0
        return _psi_raw(x, q.series_tail_tol, q.max_terms) * hv

    want = integrate_powers(_by_row(base), [0.5 * s - 1.0 for s in s_values],
                            q, regularized._quadrature_support(cutoff))
    if exp_symmetric:
        want = [sum_pieces([w], cmath.exp(-peak)) for w in want]
    for g, w in zip(regularized._completed_quadrature(s_values, cutoff, q), want):
        _same(g, w)


def test_the_loose_spec_has_a_column_of_its_own():
    _fill_every_level(0.0, _LOOSE)
    loose, tight = (_column(0.0, 3, q) for q in (_LOOSE, _Q))
    assert loose is not tight
    rows = _half_level(0.0, 3)[0]
    assert loose == [_psi_raw(x, 1e-12, 10**6) for x, _, _ in rows]
    assert loose != tight  # the looser tail drops terms the default keeps
