"""Damped zeta values: three representations, F-series, ABCD split, xi, Omega.

Frozen numbers come from mpmath reference integrations at 30 digits
(tests/oracles.py); the package routes must land on them at double precision.
"""

import cmath
import json
import math
import pathlib
from dataclasses import replace

import pytest

import zetalab.regularized as regularized
from oracles import (completed_alpha_ref, completed_exp_ref,
                     completed_exp_series_ref, zeta_ref)
from zetalab.bessel import bessel_k
from zetalab.cutoffs import CustomCutoff, ExpAlpha, ExpSymmetric, NoCutoff, TwoParam
from zetalab.errors import DomainError, NonConvergence
from zetalab.funceq import FunctionalEqKind, verify
from zetalab.quadrature import integrate_powers
from zetalab.regularized import (
    _completed_exp,
    _completed_quadrature,
    abcd_terms,
    boundary_i1,
    boundary_i2,
    omega,
    pde_residual_F,
    smooth_F,
    xi_lambda,
    zeta_exp_bessel_series,
    zeta_exp_boundary_form,
    zeta_regularized,
)
from zetalab.theta import _psi_complex_remainder
from zetalab.types import EvalResult, QuadratureSpec, make_result, sum_pieces
from zetalab.zeta_classic import zeta_series


def test_completed_frozen_values():
    assert zeta_exp_bessel_series(2.0, 1.0).completed.value.real == pytest.approx(
        0.011492123034747453, rel=1e-11
    )
    assert zeta_exp_bessel_series(0.5 + 7.0j, 0.5).completed.value == pytest.approx(
        -0.008024898424313373 + 0.0007745409190531891j, rel=1e-10
    )
    assert zeta_exp_bessel_series(2.0, 1e-6).completed.value.real == pytest.approx(
        0.5218343081375106, rel=1e-11
    )


def test_representation_tags():
    assert zeta_regularized(2.0, ExpSymmetric(lam=5.0)).representation == "bessel-series"
    assert zeta_regularized(2.0, ExpSymmetric(lam=4.9)).representation == "quadrature"
    assert (
        zeta_regularized(2.0, TwoParam(lam1=0.5, lam2=0.5)).representation
        == "quadrature"
    )
    assert zeta_exp_boundary_form(0.5, 0.3).representation == "boundary-form"


def test_exp_symmetric_routes_through_series():
    a = zeta_regularized(0.5, ExpSymmetric(lam=0.3))
    b = zeta_exp_bessel_series(0.5, 0.3)
    assert abs(a.completed.value - b.completed.value) <= 1e-9 * abs(b.completed.value)


def test_three_representations_agree():
    # TwoParam with equal parameters is the same h, forced down the
    # quadrature route; the boundary form is the third, independent assembly
    lam = 0.3
    for s in (0.5, -1.0, 0.5 + 7.0j):
        series = zeta_exp_bessel_series(s, lam).completed.value
        quad = zeta_regularized(s, TwoParam(lam1=lam, lam2=lam)).completed.value
        boundary = zeta_exp_boundary_form(s, lam).completed.value
        scale = max(abs(series), 1e-30)
        assert abs(series - quad) <= 1e-9 * scale
        assert abs(series - boundary) <= 1e-9 * scale
        assert abs(quad - boundary) <= 1e-9 * scale


def test_custom_cutoff_goes_to_quadrature():
    h = CustomCutoff(
        fn=lambda x: math.exp(-0.3 * (x + 1.0 / x)), label="exp-sym-by-hand"
    )
    r = zeta_regularized(0.5, h)
    assert r.representation == "quadrature"
    want = zeta_exp_bessel_series(0.5, 0.3).completed.value
    assert abs(r.completed.value - want) <= 1e-9 * abs(want)


def test_no_cutoff_reduces_to_classical():
    r = zeta_regularized(2.0, NoCutoff())
    assert r.completed.value.real == pytest.approx(math.pi / 6.0, rel=1e-10)
    assert r.bare.real == pytest.approx(math.pi**2 / 6.0, rel=1e-10)
    with pytest.raises(DomainError, match="undamped integral"):
        zeta_regularized(0.5, NoCutoff())


# live mpmath checks of the real-axis route (about 0.3 s a point): symmetry
# residuals cannot see an error that both sides of an identity share
@pytest.mark.parametrize("s, lam, alpha", [
    (0.3 + 5.0j, 0.5, 0.5), (0.7 + 10.0j, 1.2, 1.5), (0.5, 0.1, 0.3),
    (0.9 - 3.0j, 2.0, 1.0), (0.1 + 8.0j, 0.25, 0.75), (0.5 + 10.0j, 0.05, 1.2)])
def test_real_axis_completed_matches_oracle(s, lam, alpha):
    r = zeta_regularized(s, ExpAlpha(lam, alpha))
    assert r.representation == "quadrature"
    ref = completed_alpha_ref(s, lam, alpha)
    assert abs(r.completed.value - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("s", [1.2, 2.0, 1.5 + 3.0j, 3.0 + 10.0j])
def test_undamped_bare_value_matches_oracle(s):
    ref = zeta_ref(s)
    assert abs(zeta_regularized(s, NoCutoff()).bare - ref) <= 1e-12 * abs(ref)


def test_small_lambda_recovery_law():
    # bare(2; lam) -> zeta(2) as lam -> 0; the finite-lam deficit closes
    # like pi^(3/2) sqrt(lam), which is what these magnitudes pin down
    target = math.pi**2 / 6.0
    ratios = []
    devs = []
    for lam in (1e-2, 1e-3, 1e-4, 1e-6):
        bare = zeta_regularized(2.0, ExpSymmetric(lam=lam)).bare.real
        dev = abs(bare - target)
        devs.append(dev)
        ratios.append(dev / (math.pi**1.5 * math.sqrt(lam)))
    assert devs == sorted(devs, reverse=True)  # monotone in lam
    # the leading law is only reached from below (subleading terms still
    # carry ~20% at lam = 1e-2); by 1e-4 the ratio is within a few percent
    assert ratios == sorted(ratios)
    assert ratios[2] == pytest.approx(1.0, abs=0.05)
    assert ratios[3] == pytest.approx(1.0, abs=0.01)


def test_series_term_budget():
    # at lam = 2 the terms decay like e^{-2 sqrt(lam^2 + lam n^2 pi)}: four
    # terms leave a tail of ~3e-13, so a 4-term budget reaches 1e-12
    q4 = QuadratureSpec(series_tail_tol=1e-7, max_terms=4)
    truncated = zeta_exp_bessel_series(3.0, 2.0, q4).completed.value
    full = zeta_exp_bessel_series(3.0, 2.0).completed.value
    assert truncated == pytest.approx(full, abs=1e-12)
    with pytest.raises(NonConvergence) as exc:
        zeta_exp_bessel_series(3.0, 2.0, QuadratureSpec(max_terms=2))
    assert abs(exc.value.best - full) < 1e-5


def test_series_domain():
    with pytest.raises(DomainError):
        zeta_exp_bessel_series(0.5, -1.0)
    with pytest.raises(DomainError):
        zeta_exp_bessel_series(0.5, 0.0)


@pytest.mark.parametrize("lam", [0.5, 2.0, 7.7, 10.0, 30.0])
@pytest.mark.parametrize("s", [-1.5, 0.1, 0.5, 0.9, 2.0])
def test_series_real_coefficients_from_the_complex_power(s, lam):
    # every coefficient is 2 exp((s/4) log(lam / (lam + n^2 pi))) in complex
    # arithmetic; at real s and lam its imaginary part is exactly 0, also
    # from lam ~ 7.7 up, where cmath.log takes its log1p branch
    r = regularized._completed_series(s, lam, QuadratureSpec())
    assert r.value.imag == 0.0
    want = completed_exp_series_ref(s, lam)
    assert abs(r.value - want) <= 2e-15 * abs(want)


@pytest.mark.parametrize("lam", [0.5, 2.0, 7.7, 10.0, 30.0])
def test_series_estimate_covers_its_rounding(lam):
    # each K term rounds in proportion to its z_n >= 2 lam: at lam = 30,
    # s = 0.3 + 14i the sum is 32 eps |value| off
    for s in (-1.5, 0.1, 0.5, 0.9, 2.0, 0.5 + 5.0j, 0.3 + 14.0j, 0.9 + 20.0j):
        r = regularized._completed_series(s, lam, QuadratureSpec())
        assert r.converged
        assert abs(r.value - completed_exp_series_ref(s, lam)) <= r.err_estimate, s


def test_boundary_pieces_frozen():
    assert boundary_i1(0.7, 0.9).value.real == pytest.approx(
        0.07932014437786583, rel=1e-11
    )
    assert boundary_i2(0.7, 0.9).value.real == pytest.approx(
        -0.060859052844282696, rel=1e-11
    )
    with pytest.raises(DomainError):
        boundary_i1(0.7, -0.9)
    with pytest.raises(DomainError):
        boundary_i2(0.7, 1.0 + 1.0j)


def test_boundary_form_regular_at_classical_pole():
    r = zeta_exp_boundary_form(1.0, 0.3)
    assert r.completed.converged
    assert abs(r.completed.value) < 10.0


def test_boundary_form_functional_equation():
    # completed(s) + K_{s/2}(2 lam) is s <-> 1-s invariant
    lam = 0.5
    a = zeta_exp_boundary_form(0.3, lam).completed.value
    b = zeta_exp_boundary_form(0.7, lam).completed.value
    lhs = a + bessel_k(0.15, 2.0 * lam).value
    rhs = b + bessel_k(0.35, 2.0 * lam).value
    assert abs(lhs - rhs) < 1e-10


def test_smooth_f_frozen():
    assert smooth_F(0.0, 1.0).value.real == pytest.approx(
        0.043217405606654005, rel=1e-13
    )
    assert smooth_F(2.5, 0.3).value.real == pytest.approx(
        0.39374986130349615, rel=1e-13
    )
    assert smooth_F(0.5 + 3.0j, 1.2).value == pytest.approx(
        0.02305401348782635 - 1.7445933704095337e-07j, rel=1e-12
    )


def test_smooth_f_undamped_fallback():
    assert smooth_F(2.5, 0.0).value == zeta_series(2.5).value
    with pytest.raises(DomainError):
        smooth_F(0.5, 0.0)  # fallback inherits the Re s > 1 requirement
    with pytest.raises(DomainError):
        smooth_F(2.0, -0.3)


def test_abcd_split():
    s, lam = 2.0, 0.7
    a, b, c, d = abcd_terms(s, lam)
    assert c.value == -0.5  # exactly -1/s, no quadrature involved
    assert c.err_estimate == 0.0 and c.evaluations == 0
    total = a.value + b.value + c.value + d.value
    from zetalab.gammafn import gamma_complex, power_real_base

    want = (
        power_real_base(math.pi, -0.5 * s)
        * gamma_complex(0.5 * s)
        * smooth_F(s, lam).value
    )
    assert abs(total - want) <= 1e-9 * abs(want)


def test_abcd_lam_zero_bare_piece():
    # at lam = 0 the D piece is half the pure power integral: D(2, 0) = 1
    _, _, _, d = abcd_terms(2.0, 0.0)
    assert d.value.real == pytest.approx(1.0, rel=1e-12)


def test_abcd_domain():
    with pytest.raises(DomainError):
        abcd_terms(2.0, -1.0)
    with pytest.raises(DomainError):
        abcd_terms(-0.5, 1.0)
    with pytest.raises(DomainError):
        abcd_terms(0.5, 0.0)  # D diverges


def test_pde_residual():
    assert pde_residual_F(3.0, 1.0, 1e-3) < 1e-5
    assert pde_residual_F(0.0, 2.0, 1e-3) < 1e-5
    # centered difference: halving h divides the O(h^2) remainder by ~4
    r1 = pde_residual_F(2.5, 1.0, 2e-2)
    r2 = pde_residual_F(2.5, 1.0, 1e-2)
    assert 3.5 <= r1 / r2 <= 4.5
    with pytest.raises(DomainError):
        pde_residual_F(2.0, 0.5, 0.5)
    with pytest.raises(DomainError):
        pde_residual_F(2.0, 0.5, 0.0)


def test_xi_lambda_zeros_and_reality():
    assert xi_lambda(0.0, 0.5).value == 0j
    assert xi_lambda(1.0, 0.5).value == 0j
    r = xi_lambda(0.5, 0.3)
    assert r.value.imag == 0.0  # real-s path stays in real arithmetic
    assert xi_lambda(2.0, 1e-4).value.real == pytest.approx(
        0.5064426239320314, rel=1e-10
    )
    assert xi_lambda(2.0, 1e-2).value.real == pytest.approx(
        0.38022076734211124, rel=1e-10
    )


def test_xi_lambda_small_lambda_limit_form():
    # with rho = sqrt(4 pi lam), xi(s, lam) approaches
    # s(s-1) sum_n (rho / 2 pi n)^{s/2} K_{s/2}(rho n); at lam = 1e-4 the
    # finite-lam correction is still ~2e-5 relative (first order in lam),
    # and these frozen endpoints pin both the limit value and the gap
    s, lam = 2.0, 1e-4
    rho = math.sqrt(4.0 * math.pi * lam)
    limit = 0.0
    n = 1
    while True:
        term = (
            s
            * (s - 1.0)
            * (rho / (2.0 * math.pi * n)) ** (0.5 * s)
            * bessel_k(0.5 * s, rho * n).value.real
        )
        limit += term
        if abs(term) < 1e-16 * abs(limit):
            break
        n += 1
    assert limit == pytest.approx(0.5064535847102541, rel=1e-9)
    gap = abs(xi_lambda(s, lam).value.real - limit) / limit
    assert gap == pytest.approx(2.1642e-5, rel=1e-3)


def test_omega_frozen_and_symmetry():
    assert omega(0.4, 1e-2).value.real == pytest.approx(
        -0.9086806448489452, rel=1e-10
    )
    assert omega(0.4, 1e-3).value.real == pytest.approx(
        -2.0250582459715556, rel=1e-10
    )
    assert omega(0.0, 0.7).value == 0j
    assert omega(1.0, 0.7).value == 0j
    for s in (0.3, 0.1 + 5.0j, 0.9 + 14.0j):
        s = complex(s)
        assert abs(omega(s, 0.5).value - omega(1.0 - s, 0.5).value) < 1e-12
    with pytest.raises(DomainError):
        omega(0.4, -1.0)


# mpmath values of completed(s; lam) where the ray quadrature is the route
RAY_FIXTURE = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "completed_exp_ray.json").read_text())


@pytest.mark.parametrize(
    "row", RAY_FIXTURE["completed"],
    ids=lambda r: f"lam={r['lam']:g},s={r['s_re']:g}{r['s_im']:+g}i")
def test_ray_route_matches_oracle_and_series(row):
    s, lam = complex(row["s_re"], row["s_im"]), row["lam"]
    ref = complex(row["completed_re"], row["completed_im"])
    routed = zeta_regularized(s, ExpSymmetric(lam))
    assert routed.representation == "quadrature"
    assert routed.completed.converged
    assert abs(routed.completed.value - ref) <= 1e-12 * abs(ref)
    series = zeta_exp_bessel_series(s, lam).completed.value
    assert abs(routed.completed.value - series) <= 1e-12 * abs(series)


def test_omega_and_xi_take_the_routed_value():
    row = RAY_FIXTURE["completed"][1]
    s, lam = complex(row["s_re"], row["s_im"]), row["lam"]
    ref = complex(row["completed_re"], row["completed_im"])
    pref = 0.5 * s * (s - 1.0)
    xi = xi_lambda(s, lam).value
    assert abs(xi - pref * ref) <= 1e-12 * abs(pref * ref)
    om = omega(s, lam).value
    om_ref = pref * (ref + bessel_k(0.5 * s, 2.0 * lam).value)
    assert abs(om - om_ref) <= 1e-12 * abs(om_ref)
    report = verify(FunctionalEqKind.EXP_SYMMETRIC, s, {"lam": lam})
    assert report.rel_residual < 1e-12


def test_omega_keeps_relative_accuracy_at_large_lambda():
    row = RAY_FIXTURE["omega"][0]
    ref = complex(row["value_re"], row["value_im"])
    value = omega(row["s"], row["lam"]).value
    assert abs(value - ref) <= 1e-12 * abs(ref)


def test_route_rule_keeps_series_where_it_is_cheaper():
    # one constant: real lam below _RAY_LAM = 5 takes the ray at any height,
    # the real axis included
    for s in (0.5 + 14.0j, 0.5 + 3.0j, 0.5):
        assert zeta_regularized(s, ExpSymmetric(5.0)).representation == (
            "bessel-series")
        assert zeta_regularized(s, ExpSymmetric(4.9)).representation == (
            "quadrature")
    assert zeta_regularized(0.5 + 3.0j, ExpSymmetric(0.02)).representation == (
        "quadrature")
    # complex lam has no ray route
    assert zeta_regularized(0.5 + 3.0j, ExpSymmetric(1e-3 + 1e-3j)).representation == (
        "bessel-series")


def test_ray_route_needs_real_lambda():
    with pytest.raises(DomainError):
        _completed_quadrature([0.5 + 9.0j], ExpSymmetric(0.1 + 0.1j),
                              QuadratureSpec(), theta=1.0)
    with pytest.raises(DomainError):
        xi_lambda(0.5 + 9.0j, 0.0)


def test_a_completed_row_shares_im_s():
    with pytest.raises(DomainError, match="share Im s"):
        _completed_exp([0.5 + 1.0j, 0.5 + 2.0j], 1.0, QuadratureSpec())


# mpmath Bessel-series values of completed(s; lam) at 100 seeded real s and
# lam < 0.5, which take the real-axis quadrature
REAL_AXIS_FIXTURE = json.loads(
    (pathlib.Path(__file__).parent / "fixtures"
     / "completed_exp_real_axis.json").read_text())


def test_real_axis_err_estimate_covers_the_rounding():
    # the integrand is positive, so the error is the rounding of the sum; a
    # last increment of 0 must not be reported as an exact value
    short = []
    for row in REAL_AXIS_FIXTURE["completed"]:
        routed = zeta_regularized(row["s"], ExpSymmetric(row["lam"]))
        assert routed.representation == "quadrature"
        completed = routed.completed
        assert completed.converged
        if abs(completed.value - row["completed"]) > completed.err_estimate:
            short.append((row, completed))
    assert len(REAL_AXIS_FIXTURE["completed"]) >= 100
    assert short == []


# mpmath Bessel-series values of completed(s; lam) at Im s = 150
HIGH_T_FIXTURE = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "completed_exp_high_t.json").read_text())


@pytest.mark.parametrize(
    "row", HIGH_T_FIXTURE["completed"],
    ids=lambda r: f"lam={r['lam']:g},s={r['s_re']:g}{r['s_im']:+g}i")
def test_high_t_takes_the_ray_and_the_series_owns_up(row):
    s, lam = complex(row["s_re"], row["s_im"]), row["lam"]
    ref = complex(row["completed_re"], row["completed_im"])
    routed = zeta_regularized(s, ExpSymmetric(lam))
    assert routed.representation == "quadrature"
    assert routed.completed.converged
    assert abs(routed.completed.value - ref) <= 1e-12 * abs(ref)
    # the series settles on a wrong value up here and must say so
    assert not zeta_exp_bessel_series(s, lam).completed.converged


# completed_exp_series_ref at 40 digits on rows of three sigma, for lam on
# both sides of the ray/series crossover _RAY_LAM and t in {0, 5, 14, 20},
# and for lam below it at t in {30, 50, 70, 100}
CROSSOVER_FIXTURE = json.loads(
    (pathlib.Path(__file__).parent / "fixtures"
     / "completed_exp_crossover.json").read_text())


def _crossover_rows():
    """{(lam, t): [(s, reference), ...]} of the crossover fixture."""
    rows = {}
    for r in CROSSOVER_FIXTURE["completed"]:
        rows.setdefault((r["lam"], r["s_im"]), []).append(
            (complex(r["s_re"], r["s_im"]),
             complex(r["completed_re"], r["completed_im"])))
    return rows


def _assert_close_and_honest(results, row):
    for got, (s, ref) in zip(results, row, strict=True):
        err = abs(got.value - ref)
        assert got.converged, s
        assert err <= 1e-13 * abs(ref), (s, err / abs(ref))
        assert err <= got.err_estimate, (s, err, got.err_estimate)


def test_routed_value_holds_across_the_crossover():
    rows = _crossover_rows()
    lams = {lam for lam, _ in rows}
    assert len(rows) == 32
    assert min(lams) < regularized._RAY_LAM <= max(lams)
    assert max(abs(t) for _, t in rows) == regularized._SERIES_MAX_T
    for (lam, _), row in rows.items():
        results, route = _completed_exp([s for s, _ in row], lam, QuadratureSpec())
        assert route == ("quadrature" if lam < regularized._RAY_LAM
                         else "bessel-series")
        _assert_close_and_honest(results, row)


def test_ray_holds_on_both_sides_of_the_crossover():
    # every lam below _RAY_LAM, and lam = 10 above it, where the ray without
    # the cutoff's peak scaled out accepted on the abs_tol floor 5e-9 off;
    # at t = 30 and 70 the estimate needs the pass's rounding, _RAY_ROUNDING
    rows = _crossover_rows()
    assert sum(lam < regularized._RAY_LAM for lam, _ in rows) == 24
    for (lam, t), row in rows.items():
        theta = regularized._ray_angle(t) if t else None
        _assert_close_and_honest(_completed_quadrature(
            [s for s, _ in row], ExpSymmetric(lam), QuadratureSpec(), theta), row)


def test_quadrature_converged_when_every_piece_is():
    s, lam = 5.0 + 3.0j, 1e-4
    routed = zeta_regularized(s, ExpSymmetric(lam))
    assert routed.representation == "quadrature"
    ref = completed_exp_ref(s, lam)
    assert abs(routed.completed.value - ref) <= 1e-13 * abs(ref)
    assert routed.completed.converged


def test_sum_pieces_converged_when_every_piece_is():
    q = QuadratureSpec()
    # each piece accepted at the abs_tol floor; their summed estimate is above it
    a = make_result(1e-3, 0.8 * q.abs_tol, 10, q)
    b = make_result(-2e-3j, 0.9 * q.abs_tol, 20, q)
    assert a.converged and b.converged
    err = a.err_estimate + b.err_estimate
    total = sum_pieces([a, b])
    assert total.err_estimate > q.tolerance_for(total.value)
    assert total == EvalResult(value=1e-3 - 2e-3j, err_estimate=err,
                               evaluations=30, converged=True)
    unsettled = replace(b, converged=False)
    assert sum_pieces([a, unsettled]).converged is False
    assert sum_pieces([a, b], -2.0j) == EvalResult(
        value=-2.0j * (1e-3 - 2e-3j), err_estimate=2.0 * err, evaluations=30,
        converged=True)


def test_boundary_form_not_converged_when_a_piece_is_not():
    # at Im s = 150 both series pieces report converged=False and the (0,1)
    # integrals lose e^{pi |t| / 4} to cancellation: the returned
    # 2.6e-18 - 1.0e-17i is nowhere near the fixture's -2.04e-51
    row = next(r for r in HIGH_T_FIXTURE["completed"] if r["lam"] == 1.0)
    s = complex(row["s_re"], row["s_im"])
    ref = complex(row["completed_re"], row["completed_im"])
    r = zeta_exp_boundary_form(s, row["lam"])
    assert abs(r.completed.value - ref) > abs(ref)
    assert r.completed.converged is False


# ---------------------------------------------------------------------------
# the ray's columns: x + 1/x and psi - G once a node, shared by the lambdas
# ---------------------------------------------------------------------------

_RAY_T = 20.0
_RAY_ROW = [0.3 + 20.0j, 0.7 + 20.0j]


def _ray_by_node(s_values, cutoff, q, theta):
    """The ray values of a walk that computes the cutoff, its peak
    e^{-2 lam cos(theta)} taken out, and psi - G at every node, each
    estimate widened by the pass's rounding."""
    rot = cmath.exp(1j * theta)
    lam = complex(cutoff.lam)
    peak = 2.0 * cutoff.lam * math.cos(theta)

    def ray_base(i, r):
        x = r * rot
        w = lam * (x + 1.0 / x)
        if w.real > 745.0:
            return 0.0
        hv = cmath.exp(peak - w)
        return _psi_complex_remainder(x, q.series_tail_tol, q.max_terms) * hv

    rays = integrate_powers(lambda level: ray_base,
                            [0.5 * s - 1.0 for s in s_values], q,
                            regularized._quadrature_support(cutoff, theta))
    results = []
    for s, ray in zip(s_values, rays):
        ray = sum_pieces([ray], cmath.exp(0.5j * theta * s - peak))
        rounding = EvalResult(0j, regularized._RAY_ROUNDING * abs(ray.value), 0, True)
        results.append(sum_pieces(
            [ray, rounding, regularized._asymptote_integral(s, cutoff.lam, q)]))
    return results


_LOOSE_TAIL = QuadratureSpec(series_tail_tol=1e-12)


@pytest.mark.parametrize("q", [QuadratureSpec(), _LOOSE_TAIL])
def test_two_lambdas_on_shared_ray_columns_equal_cleared_columns(monkeypatch, q):
    theta = regularized._ray_angle(_RAY_T)
    cutoffs = (ExpSymmetric(0.05), ExpSymmetric(0.2))
    cleared = []
    for cutoff in cutoffs:
        monkeypatch.setattr(regularized, "_RAY_COLUMNS", {})
        cleared.append(_completed_quadrature(_RAY_ROW, cutoff, q, theta))
    monkeypatch.setattr(regularized, "_RAY_COLUMNS", {})
    # the other spec's columns sit beside these and must not serve q
    other = _LOOSE_TAIL if q == QuadratureSpec() else QuadratureSpec()
    _completed_quadrature(_RAY_ROW, cutoffs[1], other, theta)
    shared = [_completed_quadrature(_RAY_ROW, cutoff, q, theta)
              for cutoff in cutoffs]
    assert shared == cleared
    assert shared == [_ray_by_node(_RAY_ROW, cutoff, q, theta)
                      for cutoff in cutoffs]


def test_psi_remainder_runs_once_a_node_across_lambdas(monkeypatch):
    theta = regularized._ray_angle(_RAY_T)
    seen = []

    def counted(x, tol, terms):
        seen.append(x)
        return _psi_complex_remainder(x, tol, terms)

    monkeypatch.setattr(regularized, "_psi_complex_remainder", counted)
    monkeypatch.setattr(regularized, "_RAY_COLUMNS", {})
    q = QuadratureSpec()
    counts = []
    for lam in (0.05, 0.2, 0.05, 0.2):
        _completed_quadrature(_RAY_ROW, ExpSymmetric(lam), q, theta)
        counts.append(len(seen))
    assert len(set(seen)) == len(seen)  # no node twice
    assert 0 < counts[0] and counts[1] == counts[2] == counts[3]
    columns = regularized._RAY_COLUMNS[theta, q.series_tail_tol, q.max_terms]
    assert sum(p is not None for rems in columns.values()
               for p in rems) == len(seen)


def test_ray_columns_hold_at_most_the_bound_of_angles(monkeypatch):
    monkeypatch.setattr(regularized, "_RAY_COLUMNS", {})
    q = QuadratureSpec()
    bound = regularized._RAY_THETAS
    ts = [5.0 + 3.0 * k for k in range(bound + 2)]
    for t in ts + [-t for t in ts]:
        _completed_quadrature([0.5 + t * 1j], ExpSymmetric(0.1), q,
                              regularized._ray_angle(t))
        assert len(regularized._RAY_COLUMNS) <= bound
    # the angles used last are the ones kept
    assert [key[0] for key in regularized._RAY_COLUMNS] == [
        regularized._ray_angle(-t) for t in ts[-bound:]]
