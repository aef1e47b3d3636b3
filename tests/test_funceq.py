"""verify() across every functional-equation kind, plus the gates it enforces."""

import json
import math
import pathlib

import pytest

from zetalab.bessel import bessel_k
from zetalab.cutoffs import (CustomCutoff, ExpAlpha, ExpSymmetric, TwoParam,
                             TwoParamNu, cutoff_value)
from zetalab.errors import DomainError, PoleError, SymmetryViolation
from zetalab.funceq import (
    STANDARD_S_GRID,
    FunctionalEqKind,
    _sides,
    verify,
)
from zetalab.gammafn import gamma_complex, power_real_base
from zetalab.quadrature import integrate
from zetalab.types import DEFAULT_QUAD
from zetalab.regularized import zeta_regularized
from zetalab.zeta_classic import zeta_analytic

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_riemann_classic():
    r = verify(FunctionalEqKind.RIEMANN_CLASSIC, 0.4)
    assert r.kind == "riemann-classic"
    assert r.abs_residual < 1e-10
    r = verify(FunctionalEqKind.RIEMANN_CLASSIC, 0.3 + 8.0j)
    assert r.rel_residual < 1e-9


def test_riemann_classic_poles():
    with pytest.raises(PoleError):
        verify(FunctionalEqKind.RIEMANN_CLASSIC, 0.0)
    with pytest.raises(PoleError):
        verify(FunctionalEqKind.RIEMANN_CLASSIC, 1.0)


def test_exp_symmetric():
    r = verify(FunctionalEqKind.EXP_SYMMETRIC, 0.3 + 5.0j, {"lam": 0.5})
    assert r.rel_residual < 1e-9
    assert r.params == {"lam": 0.5}
    # complex damping is part of the contract
    r = verify(FunctionalEqKind.EXP_SYMMETRIC, 0.7, {"lam": 1.0 + 0.5j})
    assert r.rel_residual < 1e-8


def test_exp_symmetric_needs_lam():
    with pytest.raises(DomainError):
        verify(FunctionalEqKind.EXP_SYMMETRIC, 0.5, {})
    with pytest.raises(DomainError):
        verify(FunctionalEqKind.EXP_SYMMETRIC, 0.5, {"lam": -1.0})


def test_exp_alpha():
    r = verify(FunctionalEqKind.EXP_ALPHA, 0.25, {"lam": 1.0, "alpha": 2.0})
    assert r.rel_residual < 1e-9
    r = verify(FunctionalEqKind.EXP_ALPHA, 0.5 + 5.0j, {"lam": 0.5, "alpha": 0.5})
    assert r.rel_residual < 1e-8


def test_exp_alpha_rejects_nonpositive_alpha():
    with pytest.raises(DomainError):
        verify(FunctionalEqKind.EXP_ALPHA, 0.3, {"lam": 1.0, "alpha": -1.0})
    with pytest.raises(DomainError):
        verify(FunctionalEqKind.EXP_ALPHA, 0.3, {"lam": 1.0, "alpha": 0.0})


def test_exp_alpha_unit_alpha_matches_exp_symmetric():
    a = verify(FunctionalEqKind.EXP_ALPHA, 0.3, {"lam": 0.7, "alpha": 1.0})
    b = verify(FunctionalEqKind.EXP_SYMMETRIC, 0.3, {"lam": 0.7})
    assert a.lhs == pytest.approx(b.lhs, rel=1e-9)
    assert a.rhs == pytest.approx(b.rhs, rel=1e-9)


def test_two_param():
    r = verify(FunctionalEqKind.TWO_PARAM, 0.6, {"lam1": 1.0 + 0.5j, "lam2": 0.7})
    assert r.rel_residual < 1e-8
    r = verify(FunctionalEqKind.TWO_PARAM, 0.1 + 14.0j, {"lam1": 0.3, "lam2": 2.0})
    assert r.rel_residual < 1e-8


def test_quarter_alpha_fixture_verdict():
    # two candidate prefactors for the single-K reduction; the frozen
    # fixture records which one the independent reference run supported
    fix = json.loads((FIXTURES / "quarter_alpha_verdict.json").read_text())
    assert fix["supported_prefactor"] == "-4"
    rep = verify(
        FunctionalEqKind.QUARTER_ALPHA_SINGLE_K, fix["s"], {"lam": fix["lam"]}
    )
    # rhs = -4 base exactly, so lhs + rhs / 2 is lhs - 2 base to the bit
    assert rep.abs_residual < 1e-9
    # the other printed form is not merely loose, it is wrong
    assert abs(rep.lhs + 0.5 * rep.rhs) > 0.1
    assert rep.rel_residual < 1e-8
    assert rep.lhs == pytest.approx(fix["lhs_re"], rel=1e-7)


def test_quarter_alpha_domain():
    with pytest.raises(DomainError):
        verify(FunctionalEqKind.QUARTER_ALPHA_SINGLE_K, 0.3, {"lam": -0.5})
    with pytest.raises(DomainError):
        verify(FunctionalEqKind.QUARTER_ALPHA_SINGLE_K, 0.3, {"lam": 1.0 + 2.0j})


def test_generic_h_symmetric_custom():
    h = CustomCutoff(
        fn=lambda x: math.exp(-(math.log(x) ** 2)), label="log-symmetric"
    )
    r = verify(FunctionalEqKind.GENERIC_H, 0.4, {"cutoff": h})
    assert r.rel_residual < 1e-9
    assert r.params == {"cutoff": "CustomCutoff"}


def test_generic_h_builtin_kind():
    h = TwoParamNu(lam1=0.8, lam2=1.1, nu=1.5)
    r = verify(FunctionalEqKind.GENERIC_H, 0.3 + 5.0j, {"cutoff": h})
    assert r.rel_residual < 1e-8
    assert r.params == {"cutoff": "TwoParamNu"}


def test_generic_h_rejects_asymmetric():
    h = CustomCutoff(
        fn=lambda x: math.exp(-x), declared_symmetric=False, label="one-sided"
    )
    with pytest.raises(SymmetryViolation):
        verify(FunctionalEqKind.GENERIC_H, 0.4, {"cutoff": h})


def test_generic_h_decay_gate():
    # e^{-lam |log x|} is symmetric but only power-law in x, far too slow
    # for the x^{(s-3)/2} endpoint weight
    h = CustomCutoff(
        fn=lambda x: math.exp(-2.0 * abs(math.log(x))), label="slow-power"
    )
    with pytest.raises(DomainError):
        verify(FunctionalEqKind.GENERIC_H, 0.4, {"cutoff": h})


def test_generic_h_requires_cutoff_spec():
    with pytest.raises(DomainError):
        verify(FunctionalEqKind.GENERIC_H, 0.4, {"cutoff": lambda x: 1.0})
    with pytest.raises(DomainError):
        verify(FunctionalEqKind.GENERIC_H, 0.4, {})


def test_standard_grid_shape():
    assert len(STANDARD_S_GRID) == 15
    assert complex(0.5, 14.0) in STANDARD_S_GRID
    # the exp-symmetric identity holds across the whole panel
    worst = max(
        verify(FunctionalEqKind.EXP_SYMMETRIC, s, {"lam": 1.0}).rel_residual
        for s in STANDARD_S_GRID
    )
    assert worst < 1e-8


# Each generalized kind reports lhs = side(1 - s), rhs = side(s), with
# side(u) = completed(u; h) + its boundary term at u/2.  The tests below
# rebuild both sides from the public pieces and compare exactly, so a change
# in how a side is assembled, or a swap of the two, fails them.  Parameters
# are powers of two where the formula divides, so the paper's form and the
# library's rounding agree bit for bit.

PIN_S = 0.3 + 5.0j


def _completed(u, cutoff):
    return zeta_regularized(u, cutoff).completed.value


def _assert_mirrored(kind, params, side):
    r = verify(kind, PIN_S, params)
    assert r.lhs == side(1.0 - PIN_S)
    assert r.rhs == side(PIN_S)


def test_exp_symmetric_sides_exact():
    lam = 0.5
    _assert_mirrored(FunctionalEqKind.EXP_SYMMETRIC, {"lam": lam},
                     lambda u: _completed(u, ExpSymmetric(lam))
                     + bessel_k(u / 2.0, 2.0 * lam).value)


def test_exp_alpha_sides_exact():
    lam, alpha = 0.5, 0.5
    _assert_mirrored(FunctionalEqKind.EXP_ALPHA, {"lam": lam, "alpha": alpha},
                     lambda u: _completed(u, ExpAlpha(lam, alpha))
                     + bessel_k(u / (2.0 * alpha), 2.0 * lam).value / alpha)


def test_two_param_sides_exact():
    lam1, lam2 = 0.5, 2.0

    def side(u):
        ratio = power_real_base(lam2 / lam1, u / 4.0)
        k = bessel_k(u / 2.0, 2.0 * math.sqrt(lam1 * lam2)).value
        return (_completed(u, TwoParam(lam1, lam2))
                + 0.5 * k * (ratio + 1.0 / ratio))

    _assert_mirrored(FunctionalEqKind.TWO_PARAM, {"lam1": lam1, "lam2": lam2}, side)


def _quadrature_side(h):
    def side(u):
        def f(x):
            hv = cutoff_value(h, x)
            return 0.5 * hv * power_real_base(x, u / 2.0 - 1.0) if hv else 0.0

        return _completed(u, h) + integrate(f, (0.0, math.inf)).value

    return side


def test_generic_h_sides_exact_exp_alpha():
    h = ExpAlpha(0.5, 1.5)
    _assert_mirrored(FunctionalEqKind.GENERIC_H, {"cutoff": h}, _quadrature_side(h))


def test_generic_h_sides_exact_custom():
    h = CustomCutoff(fn=lambda x: math.exp(-(math.log(x) ** 2)), label="log-symmetric")
    _assert_mirrored(FunctionalEqKind.GENERIC_H, {"cutoff": h}, _quadrature_side(h))


# The batched kinds take the completed values at 1 - s and s from one
# quadrature pass; each side must still be what one s at a time gives.
_BATCHED = [(FunctionalEqKind.EXP_ALPHA, {"lam": 0.7, "alpha": 1.3}),
            (FunctionalEqKind.TWO_PARAM, {"lam1": 0.4 + 0.2j, "lam2": 1.1}),
            (FunctionalEqKind.GENERIC_H, {"cutoff": TwoParamNu(0.6, 1.4, 0.8)}),
            (FunctionalEqKind.GENERIC_H, {"cutoff": ExpAlpha(0.5, 1.5)})]


@pytest.mark.parametrize("s", [0.7, 0.1 + 14.0j, 0.9 - 3.0j])
@pytest.mark.parametrize("kind, params", _BATCHED)
def test_batched_sides_equal_one_s_at_a_time(kind, params, s):
    r = verify(kind, s, params)
    sides = _sides(kind, s, params, DEFAULT_QUAD)
    assert (r.lhs, r.rhs) == (sides([1.0 - s])[0], sides([s])[0])


@pytest.mark.parametrize("s", [0.7, 0.1 + 14.0j, 0.9 - 3.0j])
def test_batched_quarter_alpha_equals_one_s_at_a_time(s):
    h = ExpAlpha(0.5, 0.25)
    r = verify(FunctionalEqKind.QUARTER_ALPHA_SINGLE_K, s, {"lam": 0.5})
    assert r.lhs == _completed(1.0 - s, h) - _completed(s, h)


def test_riemann_classic_sides_exact():
    # the classical record keeps lhs = completed(s), rhs = completed(1 - s)
    def completed(u):
        return (power_real_base(math.pi, -u / 2.0) * gamma_complex(u / 2.0)
                * zeta_analytic(u).value)

    r = verify(FunctionalEqKind.RIEMANN_CLASSIC, PIN_S)
    assert r.lhs == completed(PIN_S)
    assert r.rhs == completed(1.0 - PIN_S)


def test_quarter_alpha_sides_exact():
    lam = 0.5
    h = ExpAlpha(lam, 0.25)
    order = 1.0 - 2.0 * PIN_S
    r = verify(FunctionalEqKind.QUARTER_ALPHA_SINGLE_K, PIN_S, {"lam": lam})
    assert r.lhs == _completed(1.0 - PIN_S, h) - _completed(PIN_S, h)
    assert r.rhs == -4.0 * (order * bessel_k(order, 2.0 * lam).value / lam)
