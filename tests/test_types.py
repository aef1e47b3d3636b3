"""The invariants the value types check when they are built."""

import math

import pytest

from zetalab.errors import DomainError
from zetalab.types import (EvalResult, QuadratureSpec, RegZetaValue, ZeroBracket,
                           sum_pieces)

_OK = EvalResult(value=1j, err_estimate=0.0, evaluations=1, converged=True)


@pytest.mark.parametrize("build", [
    lambda: QuadratureSpec(abs_tol=0.0),
    lambda: QuadratureSpec(rel_tol=1.0),
    lambda: QuadratureSpec(series_tail_tol=2.0),
    lambda: QuadratureSpec(max_levels=0),
    lambda: QuadratureSpec(max_terms=0),
    lambda: EvalResult(value=0j, err_estimate=-1e-300, evaluations=0,
                       converged=True),
    lambda: ZeroBracket(t_lo=2.0, t_hi=2.0, z_lo=-1.0, z_hi=1.0, refined_t=2.0),
    lambda: ZeroBracket(t_lo=1.0, t_hi=2.0, z_lo=1.0, z_hi=1.0, refined_t=1.5),
    lambda: ZeroBracket(t_lo=1.0, t_hi=2.0, z_lo=-1.0, z_hi=1.0, refined_t=2.5),
    lambda: RegZetaValue(s=0.5j, completed=_OK, bare=1j, representation="ray"),
], ids=["abs_tol", "rel_tol", "series_tail_tol", "max_levels", "max_terms",
        "err_estimate", "t_order", "no_sign_change", "refined_outside",
        "representation"])
def test_each_invariant_raises_domain_error(build):
    with pytest.raises(DomainError):
        build()



def test_a_scaled_estimate_covers_the_subnormal_spacing_and_no_more():
    # factor * value can round to a subnormal, spaced ulp(0.0) apart; the
    # scaled estimate adds that spacing, which leaves every estimate from
    # 2^-1020 up bit for bit
    piece = EvalResult(value=1.0, err_estimate=0.0, evaluations=3, converged=True)
    assert sum_pieces([piece], 1e-320).err_estimate == math.ulp(0.0)
    assert sum_pieces([piece], 0.0) == EvalResult(0.0, math.ulp(0.0), 3, True)
    for err in (2.0 ** -1020, 1e-300, 1e-17, 1.0):
        scaled = sum_pieces([EvalResult(1.0, err, 1, True)], 1.0)
        assert scaled.err_estimate == err
    # no factor, no scaling: the estimates' sum as it is
    assert sum_pieces([piece, piece]).err_estimate == 0.0
