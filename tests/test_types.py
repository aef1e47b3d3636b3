"""The invariants the value types check when they are built."""

import pytest

from zetalab.errors import DomainError
from zetalab.types import EvalResult, QuadratureSpec, RegZetaValue, ZeroBracket

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

