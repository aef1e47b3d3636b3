"""Checks of the referee itself: two independent mpmath routes must agree.

The completed integral has a quadrature oracle and a Bessel-series oracle;
where one of them was found wrong, the other pins it.
"""

from oracles import completed_exp_ref, completed_exp_series_ref


def test_completed_exp_ref_holds_at_large_lambda():
    # the value is ~e^{-2 lam}; with that scale left in, mp.quad's absolute
    # acceptance cost the quadrature oracle 8e-10 relative at lam = 28
    for s, lam in ((0.5, 28.0), (2.0, 30.0), (0.3 + 20.0j, 28.0)):
        quad = completed_exp_ref(s, lam)
        series = completed_exp_series_ref(s, lam)
        assert abs(quad - series) <= 1e-13 * abs(series)
