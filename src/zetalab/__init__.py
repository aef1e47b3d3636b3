"""zetalab: damped zeta values, functional-equation checks, heat kernels."""

__version__ = "0.1.0"

from .bessel import bessel_k, bessel_k_from_laplace, laplace_pair_integral
from .cutoffs import (CustomCutoff, CutoffSpec, ExpAlpha, ExpSymmetric,
                      NoCutoff, TwoParam, TwoParamNu, cutoff_value,
                      ensure_symmetric_for_fe)
from .diffusion import (euclidean_identification_residual, heat_kernel_h3,
                        heat_kernel_hyperbolic_odd, heat_kernel_rd,
                        hyperbolic_identification_residual,
                        laplace_hyperbolic, resolvent_rd_bessel,
                        resolvent_rd_quad)
from .errors import (DomainError, NonConvergence, NonFiniteIntegrand,
                     PoleError, SymmetryViolation, ZetalabError)
from .funceq import STANDARD_S_GRID, FunctionalEqKind, verify
from .gammafn import gamma_complex, log_gamma_complex, rgamma
from .quadrature import integrate
from .regularized import (abcd_terms, boundary_i1, boundary_i2, omega,
                          pde_residual_F, smooth_F, xi_lambda,
                          zeta_exp_bessel_series, zeta_exp_boundary_form,
                          zeta_regularized)
from .theta import big_theta, jacobi_theta3, psi, theta_modular_residual
from .types import (DEFAULT_QUAD, EvalResult, FunctionalEqReport,
                    QuadratureSpec, RegZetaValue, ZeroBracket)
from .zeta_classic import (chi_factor, find_zeros, hardy_z,
                           riemann_siegel_theta, xi_entire, zeta_analytic,
                           zeta_series)

__all__ = [
    "__version__",
    # errors
    "ZetalabError", "DomainError", "PoleError", "NonConvergence",
    "NonFiniteIntegrand", "SymmetryViolation",
    # core types
    "QuadratureSpec", "DEFAULT_QUAD", "EvalResult", "RegZetaValue",
    "FunctionalEqReport", "ZeroBracket",
    # numerics
    "integrate", "gamma_complex", "log_gamma_complex", "rgamma",
    "bessel_k", "bessel_k_from_laplace", "laplace_pair_integral",
    # theta layer
    "psi", "big_theta", "jacobi_theta3", "theta_modular_residual",
    # classical zeta
    "zeta_series", "zeta_analytic", "chi_factor", "xi_entire",
    "riemann_siegel_theta", "hardy_z", "find_zeros",
    # cutoffs
    "CutoffSpec", "NoCutoff", "ExpSymmetric", "ExpAlpha", "TwoParam",
    "TwoParamNu", "CustomCutoff", "cutoff_value", "ensure_symmetric_for_fe",
    # damped zeta
    "zeta_regularized", "zeta_exp_bessel_series", "zeta_exp_boundary_form",
    "boundary_i1", "boundary_i2", "smooth_F", "abcd_terms", "pde_residual_F",
    "xi_lambda", "omega",
    # functional equations
    "FunctionalEqKind", "STANDARD_S_GRID", "verify",
    # diffusion
    "heat_kernel_rd", "resolvent_rd_bessel", "resolvent_rd_quad",
    "heat_kernel_hyperbolic_odd", "heat_kernel_h3", "laplace_hyperbolic",
    "euclidean_identification_residual", "hyperbolic_identification_residual",
]
