"""Complex gamma via the Lanczos approximation, plus small power helpers.

The g = 607/128, 15-term coefficient set gives ~1e-14 relative accuracy in
the right half-plane; the left half-plane goes through reflection. The log
form is the primitive (it is what Hardy's Z needs for its phase), and the
plain gamma exponentiates it.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, PoleError

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
# Past this |Im w|, cmath.sin(w) overflows (cosh passes the double range
# near 710) although sin(w) Gamma(1 - w/pi) is of modest size.
_SIN_OVERFLOW_IM = 700.0
_LOG_HALF_I = cmath.log(0.5j)


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def _lanczos_log(z: complex) -> complex:
    """log Gamma(z) for Re z >= 0.5 (series evaluated at shifted argument)."""
    zz = z - 1.0
    s = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[k] / (zz + k)
    t = zz + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (zz + 0.5) * cmath.log(t) - t + cmath.log(s)


def _log_sin(w: complex) -> complex:
    """A logarithm of sin(w) that stays finite where sin(w) overflows.

    For Im w >= 0, sin w = e^{-iw} (i/2) (1 - e^{2iw}) with |e^{2iw}| <= 1;
    below the real axis it is the conjugate of the value at conj(w).  The
    branch is whatever that sum gives, which is all exp() needs.
    """
    w = complex(w)
    if w.imag < 0.0:
        return _log_sin(w.conjugate()).conjugate()
    return -1j * w + _LOG_HALF_I + cmath.log(1.0 - cmath.exp(2j * w))


def _sin_pi_gamma_reflected(z: complex) -> complex:
    """sin(pi z) Gamma(1 - z) for Re z < 0.5, the factor reflection needs.

    cmath.sin(pi z) is used while it stays finite, so those values keep
    every bit; past _SIN_OVERFLOW_IM the product goes through _log_sin.
    """
    w = math.pi * z
    if abs(w.imag) > _SIN_OVERFLOW_IM:
        return cmath.exp(_log_sin(w) + _lanczos_log(1.0 - z))
    return cmath.sin(w) * cmath.exp(_lanczos_log(1.0 - z))


def log_gamma_complex(z: complex) -> complex:
    """Principal-branch log Gamma, restricted to the right half-plane.

    Parameters
    ----------
    z : complex
        Must satisfy Re z > 0 (the principal branch is only served where it
        is single-valued without reflection bookkeeping).

    Raises
    ------
    DomainError
        If Re z <= 0.
    """
    z = complex(z)
    if not z.real > 0.0:
        raise DomainError(f"log_gamma_complex needs Re z > 0, got {z!r}")
    if z.real >= 0.5:
        return _lanczos_log(z)
    # shift once: loggamma(z) = loggamma(z+1) - log z, analytic for Re z > 0
    return _lanczos_log(z + 1.0) - cmath.log(z)


def gamma_complex(z: complex) -> complex:
    """Gamma(z) on the complex plane, poles excluded.

    Uses Lanczos directly for Re z >= 0.5 and the reflection formula
    Gamma(z) = pi / (sin(pi z) Gamma(1-z)) for Re z < 0.5.

    Raises
    ------
    PoleError
        At the poles z = 0, -1, -2, ...
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"gamma pole at z = {z!r}")
    if z.real >= 0.5:
        return cmath.exp(_lanczos_log(z))
    return math.pi / _sin_pi_gamma_reflected(z)


def rgamma(z: complex) -> complex:
    """1/Gamma(z), entire: returns exactly 0 at the poles of Gamma."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        return 0.0 + 0.0j
    if z.real >= 0.5:
        return cmath.exp(-_lanczos_log(z))
    return _sin_pi_gamma_reflected(z) / math.pi


def power_real_base(x: float, w: complex) -> complex:
    """x**w for real x > 0 and complex w, bound to the real logarithm."""
    if not x > 0.0:
        raise DomainError(f"power_real_base needs x > 0, got {x!r}")
    if isinstance(w, complex) and w.imag != 0.0:
        return cmath.exp(w * math.log(x))
    wr = w.real if isinstance(w, complex) else float(w)
    return math.exp(wr * math.log(x)) + 0.0j
