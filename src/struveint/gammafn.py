"""Complex gamma and log-gamma.

All series coefficients in this library reduce to ratios of gamma values,
so this module is the single place where gamma poles and overflow are
handled.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, GammaPoleError, RangeError

# |z - m| below this (both parts) counts as sitting on the pole at m <= 0.
POLE_TOL = 1e-12

# Largest exponent exp() can take before the result overflows a double.
_EXP_LIMIT = math.log(1.7976931348623157e308)


def _as_complex(z) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"argument must be finite, got {z}")
    return z


def nearest_pole(z: complex) -> int | None:
    """Non-positive integer pole that ``z`` sits on, or None."""
    m = round(z.real)
    if m <= 0 and abs(z.real - m) < POLE_TOL and abs(z.imag) < POLE_TOL:
        return int(m)
    return None


def log_gamma(z) -> complex:
    """Principal branch of log Gamma(z).

    Real positive ``z`` gives an exactly real result, from
    ``math.lgamma`` (``inf`` where that overflows, above z ~ 2.6e305).
    Other ``z`` go to ``scipy.special.loggamma``, imported only then, so
    importing the library does not load scipy.  Raises
    :class:`GammaPoleError` when ``z`` is within tolerance of a
    non-positive integer.
    """
    z = _as_complex(z)
    pole = nearest_pole(z)
    if pole is not None:
        raise GammaPoleError(pole)
    if z.imag == 0.0 and z.real > 0.0:
        try:
            return complex(math.lgamma(z.real), 0.0)
        except OverflowError:
            return complex(math.inf, 0.0)
    import scipy.special

    return complex(scipy.special.loggamma(z))


def gamma(z) -> complex:
    """Gamma(z) = exp(log_gamma(z)); overflow raises RangeError."""
    lg = log_gamma(z)
    if lg.real > _EXP_LIMIT:
        raise RangeError(f"gamma({z!r}) overflows double precision")
    return cmath.exp(lg)
