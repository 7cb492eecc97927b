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
# Up to log(DBL_MAX / 4), cmath.exp of a real argument returns math.exp's
# bits; above it cmath.exp takes exp(x - 1) e, which rounds differently.
_MATH_EXP_LIMIT = math.log(1.7976931348623157e308 / 4.0)

# Bound once: gamma_ratio_block's float sum calls it once per row and degree.
_lgamma = math.lgamma


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


# Stirling's series coefficients B_2k / (2k (2k - 1)), k = 1..8.
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)
# |z|^2 from which Stirling's series is used unshifted.  At |z| = 10 its
# first omitted term, B_18 / (18 * 17 z^17), is below 2e-18, and at most
# 2^9 times that for Re z > 0; a larger threshold only adds cancellation
# between the series and the shift's logs (|z| = 15 doubles the worst
# error near z = 2).
_STIRLING_MIN_ABS2 = 100.0
# (z - 1/2) log z - z + log(2 pi)/2 = (z - 1/2)(log z - 1) + _STIRLING_CONST
_STIRLING_CONST = 0.5 * math.log(2.0 * math.pi) - 0.5
_LOG_2PI = math.log(2.0 * math.pi)


def _log_gamma_right(z: complex) -> complex:
    """log Gamma(z) for Re z >= 1/2: shift up to |z| >= 10, then Stirling.

    Every z + j has a positive real part, so the principal logs subtracted
    for the shift add up to the principal branch with no 2 pi correction;
    so does the log of a product of two of them, whose args are each
    below pi/2, which halves the logs taken.
    """
    shift = 0j
    # No abs(): it raises OverflowError where the squares only give inf.
    while z.real * z.real + z.imag * z.imag < _STIRLING_MIN_ABS2:
        shift += cmath.log(z * (z + 1.0))
        z += 2.0
    # 1/z before squaring: z * z is nan + inf j once |z| passes ~1e154.
    inv = 1.0 / z
    w = inv * inv
    series = _STIRLING[-1]
    for coef in _STIRLING[-2::-1]:
        series = series * w + coef
    return (z - 0.5) * (cmath.log(z) - 1.0) + _STIRLING_CONST + series * inv - shift


def _log_gamma_reflected(z: complex) -> complex:
    """log Gamma(z) for Re z < 1/2, Im z >= +0, by reflection.

    log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z), with
    log sin(pi z) = -i pi z - log 2 + i pi/2 + log(1 - e^(2 pi i z)).  For
    Im z >= 0, |e^(2 pi i z)| <= 1 and 1 - e^(2 pi i z) stays in the right
    half-plane, so this log sin is analytic in the upper half-plane and
    continuous onto the real axis from above.  Its imaginary part
    pi/2 - pi Re z is the principal arg of sin(pi z) moved by the multiple
    of 2 pi that puts log Gamma on its principal branch (Hare 1997), so
    no branch correction is needed; and cmath.sin, which overflows near
    |Im z| = 225, is never called.
    """
    x, y = z.real, z.imag
    return (
        _LOG_2PI
        + complex(-math.pi * y, math.pi * (x - 0.5))
        - cmath.log(_one_minus_q(x, y))
        - _log_gamma_right(1.0 - z)
    )


def _one_minus_q(x: float, y: float) -> complex:
    """1 - q, q = e^(2 pi i z), for z = x + i y with y >= 0.

    Taken as 1 - e^(i theta - s), theta = 2 pi (x - round(x)), s = 2 pi y,
    from expm1 and sin^2(theta/2), so it keeps full relative accuracy next
    to the poles, where it tends to 0.
    """
    theta = 2.0 * math.pi * (x - round(x))
    s = 2.0 * math.pi * y
    half_sin = math.sin(0.5 * theta)
    return complex(
        2.0 * half_sin * half_sin - math.expm1(-s) * math.cos(theta),
        -math.exp(-s) * math.sin(theta),
    )


def _log_gamma_complex(z: complex) -> complex:
    """Principal log Gamma(z) off the poles, with stdlib arithmetic only."""
    if z.real >= 0.5:
        return _log_gamma_right(z)
    if math.copysign(1.0, z.imag) < 0.0:
        # Conjugate symmetry; -0j maps to +0j, the other side of the cut.
        return _log_gamma_reflected(z.conjugate()).conjugate()
    return _log_gamma_reflected(z)


def _digamma(z: complex) -> complex:
    """psi(z) = d/dz log Gamma(z) off the poles, the derivative of the
    sums that ``_log_gamma_complex`` takes: for Re z >= 1/2 the same shift
    to |z| >= 10, where d/dz log(z (z+1)) = 1/z + 1/(z+1), then
    log z - 1/(2z) - sum_k B_2k / (2k z^2k); below that the reflection
    psi(z) = psi(1 - z) - pi cot(pi z), with
    pi cot(pi z) = -i pi (1 + q) / (1 - q), q = e^(2 pi i z), and 1 - q
    from ``_one_minus_q``; conjugate symmetry below the real axis.
    """
    if z.real < 0.5:
        if math.copysign(1.0, z.imag) < 0.0:
            return _digamma(z.conjugate()).conjugate()
        one_minus = _one_minus_q(z.real, z.imag)
        return _digamma(1.0 - z) + 1j * math.pi * (2.0 - one_minus) / one_minus
    shift = 0j
    while z.real * z.real + z.imag * z.imag < _STIRLING_MIN_ABS2:
        shift += 1.0 / z + 1.0 / (z + 1.0)
        z += 2.0
    inv = 1.0 / z
    w = inv * inv
    # (2k - 1) B_2k / (2k (2k - 1)) = B_2k / 2k, k = 8 down to 1.
    series = 15.0 * _STIRLING[-1]
    for k, coef in zip(range(7, 0, -1), _STIRLING[-2::-1]):
        series = series * w + (2 * k - 1) * coef
    return cmath.log(z) - 0.5 * inv - series * w - shift


def log_gamma(z) -> complex:
    """Principal branch of log Gamma(z).

    Real positive ``z`` gives an exactly real result, from
    ``math.lgamma`` (``inf`` where that overflows, above z ~ 2.6e305).
    Other ``z`` take the stdlib-only ``_log_gamma_complex``: for
    Re z >= 1/2 a shift to |z| >= 10 and Stirling's series with 8
    Bernoulli terms; below that the reflection formula with the branch of
    log sin(pi z) that lands on the principal branch (D. E. G. Hare,
    "Computing the principal branch of log-Gamma", J. Algorithms 25
    (1997) 221-236), and conjugate symmetry below the real axis.  On the
    negative real axis the sign of a zero imaginary part picks the side
    of the cut, as in ``scipy.special.loggamma``: -2.5+0j gives
    imaginary part -3 pi, -2.5-0j gives +3 pi.  Against mpmath,
    |err| / max(1, |ref|) stays below 1e-14 for Re z in [-30, 40],
    |Im z| <= 30.  Raises :class:`GammaPoleError` when ``z`` is within
    tolerance of a non-positive integer.
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
    return _log_gamma_complex(z)


def _log_gamma_named(z: complex, param: complex, subscript: float, label: str) -> complex:
    """log Gamma(z), z = param + subscript; a gamma pole names the row."""
    try:
        return log_gamma(z)
    except GammaPoleError as exc:
        raise GammaPoleError(
            exc.location,
            f"{label}: parameter {param} at subscript {subscript} "
            f"hits the gamma pole at {exc.location}",
        ) from exc


def gamma_ratio_block(upper, lower, pochhammer: bool):
    """``log_at(K)``: the log of the product of Gamma(p + e K) over the
    ``upper`` rows divided by the same product over the ``lower`` rows,
    each row a (complex parameter p, exponent e, label); with
    ``pochhammer``, each row's log Gamma(p) is subtracted, which gives
    the log of a ratio of Pochhammer symbols (p)_(e K).

    log Gamma(p) is taken here once per row, in row order, so the first
    gamma pole is raised with its row's label.  Where every p is real and
    positive with a finite log Gamma, ``log_at`` sums ``math.lgamma``
    floats in row order: each p + e K is then at least p, off every pole,
    where ``log_gamma`` is complex(math.lgamma(p + e K), 0.0), so the sum
    has the bits of the same sum taken in ``log_gamma`` values.  Any other
    block, or a K whose float sum is not finite (an ``lgamma`` overflow,
    or p + e K = inf, which ``log_gamma`` refuses), takes complex
    ``log_gamma`` values, and a pole there names its row and subscript.
    That path takes log Gamma(p + 0.0) at K = 0, not the log Gamma(p)
    taken here: the sum turns a -0.0 imaginary part into +0.0, the other
    side of log Gamma's cut.

    An upper and a lower row with the same (p, e), p real and positive
    off the pole at 0, cancel first: their ratio is 1 at every K, and
    they can raise no pole, though both ``lgamma`` values may overflow.
    """
    upper, lower = list(upper), list(lower)
    for row in tuple(upper):
        p, e, _ = row
        twin = next((r for r in lower if r[:2] == (p, e)), None)
        if twin and p.imag == 0.0 and p.real > 0.0 and nearest_pole(p) is None:
            upper.remove(row)
            lower.remove(twin)
    rows, floats = ([], []), ([], [])
    for side, float_side, block in zip(rows, floats, (upper, lower)):
        for p, e, label in block:
            lg0 = _log_gamma_named(p, p, 0.0, label)
            offset = lg0 if pochhammer else 0j
            side.append((p, e, label, offset))
            if p.imag == 0.0 and p.real > 0.0 and math.isfinite(lg0.real):
                float_side.append((p.real, e, offset.real))
    real = all(len(f) == len(side) for f, side in zip(floats, rows))

    def log_at(degree: int) -> complex:
        if real:
            total = 0.0
            try:
                for p, e, offset in floats[0]:
                    total += _lgamma(p + e * degree) - offset
                for p, e, offset in floats[1]:
                    total -= _lgamma(p + e * degree) - offset
            except OverflowError:
                total = math.inf
            if math.isfinite(total):
                return complex(total, 0.0)
        total = 0j
        for p, e, label, offset in rows[0]:
            total += _log_gamma_named(p + e * degree, p, e * degree, label) - offset
        for p, e, label, offset in rows[1]:
            total -= _log_gamma_named(p + e * degree, p, e * degree, label) - offset
        return total

    return log_at


def exp_checked(log_value: complex, what: str) -> complex:
    """exp(log_value); RangeError naming ``what`` where it overflows."""
    if log_value.real > _EXP_LIMIT:
        raise RangeError(f"{what} overflows double precision")
    return cmath.exp(log_value)


def gamma(z) -> complex:
    """Gamma(z) = exp(log_gamma(z)); overflow raises RangeError."""
    return exp_checked(log_gamma(z), f"gamma({z!r})")
