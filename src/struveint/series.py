"""Single-variable series with controlled truncation.

Covers the two Struve-type series (alternating and all-positive, both
with the half-shifted second gamma), the three-parameter generalized
Struve family W_{p,b,c}, the gamma-weighted Fox-Wright series, and the
plain generalized hypergeometric pFq.  All sums run in ascending term
order under a common stopping rule, ``sum_terms``, which reads a plain
running sum and returns the correctly rounded sum of the terms it kept
(``math.fsum``; ``fsum_complex`` for complex terms, also used for a
Lauricella shell and a quadrature round's panels).  W_{p,b,c} with
real p, b, c (and a positive gamma of the shifted order p + (b+2)/2)
is summed by ``_w_real`` instead: its leading term times Horner's rule
over a table of the series' coefficients in w = (z/2)^2 (``_w_table``),
cut at the first index whose proven tail bound covers w.  Where the
table does not reach w it falls back to ``sum_terms``.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, field

from .errors import ConvergenceError, DivergenceError, DomainError, GammaPoleError, RangeError
from .gammafn import _EXP_LIMIT, log_gamma, log_gamma_sum, nearest_pole, real_rows

_LOG_GAMMA_3_2 = math.lgamma(1.5)
_LOG_2 = math.log(2.0)

# Multiplier turning the largest term of the stopping run into the
# reported tail estimate; covers the geometric remainder of any series
# whose term ratio has dropped below ~1/2 by the time the rule fires.
_TAIL_SAFETY = 2.0
# Successive small terms that stop a series.
_STOP_RUN = 3
# A term counts as small when |term| <= _REL_TOL * |partial sum|.
_REL_TOL = 1e-16
# _w_table's limits: 2 |a_K| w^K <= 1e-16 with coefficients a_K in [_TINY, _HUGE].
_TAIL_TOL = _REL_TOL / _TAIL_SAFETY
_TINY = sys.float_info.min
_HUGE = sys.float_info.max


@dataclass(frozen=True)
class SeriesControl:
    """Term budget shared by every infinite series in the library.

    The sum stops once three successive terms satisfy
    |term| <= 1e-16 |partial sum| (a fixed tolerance); hitting
    ``max_terms`` first is a convergence failure.  Real W_{p,b,c} sums
    at most ``max_terms`` coefficients of its table before it falls
    back to that rule.
    """

    max_terms: int = 10_000

    def __post_init__(self):
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1")


DEFAULT_CONTROL = SeriesControl()


@dataclass(frozen=True)
class SeriesResult:
    value: complex
    terms: int
    tail_estimate: float


def _fsum(values) -> float:
    """math.fsum, the correctly rounded sum (J. R. Shewchuk, Discrete
    Comput. Geom. 18 (1997) 305-363); RangeError where it overflows."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):  # ValueError: inf + -inf
        raise RangeError("exactly rounded sum overflows") from None


def fsum_complex(values) -> complex:
    """Correctly rounded sum of a sequence of complex numbers, part by
    part (complex addition is componentwise); +0.0 parts when empty."""
    return complex(_fsum([v.real for v in values]), _fsum([v.imag for v in values]))


def sum_terms(terms, ctl: SeriesControl = DEFAULT_CONTROL) -> SeriesResult:
    """Sum a term stream under the standard stopping rule.

    ``terms`` yields successive series terms t_0, t_1, ... (ascending k).
    With S_k the plain running sum through t_k, the sum stops at the
    first k that ends a run of ``_STOP_RUN`` consecutive terms with
    |t_j| <= 1e-16 |S_j|; it returns ``fsum_complex`` of
    t_0 .. t_k, k + 1 terms, and a tail estimate of 2 x the largest
    |t_j| of that run.  Raises ConvergenceError when ``ctl.max_terms``
    terms pass without the rule firing, and RangeError when a term or a
    partial sum is non-finite or its modulus overflows.
    """
    partial = 0j
    kept = []
    small_run = 0
    run_max = 0.0
    k = 0
    try:
        for k, term in enumerate(itertools.islice(terms, ctl.max_terms)):
            term = complex(term)
            kept.append(term)
            partial += term
            # A non-finite term always leaves the partial sum non-finite.
            if not cmath.isfinite(partial):
                if not cmath.isfinite(term):
                    raise RangeError(f"series term {k} is non-finite")
                raise RangeError(f"partial sum overflows at term {k}")
            mag = abs(term)
            if mag <= _REL_TOL * abs(partial):
                small_run += 1
                if mag > run_max:
                    run_max = mag
                if small_run >= _STOP_RUN:
                    return SeriesResult(fsum_complex(kept), k + 1, _TAIL_SAFETY * run_max)
            else:
                small_run = 0
                run_max = 0.0
    except OverflowError:
        # Finite parts whose modulus exceeds the double range.
        raise RangeError(f"series modulus overflows at term {k}") from None
    raise ConvergenceError(
        f"series did not meet tolerance within {ctl.max_terms} terms"
    )


@dataclass(frozen=True)
class StruveParams:
    """Order and shape parameters (p, b, c) of the generalized Struve
    series; nothing in it changes once built, so threads may share one."""

    p: complex
    b: complex
    c: complex
    # log Gamma(p + (b+2)/2), the leading term's constant.
    _log_gamma_shifted: complex = field(init=False, repr=False, compare=False)
    # Not a field, so set per instance only when all are real: the floats
    # (p + 1, -c, p + (b+2)/2, log Gamma(p + (b+2)/2)) (None sends W
    # through sum_terms).
    _real = None

    def __post_init__(self):
        for name in ("p", "b", "c"):
            v = complex(getattr(self, name))
            if not cmath.isfinite(v):
                raise DomainError(f"StruveParams.{name} must be finite")
            object.__setattr__(self, name, v)
        # Every term's second gamma argument is p + (b+2)/2 + k; a pole
        # there (k = 0 is the worst case) poisons the whole series.
        shifted = self.shifted_order
        try:
            lgs = log_gamma(shifted)
        except GammaPoleError as exc:
            raise DomainError(
                f"p + (b+2)/2 = {exc.location} is a non-positive integer; "
                "the generalized Struve series is undefined"
            ) from None
        object.__setattr__(self, "_log_gamma_shifted", lgs)
        p, c = self.p, self.c
        if not (p.imag or self.b.imag or c.imag or lgs.imag):
            object.__setattr__(self, "_real", (p.real + 1, -c.real, shifted.real, lgs.real))

    @property
    def shifted_order(self) -> complex:
        return self.p + (self.b + 2) / 2


def _require_positive_z(z) -> float:
    z = float(z)
    if not (z > 0 and math.isfinite(z)):
        raise DomainError(f"argument z must be a positive real, got {z!r}")
    return z


def _log_half(z: float) -> float:
    """log(z/2); as log z - log 2 where z/2 is subnormal and may have lost
    bits (at z = 5e-324 it is 0), so every other z keeps its value."""
    half = z / 2.0
    return math.log(half) if half >= _TINY else math.log(z) - _LOG_2


def _w_terms(params: StruveParams, z: float):
    """Terms (-c)^k (z/2)^(2k+p+1) / (G(k+3/2) G(k+p+(b+2)/2)) of W_{p,b,c}(z).

    W with complex parameters, the derivative series, and real W past
    its coefficient table sum them through sum_terms.
    """
    half = z / 2.0
    log_t0 = (params.p + 1) * _log_half(z) - _LOG_GAMMA_3_2 - params._log_gamma_shifted
    if log_t0.real > _EXP_LIMIT:
        raise RangeError("leading series term overflows")
    ratio_base = -params.c * half * half
    second = params.shifted_order
    term = cmath.exp(log_t0)
    isfinite = cmath.isfinite
    for k in itertools.count():
        yield term
        step = term * ratio_base
        den = (k + 1.5) * (k + second)
        # Near the top of the double range the product can overflow where
        # the next term does not; only there divide the ratio first.
        term = step / den if isfinite(step) else term * (ratio_base / den)


def _w_table(params: StruveParams, w_max: float, ctl: SeriesControl) -> tuple[list, list]:
    """(coefficients, limits) of W_{p,b,c}(z) = t_0 sum_k a_k w^k, w = (z/2)^2,
    for params with ``_real`` set.

    a_0 = 1 and a_{k+1} = a_k (-c) / ((k + 3/2)(k + s)), s = p + (b+2)/2.
    limits[K-1] is a w up to which the first K coefficients are proven to
    leave |tail| <= 2 |a_K| w^K <= 1e-16 (times t_0): there K + s > 0 and
    the term ratio |c| w / ((k + 3/2)(k + s)) is at most 1/2 at k = K and
    falls after it.  Certifying K - 1 coefficients certifies K, so the
    limits are a running maximum and never decrease.  The table ends at
    the first limit >= w_max, at ctl.max_terms coefficients, or before a
    coefficient leaves the normal float range: an underflowed a_K read
    as 0 would certify a sum that it does not bound.
    """
    _, neg_c, second, _ = params._real
    coeffs = [1.0]
    if neg_c == 0.0:  # every a_k past a_0 is 0
        return coeffs, [math.inf]
    limits = []
    twice_c = 2.0 * abs(neg_c)
    coeff = 1.0
    limit = 0.0
    for k in range(1, ctl.max_terms + 1):
        coeff = coeff * neg_c / ((k + 0.5) * (k - 1 + second))  # a_k
        mag = abs(coeff)
        if not _TINY <= mag <= _HUGE:
            break
        if k + second > 0:
            ratio_cap = (k + 1.5) * (k + second) / twice_c
            if ratio_cap > limit:
                limit = max(limit, min(ratio_cap, (_TAIL_TOL / mag) ** (1.0 / k)))
        limits.append(limit)
        if limit >= w_max:
            break
        coeffs.append(coeff)
    return coeffs, limits


def _w_real(params: StruveParams, z: float, ctl: SeriesControl, table=None) -> tuple[complex, int, float]:
    """(value, terms, tail estimate) of W_{p,b,c}(z) for a float z and
    params with ``_real`` set: t_0 times Horner's rule over the first K
    coefficients of ``table`` (built for this z when None), K the first
    whose limit reaches w = (z/2)^2, and the proven tail bound 1e-16 t_0.
    Every table is a prefix of the same sequences, so each one that
    reaches w gives the same bits.  Where the table does not reach w, or
    the value leaves the double range, this is sum_terms(_w_terms(params,
    z), ctl).
    """
    if not 0.0 < z < math.inf:
        _require_positive_z(z)  # raises
    p1, _, _, lgs = params._real
    log_t0 = p1 * _log_half(z) - _LOG_GAMMA_3_2 - lgs
    if log_t0 > _EXP_LIMIT:
        raise RangeError("leading series term overflows")
    # cmath.exp: near _EXP_LIMIT it rounds differently from math.exp.
    t0 = cmath.exp(log_t0).real
    half = z / 2.0
    w = half * half
    coeffs, limits = _w_table(params, w, ctl) if table is None else table
    k = bisect_left(limits, w)
    if k < len(limits):
        total = coeffs[k]
        for j in range(k - 1, -1, -1):
            total = total * w + coeffs[j]
        value = t0 * total
        if math.isfinite(value):
            return complex(value), k + 1, _REL_TOL * t0
    res = sum_terms(_w_terms(params, z), ctl)
    return res.value, res.terms, res.tail_estimate


def struve_w_full(params: StruveParams, z, ctl: SeriesControl = DEFAULT_CONTROL) -> SeriesResult:
    if params._real is None:
        return sum_terms(_w_terms(params, _require_positive_z(z)), ctl)
    return SeriesResult(*_w_real(params, float(z), ctl))


def struve_w(params: StruveParams, z, ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Generalized Struve series W_{p,b,c}(z) for real z > 0.

    sum_{k>=0} (-c)^k (z/2)^(2k+p+1) / (Gamma(k+3/2) Gamma(k+p+(b+2)/2)).
    """
    return struve_w_full(params, z, ctl).value


def _struve_derivative_terms(params: StruveParams, z: float, order: int):
    base = _w_terms(params, z)
    for k, term in enumerate(base):
        m = 2 * k + params.p + 1
        if order == 1:
            yield term * m / z
        else:
            yield term * m * (m - 1) / (z * z)


def struve_w_derivative_full(
    params: StruveParams, z, order: int, ctl: SeriesControl = DEFAULT_CONTROL
) -> SeriesResult:
    z = _require_positive_z(z)
    if order not in (1, 2):
        raise DomainError("derivative order must be 1 or 2")
    return sum_terms(_struve_derivative_terms(params, z, order), ctl)


def struve_w_derivative(params: StruveParams, z, order: int, ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Term-wise first or second derivative of W_{p,b,c} at real z > 0."""
    return struve_w_derivative_full(params, z, order, ctl).value


@dataclass(frozen=True)
class FoxWrightSpec:
    """Parameter/weight pairs (alpha_j, A_j), (beta_j, B_j) of a pPsiq series.

    All weights must be positive and the convergence margin
    Delta = 1 + sum(B) - sum(A) must be non-negative.
    """

    upper: tuple = field(default=())
    lower: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(
            self, "upper", tuple((complex(a), float(w)) for a, w in self.upper)
        )
        object.__setattr__(
            self, "lower", tuple((complex(b), float(w)) for b, w in self.lower)
        )
        for _, w in self.upper + self.lower:
            if not w > 0:
                raise DomainError("Fox-Wright weights must be positive reals")
        if self.delta < 0:
            raise DivergenceError(
                f"series diverges: 1 + sum(B) - sum(A) = {self.delta:.3g} < 0"
            )

    @property
    def delta(self) -> float:
        return 1.0 + sum(w for _, w in self.lower) - sum(w for _, w in self.upper)

    @property
    def radius(self) -> float:
        """Boundary radius for the Delta = 0 case."""
        r = 1.0
        for _, w in self.upper:
            r *= w**-w
        for _, w in self.lower:
            r *= w**w
        return r


# Safety factor applied to the boundary radius when Delta = 0 (here and
# for the Lauricella series' boundary variables).
_RADIUS_MARGIN = 0.9


def _modulus(z: complex) -> float:
    """|z| of an argument; RangeError where it exceeds the double range."""
    try:
        return abs(z)
    except OverflowError:
        raise RangeError("an argument's modulus exceeds the double range") from None


def _fox_wright_terms(spec: FoxWrightSpec, z: complex):
    """Terms prod G(a_j + A_j k) / prod G(b_j + B_j k) z^k / k!.

    The gamma ratio's log is ``gammafn.log_gamma_sum`` in floats (offsets
    0.0) when every a_j and b_j is real and positive with a finite
    log Gamma, and a sum of complex ``log_gamma`` values otherwise, or
    where the float sum is not finite.
    """
    ln_r = math.log(abs(z))
    unit = z / abs(z)
    phase = 1.0 + 0j
    # log Gamma(a + 0.0) is term 0's own first call, so a pole is raised
    # as that term raises it.
    real = real_rows(((a, w, log_gamma(a + 0.0), 0.0) for a, w in spec.upper),
                     ((b, w, log_gamma(b + 0.0), 0.0) for b, w in spec.lower))
    for k in itertools.count():
        lg = None if real is None else log_gamma_sum(real, k)
        if lg is None:
            lg = 0j
            for a, w in spec.upper:
                lg += log_gamma(a + w * k)
            for b, w in spec.lower:
                lg -= log_gamma(b + w * k)
        mag = lg.real + k * ln_r - math.lgamma(k + 1)
        if mag > _EXP_LIMIT:
            raise RangeError(f"Fox-Wright term {k} overflows")
        yield cmath.exp(complex(mag, lg.imag)) * phase
        phase *= unit


def fox_wright_full(spec: FoxWrightSpec, z, ctl: SeriesControl = DEFAULT_CONTROL) -> SeriesResult:
    z = complex(z)
    if z == 0:
        lg = sum((log_gamma(a) for a, _ in spec.upper), 0j) - sum(
            (log_gamma(b) for b, _ in spec.lower), 0j
        )
        return SeriesResult(cmath.exp(lg), 1, 0.0)
    if spec.delta == 0 and _modulus(z) >= _RADIUS_MARGIN * spec.radius:
        raise DomainError(
            f"|z| = {abs(z):.6g} is outside the certified radius "
            f"{_RADIUS_MARGIN * spec.radius:.6g} for a boundary (Delta = 0) series"
        )
    return sum_terms(_fox_wright_terms(spec, z), ctl)


def fox_wright(spec: FoxWrightSpec, z, ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Fox-Wright series sum_k prod G(a_j+A_j k) / prod G(b_j+B_j k) z^k/k!.

    Gamma poles hit by a numerator parameter along the summation are hard
    errors; there is no reciprocal-gamma skip convention.
    """
    return fox_wright_full(spec, z, ctl).value


def _pfq_terms(upper, lower, z):
    term = 1.0 + 0j
    for k in itertools.count():
        yield term
        num = 1.0 + 0j
        for u in upper:
            num *= u + k
        den = 1.0 + 0j
        for v in lower:
            den *= v + k
        term = term * num / den * z / (k + 1)


def pfq_full(upper, lower, z, ctl: SeriesControl = DEFAULT_CONTROL) -> SeriesResult:
    upper = [complex(u) for u in upper]
    lower = [complex(v) for v in lower]
    z = complex(z)
    for v in lower:
        if nearest_pole(v) is not None:
            raise DomainError(
                f"lower parameter {v} is a non-positive integer; pFq undefined"
            )
    if len(upper) > len(lower) + 1 and z != 0:
        raise DivergenceError("pFq diverges for p > q + 1 and z != 0")
    if len(upper) == len(lower) + 1 and z != 0 and _modulus(z) >= 1:
        raise DivergenceError("pFq with p = q + 1 requires |z| < 1")
    return sum_terms(_pfq_terms(upper, lower, z), ctl)


def pfq(upper, lower, z, ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Generalized hypergeometric sum_k prod(u_j)_k / prod(l_j)_k z^k/k!."""
    return pfq_full(upper, lower, z, ctl).value
