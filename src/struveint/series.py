"""Single-variable series with controlled truncation.

Covers the two Struve-type series (alternating and all-positive, both
with the half-shifted second gamma), the three-parameter generalized
Struve family W_{p,b,c}, the gamma-weighted Fox-Wright series, and the
plain generalized hypergeometric pFq.  All sums run in ascending term
order under a common stopping rule, ``sum_terms``, which reads a plain
running sum and returns the correctly rounded sum of the terms it kept
(``math.fsum``; ``fsum_complex`` for complex terms, also used for a
Lauricella shell and a quadrature round's panels).  W_{p,b,c} is summed
by a prepared evaluator instead (``_w_evaluator``), for real and complex
parameters alike: its leading term times Horner's rule over a table of
the series' coefficients in w = (z/2)^2 (``_w_table``), cut at the first
index whose proven tail bound covers w.  Where the table does not reach
w, or where the terms' moduli could leave the double range, it falls
back to ``sum_terms``.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from bisect import bisect_left

from .errors import ConvergenceError, DivergenceError, DomainError, GammaPoleError, RangeError
from .gammafn import _EXP_LIMIT, _MATH_EXP_LIMIT, _digamma, gamma_ratio_block, log_gamma, nearest_pole
from .record import Record, _set

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
# From here up z/2 is a normal float, whose log needs no detour.
_TWO_TINY = 2.0 * _TINY
_HUGE = sys.float_info.max
# Room for rounding in _w_evaluator's bound on the terms' moduli.
_ROUNDING_ROOM = 1.0 + 2.0**-30
# Unit roundoff of a double.
_U = 2.0**-53


class SeriesControl(Record):
    """Term budget shared by every infinite series in the library.

    The sum stops once three successive terms satisfy
    |term| <= 1e-16 |partial sum| (a fixed tolerance); hitting
    ``max_terms`` first is a convergence failure.  W_{p,b,c} sums at
    most ``max_terms`` coefficients of its table before it falls back
    to that rule.
    """

    __slots__ = ("max_terms",)

    def __init__(self, max_terms: int = 10_000):
        if isinstance(max_terms, bool) or not isinstance(max_terms, int):
            raise DomainError(f"max_terms must be an int, got {max_terms!r}")
        if max_terms < 1:
            raise DomainError("max_terms must be >= 1")
        _set(self, "max_terms", max_terms)


DEFAULT_CONTROL = SeriesControl()


class SeriesResult(Record):
    __slots__ = ("value", "terms", "tail_estimate")

    def __init__(self, value: complex, terms: int, tail_estimate: float):
        self._init(value, terms, tail_estimate)


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


class StruveParams(Record):
    """Order and shape parameters (p, b, c) of the generalized Struve
    series; its fields never change once built, and its one lazily taken
    value is the same whoever takes it, so threads may share one."""

    # _log_gamma_shifted: log Gamma(p + (b+2)/2), the leading term's constant;
    # _s_rounding: struve_w_full's factor for the rounding of p + (b+2)/2
    # and log Gamma's error, None until its first call (_rounding_of_s).
    __slots__ = ("p", "b", "c", "_log_gamma_shifted", "_s_rounding")

    def __init__(self, p: complex, b: complex, c: complex):
        for name, v in (("p", p), ("b", b), ("c", c)):
            v = complex(v)
            if not cmath.isfinite(v):
                raise DomainError(f"StruveParams.{name} must be finite")
            _set(self, name, v)
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
        _set(self, "_log_gamma_shifted", lgs)
        _set(self, "_s_rounding", None)

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


def _gamma_shifted(params: StruveParams) -> tuple[float, float | complex]:
    """Gamma(s), s = p + (b+2)/2, as (sign, log): for real s, the sign and
    log |Gamma(s)|, as exp of log_gamma's i pi would leave an imaginary
    residue; otherwise (1.0, log Gamma(s))."""
    lgs = params._log_gamma_shifted
    if params.shifted_order.imag or not lgs.imag:
        return 1.0, lgs
    return (-1.0 if math.cos(lgs.imag) < 0 else 1.0), lgs.real


def _w_terms(params: StruveParams, z: float):
    """Terms (-c)^k (z/2)^(2k+p+1) / (G(k+3/2) G(k+p+(b+2)/2)) of W_{p,b,c}(z).

    The derivative series, and W past its coefficient table, sum them
    through sum_terms.
    """
    half = z / 2.0
    sign, lgs = _gamma_shifted(params)
    log_t0 = (params.p + 1) * _log_half(z) - _LOG_GAMMA_3_2 - lgs
    if log_t0.real > _EXP_LIMIT:
        raise RangeError("leading series term overflows")
    ratio_base = -params.c * half * half
    second = params.shifted_order
    term = sign * cmath.exp(log_t0)
    isfinite = cmath.isfinite
    for k in itertools.count():
        yield term
        step = term * ratio_base
        den = (k + 1.5) * (k + second)
        # Near the top of the double range the product can overflow where
        # the next term does not; only there divide the ratio first.
        term = step / den if isfinite(step) else term * (ratio_base / den)


def _w_table(params: StruveParams, w_max: float, ctl: SeriesControl) -> tuple[list, list, list]:
    """(coefficients, limits, moduli) of W_{p,b,c}(z) = t_0 sum_k a_k w^k,
    w = (z/2)^2, with moduli[k] = |a_k|.

    a_0 = 1 and a_{k+1} = a_k (-c) / ((k + 3/2)(k + s)), s = p + (b+2)/2,
    in floats where c and s are real.  limits[K-1] is a w up to which the
    first K coefficients are proven to leave |tail| <= 2 |a_K| w^K <= 1e-16
    (times |t_0|): there K + Re s > 0 and the term ratio's modulus, at most
    |c| w / ((k + 3/2)(k + Re s)), is at most 1/2 at k = K and falls after
    it.  Certifying K - 1 coefficients certifies K, so the limits are a
    running maximum and never decrease.  The table ends at the first limit
    >= w_max, at ctl.max_terms coefficients, or before a coefficient's
    modulus leaves the normal float range: an underflowed a_K read as 0
    would certify a sum that it does not bound.
    """
    c, second = params.c, params.shifted_order
    neg_c = -(c if c.imag else c.real)
    second = second if second.imag else second.real
    re_second = second.real
    coeffs, moduli = [1.0], [1.0]
    if neg_c == 0:  # every a_k past a_0 is 0
        return coeffs, [math.inf], moduli
    limits = []
    twice_c = 2.0 * abs(neg_c)
    coeff = 1.0
    limit = 0.0
    k = 0.0  # a float: arithmetic mixing ints and floats runs slower
    for _ in range(ctl.max_terms):
        k += 1.0
        coeff = coeff * neg_c / ((k + 0.5) * (k - 1.0 + second))  # a_k
        try:
            mag = abs(coeff)
        except OverflowError:  # finite parts, modulus past the range
            break
        if not _TINY <= mag <= _HUGE:
            break
        if k + re_second > 0:
            ratio_cap = (k + 1.5) * (k + re_second) / twice_c
            # limit = max(limit, min(ratio_cap, reach)), without the calls.
            if ratio_cap > limit:
                reach = (_TAIL_TOL / mag) ** (1.0 / k)
                limit = ratio_cap if reach >= ratio_cap else reach if reach > limit else limit
        limits.append(limit)
        if limit >= w_max:
            break
        coeffs.append(coeff)
        moduli.append(mag)
    return coeffs, limits, moduli


def _horner(coeffs: list, k: int, w: float):
    """coeffs[0] + coeffs[1] w + ... + coeffs[k] w^k by Horner's rule."""
    total = coeffs[k]
    for j in range(k - 1, -1, -1):
        total = total * w + coeffs[j]
    return total


def _w_evaluator(params: StruveParams, w_max: float, ctl: SeriesControl):
    """``evaluate(z, full=False)``: W_{p,b,c}(z) at a float z > 0, or with
    ``full`` its SeriesResult, from one ``_w_table`` built up to ``w_max``.

    That is t_0 times Horner's rule over the first K coefficients, K the
    first whose limit reaches w = (z/2)^2, with the tail bound 1e-16 |t_0|;
    t_0 is a float where p and s are real (a negative G(s) negates the
    coefficients instead), else complex.  Tables are prefixes of the same
    sequences, so every one that reaches w gives the same bits.  Past the
    table's reach, or where |t_0| sum_k |a_k| w^k (a bound on every term
    and partial sum) nears the double range, the result is
    sum_terms(_w_terms(params, z), ctl).  Where t_0 is real and p + 1 > 0,
    the range and overflow tests are decided once for the whole table
    (up to its largest argument z_top), and a call inside it skips them.
    """
    coeffs, limits, moduli = _w_table(params, w_max, ctl)
    reach = len(limits)
    p, (sign, lgs) = params.p, _gamma_shifted(params)
    if sign < 0:  # Horner's rule over -a_k gives -(sum_k a_k w^k) bit for bit
        coeffs = [-c for c in coeffs]
    p1 = (p if p.imag else p.real) + 1
    lgs = lgs if lgs.imag else lgs.real
    real_t0 = isinstance(p1, float) and isinstance(lgs, float)
    inf, log, exp, cexp = math.inf, math.log, math.exp, cmath.exp
    # |t_0| <= cap keeps that bound in range for every w the table reaches.
    bound = _horner(moduli, reach - 1, limits[-1]) * _ROUNDING_ROOM**2 if reach else math.inf
    cap = _HUGE / bound if bound <= _HUGE else 0.0
    # Where t_0 is real and grows with z (p + 1 > 0), log t_0 at the
    # table's largest argument z_top bounds it at every z <= z_top.  If that
    # log, one unit up, is below _MATH_EXP_LIMIT and log(cap), a call with
    # 2 _TINY <= z <= z_top that the table reaches passes every test below
    # and takes math.exp, so it skips them: same bits.  The unit covers
    # p1 times log's rounding while |rise| < 2^50; rise is inf where the
    # tests cannot be decided so (complex t_0, p + 1 <= 0, no cap).
    z_top = 2.0 * math.sqrt(limits[-1]) if reach else 0.0
    rise = p1 * log(z_top / 2.0) if real_t0 and p1 > 0.0 and cap > 0.0 and _TWO_TINY <= z_top < inf else inf
    if not (abs(rise) < 2.0**50 and rise - _LOG_GAMMA_3_2 - lgs + 1.0 <= min(_MATH_EXP_LIMIT, log(cap))):
        z_top = 0.0  # every call takes the tests
    # rows[k] = [coeffs[k-1], ..., coeffs[0]], the coefficients below
    # coeffs[k] in Horner's order, made on first use: a one-off call pays
    # O(k) for its one row.  Threads that race here store equal rows.
    rows = [None] * reach

    def evaluate(z: float, full: bool = False):
        half = z / 2.0
        w = half * half
        k = bisect_left(limits, w)
        if k < reach and _TWO_TINY <= z <= z_top and not full:
            t0 = exp(p1 * log(half) - _LOG_GAMMA_3_2 - lgs)
        else:
            if not 0.0 < z < inf:
                _require_positive_z(z)  # raises
            # log(z/2) as _log_half takes it.
            log_t0 = p1 * (log(half) if half >= _TINY else log(z) - _LOG_2) - _LOG_GAMMA_3_2 - lgs
            if log_t0.real > _EXP_LIMIT:
                raise RangeError("leading series term overflows")
            if not real_t0:
                t0 = cexp(log_t0)
            else:  # math.exp has cmath.exp's bits up to _MATH_EXP_LIMIT
                t0 = exp(log_t0) if log_t0 <= _MATH_EXP_LIMIT else cexp(log_t0).real
            size = abs(t0)  # every full call comes here, so the return below has it
            if k == reach or not (size <= cap or size * _horner(moduli, k, w) * _ROUNDING_ROOM <= _HUGE):
                res = sum_terms(_w_terms(params, z), ctl)
                return res if full else res.value
        row = rows[k]
        if row is None:
            row = rows[k] = coeffs[k - 1::-1] if k else []
        total = coeffs[k]  # _horner(coeffs, k, w), inline
        for c in row:
            total = total * w + c
        value = t0 * total
        return SeriesResult(complex(value), k + 1, _REL_TOL * size) if full else value

    return evaluate


def struve_w_full(params: StruveParams, z, ctl: SeriesControl = DEFAULT_CONTROL) -> SeriesResult:
    """``struve_w``'s value, its term count and a tail estimate.

    The estimate is the series' own (1e-16 |t_0| from the table, or
    ``sum_terms``') plus u (|p| + |b+2|) |psi(s)| |W|, u = 2^-53: s =
    p + (b+2)/2 is formed in floats before Gamma(s) is taken, b + 2 and
    the sum each rounding once, so s is off by at most u (|p| + |b+2|);
    Gamma turns that into |psi(s)| times it, which near a pole of Gamma
    is the largest error.  Where s is not real and positive, ``log_gamma``
    reflects or shifts and sums Stirling's series, and its own error, at
    most 1e-14 max(1, |log Gamma(s)|), is added too.
    """
    z = _require_positive_z(z)
    half = z / 2.0
    res = _w_evaluator(params, half * half, ctl)(z, True)
    return SeriesResult(res.value, res.terms, res.tail_estimate + _rounding_of_s(params) * abs(res.value))


def _rounding_of_s(params: StruveParams) -> float:
    """u (|p| + |b+2|) |psi(s)|, plus 1e-14 max(1, |log Gamma(s)|) where s
    is not real and positive, taken once per params and kept; threads
    that race here each store the same value."""
    rounding = params._s_rounding
    if rounding is None:
        s = params.shifted_order
        rounding = _U * (abs(params.p) + abs(params.b + 2)) * abs(_digamma(s))
        if s.imag or s.real < 0.0:  # log_gamma does not take math.lgamma
            rounding += 1e-14 * max(1.0, abs(params._log_gamma_shifted))
        _set(params, "_s_rounding", rounding)
    return rounding


def struve_w(params: StruveParams, z, ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Generalized Struve series W_{p,b,c}(z) for real z > 0.

    sum_{k>=0} (-c)^k (z/2)^(2k+p+1) / (Gamma(k+3/2) Gamma(k+p+(b+2)/2)).
    """
    z = _require_positive_z(z)
    half = z / 2.0
    return complex(_w_evaluator(params, half * half, ctl)(z))


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


class FoxWrightSpec(Record):
    """Parameter/weight pairs (alpha_j, A_j), (beta_j, B_j) of a pPsiq series.

    All weights must be positive and the convergence margin
    Delta = 1 + sum(B) - sum(A) must be non-negative.
    """

    __slots__ = ("upper", "lower")

    def __init__(self, upper: tuple = (), lower: tuple = ()):
        _set(self, "upper", tuple((complex(a), float(w)) for a, w in upper))
        _set(self, "lower", tuple((complex(b), float(w)) for b, w in lower))
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
        return boundary_radius([w for _, w in self.upper], [w for _, w in self.lower])


def boundary_radius(upper, lower) -> float:
    """prod e**-e over the ``upper`` exponents times prod e**e over the
    ``lower`` ones: the certified radius of a boundary series.

    Where the direct product overflows or underflows, it is taken in logs
    instead, giving inf or 0.0 where the radius itself leaves the double
    range; every other radius is the direct product's.
    """
    r = 1.0
    try:
        for e in upper:
            r *= e**-e
        for e in lower:
            r *= e**e
    except OverflowError:
        r = math.inf
    if 0.0 < r < math.inf:
        return r
    # Each e * log(e) is scaled by 2**-20 so that none overflows;
    # |log r| >= 2**20 is far outside the double range either way.
    scaled = math.fsum([math.ldexp(e, -20) * math.log(e) for e in lower]
                       + [-math.ldexp(e, -20) * math.log(e) for e in upper])
    try:
        return math.exp(math.ldexp(min(max(scaled, -1.0), 1.0), 20))
    except OverflowError:
        return math.inf


# Safety factor applied to the boundary radius when Delta = 0 (here and
# for the Lauricella series' boundary variables).
_RADIUS_MARGIN = 0.9


def _modulus(z: complex) -> float:
    """|z| of an argument; RangeError where it exceeds the double range."""
    try:
        return abs(z)
    except OverflowError:
        raise RangeError("an argument's modulus exceeds the double range") from None


def _fox_wright_block(spec: FoxWrightSpec):
    """``gammafn.gamma_ratio_block`` of prod G(a_j + A_j k) / prod G(b_j + B_j k),
    its rows named upper[j] and lower[j]."""
    return gamma_ratio_block([(a, w, ("upper", j)) for j, (a, w) in enumerate(spec.upper)],
                             [(b, w, ("lower", j)) for j, (b, w) in enumerate(spec.lower)], pochhammer=False)


def _fox_wright_terms(spec: FoxWrightSpec, z: complex):
    """Terms prod G(a_j + A_j k) / prod G(b_j + B_j k) z^k / k!."""
    ln_r = math.log(abs(z))
    unit = z / abs(z)
    phase = 1.0 + 0j
    log_at = _fox_wright_block(spec)
    for k in itertools.count():
        lg = log_at(k)
        mag = lg.real + k * ln_r - math.lgamma(k + 1)
        if mag > _EXP_LIMIT:
            raise RangeError(f"Fox-Wright term {k} overflows")
        yield cmath.exp(complex(mag, lg.imag)) * phase
        phase *= unit


def fox_wright_full(spec: FoxWrightSpec, z, ctl: SeriesControl = DEFAULT_CONTROL) -> SeriesResult:
    z = complex(z)
    if z == 0:
        lg = _fox_wright_block(spec)(0)
        if lg.real > _EXP_LIMIT:
            raise RangeError("Fox-Wright term 0 overflows")
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
