"""Single-variable series with controlled truncation.

Covers the two Struve-type series (alternating and all-positive, both
with the half-shifted second gamma), the three-parameter generalized
Struve family W_{p,b,c}, the gamma-weighted Fox-Wright series, and the
plain generalized hypergeometric pFq.  All sums run in ascending term
order under a common stopping rule, ``sum_terms``, which reads a plain
running sum and returns the correctly rounded sum of the terms it kept
(``math.fsum``; ``fsum_complex`` for complex terms, also used for a
Lauricella shell and a quadrature round's panels).  W_{p,b,c} with
real p, b, c (and a positive shifted order p + (b+2)/2) is summed by
``_w_real``, the same rule on floats, bit for bit, over term-ratio
denominators that its ``StruveParams`` tables once, when it is built.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field

from .errors import ConvergenceError, DivergenceError, DomainError, GammaPoleError, RangeError
from .gammafn import _EXP_LIMIT, log_gamma, nearest_pole

_LOG_GAMMA_3_2 = math.lgamma(1.5)

# Multiplier turning the largest term of the stopping run into the
# reported tail estimate; covers the geometric remainder of any series
# whose term ratio has dropped below ~1/2 by the time the rule fires.
_TAIL_SAFETY = 2.0
# Successive small terms that stop a series.
_STOP_RUN = 3
# A term counts as small when |term| <= _REL_TOL * |partial sum|.
_REL_TOL = 1e-16
# Term-ratio denominators a real StruveParams tables when it is built; the
# benchmark's W sums need at most 43, a longer sum makes the rest inline.
_DENOMINATORS = 64


@dataclass(frozen=True)
class SeriesControl:
    """Term budget shared by every infinite series in the library.

    The sum stops once three successive terms satisfy
    |term| <= 1e-16 |partial sum| (a fixed tolerance); hitting
    ``max_terms`` first is a convergence failure.
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
    partial sum is non-finite or its modulus overflows.  W_{p,b,c} with
    real parameters does not come through here: ``_w_real`` repeats
    this rule inline, in floats.
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
    # Not fields, so set per instance only when all are real: the floats
    # (p + 1, -c, p + (b+2)/2, log Gamma(p + (b+2)/2)) (None sends W
    # through sum_terms), and the first _DENOMINATORS term-ratio
    # denominators (k + 3/2)(k + p + (b+2)/2).
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
            second = shifted.real
            object.__setattr__(self, "_real", (p.real + 1, -c.real, second, lgs.real))
            object.__setattr__(self, "_denominators", tuple((k + 1.5) * (k + second) for k in range(_DENOMINATORS)))

    @property
    def shifted_order(self) -> complex:
        return self.p + (self.b + 2) / 2


def _require_positive_z(z) -> float:
    z = float(z)
    if not (z > 0 and math.isfinite(z)):
        raise DomainError(f"argument z must be a positive real, got {z!r}")
    return z


def _w_terms(params: StruveParams, z: float):
    """Terms (-c)^k (z/2)^(2k+p+1) / (G(k+3/2) G(k+p+(b+2)/2)) of W_{p,b,c}(z).

    W with complex parameters and the derivative series sum them through
    sum_terms; _w_real makes the same terms in floats.
    """
    half = z / 2.0
    log_t0 = (params.p + 1) * math.log(half) - _LOG_GAMMA_3_2 - params._log_gamma_shifted
    if log_t0.real > _EXP_LIMIT:
        raise RangeError("leading series term overflows")
    ratio_base = -params.c * half * half
    second = params.shifted_order
    term = cmath.exp(log_t0)
    for k in itertools.count():
        yield term
        term = term * ratio_base / ((k + 1.5) * (k + second))


def _w_real(params: StruveParams, z: float, ctl: SeriesControl) -> tuple[complex, int, float]:
    """(value, terms, tail estimate) of sum_terms(_w_terms(params, z), ctl)
    for a float z and params with ``_real`` set, bit for bit: with p, b, c
    and log Gamma(p + (b+2)/2) real, every imaginary part there is a
    signed zero, so this loop runs _w_terms' recurrence and sum_terms'
    rule on floats (where no modulus overflows while its parts are
    finite) and sums the kept terms with ``_fsum``.
    """
    if not 0.0 < z < math.inf:
        _require_positive_z(z)  # raises
    p1, neg_c, second, lgs = params._real
    half = z / 2.0
    log_t0 = p1 * math.log(half) - _LOG_GAMMA_3_2 - lgs
    if log_t0 > _EXP_LIMIT:
        raise RangeError("leading series term overflows")
    # cmath.exp: near _EXP_LIMIT it rounds differently from math.exp.
    term = cmath.exp(log_t0).real
    ratio = neg_c * half * half
    dens = params._denominators
    rel_tol = _REL_TOL
    isfinite = math.isfinite
    partial = run_max = 0.0
    kept = []
    keep = kept.append
    small_run = 0
    for k in range(ctl.max_terms):
        keep(term)
        partial += term
        if not isfinite(partial):
            if not isfinite(term):
                raise RangeError(f"series term {k} is non-finite")
            raise RangeError(f"partial sum overflows at term {k}")
        mag = abs(term)
        if mag <= rel_tol * abs(partial):
            small_run += 1
            if mag > run_max:
                run_max = mag
            if small_run >= _STOP_RUN:
                return complex(_fsum(kept)), k + 1, _TAIL_SAFETY * run_max
        else:
            small_run = 0
            run_max = 0.0
        term = term * ratio / (dens[k] if k < _DENOMINATORS else (k + 1.5) * (k + second))
    raise ConvergenceError(
        f"series did not meet tolerance within {ctl.max_terms} terms"
    )


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
    ln_r = math.log(abs(z))
    unit = z / abs(z)
    phase = 1.0 + 0j
    for k in itertools.count():
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
