"""Single-variable series with controlled truncation.

Covers the two Struve-type series (alternating and all-positive, both
with the half-shifted second gamma), the three-parameter generalized
Struve family W_{p,b,c}, the gamma-weighted Fox-Wright series, and the
plain generalized hypergeometric pFq.  All sums run in ascending term
order with compensated accumulation and a common stopping rule.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field

from .errors import ConvergenceError, DivergenceError, DomainError, RangeError
from .gammafn import _EXP_LIMIT, log_gamma, nearest_pole

_LOG_GAMMA_3_2 = math.lgamma(1.5)

# Multiplier turning the largest term of the stopping run into the
# reported tail estimate; covers the geometric remainder of any series
# whose term ratio has dropped below ~1/2 by the time the rule fires.
_TAIL_SAFETY = 2.0


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy shared by every infinite series in the library.

    The sum stops once ``consecutive_small`` successive terms satisfy
    |term| <= rel_tol * |partial sum|; hitting ``max_terms`` first is a
    convergence failure.
    """

    rel_tol: float = 1e-16
    max_terms: int = 10_000
    consecutive_small: int = 3

    def __post_init__(self):
        if not 0 < self.rel_tol < math.inf:
            raise DomainError("rel_tol must be positive and finite")
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1")
        if self.consecutive_small < 1:
            raise DomainError("consecutive_small must be >= 1")


DEFAULT_CONTROL = SeriesControl()


@dataclass(frozen=True)
class SeriesResult:
    value: complex
    terms: int
    tail_estimate: float


def sum_terms(terms, ctl: SeriesControl = DEFAULT_CONTROL) -> SeriesResult:
    """Sum a term stream under the standard stopping rule.

    ``terms`` yields successive series terms t_0, t_1, ... (ascending k),
    accumulated with Kahan's compensated step (the arithmetic of
    ``KahanSum.add`` then ``.value``, inlined).  With S_k the compensated
    partial sum through t_k, the sum stops at the first k that ends a run
    of ``ctl.consecutive_small`` consecutive terms with
    |t_j| <= ctl.rel_tol * |S_j|; it returns S_k, k + 1 terms, and a tail
    estimate of 2 x the largest |t_j| of that run.  Raises
    ConvergenceError when ``ctl.max_terms`` terms pass without the rule
    firing, and RangeError when a term or a partial sum is non-finite.
    """
    rel_tol = ctl.rel_tol
    needed = ctl.consecutive_small
    total = carry = 0j
    small_run = 0
    run_max = 0.0
    for k, term in enumerate(itertools.islice(terms, ctl.max_terms)):
        term = complex(term)
        value = term + carry
        previous = total
        total = previous + value
        carry = value - (total - previous)
        partial = total + carry
        # A non-finite term always leaves the partial sum non-finite.
        if not cmath.isfinite(partial):
            if not cmath.isfinite(term):
                raise RangeError(f"series term {k} is non-finite")
            raise RangeError(f"partial sum overflows at term {k}")
        mag = abs(term)
        if mag <= rel_tol * abs(partial):
            small_run += 1
            if mag > run_max:
                run_max = mag
            if small_run >= needed:
                return SeriesResult(partial, k + 1, _TAIL_SAFETY * run_max)
        else:
            small_run = 0
            run_max = 0.0
    raise ConvergenceError(
        f"series did not meet tolerance within {ctl.max_terms} terms"
    )


@dataclass(frozen=True)
class StruveParams:
    """Order and shape parameters (p, b, c) of the generalized Struve series."""

    p: complex
    b: complex
    c: complex
    # log Gamma(p + (b+2)/2), the leading term's constant.
    _log_gamma_shifted: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("p", "b", "c"):
            v = complex(getattr(self, name))
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise DomainError(f"StruveParams.{name} must be finite")
            object.__setattr__(self, name, v)
        # Every term's second gamma argument is p + (b+2)/2 + k; a pole
        # there (k = 0 is the worst case) poisons the whole series.
        pole = nearest_pole(self.p + (self.b + 2) / 2)
        if pole is not None:
            raise DomainError(
                f"p + (b+2)/2 = {pole} is a non-positive integer; "
                "the generalized Struve series is undefined"
            )
        object.__setattr__(self, "_log_gamma_shifted", log_gamma(self.shifted_order))

    @property
    def shifted_order(self) -> complex:
        return self.p + (self.b + 2) / 2


def _require_positive_z(z) -> float:
    z = float(z)
    if not (z > 0 and math.isfinite(z)):
        raise DomainError(f"argument z must be a positive real, got {z!r}")
    return z


def _struve_terms(p: complex, second: complex, log_gamma_second: complex,
                  sign: complex, z: float):
    """Terms of sum_k sign^k (z/2)^(2k+p+1) / (G(k+3/2) G(k+second)),
    given log G(second)."""
    half = z / 2.0
    log_t0 = (p + 1) * math.log(half) - _LOG_GAMMA_3_2 - log_gamma_second
    if log_t0.real > _EXP_LIMIT:
        raise RangeError("leading series term overflows")
    term = cmath.exp(log_t0)
    ratio_base = sign * half * half
    for k in itertools.count():
        yield term
        term = term * ratio_base / ((k + 1.5) * (k + second))


def _w_terms(params: StruveParams, z: float):
    return _struve_terms(params.p, params.shifted_order, params._log_gamma_shifted, -params.c, z)


def struve_w_full(params: StruveParams, z, ctl: SeriesControl = DEFAULT_CONTROL) -> SeriesResult:
    z = _require_positive_z(z)
    return sum_terms(_w_terms(params, z), ctl)


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


def struve_h_paper_full(nu, z, ctl: SeriesControl = DEFAULT_CONTROL) -> SeriesResult:
    nu = complex(nu)
    z = _require_positive_z(z)
    if nearest_pole(nu + 0.5) is not None:
        raise DomainError("nu + 1/2 must not be a non-positive integer")
    return sum_terms(_struve_terms(nu, nu + 0.5, log_gamma(nu + 0.5), -1.0, z), ctl)


def struve_h_paper(nu, z, ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Alternating Struve-type series with second gamma Gamma(k + nu + 1/2).

    Note the half-unit shift: this is the W_{nu,-1,1} normalization, not
    the DLMF Struve function (whose second gamma is Gamma(k + nu + 3/2)).
    """
    return struve_h_paper_full(nu, z, ctl).value


def struve_l_paper_full(nu, z, ctl: SeriesControl = DEFAULT_CONTROL) -> SeriesResult:
    nu = complex(nu)
    z = _require_positive_z(z)
    if nearest_pole(nu + 0.5) is not None:
        raise DomainError("nu + 1/2 must not be a non-positive integer")
    return sum_terms(_struve_terms(nu, nu + 0.5, log_gamma(nu + 0.5), 1.0, z), ctl)


def struve_l_paper(nu, z, ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """All-positive companion of struve_h_paper (the (-1)^k factor absent)."""
    return struve_l_paper_full(nu, z, ctl).value


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


# Safety factor applied to the boundary radius when Delta = 0.
_RADIUS_MARGIN = 0.9


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
    if spec.delta == 0 and abs(z) >= _RADIUS_MARGIN * spec.radius:
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
    if len(upper) == len(lower) + 1 and abs(z) >= 1 and z != 0:
        raise DivergenceError("pFq with p = q + 1 requires |z| < 1")
    return sum_terms(_pfq_terms(upper, lower, z), ctl)


def pfq(upper, lower, z, ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Generalized hypergeometric sum_k prod(u_j)_k / prod(l_j)_k z^k/k!."""
    return pfq_full(upper, lower, z, ctl).value
