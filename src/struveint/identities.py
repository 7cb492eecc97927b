"""Builders and verifiers for the two integral identities and their
single-factor corollaries.

Each identity equates a semi-infinite integral of a product of
generalized Struve factors against an Oberhettinger-type kernel (the
left side, evaluated here by adaptive quadrature) with a gamma/power
prefactor times a generalized Lauricella series (the right side,
summed by total degree).  The two sides share no code path beyond the
gamma kernel, which is the point: agreement certifies the
order-interchange the identities rest on.  Both right sides are
Oberhettinger's closed form of the bare kernel integral at shifted
(mu, lambda), and their series is how that ratio moves with the total
degree.

Variant "theorem1" feeds each Struve factor the bounded argument
y_j / (x + a + sqrt(x^2 + 2ax)); variant "theorem2" uses
x y_j / (x + a + sqrt(x^2 + 2ax)), which tends to y_j / 2 at infinity.
"""

from __future__ import annotations

import cmath
import math
import time

from .errors import DomainError, RangeError, StruveintError
from .gammafn import exp_checked, log_gamma
from .lauricella import LauricellaResult, LauricellaSpec, lauricella_eval_full
from .quadrature import (DEFAULT_QUAD, QuadControl, QuadResult, _log_oberhettinger, integrate_kernel,
                         kernel_factor)
from .record import Record, _set
from .series import (
    _LOG_2,
    _LOG_GAMMA_3_2,
    DEFAULT_CONTROL,
    FoxWrightSpec,
    SeriesControl,
    StruveParams,
    _w_evaluator,
    fox_wright,
    pfq,
    struve_w,
)

THEOREM1 = "theorem1"
THEOREM2 = "theorem2"
VARIANTS = (THEOREM1, THEOREM2)

DEFAULT_TOLERANCE = 1e-6
# Relative room in a Struve factor's table above (bound/2)^2: theorem2's
# u_j = x y_j / kernel rounds up to an ulp past y_j / 2 where x >> a.
_TABLE_MARGIN = 1.0 + 1e-9


def _checked_tolerance(tol) -> float:
    """The verification tolerance as a float; DomainError for a bool or
    unless 0 < tol < inf."""
    if isinstance(tol, bool):
        raise DomainError(f"verification tolerance must be a number, got {tol!r}")
    tol = float(tol)
    if not 0 < tol < math.inf:
        raise DomainError(f"verification tolerance must be positive and finite, got {tol!r}")
    return tol


class IntegralCase(Record):
    """One instance of either integral identity.

    ``p`` and ``y`` are the per-factor Struve orders and scale points;
    ``n`` may be omitted (0) to be derived from their length.  The
    variant's displayed validity conditions are enforced on construction,
    with the violated inequality named in the error.
    """

    __slots__ = ("variant", "a", "lam", "mu", "b", "c", "p", "y", "n")

    def __init__(self, variant: str, a: float, lam: complex, mu: complex, b: complex, c: complex,
                 p: tuple, y: tuple, n: int = 0):
        if variant not in VARIANTS:
            raise DomainError(f"variant must be one of {VARIANTS}, got {variant!r}")
        _set(self, "variant", variant)
        p = tuple(complex(v) for v in p)
        y = tuple(float(v) for v in y)
        _set(self, "p", p)
        _set(self, "y", y)
        if isinstance(n, bool) or not isinstance(n, int):
            raise DomainError(f"n must be an int, got {n!r}")
        n = n or len(p)
        _set(self, "n", n)
        if n < 1 or len(p) != n or len(y) != n:
            raise DomainError(f"p and y must both have length n = {n}")
        a = float(a)
        _set(self, "a", a)
        if not (a > 0 and math.isfinite(a)):
            raise DomainError("condition violated: a > 0")
        if any(not (v > 0 and math.isfinite(v)) for v in y):
            raise DomainError("condition violated: y_j > 0")
        for name, v in (("lam", lam), ("mu", mu), ("b", b), ("c", c)):
            _set(self, name, complex(v))
        ps = self.p_sum
        if self.variant == THEOREM1:
            if not self.mu.real > 0:
                raise DomainError("condition violated: 0 < Re(mu)")
            if not self.mu.real < (self.lam + ps).real + n:
                raise DomainError("condition violated: Re(mu) < Re(lambda + p_sum) + n")
        else:
            if not (self.mu + ps).real > -n:
                raise DomainError("condition violated: Re(mu + p_sum) > -n")
            if not self.lam.real > self.mu.real:
                raise DomainError("condition violated: Re(lambda) > Re(mu)")

    @property
    def p_sum(self) -> complex:
        return sum(self.p, 0j)

    def struve_params(self) -> tuple[StruveParams, ...]:
        return tuple(StruveParams(pj, self.b, self.c) for pj in self.p)


def _shifted(case: IntegralCase) -> tuple[int, complex, complex]:
    """(sigma, mu', lam'): (0, mu, lam + P + n) for theorem1 and
    (1, mu + P + n, lam + P + n) for theorem2, P the sum of the orders.
    Each theorem's right side is Oberhettinger's ratio at (mu', lam')."""
    shift = case.p_sum + case.n
    if case.variant == THEOREM1:
        return 0, case.mu, case.lam + shift
    return 1, case.mu + shift, case.lam + shift


def _prefactor(case: IntegralCase) -> complex:
    """lam' exp(_log_oberhettinger(a, mu', lam')) times
    prod_j (y_j/2)^(p_j+1) / (Gamma(3/2) Gamma(beta_j)), beta_j = p_j+(b+2)/2."""
    _, mu1, lam1 = _shifted(case)
    log_val = _log_oberhettinger(case.a, mu1, lam1)
    for pj, yj, beta in zip(case.p, case.y, _betas(case)):
        log_val += (pj + 1) * (math.log(yj) - _LOG_2) - _LOG_GAMMA_3_2 - log_gamma(beta)
    return lam1 * exp_checked(log_val, "prefactor")


def _betas(case: IntegralCase) -> tuple:
    return tuple(pj + (case.b + 2) / 2 for pj in case.p)


def _arguments(case: IntegralCase) -> tuple:
    """The series arguments z_j: -c y_j^2 / (4 a^2) for theorem1 and
    -c y_j^2 / 16 for theorem2."""
    scale = 4.0 * case.a * case.a if case.variant == THEOREM1 else 16.0
    return tuple(-case.c * yj * yj / scale for yj in case.y)


def prefactor_theorem1(case: IntegralCase) -> complex:
    """Coefficient multiplying the fixed-argument identity's series:

    (lam+P+n) 2^(1-mu-P-n) a^(mu-lam-P-n) G(2mu) G(lam+P+n-mu)
    prod y_j^(p_j+1) / (G(3/2)^n G(1+lam+P+n+mu) prod G(p_j+(b+2)/2)),

    with P the sum of the orders p_j: Oberhettinger's ratio at
    (mu, lam+P+n).
    """
    if case.variant != THEOREM1:
        raise DomainError("prefactor_theorem1 requires a theorem1 case")
    return _prefactor(case)


def prefactor_theorem2(case: IntegralCase) -> complex:
    """Coefficient for the scaled-argument identity:

    (lam+P+n) 2^(1-mu-2P-2n) a^(mu-lam) G(lam-mu) G(2mu+2P+2n)
    prod y_j^(p_j+1) / (G(3/2)^n G(1+lam+mu+2P+2n) prod G(p_j+(b+2)/2)),

    Oberhettinger's ratio at (mu+P+n, lam+P+n).
    """
    if case.variant != THEOREM2:
        raise DomainError("prefactor_theorem2 requires a theorem2 case")
    return _prefactor(case)


def _rhs_spec(case: IntegralCase) -> tuple[LauricellaSpec, tuple]:
    """The series of shell K is Oberhettinger's ratio at
    (mu' + 2 sigma K, lam' + 2K) over its value at (mu', lam'), with its
    powers of 2 and a moved into z, times the per-variable Struve terms.
    The rows keep each variant's order from the printed theorems."""
    sigma, mu1, lam1 = _shifted(case)
    twos = (2.0,) * case.n
    ratio_upper, ratio_lower = (1 + lam1, twos), (lam1, twos)  # (lam' + 2K) / lam'
    moved_lower = (1 + lam1 + mu1, (2.0 + 2 * sigma,) * case.n)
    if sigma:  # G(2mu' + 4K); G(lam' - mu') stays
        upper, lower = ((2 * mu1, (4.0,) * case.n), ratio_upper), (moved_lower, ratio_lower)
    else:  # G(lam' - mu' + 2K); G(2mu') stays
        upper, lower = (ratio_upper, (lam1 - mu1, twos)), (ratio_lower, moved_lower)
    per_upper = tuple(((1.0 + 0j, 1.0),) for _ in range(case.n))
    per_lower = tuple(((1.5 + 0j, 1.0), (beta, 1.0)) for beta in _betas(case))
    return LauricellaSpec(upper, lower, per_upper, per_lower, case.n), _arguments(case)


def rhs_spec_theorem1(case: IntegralCase) -> tuple[LauricellaSpec, tuple]:
    """Lauricella spec and argument vector -c y_m^2 / (4 a^2)."""
    if case.variant != THEOREM1:
        raise DomainError("rhs_spec_theorem1 requires a theorem1 case")
    return _rhs_spec(case)


def rhs_spec_theorem2(case: IntegralCase) -> tuple[LauricellaSpec, tuple]:
    """Lauricella spec and argument vector -c y_m^2 / 16."""
    if case.variant != THEOREM2:
        raise DomainError("rhs_spec_theorem2 requires a theorem2 case")
    return _rhs_spec(case)


def rhs_corollary(case: IntegralCase, which: int, ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Right-hand side of one of the four printed single-factor corollaries.

    1: theorem1's prefactor at n = 1 x 4F5;
    2: prefactor x 3Psi4 (scaled-argument identity at n = 1);
    3, 4: the b = -1, c = 1 specializations of 1 and 2, whose leftover
    gamma Gamma(p + (b+2)/2) is Gamma(p + 1/2) and whose arguments are
    -y^2/(4a^2) and -y^2/16.
    """
    if case.n != 1:
        raise DomainError("corollaries require n = 1")
    if which not in (1, 2, 3, 4):
        raise DomainError("which must be 1, 2, 3 or 4")
    if which in (3, 4) and not (case.b == -1 and case.c == 1):
        raise DomainError("corollaries 3 and 4 require b = -1 and c = 1")
    expected = THEOREM1 if which in (1, 3) else THEOREM2
    if case.variant != expected:
        raise DomainError(f"corollary {which} requires a {expected} case")
    lam, mu, p = case.lam, case.mu, case.p[0]
    (beta,), (z,) = _betas(case), _arguments(case)
    if expected == THEOREM1:
        half = (lam + p) / 2
        upper = (1.5 + half, 0.5 + half - mu / 2, 1 + half - mu / 2, 1.0)
        lower = (0.5 + half, 1 + half + mu / 2, 1.5 + half + mu / 2, beta, 1.5)
        return _prefactor(case) * pfq(upper, lower, z, ctl)
    log_pref = (
        (-mu - 2 * p - 1) * _LOG_2
        + (mu - lam) * math.log(case.a)
        + (p + 1) * math.log(case.y[0])
        + log_gamma(lam - mu)
    )
    spec = FoxWrightSpec(
        upper=((1.0, 1.0), (lam + p + 2, 2.0), (2 * mu + 2 * p + 2, 4.0)),
        lower=((1.5, 1.0), (beta, 1.0), (lam + p + 1, 2.0), (lam + mu + 2 * p + 3, 4.0)),
    )
    return exp_checked(log_pref, "prefactor") * fox_wright(spec, z, ctl)


def struve_arguments(case: IntegralCase, x: float) -> tuple[float, ...]:
    """Per-factor Struve arguments at the integration point x."""
    kern = kernel_factor(x, case.a)
    if case.variant == THEOREM1:
        return tuple(yj / kern for yj in case.y)
    return tuple(x * yj / kern for yj in case.y)


def _w_at_zero(prm: StruveParams) -> float:
    """W_{p,b,c}(u) as u -> 0+, the factor at an argument u_j that
    underflowed to 0 from a valid x: 0 where Re(p) > -1, as the leading
    term's (u/2)^(p+1) vanishes; RangeError otherwise."""
    if prm.p.real > -1.0:
        return 0.0
    raise RangeError(f"Struve argument underflows to 0 where Re(p) = {prm.p.real:.6g} <= -1")


def _struve_product(case: IntegralCase, ctl: SeriesControl):
    """g(x) = prod_j W_{p_j,b,c}(u_j(x)), multiplied in factor order from 1,
    by the arithmetic of ``struve_arguments`` and ``struve_w`` with one
    kernel factor per x (``_w_at_zero`` where u_j underflows to 0).  Each
    factor is summed by one ``series._w_evaluator`` built here, whose table
    is sized to the factor's argument bound: u_j <= y_j / a for theorem1
    (the kernel is at least a) and u_j < y_j / 2 for theorem2 (it exceeds
    2x).  ``struve_w`` sizes its table to u_j alone; tables are prefixes
    of the same sequence, so the bits agree."""
    a, scaled = case.a, case.variant == THEOREM2
    factors = []
    for prm, yj in zip(case.struve_params(), case.y):
        half = (yj / 2.0 if scaled else yj / a) / 2.0
        factors.append((_w_evaluator(prm, half * half * _TABLE_MARGIN, ctl), yj, prm))

    def g(x: float) -> complex:
        kern = kernel_factor(x, a)
        prod = 1.0 + 0j
        for evaluate, yj, prm in factors:
            u = (x * yj if scaled else yj) / kern
            prod *= evaluate(u) if u else _w_at_zero(prm)
        return prod

    return g


def lhs_integrand(case: IntegralCase, x: float, ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Full integrand x^(mu-1) kernel^(-lambda) prod_j W_{p_j,b,c}(u_j(x)),
    the factors ``struve_w`` at ``struve_arguments`` (``_w_at_zero`` where
    an argument underflows to 0), multiplied in order from 1.  RangeError
    where the weight or the product is not finite."""
    x = float(x)
    if not x > 0:
        raise DomainError("x must be positive")
    kern = kernel_factor(x, case.a)
    value = exp_checked((case.mu - 1) * math.log(x) - case.lam * math.log(kern), "integrand weight")
    prod = 1.0 + 0j
    for prm, u in zip(case.struve_params(), struve_arguments(case, x)):
        prod *= struve_w(prm, u, ctl) if u else _w_at_zero(prm)
    value *= prod
    if not cmath.isfinite(value):
        raise RangeError(f"integrand non-finite at x = {x!r}")
    return value


def _relative_error(lhs: complex, rhs: complex) -> float:
    if lhs == rhs:
        return 0.0
    if rhs == 0:
        return math.inf
    return abs(lhs - rhs) / abs(rhs)


class VerificationReport(Record):
    """One case's verdict, holding the results it was built from: the
    left side's ``QuadResult``, the right side's ``LauricellaResult`` and
    the prefactor (each None where evaluation failed before it; a right
    side summed before the left side raised is kept).  The sides,
    their errors and the two diagnostic dicts are derived from them."""

    __slots__ = ("case", "passed", "tolerance_used", "reason", "quad", "series", "prefactor", "wall_clock_s")

    def __init__(self, case: IntegralCase | None, passed: bool, tolerance_used: float,
                 reason: str | None = None, quad: QuadResult | None = None,
                 series: LauricellaResult | None = None, prefactor: complex | None = None,
                 wall_clock_s: float = 0.0):
        self._init(case, passed, tolerance_used, reason, quad, series, prefactor, wall_clock_s)

    @property
    def lhs(self) -> complex:
        """The quadrature's value; nan on failure."""
        return complex("nan") if self.quad is None else self.quad.value

    @property
    def rhs(self) -> complex:
        """The prefactor times the Lauricella value; nan where the series
        was not summed."""
        return complex("nan") if self.series is None else self.prefactor * self.series.value

    @property
    def abs_err(self) -> float:
        """|lhs - rhs|; inf on failure."""
        return math.inf if self.quad is None else abs(self.lhs - self.rhs)

    @property
    def rel_err(self) -> float:
        """abs_err / |rhs|: 0 when lhs == rhs, inf when only rhs is 0 or on failure."""
        return math.inf if self.quad is None else _relative_error(self.lhs, self.rhs)

    @property
    def lhs_diag(self) -> dict:
        q = self.quad
        return {} if q is None else {
            "panels_used": q.panels_used, "cutoff_theta": q.cutoff_theta,
            "error_estimate": q.error_estimate, "converged": q.converged, "evaluations": q.evaluations,
            "stop_reason": q.stop_reason,
        }

    @property
    def rhs_diag(self) -> dict:
        s, pref = self.series, self.prefactor
        return {} if s is None else {
            "shells": s.shells, "terms": s.terms, "tail_estimate": s.tail_estimate,
            "prefactor": (pref.real, pref.imag),
        }


def _failed_report(case, tol, reason, elapsed) -> VerificationReport:
    return VerificationReport(case, False, tol, reason, wall_clock_s=elapsed)


def verify_case(
    case: IntegralCase,
    qctl: QuadControl = DEFAULT_QUAD,
    sctl: SeriesControl = DEFAULT_CONTROL,
    tol: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Evaluate both sides of the case's identity independently and compare.

    The left side runs the kernel quadrature with the Struve product
    folded into g (lambda_eff stays the case's lambda); the right side is
    the prefactor times the Lauricella series.  The case passes when the
    quadrature converged and rel_err = |lhs - rhs| / |rhs| is at most
    tol, with rel_err 0 when lhs == rhs and inf when only rhs is 0.
    Evaluation failures are recorded in the report (passed = False with a
    reason, and a right side summed before the left side raised), not raised; a tolerance outside (0, inf) raises DomainError.
    """
    tol = _checked_tolerance(tol)
    start = time.perf_counter()
    series = pref = None
    try:
        g = _struve_product(case, sctl)
        pref = _prefactor(case)
        spec, z = _rhs_spec(case)
        series = lauricella_eval_full(spec, z, sctl)
        quad = integrate_kernel(g, case.a, case.mu, case.lam, qctl)
    except StruveintError as exc:
        # What was evaluated before the failure, a whole right side
        # included, stays in the report.
        return VerificationReport(case, False, tol, str(exc), None, series, pref, time.perf_counter() - start)

    rel_err = _relative_error(quad.value, pref * series.value)
    if not quad.converged:
        reason = "quadrature tolerance not met"
    elif not rel_err <= tol:
        reason = f"relative error {rel_err:.3e} exceeds tolerance {tol:.1e}"
    else:
        reason = None
    return VerificationReport(
        case, reason is None, tol, reason, quad, series, pref, time.perf_counter() - start
    )
