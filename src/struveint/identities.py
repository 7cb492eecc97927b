"""Builders and verifiers for the two integral identities and their
single-factor corollaries.

Each identity equates a semi-infinite integral of a product of
generalized Struve factors against an Oberhettinger-type kernel (the
left side, evaluated here by adaptive quadrature) with a gamma/power
prefactor times a generalized Lauricella series (the right side,
evaluated by simplex-shell summation).  The two sides share no code
path beyond the gamma kernel, which is the point: agreement certifies
the order-interchange the identities rest on.

Variant "theorem1" feeds each Struve factor the bounded argument
y_j / (x + a + sqrt(x^2 + 2ax)); variant "theorem2" uses
x y_j / (x + a + sqrt(x^2 + 2ax)), which tends to y_j / 2 at infinity.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field

from .errors import DomainError, StruveintError
from .gammafn import _EXP_LIMIT, log_gamma
from .lauricella import LauricellaSpec, lauricella_eval_full
from .quadrature import DEFAULT_QUAD, QuadControl, integrate_kernel, kernel_factor
from .series import (
    DEFAULT_CONTROL,
    FoxWrightSpec,
    SeriesControl,
    StruveParams,
    fox_wright,
    pfq,
    struve_w,
)

THEOREM1 = "theorem1"
THEOREM2 = "theorem2"
VARIANTS = (THEOREM1, THEOREM2)

_LOG_GAMMA_3_2 = math.lgamma(1.5)

# Below this |rhs| magnitude the relative error is meaningless and the
# comparison switches to an absolute one at the same floor.
REL_ERR_FLOOR = 1e-12

DEFAULT_TOLERANCE = 1e-6


def _checked_tolerance(tol) -> float:
    """The verification tolerance as a float; DomainError unless 0 < tol < inf."""
    tol = float(tol)
    if not 0 < tol < math.inf:
        raise DomainError(f"verification tolerance must be positive and finite, got {tol!r}")
    return tol


@dataclass(frozen=True)
class IntegralCase:
    """One instance of either integral identity.

    ``p`` and ``y`` are the per-factor Struve orders and scale points;
    ``n`` may be omitted (0) to be derived from their length.  The
    variant's displayed validity conditions are enforced on construction,
    with the violated inequality named in the error.
    """

    variant: str
    a: float
    lam: complex
    mu: complex
    b: complex
    c: complex
    p: tuple
    y: tuple
    n: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DomainError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        p = tuple(complex(v) for v in self.p)
        y = tuple(float(v) for v in self.y)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "y", y)
        n = self.n or len(p)
        object.__setattr__(self, "n", n)
        if n < 1 or len(p) != n or len(y) != n:
            raise DomainError(f"p and y must both have length n = {n}")
        a = float(self.a)
        object.__setattr__(self, "a", a)
        if not (a > 0 and math.isfinite(a)):
            raise DomainError("condition violated: a > 0")
        if any(not (v > 0 and math.isfinite(v)) for v in y):
            raise DomainError("condition violated: y_j > 0")
        for name in ("lam", "mu", "b", "c"):
            object.__setattr__(self, name, complex(getattr(self, name)))
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
            if not (2 * self.mu + 2 * ps + 2 * n).real > 0:
                # Equivalent to the first inequality; named separately so a
                # report can say which gamma argument went bad.
                raise DomainError("condition violated: Re(2 mu + 2 p_sum + 2 n) > 0")

    @property
    def p_sum(self) -> complex:
        return sum(self.p, 0j)

    def struve_params(self) -> tuple[StruveParams, ...]:
        return tuple(StruveParams(pj, self.b, self.c) for pj in self.p)


def _common_factor_logs(case: IntegralCase) -> complex:
    """Sum of (p_j+1) log y_j - log Gamma(p_j + (b+2)/2) over the factors."""
    total = 0j
    for pj, yj in zip(case.p, case.y):
        total += (pj + 1) * math.log(yj) - log_gamma(pj + (case.b + 2) / 2)
    return total


def _exp_checked(log_val: complex, what: str) -> complex:
    if log_val.real > _EXP_LIMIT:
        raise DomainError(f"{what} overflows double precision")
    return cmath.exp(log_val)


def prefactor_theorem1(case: IntegralCase) -> complex:
    """Coefficient multiplying the fixed-argument identity's series:

    (lam+P+n) 2^(1-mu-P-n) a^(mu-lam-P-n) G(2mu) G(lam+P+n-mu)
    prod y_j^(p_j+1) / (G(3/2)^n G(1+lam+P+n+mu) prod G(p_j+(b+2)/2)),

    with P the sum of the orders p_j.
    """
    if case.variant != THEOREM1:
        raise DomainError("prefactor_theorem1 requires a theorem1 case")
    s = case.lam + case.p_sum + case.n
    log_val = (
        (1 - case.mu - case.p_sum - case.n) * math.log(2.0)
        + (case.mu - s) * math.log(case.a)
        + log_gamma(2 * case.mu)
        + log_gamma(s - case.mu)
        - case.n * _LOG_GAMMA_3_2
        - log_gamma(1 + s + case.mu)
        + _common_factor_logs(case)
    )
    return s * _exp_checked(log_val, "prefactor")


def prefactor_theorem2(case: IntegralCase) -> complex:
    """Coefficient for the scaled-argument identity:

    (lam+P+n) 2^(1-mu-2P-2n) a^(mu-lam) G(lam-mu) G(2mu+2P+2n)
    prod y_j^(p_j+1) / (G(3/2)^n G(1+lam+mu+2P+2n) prod G(p_j+(b+2)/2)).
    """
    if case.variant != THEOREM2:
        raise DomainError("prefactor_theorem2 requires a theorem2 case")
    s = case.lam + case.p_sum + case.n
    t = 2 * case.mu + 2 * case.p_sum + 2 * case.n
    log_val = (
        (1 - case.mu - 2 * case.p_sum - 2 * case.n) * math.log(2.0)
        + (case.mu - case.lam) * math.log(case.a)
        + log_gamma(case.lam - case.mu)
        + log_gamma(t)
        - case.n * _LOG_GAMMA_3_2
        - log_gamma(1 + case.lam + case.mu + 2 * case.p_sum + 2 * case.n)
        + _common_factor_logs(case)
    )
    return s * _exp_checked(log_val, "prefactor")


def _per_variable_blocks(case: IntegralCase):
    upper = tuple(((1.0 + 0j, 1.0),) for _ in range(case.n))
    lower = tuple(
        ((1.5 + 0j, 1.0), (pj + (case.b + 2) / 2, 1.0)) for pj in case.p
    )
    return upper, lower


def rhs_spec_theorem1(case: IntegralCase) -> tuple[LauricellaSpec, tuple]:
    """Lauricella spec and argument vector -c y_m^2 / (4 a^2)."""
    if case.variant != THEOREM1:
        raise DomainError("rhs_spec_theorem1 requires a theorem1 case")
    s = case.lam + case.p_sum + case.n
    twos = (2.0,) * case.n
    per_upper, per_lower = _per_variable_blocks(case)
    spec = LauricellaSpec(
        global_upper=((1 + s, twos), (s - case.mu, twos)),
        global_lower=((s, twos), (1 + s + case.mu, twos)),
        per_var_upper=per_upper,
        per_var_lower=per_lower,
        n=case.n,
    )
    z = tuple(-case.c * yj * yj / (4.0 * case.a * case.a) for yj in case.y)
    return spec, z


def rhs_spec_theorem2(case: IntegralCase) -> tuple[LauricellaSpec, tuple]:
    """Lauricella spec and argument vector -c y_m^2 / 16."""
    if case.variant != THEOREM2:
        raise DomainError("rhs_spec_theorem2 requires a theorem2 case")
    s = case.lam + case.p_sum + case.n
    t = 2 * case.mu + 2 * case.p_sum + 2 * case.n
    twos = (2.0,) * case.n
    fours = (4.0,) * case.n
    per_upper, per_lower = _per_variable_blocks(case)
    spec = LauricellaSpec(
        global_upper=((t, fours), (1 + s, twos)),
        global_lower=((1 + case.lam + case.mu + 2 * case.p_sum + 2 * case.n, fours), (s, twos)),
        per_var_upper=per_upper,
        per_var_lower=per_lower,
        n=case.n,
    )
    z = tuple(-case.c * yj * yj / 16.0 for yj in case.y)
    return spec, z


def _corollary1_value(case: IntegralCase, lower_gamma: complex, z: complex,
                      ctl: SeriesControl) -> complex:
    """Shared printed form of the first/third corollaries: prefactor x 4F5."""
    p = case.p[0]
    y = case.y[0]
    half = (case.lam + p) / 2
    log_pref = (
        (-case.mu - p) * math.log(2.0)
        + (case.mu - 1 - case.lam - p) * math.log(case.a)
        + (p + 1) * math.log(y)
        + log_gamma(2 * case.mu)
        + log_gamma(1 + case.lam + p - case.mu)
        - _LOG_GAMMA_3_2
        - log_gamma(2 + case.lam + p + case.mu)
        - log_gamma(lower_gamma)
    )
    pref = (1 + case.lam + p) * _exp_checked(log_pref, "prefactor")
    upper = (1.5 + half, 0.5 + half - case.mu / 2, 1 + half - case.mu / 2, 1.0)
    lower = (0.5 + half, 1 + half + case.mu / 2, 1.5 + half + case.mu / 2, lower_gamma, 1.5)
    return pref * pfq(upper, lower, z, ctl)


def _corollary2_value(case: IntegralCase, second_lower: complex, z: complex,
                      ctl: SeriesControl) -> complex:
    """Shared printed form of the second/fourth corollaries: prefactor x 3Psi4."""
    p = case.p[0]
    y = case.y[0]
    log_pref = (
        (-case.mu - 2 * p - 1) * math.log(2.0)
        + (case.mu - case.lam) * math.log(case.a)
        + (p + 1) * math.log(y)
        + log_gamma(case.lam - case.mu)
    )
    pref = _exp_checked(log_pref, "prefactor")
    spec = FoxWrightSpec(
        upper=((1.0, 1.0), (case.lam + p + 2, 2.0), (2 * case.mu + 2 * p + 2, 4.0)),
        lower=(
            (1.5, 1.0),
            (second_lower, 1.0),
            (case.lam + p + 1, 2.0),
            (case.lam + case.mu + 2 * p + 3, 4.0),
        ),
    )
    return pref * fox_wright(spec, z, ctl)


def rhs_corollary(case: IntegralCase, which: int, ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Right-hand side of one of the four printed single-factor corollaries.

    1: prefactor x 4F5 (fixed-argument identity at n = 1);
    2: prefactor x 3Psi4 (scaled-argument identity at n = 1);
    3, 4: the b = -1, c = 1 specializations of 1 and 2, with the leftover
    gamma evaluated at b = -1 (i.e. Gamma(p + 1/2)) and the arguments
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
    p = case.p[0]
    y = case.y[0]
    if which == 1:
        z = -case.c * y * y / (4.0 * case.a * case.a)
        return _corollary1_value(case, 1 + case.b / 2 + p, z, ctl)
    if which == 2:
        z = -case.c * y * y / 16.0
        return _corollary2_value(case, p + (case.b + 2) / 2, z, ctl)
    if which == 3:
        z = -y * y / (4.0 * case.a * case.a)
        return _corollary1_value(case, p + 0.5, z, ctl)
    z = -y * y / 16.0
    return _corollary2_value(case, p + 0.5, z, ctl)


def struve_arguments(case: IntegralCase, x: float) -> tuple[float, ...]:
    """Per-factor Struve arguments at the integration point x."""
    kern = kernel_factor(x, case.a)
    if case.variant == THEOREM1:
        return tuple(yj / kern for yj in case.y)
    return tuple(x * yj / kern for yj in case.y)


def lhs_integrand(case: IntegralCase, x: float, ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Full integrand x^(mu-1) kernel^(-lambda) prod_j W_{p_j,b,c}(u_j(x))."""
    x = float(x)
    if not x > 0:
        raise DomainError("x must be positive")
    kern = kernel_factor(x, case.a)
    value = cmath.exp((case.mu - 1) * math.log(x) - case.lam * math.log(kern))
    for params, u in zip(case.struve_params(), struve_arguments(case, x)):
        value *= struve_w(params, u, ctl)
    return value


@dataclass(frozen=True)
class VerificationReport:
    case: IntegralCase
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    passed: bool
    tolerance_used: float
    reason: str | None = None
    lhs_diag: dict = field(default_factory=dict)
    rhs_diag: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0


def _failed_report(case, tol, reason, elapsed) -> VerificationReport:
    return VerificationReport(
        case=case,
        lhs=complex("nan"),
        rhs=complex("nan"),
        abs_err=math.inf,
        rel_err=math.inf,
        passed=False,
        tolerance_used=tol,
        reason=reason,
        wall_clock_s=elapsed,
    )


def verify_case(
    case: IntegralCase,
    qctl: QuadControl = DEFAULT_QUAD,
    sctl: SeriesControl = DEFAULT_CONTROL,
    tol: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Evaluate both sides of the case's identity independently and compare.

    The left side runs the kernel quadrature with the Struve product
    folded into g (lambda_eff stays the case's lambda); the right side is
    the prefactor times the Lauricella series.  Evaluation failures are
    recorded in the report (passed = False with a reason), not raised;
    a tolerance outside (0, inf) raises DomainError.
    """
    tol = _checked_tolerance(tol)
    start = time.perf_counter()
    params = case.struve_params()

    def g(x: float) -> complex:
        prod = 1.0 + 0j
        for prm, u in zip(params, struve_arguments(case, x)):
            prod *= struve_w(prm, u, sctl)
        return prod

    try:
        if case.variant == THEOREM1:
            pref = prefactor_theorem1(case)
            spec, z = rhs_spec_theorem1(case)
        else:
            pref = prefactor_theorem2(case)
            spec, z = rhs_spec_theorem2(case)
        series = lauricella_eval_full(spec, z, sctl)
        rhs = pref * series.value
        quad = integrate_kernel(g, case.a, case.mu, case.lam, qctl)
        lhs = quad.value
    except StruveintError as exc:
        return _failed_report(case, tol, str(exc), time.perf_counter() - start)

    abs_err = abs(lhs - rhs)
    rel_err = abs_err / max(abs(rhs), REL_ERR_FLOOR)
    if abs(rhs) < REL_ERR_FLOOR:
        passed = abs_err <= REL_ERR_FLOOR
    else:
        passed = rel_err <= tol
    reason = None
    if not quad.converged:
        passed = False
        reason = "quadrature tolerance not met"
    elif not passed:
        reason = f"relative error {rel_err:.3e} exceeds tolerance {tol:.1e}"
    return VerificationReport(
        case=case,
        lhs=lhs,
        rhs=rhs,
        abs_err=abs_err,
        rel_err=rel_err,
        passed=passed,
        tolerance_used=tol,
        reason=reason,
        lhs_diag={
            "panels_used": quad.panels_used,
            "cutoff_theta": quad.cutoff_theta,
            "error_estimate": quad.error_estimate,
            "converged": quad.converged,
            "evaluations": quad.evaluations,
        },
        rhs_diag={
            "shells": series.shells,
            "terms": series.terms,
            "tail_estimate": series.tail_estimate,
            "prefactor": (pref.real, pref.imag),
        },
        wall_clock_s=time.perf_counter() - start,
    )
