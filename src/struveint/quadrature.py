"""Semi-infinite quadrature for integrands of the shape

    x^(mu-1) (x + a + sqrt(x^2 + 2ax))^(-lambda) g(x),   x in (0, inf).

The substitution x = a (cosh t - 1) rationalizes the square root exactly:
the kernel becomes a e^t and the integral turns into

    a^(mu-lambda) * int_0^inf (cosh t - 1)^(mu-1) sinh(t) e^(-lambda t) g(x(t)) dt,

an exponentially-decaying tail plus an algebraic endpoint factor
t^(2 Re(mu) - 1) near t = 0.  Panels use the 15-point Gauss-Kronrod
rule, whose embedded 7-point Gauss rule gives the error estimate
|K15 - G7| at no extra integrand evaluations.  Nodes and weights are
the published table of QUADPACK's QK15 (R. Piessens, E. de
Doncker-Kapenga, C. W. Ueberhuber, D. K. Kahaner, QUADPACK, Springer
1983), written to 33 digits so that each rounds to the nearest double;
a test solves the rule at 40 digits and checks every tabulated double.
A panel takes its 15 nodes in one loop: each node's kernel weight, its
exponent formed as real and imaginary floats (math.exp where it is real
and cmath.exp rounds alike), then, unless the weight underflowed to 0,
one call of g, the node's Kronrod term and, at the 7 Gauss nodes, its
Gauss term.  Every panel, the leftmost included, is judged by |K15 - G7|
alone, as in QUADPACK's adaptive rules, and the tail is cut where an
exponential envelope bounds the remainder.

The endpoint factor is unbounded for 0 < Re(mu) < 1/2 and not smooth
wherever 2 Re(mu) is not an integer.  There every leftmost panel [0, h]
is taken in v in [0, 1] with t = h v^m, m = ceil(4 Re(mu))/(2 Re(mu)):
t^(2 Re(mu) - 1) dt becomes m h^(2 Re(mu)) v^(ceil(4 Re(mu)) - 1) dv,
an integer power of v, and m >= 2 keeps the analytic rest twice
differentiable at v = 0 (P. J. Davis and P. Rabinowitz, Methods of
Numerical Integration, 2nd ed., 1984).  For Re(mu) <= 1/4 this is
m = 1/(2 Re(mu)); for integer 2 Re(mu) no grade is needed.

Refinement runs in rounds over one list of panels kept in theta order,
from 8 equal panels on [0, 4].  Each round takes the exactly rounded
panel sum (``series.fsum_complex``) once.  While the tail bound exceeds
a _TAIL_SAFETY-th of the target, the round moves the cutoff out to where
the envelope, at its present coefficient, falls to that share, and the
new stretch is one panel: the tail is one more error term.  Otherwise the round stops when the errors
plus the tail bound meet the target, or it bisects the fewest worst
panels whose errors cover the excess, worst first and no more than the
panel cap leaves room for.  The last round's sums are the result.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, RangeError
from .gammafn import _EXP_LIMIT, _MATH_EXP_LIMIT, exp_checked, log_gamma
from .record import Record, _set
from .series import fsum_complex


# QK15 (see the module docstring): the Kronrod (node, weight) pairs for
# x >= 0, outermost first, and the weights of the embedded Gauss rule,
# whose nodes are the 2nd, 4th, 6th and 8th of these.
_QK15 = (
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970),
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238),
    (0.586087235467691130294144838258730, 0.169004726639267902826583426598550),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649),
    (0.000000000000000000000000000000000, 0.209482141084727828012999174891714),
)
_QK15_GAUSS = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_GAUSS_POINTS = 7
# Both rules over all of [-1, 1] in ascending node order; the embedded
# Gauss rule's nodes are the odd-indexed Kronrod nodes.  _panel runs on
# _RULE, their (node x, Kronrod weight, Gauss weight or 0.0, log v)
# tuples, v = (1 + x)/2 the node mapped onto [0, 1] for a graded panel.
_KRONROD = tuple((-x, w) for x, w in _QK15[:-1]) + _QK15[::-1]
_GAUSS_WEIGHTS = _QK15_GAUSS[:-1] + _QK15_GAUSS[::-1]
_RULE = tuple(
    (x, w, _GAUSS_WEIGHTS[i // 2] if i % 2 else 0.0, math.log(0.5 + 0.5 * x))
    for i, (x, w) in enumerate(_KRONROD)
)

# Tail truncation, driven by the decay rate Re(lambda_eff) - Re(mu) of the
# substituted integrand: the tail bound must be a _TAIL_SAFETY-th of the
# target, the cutoff stops at _THETA_CAP, and a rate below _MIN_RATE
# counts as no decay.
_TAIL_SAFETY = 10.0
_THETA_CAP = 200.0
_MIN_RATE = 1e-6

# Refinement (bisecting or moving the cutoff) stops, unconverged, once
# the list holds this many panels.  The 8 starting panels are always
# evaluated, even at a cap of 1; a refinement that reaches the cap ends
# with exactly _MAX_PANELS panels.
_MAX_PANELS = 2000


class QuadControl(Record):
    """Relative tolerance of ``integrate_kernel``: a result is converged
    when its error estimate is at most rel_tol * |value|."""

    __slots__ = ("rel_tol",)

    def __init__(self, rel_tol: float = 1e-11):
        if isinstance(rel_tol, bool):
            raise DomainError(f"quadrature tolerance must be a number, got {rel_tol!r}")
        if not 0 < rel_tol < math.inf:
            raise DomainError("quadrature tolerance must be positive and finite")
        _set(self, "rel_tol", rel_tol)


DEFAULT_QUAD = QuadControl()


class QuadResult(Record):
    # evaluations: calls of g, counting the tail probes.
    __slots__ = ("value", "error_estimate", "panels_used", "cutoff_theta", "converged", "evaluations")

    def __init__(self, value: complex, error_estimate: float, panels_used: int, cutoff_theta: float,
                 converged: bool, evaluations: int):
        self._init(value, error_estimate, panels_used, cutoff_theta, converged, evaluations)


def _checked_a(a) -> float:
    a = float(a)
    if not (a > 0 and math.isfinite(a)):
        raise DomainError(f"a must be a positive real, got {a!r}")
    return a


def kernel_factor(x: float, a: float) -> float:
    """x + a + sqrt(x^2 + 2ax), the kernel base of every integrand."""
    square = x * (x + 2.0 * a)
    if square == math.inf:  # from x ~ 1.3e154 (a = 1)
        return x + a + math.sqrt(x) * math.sqrt(x + 2.0 * a)
    return x + a + math.sqrt(square)


def _cosh_m1(t: float) -> float:
    s = math.sinh(0.5 * t)
    return 2.0 * s * s


# Below this, cosh t - 1 = 2 sinh(t/2)^2 nears or reaches underflow (at
# t ~ 1e-154), so its log comes from sinh(t/2) instead, or, in a graded
# panel, from log t.
_TINY_COSH_M1 = 1e-300
_LOG_2 = math.log(2.0)


def _log_tiny_cosh_m1(t: float) -> float:
    return _LOG_2 + 2.0 * math.log(math.sinh(0.5 * t))


class _Integrand:
    """Substituted integrand without the overall a^(mu-lambda) factor."""

    def __init__(self, g, a: float, mu: complex, lam: complex):
        self.g = g
        self.a = a
        self.mu = mu
        self.lam = lam
        self.evaluations = 0

    def g_at(self, t: float) -> complex:
        """g at x = a (cosh t - 1)."""
        self.evaluations += 1
        return complex(self.g(self.a * _cosh_m1(t)))


def _panel(intg: _Integrand, lo: float, hi: float, grade: float = 0.0) -> tuple[float, float, complex, float]:
    """(lo, hi, 15-point Kronrod value, |K15 - G7|) of one panel; a node
    whose kernel weight underflows to 0 adds nothing and calls no g.

    A grade m > 1 takes a leftmost panel (lo = 0) in v in [0, 1] at the
    nodes t = hi v^m, log t = log hi + m log v (t may underflow, its log
    does not), each exponent plus the log Jacobian log(m hi) + (m-1) log v."""
    graded = grade and lo == 0.0
    if graded:
        half = 0.5
        log_hi, log_jac, grade_m1 = math.log(hi), math.log(grade * hi), grade - 1.0
    else:
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
    g, a = intg.g, intg.a
    mu_re, mu_im = intg.mu.real - 1.0, intg.mu.imag
    lam_re, lam_im = intg.lam.real, intg.lam.imag
    log, log1p, exp, cexp, sinh = math.log, math.log1p, math.exp, cmath.exp, math.sinh
    isfinite = cmath.isfinite
    kronrod = gauss = 0j
    calls = 0
    for xi, wk, wg, log_v in _RULE:
        if graded:
            log_t = log_hi + grade * log_v
            t = exp(log_t)
        else:
            t = mid + half * xi
        s = sinh(0.5 * t)  # w = _cosh_m1(t), inline
        w = 2.0 * s * s
        if w >= _TINY_COSH_M1:
            log_w = log(w)
        elif graded:
            # sinh(t/2) rounds to t/2 this far down.  x = a w is near or
            # past underflow, and g, defined for x > 0, takes x = 1e-300 a.
            log_w = 2.0 * log_t - _LOG_2
            w = _TINY_COSH_M1
        else:
            log_w = _log_tiny_cosh_m1(t)
        if t < 1e-3:
            log_sinh = (log_t if graded else log(t)) + log1p(t * t / 6.0)
        else:
            log_sinh = t + log1p(-exp(-2.0 * t)) - _LOG_2
        re = mu_re * log_w + log_sinh - lam_re * t
        if graded:
            re += log_jac + grade_m1 * log_v
        im = mu_im * log_w - lam_im * t
        if re > _EXP_LIMIT:
            raise RangeError("substituted integrand overflows")
        if im:
            kern = cexp(complex(re, im))
        else:  # math.exp has cmath.exp's bits up to _MATH_EXP_LIMIT
            kern = exp(re) if re <= _MATH_EXP_LIMIT else cexp(re)
        if kern == 0:
            continue
        calls += 1
        val = kern * complex(g(a * w))
        if not isfinite(val):
            raise RangeError(f"integrand non-finite at theta = {t:.6g}")
        kronrod += wk * val
        if wg:
            gauss += wg * val
    intg.evaluations += calls
    kronrod *= half
    return lo, hi, kronrod, abs(kronrod - half * gauss)


def _tail_coefficient(intg: _Integrand, theta_c: float) -> float:
    """Envelope coefficient kappa * max|g|: the remainder beyond theta_c
    is bounded by coeff * exp(-rate * theta_c) / rate."""
    re_mu = intg.mu.real
    e = math.exp(-theta_c)
    kappa = 2.0**-re_mu * max(1.0, (1.0 - e) ** (2.0 * re_mu - 1.0)) * (1.0 + e)
    g_max = 0.0
    for dt in (0.0, 1.0, 3.0, 7.0, 15.0):
        t = min(theta_c + dt, _THETA_CAP)
        g_max = max(g_max, abs(intg.g_at(t)))
    return kappa * 2.0 * g_max


def integrate_kernel(g, a, mu, lambda_eff, ctl: QuadControl = DEFAULT_QUAD) -> QuadResult:
    """Integrate x^(mu-1) (x+a+sqrt(x^2+2ax))^(-lambda_eff) g(x) over (0, inf).

    ``g`` maps a positive real x to a complex value and must be bounded on
    compacts; integrability at 0 (x^(mu-1) against g's small-x order) is
    the caller's responsibility.  Returns the best estimate flagged
    unconverged when the panel budget runs out before tolerance is met;
    raises DomainError when the endpoint is detected as non-integrable or
    the tail has no certifiable decay.

    The tail cutoff moves with the tolerance, for every mu.  Unless
    2 Re(mu) is an integer, the leftmost panels are graded by
    m = ceil(4 Re(mu))/(2 Re(mu)) (see the module docstring).  At small
    Re(mu) a complex mu gains little: t^(2i Im(mu)) still oscillates in
    log t.  The grade follows x^(mu-1) alone; a g that also vanishes at 0
    is graded more than it needs.

    A g that oscillates in x at large x is not resolved: in theta its
    period shrinks like e^(-theta), so refinement runs to the panel cap
    unconverged (``g = cos(3x)``, a = 1, mu = 0.9, lambda_eff = 2 ends
    at 2000 panels).  The paper's integrands are unaffected: their Struve
    arguments, y or x y over x + a + sqrt(x^2 + 2ax), tend to 0 or y/2.
    """
    a = _checked_a(a)
    mu = complex(mu)
    lam = complex(lambda_eff)
    intg = _Integrand(g, a, mu, lam)
    scale = cmath.exp((mu - lam) * math.log(a))
    # Grade the leftmost panels where t^(2 Re(mu) - 1) is not a polynomial
    # (a finite 2 Re(mu) that is not an integer is below 2^52).
    two_mu = 2.0 * mu.real
    graded = 0.0 < two_mu < math.inf and not two_mu.is_integer()
    grade = math.ceil(2.0 * two_mu) / two_mu if graded else 0.0

    rate = lam.real - mu.real
    if rate < _MIN_RATE:
        # Only an identically-small g can rescue the tail; probe it.
        probe = max(abs(intg.g_at(t)) for t in (1.0, 5.0, 20.0, 80.0))
        if probe > 0:
            raise DomainError(
                "tail not certifiable: Re(lambda_eff) - Re(mu) = "
                f"{rate:.3g} is not positive"
            )
        theta, tail_bound = 10.0, 0.0
    else:
        theta = 4.0
        tail_bound = _tail_coefficient(intg, theta) * math.exp(-rate * theta) / rate
    panels = [_panel(intg, theta * i / 8.0, theta * (i + 1) / 8.0, grade) for i in range(8)]

    # Refine in rounds (see the module docstring); panels stay in theta order.
    head_magnitudes: list[float] = []
    while True:
        raw = fsum_complex([rec[2] for rec in panels])
        target = ctl.rel_tol * abs(raw)
        room = _MAX_PANELS - len(panels)
        if room > 0 and theta < _THETA_CAP and _TAIL_SAFETY * tail_bound > target:
            # Move the cutoff to where the envelope should be a
            # _TAIL_SAFETY-th of the target, by 1 at least (doubling it
            # for a zero target); the stretch is one new panel.
            if target:
                step = max(math.log(_TAIL_SAFETY * tail_bound / target) / rate, 1.0)
            else:
                step = theta
            hi = min(theta + step, _THETA_CAP)
            panels.append(_panel(intg, theta, hi))
            theta = hi
            tail_bound = _tail_coefficient(intg, theta) * math.exp(-rate * theta) / rate
            continue
        errs = [rec[3] for rec in panels]
        err_total = sum(errs) + tail_bound
        converged = err_total <= target
        if converged or room <= 0:
            break
        excess = err_total - target
        split = []
        for i in sorted(range(len(panels)), key=errs.__getitem__, reverse=True)[:room]:
            split.append(i)
            excess -= errs[i]
            if excess <= 0:
                break
        refined = []
        kept_from = 0
        for i in sorted(split):
            lo, hi, value, _ = panels[i]
            if lo == 0.0:
                head_magnitudes.append(abs(value))
                if len(head_magnitudes) >= 8 and all(
                    head_magnitudes[i] < head_magnitudes[i + 1] for i in range(-7, -1)
                ):
                    raise DomainError(
                        "non-integrable endpoint: head contributions diverge under refinement"
                    )
            mid_point = 0.5 * (lo + hi)
            refined += panels[kept_from:i]
            refined += (_panel(intg, lo, mid_point, grade), _panel(intg, mid_point, hi))
            kept_from = i + 1
        panels = refined + panels[kept_from:]

    value = scale * raw
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise RangeError("integral value is non-finite")
    return QuadResult(
        value=value,
        error_estimate=abs(scale) * err_total,
        panels_used=len(panels),
        cutoff_theta=theta,
        converged=converged,
        evaluations=intg.evaluations,
    )


def oberhettinger_closed_form(a, mu, lam) -> complex:
    """2 lam a^(-lam) (a/2)^mu Gamma(2 mu) Gamma(lam - mu) / Gamma(1 + lam + mu).

    Requires a > 0 and 0 < Re(mu) < Re(lam).
    """
    a = _checked_a(a)
    mu = complex(mu)
    lam = complex(lam)
    if not mu.real > 0:
        raise DomainError("condition violated: 0 < Re(mu)")
    if not mu.real < lam.real:
        raise DomainError("condition violated: Re(mu) < Re(lambda)")
    log_val = (
        cmath.log(2.0 * lam)
        - lam * math.log(a)
        + mu * math.log(0.5 * a)
        + log_gamma(2.0 * mu)
        + log_gamma(lam - mu)
        - log_gamma(1.0 + lam + mu)
    )
    return exp_checked(log_val, "closed form")
