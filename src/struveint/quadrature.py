"""Semi-infinite quadrature for integrands of the shape

    x^(mu-1) (x + a + sqrt(x^2 + 2ax))^(-lambda) g(x),   x in (0, inf).

The substitution x = a (cosh t - 1) rationalizes the square root exactly:
the kernel becomes a e^t and the integral turns into

    a^(mu-lambda) * int_0^inf (cosh t - 1)^(mu-1) sinh(t) e^(-lambda t) g(x(t)) dt,

an exponentially-decaying tail plus an algebraic endpoint factor
t^(2 Re(mu) - 2) near t = 0.  Panels use the 15-point Gauss-Kronrod
rule, whose embedded 7-point Gauss rule gives the error estimate
|K15 - G7| at no extra integrand evaluations.  Nodes and weights are
the published table of QUADPACK's QK15 (R. Piessens, E. de
Doncker-Kapenga, C. W. Ueberhuber, D. K. Kahaner, QUADPACK, Springer
1983), written to 33 digits so that each rounds to the nearest double;
a test solves the rule at 40 digits and checks every tabulated double.
The eight pilot panels that size the tail become the first panels of
the layout.  The leftmost panel is bisected geometrically toward 0
while a closed-form bound on the remaining head mass exceeds its
tolerance share, and the tail is cut where an exponential envelope
certifies the remainder.

Refinement runs in rounds over one list of panels kept in theta order.
Each round takes the compensated panel sum and the error sum once and
stops when the errors plus the tail bound meet the target; otherwise it
bisects the fewest worst panels whose errors cover the excess, worst
first and no more than the panel cap leaves room for.  The last round's
sums are the result.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, RangeError
from .gammafn import _EXP_LIMIT, log_gamma
from .summation import KahanSum


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
# Gauss rule's nodes are the odd-indexed Kronrod nodes.
_KRONROD = tuple((-x, w) for x, w in _QK15[:-1]) + _QK15[::-1]
_GAUSS_WEIGHTS = _QK15_GAUSS[:-1] + _QK15_GAUSS[::-1]

# Tail truncation, driven by the decay rate Re(lambda_eff) - Re(mu) of the
# substituted integrand: the tail bound must be a _TAIL_SAFETY-th of the
# target, the cutoff stops at _THETA_CAP, and a rate below _MIN_RATE
# counts as no decay.
_TAIL_SAFETY = 10.0
_THETA_CAP = 200.0
_MIN_RATE = 1e-6


@dataclass(frozen=True)
class QuadControl:
    """Tolerances and panel cap of ``integrate_kernel``.

    A result is converged when its error estimate is at most
    max(abs_tol, rel_tol * |value|).  ``max_panels`` caps refinement,
    not the initial layout: the layout is always evaluated in full (16
    panels for g = 1, a = 1, mu = 0.3, lambda = 1.1, even at
    max_panels = 1), and a refinement that reaches the cap ends with
    exactly max_panels panels, unconverged.
    """

    rel_tol: float = 1e-11
    abs_tol: float = 1e-15
    max_panels: int = 2000

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise DomainError("quadrature tolerances must be positive and finite")
        if self.max_panels < 1:
            raise DomainError("max_panels must be >= 1")


DEFAULT_QUAD = QuadControl()


@dataclass(frozen=True)
class QuadResult:
    value: complex
    error_estimate: float
    panels_used: int
    cutoff_theta: float
    converged: bool
    # Calls of g, counting the pilot panels and the head and tail probes.
    evaluations: int


def kernel_factor(x: float, a: float) -> float:
    """x + a + sqrt(x^2 + 2ax), the kernel base of every integrand."""
    return x + a + math.sqrt(x * (x + 2.0 * a))


def _log_sinh(t: float) -> float:
    if t < 1e-3:
        return math.log(t) + math.log1p(t * t / 6.0)
    return t + math.log1p(-math.exp(-2.0 * t)) - math.log(2.0)


def _cosh_m1(t: float) -> float:
    s = math.sinh(0.5 * t)
    return 2.0 * s * s


# Below this, cosh t - 1 = 2 sinh(t/2)^2 nears or reaches underflow (at
# t ~ 1e-154, where head bisection for small Re(mu) goes), so its log
# comes from sinh(t/2) instead.
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

    def _g(self, w: float) -> complex:
        """g at x = a w, where w = cosh t - 1."""
        self.evaluations += 1
        return complex(self.g(self.a * w))

    def g_at(self, t: float) -> complex:
        return self._g(_cosh_m1(t))

    def __call__(self, t: float) -> complex:
        w = _cosh_m1(t)
        log_w = math.log(w) if w >= _TINY_COSH_M1 else _log_tiny_cosh_m1(t)
        lt = (self.mu - 1.0) * log_w + _log_sinh(t) - self.lam * t
        if lt.real > _EXP_LIMIT:
            raise RangeError("substituted integrand overflows")
        kern = cmath.exp(lt)
        if kern == 0:
            return 0j
        val = kern * self._g(w)
        if not (math.isfinite(val.real) and math.isfinite(val.imag)):
            raise RangeError(f"integrand non-finite at theta = {t:.6g}")
        return val


def _panel(f, lo: float, hi: float) -> tuple[complex, complex]:
    """15-point Kronrod value and its embedded 7-point Gauss value."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    values = [f(mid + half * xi) for xi, _ in _KRONROD]
    kronrod = 0j
    for (_, wi), fi in zip(_KRONROD, values):
        kronrod += wi * fi
    gauss = 0j
    for wi, fi in zip(_GAUSS_WEIGHTS, values[1::2]):
        gauss += wi * fi
    return half * kronrod, half * gauss


def _head_bound(intg: _Integrand, h: float) -> float:
    """Certified bound on |int_0^h| of the substituted integrand, Re(mu) > 0.

    d/dt (cosh t - 1)^s = s (cosh t - 1)^(s-1) sinh t gives the closed
    form int_0^h (cosh t - 1)^(Re mu - 1) sinh t dt = (cosh h - 1)^Re(mu)/Re(mu).
    """
    re_mu = intg.mu.real
    if re_mu <= 0:
        return math.inf
    samples = [abs(intg.g_at(h * frac)) for frac in (0.25, 0.5, 0.75, 1.0)]
    g_max = 2.0 * max(samples)
    env = max(1.0, math.exp(-intg.lam.real * h))
    w = _cosh_m1(h)
    # w ** re_mu would be 0 once w underflows.
    head = w**re_mu if w >= _TINY_COSH_M1 else math.exp(re_mu * _log_tiny_cosh_m1(h))
    return g_max * env * head / re_mu


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

    A g that oscillates in x at large x is not resolved: in theta its
    period shrinks like e^(-theta), so refinement runs to the panel cap
    unconverged (``g = cos(3x)``, a = 1, mu = 0.9, lambda_eff = 2 ends
    at 2000 panels).  The paper's integrands are unaffected: their Struve
    arguments, y or x y over x + a + sqrt(x^2 + 2ax), tend to 0 or y/2.
    """
    a = float(a)
    if not (a > 0 and math.isfinite(a)):
        raise DomainError(f"a must be a positive real, got {a!r}")
    mu = complex(mu)
    lam = complex(lambda_eff)
    intg = _Integrand(g, a, mu, lam)
    scale = cmath.exp((mu - lam) * math.log(a))
    abs_scale = abs(scale)

    def panel(lo: float, hi: float) -> tuple[float, float, complex, float]:
        """(lo, hi, value, error estimate) of one panel."""
        value, gauss = _panel(intg, lo, hi)
        err = abs(value - gauss)
        if lo == 0.0:
            bound = _head_bound(intg, hi)
            if math.isfinite(bound):
                err = max(err, bound)
            else:
                # No certified bound (Re(mu) <= 0): lean on the panel
                # magnitude itself so refinement keeps pushing inward.
                err = max(err, abs(value))
        return lo, hi, value, err

    pilot = []
    rate = lam.real - mu.real
    if rate < _MIN_RATE:
        # Only an identically-small g can rescue the tail; probe it.
        probe = max(abs(intg.g_at(t)) for t in (1.0, 5.0, 20.0, 80.0))
        if probe > 0:
            raise DomainError(
                "tail not certifiable: Re(lambda_eff) - Re(mu) = "
                f"{rate:.3g} is not positive"
            )
        theta_max = 10.0
        tail_bound = 0.0
    else:
        # Pilot pass: sets the magnitude scale, and its panels inside
        # the cutoff start the layout below.
        theta_pilot = 3.0 + 20.0 / max(rate, 0.25)
        step = theta_pilot / 8.0
        pilot = [panel(i * step, (i + 1) * step) for i in range(8)]
        pilot_value = sum(rec[2] for rec in pilot)
        tail_target = max(ctl.abs_tol / abs_scale, ctl.rel_tol * abs(pilot_value)) / _TAIL_SAFETY

        # Walk the cutoff outward until the envelope bound (with |g|
        # re-sampled beyond each candidate) certifies the remainder.
        theta_max = 4.0
        while True:
            coeff = _tail_coefficient(intg, theta_max)
            tail_bound = coeff * math.exp(-rate * theta_max) / rate
            if tail_bound <= tail_target or theta_max >= _THETA_CAP:
                break
            theta_max = min(_THETA_CAP, 1.3 * theta_max)

    # Initial panel layout: the reused pilot panels, else a short leftmost
    # panel when the endpoint factor is singular; panels of length <= 2
    # out to the cutoff.
    panels = [rec for rec in pilot if rec[1] <= theta_max]
    if panels:
        cuts = [panels[-1][1]]
    else:
        cuts = [0.0]
        if mu.real < 1.0:
            cuts.append(min(1.0, theta_max / 8.0))
    start = cuts[-1]
    pieces = math.ceil((theta_max - start) / 2.0)
    width = (theta_max - start) / max(pieces, 1)
    cuts.extend(start + width * (i + 1) for i in range(pieces))
    panels.extend(panel(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]))

    # Refine in rounds (see the module docstring); panels stay in theta order.
    head_magnitudes: list[float] = []
    while True:
        acc = KahanSum()
        for rec in panels:
            acc.add(rec[2])
        raw = acc.value
        errs = [rec[3] for rec in panels]
        err_total = sum(errs) + tail_bound
        target = max(ctl.abs_tol / abs_scale, ctl.rel_tol * abs(raw))
        converged = err_total <= target
        room = ctl.max_panels - len(panels)
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
            refined += (panel(lo, mid_point), panel(mid_point, hi))
            kept_from = i + 1
        panels = refined + panels[kept_from:]

    value = scale * raw
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise RangeError("integral value is non-finite")
    return QuadResult(
        value=value,
        error_estimate=abs_scale * err_total,
        panels_used=len(panels),
        cutoff_theta=theta_max,
        converged=converged,
        evaluations=intg.evaluations,
    )


def oberhettinger_closed_form(a, mu, lam) -> complex:
    """2 lam a^(-lam) (a/2)^mu Gamma(2 mu) Gamma(lam - mu) / Gamma(1 + lam + mu).

    Requires a > 0 and 0 < Re(mu) < Re(lam).
    """
    a = float(a)
    if not (a > 0 and math.isfinite(a)):
        raise DomainError(f"a must be a positive real, got {a!r}")
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
    if log_val.real > _EXP_LIMIT:
        raise RangeError("closed form overflows double precision")
    return cmath.exp(log_val)
