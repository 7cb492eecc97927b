"""Semi-infinite quadrature for integrands of the shape

    x^(mu-1) (x + a + sqrt(x^2 + 2ax))^(-lambda) g(x),   x in (0, inf).

The substitution x = a (cosh t - 1) rationalizes the square root exactly:
the kernel becomes a e^t and the integral turns into

    a^(mu-lambda) * int_0^inf (cosh t - 1)^(mu-1) sinh(t) e^(-lambda t) g(x(t)) dt,

an exponentially-decaying tail plus an algebraic endpoint factor
t^(2 Re(mu) - 2) near t = 0.  Panels use the 15-point Gauss-Kronrod
rule, whose embedded 7-point Gauss rule gives the error estimate
|K15 - G7| at no extra integrand evaluations; the nodes are computed at
import by Laurie's algorithm (Math. Comp. 66, 1997) and Golub-Welsch.
The eight pilot panels that size the tail become the first panels of
the layout.  The leftmost panel is bisected geometrically toward 0
while a closed-form bound on the remaining head mass exceeds its
tolerance share, and the tail is cut where an exponential envelope
certifies the remainder.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, RangeError
from .gammafn import log_gamma
from .summation import KahanSum

_EXP_LIMIT = math.log(1.7976931348623157e308)


def _jacobi_rule(beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Golub-Welsch: nodes and weights from the recurrence coefficients
    beta_0..beta_{m-1} of a symmetric weight (every alpha_k is zero)."""
    off = np.sqrt(beta[1:])
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    weights = beta[0] * vectors[0] ** 2
    # Symmetrize away the eigensolver's last-bit asymmetry.
    return 0.5 * (nodes - nodes[::-1]), 0.5 * (weights + weights[::-1])


def _legendre_beta(count: int) -> np.ndarray:
    """Monic Legendre recurrence: beta_0 = 2, beta_k = k^2 / (4k^2 - 1)."""
    k = np.arange(1.0, count)
    return np.concatenate(([2.0], k * k / (4.0 * k * k - 1.0)))


def _kronrod_beta(n: int) -> np.ndarray:
    """Laurie's algorithm for the Jacobi-Kronrod matrix of the Legendre
    weight, extending n Gauss points to a (2n+1)-point Kronrod rule.

    For a symmetric weight every alpha is zero, so only the beta half of
    the recurrence survives.
    """
    b = np.zeros(2 * n + 1)
    known = math.ceil(1.5 * n) + 1
    b[:known] = _legendre_beta(known)
    s = np.zeros(n // 2 + 2)
    t = np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(b[k + n + 1] * s[k] - b[m - k] * s[k + 1])
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        j = n - 1 - m + k
        s[j + 1] = np.cumsum(b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1])
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s, t = t, s
    return b


_GAUSS_POINTS = 7
_KRONROD = tuple(
    (float(x), float(w)) for x, w in zip(*_jacobi_rule(_kronrod_beta(_GAUSS_POINTS)))
)
# Weights of the embedded Gauss rule, whose nodes are the odd-indexed
# Kronrod nodes.
_GAUSS_WEIGHTS = tuple(map(float, _jacobi_rule(_legendre_beta(_GAUSS_POINTS))[1]))


@dataclass(frozen=True)
class TailPolicy:
    """Automatic tail truncation driven by the decay-rate estimate
    Re(lambda_eff) - Re(mu) of the substituted integrand."""

    safety: float = 10.0
    theta_cap: float = 200.0
    min_rate: float = 1e-6


@dataclass(frozen=True)
class QuadControl:
    rel_tol: float = 1e-11
    abs_tol: float = 1e-15
    max_panels: int = 2000
    theta_cutoff_policy: TailPolicy = field(default_factory=TailPolicy)

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
        lt = (self.mu - 1.0) * math.log(w) + _log_sinh(t) - self.lam * t
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
    return g_max * env * _cosh_m1(h) ** re_mu / re_mu


def _tail_coefficient(intg: _Integrand, theta_c: float, cap: float) -> float:
    """Envelope coefficient kappa * max|g|: the remainder beyond theta_c
    is bounded by coeff * exp(-rate * theta_c) / rate."""
    re_mu = intg.mu.real
    e = math.exp(-theta_c)
    kappa = 2.0**-re_mu * max(1.0, (1.0 - e) ** (2.0 * re_mu - 1.0)) * (1.0 + e)
    g_max = 0.0
    for dt in (0.0, 1.0, 3.0, 7.0, 15.0):
        t = min(theta_c + dt, cap)
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
    """
    a = float(a)
    if not (a > 0 and math.isfinite(a)):
        raise DomainError(f"a must be a positive real, got {a!r}")
    mu = complex(mu)
    lam = complex(lambda_eff)
    pol = ctl.theta_cutoff_policy
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
    if rate < pol.min_rate:
        # Only an identically-small g can rescue the tail; probe it.
        probe = max(abs(intg.g_at(t)) for t in (1.0, 5.0, 20.0, min(80.0, pol.theta_cap)))
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
        theta_pilot = min(pol.theta_cap, 3.0 + 20.0 / max(rate, 0.25))
        step = theta_pilot / 8.0
        pilot = [panel(i * step, (i + 1) * step) for i in range(8)]
        pilot_value = sum(rec[2] for rec in pilot)
        tail_target = max(ctl.abs_tol / abs_scale, ctl.rel_tol * abs(pilot_value)) / pol.safety

        # Walk the cutoff outward until the envelope bound (with |g|
        # re-sampled beyond each candidate) certifies the remainder.
        theta_max = 4.0
        while True:
            coeff = _tail_coefficient(intg, theta_max, pol.theta_cap)
            tail_bound = coeff * math.exp(-rate * theta_max) / rate
            if tail_bound <= tail_target or theta_max >= pol.theta_cap:
                break
            theta_max = min(pol.theta_cap, 1.3 * theta_max)

    # Initial panel layout: the reused pilot panels, else a short leftmost
    # panel when the endpoint factor is singular; panels of length <= 2
    # out to the cutoff.
    layout = [rec for rec in pilot if rec[1] <= theta_max]
    if layout:
        cuts = [layout[-1][1]]
    else:
        cuts = [0.0]
        if mu.real < 1.0:
            cuts.append(min(1.0, theta_max / 8.0))
    start = cuts[-1]
    pieces = math.ceil((theta_max - start) / 2.0)
    width = (theta_max - start) / max(pieces, 1)
    cuts.extend(start + width * (i + 1) for i in range(pieces))
    layout.extend(panel(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]))

    panels: dict[int, tuple[float, float, complex, float]] = {}
    heap: list[tuple[float, int]] = []
    next_id = 0

    def keep(rec: tuple[float, float, complex, float]):
        nonlocal next_id
        panels[next_id] = rec
        heapq.heappush(heap, (-rec[3], next_id))
        next_id += 1

    for rec in layout:
        keep(rec)

    head_magnitudes: list[float] = []
    converged = True
    while True:
        value_est = sum(v for _, _, v, _ in panels.values())
        err_total = sum(e for _, _, _, e in panels.values()) + tail_bound
        target = max(ctl.abs_tol / abs_scale, ctl.rel_tol * abs(value_est))
        if err_total <= target:
            break
        if len(panels) >= ctl.max_panels or not heap:
            converged = False
            break
        _, pid = heapq.heappop(heap)
        if pid not in panels:
            continue
        lo, hi, value, _ = panels.pop(pid)
        if lo == 0.0:
            head_magnitudes.append(abs(value))
            if len(head_magnitudes) >= 8 and all(
                head_magnitudes[i] < head_magnitudes[i + 1] for i in range(-7, -1)
            ):
                raise DomainError(
                    "non-integrable endpoint: head contributions diverge under refinement"
                )
        mid_point = 0.5 * (lo + hi)
        keep(panel(lo, mid_point))
        keep(panel(mid_point, hi))

    ordered = sorted(panels.values(), key=lambda rec: rec[0])
    acc = KahanSum()
    for _, _, v, _ in ordered:
        acc.add(v)
    raw = acc.value
    err_total = sum(e for _, _, _, e in ordered) + tail_bound
    value = scale * raw
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise RangeError("integral value is non-finite")
    return QuadResult(
        value=value,
        error_estimate=abs_scale * err_total,
        panels_used=len(ordered),
        cutoff_theta=theta_max,
        converged=converged and err_total <= max(ctl.abs_tol / abs_scale, ctl.rel_tol * abs(raw)),
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
