"""Semi-infinite quadrature for integrands of the shape

    x^(mu-1) (x + a + sqrt(x^2 + 2ax))^(-lambda) g(x),   x in (0, inf).

The substitution x = a (cosh t - 1) rationalizes the square root exactly:
the kernel becomes a e^t and the integral turns into

    a^(mu-lambda) * int_0^inf (cosh t - 1)^(mu-1) sinh(t) e^(-lambda t) g(x(t)) dt,

an exponentially-decaying tail plus an algebraic endpoint factor
t^(2 mu - 1) near t = 0.

Every panel is one product-integration rule for u^(alpha - 1) phi(u) on
[0, h], which takes the weight exactly, complex alpha included: phi is
sampled at N = 20 first-kind Chebyshev points, which exclude u = 0, and
its interpolant is integrated against the weight through the modified
moments M_k = int_{-1}^{1} (1+x)^B T_k(x) dx, B = alpha - 1, from
M_0 = 2^(B+1)/(B+1), M_1 = M_0 B/(B+2) and the forward recurrence
(B+k+2) M_{k+1} = 2B M_k - (B+2-k) M_{k-1} (R. Piessens and
M. Branders, BIT 13 (1973) 443-450; QUADPACK's QAWS).  The moments are
kept as M_k/M_0 and the factor h^alpha/alpha goes into each node's
exponent, so a large alpha overflows nothing.  The error estimate is
2 (|c_{N-2}| + |c_{N-1}|) int_0^h |u^(alpha - 1)| du, c_k the
interpolant's Chebyshev coefficients, or QUADPACK's rounding floor
50 eps sum |w_j f_j| over the panel's nodes if that is larger: where
the last coefficients are rounding noise they say nothing of the sum's
own rounding.  Panels between the two ends take alpha = 1, weight 1, on
[lo, hi] in t.
A panel takes its nodes in two passes.  The geometry pass depends on
the panel alone: each node's t, w = cosh t - 1, log w, log sinh t and,
at an end, log u; the five starting panels' geometry is built at import.
The per-case pass forms each node's kernel exponent as real and
imaginary floats (math.exp where it is real and cmath.exp rounds alike;
the imaginary part only where mu, lambda or the end rule's power is
complex), then, unless the weight underflowed to 0, makes one call of g
and adds the node's terms.

The head: near t = 0 the substituted integrand is t^(2 mu - 1) times
phi(t) = ((cosh t - 1)/t^2)^(mu-1) (sinh t/t) e^(-lambda t) g(x(t)),
which is analytic wherever g is analytic at x = 0 (theorem1's g is).
For Re(mu) > 0 every leftmost panel [0, h] is the rule with u = t,
alpha = 2 mu.  Re(mu) <= 0 keeps a weight-1 head: the integral then
converges only where g vanishes at 0 (theorem2), and a head that grows
under bisection is refused as a non-integrable endpoint.  A head that
misses its estimate is bisected into a new head and a weight-1 sibling.

The tail: beyond a start theta, s = e^-t maps [theta, inf) onto
(0, e^-theta], x = a (1-s)^2/(2s), and the integrand becomes
2^-mu s^(lambda - mu - 1) (1-s)^(2 mu - 1) (1+s) g ds: the rule with
u = s, alpha = lambda - mu, and phi = 2^-mu (1-s)^(2 mu - 1) (1+s) g,
analytic at s = 0 wherever g is analytic in s there (theorem2's g is;
theorem1's carries s^(P+n)).  Each node is taken at t = -log s.  A tail
that misses its estimate is split into a weight-1 panel on
[theta, theta + D] and a new tail from theta + D, where
D = max(log 4, log(estimate/target)/Re(lambda - mu)) should bring its
estimate to the target.  theta stays at or below 700, where s is still
a normal float; a tail that can move no further ends the refinement
unconverged.

The coefficients understate an end's error where phi itself carries a
weak power at 0 (theorem2's g ~ x^(p+1) with p < 0 at the head,
theorem1's s^(P+n) at the tail).  But an end panel's error falls as
w^Re(alpha) or faster in its width w in its own variable (t at the
head, s at the tail) for a g bounded there, so where a split leaves a
new end of width w', the change the split made, over
(w/w')^Re(alpha) - 1, bounds the new end's error too, and the larger of
the two is kept: 2^(2 Re(mu)) - 1 at the head, e^(Re(lambda - mu) D) - 1
at the tail.  The weight-1 head of Re(mu) <= 0 has no such bound.

Refinement runs in rounds over one list of panels kept in theta order,
from five panels: the head on [0, 1/2], weight-1 panels on [1/2, 1],
[1, 2] and [2, 4], where the integrand is smoother and decays, and the
tail from 4.  Each round takes the exactly rounded panel sum
(``series.fsum_complex``) once.  It stops when the errors meet the
target, or it splits the fewest worst panels whose errors cover the
excess, worst first and no more than the panel cap leaves room for.
The last round's sums are the result.
"""

from __future__ import annotations

import cmath
import math
import operator

from .errors import DomainError, RangeError
from .gammafn import _EXP_LIMIT, _MATH_EXP_LIMIT, exp_checked, log_gamma
from .record import Record, _set
from .series import _LOG_2, fsum_complex


# The product rule's N first-kind Chebyshev points x_j = cos(theta_j),
# theta_j = pi (j + 1/2) / N, in ascending order, as the rows
# cos(k theta_j), 0 < k < N, that turn samples into Chebyshev
# coefficients; each row starts with its node.
_CHEB_POINTS = 20
_CHEB_COS = tuple(
    tuple(math.cos(k * math.pi * (j + 0.5) / _CHEB_POINTS) for k in range(1, _CHEB_POINTS))
    for j in reversed(range(_CHEB_POINTS))
)

# A kernel rate Re(lambda_eff) - Re(mu) below _MIN_RATE counts as no
# decay.  The tail panel starts at theta = _THETA_MAX at most: its
# deepest node, s = e^-700 sin^2(pi / 4N) ~ 1.5e-307, is still a normal
# float, and x = a (cosh t - 1) there, ~3.3e306 a, is finite for a < 54.
_MIN_RATE = 1e-6
_THETA_MAX = 700.0

# Refinement stops, unconverged, once the list holds this many panels:
# their 28,560 nodes are about the 30,000 of 2000 15-point panels.  The
# 5 starting panels are always evaluated, even at a cap of 1; a
# refinement that reaches the cap ends with exactly _MAX_PANELS panels.
_MAX_PANELS = 1428

# QUADPACK's rounding floor: no error estimate is below this times the
# panel's sum of |w f| over its nodes.
_ROUNDING_FLOOR = 50.0 * 2.0**-52


class QuadControl(Record):
    """Relative tolerance of ``integrate_kernel``: a result is converged
    when its error estimate is at most rel_tol * |value|.  No panel's
    estimate is below 50 eps (1.1e-14) times its sum of |w f|, so a
    rel_tol below that is refused, as QUADPACK refuses such an epsrel
    (ier = 6); near it convergence is not assured: it takes panels whose
    sums do not cancel (g = 1 at a = 1, mu = 0.75, lambda = 2 meets the
    floor itself, in 140 calls)."""

    __slots__ = ("rel_tol",)

    def __init__(self, rel_tol: float = 1e-11):
        if isinstance(rel_tol, bool):
            raise DomainError(f"quadrature tolerance must be a number, got {rel_tol!r}")
        if not 0 < rel_tol < math.inf:
            raise DomainError("quadrature tolerance must be positive and finite")
        if rel_tol < _ROUNDING_FLOOR:
            raise DomainError(
                f"quadrature tolerance must be at least the rounding floor 50 eps = "
                f"{_ROUNDING_FLOOR!r} of every error estimate, got {rel_tol!r}"
            )
        _set(self, "rel_tol", rel_tol)


DEFAULT_QUAD = QuadControl()


class QuadResult(Record):
    # evaluations: calls of g; cutoff_theta: where the tail panel starts;
    # stop_reason: which exit ended the refinement, "tolerance met",
    # "panel cap" or "tail at theta max" (None where not given).
    __slots__ = ("value", "error_estimate", "panels_used", "cutoff_theta", "converged", "evaluations",
                 "stop_reason")

    def __init__(self, value: complex, error_estimate: float, panels_used: int, cutoff_theta: float,
                 converged: bool, evaluations: int, stop_reason: str | None = None):
        self._init(value, error_estimate, panels_used, cutoff_theta, converged, evaluations, stop_reason)


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


# Below this, cosh t - 1 = 2 sinh(t/2)^2 nears or reaches underflow (at
# t ~ 1e-154), so its log comes from sinh(t/2) instead.
_TINY_COSH_M1 = 1e-300


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


def _geometry(lo: float, hi: float, end=False, tail=False) -> tuple:
    """Per node of the rule's points mapped onto [lo, hi], the kernel's
    parts that no case changes: (t, w, log w, log sinh t, log u),
    w = cosh t - 1.  At an ``end`` u is the mapped node, t itself, or
    with ``tail`` s = e^-t, where the node is taken at t = -log s; log u
    is 0.0 elsewhere."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    log, log1p, exp, sinh = math.log, math.log1p, math.exp, math.sinh
    nodes = []
    for row in _CHEB_COS:
        t = mid + half * row[0]
        log_u = 0.0
        if end:
            log_u = log(t)
            if tail:
                t = -log_u
        s = sinh(0.5 * t)  # w = cosh t - 1 = 2 sinh(t/2)^2
        w = 2.0 * s * s
        log_w = log(w) if w >= _TINY_COSH_M1 else _log_tiny_cosh_m1(t)
        if t < 1e-3:
            log_sinh = log(t) + log1p(t * t / 6.0)
        else:
            log_sinh = t + log1p(-exp(-2.0 * t)) - _LOG_2
        nodes.append((t, w, log_w, log_sinh, log_u))
    return tuple(nodes)


def _node_sums(intg: _Integrand, geometry, nodes, power=None) -> tuple[complex, complex, complex, float]:
    """Sums of W f, v f, v' f and |W f| over a rule's (x, W, v, v') nodes
    at their ``_geometry``, f the substituted integrand; a node whose
    kernel weight underflows to 0 adds nothing and calls no g.

    power = (b_re, b_im, c_re, c_im) divides f by u^b and multiplies it
    by e^c, both folded into the node's exponent, u the end's variable."""
    g, a = intg.g, intg.a
    mu_re, mu_im = intg.mu.real - 1.0, intg.mu.imag
    lam_re, lam_im = intg.lam.real, intg.lam.imag
    b_re, b_im, c_re, c_im = power or (0.0, 0.0, 0.0, 0.0)
    # Fixed per panel: whether the exponent is real (its imaginary part
    # would be 0 at every node), so that no node forms that part.
    real = not (mu_im or lam_im or b_im or c_im)
    exp, cexp = math.exp, cmath.exp
    isfinite = cmath.isfinite
    s0 = s1 = s2 = 0j
    s_abs = 0.0
    skipped = 0
    for (t, w, log_w, log_sinh, log_u), (_, w0, w1, w2) in zip(geometry, nodes):
        re = mu_re * log_w + log_sinh - lam_re * t
        if power:
            re += c_re - b_re * log_u
        if re > _EXP_LIMIT:
            raise RangeError("substituted integrand overflows")
        if real:  # math.exp has cmath.exp's bits up to _MATH_EXP_LIMIT
            kern = exp(re) if re <= _MATH_EXP_LIMIT else cexp(re)
        else:
            im = mu_im * log_w - lam_im * t
            if power:
                im += c_im - b_im * log_u
            if im:
                kern = cexp(complex(re, im))
            else:
                kern = exp(re) if re <= _MATH_EXP_LIMIT else cexp(re)
        if kern == 0:
            skipped += 1
            continue
        val = kern * complex(g(a * w))
        if not isfinite(val):
            raise RangeError(f"integrand non-finite at theta = {t:.6g}")
        term = w0 * val
        s0 += term
        s_abs += abs(term)
        s1 += w1 * val
        s2 += w2 * val
    intg.evaluations += len(nodes) - skipped
    return s0, s1, s2, s_abs


def _jacobi_moments(b) -> list:
    """M_k / M_0 for k < _CHEB_POINTS, where M_k = int_{-1}^{1} (1+x)^b T_k(x) dx
    and M_0 = 2^(b+1) / (b+1), Re(b) > -1, by the forward recurrence
    (b+k+2) M_{k+1} = 2b M_k - (b+2-k) M_{k-1} from M_1 = M_0 b / (b+2)."""
    m = [1.0, b / (b + 2.0)]
    for k in range(1, _CHEB_POINTS - 1):
        m.append((2.0 * b * m[k] - (b + 2.0 - k) * m[k - 1]) / (b + k + 2.0))
    return m


def _product_rule(alpha: complex):
    """(nodes, alpha, error factor) of the product rule for u^b phi(u) on
    [0, h], b = alpha - 1, Re(alpha) > 0: the nodes are
    (x_j, W_j, 2/N cos((N-2) theta_j), 2/N cos((N-1) theta_j)), with
    W_j = 2/N sum'_k cos(k theta_j) M_k / M_0, and 2 |alpha| / Re(alpha)
    turns the last two coefficients of phi h^alpha / alpha into the
    error bound.  The scale takes alpha itself, not (alpha - 1) + 1,
    which rounds."""
    alpha = alpha if alpha.imag else alpha.real
    moments = _jacobi_moments(alpha - 1.0)[1:]
    scale = 2.0 / _CHEB_POINTS
    nodes = tuple(
        (row[0], scale * (0.5 + sum(map(operator.mul, row, moments))), scale * row[-2], scale * row[-1])
        for row in _CHEB_COS
    )
    return nodes, alpha, 2.0 * abs(alpha) / alpha.real


# The rule at weight 1, for every panel but a weighted end.
_UNIT_RULE = _product_rule(1.0)

# The five panels every refinement starts from, as (lo, hi, node
# geometry) in t: the head [0, 1/2], with log t for its weight (a
# weight-1 head ignores it), [1/2, 1], [1, 2], [2, 4], and the tail from
# 4 in s = e^-t.
_START_PANELS = (
    (0.0, 0.5, _geometry(0.0, 0.5, end=True)),
    *((lo, 2.0 * lo, _geometry(lo, 2.0 * lo)) for lo in (0.5, 1.0, 2.0)),
    (4.0, math.inf, _geometry(0.0, math.exp(-4.0), end=True, tail=True)),
)


def _panel(intg: _Integrand, lo: float, hi: float, rule, geometry=None) -> tuple[float, float, complex, float]:
    """(lo, hi, value, error estimate) of one panel by a product rule:
    at alpha = 1 on [lo, hi] in t, where phi = f; otherwise the head
    [0, hi] in t, where phi = f / t^(alpha - 1), or the tail [lo, inf) as
    [0, e^-lo] in s = e^-t, where phi = f / s^alpha (f dt = f / s ds).
    Each phi_j is taken times h^alpha / alpha, h the width in u, against
    the rule's weights W_j.  The estimate is the coefficient bound, or the
    rounding floor on the sum of |W_j phi_j| h^alpha / alpha if that is
    larger.  A starting panel passes its import-time ``geometry``; any
    other panel's is built here."""
    nodes, alpha, err_factor = rule
    if alpha == 1.0 and hi < math.inf:
        scale = hi - lo
        value, c_n2, c_n1, s_abs = _node_sums(intg, geometry or _geometry(lo, hi), nodes)
    else:
        tail = hi == math.inf
        b = alpha if tail else alpha - 1.0
        c = alpha * (-lo if tail else math.log(hi)) - cmath.log(alpha)
        geometry = geometry or _geometry(0.0, math.exp(-lo) if tail else hi, end=True, tail=tail)
        scale = 1.0
        value, c_n2, c_n1, s_abs = _node_sums(intg, geometry, nodes, (b.real, b.imag, c.real, c.imag))
    return lo, hi, scale * value, scale * max(err_factor * (abs(c_n2) + abs(c_n1)), _ROUNDING_FLOOR * s_abs)


def integrate_kernel(g, a, mu, lambda_eff, ctl: QuadControl = DEFAULT_QUAD) -> QuadResult:
    """Integrate x^(mu-1) (x+a+sqrt(x^2+2ax))^(-lambda_eff) g(x) over (0, inf).

    ``g`` maps a positive real x to a complex value and must be bounded on
    compacts; integrability at 0 (x^(mu-1) against g's small-x order) is
    the caller's responsibility.  Returns the best estimate flagged
    unconverged when the panel budget runs out, or the tail reaches
    theta = 700, before tolerance is met; raises DomainError when the
    endpoint is detected as non-integrable, or, before any call of g,
    when the kernel does not decay (Re(lambda_eff) - Re(mu) below 1e-6),
    whatever g is.

    Every panel is one 20-point Chebyshev product rule (see the module
    docstring).  Both ends take an algebraic weight exactly, so only the
    rest of the integrand must be smooth there.  For Re(mu) > 0 each
    leftmost panel integrates the endpoint factor t^(2 mu - 1); a g that
    carries its own non-integer power at 0, as theorem2's does, still
    bisects the head.  The tail [theta, inf) is one panel in s = e^-t
    that integrates s^(lambda_eff - mu - 1); a g that carries a
    non-integer power of s there, as theorem1's does, moves the tail's
    start out, further at a tighter tolerance.  Its estimate assumes g
    bounded at infinity.  Panels between the ends take weight 1.
    Refinement starts from a head on [0, 1/2], panels on [1/2, 1],
    [1, 2] and [2, 4], and the tail from 4.  No estimate is below 50 eps
    times its panel's sum of |w f|.

    A g that oscillates in x at large x is not resolved: in theta its
    period shrinks like e^(-theta), so refinement runs to the panel cap
    unconverged (``g = cos(3x)``, a = 1, mu = 0.9, lambda_eff = 2 ends
    at 1428 panels after 57,020 calls of g; at lambda_eff = 0.91 the
    tail reaches theta = 700 after 220).  The paper's integrands are
    unaffected: their Struve arguments, y or x y over
    x + a + sqrt(x^2 + 2ax), tend to 0 or y/2.
    """
    a = _checked_a(a)
    mu = complex(mu)
    lam = complex(lambda_eff)
    intg = _Integrand(g, a, mu, lam)
    scale = cmath.exp((mu - lam) * math.log(a))

    rate = lam.real - mu.real
    if rate < _MIN_RATE:
        raise DomainError(
            "tail not certifiable: Re(lambda_eff) - Re(mu) = "
            f"{rate:.3g} is not positive"
        )
    head_rule = _product_rule(2.0 * mu) if mu.real > 0 else _UNIT_RULE
    tail_rule = _product_rule(lam - mu)
    # Re(alpha) log(w / w') of a head bisection (see the module docstring).
    head_shrink = 2.0 * mu.real * _LOG_2 if mu.real > 0 else 0.0

    # The starting panels: the head's rule, weight 1 between, the tail's.
    rules = (head_rule, _UNIT_RULE, _UNIT_RULE, _UNIT_RULE, tail_rule)
    panels = [_panel(intg, lo, hi, rule, geometry) for (lo, hi, geometry), rule in zip(_START_PANELS, rules)]

    # Refine in rounds (see the module docstring); panels stay in theta order.
    head_magnitudes: list[float] = []
    while True:
        raw = fsum_complex([rec[2] for rec in panels])
        target = ctl.rel_tol * abs(raw)
        errs = [rec[3] for rec in panels]
        err_total = sum(errs)
        converged = err_total <= target
        room = _MAX_PANELS - len(panels)
        stop_reason = "tolerance met" if converged else "panel cap" if room <= 0 else None
        if stop_reason:
            break
        excess = err_total - target
        split = []
        for i in sorted(range(len(panels)), key=errs.__getitem__, reverse=True)[:room]:
            split.append(i)
            excess -= errs[i]
            if excess <= 0:
                break
        if len(panels) - 1 in split and panels[-1][0] >= _THETA_MAX:
            stop_reason = "tail at theta max"  # it can move no further out
            break
        refined = []
        kept_from = 0
        for i in sorted(split):
            lo, hi, value, err = panels[i]
            if hi == math.inf:
                # A weight-1 panel over the stretch by which the tail's
                # estimate should fall to the target, the tail after it.
                step = math.log(max(err, target) / target) / rate if target else math.inf
                mid_point = min(lo + max(step, 2.0 * _LOG_2), _THETA_MAX)
                shrink = rate * (mid_point - lo)  # its width in s is e^-theta
            else:
                if lo == 0.0:
                    head_magnitudes.append(abs(value))
                    if len(head_magnitudes) >= 8 and all(
                        head_magnitudes[i] < head_magnitudes[i + 1] for i in range(-7, -1)
                    ):
                        raise DomainError(
                            "non-integrable endpoint: head contributions diverge under refinement"
                        )
                mid_point = 0.5 * (lo + hi)
                shrink = head_shrink if lo == 0.0 else 0.0
            left = _panel(intg, lo, mid_point, head_rule if lo == 0.0 else _UNIT_RULE)
            right = _panel(intg, mid_point, hi, tail_rule if hi == math.inf else _UNIT_RULE)
            if shrink:
                # The new end's error is at most the split's change over
                # (w / w')^Re(alpha) - 1 (see the module docstring);
                # capped where expm1 would overflow.
                bound = abs(value - left[2] - right[2]) / math.expm1(min(shrink, 700.0))
                if lo == 0.0:
                    left = (*left[:3], max(left[3], bound))
                else:
                    right = (*right[:3], max(right[3], bound))
            refined += panels[kept_from:i]
            refined += (left, right)
            kept_from = i + 1
        panels = refined + panels[kept_from:]

    value = scale * raw
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise RangeError("integral value is non-finite")
    return QuadResult(
        value=value,
        error_estimate=abs(scale) * err_total,
        panels_used=len(panels),
        cutoff_theta=panels[-1][0],
        converged=converged,
        evaluations=intg.evaluations,
        stop_reason=stop_reason,
    )


def _log_oberhettinger(a: float, mu: complex, lam: complex) -> complex:
    """log(oberhettinger_closed_form(a, mu, lam) / lam), unchecked."""
    return ((1 - mu) * _LOG_2 + (mu - lam) * math.log(a) + log_gamma(2 * mu)
            + log_gamma(lam - mu) - log_gamma(1 + lam + mu))


def oberhettinger_closed_form(a, mu, lam) -> complex:
    """2 lam a^(-lam) (a/2)^mu Gamma(2 mu) Gamma(lam - mu) / Gamma(1 + lam + mu)
    (F. Oberhettinger, Tables of Mellin Transforms, Springer 1974).

    Requires a > 0 and 0 < Re(mu) < Re(lam).
    """
    a = _checked_a(a)
    mu = complex(mu)
    lam = complex(lam)
    if not mu.real > 0:
        raise DomainError("condition violated: 0 < Re(mu)")
    if not mu.real < lam.real:
        raise DomainError("condition violated: Re(mu) < Re(lambda)")
    return exp_checked(cmath.log(lam) + _log_oberhettinger(a, mu, lam), "closed form")
