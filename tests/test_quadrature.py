import cmath
import math
import sys

import pytest
from mpmath import beta, factorial, mp, mpc, mpf, rf

from struveint import (
    DomainError,
    QuadControl,
    RangeError,
    integrate_kernel,
    kernel_factor,
    oberhettinger_closed_form,
    quadrature,
)
from struveint.gammafn import _EXP_LIMIT
from struveint.quadrature import (
    _CHEB_POINTS,
    _START_PANELS,
    _THETA_MAX,
    _UNIT_RULE,
    _Integrand,
    _jacobi_moments,
    _panel,
    _product_rule,
)

BASE_GRID = [
    (a, mu, lam)
    for a in (0.5, 1.0, 2.0)
    for mu in (0.3, 1.0, 1.7)
    for lam in (mu + 0.5, mu + 2.0)
]


# QUADPACK's floor on every error estimate, as a share of sum |w f|.
ROUNDING_FLOOR = 50 * sys.float_info.epsilon


def rel(actual, expected):
    return abs(actual - expected) / abs(expected)


def test_closed_form_known_values():
    assert rel(oberhettinger_closed_form(1.0, 1.0, 2.0), 1.0 / 3.0) < 1e-14
    assert rel(oberhettinger_closed_form(2.0, 1.0, 2.0), 1.0 / 6.0) < 1e-14


def test_closed_form_domain_errors():
    with pytest.raises(DomainError):
        oberhettinger_closed_form(1.0, 2.0, 1.0)  # Re(mu) >= Re(lambda)
    with pytest.raises(DomainError):
        oberhettinger_closed_form(1.0, -0.5, 1.0)  # Re(mu) <= 0
    with pytest.raises(DomainError):
        oberhettinger_closed_form(-1.0, 0.5, 1.0)  # a <= 0


def test_value_beyond_double_range_is_range_error():
    with pytest.raises(RangeError, match="closed form overflows double precision"):
        oberhettinger_closed_form(1e-300, 0.5, 3.0)
    # The scale a^(mu - lambda) = 1e300 takes g = 1e300's integral past the range.
    with pytest.raises(RangeError, match="integral value is non-finite"):
        integrate_kernel(lambda x: 1e300, 1e-300, 0.5, 1.5)


def test_unit_integrand_analytic_value():
    # After the cosh substitution the a=1, mu=1, lambda=2 case is
    # int_0^inf e^(-2t) sinh t dt = 1/3.
    res = integrate_kernel(lambda x: 1.0, 1.0, 1.0, 2.0)
    assert res.converged and res.stop_reason == "tolerance met"
    assert rel(res.value, 1.0 / 3.0) < 1e-11
    assert abs(res.value - 1.0 / 3.0) <= res.error_estimate


def test_unit_integrand_vs_closed_form_singular_endpoint():
    # At mu = 0.03 the endpoint factor t^(2 mu - 1) is t^-0.94, which the
    # head rule integrates exactly.
    for a, mu, lam in ((2.0, 0.5, 1.5), (1.0, 0.03, 2.0)):
        res = integrate_kernel(lambda x: 1.0, a, mu, lam)
        assert res.converged, mu
        assert rel(res.value, oberhettinger_closed_form(a, mu, lam)) < 1e-11, mu


# Calls of g allowed at a = 1, lambda = 2.  Plain head bisection took
# 5,925 at mu = 0.1 and overflowed at mu = 0.01.  A head graded by
# t = h v^m, m = ceil(4 Re mu)/(2 Re mu), took 1,285 at mu = 0.01, 355
# at 0.1, 385 at 0.3, 355 at 0.6, 265 at 0.75, 295 at 1.25, 655 at
# 0.75 + 0.2i, 6,145 at 0.1 + 0.2i and 835 at 0.54 + 0.18i: it made
# t^(2 Re mu - 1) an integer power, and t^(2i Im mu) still oscillated.
# The head rule with eight equal 15-point panels on [0, 4] took 180 to
# 270: 180 at mu = 0.01, 210 at 0.1, 240 at 0.75 and 270 at 1.25.  With
# three 21-point panels after the head and a tail cut by an envelope
# bound, 114 to 240: 114 at mu <= 0.1, 156 at 0.3 to 0.75, 198 at 1.0
# and 240 at 1.25.  With the tail one more product-rule panel, in
# s = e^-t, where g = 1 is a polynomial, every mu took the 5 starting
# panels, 103 calls; with every panel of that rule, 20 points each, 100.
TINY_MU_CALLS = dict.fromkeys(
    (0.01, 0.02, 0.05, 0.1, 0.3, 0.5, 0.6, 0.75, 1.0, 1.25, 0.75 + 0.2j, 0.1 + 0.2j, 0.54 + 0.18j), 100
)
# The value's bits and the calls of g, pinned where t^(2 mu - 1) is a
# polynomial and where it is a complex power.  At 1.0 the value is 1/3
# rounded to nearest; with 21-point interior panels it was one ulp above,
# and with the envelope-cut tail 0x1.5555555554a23p-2.
PINNED_MU = {
    0.5: (("0x1.822cb17ff2eb8p-1", "0x0.0p+0"), 100),
    1.0: (("0x1.5555555555555p-2", "0x0.0p+0"), 100),
    0.1 + 0.2j: (("-0x1.eeab00a92d486p-4", "-0x1.826b6f16ad441p+1"), 100),
}


@pytest.mark.parametrize("mu", list(TINY_MU_CALLS))
def test_tiny_mu_endpoint_converges(mu):
    # The leftmost panel integrates t^(2 mu - 1) exactly against the
    # Chebyshev interpolant of the rest, complex mu included.
    res = integrate_kernel(lambda x: 1.0, 1.0, mu, 2.0)
    assert res.converged, mu
    assert rel(res.value, oberhettinger_closed_form(1.0, mu, 2.0)) < 1e-11, mu
    assert res.evaluations <= TINY_MU_CALLS[mu], mu
    if mu in PINNED_MU:
        bits = (res.value.real.hex(), res.value.imag.hex())
        assert (bits, res.evaluations) == PINNED_MU[mu], mu


def test_large_mu_head_does_not_overflow():
    # 2^(2 mu) alone overflows at mu = 600.3; the head rule keeps its
    # moments as M_k / M_0 and folds h^(2 mu) / (2 mu) into each node's
    # exponent.
    res = integrate_kernel(lambda x: 1.0, 1.0, 600.3, 601.0)
    assert res.converged
    assert rel(res.value, oberhettinger_closed_form(1.0, 600.3, 601.0)) <= 1e-12


def test_zero_integrand():
    res = integrate_kernel(lambda x: 0.0, 1.0, 0.7, 2.0)
    assert res.value == 0
    assert res.error_estimate == 0.0
    assert res.converged
    # Re(lambda_eff) < Re(mu): the kernel does not decay, so even g = 0
    # is refused before it is called.
    calls = []

    def zero(x):
        calls.append(x)
        return 0.0

    for mu in (1.0, 0.5):
        with pytest.raises(DomainError, match="tail not certifiable"):
            integrate_kernel(zero, 1.0, mu, mu - 0.5)
    assert calls == []


@pytest.mark.parametrize("a, mu, lam", [(1.0, 1.0, 1.3), (1.0, 0.8, 1.1), (2.0, 1.5, 1.75)])
def test_long_tail_cutoff_follows_the_tolerance(a, mu, lam):
    # Decay rates 0.25-0.3.  g = 1 is a polynomial in s = e^-t, so the
    # tail panel takes it from theta = 4 at every tolerance, in 100
    # calls; a cutoff walked on a fixed grid took 670, 630 and 610 calls
    # at 1e-11, and one set by an envelope bound 282 at (1, 1, 1.3).
    # g = (a/K)^0.3 = s^0.3 is not: the tail's estimate moves its start
    # out, further at each tighter tolerance.
    closed = oberhettinger_closed_form(a, mu, lam)
    for tol in (1e-6, 1e-8, 1e-11):
        res = integrate_kernel(lambda x: 1.0, a, mu, lam, QuadControl(rel_tol=tol))
        assert res.converged, tol
        assert abs(res.value - closed) <= min(res.error_estimate, 1e-15 * abs(closed)), tol
        assert (res.evaluations, res.panels_used, res.cutoff_theta) == (100, 5, 4.0), tol
    closed = a**0.3 * oberhettinger_closed_form(a, mu, lam + 0.3)
    cutoffs = []
    for tol in (1e-6, 1e-8, 1e-11):
        res = integrate_kernel(lambda x: (a / kernel_factor(x, a)) ** 0.3, a, mu, lam, QuadControl(rel_tol=tol))
        assert res.converged, tol
        assert rel(res.value, closed) <= tol, tol
        assert abs(res.value - closed) <= res.error_estimate, tol
        cutoffs.append(res.cutoff_theta)
    assert 4.0 < cutoffs[0] < cutoffs[1] < cutoffs[2], cutoffs
    assert res.evaluations <= 400


def test_baseline_grid_against_closed_form():
    for a, mu, lam in BASE_GRID:
        res = integrate_kernel(lambda x: 1.0, a, mu, lam)
        closed = oberhettinger_closed_form(a, mu, lam)
        assert res.converged, (a, mu, lam)
        assert rel(res.value, closed) <= 1e-10, (a, mu, lam)


def test_scale_covariance():
    # For g = 1 the value scales exactly as a^(mu - lambda).
    mu, lam = 0.8, 2.3
    base = integrate_kernel(lambda x: 1.0, 1.0, mu, lam).value
    for s in (0.5, 2.0, 7.5):
        scaled = integrate_kernel(lambda x: 1.0, s, mu, lam).value
        assert rel(scaled, s ** (mu - lam) * base) <= 1e-12


def test_refinement_monotonicity():
    # Halving rel_tol never worsens agreement with the closed form; run
    # at loose tolerances where the truncation error dominates roundoff.
    tols = (1e-5, 5e-6, 2.5e-6)
    for a, mu, lam in BASE_GRID:
        closed = oberhettinger_closed_form(a, mu, lam)
        discrepancies = []
        for tol in tols:
            ctl = QuadControl(rel_tol=tol)
            res = integrate_kernel(lambda x: 1.0, a, mu, lam, ctl)
            discrepancies.append(abs(res.value - closed))
        for first, second in zip(discrepancies, discrepancies[1:]):
            assert second <= first + 1e-15 * abs(closed), (a, mu, lam, discrepancies)


def test_complex_parameters_match_closed_form():
    mu = 0.8 + 0.3j
    lam = 2.1 - 0.2j
    res = integrate_kernel(lambda x: 1.0, 1.0, mu, lam)
    closed = oberhettinger_closed_form(1.0, mu, lam)
    assert res.converged
    assert rel(res.value, closed) <= 1e-9


def mp_kernel_integral(g, a, mu, lam):
    """integrate_kernel's integral at 30 digits by mpmath's quad, in t;
    on [0, 1] t = u^m, m = ceil(2 / Re(mu)), turns t^(2 mu - 1) dt into
    a power of u whose real part is at least 1."""
    with mp.workdps(30):
        a, mu, lam = mpf(a), mpc(mu), mpc(lam)

        def f(t):
            w = 2 * mp.sinh(t / 2) ** 2
            return w ** (mu - 1) * mp.sinh(t) * mp.exp(-lam * t) * g(a * w)

        m = math.ceil(2 / mu.real)
        head = mp.quad(lambda u: f(u**m) * m * u ** (m - 1), [0, 1])
        return complex(a ** (mu - lam) * (head + mp.quad(f, [1, 4, 16, mp.inf])))


SMALL_MU_GRID = [
    (a, mu, mu + gap)
    for a in (1.0, 1e4)
    for mu in (0.02, 0.05, 0.1, 0.1 + 0.2j)
    for gap in (0.3, 2.0)
]


def test_error_estimate_is_conservative_on_grid():
    # BASE_GRID plus small and complex mu, where the head rule's
    # coefficient bound is the leftmost panel's error estimate.
    for a, mu, lam in BASE_GRID + SMALL_MU_GRID:
        res = integrate_kernel(lambda x: 1.0, a, mu, lam)
        closed = oberhettinger_closed_form(a, mu, lam)
        assert abs(res.value - closed) <= res.error_estimate, (a, mu, lam)
    # A g with a pole at x = -1, against a 30-digit reference.
    for a, mu, lam in SMALL_MU_GRID + [(0.5, 0.3, 2.3), (2.0, 1.7, 3.7)]:
        res = integrate_kernel(lambda x: (1.0 + x) ** -3, a, mu, lam)
        reference = mp_kernel_integral(lambda x: (1 + x) ** -3, a, mu, lam)
        assert abs(res.value - reference) <= res.error_estimate, (a, mu, lam)
    # theorem2-style g, vanishing like x^q at 0 with q = p + 1 and
    # non-integer 2p: the head's phi carries t^(2q), which no rule takes
    # exactly, and x^q K^-q times the kernel is the kernel at
    # (mu + q, lambda + q).
    for q in (1.3, 0.55):
        for a, mu, lam in BASE_GRID + SMALL_MU_GRID:
            res = integrate_kernel(lambda x: (x / kernel_factor(x, a)) ** q, a, mu, lam)
            closed = oberhettinger_closed_form(a, mu + q, lam + q)
            assert abs(res.value - closed) <= res.error_estimate, (q, a, mu, lam)
    # theorem1-style g, falling like K^-q = (s/a)^q: the tail's phi
    # carries s^q, which no rule takes exactly, and a^q K^-q times the
    # kernel is the kernel at lambda + q.
    for q in (0.1, 0.3, 0.7, 1.3, 2.55):
        for a, mu, lam in BASE_GRID + SMALL_MU_GRID:
            res = integrate_kernel(lambda x: (a / kernel_factor(x, a)) ** q, a, mu, lam)
            closed = a**q * oberhettinger_closed_form(a, mu, lam + q)
            assert res.converged, (q, a, mu, lam)
            assert abs(res.value - closed) <= res.error_estimate, (q, a, mu, lam)


@pytest.mark.parametrize("gap", [0.01, 0.05, 0.3])
def test_slow_kernel_decay_converges(gap):
    # g = 1 where the kernel falls like e^(-gap theta).  The tail panel
    # takes s^(gap - 1) exactly; an envelope bound cut at theta = 200
    # left gaps 0.01 and 0.05 unconverged after 59,872 calls of g.
    for a, mu in ((1.0, 0.75), (1.0, 0.02), (1e4, 1.0)):
        res = integrate_kernel(lambda x: 1.0, a, mu, mu + gap)
        closed = oberhettinger_closed_form(a, mu, mu + gap)
        assert res.converged, (a, mu)
        assert rel(res.value, closed) <= 1e-14, (a, mu)
        assert abs(res.value - closed) <= res.error_estimate, (a, mu)


def test_result_invariants(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 500)
    res = integrate_kernel(lambda x: 1.0, 1.0, 0.3, 1.1)
    assert res.error_estimate >= 0.0
    assert res.panels_used <= 500
    assert 0.0 < res.cutoff_theta <= _THETA_MAX


def test_panel_budget_exhaustion_flags_result(monkeypatch):
    # g = 1 converges on the 5 starting panels even at 1e-13; (a/K)^0.3
    # = s^0.3 needs its tail moved out, which a cap of 5 does not allow.
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 5)
    res = integrate_kernel(lambda x: kernel_factor(x, 1.0) ** -0.3, 1.0, 0.3, 1.1, QuadControl(rel_tol=1e-13))
    assert not res.converged
    assert (res.panels_used, res.cutoff_theta) == (5, 4.0)
    # Still a usable estimate of the right magnitude.
    closed = oberhettinger_closed_form(1.0, 0.3, 1.4)
    assert rel(res.value, closed) < 0.1


def test_panel_cap_limits_refinement_not_layout(monkeypatch):
    # The panel cap limits refinement only: the 5 starting panels, four
    # on [0, 4] and the tail, are always evaluated (at caps 1 and 5 the
    # tail cannot move), and the last round splits just enough panels to
    # reach the cap exactly.  g = cos(3x) is never resolved (see
    # integrate_kernel); its rounds go 5 -> 8 (the tail among the three
    # splits) -> 11 -> 17, so at cap 7 the first round wants three splits
    # and gets two, and at cap 10 the second wants three and gets two.
    for cap, expected in ((1, 5), (5, 5), (7, 7), (9, 9), (10, 10)):
        monkeypatch.setattr(quadrature, "_MAX_PANELS", cap)
        res = integrate_kernel(lambda x: math.cos(3.0 * x), 1.0, 0.9, 2.0)
        assert not res.converged
        assert (res.panels_used, res.stop_reason) == (expected, "panel cap"), cap


@pytest.mark.parametrize("mu", [-0.5, 0.0, -0.2 + 0.3j])
def test_non_integrable_endpoint_detected(mu):
    # Re(mu) <= 0 makes x^(mu-1) non-integrable at 0; head refinement
    # sees ever larger leftmost-panel values and gives up fast.
    with pytest.raises(DomainError, match="non-integrable endpoint"):
        integrate_kernel(lambda x: 1.0, 1.0, mu, 2.0)


def test_uncertifiable_tail_rejected():
    with pytest.raises(DomainError):
        integrate_kernel(lambda x: 1.0, 1.0, 2.0, 1.5)  # Re(lam) - Re(mu) < 0


def test_decaying_g_rescues_flat_kernel():
    # g decaying like the generalized Struve product keeps the tail
    # certifiable even when the cutoff must reach far out.
    mu, lam = 0.75, 1.25
    res = integrate_kernel(lambda x: (1.0 + x) ** -3, 1.0, mu, lam)
    assert res.converged


def test_control_validation():
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            QuadControl(rel_tol=bad)
    # Below QUADPACK's rounding floor 50 eps no estimate converges: g = 1
    # at (1, 0.75, 2) with rel_tol 1e-14 ran to the panel cap, unconverged,
    # after 59,873 calls of g.  The floor itself is accepted.
    floor = 50 * 2**-52
    for bad in (1e-14, math.nextafter(floor, 0.0), 1e-300):
        with pytest.raises(DomainError, match="rounding floor 50 eps = 1.1102230246251565e-14"):
            QuadControl(rel_tol=bad)
    assert QuadControl(rel_tol=floor).rel_tol == floor
    # True used to run at rel_tol 1.0.
    for bad in (True, False):
        with pytest.raises(DomainError, match="quadrature tolerance must be a number"):
            QuadControl(rel_tol=bad)
    with pytest.raises(DomainError):
        integrate_kernel(lambda x: 1.0, 0.0, 1.0, 2.0)


def test_kernel_factor_substitution_identity():
    # x = a (cosh t - 1) maps the kernel base to a e^t exactly.
    for a in (0.5, 1.0, 3.0):
        x = a * (math.cosh(1.0) - 1.0)
        assert rel(kernel_factor(x, a), a * math.e) < 1e-14


def test_kernel_factor_does_not_overflow_at_large_x():
    # x (x + 2a) overflows from x ~ 1.3e154; sqrt(x) sqrt(x + 2a) does not.
    assert rel(kernel_factor(1e160, 1.0), 2e160) <= 1e-15
    for x in (1e154, 1e200, 1e300):
        assert rel(kernel_factor(x, 1.0), 2.0 * x) <= 1e-15


def test_tail_cutoff_follows_the_decay_of_g():
    # (a / K)^2 = e^(-2 theta) = s^2 exactly: the tail panel's phi is a
    # polynomial times s^2, taken from theta = 4 in one panel with no
    # split, in 100 calls of g.  A cutoff set by probes of |g| went to 9.1
    # in 114 calls, one at the kernel's rate alone to 17.3 in 156.  A
    # fractional power, (a / K)^0.3, moves the tail out.
    a, mu, lam = 1.0, 0.75, 2.0

    def g(x):
        return (a / kernel_factor(x, a)) ** 2

    res = integrate_kernel(g, a, mu, lam)
    closed = a * a * oberhettinger_closed_form(a, mu, lam + 2.0)
    assert res.converged
    assert rel(res.value, closed) <= 1e-15
    assert abs(res.value - closed) <= res.error_estimate
    assert (res.evaluations, res.panels_used, res.cutoff_theta) == (100, 5, 4.0)
    res = integrate_kernel(lambda x: (a / kernel_factor(x, a)) ** 0.3, a, mu, lam)
    assert res.converged and res.cutoff_theta > 4.0


def test_tail_moves_out_where_g_swings_in_log_x():
    # 2 + cos(log(1 + x)) swings with period ~2 pi in theta, so the tail's
    # phi oscillates in log s up to s = 0, which no polynomial follows:
    # the tail's estimate moves its start out, to theta = 18.8, in 260
    # calls of g (17.4 and 227 with 21-point panels between the ends),
    # against a 30-digit reference.
    def g(x):
        return 2.0 + math.cos(math.log1p(x))

    res = integrate_kernel(g, 1.0, 0.75, 2.0)
    reference = mp_kernel_integral(lambda x: 2 + mp.cos(mp.log1p(x)), 1.0, 0.75, 2.0)
    assert res.converged
    assert abs(res.value - reference) <= min(res.error_estimate, 1e-13 * abs(reference))
    assert (res.value.imag, res.evaluations, res.panels_used) == (0.0, 260, 9)
    assert res.cutoff_theta == 18.830932271324325


def test_tail_cutoff_cap_binds():
    # g = cos(3x) oscillates ever faster in theta and is never resolved.
    # At a kernel rate of 0.01 the tail's estimate moves its start to the
    # cap, where s = e^-theta at its deepest node is still a normal float
    # (past theta ~ 745 s underflows to 0), and the tail can move no
    # further: the result is flagged, and nothing is raised.
    res = integrate_kernel(lambda x: math.cos(3.0 * x), 1.0, 0.9, 0.91)
    assert res.cutoff_theta == _THETA_MAX == 700.0
    assert not res.converged and res.stop_reason == "tail at theta max"
    assert res.evaluations < 1000
    assert math.isfinite(res.value.real) and math.isfinite(res.error_estimate)


def test_unit_panel_integrates_polynomials_exactly():
    # The weight-1 rule is interpolatory at its 20 Chebyshev points, so a
    # panel integrates t^d exactly through d = 19: at mu = 1, lambda = 0
    # the kernel weight is sinh t, and g = t^d / sinh t, t recovered from
    # x = a (cosh t - 1) = 2 sinh(t/2)^2 at a = 1.  T_20 of the panel's
    # own variable vanishes at every node, so degree 20 is not exact.
    lo, hi = 2.0, 2.5
    assert _UNIT_RULE[1:] == (1.0, 2.0)
    for d in range(20):
        def g(x, d=d):
            t = 2.0 * math.asinh(math.sqrt(0.5 * x))
            return t**d / math.sinh(t)

        intg = _Integrand(g, 1.0, 1 + 0j, 0j)
        _, _, value, _ = _panel(intg, lo, hi, _UNIT_RULE)
        assert intg.evaluations == _CHEB_POINTS
        exact = (hi ** (d + 1) - lo ** (d + 1)) / (d + 1)
        assert rel(value, exact) <= 1e-15, d
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)

    def chebyshev_20(x):
        t = 2.0 * math.asinh(math.sqrt(0.5 * x))
        return math.cos(20 * math.acos(max(-1.0, min(1.0, (t - mid) / half)))) / math.sinh(t)

    _, _, value, _ = _panel(_Integrand(chebyshev_20, 1.0, 1 + 0j, 0j), lo, hi, _UNIT_RULE)
    assert abs(value) <= 1e-12 < abs(half * 2 / (1 - 20**2))


def test_evaluations_count_every_call_of_g():
    calls = []

    def g(x):
        calls.append(x)
        return math.exp(-x)

    for mu, lam in ((0.5, 1.5), (1.2, 3.0)):
        calls.clear()
        res = integrate_kernel(g, 1.0, mu, lam)
        assert res.converged
        assert res.evaluations == len(calls)


# --- one panel's 20 nodes against a per-node integrand ----------------------------

def reference_geometry(t):
    """(w, log w, log sinh t) at one node, w = cosh t - 1 = 2 sinh(t/2)^2."""
    s = math.sinh(0.5 * t)
    w = 2.0 * s * s
    log_w = math.log(w) if w >= 1e-300 else math.log(2.0) + 2.0 * math.log(s)
    if t < 1e-3:
        log_sinh = math.log(t) + math.log1p(t * t / 6.0)
    else:
        log_sinh = t + math.log1p(-math.exp(-2.0 * t)) - math.log(2.0)
    return w, log_w, log_sinh


def reference_node(g, a, mu, lam, t, calls, end=None):
    """The substituted integrand at one node, node by node: kernel weight
    (cosh t - 1)^(mu-1) sinh(t) e^(-lambda t), then g unless it is 0.
    At an end, end = (b, c, log u) divides it by u^b and multiplies it by
    e^c in the exponent."""
    w, log_w, log_sinh = reference_geometry(t)
    lt = (mu - 1.0) * log_w + log_sinh - lam * t
    if end:
        b, c, log_u = end
        lt += c - b * log_u
    if lt.real > _EXP_LIMIT:
        raise RangeError("substituted integrand overflows")
    kern = cmath.exp(lt)
    if kern == 0:
        return 0j
    calls.append(a * w)
    val = kern * complex(g(a * w))
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise RangeError(f"integrand non-finite at theta = {t:.6g}")
    return val


def reference_panel(g, a, mu, lam, lo, hi):
    """(value, error estimate, calls of g) of the weight-1 rule on
    [lo, hi], summed as _panel sums: h sum W_j f_j, and the larger of
    2 h (|c_18| + |c_19|), c_k the Chebyshev coefficients of f, and
    QUADPACK's rounding floor 50 eps h sum |W_j f_j|, h = hi - lo."""
    calls = []
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = _UNIT_RULE[0]
    values = [reference_node(g, a, mu, lam, mid + half * xi, calls) for xi, *_ in nodes]
    value = c_18 = c_19 = 0j
    resabs = 0.0
    for (_, wi, vi, vi1), fi in zip(nodes, values):
        value += wi * fi
        resabs += abs(wi * fi)
        c_18 += vi * fi
        c_19 += vi1 * fi
    h = hi - lo
    return h * value, h * max(2.0 * (abs(c_18) + abs(c_19)), ROUNDING_FLOOR * resabs), calls


def panel_outcome(run):
    try:
        value, err, calls = run()
    except RangeError as exc:
        return str(exc)
    bits = (value.real.hex(), value.imag.hex(), err.hex())
    return bits, calls


def recorded_panel(g, a, mu, lam, lo, hi, rule=_UNIT_RULE):
    calls = []

    def recorded(x):
        calls.append(x)
        return g(x)

    intg = _Integrand(recorded, a, complex(mu), complex(lam))
    # A starting panel takes its import-time geometry, as integrate_kernel
    # passes it.
    geometry = {(start_lo, start_hi): geo for start_lo, start_hi, geo in _START_PANELS}.get((lo, hi))
    record = _panel(intg, lo, hi, rule, geometry)
    assert intg.evaluations == len(calls)
    assert record[:2] == (lo, hi)
    return *record[2:], calls


def wavy(x):
    return complex(math.cos(x), 0.3 * math.sin(x))


PANEL_CASES = [
    # (g, a, mu, lam, lo, hi): interior, head (t < 1e-3) and far-tail
    # panels, complex parameters, and a head so short that cosh t - 1
    # underflows.
    (lambda x: complex(math.cos(x), 0.3 * math.sin(x)), 1.5, 0.7 + 0.2j, 2.1 - 0.1j, 0.5, 2.5),
    # The weight-1 starting panels, whose node geometry is built at
    # import, and the weight-1 head on [0, 1/2] of Re(mu) <= 0, which
    # takes the weighted head's.
    (wavy, 1.5, 0.7 + 0.2j, 2.1 - 0.1j, 0.5, 1.0),
    (wavy, 1.5, 0.7 + 0.2j, 2.1 - 0.1j, 1.0, 2.0),
    (wavy, 1.5, 0.7 + 0.2j, 2.1 - 0.1j, 2.0, 4.0),
    (lambda x: x / (1.0 + x), 1.0, -0.2 + 0.3j, 2.0, 0.0, 0.5),
    (lambda x: complex(math.cos(x), 0.3 * math.sin(x)), 1.5, 0.7 + 0.2j, 2.1 - 0.1j, 0.0, 1e-4),
    (lambda x: math.exp(-1e-3 * x), 2.0, 1.3, 1.9, 30.0, 32.0),
    (lambda x: 1.0, 1.0, 0.03, 2.0, 0.0, 1e-250),
    # Real weight exponents 2t - log 2 from 707.1 to 709.7, across
    # log(DBL_MAX / 4) ~ 708.4, above which cmath.exp rounds unlike
    # math.exp (at 7 of the first panel's nodes).
    (lambda x: 1.0, 1.0, 1.0, -1.0, 354.6, 355.2),
    (lambda x: 1.0, 1.0, 1.0, -1.0, 353.9, 354.7),
]


@pytest.mark.parametrize("case", PANEL_CASES)
def test_panel_matches_per_node_integrand(case):
    expected = panel_outcome(lambda: reference_panel(*case))
    assert len(expected[1]) == _CHEB_POINTS
    assert panel_outcome(lambda: recorded_panel(*case)) == expected


def reference_end_panel(g, a, mu, lam, tail):
    """(value, error estimate, calls of g) of the head rule on [0, 1/2]
    (u = t, alpha = 2 mu) or of the tail rule from theta = 4 (u = s = e^-t
    on [0, e^-4], alpha = lambda - mu, each node at t = -log s), node by
    node and summed as _panel sums: f / u^b times e^c, b = alpha - 1 at
    the head and alpha at the tail, c = alpha log h - log alpha, h the
    width in u."""
    mu, lam = complex(mu), complex(lam)
    nodes, alpha, err_factor = _product_rule(lam - mu if tail else 2 * mu)
    b = alpha if tail else alpha - 1.0
    c = alpha * (-4.0 if tail else math.log(0.5)) - cmath.log(alpha)
    end = math.exp(-4.0) if tail else 0.5
    calls = []
    value = c_18 = c_19 = 0j
    resabs = 0.0
    for xi, wi, vi, vi1 in nodes:
        u = 0.5 * end + 0.5 * end * xi
        fi = reference_node(g, a, mu, lam, -math.log(u) if tail else u, calls, (b, c, math.log(u)))
        value += wi * fi
        resabs += abs(wi * fi)
        c_18 += vi * fi
        c_19 += vi1 * fi
    return 1.0 * value, 1.0 * max(err_factor * (abs(c_18) + abs(c_19)), ROUNDING_FLOOR * resabs), calls


@pytest.mark.parametrize("tail", [False, True])
@pytest.mark.parametrize("case", [
    # (g, a, mu, lam): complex parameters, a g with a pole at x = -1, and
    # a small mu, whose head weight t^(2 mu - 1) is steep.
    (wavy, 1.5, 0.7 + 0.2j, 2.1 - 0.1j),
    (lambda x: (1.0 + x) ** -3, 1.0, 0.75, 2.0),
    (lambda x: 1.0, 1.0, 0.03, 2.0),
])
def test_start_end_panels_match_per_node_integrand(case, tail):
    # The head on [0, 1/2] and the tail from theta = 4 take their node
    # geometry from tables built at import.
    g, a, mu, lam = case
    expected = panel_outcome(lambda: reference_end_panel(g, a, mu, lam, tail))
    assert len(expected[1]) == _CHEB_POINTS
    lo, hi = (4.0, math.inf) if tail else (0.0, 0.5)
    rule = _product_rule(complex(lam) - complex(mu) if tail else 2 * complex(mu))
    assert panel_outcome(lambda: recorded_panel(g, a, mu, lam, lo, hi, rule)) == expected


def test_start_geometry_tables_match_per_node_geometry():
    # Each import-time panel is (lo, hi, geometry), the geometry
    # (t, w, log w, log sinh t, log u) at the rule's nodes, recomputed
    # here node by node: u = t on the head, u = s = e^-t on the tail
    # (t = -log s), and log u = 0 elsewhere.
    tail_end = math.exp(-4.0)
    expected = []
    for lo, hi in ((0.0, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, 4.0), (4.0, math.inf)):
        entry = []
        for xi, *_ in _UNIT_RULE[0]:
            if hi == math.inf:
                s = 0.5 * tail_end + 0.5 * tail_end * xi
                t, log_u = -math.log(s), math.log(s)
            else:
                t = 0.5 * (hi + lo) + 0.5 * (hi - lo) * xi
                log_u = math.log(t) if lo == 0.0 else 0.0
            entry.append((t, *reference_geometry(t), log_u))
        expected.append((lo, hi, tuple(entry)))
    assert repr(_START_PANELS) == repr(tuple(expected))


def test_panel_skips_g_where_the_weight_underflows():
    # e^(-1000 t) underflows to 0 from t ~ 0.745 on: those nodes add 0
    # and are not evaluations.
    case = (lambda x: 1.0 + x, 1.0, 1.0, 1000.0, 0.7, 0.8)
    expected = panel_outcome(lambda: reference_panel(*case))
    assert 0 < len(expected[1]) < _CHEB_POINTS
    assert panel_outcome(lambda: recorded_panel(*case)) == expected


def test_panel_errors_name_the_failing_node():
    non_finite = (lambda x: math.inf if x > 1.2 else 1.0, 1.0, 0.8, 2.0, 1.0, 2.0)
    message = panel_outcome(lambda: reference_panel(*non_finite))
    assert message.startswith("integrand non-finite at theta = ")
    assert panel_outcome(lambda: recorded_panel(*non_finite)) == message
    # (cosh t - 1)^(-1.5) at t ~ 1e-300 is beyond the double range.
    overflow = (lambda x: 1.0, 1.0, -0.5, 2.0, 0.0, 1e-300)
    assert panel_outcome(lambda: reference_panel(*overflow)) == "substituted integrand overflows"
    assert panel_outcome(lambda: recorded_panel(*overflow)) == "substituted integrand overflows"


# --- the head rule: modified moments and one panel at 40 digits ----------------

def mp_moments(b):
    """M_k = int_{-1}^{1} (1+x)^b T_k(x) dx, k < N, by the closed sum
    2^(b+1) sum_i (-k)_i (k)_i / ((1/2)_i i!) B(b+1, i+1), from
    T_k(x) = 2F1(-k, k; 1/2; (1-x)/2)."""
    return [
        2 ** (b + 1) * sum(
            rf(-k, i) * rf(k, i) / (rf(mpf(1) / 2, i) * factorial(i)) * beta(b + 1, i + 1)
            for i in range(k + 1)
        )
        for k in range(_CHEB_POINTS)
    ]


@pytest.mark.parametrize("b", [-0.98, -0.5, 0.0, 0.5, 2.0, 5.0, -0.8 + 0.4j, 0.2 + 0.6j])
def test_jacobi_moments_match_the_closed_sum(b):
    # The forward recurrence, normalised by M_0, against the closed sum.
    moments = _jacobi_moments(b)
    assert len(moments) == _CHEB_POINTS
    with mp.workdps(40):
        exact = mp_moments(mpc(b) if isinstance(b, complex) else mpf(b))
        for k, m in enumerate(moments):
            assert abs(mpc(m) * exact[0] - exact[k]) <= 1e-14 * abs(exact[0]), k


def reference_head_panel(g, a, mu, lam, hi):
    """(value, coefficient bound, sum |W_j phi_j|, calls of g) of the head
    rule on [0, hi] at 40 digits, node by node: phi = f / t^(2 mu - 1) at
    the N first-kind Chebyshev points, its interpolant's coefficients c_k,
    the value (hi/2)^(2 mu) sum'_k c_k M_k = int_0^hi t^(2 mu - 1) p(t) dt
    = sum_j W_j phi_j, and the bound 2 (|c_{N-2}| + |c_{N-1}|)
    int_0^hi |t^(2 mu - 1)| dt."""
    n = _CHEB_POINTS
    calls = []
    with mp.workdps(40):
        a, mu, lam, hi = mpf(a), mpc(mu), mpc(lam), mpf(hi)
        b = 2 * mu - 1
        angles = [mp.pi * (j + mpf(1) / 2) / n for j in reversed(range(n))]
        phi = []
        for angle in angles:
            t = hi / 2 * (1 + mp.cos(angle))
            x = float(a * 2 * mp.sinh(t / 2) ** 2)
            calls.append(x)
            phi.append((2 * mp.sinh(t / 2) ** 2) ** (mu - 1) * mp.sinh(t) * mp.exp(-lam * t) * g(x) / t**b)
        c = [2 * sum(f * mp.cos(k * angle) for f, angle in zip(phi, angles)) / n for k in range(n)]
        moments = mp_moments(b)
        value = (hi / 2) ** (2 * mu) * (c[0] * moments[0] / 2 + sum(c[k] * moments[k] for k in range(1, n)))
        bound = 2 * (abs(c[-2]) + abs(c[-1])) * hi ** (2 * mu.real) / (2 * mu.real)
        weights = [
            (hi / 2) ** (2 * mu) * 2 / n * (moments[0] / 2 + sum(mp.cos(k * angle) * moments[k] for k in range(1, n)))
            for angle in angles
        ]
        resabs = sum(abs(w * f) for w, f in zip(weights, phi))
        return complex(value), float(bound), float(resabs), calls


HEAD_PANEL_CASES = [
    # (g, a, mu, lam, hi): a head far below and one above t = 1, complex
    # parameters, a smooth g, and a g with a fractional zero at 0, which
    # phi carries, so that the estimate is far above rounding noise.
    (lambda x: 1.0 + x, 1.0, 0.03, 2.0, 1e-3),
    (lambda x: 1.0, 1.0, 0.03, 2.0, 1.5),
    (lambda x: complex(math.cos(x), 0.3 * math.sin(x)), 1.5, 0.1 + 0.2j, 2.1 - 0.1j, 2.0),
    (lambda x: math.exp(-x), 2.0, 0.3, 1.9, 5.0),
    (lambda x: (x / kernel_factor(x, 1.0)) ** 0.55, 1.0, 0.75, 2.0, 0.5),
]


@pytest.mark.parametrize("case", HEAD_PANEL_CASES)
def test_head_panel_matches_node_by_node_integral(case):
    g, a, mu, lam, hi = case
    value, bound, resabs, calls = reference_head_panel(g, a, mu, lam, hi)
    estimate = max(bound, ROUNDING_FLOOR * resabs)
    seen = []

    def recorded(x):
        seen.append(x)
        return g(x)

    intg = _Integrand(recorded, a, complex(mu), complex(lam))
    lo_out, hi_out, head_value, head_estimate = _panel(intg, 0.0, hi, _product_rule(2 * complex(mu)))
    assert (lo_out, hi_out, intg.evaluations) == (0.0, hi, _CHEB_POINTS)
    assert len(seen) == _CHEB_POINTS and all(x > 0 for x in seen)
    assert max(abs(x - y) / y for x, y in zip(seen, calls)) <= 1e-13
    assert rel(head_value, value) <= 1e-13
    # The last coefficients round like the value does.
    assert abs(head_estimate - estimate) <= 1e-13 * abs(value)


def reference_tail_panel(g, a, mu, lam, theta):
    """(value, coefficient bound, calls of g) of the tail rule on
    [theta, inf) at 40 digits, in s = e^-t on [0, S], S = e^-theta:
    x = a (1-s)^2 / (2s) and f dt = s^(alpha - 1) phi(s) ds with
    alpha = lambda - mu and phi = 2^-mu (1-s)^(2 mu - 1) (1+s) g(x), taken
    from that closed form, not from t.  The value is
    (S/2)^alpha sum'_k c_k M_k, the bound 2 (|c_{N-2}| + |c_{N-1}|)
    S^Re(alpha) / Re(alpha)."""
    n = _CHEB_POINTS
    calls = []
    with mp.workdps(40):
        a, mu, lam = mpf(a), mpc(mu), mpc(lam)
        alpha = lam - mu
        end = mp.exp(-mpf(theta))
        angles = [mp.pi * (j + mpf(1) / 2) / n for j in reversed(range(n))]
        phi = []
        for angle in angles:
            s = end / 2 * (1 + mp.cos(angle))
            x = float(a * (1 - s) ** 2 / (2 * s))
            calls.append(x)
            phi.append(2 ** -mu * (1 - s) ** (2 * mu - 1) * (1 + s) * g(x))
        c = [2 * sum(f * mp.cos(k * angle) for f, angle in zip(phi, angles)) / n for k in range(n)]
        moments = mp_moments(alpha - 1)
        value = (end / 2) ** alpha * (c[0] * moments[0] / 2 + sum(c[k] * moments[k] for k in range(1, n)))
        bound = 2 * (abs(c[-2]) + abs(c[-1])) * end ** alpha.real / alpha.real
        weights = [
            (end / 2) ** alpha * 2 / n * (moments[0] / 2 + sum(mp.cos(k * angle) * moments[k] for k in range(1, n)))
            for angle in angles
        ]
        resabs = sum(abs(w * f) for w, f in zip(weights, phi))
        return complex(value), float(bound), float(resabs), calls


TAIL_PANEL_CASES = [
    # (g, a, mu, lam, theta): the first tail, complex parameters, a g
    # that swings in log x, a slow kernel rate, and a tail far out.
    (lambda x: 1.0, 1.0, 0.75, 2.0, 4.0),
    (lambda x: complex(math.cos(x), 0.3 * math.sin(x)), 1.5, 0.1 + 0.2j, 2.1 - 0.1j, 4.0),
    (lambda x: 2.0 + math.cos(math.log1p(x)), 1.0, 0.75, 2.0, 9.5),
    (lambda x: kernel_factor(x, 2.0) ** -0.3, 2.0, 0.75, 0.76, 4.0),
    (lambda x: 1.0, 1.0, 0.9, 0.91, 650.0),
]


@pytest.mark.parametrize("case", TAIL_PANEL_CASES)
def test_tail_panel_matches_node_by_node_integral(case):
    g, a, mu, lam, theta = case
    value, bound, resabs, calls = reference_tail_panel(g, a, mu, lam, theta)
    seen = []

    def recorded(x):
        seen.append(x)
        return g(x)

    intg = _Integrand(recorded, a, complex(mu), complex(lam))
    lo_out, hi_out, tail_value, tail_estimate = _panel(
        intg, theta, math.inf, _product_rule(complex(lam) - complex(mu))
    )
    assert (lo_out, hi_out, intg.evaluations) == (theta, math.inf, _CHEB_POINTS)
    # Each node's t = -log s rounds by up to theta u, which moves x and
    # the node's exponent by that much (5e-14 at theta = 650).
    assert max(abs(x - y) / y for x, y in zip(seen, calls)) <= 1e-13
    assert rel(tail_value, value) <= 1e-13
    estimate = max(bound, ROUNDING_FLOOR * resabs)
    assert abs(tail_estimate - estimate) <= 1e-12 * max(abs(value), estimate)


def test_rounding_floor_bounds_every_estimate():
    # QUADPACK's floor: no panel's estimate is below 50 eps sum |w f|.
    # At g = (1 + x)^-3, mu = 0.75, lambda = 2, the panel [0.5, 1] has a
    # coefficient bound of 1.1e-16 under a floor of 6.8e-16, and at
    # mu = 0.02, lambda = 2.02 the head on [0, 0.5] one of 4.0e-14 under a
    # floor of 1.0e-12: its weights W_j alternate, and the sum rounds at
    # the scale of sum |W_j phi_j|.
    def g(x):
        return (1.0 + x) ** -3

    a = 1.0
    nodes = _UNIT_RULE[0]
    for mu, lam in ((0.75, 2.0), (0.02, 2.02)):
        intg = _Integrand(g, a, complex(mu), complex(lam))
        for lo, hi in ((0.5, 1.0), (1.0, 2.0), (2.0, 4.0)):
            half = 0.5 * (hi - lo)
            values = [reference_node(g, a, mu, lam, 0.5 * (hi + lo) + half * xi, []) for xi, *_ in nodes]
            floor = ROUNDING_FLOOR * (hi - lo) * sum(abs(w * f) for (_, w, _, _), f in zip(nodes, values))
            _, _, _, estimate = _panel(intg, lo, hi, _UNIT_RULE)
            assert estimate >= floor, (mu, lo, hi)
            if (mu, lo) == (0.75, 0.5):
                assert estimate == floor
    _, bound, resabs, _ = reference_head_panel(g, a, mu, lam, 0.5)
    _, _, _, estimate = _panel(intg, 0.0, 0.5, _product_rule(2 * complex(mu)))
    assert bound < 0.1 * ROUNDING_FLOOR * resabs
    assert estimate >= ROUNDING_FLOOR * resabs * (1 - 1e-13)


def test_head_panel_integrates_the_endpoint_power():
    # One head panel of g = 1 at lambda = 0 on [0, 1e-3] against
    # int_0^h (cosh t - 1)^(mu-1) sinh t dt = (cosh h - 1)^mu / mu, where
    # a weight-1 panel is off by 0.27 % (mu = 0.3) to 60 % (mu = 0.03).
    # The rule takes b + 1 as alpha = 2 mu exactly: (2 mu - 1) + 1 is
    # 0.040000000000000036 at mu = 0.02.
    assert _product_rule(2 * (0.02 + 0j))[1] == 0.04
    h = 1e-3
    for mu in (0.03, 0.1, 0.3, 0.1 + 0.2j):
        exact = (2 * math.sinh(h / 2) ** 2) ** mu / mu
        intg = _Integrand(lambda x: 1.0, 1.0, complex(mu), 0j)
        _, _, value, _ = _panel(intg, 0.0, h, _product_rule(2 * complex(mu)))
        assert rel(value, exact) <= 1e-14, mu
        _, _, plain, _ = _panel(intg, 0.0, h, _UNIT_RULE)
        assert rel(plain, exact) > 2e-3, mu
