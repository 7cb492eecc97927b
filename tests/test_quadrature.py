import math

import pytest
from numpy.polynomial.legendre import leggauss

from struveint import (
    DomainError,
    QuadControl,
    TailPolicy,
    integrate_kernel,
    kernel_factor,
    oberhettinger_closed_form,
)
from struveint.quadrature import _GAUSS_POINTS, _GAUSS_WEIGHTS, _KRONROD

BASE_GRID = [
    (a, mu, lam)
    for a in (0.5, 1.0, 2.0)
    for mu in (0.3, 1.0, 1.7)
    for lam in (mu + 0.5, mu + 2.0)
]


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


def test_unit_integrand_analytic_value():
    # After the cosh substitution the a=1, mu=1, lambda=2 case is
    # int_0^inf e^(-2t) sinh t dt = 1/3.
    res = integrate_kernel(lambda x: 1.0, 1.0, 1.0, 2.0)
    assert res.converged
    assert rel(res.value, 1.0 / 3.0) < 1e-11
    assert abs(res.value - 1.0 / 3.0) <= res.error_estimate


def test_unit_integrand_vs_closed_form_singular_endpoint():
    res = integrate_kernel(lambda x: 1.0, 2.0, 0.5, 1.5)
    assert res.converged
    assert rel(res.value, oberhettinger_closed_form(2.0, 0.5, 1.5)) < 1e-11


def test_zero_integrand():
    res = integrate_kernel(lambda x: 0.0, 1.0, 0.7, 2.0)
    assert res.value == 0
    assert res.error_estimate == 0.0
    assert res.converged


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
            ctl = QuadControl(rel_tol=tol, abs_tol=1e-18)
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


def test_error_estimate_is_conservative_on_grid():
    for a, mu, lam in BASE_GRID:
        res = integrate_kernel(lambda x: 1.0, a, mu, lam)
        closed = oberhettinger_closed_form(a, mu, lam)
        assert abs(res.value - closed) <= res.error_estimate, (a, mu, lam)


def test_result_invariants():
    ctl = QuadControl(max_panels=500)
    res = integrate_kernel(lambda x: 1.0, 1.0, 0.3, 1.1, ctl)
    assert res.error_estimate >= 0.0
    assert res.panels_used <= ctl.max_panels
    assert 0.0 < res.cutoff_theta <= ctl.theta_cutoff_policy.theta_cap


def test_panel_budget_exhaustion_flags_result():
    ctl = QuadControl(rel_tol=1e-13, abs_tol=1e-30, max_panels=4)
    res = integrate_kernel(lambda x: 1.0, 1.0, 0.3, 1.1, ctl)
    assert not res.converged
    # Still a usable estimate of the right magnitude.
    closed = oberhettinger_closed_form(1.0, 0.3, 1.1)
    assert rel(res.value, closed) < 0.1


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
        with pytest.raises(DomainError):
            QuadControl(abs_tol=bad)
    with pytest.raises(DomainError):
        QuadControl(max_panels=0)
    with pytest.raises(DomainError):
        integrate_kernel(lambda x: 1.0, 0.0, 1.0, 2.0)


def test_kernel_factor_substitution_identity():
    # x = a (cosh t - 1) maps the kernel base to a e^t exactly.
    for a in (0.5, 1.0, 3.0):
        x = a * (math.cosh(1.0) - 1.0)
        assert rel(kernel_factor(x, a), a * math.e) < 1e-14


def test_tail_policy_cap_respected():
    pol = TailPolicy(theta_cap=30.0)
    ctl = QuadControl(theta_cutoff_policy=pol)
    res = integrate_kernel(lambda x: 1.0, 1.0, 1.0, 1.6, ctl)
    assert res.cutoff_theta <= 30.0


def test_kronrod_rule_polynomial_exactness():
    n = _GAUSS_POINTS
    assert len(_KRONROD) == 2 * n + 1
    for d in range(3 * n + 2):
        approx = sum(w * x**d for x, w in _KRONROD)
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert abs(approx - exact) <= 1e-14, d


def test_kronrod_rule_embeds_gauss_and_is_positive_symmetric():
    nodes = [x for x, _ in _KRONROD]
    weights = [w for _, w in _KRONROD]
    gauss_nodes, gauss_weights = leggauss(_GAUSS_POINTS)
    assert max(abs(x - g) for x, g in zip(nodes[1::2], gauss_nodes)) <= 1e-15
    assert max(abs(w - g) for w, g in zip(_GAUSS_WEIGHTS, gauss_weights)) <= 1e-14
    assert nodes == sorted(nodes) and -1.0 < nodes[0]
    assert all(w > 0 for w in weights + list(_GAUSS_WEIGHTS))
    assert nodes == [-x for x in reversed(nodes)]
    assert weights == weights[::-1]
    assert list(_GAUSS_WEIGHTS) == list(_GAUSS_WEIGHTS)[::-1]


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
