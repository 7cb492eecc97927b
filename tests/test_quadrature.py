import math

import pytest
from mpmath import mp, mpf
from numpy.polynomial.legendre import leggauss

from struveint import (
    DomainError,
    QuadControl,
    RangeError,
    integrate_kernel,
    kernel_factor,
    oberhettinger_closed_form,
)
from struveint.quadrature import (
    _GAUSS_POINTS,
    _GAUSS_WEIGHTS,
    _KRONROD,
    _THETA_CAP,
    _head_bound,
    _Integrand,
)

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
    # At mu = 0.03 head bisection reaches nodes where cosh t - 1
    # underflows to 0.
    for a, mu, lam in ((2.0, 0.5, 1.5), (1.0, 0.03, 2.0)):
        res = integrate_kernel(lambda x: 1.0, a, mu, lam)
        assert res.converged, mu
        assert rel(res.value, oberhettinger_closed_form(a, mu, lam)) < 1e-11, mu


@pytest.mark.parametrize("mu", [0.02, 0.01])
def test_tiny_mu_endpoint_is_range_error(mu):
    # The head needs panels so short that the t^(2 mu - 2) endpoint
    # factor overflows: a typed error, not a leaked math domain error.
    with pytest.raises(RangeError, match="substituted integrand overflows"):
        integrate_kernel(lambda x: 1.0, 1.0, mu, 2.0)


def test_head_bound_past_cosh_underflow():
    # (cosh h - 1)^mu taken as 0.0 ** mu would bound the head by 0.
    intg = _Integrand(lambda x: 1.0, 1.0, 0.03 + 0j, 2.0 + 0j)
    for h in (1e-150, 1e-200, 1e-300):
        # cosh h - 1 = h^2 / 2 to double precision here.
        expected = 2.0 * math.exp(0.03 * (2.0 * math.log(h) - math.log(2.0))) / 0.03
        assert rel(_head_bound(intg, h), expected) < 1e-12, h


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
    assert 0.0 < res.cutoff_theta <= _THETA_CAP


def test_panel_budget_exhaustion_flags_result():
    ctl = QuadControl(rel_tol=1e-13, abs_tol=1e-30, max_panels=4)
    res = integrate_kernel(lambda x: 1.0, 1.0, 0.3, 1.1, ctl)
    assert not res.converged
    # Still a usable estimate of the right magnitude.
    closed = oberhettinger_closed_form(1.0, 0.3, 1.1)
    assert rel(res.value, closed) < 0.1


def test_panel_cap_limits_refinement_not_layout():
    # max_panels caps refinement only: the initial layout is always
    # evaluated, and the last round splits just enough panels to reach
    # the cap exactly (at cap 29 the last round wants two splits and
    # gets one).
    for cap, expected in ((1, 16), (29, 29), (30, 30)):
        ctl = QuadControl(rel_tol=1e-13, abs_tol=1e-30, max_panels=cap)
        res = integrate_kernel(lambda x: 1.0, 1.0, 0.3, 1.1, ctl)
        assert not res.converged
        assert res.panels_used == expected, cap


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


def test_tail_cutoff_cap_binds():
    # Decay rate 0.1: the envelope would certify the tail only well past
    # the cap, so the cutoff stops at the cap and the result is flagged.
    res = integrate_kernel(lambda x: 1.0, 1.0, 1.0, 1.1)
    assert res.cutoff_theta == _THETA_CAP == 200.0
    assert not res.converged


def test_kronrod_rule_polynomial_exactness():
    n = _GAUSS_POINTS
    assert len(_KRONROD) == 2 * n + 1
    for d in range(3 * n + 2):
        approx = sum(w * x**d for x, w in _KRONROD)
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert abs(approx - exact) <= 1e-14, d


def test_kronrod_table_is_the_nearest_doubles():
    # Solve the rule at 40 digits: the Gauss nodes are the roots of P_7,
    # with weights 2 / ((1 - x^2) P_7'(x)^2); the other four positive
    # nodes and the eight Kronrod weights of x >= 0 solve the even-degree
    # exactness equations 0..22, seeded with the table.
    half = _KRONROD[_GAUSS_POINTS:][::-1]
    with mp.workdps(40):
        gauss = [mp.findroot(lambda x: mp.legendre(7, x), half[i][0]) for i in (1, 3, 5)]
        gauss_weights = [
            2 / ((1 - x**2) * mp.diff(lambda t: mp.legendre(7, t), x) ** 2)
            for x in gauss + [mpf(0)]
        ]

        def nodes(extra):
            return [extra[0], gauss[0], extra[1], gauss[1], extra[2], gauss[2], extra[3], mpf(0)]

        def residuals(*unknowns):
            # Every node but the centre stands for itself and its mirror.
            pairs = zip(nodes(unknowns[:4]), unknowns[4:], [2] * 7 + [1])
            terms = [(x * x, m * w) for x, w, m in pairs]
            return [sum(mw * x2**j for x2, mw in terms) - mpf(2) / (2 * j + 1) for j in range(12)]

        seed = [half[i][0] for i in (0, 2, 4, 6)] + [w for _, w in half]
        solved = mp.findroot(residuals, seed)
        exact = list(zip(nodes(solved[:4]), solved[4:]))
    for (x, w), (x40, w40) in zip(half, exact):
        assert (x, w) == (float(x40), float(w40)), x
    assert list(_GAUSS_WEIGHTS[_GAUSS_POINTS // 2:]) == [float(w) for w in gauss_weights[::-1]]


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
