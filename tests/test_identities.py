import math
import random

import pytest

import oracle
from struveint import (
    DomainError,
    IntegralCase,
    gamma,
    kernel_factor,
    lauricella_eval,
    lhs_integrand,
    oberhettinger_closed_form,
    prefactor_theorem1,
    prefactor_theorem2,
    rhs_corollary,
    rhs_spec_theorem1,
    rhs_spec_theorem2,
    struve_arguments,
    verify_case,
)

CENTRAL_T1 = dict(variant="theorem1", a=1.0, lam=2.0, mu=0.75, b=1.0, c=1.0, p=(1.0,), y=(1.0,))


def rel(actual, expected):
    return abs(actual - expected) / abs(expected)


def make_case(**overrides):
    kwargs = dict(CENTRAL_T1)
    kwargs.update(overrides)
    return IntegralCase(**kwargs)


# --- case validation -------------------------------------------------------------

def test_condition_enforcement_names_inequality():
    with pytest.raises(DomainError, match=r"0 < Re\(mu\)"):
        make_case(mu=-0.5)
    with pytest.raises(DomainError, match=r"Re\(mu\) < Re\(lambda \+ p_sum\) \+ n"):
        make_case(mu=5.0)
    with pytest.raises(DomainError, match=r"Re\(mu \+ p_sum\) > -n"):
        IntegralCase("theorem2", a=1.0, lam=3.0, mu=-3.0, b=1.0, c=1.0, p=(1.0,), y=(1.0,))
    with pytest.raises(DomainError, match=r"Re\(lambda\) > Re\(mu\)"):
        IntegralCase("theorem2", a=1.0, lam=0.5, mu=0.8, b=1.0, c=1.0, p=(1.0,), y=(1.0,))
    with pytest.raises(DomainError, match="a > 0"):
        make_case(a=-1.0)
    with pytest.raises(DomainError, match="y_j > 0"):
        make_case(y=(0.0,))
    with pytest.raises(DomainError, match="length"):
        make_case(p=(1.0, 2.0))
    with pytest.raises(DomainError, match="variant"):
        make_case(variant="theorem3")


def test_theorem2_boundary_in_mu_is_accepted():
    # Re(mu) may go non-positive as long as Re(mu + p_sum) > -n.
    case = IntegralCase("theorem2", a=1.0, lam=3.0, mu=-0.2, b=1.0, c=1.0, p=(1.0,), y=(1.0,))
    assert case.p_sum == 1.0


# --- prefactors ------------------------------------------------------------------

def test_prefactor_theorem1_matches_printed_corollary_form():
    case = make_case()
    p, y, lam, mu, b, a = 1.0, 1.0, 2.0, 0.75, 1.0, 1.0
    printed = (
        (1 + lam + p)
        * 2.0 ** (-mu - p)
        * a ** (mu - 1 - lam - p)
        * y ** (p + 1)
        * gamma(2 * mu)
        * gamma(1 + lam + p - mu)
        / (gamma(1.5) * gamma(2 + lam + p + mu) * gamma(1 + b / 2 + p))
    )
    assert rel(prefactor_theorem1(case), printed) < 1e-13


def test_prefactor_vanishes_with_y():
    small = make_case(y=(1e-6,))
    ratio = prefactor_theorem1(small) / prefactor_theorem1(make_case())
    assert rel(ratio, (1e-6) ** 2.0) < 1e-10  # y^(p+1) with p = 1


def test_prefactor_theorem1_n2_oracle():
    case = IntegralCase(
        "theorem1", a=1.5, lam=2.5, mu=0.9, b=0.7, c=1.0, p=(0.5, 1.2), y=(0.8, 1.1)
    )
    ref = oracle.prefactor_fixed_argument(1.5, 2.5, 0.9, 0.7, (0.5, 1.2), (0.8, 1.1))
    assert rel(prefactor_theorem1(case), ref) < 1e-13


def test_prefactor_theorem2_n3_oracle():
    case = IntegralCase(
        "theorem2", a=2.0, lam=4.0, mu=0.8, b=1.3, c=1.0,
        p=(0.5, 1.0, 1.5), y=(0.5, 1.0, 1.5),
    )
    ref = oracle.prefactor_scaled_argument(2.0, 4.0, 0.8, 1.3, (0.5, 1.0, 1.5), (0.5, 1.0, 1.5))
    assert rel(prefactor_theorem2(case), ref) < 1e-13


def test_prefactor_variant_guard():
    t2 = IntegralCase("theorem2", a=1.0, lam=3.0, mu=0.6, b=1.0, c=1.0, p=(0.5,), y=(1.0,))
    with pytest.raises(DomainError):
        prefactor_theorem1(t2)
    with pytest.raises(DomainError):
        prefactor_theorem2(make_case())


# --- series specs ----------------------------------------------------------------

def test_rhs_specs_have_margin_two():
    t1_spec, z1 = rhs_spec_theorem1(make_case())
    assert t1_spec.convergence_margins() == (2.0,)
    assert z1 == (-0.25,)
    t2 = IntegralCase("theorem2", a=1.0, lam=3.0, mu=0.6, b=1.0, c=1.0, p=(0.5, 1.0), y=(0.5, 1.0))
    t2_spec, z2 = rhs_spec_theorem2(t2)
    assert t2_spec.convergence_margins() == (2.0, 2.0)
    assert z2 == (-0.015625, -0.0625)


def test_rhs_c_zero_collapses_to_prefactor():
    case = make_case(c=0.0)
    spec, z = rhs_spec_theorem1(case)
    assert all(v == 0 for v in z)
    assert lauricella_eval(spec, z) == 1


def test_corollary1_equals_theorem1_series_route():
    case = make_case()
    spec, z = rhs_spec_theorem1(case)
    via_theorem = prefactor_theorem1(case) * lauricella_eval(spec, z)
    via_corollary = rhs_corollary(case, 1)
    assert rel(via_corollary, via_theorem) < 1e-12


def test_corollary2_equals_theorem2_series_route():
    case = IntegralCase("theorem2", a=1.25, lam=3.2, mu=0.7, b=0.9, c=1.0, p=(0.8,), y=(1.3,))
    spec, z = rhs_spec_theorem2(case)
    via_theorem = prefactor_theorem2(case) * lauricella_eval(spec, z)
    via_corollary = rhs_corollary(case, 2)
    assert rel(via_corollary, via_theorem) < 1e-12


def test_corollary_equivalence_random_parameters():
    rng = random.Random(20240920)
    for _ in range(20):
        a = rng.uniform(0.5, 2.0)
        y = rng.uniform(0.3, 1.8)
        b = rng.uniform(-0.9, 2.0)
        c = rng.uniform(-1.0, 1.0)
        p = rng.uniform(0.25, 2.0)
        lam = rng.uniform(1.5, 4.0)
        mu = rng.uniform(0.1, min(lam + p + 1 - 0.1, 2.0))
        case = IntegralCase("theorem1", a=a, lam=lam, mu=mu, b=b, c=c, p=(p,), y=(y,))
        spec, z = rhs_spec_theorem1(case)
        via_theorem = prefactor_theorem1(case) * lauricella_eval(spec, z)
        assert abs(rhs_corollary(case, 1) - via_theorem) <= 1e-12 * abs(via_theorem)

        lam2 = mu + rng.uniform(0.5, 3.0)
        case2 = IntegralCase("theorem2", a=a, lam=lam2, mu=mu, b=b, c=c, p=(p,), y=(y,))
        spec2, z2 = rhs_spec_theorem2(case2)
        via_theorem2 = prefactor_theorem2(case2) * lauricella_eval(spec2, z2)
        assert abs(rhs_corollary(case2, 2) - via_theorem2) <= 1e-12 * abs(via_theorem2)


def test_specialized_corollaries_match_general_ones():
    case1 = make_case(b=-1.0, c=1.0)
    assert rel(rhs_corollary(case1, 3), rhs_corollary(case1, 1)) < 1e-13
    case2 = IntegralCase("theorem2", a=1.0, lam=3.0, mu=0.6, b=-1.0, c=1.0, p=(0.5,), y=(1.0,))
    assert rel(rhs_corollary(case2, 4), rhs_corollary(case2, 2)) < 1e-13


def test_corollary_precondition_errors():
    with pytest.raises(DomainError, match="n = 1"):
        rhs_corollary(
            IntegralCase("theorem1", a=1.0, lam=3.0, mu=0.75, b=1.0, c=1.0, p=(0.5, 1.0), y=(1.0, 1.0)),
            1,
        )
    with pytest.raises(DomainError, match="b = -1 and c = 1"):
        rhs_corollary(make_case(), 3)
    with pytest.raises(DomainError, match="theorem2"):
        rhs_corollary(make_case(), 2)
    with pytest.raises(DomainError):
        rhs_corollary(make_case(), 5)


# --- integrand -------------------------------------------------------------------

def test_integrand_far_field_power_law():
    # Kernel ~ 2x and each Struve factor ~ x^-(p_j+1) at infinity, so the
    # integrand decays like x^(mu - lambda - p_sum - n - 1).
    case = make_case()
    exponent = (case.mu - case.lam - case.p_sum - case.n - 1).real
    v1 = abs(lhs_integrand(case, 1e6))
    v2 = abs(lhs_integrand(case, 2e6))
    assert abs(v2 / v1 - 2.0**exponent) < 1e-3
    assert v1 < 1e-12  # decays under the validity condition


def test_theorem2_argument_saturates():
    case = IntegralCase("theorem2", a=1.0, lam=3.0, mu=0.6, b=1.0, c=1.0, p=(0.5, 1.0), y=(0.5, 1.0))
    args = struve_arguments(case, 1e8)
    for u, yj in zip(args, case.y):
        assert abs(u - yj / 2.0) <= 1e-7 * yj


def test_integrand_substitution_identity():
    case = make_case(a=1.5)
    x = case.a * (math.cosh(1.0) - 1.0)
    assert rel(kernel_factor(x, case.a), case.a * math.e) < 1e-14


def test_integrand_requires_positive_x():
    with pytest.raises(DomainError):
        lhs_integrand(make_case(), 0.0)


# --- verify_case -----------------------------------------------------------------

def test_verify_central_case():
    rep = verify_case(make_case())
    assert rep.passed
    assert rep.rel_err <= 1e-6
    assert rep.lhs_diag["converged"]
    assert rep.lhs_diag["evaluations"] <= 1300
    assert rep.rhs_diag["shells"] >= 3
    assert rep.reason is None


def test_verify_c_zero_reduces_to_oberhettinger():
    # With c = 0 each Struve factor is its k = 0 term and the whole
    # left side is a closed-form kernel integral with shifted exponent.
    case = make_case(c=0.0)
    rep = verify_case(case, tol=1e-10)
    assert rep.passed
    shift = case.p_sum + case.n
    closed = oberhettinger_closed_form(case.a, case.mu, case.lam + shift)
    expected = closed
    for pj, yj in zip(case.p, case.y):
        expected *= (yj / 2.0) ** (pj + 1) / (gamma(1.5) * gamma(pj + (case.b + 2) / 2))
    assert rel(rep.lhs, expected) < 1e-10
    assert rel(rep.rhs, expected) < 1e-13


def test_verify_theorem2_case():
    case = IntegralCase("theorem2", a=1.0, lam=3.0, mu=0.6, b=1.0, c=1.0, p=(0.5, 1.0), y=(0.5, 1.0))
    rep = verify_case(case)
    assert rep.passed
    assert rep.rel_err <= 1e-6


def test_verify_specialized_struve_cases_end_to_end():
    # b = -1, c = 1 instances: quadrature against the corollary-3/4
    # series routes as well as the general machinery.
    case1 = make_case(b=-1.0, c=1.0)
    rep1 = verify_case(case1)
    assert rep1.passed
    assert rel(rhs_corollary(case1, 3), rep1.lhs) < 1e-9
    case2 = IntegralCase("theorem2", a=1.0, lam=3.0, mu=0.6, b=-1.0, c=1.0, p=(0.5,), y=(1.0,))
    rep2 = verify_case(case2)
    assert rep2.passed
    assert rel(rhs_corollary(case2, 4), rep2.lhs) < 1e-9


def test_verify_records_failure_instead_of_raising():
    # Unreachable tolerance inside a starved quadrature budget: the
    # report carries the reason, no exception escapes.
    from struveint import QuadControl

    case = make_case()
    rep = verify_case(case, qctl=QuadControl(rel_tol=1e-14, abs_tol=1e-30, max_panels=3))
    assert not rep.passed
    assert rep.reason is not None


def test_verify_rejects_tolerance_outside_open_interval():
    for bad in (0.0, -1e-6, math.inf, math.nan):
        with pytest.raises(DomainError):
            verify_case(make_case(), tol=bad)


def test_verify_independent_routes_disagree_when_tampered():
    # Sanity guard on the comparison logic itself: a wrong tolerance
    # cannot turn a mismatched pair into a pass.
    case = make_case()
    rep = verify_case(case, tol=1e-20)
    assert not rep.passed
    assert "exceeds tolerance" in rep.reason
