import math
import pickle
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from struveint import (
    DomainError,
    IntegralCase,
    RangeError,
    StruveParams,
    gamma,
    identities,
    integrate_kernel,
    kernel_factor,
    lauricella_eval,
    lauricella_eval_full,
    lhs_integrand,
    oberhettinger_closed_form,
    prefactor_theorem1,
    prefactor_theorem2,
    rhs_corollary,
    rhs_spec_theorem1,
    rhs_spec_theorem2,
    struve_arguments,
    struve_w_full,
    verify_case,
)
from struveint.errors import StruveintError
from struveint.identities import _struve_product
from struveint.quadrature import QuadResult
from struveint.series import DEFAULT_CONTROL, _w_table

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
    # n=True used to be stored as given, and n=1.0 built a case.
    for bad in (True, 1.0):
        with pytest.raises(DomainError, match="n must be an int"):
            make_case(n=bad)


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


@pytest.mark.parametrize("imag", [0.0, 0.3])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("variant", ["theorem1", "theorem2"])
def test_right_side_is_oberhettinger_at_shifted_arguments(variant, n, imag):
    # Both right sides are Oberhettinger's ratio O(a, mu', lam'), with
    # mu' = mu + sigma (P + n), lam' = lam + P + n, sigma 0 for theorem1
    # and 1 for theorem2; shell K's global block is how O moves to
    # (mu' + 2 sigma K, lam' + 2K), its powers of 2 and a put in z.
    sigma = int(variant == "theorem2")
    p = tuple(complex(v, imag * (-1) ** j) for j, v in enumerate((0.7, 1.2, 0.4)[:n]))
    y = (0.8, 1.5, 0.6)[:n]
    case = IntegralCase(variant, a=1.7, lam=complex(3.1, -imag), mu=complex(0.9, imag / 2),
                        b=0.6, c=1.0, p=p, y=y)
    mu1, lam1 = case.mu + sigma * (case.p_sum + n), case.lam + case.p_sum + n
    base = oberhettinger_closed_form(case.a, mu1, lam1)
    expected = base
    for pj, yj in zip(p, y):
        expected *= (yj / 2) ** (pj + 1) / (gamma(1.5) * gamma(pj + (case.b + 2) / 2))
    prefactor, rhs_spec = ((prefactor_theorem2, rhs_spec_theorem2) if sigma
                           else (prefactor_theorem1, rhs_spec_theorem1))
    assert rel(prefactor(case), expected) < 1e-13
    spec, _ = rhs_spec(case)
    z_power = 4.0 ** -sigma * case.a ** (2 * sigma - 2)
    for k in (1, 2):
        block = 1
        for rows, sign in ((spec.global_upper, 1), (spec.global_lower, -1)):
            for q, e in rows:
                block *= (gamma(q + e[0] * k) / gamma(q)) ** sign
        moved = oberhettinger_closed_form(case.a, mu1 + 2 * sigma * k, lam1 + 2 * k)
        assert rel(block, moved / base / z_power ** k) < 1e-13


def test_prefactor_overflow_is_range_error():
    # a^(mu - lam - P - n) at a = 1e-300 is far beyond the double range.
    for variant, prefactor in (("theorem1", prefactor_theorem1), ("theorem2", prefactor_theorem2)):
        with pytest.raises(RangeError, match="prefactor overflows double precision"):
            prefactor(make_case(variant=variant, a=1e-300))


def test_prefactor_variant_guard():
    t2 = IntegralCase("theorem2", a=1.0, lam=3.0, mu=0.6, b=1.0, c=1.0, p=(0.5,), y=(1.0,))
    with pytest.raises(DomainError):
        prefactor_theorem1(t2)
    with pytest.raises(DomainError):
        prefactor_theorem2(make_case())
    with pytest.raises(DomainError, match="rhs_spec_theorem1 requires a theorem1 case"):
        rhs_spec_theorem1(t2)
    with pytest.raises(DomainError, match="rhs_spec_theorem2 requires a theorem2 case"):
        rhs_spec_theorem2(make_case())


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


def pinned_case(variant, n, **overrides):
    kwargs = dict(a=1.0, lam=2.0, mu=0.75, b=1.0, c=1.0, p=(1.0, 0.5, 1.5)[:n], y=(1.0, 2.0, 0.5)[:n])
    kwargs.update(overrides)
    return IntegralCase(variant, **kwargs)


# beta = p + (b+2)/2 = -0.3 < 0: a per-variable lower parameter off the
# float path, whose log Gamma has an imaginary part.
NEGATIVE_BETA = dict(b=-1.0, p=(-0.8,))


@pytest.mark.parametrize(
    "variant, n, overrides, expected, terms",
    [
        ("theorem1", 1, {}, ("0x1.ee1c751a53734p-1", "0x0.0p+0"), 11),
        ("theorem1", 2, {}, ("0x1.8eac692cc6b50p-1", "0x0.0p+0"), 15),
        ("theorem1", 3, {}, ("0x1.7bcddf605f5cfp-1", "0x0.0p+0"), 15),
        ("theorem2", 1, {}, ("0x1.fbe9ff7f32c6bp-1", "0x0.0p+0"), 10),
        ("theorem2", 2, {}, ("0x1.e2282fee8e480p-1", "0x0.0p+0"), 12),
        ("theorem2", 3, {}, ("0x1.db828bb2e9513p-1", "0x0.0p+0"), 12),
        ("theorem1", 1, {"lam": 2.0 + 0.3j}, ("0x1.ee135d9325938p-1", "-0x1.75d74f2151f85p-10"), 11),
        ("theorem2", 2, {"lam": 2.5 - 0.4j}, ("0x1.e7634bb059070p-1", "-0x1.bce856bd1ca4dp-8"), 12),
        ("theorem1", 1, NEGATIVE_BETA, ("0x1.2d92e781c9795p+0", "0x1.922ab7516578dp-56"), 12),
        ("theorem2", 1, NEGATIVE_BETA, ("0x1.07785939c6700p+0", "0x1.07ae2818e91a4p-58"), 10),
    ],
)
def test_lauricella_right_side_bits_pinned(variant, n, overrides, expected, terms):
    # Values of the complex log_gamma sum; real positive blocks now take
    # math.lgamma in floats and must give the same bits.
    case = pinned_case(variant, n, **overrides)
    spec, z = rhs_spec_theorem1(case) if variant == "theorem1" else rhs_spec_theorem2(case)
    result = lauricella_eval_full(spec, z)
    assert (result.value.real.hex(), result.value.imag.hex()) == expected
    assert result.terms == terms


@pytest.mark.parametrize(
    "which, variant, overrides, expected",
    [
        (1, "theorem1", {}, ("0x1.c9aff4081a2b6p-6", "0x0.0p+0")),
        (2, "theorem2", {}, ("0x1.fd1c4e916729fp-9", "0x0.0p+0")),
        (3, "theorem1", {"b": -1.0}, ("0x1.4f21eab8bf536p-5", "0x0.0p+0")),
        (4, "theorem2", {"b": -1.0}, ("0x1.7bcb59c0ee9e4p-8", "0x0.0p+0")),
        (1, "theorem1", {"lam": 2.0 + 0.3j}, ("0x1.c43bf8abee11cp-6", "-0x1.b0ab323e76afep-9")),
        (2, "theorem2", {"lam": 2.5 - 0.4j}, ("0x1.490b6d2e0a5d5p-10", "0x1.daa39e0e3451fp-11")),
        (1, "theorem1", NEGATIVE_BETA, ("-0x1.8f1306b473894p-4", "0x1.b834554c83519p-57")),
        (2, "theorem2", NEGATIVE_BETA, ("-0x1.057bf6a2f41e0p-4", "0x1.18418187bc051p-57")),
    ],
)
def test_corollary_bits_pinned(which, variant, overrides, expected):
    # Corollaries 2 and 4 sum Fox-Wright terms, whose real positive
    # parameters take math.lgamma in floats.
    value = complex(rhs_corollary(pinned_case(variant, 1, **overrides), which))
    assert (value.real.hex(), value.imag.hex()) == expected


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


def test_integrand_finite_at_large_x():
    # theorem2's arguments saturate at y/2, so x^(mu-1) (2x)^(-lambda) W(y/2)
    # is the whole integrand; an overflowing kernel base would give the
    # Struve factor a zero argument.
    case = IntegralCase("theorem2", a=1.0, lam=1.0, mu=0.5, b=1.0, c=1.0, p=(1.0,), y=(1.0,))
    x = 1e160
    value = lhs_integrand(case, x)
    expected = x ** -0.5 * (2.0 * x) ** -1.0 * struve_w_full(case.struve_params()[0], 0.5).value
    assert value != 0
    assert rel(value, expected) <= 1e-12


def test_integrand_requires_positive_x():
    with pytest.raises(DomainError):
        lhs_integrand(make_case(), 0.0)


@pytest.mark.parametrize(
    "case, x, message",
    [
        # Factors of ~1.0e153, -1.6e99 and -1.0e91, all at u_j ~ 260-400
        # where the series cancels: their product overflows.
        (
            IntegralCase("theorem1", a=0.018166059202533915, lam=2.5, mu=0.75, b=2.0, c=1.0,
                         p=(1.8132, -0.0838, 0.3504), y=(14.54, 10.09, 9.41)),
            0.004625846410705207,
            "integrand non-finite at x = 0.004625846410705207",
        ),
        # x^(mu - 1) = x^-1.5 overflows at the smallest positive x.
        (
            IntegralCase("theorem2", a=1.0, lam=2.0, mu=-0.5, b=1.0, c=1.0, p=(1.0,), y=(1.0,)),
            5e-324,
            "integrand weight overflows double precision",
        ),
    ],
)
def test_integrand_out_of_range_is_range_error(case, x, message):
    # Not (inf+nanj), nor a bare OverflowError.
    with pytest.raises(RangeError) as excinfo:
        lhs_integrand(case, x)
    assert str(excinfo.value) == message


def test_integrand_at_underflowed_struve_argument():
    # theorem2's u = x y / kernel underflows to 0 from the valid x = 5e-324;
    # the factor takes its limit there, 0 for Re(p) > -1.
    case = IntegralCase("theorem2", a=1.0, lam=2.0, mu=0.75, b=1.0, c=1.0, p=(1.0,), y=(0.3,))
    g = _struve_product(case, DEFAULT_CONTROL)
    assert struve_arguments(case, 5e-324) == (0.0,)
    assert lhs_integrand(case, 5e-324) == 0 and g(5e-324) == 0
    # A subnormal u > 0 is still summed, with the bits of struve_w_full.
    (u,) = struve_arguments(case, 2e-323)
    assert 0 < u < 1e-322
    assert bits(lambda: g(2e-323)) == bits(lambda: struve_w_full(case.struve_params()[0], u).value)
    # For Re(p) <= -1 the factor has no finite limit at 0.
    for p in (-1.5, -1.0 + 0.5j):
        case = IntegralCase("theorem2", a=1.0, lam=4.0, mu=2.75, b=2.0, c=1.0, p=(p,), y=(0.3,))
        for f in (lambda x: lhs_integrand(case, x), _struve_product(case, DEFAULT_CONTROL)):
            with pytest.raises(RangeError, match="Struve argument underflows to 0"):
                f(5e-324)


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


def test_verify_records_failure_instead_of_raising(monkeypatch):
    # The tightest tolerance accepted, inside a starved quadrature budget:
    # the report carries the reason, no exception escapes.
    from struveint import QuadControl, quadrature

    monkeypatch.setattr(quadrature, "_MAX_PANELS", 3)
    case = make_case()
    rep = verify_case(case, qctl=QuadControl(rel_tol=50 * 2**-52))
    assert not rep.passed
    assert rep.reason is not None


def test_verify_rejects_tolerance_outside_open_interval():
    for bad in (0.0, -1e-6, math.inf, math.nan):
        with pytest.raises(DomainError):
            verify_case(make_case(), tol=bad)
    # True used to run at tolerance 1.0.
    for bad in (True, False):
        with pytest.raises(DomainError, match="verification tolerance must be a number"):
            verify_case(make_case(), tol=bad)


def test_verify_independent_routes_disagree_when_tampered(monkeypatch):
    # Sanity guard on the comparison logic itself: a right side off by
    # 1e-8 relative fails at tol 1e-9.
    true_prefactor = identities._prefactor
    monkeypatch.setattr(identities, "_prefactor", lambda case: true_prefactor(case) * (1 + 1e-8))
    rep = verify_case(make_case(), tol=1e-9)
    assert not rep.passed
    assert "exceeds tolerance" in rep.reason


def test_verify_exact_agreement_has_zero_rel_err(monkeypatch):
    # lhs == rhs gives rel_err 0.0, which passes any tolerance.
    case = make_case()
    quad = QuadResult(verify_case(case).rhs, 0.0, 1, 1.0, True, 0)
    monkeypatch.setattr(identities, "integrate_kernel", lambda *args: quad)
    rep = verify_case(case, tol=1e-300)
    assert rep.lhs == rep.rhs
    assert rep.rel_err == 0.0
    assert rep.passed


def test_verify_zero_rhs_has_infinite_rel_err(monkeypatch):
    # rhs == 0 != lhs gives rel_err inf and a failed report.
    monkeypatch.setattr(identities, "_prefactor", lambda case: 0j)
    rep = verify_case(make_case())
    assert rep.rhs == 0 and rep.lhs != 0
    assert rep.rel_err == math.inf
    assert not rep.passed
    assert "exceeds tolerance" in rep.reason


def test_verify_small_mu_case_in_few_calls():
    # The head rule, three weight-1 panels and the tail panel bring
    # theorem1 at mu = 0.1 to tolerance in 100 calls of g; with 21-point
    # panels between the ends it took 103, with an envelope-cut tail 114,
    # seven 15-point panels 150, a head graded by t = h v^5 355, plain
    # head bisection 6,000.
    case = make_case(mu=0.1)
    rep = verify_case(case)
    assert rep.passed, rep.reason
    assert rep.lhs_diag["evaluations"] <= 100
    assert rep.rel_err <= 1e-12


def test_verify_tiny_mu_graded_head_keeps_x_positive():
    # At mu = 0.005 the endpoint factor is t^-0.99.  The head rule takes
    # it exactly and never samples t = 0, so x = a (cosh t - 1) stays
    # positive, as theorem2's Struve argument x y / kernel needs; a head
    # graded by t = h v^100 put x below the double range and sampled g at
    # x = 1e-300 a.  theorem1 overflowed or failed as divergent under
    # plain head bisection.
    for variant, y in (("theorem2", 0.3), ("theorem1", 1.0)):
        rep = verify_case(make_case(variant=variant, mu=0.005, y=(y,)))
        assert rep.passed, (variant, rep.reason)
        assert rep.rel_err <= 1e-10, variant


def test_report_diagnostics_are_pinned():
    # The report derives abs_err, rel_err and both diagnostic dicts from
    # the results it holds; these are the anchor's values (mu = 3/4, its
    # head one panel of the head rule).  g decays like e^(-2 theta) = s^2,
    # a polynomial factor of the tail panel's phi in s = e^-t, so the
    # tail panel from theta = 4 takes it and nothing is split: 100 calls
    # (103 with 21-point panels between the ends; a cutoff set by probes
    # of |g| went to theta = 9.1 in 114 calls, one at the kernel's rate
    # alone to 17.3 in 156); the left side's error, 3.5e-18, is within
    # its estimate.
    rep = verify_case(make_case())
    assert rep.passed and rep.reason is None
    expected = (
        {
            "panels_used": 5,
            "cutoff_theta": 4.0,
            "error_estimate": 1.5764909115733382e-15,
            "converged": True,
            "evaluations": 100,
            "stop_reason": "tolerance met",
        },
        {
            "shells": 10,
            "terms": 11,
            "tail_estimate": 2.3003709479220665e-17,
            "prefactor": (0.028946378411222447, 0.0),
        },
        3.469446951953614e-18,
        1.2419705922051672e-16,
    )
    assert (rep.lhs_diag, rep.rhs_diag, rep.abs_err, rep.rel_err) == expected
    # Failed on the tolerance: the same results, and the verdict (at
    # y = 1/2, where the two sides differ by 2.4e-16; 1.2e-16 with
    # 21-point panels between the ends).
    passing = verify_case(make_case(y=(0.5,)))
    rep = verify_case(make_case(y=(0.5,)), tol=1e-16)
    assert passing.passed and rep.rel_err == 2.418573446182046e-16
    assert (rep.lhs_diag, rep.rhs_diag, rep.abs_err) == (passing.lhs_diag, passing.rhs_diag, passing.abs_err)
    assert not rep.passed
    assert rep.reason == "relative error 2.419e-16 exceeds tolerance 1.0e-16"
    # Failed while evaluating: no results to report.
    rep = verify_case(make_case(y=(1e6,)))
    assert not rep.passed
    assert rep.reason == "shell of total degree 35 overflows"
    assert (rep.lhs_diag, rep.rhs_diag, rep.abs_err, rep.rel_err) == ({}, {}, math.inf, math.inf)
    assert math.isnan(rep.lhs.real) and math.isnan(rep.rhs.real)


def test_report_survives_pickling():
    # verify --jobs returns its workers' reports through pickle.
    for rep in (verify_case(make_case()), verify_case(make_case(y=(1e6,)))):
        back = pickle.loads(pickle.dumps(rep))
        assert type(back) is type(rep)
        assert repr((back.lhs, back.rhs)) == repr((rep.lhs, rep.rhs))
        assert (back.case, back.passed, back.reason, back.tolerance_used, back.wall_clock_s) == (
            rep.case, rep.passed, rep.reason, rep.tolerance_used, rep.wall_clock_s)
        assert (back.quad, back.series, back.prefactor) == (rep.quad, rep.series, rep.prefactor)
        assert (back.lhs_diag, back.rhs_diag, back.abs_err, back.rel_err) == (
            rep.lhs_diag, rep.rhs_diag, rep.abs_err, rep.rel_err)
    assert not hasattr(rep, "__dict__")


def test_verify_theorem1_n4_within_default_budget():
    # The right side stops after 30 total degrees.  Summed multi-index by
    # multi-index, the 10,000-term default budget ran out first
    # (ConvergenceError).
    case = IntegralCase("theorem1", a=1.0, lam=2.0, mu=0.75, b=1.0, c=1.0, p=(1.0,) * 4, y=(4.0,) * 4)
    rep = verify_case(case)
    assert rep.passed
    assert rel(rep.rhs, oracle.identity_rhs(case, max_degree=32)) <= 1e-10


@pytest.mark.parametrize(
    "case",
    [
        IntegralCase("theorem2", a=1e2, lam=4.46, mu=0.53, b=1.0, c=1.0, p=(0.97,), y=(0.53,)),
        IntegralCase("theorem1", a=1e4, lam=2.0, mu=0.75, b=1.0, c=1.0, p=(1.0,), y=(1.0,)),
    ],
    ids=["theorem2-a1e2", "theorem1-a1e4"],
)
def test_verify_large_a_is_relative(case):
    # At large a both sides are tiny (|rhs| ~ 1e-15 at a = 1e4); the
    # quadrature and the verdict must still hold to relative accuracy.
    rep = verify_case(case)
    assert rel(rep.lhs, oracle.identity_rhs(case)) <= 1e-10
    assert rep.rel_err == rep.abs_err / abs(rep.rhs)
    assert not rep.passed or rep.rel_err <= rep.tolerance_used


# --- verify_case's left side against one built from public calls ------------------

@st.composite
def verify_cases(draw):
    """Both variants, n = 1..3, real or complex p, b, c, in ranges where
    both sides evaluate."""
    n = draw(st.integers(1, 3))
    real = draw(st.booleans())

    def value(lo, hi):
        x = draw(st.floats(lo, hi))
        return x if real else complex(x, draw(st.floats(-0.3, 0.3)))

    mu = draw(st.floats(0.5, 1.5))
    return IntegralCase(
        draw(st.sampled_from(("theorem1", "theorem2"))),
        a=draw(st.floats(0.5, 2.0)),
        lam=mu + draw(st.floats(0.5, 2.0)),
        mu=mu,
        b=value(0.5, 2.0),
        c=value(-1.0, 1.5),
        p=tuple(value(0.0, 2.0) for _ in range(n)),
        y=tuple(draw(st.floats(0.5, 2.0)) for _ in range(n)),
    )


@settings(max_examples=20, deadline=None)
@given(case=verify_cases())
def test_verify_lhs_matches_public_struve_product(case):
    # verify_case's left side, bit for bit and with the same diagnostics,
    # is integrate_kernel over prod_j struve_w_full(...).value at
    # struve_arguments(case, x), composed from public calls only.
    rep = verify_case(case)
    assume(rep.lhs_diag)  # both sides evaluated
    params = case.struve_params()

    def g(x):
        prod = 1.0 + 0j
        for prm, u in zip(params, struve_arguments(case, x)):
            prod *= struve_w_full(prm, u).value
        return prod

    quad = integrate_kernel(g, case.a, case.mu, case.lam)
    assert (rep.lhs.real.hex(), rep.lhs.imag.hex()) == (quad.value.real.hex(), quad.value.imag.hex())
    assert rep.lhs_diag == {
        "panels_used": quad.panels_used,
        "cutoff_theta": quad.cutoff_theta,
        "error_estimate": quad.error_estimate,
        "converged": quad.converged,
        "evaluations": quad.evaluations,
        "stop_reason": quad.stop_reason,
    }


def bits(run):
    """The hex parts of run()'s complex value, or its error's type and text."""
    try:
        value = run()
    except StruveintError as exc:
        return type(exc).__name__, str(exc)
    return value.real.hex(), value.imag.hex()


@st.composite
def node_cases(draw):
    """(case, x): a from 1e-2 to 1e4, y up to 20, and x up to 1e30 a,
    where theorem2's u_j rounds past y_j / 2; p, b, c real, complex, or
    real with Gamma(p_1 + (b+2)/2) < 0 (p_1 + (b+2)/2 in (-1, 0))."""
    kind = draw(st.sampled_from(("real", "complex", "negative gamma")))
    n = draw(st.integers(1, 3))

    def value(lo, hi):
        x = draw(st.floats(lo, hi))
        return complex(x, draw(st.floats(-1.0, 1.0))) if kind == "complex" else x

    b = value(-1.5, 2.0)
    p = [value(0.0, 2.0) for _ in range(n)]
    if kind == "negative gamma":
        p[0] = -(b + 2) / 2 - draw(st.floats(0.05, 0.95))
    try:
        case = IntegralCase(
            draw(st.sampled_from(("theorem1", "theorem2"))),
            a=draw(st.floats(-2.0, 4.0).map(lambda e: 10.0**e)),
            lam=2.0,
            mu=0.75,
            b=b,
            c=value(-1.5, 2.0),
            p=tuple(p),
            y=tuple(draw(st.floats(0.05, 20.0)) for _ in range(n)),
        )
        case.struve_params()
    except StruveintError:
        assume(False)
    x = case.a * 10.0 ** draw(st.floats(-10.0, 30.0))
    return case, x


@settings(max_examples=300, deadline=None)
@given(draw=node_cases())
def test_struve_product_table_matches_struve_w_full(draw):
    # g sums each factor over one coefficient table sized for the whole
    # case; struve_w_full builds one for the node's own argument.  Both
    # cut Horner's rule at the same index, so g equals the product of
    # public calls bit for bit (the traced benchmark relies on this),
    # past the tables' reach too, for every parameter class.
    case, x = draw
    params = case.struve_params()

    def public():
        prod = 1.0 + 0j
        for prm, u in zip(params, struve_arguments(case, x)):
            prod *= struve_w_full(prm, u).value
        return prod

    g = _struve_product(case, DEFAULT_CONTROL)
    assert bits(lambda: g(x)) == bits(public)


def test_struve_product_table_margin():
    # theorem2's u_j = x y_j / kernel rounds up to one ulp past y_j / 2
    # where x >> a.  With y_j the largest float whose table bound
    # (y_j / 4)^2 is at most W_{1,1,1}'s 26th limit, such a node needs
    # 27 coefficients: g's table must reach past its bound to keep the
    # bits of struve_w_full, which builds a table for the node's u.
    prm = StruveParams(1.0, 1.0, 1.0)
    limit = _w_table(prm, math.inf, DEFAULT_CONTROL)[1][25]
    y = 4.0 * math.sqrt(limit)
    while (y / 4.0) ** 2 > limit:
        y = math.nextafter(y, 0.0)
    while (math.nextafter(y, math.inf) / 4.0) ** 2 <= limit:
        y = math.nextafter(y, math.inf)
    case = make_case(variant="theorem2", y=(y,))
    g = _struve_product(case, DEFAULT_CONTROL)
    rng = random.Random(3)
    for _ in range(10_000):
        x = 10.0 ** rng.uniform(16.0, 30.0)
        (u,) = struve_arguments(case, x)
        if (u / 2.0) ** 2 > limit:
            break
    else:
        raise AssertionError("no node rounds past the bound")
    assert bits(lambda: g(x)) == bits(lambda: struve_w_full(prm, u).value)


def test_struve_product_range_check_matches_struve_w_full():
    # p = -39.87 and b = -1 (a negative Gamma(p + 1/2)) put |t0| near
    # 2e286 at u ~ 1.3e-6.  The case's table, sized to y / a ~ 145, bounds
    # sum_k |a_k| w^k over all its 113 limits, far above the bound of the
    # node's own 40-limit table, so that table-wide bound alone would send
    # g to sum_terms where struve_w_full takes the table.  The bound at the
    # node's own w decides for both, so the bits still agree.
    case = IntegralCase(
        "theorem1", a=0.07565150813326374, lam=400.0, mu=0.75, b=-1.0,
        c=1.8525001631602915, p=(-39.867640462825136,), y=(10.977279163350412,),
    )
    (prm,) = case.struve_params()
    x = 4094617.256210893
    (u,) = struve_arguments(case, x)
    g = _struve_product(case, DEFAULT_CONTROL)
    res = struve_w_full(prm, u)
    assert abs(res.value) > 1e286 and res.terms == 40
    assert bits(lambda: g(x)) == bits(lambda: res.value)
