"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); the
assertion carries the same condition so the suite is red when a
criterion is not met.
"""

import cmath
import math
import random
import time

import oracle
import pytest
from struveint import (
    FoxWrightSpec,
    IntegralCase,
    StruveintError,
    StruveParams,
    fox_wright,
    gamma,
    integrate_kernel,
    lauricella_eval,
    oberhettinger_closed_form,
    pfq,
    prefactor_theorem1,
    prefactor_theorem2,
    rhs_corollary,
    rhs_spec_theorem1,
    rhs_spec_theorem2,
    struve_w,
    struve_w_derivative,
    verify_case,
)


def report(number: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_01_oberhettinger_baseline():
    start = time.perf_counter()
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        for mu in (0.3, 1.0, 1.7):
            for lam in (mu + 0.5, mu + 2.0):
                res = integrate_kernel(lambda x: 1.0, a, mu, lam)
                closed = oberhettinger_closed_form(a, mu, lam)
                worst = max(worst, abs(res.value - closed) / abs(closed))
    elapsed = time.perf_counter() - start
    report(
        1,
        "oberhettinger-baseline",
        worst <= 1e-10 and elapsed < 5.0,
        f"max rel err {worst:.2e} over 18 points in {elapsed:.2f}s",
    )


def test_criterion_02_theorem1_end_to_end():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for p in (0.5, 1.0, 2.0):
        for mu in (0.6, 1.0):
            for lam in (2.0, 3.5):
                case = IntegralCase("theorem1", a=1.0, lam=lam, mu=mu, b=1.0, c=1.0, p=(p,), y=(1.0,))
                rep = verify_case(case, tol=1e-6)
                assert rep.passed, (p, mu, lam, rep.reason)
                worst = max(worst, rep.rel_err)
                count += 1
    elapsed = time.perf_counter() - start
    report(
        2,
        "theorem1-end-to-end",
        worst <= 1e-6 and count == 12 and elapsed < 30.0,
        f"max rel err {worst:.2e} over {count} cases in {elapsed:.2f}s",
    )


def test_criterion_03_theorem1_multi_factor():
    start = time.perf_counter()
    cases = [
        IntegralCase("theorem1", a=1.0, lam=3.0, mu=0.75, b=1.0, c=1.0,
                     p=(0.5, 1.0), y=(0.5, 1.5)),
        IntegralCase("theorem1", a=1.0, lam=3.0, mu=0.75, b=1.0, c=1.0,
                     p=(0.5, 1.0, 1.0), y=(0.5, 1.0, 1.0)),
    ]
    worst = 0.0
    for case in cases:
        rep = verify_case(case, tol=1e-6)
        assert rep.passed, (case.n, rep.reason)
        worst = max(worst, rep.rel_err)
    elapsed = time.perf_counter() - start
    report(
        3,
        "theorem1-multi-factor",
        worst <= 1e-6 and elapsed < 120.0,
        f"max rel err {worst:.2e} (n = 2 and n = 3) in {elapsed:.2f}s",
    )


def test_criterion_04_theorem2_end_to_end():
    worst = 0.0
    count = 0
    for p in (0.5, 1.0):
        for mu in (0.6, 1.0):
            for lam in (3.0, 4.5):
                case = IntegralCase("theorem2", a=1.0, lam=lam, mu=mu, b=1.0, c=1.0, p=(p,), y=(1.0,))
                rep = verify_case(case, tol=1e-6)
                assert rep.passed, (p, mu, lam, rep.reason)
                worst = max(worst, rep.rel_err)
                count += 1
    two_factor = IntegralCase("theorem2", a=1.0, lam=3.0, mu=0.6, b=1.0, c=1.0,
                              p=(0.5, 1.0), y=(0.5, 1.0))
    rep = verify_case(two_factor, tol=1e-6)
    assert rep.passed, rep.reason
    worst = max(worst, rep.rel_err)
    report(
        4,
        "theorem2-end-to-end",
        worst <= 1e-6 and count == 8,
        f"max rel err {worst:.2e} over {count} grid cases plus one n = 2 case",
    )


def test_criterion_05_corollary_theorem_series_equivalence():
    rng = random.Random(20240921)
    worst1 = 0.0
    worst2 = 0.0
    for _ in range(20):
        a = rng.uniform(0.5, 2.0)
        y = rng.uniform(0.3, 1.8)
        b = rng.uniform(-0.9, 2.0)
        c = rng.uniform(-1.0, 1.0)
        p = rng.uniform(0.25, 2.0)
        lam = rng.uniform(1.5, 4.0)
        mu = rng.uniform(0.1, 2.0)

        case1 = IntegralCase("theorem1", a=a, lam=lam, mu=mu, b=b, c=c, p=(p,), y=(y,))
        spec, z = rhs_spec_theorem1(case1)
        lauricella_route = prefactor_theorem1(case1) * lauricella_eval(spec, z)
        pfq_route = rhs_corollary(case1, 1)
        worst1 = max(worst1, abs(pfq_route - lauricella_route) / abs(lauricella_route))

        lam2 = mu + rng.uniform(0.5, 3.0)
        case2 = IntegralCase("theorem2", a=a, lam=lam2, mu=mu, b=b, c=c, p=(p,), y=(y,))
        spec2, z2 = rhs_spec_theorem2(case2)
        lauricella_route2 = prefactor_theorem2(case2) * lauricella_eval(spec2, z2)
        psi_route = rhs_corollary(case2, 2)
        worst2 = max(worst2, abs(psi_route - lauricella_route2) / abs(lauricella_route2))
    report(
        5,
        "corollary-series-equivalence",
        worst1 <= 1e-12 and worst2 <= 1e-12,
        f"4F5 route max rel err {worst1:.2e}, 3Psi4 route {worst2:.2e}, 20 random sets each",
    )


def test_criterion_06_specialization_chain():
    rng = random.Random(20240922)
    worst_pairs = 0.0
    for _ in range(10):
        p = rng.uniform(0.25, 2.0)
        y = rng.uniform(0.4, 1.6)
        a = rng.uniform(0.5, 2.0)
        mu = rng.uniform(0.2, 1.5)
        lam = rng.uniform(2.0, 4.0)
        case1 = IntegralCase("theorem1", a=a, lam=lam, mu=mu, b=-1.0, c=1.0, p=(p,), y=(y,))
        v13 = abs(rhs_corollary(case1, 3) - rhs_corollary(case1, 1)) / abs(rhs_corollary(case1, 1))
        case2 = IntegralCase("theorem2", a=a, lam=mu + 1.5, mu=mu, b=-1.0, c=1.0, p=(p,), y=(y,))
        v24 = abs(rhs_corollary(case2, 4) - rhs_corollary(case2, 2)) / abs(rhs_corollary(case2, 2))
        worst_pairs = max(worst_pairs, v13, v24)

    worst_wh = 0.0
    pairs = 0
    for p in (0.0, 0.5, 1.0, 2.3):
        for z in (0.1, 1.0, 5.0):
            h = oracle.struve_h(p, z)
            w = struve_w(StruveParams(p, -1.0, 1.0), z)
            worst_wh = max(worst_wh, abs(w - h) / abs(h))
            pairs += 1
    report(
        6,
        "specialization-chain",
        worst_pairs <= 1e-13 and worst_wh <= 1e-14 and pairs == 12,
        f"corollary 3/4 vs 1/2 max rel err {worst_pairs:.2e}; "
        f"W(p,-1,1) vs 40-digit H max rel err {worst_wh:.2e} at {pairs} (p, z) pairs",
    )


def test_criterion_07_fox_wright_reduction():
    rng = random.Random(20240923)
    worst = 0.0
    for _ in range(50):
        upper = [rng.uniform(0.5, 3.0) for _ in range(3)]
        lower = [rng.uniform(0.5, 3.0) for _ in range(3)]
        z = cmath.rect(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2 * math.pi))
        spec = FoxWrightSpec(upper=[(u, 1.0) for u in upper], lower=[(v, 1.0) for v in lower])
        pref = 1.0 + 0j
        for u in upper:
            pref *= gamma(u)
        for v in lower:
            pref /= gamma(v)
        rhs = pref * pfq(upper, lower, z)
        worst = max(worst, abs(fox_wright(spec, z) - rhs) / abs(rhs))
    report(7, "fox-wright-reduction", worst <= 1e-12, f"max rel err {worst:.2e} over 50 specs")


def test_criterion_08_struve_ode_residual():
    worst = 0.0
    pairs = 0
    for alpha in (0.0, 1.0, 2.5):
        params = StruveParams(alpha, 1.0, 1.0)
        for x in (0.5, 1.0, 2.0):
            y = struve_w(params, x)
            y1 = struve_w_derivative(params, x, 1)
            y2 = struve_w_derivative(params, x, 2)
            forcing = 4.0 * (x / 2.0) ** (alpha + 1) / (math.sqrt(math.pi) * math.gamma(alpha + 0.5))
            residual = abs(x * x * y2 + x * y1 + (x * x - alpha * alpha) * y - forcing)
            scale = 1.0 + abs(y) * x * x
            worst = max(worst, residual / scale)
            pairs += 1
    report(
        8,
        "struve-ode-residual",
        worst <= 1e-8 and pairs == 9,
        f"max scaled residual {worst:.2e} at {pairs} (alpha, x) pairs",
    )


def test_criterion_09_complex_parameter_smoke():
    case = IntegralCase(
        "theorem1", a=1.0, lam=2.5 - 0.3j, mu=0.6 + 0.2j, b=1.0, c=1.0, p=(1.0,), y=(1.0,)
    )
    rep = verify_case(case, tol=1e-5)
    report(
        9,
        "complex-parameter-smoke",
        rep.passed and rep.rel_err <= 1e-5,
        f"rel err {rep.rel_err:.2e} (mu = 0.6+0.2i, lambda = 2.5-0.3i)",
    )


def test_criterion_10_degenerate_collapse():
    case1 = IntegralCase("theorem1", a=1.0, lam=2.0, mu=0.75, b=1.0, c=0.0, p=(1.0,), y=(1.0,))
    rep1 = verify_case(case1, tol=1e-10)
    closed1 = oberhettinger_closed_form(case1.a, case1.mu, case1.lam + case1.p_sum + case1.n)
    factor1 = closed1
    for pj, yj in zip(case1.p, case1.y):
        factor1 *= (yj / 2.0) ** (pj + 1) / (gamma(1.5) * gamma(pj + (case1.b + 2) / 2))
    err1 = abs(rep1.lhs - factor1) / abs(factor1)

    case2 = IntegralCase("theorem2", a=1.0, lam=3.0, mu=0.6, b=1.0, c=0.0, p=(0.5,), y=(1.0,))
    rep2 = verify_case(case2, tol=1e-10)
    closed2 = oberhettinger_closed_form(
        case2.a, case2.mu + case2.p_sum + case2.n, case2.lam + case2.p_sum + case2.n
    )
    factor2 = closed2
    for pj, yj in zip(case2.p, case2.y):
        factor2 *= (yj / 2.0) ** (pj + 1) / (gamma(1.5) * gamma(pj + (case2.b + 2) / 2))
    err2 = abs(rep2.lhs - factor2) / abs(factor2)

    ok = rep1.passed and rep2.passed and err1 <= 1e-10 and err2 <= 1e-10
    report(
        10,
        "degenerate-collapse",
        ok,
        f"closed-form agreement {err1:.2e} (fixed-arg) and {err2:.2e} (scaled-arg)",
    )


@pytest.mark.xfail(strict=True, reason="the tail's decay rate is taken from lambda - mu alone")
def test_theorem1_tail_decaying_through_struve_factor():
    # A case inside the paper's conditions (Re mu < Re(lambda + P) + n)
    # whose kernel alone grows at infinity, lambda - mu = -0.5, while
    # the integrand decays through the Struve factor's x^-(p+1).  Today
    # verify_case refuses it with "tail not certifiable"; the right side,
    # from the 40-digit oracle, is 0.0396951.
    case = IntegralCase("theorem1", a=1.0, lam=0.5, mu=1.0, b=1.0, c=1.0, p=(1.0,), y=(1.0,))
    ref = oracle.prefactor_fixed_argument(1.0, 0.5, 1.0, 1.0, (1.0,), (1.0,)) * oracle.lauricella(
        [(3.5, (2.0,)), (1.5, (2.0,))], [(2.5, (2.0,)), (4.5, (2.0,))],
        [[(1.0, 1.0)]], [[(1.5, 1.0), (2.5, 1.0)]], [-0.25],
    )
    rep = verify_case(case)
    assert rep.passed, rep.reason
    assert abs(rep.lhs - ref) <= 1e-6 * abs(ref)


def test_report_keeps_the_right_side_when_the_left_side_raises():
    # The xfail case above: its left side is refused, but the right side,
    # summed first, stays in the report with its diagnostics; the verdict
    # and its reason are as before.
    case = IntegralCase("theorem1", a=1.0, lam=0.5, mu=1.0, b=1.0, c=1.0, p=(1.0,), y=(1.0,))
    ref = oracle.prefactor_fixed_argument(1.0, 0.5, 1.0, 1.0, (1.0,), (1.0,)) * oracle.lauricella(
        [(3.5, (2.0,)), (1.5, (2.0,))], [(2.5, (2.0,)), (4.5, (2.0,))],
        [[(1.0, 1.0)]], [[(1.5, 1.0), (2.5, 1.0)]], [-0.25],
    )
    rep = verify_case(case)
    assert not rep.passed
    assert rep.reason == "tail not certifiable: Re(lambda_eff) - Re(mu) = -0.5 is not positive"
    assert abs(rep.rhs - ref) <= 1e-14 * abs(ref)
    assert set(rep.rhs_diag) == {"shells", "terms", "tail_estimate", "prefactor"}
    assert rep.rhs_diag["terms"] > 0
    assert (rep.lhs_diag, rep.abs_err, rep.rel_err) == ({}, math.inf, math.inf)
    assert math.isnan(rep.lhs.real)


# Indices of the paper-domain sweep's draws that verify_case fails today:
# 61 "tail not certifiable", 16 "quadrature tolerance not met" (all
# theorem1) and one overflowing substituted integrand.  Together they
# take ~10 s, so they are not run.  The tail panel in s = e^-t brought 8
# theorem2 draws (8, 23, 40, 115, 194, 237, 259 and 280) to tolerance.
# Draw 37 failed on a relative error of 2.461e-04 (its right side) until
# the panels between the ends took the ends' rule; now its left side
# stops at the panel cap, its estimate held above the target by the
# integrand's own rounding.
SWEEP_FAILURES = frozenset((
    1, 2, 7, 12, 13, 16, 17, 32, 33, 37, 39, 42, 44, 50, 54, 58, 60, 61, 67, 82,
    83, 85, 88, 94, 99, 101, 103, 104, 105, 111, 119, 120, 121, 125, 130, 138, 141, 142,
    146, 147, 150, 151, 153, 162, 165, 169, 175, 176, 178, 183, 186, 189, 191, 197, 204,
    205, 206, 207, 210, 213, 220, 222, 230, 231, 241, 243, 244, 247, 250, 252, 260,
    261, 264, 267, 270, 281, 283, 289,
))


def paper_domain_sweep():
    """The first 300 seeded draws over the paper's stated domain that
    pass IntegralCase's checks of its conditions (ROADMAP's sweep)."""
    rng = random.Random(7)
    cases = []
    while len(cases) < 300:
        variant = rng.choice(["theorem1", "theorem2"])
        n = rng.choice([1, 1, 2])
        p = tuple(rng.uniform(-0.9, 3) for _ in range(n))
        y = tuple(rng.uniform(0.1, 8) for _ in range(n))
        a = math.exp(rng.uniform(math.log(0.1), math.log(10)))
        mu = rng.uniform(-1.5, 3)
        lam = rng.uniform(-1, 4)
        b, c = rng.choice([(1, 1), (-1, 1), (1, -1), (2, 0.5), (3, 2)])
        try:
            cases.append(IntegralCase(variant, a=a, lam=lam, mu=mu, b=b, c=c, p=p, y=y))
        except StruveintError:
            pass
    return cases


def test_paper_domain_sweep_keeps_its_passing_cases():
    cases = paper_domain_sweep()
    failed = [
        (i, rep.reason)
        for i, case in enumerate(cases)
        if i not in SWEEP_FAILURES and not (rep := verify_case(case)).passed
    ]
    assert len(cases) - len(SWEEP_FAILURES) == 222
    assert not failed, failed


def test_sweep_case_78_error_is_within_its_estimate():
    # theorem1, n = 2, a = 0.278, mu = 0.320, lambda = 3.23, b = 2,
    # c = 0.5, max_j u_j sqrt|c| = 16: the Struve factors cancel, so the
    # integrand itself rounds.  With 21-point panels between the ends the
    # left side was 2.4e-10 off the 40-digit right side, 2.8 times its
    # estimate; the weight-1 panels' coefficient bounds take in that
    # rounding (estimate 3.8e-10).
    case = paper_domain_sweep()[78]
    rep = verify_case(case)
    assert rep.passed, rep.reason
    assert abs(rep.lhs - oracle.identity_rhs(case)) <= rep.lhs_diag["error_estimate"]
