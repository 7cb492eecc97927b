import cmath
import math
import random

import mpmath as mp
import pytest

import oracle
from struveint import (
    ConvergenceError,
    DivergenceError,
    DomainError,
    FoxWrightSpec,
    GammaPoleError,
    LauricellaSpec,
    RangeError,
    SeriesControl,
    fox_wright,
    lauricella,
    lauricella_eval,
    lauricella_eval_full,
    omega,
    pfq,
    shell_iterator,
)


def rel(actual, expected):
    return abs(actual - expected) / abs(expected)


def one_var_spec(upper, lower):
    """n = 1 spec with unit exponents: Omega(k) = prod(u)_k / prod(l)_k."""
    return LauricellaSpec(
        global_upper=[(u, (1.0,)) for u in upper],
        global_lower=[(v, (1.0,)) for v in lower],
        per_var_upper=[[]],
        per_var_lower=[[]],
        n=1,
    )


# --- shell iteration -----------------------------------------------------------

def test_shell_iterator_order():
    assert list(shell_iterator(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(shell_iterator(1, 5)) == [(5,)]
    assert list(shell_iterator(3, 0)) == [(0, 0, 0)]


def test_shell_iterator_counts_compositions():
    # C(d + n - 1, n - 1) weak compositions, each exactly once.
    shells = list(shell_iterator(3, 6))
    assert len(shells) == math.comb(8, 2)
    assert len(set(shells)) == len(shells)
    assert all(sum(k) == 6 for k in shells)


# --- omega ----------------------------------------------------------------------

def test_omega_at_origin_is_one():
    spec = LauricellaSpec(
        global_upper=[(2.5, (2.0, 2.0))],
        global_lower=[(1.5, (2.0, 2.0))],
        per_var_upper=[[(1.0, 1.0)], [(1.0, 1.0)]],
        per_var_lower=[[(1.5, 1.0)], [(1.5, 1.0)]],
        n=2,
    )
    assert omega(spec, (0, 0)) == 1


def test_omega_single_pochhammer():
    spec = LauricellaSpec(
        global_upper=[], global_lower=[], per_var_upper=[[(2.0, 1.0)]], per_var_lower=[[]], n=1
    )
    assert rel(omega(spec, (3,)), 24.0) < 1e-13  # (2)_3 = 2*3*4


def test_omega_theorem_style_spec_hand_expanded():
    # n = 1, exponents (2, 2) globally and unit per-variable weights: the
    # coefficient at k = 2 is an explicit product of rising factorials.
    lam, mu, p = 2.0, 0.75, 1.0
    s = lam + p + 1
    spec = LauricellaSpec(
        global_upper=[(1 + s, (2.0,)), (s - mu, (2.0,))],
        global_lower=[(s, (2.0,)), (1 + s + mu, (2.0,))],
        per_var_upper=[[(1.0, 1.0)]],
        per_var_lower=[[(1.5, 1.0), (p + 1.5, 1.0)]],
        n=1,
    )
    k = 2
    expected = complex(
        mp.rf(1 + s, 2 * k)
        * mp.rf(s - mu, 2 * k)
        * mp.rf(1.0, k)
        / (
            mp.rf(s, 2 * k)
            * mp.rf(1 + s + mu, 2 * k)
            * mp.rf(1.5, k)
            * mp.rf(p + 1.5, k)
        )
    )
    assert rel(omega(spec, (k,)), expected) < 1e-13


def test_omega_multiplicative_with_empty_global_blocks():
    blocks_a = ([(1.0, 1.0)], [(1.5, 1.0), (2.5, 1.0)])
    blocks_b = ([(2.0, 2.0)], [(1.25, 1.0)])
    joint = LauricellaSpec(
        global_upper=[],
        global_lower=[],
        per_var_upper=[blocks_a[0], blocks_b[0]],
        per_var_lower=[blocks_a[1], blocks_b[1]],
        n=2,
    )
    parts = [
        LauricellaSpec(global_upper=[], global_lower=[], per_var_upper=[up], per_var_lower=[lo], n=1)
        for up, lo in (blocks_a, blocks_b)
    ]
    for k in [(0, 0), (1, 2), (3, 1), (4, 4)]:
        exact = omega(parts[0], (k[0],)) * omega(parts[1], (k[1],))
        assert omega(joint, k) == exact  # bitwise: same factor order


def test_omega_pole_names_block():
    spec = LauricellaSpec(
        global_upper=[(1.0, (1.0,))],
        global_lower=[(-2.0, (1.0,))],
        per_var_upper=[[]],
        per_var_lower=[[]],
        n=1,
    )
    with pytest.raises(GammaPoleError) as excinfo:
        omega(spec, (1,))
    assert "global_lower" in str(excinfo.value)


def test_omega_validates_multi_index():
    spec = one_var_spec([1.0], [])
    with pytest.raises(DomainError):
        omega(spec, (1, 2))
    with pytest.raises(DomainError):
        omega(spec, (-1,))


# --- spec validation ------------------------------------------------------------

def test_negative_margin_rejected():
    with pytest.raises(DivergenceError):
        LauricellaSpec(
            global_upper=[(1.0, (3.0,))],
            global_lower=[],
            per_var_upper=[[]],
            per_var_lower=[[(1.0, 1.0)]],
            n=1,
        )


def test_exponent_positivity_enforced():
    with pytest.raises(DomainError):
        LauricellaSpec(
            global_upper=[(1.0, (0.0,))], global_lower=[], per_var_upper=[[]], per_var_lower=[[]], n=1
        )
    with pytest.raises(DomainError):
        LauricellaSpec(
            global_upper=[(1.0, (1.0, 1.0))], global_lower=[], per_var_upper=[[]], per_var_lower=[[]], n=1
        )


# --- evaluation -----------------------------------------------------------------

def test_value_at_zero_argument():
    spec = LauricellaSpec(
        global_upper=[(2.0, (2.0, 2.0))],
        global_lower=[(3.0, (2.0, 2.0))],
        per_var_upper=[[(1.0, 1.0)], [(1.0, 1.0)]],
        per_var_lower=[[(1.5, 1.0)], [(2.5, 1.0)]],
        n=2,
    )
    assert lauricella_eval(spec, (0.0, 0.0)) == 1


def test_single_variable_mirrors_pfq():
    upper = [1.2, 0.8, 2.5, 1.0]
    lower = [1.5, 2.5, 0.9, 1.8, 1.3]
    spec = one_var_spec(upper, lower)
    for z in (-0.5, 0.25, -2.0):
        assert rel(lauricella_eval(spec, (z,)), pfq(upper, lower, z)) < 1e-13


def test_two_variable_separable_product():
    spec = LauricellaSpec(
        global_upper=[],
        global_lower=[],
        per_var_upper=[[(1.0, 1.0)], [(2.0, 1.0)]],
        per_var_lower=[[(1.5, 1.0), (2.0, 1.0)], [(1.25, 1.0), (3.0, 1.0)]],
        n=2,
    )
    z = (-0.7, 0.4)
    left = LauricellaSpec(
        global_upper=[], global_lower=[], per_var_upper=[[(1.0, 1.0)]],
        per_var_lower=[[(1.5, 1.0), (2.0, 1.0)]], n=1,
    )
    right = LauricellaSpec(
        global_upper=[], global_lower=[], per_var_upper=[[(2.0, 1.0)]],
        per_var_lower=[[(1.25, 1.0), (3.0, 1.0)]], n=1,
    )
    product = lauricella_eval(left, (z[0],)) * lauricella_eval(right, (z[1],))
    assert rel(lauricella_eval(spec, z), product) < 1e-12


def test_single_variable_consistency_with_fox_wright():
    # Converting every Pochhammer block to a gamma block turns an n = 1
    # spec into a Fox-Wright series with a gamma prefactor.
    rng = random.Random(20240919)
    checked = 0
    while checked < 50:
        upper = [(rng.uniform(0.5, 3.0), float(rng.choice((1, 2)))) for _ in range(2)]
        lower = [(rng.uniform(0.5, 3.0), float(rng.choice((1, 2)))) for _ in range(3)]
        margin = 1.0 + sum(w for _, w in lower) - sum(w for _, w in upper)
        if margin <= 0:
            continue
        checked += 1
        spec = LauricellaSpec(
            global_upper=[(a, (w,)) for a, w in upper[:1]],
            global_lower=[(c, (w,)) for c, w in lower[:1]],
            per_var_upper=[[(a, w) for a, w in upper[1:]]],
            per_var_lower=[[(c, w) for c, w in lower[1:]]],
            n=1,
        )
        z = cmath.rect(rng.uniform(0.0, 1.0), rng.uniform(0.0, 2 * math.pi))
        fw = FoxWrightSpec(upper=upper, lower=lower)
        pref = 1.0 + 0j
        for c, _ in lower:
            pref *= math.gamma(c)
        for a, _ in upper:
            pref /= math.gamma(a)
        lhs = lauricella_eval(spec, (z,))
        rhs = pref * fox_wright(fw, z)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_permutation_symmetry():
    spec = LauricellaSpec(
        global_upper=[(2.2, (2.0, 4.0)), (1.7, (2.0, 2.0))],
        global_lower=[(3.1, (2.0, 4.0)), (2.9, (2.0, 2.0))],
        per_var_upper=[[(1.0, 1.0)], [(1.2, 1.0)]],
        per_var_lower=[[(1.5, 1.0), (2.0, 1.0)], [(1.6, 1.0), (2.4, 1.0)]],
        n=2,
    )
    swapped = LauricellaSpec(
        global_upper=[(2.2, (4.0, 2.0)), (1.7, (2.0, 2.0))],
        global_lower=[(3.1, (4.0, 2.0)), (2.9, (2.0, 2.0))],
        per_var_upper=[[(1.2, 1.0)], [(1.0, 1.0)]],
        per_var_lower=[[(1.6, 1.0), (2.4, 1.0)], [(1.5, 1.0), (2.0, 1.0)]],
        n=2,
    )
    z = (-0.3, 0.45)
    lhs = lauricella_eval(spec, z)
    rhs = lauricella_eval(swapped, (z[1], z[0]))
    assert abs(lhs - rhs) <= 1e-13 * abs(lhs)


def test_tail_estimate_bounds_oracle_remainder():
    # Entire-series spec shaped like the identity builders produce
    # (margins 2); the reported tail must bound the remainder that ten
    # more shells would add, computed at 40 digits.
    lam, mu, p1, p2 = 2.0, 0.75, 0.5, 1.0
    s = lam + p1 + p2 + 2
    global_upper = [(1 + s, (2.0, 2.0)), (s - mu, (2.0, 2.0))]
    global_lower = [(s, (2.0, 2.0)), (1 + s + mu, (2.0, 2.0))]
    per_var_upper = [[(1.0, 1.0)], [(1.0, 1.0)]]
    per_var_lower = [[(1.5, 1.0), (p1 + 1.5, 1.0)], [(1.5, 1.0), (p2 + 1.5, 1.0)]]
    spec = LauricellaSpec(
        global_upper=global_upper,
        global_lower=global_lower,
        per_var_upper=per_var_upper,
        per_var_lower=per_var_lower,
        n=2,
    )
    assert spec.convergence_margins() == (2.0, 2.0)
    z = (-0.25, -0.5625)
    result = lauricella_eval_full(spec, z)
    at_stop = oracle.lauricella(
        global_upper, global_lower, per_var_upper, per_var_lower, z,
        max_degree=result.shells,
    )
    beyond = oracle.lauricella(
        global_upper, global_lower, per_var_upper, per_var_lower, z,
        max_degree=result.shells + 10,
    )
    # True remainder (ten more shells, 40 digits) against the reported tail.
    assert abs(beyond - at_stop) <= result.tail_estimate
    # And the double-precision sum agrees with the oracle to roundoff.
    assert abs(beyond - result.value) <= 1e-14 * abs(beyond)


def test_boundary_margin_gate():
    # Margin 0 in the only variable; certified radius is 1, gated at 0.9.
    spec = LauricellaSpec(
        global_upper=[], global_lower=[], per_var_upper=[[(1.0, 1.0)]], per_var_lower=[[]], n=1
    )
    assert spec.convergence_margins() == (0.0,)
    # Geometric series sum (1)_k z^k / k! = 1/(1-z).
    assert rel(lauricella_eval(spec, (0.5,)), 2.0) < 1e-13
    with pytest.raises(DomainError):
        lauricella_eval(spec, (0.95,))


def test_max_degree_exhaustion(monkeypatch):
    spec = LauricellaSpec(
        global_upper=[], global_lower=[], per_var_upper=[[(1.0, 1.0)]], per_var_lower=[[]], n=1
    )
    monkeypatch.setattr(lauricella, "_MAX_DEGREE", 10)
    with pytest.raises(ConvergenceError, match="shell sums did not fall below tolerance by total degree 10"):
        lauricella_eval(spec, (0.85,))


def test_term_budget_respected():
    spec = one_var_spec([1.0], [1.5])
    # n = 1 gives one multi-index per shell, so the multi-index budget
    # binds on the same shell as a cap on the number of shells would.
    with pytest.raises(ConvergenceError, match="multi-index budget of 5 terms exhausted"):
        lauricella_eval(spec, (-0.5,), SeriesControl(max_terms=5))


def test_argument_length_checked():
    spec = one_var_spec([1.0], [1.5])
    with pytest.raises(DomainError):
        lauricella_eval(spec, (0.1, 0.2))


def test_argument_beyond_double_range_is_range_error():
    # |1.5e308 + 1.5e308i| is not a double: a typed error, not a bare
    # OverflowError, with and without the boundary-margin gate.
    gated = LauricellaSpec(
        global_upper=[], global_lower=[], per_var_upper=[[(1.0, 1.0)]], per_var_lower=[[]], n=1
    )
    for spec in (one_var_spec([1.0], [1.5]), gated):
        with pytest.raises(RangeError, match="exceeds the double range"):
            lauricella_eval_full(spec, (1.5e308 + 1.5e308j,))
