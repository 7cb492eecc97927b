import cmath
import math
import random
import sys

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    StruveintError,
    fox_wright,
    gammafn,
    lauricella,
    lauricella_eval,
    lauricella_eval_full,
    log_gamma,
    pfq,
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


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"n": 0}, "n must be a positive integer"),
        ({"per_var_lower": [[]]}, "per_var_lower: need one parameter list per variable (2)"),
        ({"per_var_upper": [[(1.0, 1.0)], [(1.0, 0.0)]]}, "per_var_upper[1]: exponents must be positive reals"),
        ({"per_var_lower": [[(1.5, math.inf)], []]}, "per_var_lower[0]: exponents must be positive reals"),
        ({"global_lower": [(3.0, (math.inf, math.inf))]}, "global_lower: exponents must be positive reals"),
        ({"global_upper": [(2.0, (1.0, 1.0)), (math.inf, (1.0, 1.0))]}, "global_upper[1]: parameter must be finite"),
        ({"per_var_lower": [[], [(1.5, 1.0), (complex(1.0, math.nan), 1.0)]]},
         "per_var_lower[1][1]: parameter must be finite"),
    ],
)
def test_spec_rejected_naming_field(changes, message):
    fields = {
        "global_upper": [(2.0, (1.0, 1.0))],
        "global_lower": [(3.0, (1.0, 1.0))],
        "per_var_upper": [[], []],
        "per_var_lower": [[], []],
        "n": 2,
    }
    with pytest.raises(DomainError) as excinfo:
        LauricellaSpec(**{**fields, **changes})
    assert str(excinfo.value) == message


# --- evaluation -----------------------------------------------------------------

def test_omega_pole_names_block():
    # A pole of a Pochhammer symbol in Omega names its block.
    spec = LauricellaSpec(
        global_upper=[(1.0, (1.0,))],
        global_lower=[(-2.0, (1.0,))],
        per_var_upper=[[]],
        per_var_lower=[[]],
        n=1,
    )
    with pytest.raises(GammaPoleError) as excinfo:
        lauricella_eval(spec, (0.5,))
    assert "global_lower[0]" in str(excinfo.value)


def pole_spec(global_upper=(), global_lower=(), per_var_upper=None, per_var_lower=None, n=1):
    return LauricellaSpec(
        global_upper=global_upper,
        global_lower=global_lower,
        per_var_upper=per_var_upper or [[] for _ in range(n)],
        per_var_lower=per_var_lower or [[] for _ in range(n)],
        n=n,
    )


@pytest.mark.parametrize(
    "spec, z, message",
    [
        # A per-variable parameter on a pole, met at degree 0.
        (
            pole_spec(per_var_lower=[[(1.5, 1.0), (-1.0, 1.0)]]),
            (0.5,),
            "per_var_lower[0][1]: parameter (-1+0j) at subscript 0.0 hits the gamma pole at -1",
        ),
        # A global parameter on a pole, met at degree 0.
        (
            pole_spec(global_upper=[(1.0, (1.0,))], global_lower=[(-2.0, (1.0,))]),
            (0.5,),
            "global_lower[0]: parameter (-2+0j) at subscript 0.0 hits the gamma pole at -2",
        ),
        # A variable with z_m = 0 still has its parameters checked.
        (
            pole_spec(per_var_lower=[[(1.0, 1.0)], [(-3.0, 1.0)]], n=2),
            (0.5, 0.0),
            "per_var_lower[1][0]: parameter (-3+0j) at subscript 0.0 hits the gamma pole at -3",
        ),
        # -1.5 + 0.5 K meets the pole at -1 on degree 1.
        (
            pole_spec(per_var_lower=[[(-1.5, 0.5)]]),
            (0.5,),
            "per_var_lower[0][0]: parameter (-1.5+0j) at subscript 0.5 hits the gamma pole at -1",
        ),
        # Per-variable blocks are met before the global ones.
        (
            pole_spec(global_upper=[(-2.0, (1.0, 1.0))], per_var_lower=[[(1.0, 1.0)], [(-1.0, 1.0)]], n=2),
            (0.5, 0.5),
            "per_var_lower[1][0]: parameter (-1+0j) at subscript 0.0 hits the gamma pole at -1",
        ),
    ],
)
def test_gamma_pole_message(spec, z, message):
    with pytest.raises(GammaPoleError) as excinfo:
        lauricella_eval_full(spec, z)
    assert str(excinfo.value) == message


def test_log_gamma_once_per_parameter_and_once_per_degree(monkeypatch):
    # two_var_spec has 8 parameters: 2 global, 3 per variable.  All are
    # real and positive, so each takes log_gamma once and a float lgamma
    # once per degree.
    spec = two_var_spec((2.0, 2.0))
    calls = []
    float_calls = []

    def counted(z):
        calls.append(z)
        return log_gamma(z)

    def counted_lgamma(x):
        float_calls.append(x)
        return math.lgamma(x)

    monkeypatch.setattr(lauricella, "log_gamma", counted)
    monkeypatch.setattr(gammafn, "_lgamma", counted_lgamma)
    result = lauricella_eval_full(spec, (-1.0, -2.0))
    assert (len(calls), len(float_calls)) == (8, 8 * result.terms)
    # A variable with z_m = 0 takes only its parameters' log Gamma.
    calls.clear()
    float_calls.clear()
    result = lauricella_eval_full(spec, (-1.0, 0.0))
    assert (len(calls), len(float_calls)) == (8, 5 * result.terms)
    # A complex parameter in every block keeps each block on log_gamma.
    spec = LauricellaSpec(
        global_upper=[(2.5 + 0.5j, (2.0, 2.0))],
        global_lower=[(3.5, (2.0, 2.0))],
        per_var_upper=[[(1.0 + 0.5j, 1.0)], [(1.0 - 0.5j, 1.0)]],
        per_var_lower=[[(1.5, 1.0), (2.0, 1.0)], [(1.5, 1.0), (2.5, 1.0)]],
        n=2,
    )
    calls.clear()
    float_calls.clear()
    result = lauricella_eval_full(spec, (-1.0, -2.0))
    assert (len(calls), len(float_calls)) == (8 + 8 * result.terms, 0)


def hex_pair(value):
    return (value.real.hex(), value.imag.hex())


@settings(max_examples=300, deadline=None)
@given(
    upper=st.lists(st.tuples(st.floats(1e-3, 1e3), st.sampled_from((0.5, 1.0, 2.0, 4.0))), max_size=4),
    lower=st.lists(st.tuples(st.floats(1e-3, 1e3), st.sampled_from((0.5, 1.0, 2.0, 4.0))), max_size=4),
    degree=st.integers(0, 400),
)
def test_float_block_sum_is_bit_identical(upper, lower, degree):
    # Real positive parameters take the float path; its sum has the bits
    # of _ratio_log's sum of complex log_gamma values.
    rows = (lauricella._rows([(complex(p), e) for p, e in upper], "upper"),
            lauricella._rows([(complex(p), e) for p, e in lower], "lower"))
    block = lauricella._block(*rows)
    assert block[1] is not None
    expected = lauricella._ratio_log(*rows, degree)
    assert hex_pair(gammafn.log_gamma_sum(block[1], degree)) == hex_pair(expected)
    # Offsets 0.0, as Fox-Wright terms take it: a plain sum of log_gamma.
    real = gammafn.real_rows(((complex(p), e, log_gamma(p), 0.0) for p, e in upper),
                             ((complex(p), e, log_gamma(p), 0.0) for p, e in lower))
    plain = 0j
    for p, e in upper:
        plain += log_gamma(complex(p) + e * degree)
    for p, e in lower:
        plain -= log_gamma(complex(p) + e * degree)
    assert hex_pair(gammafn.log_gamma_sum(real, degree)) == hex_pair(plain)


@pytest.mark.parametrize(
    "spec",
    [
        pole_spec(global_upper=[(3e305, (1.0,))]),
        pole_spec(global_lower=[(3e305, (1.0,))]),
        pole_spec(per_var_upper=[[(3e305, 1.0)]]),
        pole_spec(per_var_upper=[[(1.0, 1.0)]], per_var_lower=[[(1.5, 1.0), (3e305, 1.0)]]),
    ],
)
def test_overflowing_log_gamma_parameter_keeps_complex_path(spec):
    # log Gamma(3e305) is inf, so its block is summed in log_gamma values,
    # whose inf makes the degree-0 shell non-finite.
    with pytest.raises(RangeError) as excinfo:
        lauricella_eval_full(spec, (0.5,))
    assert str(excinfo.value) == "series term 0 is non-finite"


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
    global_upper = [(2.2, (4.0, 4.0)), (1.7, (2.0, 2.0))]
    global_lower = [(3.1, (4.0, 4.0)), (2.9, (2.0, 2.0))]
    spec = LauricellaSpec(
        global_upper=global_upper,
        global_lower=global_lower,
        per_var_upper=[[(1.0, 1.0)], [(1.2, 1.0)]],
        per_var_lower=[[(1.5, 1.0), (2.0, 1.0)], [(1.6, 1.0), (2.4, 1.0)]],
        n=2,
    )
    swapped = LauricellaSpec(
        global_upper=global_upper,
        global_lower=global_lower,
        per_var_upper=[[(1.2, 1.0)], [(1.0, 1.0)]],
        per_var_lower=[[(1.6, 1.0), (2.4, 1.0)], [(1.5, 1.0), (2.0, 1.0)]],
        n=2,
    )
    z = (-0.3, 0.45)
    lhs = lauricella_eval(spec, z)
    rhs = lauricella_eval(swapped, (z[1], z[0]))
    assert abs(lhs - rhs) <= 1e-13 * abs(lhs)


@st.composite
def uniform_specs(draw):
    """A spec whose global exponent vectors are constant across its
    n = 1..4 variables, and an argument vector with some zero components."""
    n = draw(st.integers(1, 4))
    real = draw(st.booleans())
    exps = st.sampled_from((0.5, 1.0, 2.0, 3.0, 4.0))

    def param():
        x = draw(st.floats(0.3, 3.0))
        return x if real else complex(x, draw(st.floats(-1.0, 1.0)))

    def block(sizes, exp_of):
        return [(param(), exp_of(draw(exps))) for _ in range(draw(sizes))]

    global_upper = block(st.integers(0, 2), lambda e: (e,) * n)
    global_lower = block(st.integers(0, 2), lambda e: (e,) * n)
    per_var_upper = [block(st.integers(0, 1), float) for _ in range(n)]
    per_var_lower = [block(st.integers(1, 2), float) for _ in range(n)]
    # An entire series in every variable (margin at least 1).
    margin = 1 + sum(e[0] for _, e in global_lower) - sum(e[0] for _, e in global_upper)
    assume(all(
        margin + sum(e for _, e in lo) - sum(e for _, e in up) >= 1
        for up, lo in zip(per_var_upper, per_var_lower)
    ))
    spec = LauricellaSpec(global_upper, global_lower, per_var_upper, per_var_lower, n)
    # Every z_m on one ray, so that the terms of a shell do not cancel,
    # and |z_m| at most 1.5 boundary radii, so that the terms cannot grow
    # far before they decay.
    ray = draw(st.sampled_from((1.0, -1.0))) if real else cmath.rect(1.0, draw(st.floats(-math.pi, math.pi)))
    z = tuple(
        ray * draw(st.one_of(st.just(0.0), st.floats(0.0, 1.5))) * spec.boundary_radius(m)
        for m in range(n)
    )
    return spec, z


@settings(max_examples=20, deadline=None)
@given(draw=uniform_specs())
def test_degree_path_matches_shell_path(draw):
    # The degree sums against the oracle's shell sums, each over every
    # multi-index at 40 digits, through the shell the series stopped at:
    # within 1e-12 of the shells' total magnitude (a sum that cancels
    # across shells keeps fewer digits than its shells).
    spec, z = draw
    result = lauricella_eval_full(spec, z)
    blocks = (spec.global_upper, spec.global_lower, spec.per_var_upper, spec.per_var_lower)
    shells = oracle.lauricella_shells(*blocks, z, max_degree=result.shells)
    with mp.workdps(oracle.DPS):
        expected = complex(mp.fsum(shells))
    magnitude = float(sum(abs(s) for s in shells))
    assert abs(result.value - expected) <= 1e-12 * magnitude


def test_degree_path_global_block_beyond_double_range():
    # (1)_{2K} = (2K)! overflows a double from K = 86, and each variable's
    # factor z^k / (k! (1)_{3k}) underflows to 0 from k = 79 (z = 1500)
    # or 83 (z = 3000).  The series runs to degree 128, every shell
    # finite, so only the logs of G(K) and of the factors may be combined.
    global_upper = [(1.0, (2.0, 2.0))]
    per_var_upper = [[], []]
    per_var_lower = [[(1.0, 3.0)], [(1.0, 3.0)]]
    spec = LauricellaSpec(global_upper, [], per_var_upper, per_var_lower, n=2)
    z = (3000.0, 1500.0)
    result = lauricella_eval_full(spec, z)
    assert math.lgamma(2 * result.shells + 1) > math.log(sys.float_info.max)
    expected = oracle.lauricella(
        global_upper, [], per_var_upper, per_var_lower, z, max_degree=result.shells + 10
    )
    assert rel(result.value, expected) <= 1e-12


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


def test_boundary_margin_gate_huge_exponents_typed():
    # e**e overflows at e = 1e305: the radius is taken in logs (1.0), and
    # the series gives a value or a typed error, never a bare OverflowError.
    spec = LauricellaSpec([(1.0, (1e305,))], [(1.0, (1e305,))], [[]], [[]], 1)
    assert spec.convergence_margins() == (0.0,) and spec.boundary_radius(0) == 1.0
    try:
        value = lauricella_eval_full(spec, (0.5,)).value
    except StruveintError:
        return
    assert cmath.isfinite(value)


def test_max_degree_exhaustion(monkeypatch):
    spec = LauricellaSpec(
        global_upper=[], global_lower=[], per_var_upper=[[(1.0, 1.0)]], per_var_lower=[[]], n=1
    )
    monkeypatch.setattr(lauricella, "_MAX_DEGREE", 10)
    with pytest.raises(ConvergenceError, match="series did not meet tolerance within 11 terms"):
        lauricella_eval(spec, (0.85,))


def test_term_budget_respected():
    spec = one_var_spec([1.0], [1.5])
    # n = 1 gives one multi-index per shell, so the multi-index budget
    # binds on the same shell as a cap on the number of shells would.
    with pytest.raises(ConvergenceError, match="series did not meet tolerance within 5 terms"):
        lauricella_eval(spec, (-0.5,), SeriesControl(max_terms=5))


def two_var_spec(exps):
    """n = 2 spec with global exponent vector ``exps`` in both blocks."""
    return LauricellaSpec(
        global_upper=[(2.5, exps)],
        global_lower=[(3.5, exps)],
        per_var_upper=[[(1.0, 1.0)], [(1.0, 1.0)]],
        per_var_lower=[[(1.5, 1.0), (2.0, 1.0)], [(1.5, 1.0), (2.5, 1.0)]],
        n=2,
    )


def test_term_budget_counts_degrees_for_uniform_exponents():
    # Uniform global exponents: the budget counts degrees, not the
    # K + 1 multi-indices of each n = 2 shell.
    spec = two_var_spec((2.0, 2.0))
    z = (-1.0, -2.0)
    result = lauricella_eval_full(spec, z)
    assert result.terms == result.shells + 1 < math.comb(result.shells + 2, 2)
    exact = SeriesControl(max_terms=result.terms)
    assert lauricella_eval(spec, z, exact) == result.value
    with pytest.raises(ConvergenceError, match="series did not meet tolerance within 5 terms"):
        lauricella_eval(spec, z, SeriesControl(max_terms=5))
    # Mixed exponents are not summed at all.
    with pytest.raises(DomainError, match="global_upper"):
        two_var_spec((2.0, 4.0))


def test_mixed_global_exponents_name_block():
    with pytest.raises(DomainError, match="global_lower: exponent vector must be the same"):
        LauricellaSpec(
            global_upper=[(2.5, (2.0, 2.0))],
            global_lower=[(3.5, (4.0, 2.0))],
            per_var_upper=[[], []],
            per_var_lower=[[], []],
            n=2,
        )


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
