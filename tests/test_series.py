import cmath
import itertools
import math
import random
from collections import deque

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
    SeriesControl,
    StruveParams,
    fox_wright,
    fox_wright_full,
    gamma,
    pfq,
    pfq_full,
    struve_h_paper,
    struve_l_paper,
    struve_w,
    struve_w_derivative,
    struve_w_full,
)
from struveint.errors import RangeError, StruveintError
from struveint.series import (
    SeriesResult,
    _fox_wright_terms,
    _pfq_terms,
    _struve_derivative_terms,
    _w_terms,
    sum_terms,
)
from struveint.summation import KahanSum

GAMMA_3_2 = math.gamma(1.5)


def rel(actual, expected):
    return abs(actual - expected) / abs(expected)


# --- generalized Struve series ------------------------------------------------

def test_struve_w_c_zero_single_term():
    # c = 0 kills every k >= 1 term: value is (z/2)^(p+1)/(G(3/2) G(p+(b+2)/2)).
    val = struve_w(StruveParams(0.0, 0.0, 0.0), 2.0)
    assert rel(val, 1.0 / GAMMA_3_2) < 1e-15
    assert val.imag == 0.0


def test_struve_w_oracle_value():
    # Frozen from the 40-digit series oracle.
    assert rel(struve_w(StruveParams(1.0, 1.0, 1.0), 1.0), 0.1984573362019444) < 1e-14


def test_struve_w_matches_oracle_various():
    for p, b, c, z in [
        (0.5, 1.0, 1.0, 2.0),
        (2.3, 0.7, -1.0, 1.5),
        (1.0 + 0.5j, 0.3 - 0.2j, 0.8 + 0.1j, 0.75),
    ]:
        ref = oracle.struve_w(p, b, c, z)
        assert rel(struve_w(StruveParams(p, b, c), z), ref) < 5e-14


def test_struve_w_c_reflection():
    # Flipping the sign of c turns (-c)^k into c^k, term by term.
    for p, b, c, z in [(0.7, 1.2, 0.9, 1.3), (1.5, -0.5, -0.6, 2.0)]:
        ref = oracle.struve_w(p, b, -c, z)
        assert rel(struve_w(StruveParams(p, b, -c), z), ref) < 5e-14


def test_struve_params_equality_and_repr_ignore_cached_log_gamma():
    params = StruveParams(1.0, 1.0, 1.0)
    assert params == StruveParams(1, 1 + 0j, 1.0)
    assert hash(params) == hash(StruveParams(1, 1 + 0j, 1.0))
    assert params != StruveParams(1.0, 1.0, -1.0)
    assert repr(params) == "StruveParams(p=(1+0j), b=(1+0j), c=(1+0j))"


def test_struve_params_pole_rejected():
    with pytest.raises(DomainError):
        StruveParams(-1.0, 0.0, 1.0)  # p + (b+2)/2 = 0
    with pytest.raises(DomainError):
        StruveParams(-3.0, 2.0, 1.0)  # p + (b+2)/2 = -1


def test_struve_w_requires_positive_z():
    with pytest.raises(DomainError):
        struve_w(StruveParams(1.0, 1.0, 1.0), 0.0)
    with pytest.raises(DomainError):
        struve_w(StruveParams(1.0, 1.0, 1.0), -1.0)


def test_struve_h_leading_behavior():
    # k = 0 term: (z/2)/(G(3/2) G(1/2)) = z/pi.
    z = 1e-6
    assert rel(struve_h_paper(0.0, z), z / math.pi) < 1e-12
    assert rel(struve_l_paper(0.0, z), z / math.pi) < 1e-12


def test_struve_h_oracle_value():
    # Frozen from the 40-digit series oracle at >= 40 terms.
    assert rel(struve_h_paper(0.5, 1.0), 0.33569835357090155) < 1e-14


def test_struve_h_is_w_with_b_minus1_c1():
    for p in (0.0, 0.5, 1.0, 2.3):
        for z in (0.1, 0.5, 1.0, 2.0, 5.0):
            h = struve_h_paper(p, z)
            w = struve_w(StruveParams(p, -1.0, 1.0), z)
            assert abs(h - w) <= 1e-14 * abs(h)


def test_struve_l_is_w_with_b_minus1_c_minus1():
    for z in (0.5, 1.0, 2.0):
        l = struve_l_paper(0.7, z)
        w = struve_w(StruveParams(0.7, -1.0, -1.0), z)
        assert abs(l - w) <= 1e-14 * abs(l)


def test_struve_l_dominates_h():
    # All-positive terms versus alternating ones.
    assert struve_l_paper(0.0, 1.0).real >= struve_h_paper(0.0, 1.0).real


# --- derivatives ----------------------------------------------------------------

def test_derivative_single_term():
    params = StruveParams(0.0, 0.0, 0.0)
    val = struve_w_derivative(params, 2.0, 1)
    assert rel(val, 1.0 / (2.0 * GAMMA_3_2)) < 1e-15


def test_derivative_against_finite_differences():
    params = StruveParams(1.0, 1.0, 1.0)
    z, h = 1.0, 1e-5
    d1 = struve_w_derivative(params, z, 1)
    fd1 = (struve_w(params, z + h) - struve_w(params, z - h)) / (2 * h)
    assert rel(d1, fd1) < 1e-7
    d2 = struve_w_derivative(params, z, 2)
    fd2 = (struve_w(params, z + h) - 2 * struve_w(params, z) + struve_w(params, z - h)) / h**2
    assert rel(d2, fd2) < 1e-5


def test_derivative_matches_oracle():
    assert rel(struve_w_derivative(StruveParams(1, 1, 1), 1.0, 1),
               oracle.struve_w_derivative(1, 1, 1, 1.0, order=1)) < 5e-14
    assert rel(struve_w_derivative(StruveParams(1, 1, 1), 1.0, 2),
               oracle.struve_w_derivative(1, 1, 1, 1.0, order=2)) < 5e-14


def test_struve_ode_residual():
    # With the standard normalization (b = 1: second gamma G(k+alpha+3/2)),
    # x^2 y'' + x y' + (x^2 - alpha^2) y equals 4 (x/2)^(alpha+1)/(sqrt(pi) G(alpha+1/2)).
    for alpha in (0.0, 1.0, 2.5):
        params = StruveParams(alpha, 1.0, 1.0)
        for x in (0.5, 1.0, 2.0):
            y = struve_w(params, x)
            y1 = struve_w_derivative(params, x, 1)
            y2 = struve_w_derivative(params, x, 2)
            rhs = 4.0 * (x / 2.0) ** (alpha + 1) / (math.sqrt(math.pi) * math.gamma(alpha + 0.5))
            residual = x * x * y2 + x * y1 + (x * x - alpha * alpha) * y - rhs
            assert abs(residual) <= 1e-8 * (1.0 + abs(y) * x * x)


# --- Fox-Wright -----------------------------------------------------------------

def test_fox_wright_exponential():
    spec = FoxWrightSpec(upper=((1.0, 1.0),), lower=((1.0, 1.0),))
    assert rel(fox_wright(spec, 1.0), math.e) < 1e-14


def test_fox_wright_at_zero():
    spec = FoxWrightSpec(upper=((2.5, 1.0),), lower=((1.5, 2.0),))
    ref = gamma(2.5) / gamma(1.5)
    assert rel(fox_wright(spec, 0.0), ref) < 1e-14


def test_fox_wright_unit_weight_reduction():
    rng = random.Random(20240918)
    for _ in range(50):
        upper = [rng.uniform(0.5, 3.0) for _ in range(3)]
        lower = [rng.uniform(0.5, 3.0) for _ in range(3)]
        z = cmath.rect(rng.uniform(0.0, 2.0), rng.uniform(0, 2 * math.pi))
        spec = FoxWrightSpec(upper=[(u, 1.0) for u in upper], lower=[(v, 1.0) for v in lower])
        lhs = fox_wright(spec, z)
        pref = 1.0 + 0j
        for u in upper:
            pref *= gamma(u)
        for v in lower:
            pref /= gamma(v)
        rhs = pref * pfq(upper, lower, z)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_fox_wright_matches_oracle_mixed_weights():
    spec = FoxWrightSpec(
        upper=((1.0, 1.0), (4.0, 2.0), (3.2, 4.0)),
        lower=((1.5, 1.0), (2.5, 1.0), (3.0, 2.0), (6.1, 4.0)),
    )
    z = -0.0625
    ref = oracle.fox_wright(list(spec.upper), list(spec.lower), z)
    assert rel(fox_wright(spec, z), ref) < 1e-13


def test_fox_wright_divergent_spec_rejected():
    with pytest.raises(DivergenceError):
        FoxWrightSpec(upper=((1.0, 3.0),), lower=((1.0, 1.0),))


def test_fox_wright_boundary_radius_gate():
    # Delta = 1 + 1 - 2 = 0; radius 2^-2 * 1 = 0.25, gated at 0.225.
    spec = FoxWrightSpec(upper=((1.0, 2.0),), lower=((1.0, 1.0),))
    assert spec.delta == 0.0
    ref = oracle.fox_wright([(1.0, 2.0)], [(1.0, 1.0)], 0.1)
    assert rel(fox_wright(spec, 0.1), ref) < 1e-12
    with pytest.raises(DomainError):
        fox_wright(spec, 0.24)


def test_fox_wright_numerator_pole_is_hard_error():
    # alpha + A k = -0.5 + 0.5 k hits the pole at k = 1.
    spec = FoxWrightSpec(upper=((-0.5, 0.5),), lower=((1.0, 1.0),))
    with pytest.raises(GammaPoleError):
        fox_wright(spec, 0.5)


def test_fox_wright_bad_weight_rejected():
    with pytest.raises(DomainError):
        FoxWrightSpec(upper=((1.0, -1.0),), lower=())


# --- pFq ------------------------------------------------------------------------

def test_pfq_exponential_and_binomial():
    assert rel(pfq([], [], 1.0), math.e) < 1e-14
    assert rel(pfq([2.0], [], 0.5), 4.0) < 1e-14


def test_pfq_matches_oracle():
    upper = [1.3, 0.7, 2.1]
    lower = [1.9, 2.2, 0.4, 1.1]
    z = -1.7
    assert rel(pfq(upper, lower, z), oracle.pfq(upper, lower, z)) < 1e-13


def test_pfq_divergence_rules():
    with pytest.raises(DivergenceError):
        pfq([1.0, 2.0, 3.0], [1.5], 0.5)  # p > q + 1
    with pytest.raises(DivergenceError):
        pfq([1.0, 2.0], [1.5], 1.0)  # p = q + 1 needs |z| < 1
    with pytest.raises(DomainError):
        pfq([1.0], [-2.0], 0.5)  # non-positive-integer lower parameter
    assert pfq([1.0, 2.0, 3.0], [1.5], 0.0) == 1.0  # z = 0 is fine


# --- truncation policy ----------------------------------------------------------

def test_series_control_validation():
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            SeriesControl(rel_tol=bad)
    with pytest.raises(DomainError):
        SeriesControl(max_terms=0)
    with pytest.raises(DomainError):
        SeriesControl(consecutive_small=0)


def test_non_convergence_reported():
    with pytest.raises(ConvergenceError):
        pfq([2.0], [], 0.99, SeriesControl(max_terms=25))


def test_truncation_soundness():
    # Doubling the budget and halving the tolerance moves the value by
    # less than the reported tail estimate.
    loose = SeriesControl(rel_tol=1e-10, max_terms=10_000)
    tight = SeriesControl(rel_tol=5e-11, max_terms=20_000)
    cases = [
        lambda ctl: struve_w_full(StruveParams(1.0, 1.0, 1.0), 5.0, ctl),
        lambda ctl: struve_w_full(StruveParams(0.5, -1.0, -1.0), 3.0, ctl),
        lambda ctl: pfq_full([1.3, 0.7], [1.9, 2.2, 0.4], -2.5, ctl),
        lambda ctl: fox_wright_full(
            FoxWrightSpec(upper=((1.0, 1.0), (2.0, 2.0)), lower=((1.5, 1.0), (3.0, 2.0))), -1.0, ctl
        ),
    ]
    for runner in cases:
        first = runner(loose)
        second = runner(tight)
        assert abs(second.value - first.value) < first.tail_estimate


# --- sum_terms against the reference loop --------------------------------------

def reference_sum_terms(terms, ctl):
    """The stopping rule as a KahanSum plus a deque window of the last
    ``consecutive_small`` magnitudes: the loop sum_terms must match bit
    for bit."""
    acc = KahanSum()
    window = deque(maxlen=ctl.consecutive_small)
    small_run = 0
    it = iter(terms)
    for k in range(ctl.max_terms):
        term = complex(next(it))
        if not (math.isfinite(term.real) and math.isfinite(term.imag)):
            raise RangeError(f"series term {k} is non-finite")
        acc.add(term)
        total = acc.value
        if not (math.isfinite(total.real) and math.isfinite(total.imag)):
            raise RangeError(f"partial sum overflows at term {k}")
        mag = abs(term)
        window.append(mag)
        if mag <= ctl.rel_tol * abs(total):
            small_run += 1
            if small_run >= ctl.consecutive_small:
                return SeriesResult(total, k + 1, 2.0 * max(window))
        else:
            small_run = 0
    raise ConvergenceError(f"series did not meet tolerance within {ctl.max_terms} terms")


def summed(summer, make_terms, ctl):
    """Bit pattern of a summation outcome: value, terms and tail, or the error."""
    try:
        result = summer(make_terms(), ctl)
    except (StruveintError, OverflowError) as exc:
        # OverflowError: |partial sum| beyond the double range with finite
        # parts, which both loops let escape from abs().
        return type(exc).__name__, str(exc)
    value = result.value
    return value.real.hex(), value.imag.hex(), result.terms, result.tail_estimate.hex()


def assert_matches_reference(make_terms, ctl):
    expected = summed(reference_sum_terms, make_terms, ctl)
    assert summed(sum_terms, make_terms, ctl) == expected
    return expected


finite = st.floats(-3.0, 3.0)
complexes = st.builds(complex, finite, st.floats(-1.0, 1.0))
controls = st.builds(
    SeriesControl,
    rel_tol=st.floats(-17.0, -3.0).map(lambda e: 10.0**e),
    max_terms=st.sampled_from((5, 30, 10_000)),
    consecutive_small=st.sampled_from((1, 3, 5)),
)
arguments = st.floats(-3.0, 1.8).map(lambda e: 10.0**e)


@st.composite
def term_streams(draw):
    """A zero-argument factory of W, W', W'', pFq or Fox-Wright terms."""
    kind = draw(st.sampled_from(("w", "w1", "w2", "pfq", "fox")))
    if kind.startswith("w"):
        # Re(p) >= 0 and Re(b) >= -1 keep p + (b+2)/2 away from the poles.
        params = StruveParams(
            complex(draw(st.floats(0.0, 3.0)), draw(st.floats(-1.0, 1.0))),
            complex(draw(st.floats(-1.0, 3.0)), draw(st.floats(-1.0, 1.0))),
            draw(complexes),
        )
        z = draw(arguments)
        if kind == "w":
            return lambda: _w_terms(params, z)
        return lambda: _struve_derivative_terms(params, z, int(kind[1]))
    z = draw(complexes.filter(lambda v: v != 0)) * draw(arguments)
    if kind == "pfq":
        upper = draw(st.lists(complexes, max_size=3))
        lower = draw(st.lists(complexes.map(lambda v: v + 3.5), max_size=3))
        return lambda: _pfq_terms(upper, lower, z)
    pairs = st.tuples(complexes.map(lambda v: v + 3.5), st.floats(0.3, 2.0))
    upper = draw(st.lists(pairs, max_size=2))
    lower = draw(st.lists(pairs, min_size=1, max_size=3))
    assume(1.0 + sum(w for _, w in lower) >= sum(w for _, w in upper))
    spec = FoxWrightSpec(tuple(upper), tuple(lower))
    return lambda: _fox_wright_terms(spec, z)


@settings(max_examples=300, deadline=None)
@given(make_terms=term_streams(), ctl=controls)
def test_sum_terms_matches_reference_loop(make_terms, ctl):
    assert_matches_reference(make_terms, ctl)


def test_sum_terms_crafted_streams():
    def stream(*head):
        return lambda: itertools.chain(head, itertools.repeat(0.0))

    ctl = SeriesControl()
    cases = [
        (stream(1.0, 0.5, math.inf), ("RangeError", "series term 2 is non-finite")),
        (stream(1.0, complex(0.0, math.nan)), ("RangeError", "series term 1 is non-finite")),
        (stream(1e308, 1e308), ("RangeError", "partial sum overflows at term 1")),
    ]
    for make_terms, expected in cases:
        assert assert_matches_reference(make_terms, ctl) == expected
    # The tail comes from the stopping run only, not from the earlier
    # small term 1e-17.
    assert assert_matches_reference(stream(1.0, 1e-17, 0.5), ctl)[2:] == (6, "0x0.0p+0")
    budget = SeriesControl(max_terms=5)
    assert assert_matches_reference(lambda: itertools.repeat(1.0), budget) == (
        "ConvergenceError",
        "series did not meet tolerance within 5 terms",
    )
