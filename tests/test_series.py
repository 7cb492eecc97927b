import bisect
import cmath
import itertools
import math
import pickle
import random
import sys
import threading
from collections import deque
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
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
    struve_w,
    struve_w_derivative,
    struve_w_full,
)
from struveint.errors import RangeError, StruveintError
from struveint.gammafn import _digamma
from struveint.series import (
    _LOG_GAMMA_3_2,
    SeriesResult,
    _fox_wright_terms,
    _gamma_shifted,
    _horner,
    _pfq_terms,
    _struve_derivative_terms,
    _w_evaluator,
    _w_table,
    _w_terms,
    boundary_radius,
    fsum_complex,
    sum_terms,
)

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


def test_struve_w_near_double_range_divides_first():
    # Term 344 is 1.48e303 and z^2/4 is 122,500: their product overflows
    # though term 345 and the sum, 5.35e304, are finite.
    ref = oracle.struve_w(0, -1, -1, 700, terms=600)
    assert rel(struve_w(StruveParams(0, -1, -1), 700), ref) < 1e-14


def test_struve_params_equality_and_repr_ignore_cached_log_gamma():
    params = StruveParams(1.0, 1.0, 1.0)
    assert params == StruveParams(1, 1 + 0j, 1.0)
    assert hash(params) == hash(StruveParams(1, 1 + 0j, 1.0))
    assert params != StruveParams(1.0, 1.0, -1.0)
    assert repr(params) == "StruveParams(p=(1+0j), b=(1+0j), c=(1+0j))"
    # A pickled copy rebuilds the cached log Gamma with the same bits.
    back = pickle.loads(pickle.dumps(params))
    assert back == params and repr(back) == repr(params)
    assert repr(back._log_gamma_shifted) == repr(params._log_gamma_shifted)


def test_struve_params_pole_rejected():
    with pytest.raises(DomainError):
        StruveParams(-1.0, 0.0, 1.0)  # p + (b+2)/2 = 0
    with pytest.raises(DomainError):
        StruveParams(-3.0, 2.0, 1.0)  # p + (b+2)/2 = -1


@pytest.mark.parametrize("p, b", [(-3.0, 2.00001), (-1.0, 0.001)])
def test_struve_w_near_gamma_pole_within_reported_error(p, b):
    # s = p + (b+2)/2 (-0.999995, then 0.0005) is rounded in double before
    # log Gamma(s), and Gamma amplifies that rounding by |psi(s)| (2e5,
    # then 2e3): W comes out 1.0e-15 (4.4e-11 relative), then 6.2e-17,
    # off the 40-digit oracle.  The series' own tail estimate is 2.3e-21,
    # then 5.6e-20; the rounding of s adds u (|p| + |b+2|) |psi(s)| |W|,
    # 3.5e-15, then 3.8e-16.  The reported error, plus log_gamma's own
    # 1e-14, covers it.
    res = struve_w_full(StruveParams(p, b, 0.0), 1.0)
    ref = oracle.struve_w(p, b, 0.0, 1.0)
    assert abs(res.value - ref) <= res.tail_estimate + 1e-14 * abs(ref)


@pytest.mark.parametrize("p, b, c, real_hex", [
    (-1.75, 1.0, 1.0, "-0x1.3974d93ce028ep-1"),
    (-1.3, 0.0, 1.0, "-0x1.e666ac3ed34a1p-2"),
    (-3.0, 2.00001, 0.0, "-0x1.7a9ed3d711bcbp-16"),
])
def test_real_struve_w_with_negative_gamma_is_real(p, b, c, real_hex):
    # Gamma(p + (b+2)/2) < 0 is carried as a sign, not as exp(i pi): the
    # imaginary part is 0 and the real part keeps its bits (cos(pi)
    # rounds to -1 exactly), in the table and in the term stream alike.
    params = StruveParams(p, b, c)
    value = struve_w(params, 1.0)
    assert value.imag == 0.0
    assert value.real.hex() == real_hex
    terms = sum_terms(_w_terms(params, 1.0)).value
    assert terms.imag == 0.0
    assert rel(terms, oracle.struve_w(p, b, c, 1.0)) < 1e-10


def test_struve_w_requires_positive_z():
    with pytest.raises(DomainError):
        struve_w(StruveParams(1.0, 1.0, 1.0), 0.0)
    with pytest.raises(DomainError):
        struve_w(StruveParams(1.0, 1.0, 1.0), -1.0)


H_PARAMS = (-1.0, 1.0)  # (b, c) of the paper's H_nu = W_{nu,-1,1}
L_PARAMS = (-1.0, -1.0)  # and of its all-positive companion L_nu


def test_struve_h_leading_behavior():
    # k = 0 term: (z/2)/(G(3/2) G(1/2)) = z/pi.
    z = 1e-6
    assert rel(struve_w(StruveParams(0.0, *H_PARAMS), z), z / math.pi) < 1e-12
    assert rel(struve_w(StruveParams(0.0, *L_PARAMS), z), z / math.pi) < 1e-12


def test_struve_h_oracle_value():
    # Frozen from the 40-digit series oracle at >= 40 terms.
    assert rel(struve_w(StruveParams(0.5, *H_PARAMS), 1.0), 0.33569835357090155) < 1e-14


def test_struve_h_is_w_with_b_minus1_c1():
    for p in (0.0, 0.5, 1.0, 2.3):
        for z in (0.1, 0.5, 1.0, 2.0, 5.0):
            h = oracle.struve_h(p, z)
            assert abs(struve_w(StruveParams(p, *H_PARAMS), z) - h) <= 1e-14 * abs(h)


def test_struve_l_is_w_with_b_minus1_c_minus1():
    for z in (0.5, 1.0, 2.0):
        l = oracle.struve_l(0.7, z)
        assert abs(struve_w(StruveParams(0.7, *L_PARAMS), z) - l) <= 1e-14 * abs(l)


def test_struve_h_and_l_reject_non_finite_order():
    for nu in (math.nan, math.inf):
        for bc in (H_PARAMS, L_PARAMS):
            with pytest.raises(DomainError):
                StruveParams(nu, *bc)


def test_struve_l_dominates_h():
    # All-positive terms versus alternating ones.
    h = struve_w(StruveParams(0.0, *H_PARAMS), 1.0)
    l = struve_w(StruveParams(0.0, *L_PARAMS), 1.0)
    assert l.real >= h.real


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


def test_derivative_order_checked():
    with pytest.raises(DomainError, match="derivative order must be 1 or 2"):
        struve_w_derivative(StruveParams(1.0, 1.0, 1.0), 1.0, 3)


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
    # z^k / k! at z = 1e300 leaves the double range at k = 2.
    with pytest.raises(RangeError, match="Fox-Wright term 2 overflows"):
        fox_wright(spec, 1e300)


def test_fox_wright_at_zero():
    spec = FoxWrightSpec(upper=((2.5, 1.0),), lower=((1.5, 2.0),))
    ref = gamma(2.5) / gamma(1.5)
    assert rel(fox_wright(spec, 0.0), ref) < 1e-14
    # Gamma(200) ~ 4e372: term 0 alone leaves the double range.
    with pytest.raises(RangeError, match="Fox-Wright term 0 overflows"):
        fox_wright(FoxWrightSpec(upper=((200.0, 1.0),)), 0.0)


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


def direct_radius(upper, lower):
    r = 1.0
    for e in upper:
        r *= e**-e
    for e in lower:
        r *= e**e
    return r


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(1e-3, 50.0), max_size=4),
    st.lists(st.floats(1e-3, 50.0), max_size=4),
)
def test_boundary_radius_keeps_the_direct_product(upper, lower):
    # Where the direct product stays in (0, inf), its bits are kept.
    try:
        ref = direct_radius(upper, lower)
    except OverflowError:
        ref = math.inf
    assume(0.0 < ref < math.inf)
    assert boundary_radius(upper, lower).hex() == ref.hex()


def test_boundary_radius_in_logs_past_the_double_range():
    # 1e305**1e305 overflows and 1e305**-1e305 underflows: the radius,
    # taken in logs, is 1 (and 1/4 with one more weight 2 above).
    assert boundary_radius([1e305], [1e305]) == 1.0
    assert boundary_radius([1e308], [1e308]) == 1.0
    assert rel(boundary_radius([1e305, 2.0], [1e305]), 0.25) < 1e-15
    assert boundary_radius([], [400.0]) == math.inf
    assert boundary_radius([400.0], []) == 0.0
    assert boundary_radius([1e308], []) == 0.0


def test_fox_wright_huge_boundary_weights_typed():
    # A value or a typed error, never a bare OverflowError from w**w.
    spec = FoxWrightSpec([(1.0, 1e305)], [(1.0, 1e305)])
    assert spec.delta == 0.0 and spec.radius == 1.0
    try:
        value = fox_wright_full(spec, 0.5).value
    except StruveintError:
        return
    assert cmath.isfinite(value)


def test_fox_wright_numerator_pole_is_hard_error():
    # alpha + A k = -0.5 + 0.5 k hits the pole at k = 1; the error names
    # the row, its parameter and the subscript A k.
    spec = FoxWrightSpec(upper=((-0.5, 0.5),), lower=((1.0, 1.0),))
    with pytest.raises(GammaPoleError) as excinfo:
        fox_wright(spec, 0.5)
    assert str(excinfo.value) == "upper[0]: parameter (-0.5+0j) at subscript 0.5 hits the gamma pole at 0"
    # At z = 0 only term 0 is taken; a pole there names its row too.
    spec = FoxWrightSpec(upper=((1.0, 1.0),), lower=((-2.0, 1.0),))
    with pytest.raises(GammaPoleError) as excinfo:
        fox_wright(spec, 0.0)
    assert str(excinfo.value) == "lower[0]: parameter (-2+0j) at subscript 0.0 hits the gamma pole at -2"


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
    with pytest.raises(DomainError):
        SeriesControl(max_terms=0)


def test_series_control_rejects_a_budget_that_is_not_an_int():
    # A float budget used to build, then fail every series with a bare
    # TypeError from islice; True used to build a budget of one term.
    for bad in (1.5, 10.0, math.inf, True, False, "10"):
        with pytest.raises(DomainError, match="max_terms must be an int"):
            SeriesControl(max_terms=bad)


def test_non_convergence_reported():
    with pytest.raises(ConvergenceError):
        pfq([2.0], [], 0.99, SeriesControl(max_terms=25))


def test_argument_beyond_double_range_is_range_error():
    # |1.5e308 + 1.5e308i| is not a double: pFq's |z| < 1 gate and the
    # Fox-Wright Delta = 0 radius gate raise a typed error, not a bare
    # OverflowError.
    z = 1.5e308 + 1.5e308j
    with pytest.raises(RangeError, match="exceeds the double range"):
        pfq_full([2.0], [], z)
    boundary = FoxWrightSpec(upper=((1.0, 1.0),))
    assert boundary.delta == 0
    with pytest.raises(RangeError, match="exceeds the double range"):
        fox_wright_full(boundary, z)


# --- sum_terms against the reference loop --------------------------------------

STOP_RUN = 3
REL_TOL = 1e-16


def exact_float(parts):
    """The float nearest the exact sum of finite floats (ties to even),
    computed in rationals; RangeError where it leaves the double range."""
    try:
        return float(sum(map(Fraction, parts), Fraction(0)))
    except OverflowError:
        raise RangeError("exactly rounded sum overflows") from None


def reference_sum_terms(terms, ctl):
    """The stopping rule as a plain running sum plus a deque window of
    the last three magnitudes, returning the exact sum of the kept terms
    rounded once: the loop sum_terms must match bit for bit.  A modulus
    beyond the double range is a RangeError."""
    total = 0j
    kept = []
    window = deque(maxlen=STOP_RUN)
    small_run = 0
    it = iter(terms)
    for k in range(ctl.max_terms):
        term = complex(next(it))
        if not (math.isfinite(term.real) and math.isfinite(term.imag)):
            raise RangeError(f"series term {k} is non-finite")
        kept.append(term)
        total += term
        if not (math.isfinite(total.real) and math.isfinite(total.imag)):
            raise RangeError(f"partial sum overflows at term {k}")
        try:
            mag = abs(term)
            small = mag <= REL_TOL * abs(total)
        except OverflowError:
            raise RangeError(f"series modulus overflows at term {k}") from None
        window.append(mag)
        if small:
            small_run += 1
            if small_run >= STOP_RUN:
                value = complex(
                    exact_float(t.real for t in kept), exact_float(t.imag for t in kept)
                )
                return SeriesResult(value, k + 1, 2.0 * max(window))
        else:
            small_run = 0
    raise ConvergenceError(f"series did not meet tolerance within {ctl.max_terms} terms")


def outcome(run):
    """Bit pattern of run()'s SeriesResult: value, terms and tail, or the error."""
    try:
        result = run()
    except StruveintError as exc:
        return type(exc).__name__, str(exc)
    value = result.value
    return value.real.hex(), value.imag.hex(), result.terms, result.tail_estimate.hex()


def summed(summer, make_terms, ctl):
    return outcome(lambda: summer(make_terms(), ctl))


def assert_matches_reference(make_terms, ctl):
    expected = summed(reference_sum_terms, make_terms, ctl)
    assert summed(sum_terms, make_terms, ctl) == expected
    return expected


finite = st.floats(-3.0, 3.0)
complexes = st.builds(complex, finite, st.floats(-1.0, 1.0))
controls = st.builds(SeriesControl, max_terms=st.sampled_from((5, 30, 10_000)))
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


def may_overflow_on_the_way(parts):
    """Whether some prefix sum plus the next value reaches 2**1023 in
    magnitude, so that math.fsum may overflow before its exact result."""
    prefix = Fraction(0)
    for part in parts:
        if abs(prefix) + abs(Fraction(part)) >= 2**1023:
            return True
        prefix += Fraction(part)
    return False


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.builds(
            complex,
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(allow_nan=False, allow_infinity=False),
        )
    )
)
def test_fsum_complex_matches_exact_sum(values):
    parts = ([v.real for v in values], [v.imag for v in values])
    try:
        expected = [exact_float(part).hex() for part in parts]
    except RangeError:
        with pytest.raises(RangeError, match="exactly rounded sum overflows"):
            fsum_complex(values)
        return
    try:
        total = fsum_complex(values)
    except RangeError:
        # The exact sum is a double, but a partial sum on the way is not.
        assert any(may_overflow_on_the_way(part) for part in parts)
        return
    assert [total.real.hex(), total.imag.hex()] == expected


def test_fsum_complex_crafted():
    assert (fsum_complex([]).real.hex(), fsum_complex([]).imag.hex()) == ("0x0.0p+0", "0x0.0p+0")
    # Plain summation loses the ones to 1e16; the exact sum keeps them.
    assert fsum_complex([1e16, 1, 1]) == 1e16 + 2 != sum([1e16, 1, 1])
    # Kahan's step lost the 1 here (-1e16 + 1 rounds); the exact sum is 1.
    assert fsum_complex([1e16, 1, -1e16]) == 1
    assert fsum_complex([1e16j, 1j, -1e16j]) == 1j
    with pytest.raises(RangeError, match="exactly rounded sum overflows"):
        fsum_complex([1e308, 1e308])
    with pytest.raises(RangeError, match="exactly rounded sum overflows"):
        fsum_complex([math.inf, -math.inf])


def test_sum_terms_crafted_streams():
    def stream(*head):
        return lambda: itertools.chain(head, itertools.repeat(0.0))

    ctl = SeriesControl()
    cases = [
        (stream(1.0, 0.5, math.inf), ("RangeError", "series term 2 is non-finite")),
        (stream(1.0, complex(0.0, math.nan)), ("RangeError", "series term 1 is non-finite")),
        (stream(1e308, 1e308), ("RangeError", "partial sum overflows at term 1")),
        (stream(complex(1.5e308, 1.5e308)), ("RangeError", "series modulus overflows at term 0")),
        # Each 2**969 is below half an ulp of the running sum, which stays
        # finite; the three together round the exact sum past the range.
        (stream(sys.float_info.max, *[2.0**969] * 3), ("RangeError", "exactly rounded sum overflows")),
    ]
    for make_terms, expected in cases:
        assert assert_matches_reference(make_terms, ctl) == expected
    # The running sum loses the 1 to 1e16, the returned exact sum keeps it.
    assert assert_matches_reference(stream(1e16, 1.0, -1e16), ctl) == ("0x1.0000000000000p+0", "0x0.0p+0", 6, "0x0.0p+0")
    # The tail comes from the stopping run only, not from the earlier
    # small term 1e-17.
    assert assert_matches_reference(stream(1.0, 1e-17, 0.5), ctl)[2:] == (6, "0x0.0p+0")
    # 1e-16 times the partial sum 1.0 is small, 1.1e-16 is not: the run
    # of two resets at term 3 and the next three stop the sum.
    assert assert_matches_reference(stream(1.0, 1e-16, 1e-16, 1.1e-16, 1e-16, 1e-16, 1e-16), ctl)[2:] == (
        7,
        (2.0 * 1e-16).hex(),
    )
    budget = SeriesControl(max_terms=5)
    assert assert_matches_reference(lambda: itertools.repeat(1.0), budget) == (
        "ConvergenceError",
        "series did not meet tolerance within 5 terms",
    )


# --- real W by Horner's rule over a coefficient table ------------------------------

U = 2.0**-53  # unit roundoff


def abs_term_sums(p, b, c, z):
    """(sum_k |t_k|, sum_k |psi(s + k) t_k|) of W_{p,b,c}(z) for real p,
    b, c, from log |Gamma|; psi(s + k + 1) = psi(s + k) + 1 / (s + k)."""
    s = p + (b + 2) / 2
    log_half = math.log(z / 2)
    psi = float(mpmath.digamma(s))
    total = weighted = 0.0
    for k in range(400 if c else 1):
        log_mag = (2 * k + p + 1) * log_half - math.lgamma(k + 1.5) - math.lgamma(k + s)
        mag = math.exp(log_mag + (k * math.log(abs(c)) if k else 0.0))
        total += mag
        weighted += abs(psi) * mag
        psi += 1.0 / (s + k)
    return total, weighted


def reaches(params, z, ctl=SeriesControl()):
    """Whether a coefficient table built for z certifies w = (z/2)^2."""
    w = (z / 2) ** 2
    limits = _w_table(params, w, ctl)[1]
    return bool(limits) and limits[-1] >= w


# (p, b) with s = p + (b+2)/2 just below the pole of Gamma at -4.
NEAR_POLE = (-3.6078702427844616, -2.784259517458647)


@st.composite
def struve_draws(draw, real=None, log10_z=(-3.0, math.log10(60.0))):
    """(params, z): real or complex p, b, c, with shifted orders
    p + (b+2)/2 in [-5, 7], so real negative non-integer ones too."""
    if real is None:
        real = draw(st.booleans())

    def part(bound):
        x = draw(st.floats(-bound, bound))
        return x if real else complex(x, draw(st.floats(-1.0, 1.0)))

    try:
        params = StruveParams(part(4.0), part(4.0), part(3.0))
    except DomainError:
        assume(False)
    z = draw(st.floats(*log10_z).map(lambda e: 10.0**e))
    return params, z


@settings(max_examples=300, deadline=None)
@given(draw=struve_draws(real=True, log10_z=(-3.0, math.log10(30.0))))
# s = 0.0005: the rounding of s, times |psi(s)| = 2e3, is the largest error.
@example(draw=(StruveParams(-1.0, 0.001, 0.0), 1.0))
def test_struve_w_real_table_matches_oracle(draw):
    # The table path's value V = fl(t0 * S), S Horner's rule over the K
    # coefficients a_0..a_{K-1} in w = (z/2)^2, misses W by at most
    #   truncation: 2 |a_K| w^K t0 <= 1e-16 t0 (the certified limit);
    #   Horner (N. J. Higham, Accuracy and Stability of Numerical
    #     Algorithms, 2nd ed., 2002, sec. 5.1): gamma_{2K} sum |a_k| w^k;
    #   the inputs: each a_k is k recurrence steps of 4 roundings
    #     (k + s, the product, times -c, the division), gamma_{4K}, and
    #     w^k carries w's one rounding k times, gamma_K;
    #   t0 = exp(L): L = (p+1) log(z/2) - log G(3/2) - log G(s) is off by
    #     at most u (3 |(p+1) log(z/2)| + 6 |log G(s)| + 4), which exp
    #     turns into that relative error, plus one rounding each for exp
    #     and the final product;
    #   s = p + (b+2)/2 itself: b + 2 and the sum each round once, so s is
    #     off by at most u (|b+2|/2 + |s|) <= u (|p| + |b+2|), and every
    #     term above is exact for that s; t_k moves by psi(s + k) t_k per
    #     unit of s, to first order.
    # With gamma_n <= 1.01 n u and sum |t_k| = t0 sum |a_k| w^k, all of it
    # is below 1e-16 t0 + u (8K + 4 |(p+1) log(z/2)| + 8 |log G(s)| + 8)
    # sum |t_k| + u (|p| + |b+2|) sum |psi(s + k) t_k|.  z <= 30 keeps the
    # oracle's 120 terms exact at 40 digits.  For s < 0, where Gamma(s) may
    # be negative, log_gamma reflects, and its own error, at most
    # 1e-14 max(1, |log G(s)|), moves every term by that much relatively.
    # The reported tail estimate is the truncation term plus, on the
    # leading term, the rounding of s, u (|p| + |b+2|) |psi(s)| |W|, and
    # for s < 0 that error of log G(s).
    params, z = draw
    assume(reaches(params, z))
    p, b, c = params.p.real, params.b.real, params.c.real
    res = struve_w_full(params, z)
    assert res.value.imag == 0.0
    lead = abs(next(_w_terms(params, z)))
    assert res.tail_estimate == w_tail(params, 1e-16 * lead, res.value)
    exponent = abs((p + 1) * math.log(z / 2)) + 2 * abs(params._log_gamma_shifted.real)
    total, weighted = abs_term_sums(p, b, c, z)
    bound = 1e-16 * lead + U * (8 * res.terms + 4 * exponent + 8) * total + U * (abs(p) + abs(b + 2)) * weighted
    bound += log_gamma_error(params) * total
    assert abs(res.value - oracle.struve_w(p, b, c, z)) <= bound


def log_gamma_error(params):
    """1e-14 max(1, |log G(s)|) where s is not real and positive, else 0."""
    s = params.shifted_order
    return 1e-14 * max(1.0, abs(params._log_gamma_shifted)) if s.imag or s.real < 0 else 0.0


def test_log_gamma_error_is_in_the_tail_estimate():
    # W_{-2,1,0}(1) = -2/pi (s = -1/2, Gamma(s) < 0): log_gamma(-1/2)
    # reflects and is 4.9e-15 off, which puts W 3.0e-15 off; the rounding
    # of s alone estimated 7.7e-17.  The value keeps its bits.  A complex
    # s takes log_gamma's shifted Stirling sum, whose error showed the
    # same way (below: 33x the rounding of s).
    params = StruveParams(-2.0, 1.0, 0.0)
    res = struve_w_full(params, 1.0)
    assert res.value == -0.6366197723675784
    error = abs(res.value + 2 / mpmath.pi)
    assert 2e-15 < error <= res.tail_estimate
    lead = abs(next(_w_terms(params, 1.0)))
    assert res.tail_estimate == w_tail(params, 1e-16 * lead, res.value)
    assert res.tail_estimate - log_gamma_error(params) * abs(res.value) < 1e-16
    p, b, c, z = 0.2542685703311114 - 0.1670763505468167j, 0.5312713643357365, 0.03353642044082039, 0.013577404289500125
    params = StruveParams(p, b, c)
    res = struve_w_full(params, z)
    error = abs(res.value - oracle.struve_w(p, b, c, z))
    assert 30 * U * (abs(p) + abs(b + 2)) * abs(_digamma(params.shifted_order)) * abs(res.value) < error
    assert error <= res.tail_estimate


def w_tail(params, series_tail, value):
    """struve_w_full's tail estimate: the series' own plus the rounding of
    s = p + (b+2)/2, u (|p| + |b+2|) |psi(s)| |W|, and where log_gamma
    reflects its error."""
    rounding = U * (abs(params.p) + abs(params.b + 2)) * abs(_digamma(params.shifted_order))
    return series_tail + (rounding + log_gamma_error(params)) * abs(value)


def test_near_pole_tail_estimate_covers_the_error():
    # W_{p,b,0}(1) with s = p + (b+2)/2 = -4 - 1.5e-9: b + 2 is exact here
    # and the sum rounds by nearly half an ulp.  The error, 7.331345635e-14,
    # was above u (|p| + |b+2|/2) |psi(s)| |W| = 7.331345595e-14;
    # u (|p| + |b+2|) |psi(s)| |W|, which bounds both roundings, is 8.05e-14.
    p, b = NEAR_POLE
    res = struve_w_full(StruveParams(p, b, 0.0), 1.0)
    assert abs(res.value - oracle.struve_w(p, b, 0.0, 1.0)) <= res.tail_estimate


def assert_matches_sum_terms(params, z, ctl):
    """struve_w_full agrees bit for bit with sum_terms over _w_terms:
    value, terms and tail (plus the rounding of s), or the error's type
    and message."""

    def common():
        res = sum_terms(_w_terms(params, z), ctl)
        return SeriesResult(res.value, res.terms, w_tail(params, res.tail_estimate, res.value))

    expected = outcome(common)
    assert outcome(lambda: struve_w_full(params, z, ctl)) == expected
    return expected


@settings(max_examples=200, deadline=None)
@given(
    draw=struve_draws(log10_z=(-3.0, 3.0)),
    ctl=st.sampled_from((SeriesControl(), SeriesControl(max_terms=5))),
)
def test_struve_w_fallback_matches_sum_terms(draw, ctl):
    # Past its table's reach, W with real or complex parameters is the
    # common rule itself.
    params, z = draw
    assume(not reaches(params, z, ctl))
    assert_matches_sum_terms(params, z, ctl)


def modulus_sum(params, z):
    """sum_k |t_k| of W_{p,b,c}(z) over the terms _w_terms yields until
    they fall below 1e-20 of the sum, and the terms' count."""
    total = 0.0
    for k, term in enumerate(itertools.islice(_w_terms(params, z), 1000)):
        total += abs(term)
        if k > 2 and abs(term) <= 1e-20 * total:
            return total, k + 1
    raise AssertionError("terms did not fall within 1000")


@settings(max_examples=300, deadline=None)
@given(draw=struve_draws(log10_z=(-3.0, math.log10(30.0))), real=st.booleans())
# s = -4 - 1.5e-9, Gamma(s) < 0: the error is above u (|p| + |b+2|/2) |psi(s)| |W|.
@example(draw=(StruveParams(*NEAR_POLE, 0.0), 1.0), real=True)
def test_struve_w_complex_table_matches_sum_terms_and_oracle(draw, real):
    # Complex p, b, c, or real ones with Gamma(p + (b+2)/2) < 0, summed
    # over the table.  Against the common rule, which shares its t0, the
    # two recurrences and Horner's rule each round a few times per term:
    # K terms of complex arithmetic stay within 24 K u sum_k |t_k| (at
    # K <= 10, 1e-15 of it was never exceeded; at K = 58 it was, by 5 %).
    # Against the 40-digit oracle (z <= 30 keeps its 120 terms exact) t0
    # adds its own error: log Gamma's, at most 2e-14 relative (test_gamma),
    # a few roundings of (p+1) log(z/2), and the rounding of
    # s = p + (b+2)/2, which Gamma turns into |digamma(s)| times its
    # size: near a pole that is the largest term.
    params, z = draw
    assume(params._log_gamma_shifted.imag and reaches(params, z))
    assume(not real or not (params.p.imag or params.b.imag or params.c.imag))
    res = struve_w_full(params, z)
    try:
        common = sum_terms(_w_terms(params, z))
    except RangeError:
        assume(False)
    scale, terms = modulus_sum(params, z)
    assume(terms < 120)
    assert res.tail_estimate == w_tail(params, 1e-16 * abs(next(_w_terms(params, z))), res.value)
    rounding = 24 * max(res.terms, common.terms) * U
    assert abs(res.value - common.value) <= max(1e-15, rounding) * scale
    lead = 2e-14 * abs(params._log_gamma_shifted) + 4 * U * abs((params.p + 1) * math.log(z / 2))
    lead += 4 * U * (abs(params.p) + abs(params.b) + 2) * abs(mpmath.digamma(params.shifted_order))
    assert abs(res.value - oracle.struve_w(params.p, params.b, params.c, z)) <= (rounding + lead) * scale


def test_struve_w_is_the_full_value():
    # struve_w skips struve_w_full's tail estimate (and its digamma) but
    # returns the same complex bits, on the table and past it.
    for p, b, c, z in [(1.0, 1.0, 1.0, 2.0), (1.0, 1.0, 1.0, 90.0), (-1.3, 0.0, 1.0, 1.0),
                       (0.5 + 0.2j, 1.0, -1.0 + 0.1j, 3.0), (-3.0, 2.00001, 0.0, 1.0)]:
        params = StruveParams(p, b, c)
        value = struve_w(params, z)
        assert type(value) is complex
        full = struve_w_full(params, z).value
        assert (value.real.hex(), value.imag.hex()) == (full.real.hex(), full.imag.hex())


@pytest.mark.parametrize("p, b, c", [
    (1.0, 1.0, 1.0),
    (0.3, -1.0, -1.0),
    (-1.75, 1.0, 1.0),  # Gamma(s) < 0: Horner's rule over -a_k
    (1.0 + 0.5j, 1.0, 1.0),
    (0.5 + 0.2j, 1.0, -1.0 + 0.1j),
])
def test_evaluator_is_t0_times_horner(p, b, c):
    # The evaluator walks a reversed row of its table per index k; at
    # every k the table reaches its value is t0 * _horner(coeffs, k, w)
    # bit for bit, from a shared evaluator and from one-off ones.
    params, ctl = StruveParams(p, b, c), SeriesControl()
    w_max = 100.0
    coeffs, limits, _ = _w_table(params, w_max, ctl)
    sign, lgs = _gamma_shifted(params)
    if sign < 0:
        coeffs = [-a for a in coeffs]
    p1 = (params.p if params.p.imag else params.p.real) + 1
    lgs = lgs if lgs.imag else lgs.real
    real_t0 = isinstance(p1, float) and isinstance(lgs, float)
    shared = _w_evaluator(params, w_max, ctl)
    reached = set()
    for k, limit in enumerate(limits):
        below = limits[k - 1] if k else 0.0
        if not below < limit:
            continue  # no w selects this k
        z = 2.0 * math.sqrt(0.5 * (below + min(limit, w_max)))
        half = z / 2.0
        w = half * half
        k = bisect.bisect_left(limits, w)
        # cmath.exp has math.exp's bits at these sizes.
        t0 = cmath.exp(p1 * math.log(half) - _LOG_GAMMA_3_2 - lgs)
        expected = complex((t0.real if real_t0 else t0) * _horner(coeffs, k, w))
        bits = (expected.real.hex(), expected.imag.hex())
        full = struve_w_full(params, z)
        assert full.terms == k + 1
        for value in (shared(z), struve_w(params, z), full.value, _w_evaluator(params, w, ctl)(z)):
            value = complex(value)
            assert (value.real.hex(), value.imag.hex()) == bits, (k, z)
        reached.add(k)
    assert len(reached) > 10


@pytest.mark.parametrize("p, b, c, checked_once", [
    (1.2, 1.0, 1.0, True),
    (0.5, -4.0, 1.0, True),  # Gamma(s) < 0, s = -1/2
    (1.2, 1.0, -1.0, True),
    (-1.75, 1.0, 1.0, False),  # p + 1 <= 0: t_0 falls as z grows
    (1.0 + 0.5j, 1.0, 1.0, False),
])
def test_checked_once_path_keeps_the_bits(p, b, c, checked_once):
    # Where t_0 is real and p + 1 > 0, the evaluator proves once per table
    # that every call with 2 _TINY <= z <= z_top passes its range and
    # overflow tests, and skips them.  A full call always takes the tests,
    # and so does every z outside that range: across the table, at its top
    # z_top = 2 sqrt(limits[-1]) and its neighbours, past the table and at
    # the smallest positive z, both give the same value.  So does a
    # one-off struve_w wherever the shared table reaches w = (z/2)^2 (past
    # it, the shared table falls back to sum_terms, the one-off does not).
    params, ctl = StruveParams(p, b, c), SeriesControl()
    evaluate = _w_evaluator(params, 25.0, ctl)
    cells = dict(zip(evaluate.__code__.co_freevars, evaluate.__closure__))
    assert (cells["z_top"].cell_contents > 0.0) == checked_once
    limits = _w_table(params, 25.0, ctl)[1]
    z_top = 2.0 * math.sqrt(limits[-1])
    # A reordered leading-term expression moves the bits at a few per cent
    # of z, so the grid is fine enough to meet some of them.
    zs = [z_top * j / 512 for j in range(1, 513)]
    zs += [math.nextafter(z_top, 0.0), math.nextafter(z_top, math.inf), 1.5 * z_top, 5e-324]

    def value(run):
        try:
            return repr(complex(run()))
        except StruveintError as exc:
            return repr(exc)

    for z in zs:
        expected = value(lambda: evaluate(z, True).value)
        assert value(lambda: evaluate(z)) == expected, z
        if (z / 2.0) * (z / 2.0) <= limits[-1]:
            assert value(lambda: struve_w(params, z)) == expected, z


def test_struve_w_real_fallback_crafted():
    # W_{1,1,1}'s table ends before a_k underflows, near z = 60: past it
    # the common rule sums.
    shared = StruveParams(1.0, 1.0, 1.0)
    cases = [(shared, z, SeriesControl()) for z in (70.0, 90.0, 200.0)]
    # A budget below the certified index, and a c whose a_1 underflows.
    cases += [(shared, 2.0, SeriesControl(max_terms=5)), (StruveParams(1.0, 1.0, 5e-308), 2.0, SeriesControl())]
    for params, z, ctl in cases:
        assert not reaches(params, z, ctl)
        assert_matches_sum_terms(params, z, ctl)
    # Within reach the table certifies fewer terms than the stopping rule.
    assert reaches(shared, 2.0, SeriesControl(max_terms=11))
    assert struve_w_full(shared, 2.0, SeriesControl(max_terms=11)).terms == 11
    assert sum_terms(_w_terms(shared, 2.0)).terms == 14


def test_struve_w_crafted_extremes():
    # Shifted order 0.1 and a leading term near e^709: it must round as
    # cmath.exp does (math.exp differs in the last bit at these levels).
    lead = StruveParams(400.0, -801.8, 0.0)
    second = lead.shifted_order.real
    log_scale = math.lgamma(1.5) + lead._log_gamma_shifted.real
    for level in (708.9, 709.1, 709.5):
        z = 2.0 * math.exp((level + log_scale) / 401.0)
        # c = 0: the value is the leading term, bit for bit.
        t0 = sum_terms(_w_terms(lead, z)).value
        assert outcome(lambda: struve_w_full(lead, z))[:3] == (t0.real.hex(), "0x0.0p+0", 1)
        if level < 709.5:
            assert rel(struve_w(StruveParams(400.0, -801.8, 1e-3), z), oracle.struve_w(400, -801.8, 1e-3, z)) < 1e-12
    # A complex c that turns term 1 to phase 3 pi / 4 at modulus 2.5 e^709:
    # both parts and the partial sum are finite, the modulus is not.  The
    # value (modulus 1.3e308) is finite too, but |t0| sum_k |a_k| w^k is
    # not, so the table leaves it to the common rule, which names it.
    z = 2.0 * math.exp((709.0 + log_scale) / 401.0)
    half = z / 2.0
    c = -2.5 * cmath.exp(0.75j * math.pi) * 1.5 * second / (half * half)
    assert assert_matches_sum_terms(StruveParams(400.0, -801.8, c), z, SeriesControl()) == (
        "RangeError",
        "series modulus overflows at term 1",
    )
    # A negative non-integer shifted order: log Gamma carries i pi, and
    # t0 takes the sign as a real factor.
    params = StruveParams(-1.3, 0.0, 1.0)
    assert params._log_gamma_shifted.imag
    assert reaches(params, 1.0)
    value = struve_w(params, 1.0)
    assert value.real < 0
    assert rel(value, oracle.struve_w(-1.3, 0.0, 1.0, 1.0)) < 1e-15
    # A real c that repeats a leading term near e^709.5: t0 (1 + 3/2)
    # leaves the double range, and the common rule names the sum.
    z = 2.0 * math.exp((709.5 + log_scale) / 401.0)
    half = z / 2.0
    c = -1.5 * second / (half * half)
    assert assert_matches_sum_terms(StruveParams(400.0, -801.8, c), z, SeriesControl()) == (
        "RangeError",
        "partial sum overflows at term 1",
    )
    # W_{0,-1,-1}(700) = 5.35e304 and W_{0,-1,-1}(720) = 2.6e313 (40-digit
    # sums): the table ends before a_k underflows, so it never reads an
    # underflowed coefficient as 0 and returns a wrong value (3.4e196 at
    # z = 700).  The common rule sums the first, whose term 344 times
    # z^2/4 overflows though term 345 does not, and names the second's
    # partial sum.
    params = StruveParams(0.0, -1.0, -1.0)
    assert assert_matches_sum_terms(params, 700.0, SeriesControl())[:3] == (
        "0x1.380ba7308510dp+1012",
        "0x0.0p+0",
        466,
    )
    assert assert_matches_sum_terms(params, 720.0, SeriesControl()) == (
        "RangeError",
        "partial sum overflows at term 303",
    )
    # A leading term beyond e^709, real and complex.
    for p in (400.0, 400.0 + 1j):
        assert assert_matches_sum_terms(StruveParams(p, 0.0, 1.0), 1e5, SeriesControl()) == (
            "RangeError",
            "leading series term overflows",
        )


def test_struve_w_smallest_positive_z():
    # z/2 rounds to 0 at 5e-324 and loses bits just above it; log(z/2)
    # is taken as log z - log 2 there.  W_{1,1,1} ~ (z/2)^2 underflows
    # to 0 for real and complex p alike.
    for p in (1.0, 1.0 + 1j):
        res = struve_w_full(StruveParams(p, 1.0, 1.0), 5e-324)
        assert res.value == 0
    # p + 1 < 0: W ~ (z/2)^(-1/2) is finite and large.  Its log, ~372,
    # carries a rounding of ~4e-14 that exp turns into a relative error.
    for z in (5e-324, 1.5e-323, 2.0**-1022):
        value = struve_w(StruveParams(-1.5, 2.0, 1.0), z)
        assert value.real > 1e150
        assert rel(value, oracle.struve_w(-1.5, 2.0, 1.0, z)) < 2e-13
        assert rel(struve_w(StruveParams(-1.5 + 0.5j, 2.0, 1.0), z), oracle.struve_w(-1.5 + 0.5j, 2.0, 1.0, z)) < 2e-13


def test_struve_w_shared_params_across_threads():
    # Four threads sum W over one StruveParams, each taking the arguments
    # in a different order; every value matches a serial run on fresh
    # params.
    zs = [0.3, 2.0, 55.0, 7.5, 30.0, 60.0, 1.0, 45.0]
    serial = [outcome(lambda: struve_w_full(StruveParams(1.0, 1.0, 1.0), z)) for z in zs]
    shared = StruveParams(1.0, 1.0, 1.0)
    orders = [zs, zs[::-1], zs[1::2] + zs[::2], sorted(zs)]
    results = [None] * len(orders)
    barrier = threading.Barrier(len(orders), timeout=30)

    def work(i):
        barrier.wait()
        results[i] = [(z, outcome(lambda: struve_w_full(shared, z))) for z in orders[i] * 20]

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(orders))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    expected = dict(zip(zs, serial))
    for got in results:
        assert len(got) == 20 * len(zs)
        assert all(value == expected[z] for z, value in got)
