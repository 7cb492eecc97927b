"""The ten immutable value records: equality, hashing, repr, pickling and
immutability go by their fields' values."""

import pickle

import pytest

from struveint import (
    FoxWrightSpec,
    IntegralCase,
    LauricellaResult,
    LauricellaSpec,
    QuadControl,
    QuadResult,
    SeriesControl,
    SeriesResult,
    StruveParams,
    VerificationReport,
)


def case(lam=2):
    return IntegralCase("theorem1", 1, lam, 0.75, 1, 1, [1], [1])


def quad(evaluations=310):
    return QuadResult(0.5 + 0j, 1e-14, 34, 12.5, True, evaluations)


def series(terms=31):
    return LauricellaResult(1.25 + 0j, 30, terms, 1e-18)


CASE_REPR = ("IntegralCase(variant='theorem1', a=1.0, lam=(2+0j), mu=(0.75+0j), b=(1+0j), c=(1+0j), "
             "p=((1+0j),), y=(1.0,), n=1)")
# Built from six fields: stop_reason, added last, defaults to None.
QUAD_REPR = ("QuadResult(value=(0.5+0j), error_estimate=1e-14, panels_used=34, cutoff_theta=12.5, "
             "converged=True, evaluations=310, stop_reason=None)")
SERIES_REPR = "LauricellaResult(value=(1.25+0j), shells=30, terms=31, tail_estimate=1e-18)"

# (build, build with one field changed, the repr the records had as dataclasses)
RECORDS = [
    (lambda: SeriesControl(25), lambda: SeriesControl(26), "SeriesControl(max_terms=25)"),
    (lambda: SeriesResult(0.5 - 0.25j, 7, 2e-17), lambda: SeriesResult(0.5 - 0.25j, 8, 2e-17),
     "SeriesResult(value=(0.5-0.25j), terms=7, tail_estimate=2e-17)"),
    (lambda: StruveParams(1, 0.5, -1), lambda: StruveParams(1, 0.5, 1),
     "StruveParams(p=(1+0j), b=(0.5+0j), c=(-1+0j))"),
    (lambda: FoxWrightSpec([(1, 2)], [("1.5", 1)]), lambda: FoxWrightSpec([(1, 2)], [("1.5", 2)]),
     "FoxWrightSpec(upper=(((1+0j), 2.0),), lower=(((1.5+0j), 1.0),))"),
    (lambda: LauricellaSpec([("2.5", [1.0])], [("3.5", [1.0])], [[]], [[("1.5", 1.0)]], 1),
     lambda: LauricellaSpec([("2.5", [1.0])], [("3.5", [1.0])], [[]], [[("2.5", 1.0)]], 1),
     "LauricellaSpec(global_upper=(((2.5+0j), (1.0,)),), global_lower=(((3.5+0j), (1.0,)),), "
     "per_var_upper=((),), per_var_lower=((((1.5+0j), 1.0),),), n=1)"),
    (series, lambda: series(32), SERIES_REPR),
    (lambda: QuadControl(1e-9), lambda: QuadControl(1e-10), "QuadControl(rel_tol=1e-09)"),
    (quad, lambda: quad(311), QUAD_REPR),
    (case, lambda: case(2.5), CASE_REPR),
    (lambda: VerificationReport(case(), True, 1e-6, None, quad(), series(), 0.4 + 0j, 0.0015),
     lambda: VerificationReport(case(), True, 1e-6, None, quad(), series(32), 0.4 + 0j, 0.0015),
     f"VerificationReport(case={CASE_REPR}, passed=True, tolerance_used=1e-06, reason=None, "
     f"quad={QUAD_REPR}, series={SERIES_REPR}, prefactor=(0.4+0j), wall_clock_s=0.0015)"),
]


@pytest.mark.parametrize("build, build_other, expected_repr", RECORDS,
                         ids=[expected.split("(")[0] for _, _, expected in RECORDS])
def test_record_is_an_immutable_value(build, build_other, expected_repr):
    rec = build()
    assert repr(rec) == expected_repr
    # == and hash go by the fields' values, not by identity or type.
    twin = build()
    assert twin is not rec and twin == rec and hash(twin) == hash(rec)
    assert build_other() != rec
    assert rec != tuple(getattr(rec, name) for name in type(rec).__slots__)
    # No field, derived slot or new attribute can be set or deleted.
    for name in (*type(rec).__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert repr(rec) == expected_repr
    # No per-instance dict: the benchmark keeps every report it makes.
    assert not hasattr(rec, "__dict__")
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is type(rec) and back == rec and repr(back) == expected_repr
