"""Running one op against the public struveint API and checking it.

``execute`` is what the timed loop and the set-up probe call; ``check``
compares its outcome with the mpmath reference.
"""

from __future__ import annotations

import contextlib

from struveint import (
    THEOREM1,
    IntegralCase,
    LauricellaResult,
    StruveintError,
    lauricella_eval_full,
    prefactor_theorem1,
    prefactor_theorem2,
    rhs_corollary,
    rhs_spec_theorem1,
    rhs_spec_theorem2,
    verify_case,
)


def integral_case(case: dict) -> IntegralCase:
    def cx(pair):
        return complex(pair[0], pair[1])

    return IntegralCase(
        case["variant"],
        a=case["a"],
        lam=cx(case["lam"]),
        mu=cx(case["mu"]),
        b=cx(case["b"]),
        c=cx(case["c"]),
        p=tuple(cx(v) for v in case["p"]),
        y=tuple(case["y"]),
    )


def _untraced(name: str):
    return contextlib.nullcontext()


def right_side(case: IntegralCase, span=_untraced) -> tuple[complex, LauricellaResult]:
    """(prefactor times Lauricella value, the Lauricella result), built
    as verify_case builds its right side.

    ``span(name)`` gives a context manager entered around each of the
    three library calls; tracing.py passes one that times them.
    """
    theorem1 = case.variant == THEOREM1
    with span("identities.prefactor"):
        pref = prefactor_theorem1(case) if theorem1 else prefactor_theorem2(case)
    with span("identities.rhs_spec"):
        spec, z = rhs_spec_theorem1(case) if theorem1 else rhs_spec_theorem2(case)
    with span("lauricella.eval"):
        series = lauricella_eval_full(spec, z)
    return pref * series.value, series


def execute(op: dict, case: IntegralCase):
    """The op's result, or the StruveintError it raised."""
    try:
        if op["kind"] == "verify":
            return verify_case(case, tol=op["tol"])
        if op["kind"] == "theorem":
            return right_side(case)[0]
        return rhs_corollary(case, op["which"])
    except StruveintError as exc:
        return exc


def rel_diff(value: complex, ref: complex) -> float:
    return abs(value - ref) / abs(ref)


def check(op: dict, result, ref: complex) -> str | None:
    """None when the outcome is correct, else why it is not."""
    if isinstance(result, StruveintError):
        return f"{type(result).__name__}: {result}"
    if op["kind"] == "verify":
        if not result.passed:
            return f"verify_case failed: {result.reason}"
        err = rel_diff(result.lhs, ref)
    else:
        err = rel_diff(result, ref)
    if not err <= op["tol"]:
        return f"off the reference by {err:.3e} (tolerance {op['tol']:.0e})"
    return None


def fingerprint(result):
    """What must repeat bit for bit each time the same op runs."""
    if isinstance(result, StruveintError):
        return repr(result)
    if isinstance(result, complex):
        return repr(result)
    return repr((result.lhs, result.rhs, result.passed, result.lhs_diag, result.rhs_diag))
