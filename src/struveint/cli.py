"""Command-line front end: evaluate any implemented function, verify a
file of integral-identity cases, or generate a parameter-grid case file.

Exit codes: 0 success / all cases pass, 1 verification failures,
2 usage, parse or domain errors, 3 convergence failure in ``eval``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
import time

from . import __version__
from .errors import (
    CaseParseError,
    ConvergenceError,
    DomainError,
    StruveintError,
)
from .identities import (
    DEFAULT_TOLERANCE,
    THEOREM1,
    THEOREM2,
    IntegralCase,
    VerificationReport,
    _checked_tolerance,
    _failed_report,
    verify_case,
)
from .lauricella import LauricellaSpec, lauricella_eval_full
from .quadrature import DEFAULT_QUAD, QuadControl, oberhettinger_closed_form
from .series import (
    DEFAULT_CONTROL,
    FoxWrightSpec,
    SeriesControl,
    StruveParams,
    fox_wright_full,
    pfq_full,
    struve_w_full,
)

_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_RE_REAL = re.compile(rf"^({_NUM})$")
_RE_FULL = re.compile(rf"^({_NUM})([+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i$")
_RE_IMAG = re.compile(rf"^({_NUM})i$")


def parse_complex(text, field: str = "value") -> complex:
    """Parse '1.5', '1.5+0.25i', '0.25i' or an {re, im} mapping."""
    if isinstance(text, bool):  # complex(True) would be 1
        raise CaseParseError(f"{field}: expected a number, got {text!r}")
    if isinstance(text, (int, float)):
        return complex(text)
    if isinstance(text, dict):
        return complex(_real(text.get("re", 0.0), field), _real(text.get("im", 0.0), field))
    text = str(text).strip()
    m = _RE_REAL.match(text)
    if m:
        return complex(float(m.group(1)), 0.0)
    m = _RE_FULL.match(text)
    if m:
        return complex(float(m.group(1)), float(m.group(2)))
    m = _RE_IMAG.match(text)
    if m:
        return complex(0.0, float(m.group(1)))
    raise CaseParseError(f"{field}: cannot parse complex literal {text!r}")


def format_complex(z: complex) -> str:
    """Inverse of parse_complex ('re' or 're+imi', no spaces).

    Parts use the shortest representation that round-trips the double
    exactly (never more than 17 significant digits).
    """
    z = complex(z)
    if z.imag == 0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _sci(z: complex) -> str:
    """Value rendering for eval output: 15 digits after the point."""
    if z.imag == 0:
        return f"{z.real:.15e}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.15e}{sign}{abs(z.imag):.15e}i"


def _parse_kv(pairs) -> dict[str, str]:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise CaseParseError(f"parameter {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        out[key] = value
    return out


def _need(params: dict, names, function: str):
    missing = [n for n in names if n not in params]
    if missing:
        raise CaseParseError(f"{function}: missing parameter(s) {', '.join(missing)}")


def _real(text, field: str) -> float:
    """A real parameter of ``eval`` or a case file; CaseParseError naming its field."""
    if isinstance(text, bool):  # float(True) would be 1.0
        raise CaseParseError(f"{field}: expected a number, got {text!r}")
    try:
        return float(text)
    except (TypeError, ValueError, OverflowError):
        raise CaseParseError(f"{field}: cannot parse real number {text!r}") from None


def _integer(text, field: str) -> int:
    """An integer of a case or spec file (1 or 1.0, not 1.5); CaseParseError naming its field."""
    value = _real(text, field)
    if not value.is_integer():
        raise CaseParseError(f"{field}: expected an integer, got {text!r}")
    return int(value)


def _parse_pairs(text: str, field: str):
    """'a:A,b:B' -> ((a, A), ...) for Fox-Wright parameter blocks."""
    if not text:
        return ()
    out = []
    for chunk in text.split(","):
        if ":" not in chunk:
            raise CaseParseError(f"{field}: entry {chunk!r} is not of the form param:weight")
        param, _, weight = chunk.partition(":")
        out.append((parse_complex(param, field), _real(weight, field)))
    return tuple(out)


def _parse_list(text: str, field: str):
    if not text:
        return ()
    return tuple(parse_complex(v, field) for v in text.split(","))


def _spec_field(raw: dict, name: str):
    """One field of a Lauricella spec file; CaseParseError naming it."""
    if name not in raw:
        raise CaseParseError(f"lauricella spec file: missing field '{name}'")
    where = f"lauricella spec file: {name}"
    if name == "n":
        return _integer(raw[name], where)
    try:
        if name.startswith("global"):
            return [(parse_complex(a, where), tuple(_real(e, where) for e in exps)) for a, exps in raw[name]]
        return [[(parse_complex(b, where), _real(e, where)) for b, e in row] for row in raw[name]]
    except CaseParseError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:  # not rows of pairs
        raise CaseParseError(f"{where}: {exc}") from None


def _load_lauricella_spec(path: str) -> LauricellaSpec:
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise CaseParseError("lauricella spec file: expected an object")
    names = ("n", "global_upper", "global_lower", "per_var_upper", "per_var_lower")
    return LauricellaSpec(**{name: _spec_field(raw, name) for name in names})


def cmd_eval(args) -> int:
    params = _parse_kv(args.params)
    ctl = SeriesControl(max_terms=args.max_terms)
    name = args.function
    if name in ("struve_h", "struve_l", "struve_w"):
        if name == "struve_w":
            _need(params, ("p", "b", "c", "z"), name)
            prm = StruveParams(
                parse_complex(params["p"], "p"),
                parse_complex(params["b"], "b"),
                parse_complex(params["c"], "c"),
            )
        else:
            # H and L of the paper are W_{nu,-1,1} and W_{nu,-1,-1}.
            _need(params, ("nu", "z"), name)
            prm = StruveParams(parse_complex(params["nu"], "nu"), -1, 1 if name == "struve_h" else -1)
        res = struve_w_full(prm, _real(params["z"], "z"), ctl)
        value = res.value
        diag = f"terms={res.terms} tail_estimate={res.tail_estimate:.3e}"
    elif name == "fox_wright":
        _need(params, ("z",), name)
        spec = FoxWrightSpec(
            upper=_parse_pairs(params.get("upper", ""), "upper"),
            lower=_parse_pairs(params.get("lower", ""), "lower"),
        )
        res = fox_wright_full(spec, parse_complex(params["z"], "z"), ctl)
        value = res.value
        diag = f"terms={res.terms} tail_estimate={res.tail_estimate:.3e} delta={spec.delta:g}"
    elif name == "pfq":
        _need(params, ("z",), name)
        res = pfq_full(
            _parse_list(params.get("upper", ""), "upper"),
            _parse_list(params.get("lower", ""), "lower"),
            parse_complex(params["z"], "z"),
            ctl,
        )
        value = res.value
        diag = f"terms={res.terms} tail_estimate={res.tail_estimate:.3e}"
    elif name == "lauricella":
        _need(params, ("spec", "z"), name)
        spec = _load_lauricella_spec(params["spec"])
        res = lauricella_eval_full(spec, _parse_list(params["z"], "z"), ctl)
        value = res.value
        diag = f"shells={res.shells} terms={res.terms} tail_estimate={res.tail_estimate:.3e}"
    else:  # oberhettinger; argparse's choices admit no other name
        _need(params, ("a", "mu", "lambda"), name)
        value = oberhettinger_closed_form(
            _real(params["a"], "a"),
            parse_complex(params["mu"], "mu"),
            parse_complex(params["lambda"], "lambda"),
        )
        diag = "closed form"
    print(_sci(value))
    print(f"# {diag}")
    return 0


def case_to_dict(case: IntegralCase) -> dict:
    return {
        "variant": case.variant,
        "a": case.a,
        "lambda": format_complex(case.lam),
        "mu": format_complex(case.mu),
        "b": format_complex(case.b),
        "c": format_complex(case.c),
        "p": [format_complex(v) for v in case.p],
        "y": list(case.y),
        "n": case.n,
    }


def case_from_dict(raw: dict, index: int) -> IntegralCase:
    """Structural parsing; raises CaseParseError naming the bad field.

    Semantic violations of the identity's validity conditions are left
    to IntegralCase itself (DomainError), so a verify run can report
    them as failed cases instead of refusing the file.
    """
    where = f"cases[{index}]"
    if not isinstance(raw, dict):
        raise CaseParseError(f"{where}: expected an object")
    for fld in ("variant", "a", "lambda", "mu", "b", "c", "p", "y"):
        if fld not in raw:
            raise CaseParseError(f"{where}.{fld}: missing")
    variant = str(raw["variant"]).lower()
    if not isinstance(raw["y"], list):
        raise CaseParseError(f"{where}.y: expected a list of numbers, got {raw['y']!r}")
    a = _real(raw["a"], f"{where}.a")
    y = tuple(_real(v, f"{where}.y") for v in raw["y"])
    n = _integer(raw.get("n", 0), f"{where}.n")
    p_raw = raw["p"] if isinstance(raw["p"], list) else [raw["p"]]
    p = tuple(parse_complex(v, f"{where}.p") for v in p_raw)
    return IntegralCase(
        variant=variant,
        a=a,
        lam=parse_complex(raw["lambda"], f"{where}.lambda"),
        mu=parse_complex(raw["mu"], f"{where}.mu"),
        b=parse_complex(raw["b"], f"{where}.b"),
        c=parse_complex(raw["c"], f"{where}.c"),
        p=p,
        y=y,
        n=n,
    )


def report_to_dict(rep: VerificationReport, raw_case: dict) -> dict:
    def cpx(z: complex) -> dict:
        return {"re": z.real, "im": z.imag}

    return {
        "case": raw_case,
        "lhs": cpx(rep.lhs),
        "rhs": cpx(rep.rhs),
        "abs_err": rep.abs_err,
        "rel_err": rep.rel_err,
        "pass": rep.passed,
        "tolerance": rep.tolerance_used,
        "reason": rep.reason,
        "diagnostics": {"quad": rep.lhs_diag, "series": rep.rhs_diag},
        "wall_clock_s": rep.wall_clock_s,
    }


def _plain(obj):
    """Coerce tuples into JSON-clean lists; non-finite floats become the
    strings "nan", "inf" and "-inf"."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [_plain(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    return obj


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _utc_timestamp() -> str:
    """The time now as ``datetime.now(timezone.utc).isoformat()`` writes
    it, whole microseconds taken by flooring, without importing datetime."""
    seconds, ns = divmod(time.time_ns(), 1_000_000_000)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return f"{stamp}.{ns // 1000:06d}+00:00" if ns >= 1000 else f"{stamp}+00:00"


def cmd_verify(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CaseParseError(f"cannot read case file {args.input}: {exc}")
    if not isinstance(document, dict) or not isinstance(document.get("cases"), list):
        raise CaseParseError("case file must be an object with a 'cases' list")
    if "controls" in document:
        raise CaseParseError("controls: not read; set --tol, --quad-tol and --max-terms instead")

    tol = _checked_tolerance(args.tol)
    qctl = QuadControl(args.quad_tol)
    sctl = SeriesControl(max_terms=args.max_terms)

    parsed: list[tuple[dict, IntegralCase | VerificationReport]] = []
    for i, raw in enumerate(document["cases"]):
        try:
            parsed.append((raw, case_from_dict(raw, i)))
        except DomainError as exc:
            parsed.append((raw, _failed_report(None, tol, str(exc), 0.0)))

    results = [
        (raw, case if isinstance(case, VerificationReport) else verify_case(case, qctl, sctl, tol))
        for raw, case in parsed
    ]

    entries = [report_to_dict(rep, raw) for raw, rep in results]
    passed = sum(1 for _, rep in results if rep.passed)
    report = {
        "version": __version__,
        "timestamp": _utc_timestamp(),
        "cases": entries,
        "summary": {"total": len(entries), "passed": passed, "failed": len(entries) - passed},
    }
    _emit(json.dumps(_plain(report), indent=2) + "\n", args.output)
    print(
        f"verified {len(entries)} case(s): {passed} passed, {len(entries) - passed} failed",
        file=sys.stderr,
    )
    return 0 if passed == len(entries) else 1


def _scalar_choices(text: str, field: str) -> list[complex]:
    """'v' | 'v1,v2,...' | 'start:end:step' -> list of choices.

    A range's values start + i*step are exact decimals, each rounded to
    a float once, so '0.1:1.0:0.1' gives 0.1, 0.2, ..., 1.0 exactly as
    written and includes its end.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CaseParseError(f"{field}: range must be start:end:step")
        # Imported here: ~0.4 MiB and ~2 ms that no other path needs.
        from decimal import Decimal, DecimalException
        try:
            start, end, step = (Decimal(v) for v in parts)
        except DecimalException:
            raise CaseParseError(f"{field}: range bounds must be real numbers") from None
        # is_finite() first: float() raises on Decimal('sNaN').
        if (
            not all(v.is_finite() and math.isfinite(float(v)) for v in (start, end, step))
            or step <= 0
            or end < start
        ):
            raise CaseParseError(f"{field}: need finite bounds, start <= end and step > 0")
        try:
            count = int((end - start) // step) + 1
        except DecimalException:  # a quotient beyond the context's 28 digits
            raise CaseParseError(f"{field}: range has over 10^28 values") from None
        return [complex(float(start + i * step)) for i in range(count)]
    return [parse_complex(v, field) for v in text.split(",")]


def _vector_choices(text: str, field: str, n: int) -> list[tuple[complex, ...]]:
    """';'-separated vectors of length n; scalar-choice syntax when n = 1."""
    if n == 1 and ";" not in text:
        return [(v,) for v in _scalar_choices(text, field)]
    out = []
    for chunk in text.split(";"):
        vec = tuple(parse_complex(v, field) for v in chunk.split(","))
        if len(vec) != n:
            raise CaseParseError(f"{field}: vector {chunk!r} must have length n = {n}")
        out.append(vec)
    return out


def cmd_grid(args) -> int:
    n = args.n
    variant = args.variant
    mus = _scalar_choices(args.mu, "--mu")
    lams = _scalar_choices(getattr(args, "lambda"), "--lambda")
    bs = _scalar_choices(args.b, "--b")
    cs = _scalar_choices(args.c, "--c")
    a_values = _scalar_choices(args.a, "--a")
    ps = _vector_choices(args.p, "--p", n)
    ys = _vector_choices(args.y, "--y", n)
    for a in a_values:
        if a.imag != 0:
            raise CaseParseError("--a: must be real and positive")
    for vec in ys:
        if any(v.imag != 0 for v in vec):
            raise CaseParseError("--y: entries must be real and positive")

    cases = []
    skipped = 0
    for mu, lam, b, c, a, p, y in itertools.product(mus, lams, bs, cs, a_values, ps, ys):
        try:
            case = IntegralCase(
                variant=variant,
                a=a.real,
                lam=lam,
                mu=mu,
                b=b,
                c=c,
                p=p,
                y=tuple(v.real for v in y),
                n=n,
            )
        except DomainError:
            skipped += 1
            continue
        cases.append(case_to_dict(case))
    document = {"cases": cases}
    _emit(json.dumps(document, indent=2) + "\n", args.output)
    message = f"generated {len(cases)} case(s), skipped {skipped} condition-violating combination(s)"
    if not cases:
        message = "warning: every combination violates the identity's conditions; " + message
    print(message, file=sys.stderr)
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    # Each subcommand takes only the options it reads.
    max_terms = argparse.ArgumentParser(add_help=False)
    max_terms.add_argument(
        "--max-terms", type=_positive_int, default=DEFAULT_CONTROL.max_terms, help="series term budget"
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default=None, help="write output to this path instead of stdout")

    parser = argparse.ArgumentParser(
        prog="struveint",
        description="Evaluate the library's special functions and verify the integral identities.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[max_terms], help="evaluate one function")
    p_eval.add_argument(
        "function",
        choices=("struve_h", "struve_l", "struve_w", "fox_wright", "pfq", "lauricella", "oberhettinger"),
    )
    p_eval.add_argument("params", nargs="*", help="key=value parameters; complex as 're' or 're+imi'")
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", parents=[max_terms, output], help="verify a case file")
    p_verify.add_argument("input", help="JSON case file")
    p_verify.add_argument(
        "--tol", type=float, default=DEFAULT_TOLERANCE, help="verification relative tolerance"
    )
    p_verify.add_argument(
        "--quad-tol", type=float, default=DEFAULT_QUAD.rel_tol, help="quadrature relative tolerance"
    )
    p_verify.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="accepted for compatibility; verify runs in one process",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_grid = sub.add_parser("grid", parents=[output], help="generate a Cartesian-product case file")
    p_grid.add_argument("--variant", required=True, choices=(THEOREM1, THEOREM2))
    p_grid.add_argument("--n", type=_positive_int, default=1)
    p_grid.add_argument("--mu", required=True)
    p_grid.add_argument("--lambda", required=True)
    p_grid.add_argument("--p", required=True)
    p_grid.add_argument("--b", required=True)
    p_grid.add_argument("--c", required=True)
    p_grid.add_argument("--a", required=True)
    p_grid.add_argument("--y", required=True)
    p_grid.set_defaults(func=cmd_grid)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (StruveintError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
