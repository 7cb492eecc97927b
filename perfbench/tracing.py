"""Traced runs: spans and work counts around the calls into each layer.

Nothing here is inside the library.  A verify op is rebuilt from public
calls exactly as ``verify_case`` composes them (prefactor, Lauricella
spec, ``lauricella_eval_full``, then ``integrate_kernel`` over an
integrand that multiplies ``struve_w_full(...).value`` over
``struve_arguments``), so its lhs and rhs must come out bit-identical to
``verify_case``'s.  Corollary ops run ``rhs_corollary`` with the
``pfq``/``fox_wright`` names it calls swapped for timed wrappers.

Coarse layer calls get one span each: name, start, end, parent span and
the op (trace) they belong to.  The integrand and ``struve_w`` are called
thousands of times per op, so they are folded into per-op call counts
and summed durations instead of one span per call.
"""

from __future__ import annotations

import contextlib
import time

import struveint.identities as _identities
from ops import right_side
from struveint import (
    QuadControl,
    SeriesControl,
    StruveintError,
    fox_wright,
    integrate_kernel,
    pfq,
    rhs_corollary,
    struve_arguments,
    struve_w_full,
)

# verify_case's defaults, built from the public control types.
QCTL = QuadControl()
SCTL = SeriesControl()

perf = time.perf_counter

# Per-op quantities a traced op fills in; all are summed across ops.
STAT_KEYS = (
    "ops", "wall_s",
    "prefactor_calls", "prefactor_failed", "prefactor_s",
    "rhs_spec_calls", "rhs_spec_failed", "rhs_spec_s",
    "lauricella_calls", "lauricella_failed", "lauricella_s", "lauricella_terms", "lauricella_shells",
    "quad_calls", "quad_s", "integrand_evals", "integrand_s", "panels_kept",
    "struve_calls", "struve_terms", "struve_s",
    "pfq_calls", "pfq_s", "fox_wright_calls", "fox_wright_s",
)

# Counts that must repeat exactly whenever the same op is traced again.
WORK_COUNTS = ("integrand_evals", "panels_kept", "struve_terms", "lauricella_terms")


def new_stats() -> dict:
    return dict.fromkeys(STAT_KEYS, 0)


def add_stats(total: dict, one: dict) -> None:
    for key in STAT_KEYS:
        total[key] += one[key]


class Trace:
    """In-memory span store, written out once the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.trace_id = 0
        self.op = None

    def new_op(self, name: str) -> None:
        """Spans recorded from now on belong to a new run of op ``name``."""
        self.trace_id += 1
        self.op = name

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "trace": self.trace_id,
            "op": self.op,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": perf(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = perf()

    def folded(self, parent: dict, name: str, calls: int, total_s: float) -> None:
        """Record many calls under ``parent`` as one aggregate entry."""
        self.spans.append({
            "trace": self.trace_id, "op": self.op, "id": len(self.spans), "parent": parent["id"],
            "name": name, "calls": calls, "total_s": total_s,
        })


def _dur(rec: dict) -> float:
    return rec["end"] - rec["start"]


# Stat-key prefix of each span that ops.right_side opens.
_RHS_KEYS = {"identities.prefactor": "prefactor", "identities.rhs_spec": "rhs_spec",
             "lauricella.eval": "lauricella"}


def _right_side(case, trace: Trace, st: dict) -> complex:
    """ops.right_side with each library call in a span of its own."""

    @contextlib.contextmanager
    def span(name):
        key = _RHS_KEYS[name]
        st[f"{key}_calls"] += 1
        with trace.span(name) as rec:
            try:
                yield
            except StruveintError:
                st[f"{key}_failed"] += 1
                raise
        st[f"{key}_s"] += _dur(rec)

    value, series = right_side(case, span)
    st["lauricella_terms"] += series.terms
    st["lauricella_shells"] += series.shells
    return value


def traced_verify(case, trace: Trace):
    """((lhs, rhs, panels_used, lauricella terms) or the error, stats)."""
    st = new_stats()
    params = case.struve_params()
    # evals, struve calls, struve terms, struve seconds, integrand seconds
    acc = [0, 0, 0, 0.0, 0.0]

    def g(x):
        t0 = perf()
        prod = 1.0 + 0j
        for prm, u in zip(params, struve_arguments(case, x)):
            t1 = perf()
            res = struve_w_full(prm, u, SCTL)
            acc[3] += perf() - t1
            acc[1] += 1
            acc[2] += res.terms
            prod *= res.value
        acc[0] += 1
        acc[4] += perf() - t0
        return prod

    with trace.span("identities.verify_case") as op_rec:
        try:
            rhs = _right_side(case, trace, st)
            with trace.span("quadrature.integrate_kernel") as rec:
                quad = integrate_kernel(g, case.a, case.mu, case.lam, QCTL)
            st["quad_calls"] += 1
            st["quad_s"] += _dur(rec)
            st["panels_kept"] += quad.panels_used
            trace.folded(rec, "quadrature.integrand", acc[0], acc[4])
            trace.folded(rec, "series.struve_w", acc[1], acc[3])
            out = (quad.value, rhs, quad.panels_used, st["lauricella_terms"])
        except StruveintError as exc:
            out = exc
    st["ops"] = 1
    st["wall_s"] = _dur(op_rec)
    st["integrand_evals"], st["struve_calls"], st["struve_terms"] = acc[0], acc[1], acc[2]
    st["struve_s"], st["integrand_s"] = acc[3], acc[4]
    return out, st


@contextlib.contextmanager
def _timed_series(trace: Trace, st: dict):
    """Swap the pfq/fox_wright names rhs_corollary calls for timed ones."""

    def wrap(fn, key):
        def timed(*args, **kwargs):
            with trace.span(f"series.{key}") as rec:
                value = fn(*args, **kwargs)
            st[f"{key}_calls"] += 1
            st[f"{key}_s"] += _dur(rec)
            return value

        return timed

    _identities.pfq = wrap(pfq, "pfq")
    _identities.fox_wright = wrap(fox_wright, "fox_wright")
    try:
        yield
    finally:
        _identities.pfq = pfq
        _identities.fox_wright = fox_wright


def traced_rhs(op: dict, case, trace: Trace):
    """(value or the error, stats) for a theorem or corollary op."""
    st = new_stats()
    with trace.span(f"identities.{op['kind']}") as op_rec:
        try:
            if op["kind"] == "theorem":
                out = _right_side(case, trace, st)
            else:
                with _timed_series(trace, st), trace.span("identities.rhs_corollary"):
                    out = rhs_corollary(case, op["which"])
        except StruveintError as exc:
            out = exc
    st["ops"] = 1
    st["wall_s"] = _dur(op_rec)
    return out, st


def work_counts(st: dict) -> tuple:
    return tuple(st[key] for key in WORK_COUNTS)


def _ratio(num, den):
    return num / den if den else 0.0


def struve_quad_metrics(s: dict) -> dict:
    """series.struve_w and quadrature metrics, per verify op."""
    n = s["ops"]
    return {
        "series.struve_w.calls": (s["struve_calls"] / n, "count"),
        "series.struve_w.terms": (s["struve_terms"] / n, "count"),
        "series.struve_w.self_ms": (1e3 * s["struve_s"] / n, "ms"),
        "series.struve_w.us_per_call": (1e6 * _ratio(s["struve_s"], s["struve_calls"]), "us"),
        "quadrature.integrate_kernel.calls": (s["quad_calls"] / n, "count"),
        "quadrature.integrate_kernel.self_ms": (1e3 * (s["quad_s"] - s["integrand_s"]) / n, "ms"),
        "quadrature.integrand_evals": (s["integrand_evals"] / n, "count"),
        "quadrature.panels_kept": (s["panels_kept"] / n, "count"),
        "quadrature.evals_per_panel_kept": (_ratio(s["integrand_evals"], s["panels_kept"]), "ratio"),
        "quadrature.integrand_share": (_ratio(s["integrand_s"], s["quad_s"]), "ratio"),
    }


def share_metrics(s: dict) -> dict:
    """Where a verify op's time goes."""
    rhs_s = s["prefactor_s"] + s["rhs_spec_s"] + s["lauricella_s"]
    return {
        "identities.rhs_share": (_ratio(rhs_s, s["wall_s"]), "ratio"),
        "identities.lhs_share": (_ratio(s["quad_s"], s["wall_s"]), "ratio"),
    }


def series_call_metrics(s: dict) -> dict:
    """pfq and Fox-Wright, per call."""
    return {
        "series.pfq.ms": (1e3 * _ratio(s["pfq_s"], s["pfq_calls"]), "ms"),
        "series.fox_wright.ms": (1e3 * _ratio(s["fox_wright_s"], s["fox_wright_calls"]), "ms"),
    }


def lauricella_metrics(s: dict) -> dict:
    """Per op for the call count; per successful call for the rest."""
    ok = s["lauricella_calls"] - s["lauricella_failed"]
    return {
        "lauricella.eval.calls": (s["lauricella_calls"] / s["ops"], "count"),
        "lauricella.eval.ms": (1e3 * _ratio(s["lauricella_s"], ok), "ms"),
        "lauricella.terms": (_ratio(s["lauricella_terms"], ok), "count"),
        "lauricella.shells": (_ratio(s["lauricella_shells"], ok), "count"),
        "lauricella.us_per_term": (1e6 * _ratio(s["lauricella_s"], s["lauricella_terms"]), "us"),
        "identities.prefactor.ms": (1e3 * _ratio(s["prefactor_s"], s["prefactor_calls"] - s["prefactor_failed"]), "ms"),
    }
