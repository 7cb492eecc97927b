"""Multi-variable (Srivastava-Daoust) series by simplex-shell summation.

The coefficient Omega(k_1, ..., k_n) is a ratio of Pochhammer symbols
whose subscripts are positive linear forms in the multi-index; it is
accumulated in log space so that linear-form subscripts like 4(k_1+...+k_n)
cannot overflow, with exactly one exponentiation per multi-index.  Each
total-degree shell's terms are collected in a list and summed by
``series.fsum_complex``; the shell sums are the terms of ``sum_terms``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

from .errors import ConvergenceError, DivergenceError, DomainError, GammaPoleError, RangeError
from .gammafn import _EXP_LIMIT, log_gamma
from .series import _RADIUS_MARGIN, DEFAULT_CONTROL, SeriesControl, _modulus, fsum_complex, sum_terms

# Total degree after which the shell sums give up (ConvergenceError).
_MAX_DEGREE = 400


def _norm_global(block, n: int, label: str):
    out = []
    for a, exps in block:
        exps = tuple(float(e) for e in exps)
        if len(exps) != n:
            raise DomainError(f"{label}: exponent vector must have length n = {n}")
        if any(not e > 0 for e in exps):
            raise DomainError(f"{label}: exponents must be positive reals")
        out.append((complex(a), exps))
    return tuple(out)


def _norm_per_var(blocks, n: int, label: str):
    blocks = tuple(blocks)
    if len(blocks) != n:
        raise DomainError(f"{label}: need one parameter list per variable ({n})")
    out = []
    for m, entries in enumerate(blocks):
        row = []
        for b, e in entries:
            e = float(e)
            if not e > 0:
                raise DomainError(f"{label}[{m}]: exponents must be positive reals")
            row.append((complex(b), e))
        out.append(tuple(row))
    return tuple(out)


@dataclass(frozen=True)
class LauricellaSpec:
    """Full parameter structure of the generalized Lauricella series.

    ``global_upper``/``global_lower`` hold (parameter, exponent-vector)
    pairs whose Pochhammer subscript is the dot product of the exponent
    vector with the multi-index; ``per_var_upper``/``per_var_lower`` hold,
    for each of the n variables, (parameter, exponent) pairs tied to that
    variable's index alone.  Empty blocks are allowed (empty products
    are 1).
    """

    global_upper: tuple
    global_lower: tuple
    per_var_upper: tuple
    per_var_lower: tuple
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be a positive integer")
        object.__setattr__(self, "global_upper", _norm_global(self.global_upper, self.n, "global_upper"))
        object.__setattr__(self, "global_lower", _norm_global(self.global_lower, self.n, "global_lower"))
        object.__setattr__(self, "per_var_upper", _norm_per_var(self.per_var_upper, self.n, "per_var_upper"))
        object.__setattr__(self, "per_var_lower", _norm_per_var(self.per_var_lower, self.n, "per_var_lower"))
        for m, margin in enumerate(self.convergence_margins()):
            if margin < 0:
                raise DivergenceError(
                    f"variable {m}: weight balance 1 + sum(psi) + sum(delta) "
                    f"- sum(theta) - sum(phi) = {margin:.3g} < 0"
                )

    def convergence_margins(self) -> tuple[float, ...]:
        """Per-variable margin; > 0 means the series is entire there."""
        margins = []
        for m in range(self.n):
            margin = 1.0
            margin += sum(e[m] for _, e in self.global_lower)
            margin += sum(e for _, e in self.per_var_lower[m])
            margin -= sum(e[m] for _, e in self.global_upper)
            margin -= sum(e for _, e in self.per_var_upper[m])
            margins.append(margin)
        return tuple(margins)

    def boundary_radius(self, m: int) -> float:
        """Certified |z_m| radius when the margin of variable m is zero."""
        r = 1.0
        for _, e in self.global_upper:
            r *= e[m] ** -e[m]
        for _, e in self.per_var_upper[m]:
            r *= e**-e
        for _, e in self.global_lower:
            r *= e[m] ** e[m]
        for _, e in self.per_var_lower[m]:
            r *= e**e
        return r


def shell_iterator(n: int, total_degree: int):
    """All multi-indices with k_1 + ... + k_n = total_degree.

    Deterministic order: ascending in k_1, then k_2, and so on
    (so (0,2), (1,1), (2,0) for n = 2, degree 2).
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    if total_degree < 0:
        raise DomainError("total_degree must be non-negative")
    if n == 1:
        yield (total_degree,)
        return
    for first in range(total_degree + 1):
        for rest in shell_iterator(n - 1, total_degree - first):
            yield (first,) + rest


def _pochhammer_log(param: complex, subscript: float, label: str) -> complex:
    """log of (param)_subscript = Gamma(param + subscript)/Gamma(param)."""
    try:
        return log_gamma(param + subscript) - log_gamma(param)
    except GammaPoleError as exc:
        raise GammaPoleError(
            exc.location,
            f"{label}: parameter {param} at subscript {subscript} "
            f"hits the gamma pole at {exc.location}",
        ) from exc


def _global_log(spec: LauricellaSpec, k, cache: dict) -> complex:
    total = 0j
    for j, (a, exps) in enumerate(spec.global_upper):
        s = math.fsum(e * ki for e, ki in zip(exps, k))
        key = ("gu", j, s)
        if key not in cache:
            cache[key] = _pochhammer_log(a, s, f"global_upper[{j}]")
        total += cache[key]
    for j, (c, exps) in enumerate(spec.global_lower):
        s = math.fsum(e * ki for e, ki in zip(exps, k))
        key = ("gl", j, s)
        if key not in cache:
            cache[key] = _pochhammer_log(c, s, f"global_lower[{j}]")
        total -= cache[key]
    return total


def _per_var_log(spec: LauricellaSpec, m: int, km: int) -> complex:
    total = 0j
    for j, (b, e) in enumerate(spec.per_var_upper[m]):
        total += _pochhammer_log(b, e * km, f"per_var_upper[{m}][{j}]")
    for j, (d, e) in enumerate(spec.per_var_lower[m]):
        total -= _pochhammer_log(d, e * km, f"per_var_lower[{m}][{j}]")
    return total


def omega(spec: LauricellaSpec, k) -> complex:
    """Coefficient Omega(k_1, ..., k_n) of the multi-index term.

    With empty global blocks this factors exactly into the product of the
    per-variable coefficients (each variable's block is exponentiated
    separately before multiplying).
    """
    k = tuple(int(v) for v in k)
    if len(k) != spec.n:
        raise DomainError(f"multi-index must have length n = {spec.n}")
    if any(v < 0 for v in k):
        raise DomainError("multi-index components must be non-negative")
    value = 1.0 + 0j
    if spec.global_upper or spec.global_lower:
        value *= cmath.exp(_global_log(spec, k, {}))
    for m in range(spec.n):
        value *= cmath.exp(_per_var_log(spec, m, k[m]))
    return value


@dataclass(frozen=True)
class LauricellaResult:
    value: complex
    shells: int
    terms: int
    tail_estimate: float


def lauricella_eval_full(
    spec: LauricellaSpec,
    z,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> LauricellaResult:
    zs = [complex(v) for v in z]
    if len(zs) != spec.n:
        raise DomainError(f"argument vector must have length n = {spec.n}")
    moduli = [_modulus(v) for v in zs]
    for m, margin in enumerate(spec.convergence_margins()):
        if margin == 0 and moduli[m] >= _RADIUS_MARGIN * spec.boundary_radius(m):
            raise DomainError(
                f"|z_{m}| = {moduli[m]:.6g} is outside the certified radius "
                f"for a boundary (margin 0) variable"
            )

    # Per-variable data, extended shell by shell: block logs, the
    # log-magnitude of z_m^j / j!, and the (unit) phase of z_m^j.
    pv_logs = [[] for _ in range(spec.n)]
    z_logmag = [[] for _ in range(spec.n)]
    z_phase = [[] for _ in range(spec.n)]
    units = [v / r if v != 0 else 0j for v, r in zip(zs, moduli)]

    def extend(degree: int) -> None:
        for m in range(spec.n):
            while len(pv_logs[m]) <= degree:
                j = len(pv_logs[m])
                pv_logs[m].append(_per_var_log(spec, m, j))
                if j == 0:
                    z_logmag[m].append(0.0)
                    z_phase[m].append(1.0 + 0j)
                elif zs[m] == 0:
                    # Never read: multi-indices with k_m > 0 are skipped.
                    z_logmag[m].append(-math.inf)
                    z_phase[m].append(0j)
                else:
                    z_logmag[m].append(z_logmag[m][j - 1] + math.log(moduli[m]) - math.log(j))
                    z_phase[m].append(z_phase[m][j - 1] * units[m])

    global_cache: dict = {}
    terms_used = 0
    max_degree = _MAX_DEGREE

    def shell_sums():
        nonlocal terms_used
        for degree in range(max_degree + 1):
            extend(degree)
            shell = []
            for k in shell_iterator(spec.n, degree):
                if any(zs[m] == 0 and k[m] > 0 for m in range(spec.n)):
                    continue
                terms_used += 1
                if terms_used > ctl.max_terms:
                    raise ConvergenceError(
                        f"multi-index budget of {ctl.max_terms} terms exhausted"
                    )
                lg = _global_log(spec, k, global_cache)
                mag = lg.real
                ang = lg.imag
                phase = 1.0 + 0j
                for m in range(spec.n):
                    lg_m = pv_logs[m][k[m]]
                    mag += lg_m.real + z_logmag[m][k[m]]
                    ang += lg_m.imag
                    phase *= z_phase[m][k[m]]
                if mag > _EXP_LIMIT:
                    raise RangeError(f"term at multi-index {k} overflows")
                if not math.isfinite(mag):
                    raise RangeError(f"term at multi-index {k} is non-finite")
                shell.append(cmath.exp(complex(mag, ang)) * phase)
            yield fsum_complex(shell)
        raise ConvergenceError(
            f"shell sums did not fall below tolerance by total degree {max_degree}"
        )

    # Whole-shell sums are the terms of the common stopping rule.  The
    # generator owns both budgets (multi-indices and total degree), so
    # sum_terms' own term cap is set one past the last shell.
    res = sum_terms(shell_sums(), replace(ctl, max_terms=max_degree + 2))
    return LauricellaResult(res.value, res.terms - 1, terms_used, res.tail_estimate)


def lauricella_eval(
    spec: LauricellaSpec,
    z,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> complex:
    """Sum the generalized Lauricella series at the argument vector z.

    Multi-indices are visited in non-decreasing total degree (simplex
    shells); the whole-shell sums go through ``series.sum_terms``, so the
    series stops when the last few of them are each negligible against
    the partial sum they were added to.
    """
    return lauricella_eval_full(spec, z, ctl).value
