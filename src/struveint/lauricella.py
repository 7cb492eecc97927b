"""Multi-variable (Srivastava-Daoust) series, summed by total degree.

The coefficient Omega(k_1, ..., k_n) is a ratio of Pochhammer symbols
whose subscripts are positive linear forms in the multi-index; it is
accumulated in log space so that linear-form subscripts like 4(k_1+...+k_n)
cannot overflow.  The sums of the total-degree shells are the terms of
``sum_terms``.  When every global exponent vector is constant across the
variables (every spec the identities build, and every n = 1 spec), the
global block depends on the multi-index only through its degree K, and
shell K is that block times the K-th Cauchy-product coefficient of the
per-variable series: O(n K) work per degree and one complex
exponentiation.  Any other spec visits every multi-index of the shell,
one exponentiation each.  Shells and convolution coefficients are
summed by ``series.fsum_complex``.
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
    """The series value; ``shells``, the last total degree summed;
    ``terms``, what ``SeriesControl.max_terms`` counted (degrees when every
    global exponent vector is constant across variables, else
    multi-indices); and the tail estimate of ``sum_terms``."""

    value: complex
    shells: int
    terms: int
    tail_estimate: float


class _Factors:
    """Per-variable factor tables of one evaluation, and the two ways of
    summing its series degree by degree (the terms of ``sum_terms``).

    Variable m's factor f_m(j) is its own Pochhammer ratio times
    z_m^j / j!.  It is kept as a log-magnitude ``scale[m][j]`` and a
    unit-modulus ``unit[m][j]``, so no factor is exponentiated on its
    own.  ``used`` counts what the term budget counts: multi-indices on
    the shell path, degrees on the degree path.
    """

    def __init__(self, spec: LauricellaSpec, zs):
        self.spec = spec
        self.zs = zs
        self.moduli = [_modulus(v) for v in zs]
        self.scale = [[] for _ in zs]
        self.unit = [[] for _ in zs]
        # log|z_m^j / j!| and the phase of z_m^j at the last j tabled.
        self._power = [(0.0, 1.0 + 0j) for _ in zs]
        self.used = 0

    def extend(self, degree: int) -> None:
        """Table every f_m(j) through j = degree (only j = 0 when z_m = 0)."""
        for m, (z, r) in enumerate(zip(self.zs, self.moduli)):
            scale, unit = self.scale[m], self.unit[m]
            while len(scale) <= (degree if z != 0 else 0):
                j = len(scale)
                if j > 0:
                    logmag, phase = self._power[m]
                    self._power[m] = (logmag + math.log(r) - math.log(j), phase * (z / r))
                logmag, phase = self._power[m]
                lg = _per_var_log(self.spec, m, j)
                scale.append(lg.real + logmag)
                unit.append(cmath.exp(complex(0.0, lg.imag)) * phase)

    def shell_sums(self, max_terms: int):
        """Each shell's sum over all C(K+n-1, n-1) multi-indices of degree K."""
        spec = self.spec
        zero = [m for m, z in enumerate(self.zs) if z == 0]
        cache: dict = {}
        for degree in range(_MAX_DEGREE + 1):
            self.extend(degree)
            shell = []
            for k in shell_iterator(spec.n, degree):
                if any(k[m] for m in zero):
                    continue
                self.used += 1
                if self.used > max_terms:
                    raise ConvergenceError(f"multi-index budget of {max_terms} terms exhausted")
                lg = _global_log(spec, k, cache)
                mag = lg.real
                phase = 1.0 + 0j
                for m, km in enumerate(k):
                    mag += self.scale[m][km]
                    phase *= self.unit[m][km]
                if mag > _EXP_LIMIT:
                    raise RangeError(f"term at multi-index {k} overflows")
                if not math.isfinite(mag):
                    raise RangeError(f"term at multi-index {k} is non-finite")
                shell.append(cmath.exp(complex(mag, lg.imag)) * phase)
            yield fsum_complex(shell)
        raise ConvergenceError(
            f"shell sums did not fall below tolerance by total degree {_MAX_DEGREE}"
        )

    def degree_sums(self, max_terms: int):
        """Each shell's sum as G(K) C(K); needs every global exponent vector
        constant across variables, so the global block G depends on the
        multi-index only through its degree K.

        C(K) is the K-th coefficient of the Cauchy product of the nonzero
        variables' factor sequences, built by one O(K) convolution step
        per variable.  Each coefficient is a log scale plus an exactly
        rounded mantissa; log G(K) joins the scale before the one
        exponentiation, so a G(K) or a factor outside the double range on
        its own cannot overflow a finite shell.
        """
        spec = self.spec
        active = [m for m, z in enumerate(self.zs) if z != 0]
        # conv[i]: (scales, mantissas) of the product of the first i + 1
        # active sequences; the first is that variable's own table.
        conv = [(self.scale[m], self.unit[m]) for m in active[:1]]
        conv += [([], []) for _ in active[1:]]
        origin = (0,) * (spec.n - 1)
        for degree in range(_MAX_DEGREE + 1):
            self.extend(degree)
            self.used += 1
            if self.used > max_terms:
                raise ConvergenceError(f"degree budget of {max_terms} terms exhausted")
            for i in range(1, len(active)):
                prev_scale, prev_mant = conv[i - 1]
                scale, unit = self.scale[active[i]], self.unit[active[i]]
                logs = [prev_scale[degree - j] + scale[j] for j in range(degree + 1)]
                top = max(logs)
                conv[i][0].append(top)
                conv[i][1].append(fsum_complex([
                    math.exp(v - top) * prev_mant[degree - j] * unit[j]
                    for j, v in enumerate(logs)
                ]))
            if active:
                top, mant = conv[-1][0][degree], conv[-1][1][degree]
            elif degree == 0:
                top, mant = 0.0, 1.0 + 0j
            else:
                yield 0j  # every z_m = 0: only the degree-0 shell has terms
                continue
            lg = _global_log(spec, (degree,) + origin, {})
            mag = lg.real + top
            if mag > _EXP_LIMIT:
                raise RangeError(f"shell of total degree {degree} overflows")
            yield cmath.exp(complex(mag, lg.imag)) * mant
        raise ConvergenceError(
            f"shell sums did not fall below tolerance by total degree {_MAX_DEGREE}"
        )


def lauricella_eval_full(
    spec: LauricellaSpec,
    z,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> LauricellaResult:
    zs = [complex(v) for v in z]
    if len(zs) != spec.n:
        raise DomainError(f"argument vector must have length n = {spec.n}")
    factors = _Factors(spec, zs)
    for m, margin in enumerate(spec.convergence_margins()):
        if margin == 0 and factors.moduli[m] >= _RADIUS_MARGIN * spec.boundary_radius(m):
            raise DomainError(
                f"|z_{m}| = {factors.moduli[m]:.6g} is outside the certified radius "
                f"for a boundary (margin 0) variable"
            )
    # The degree path needs every global exponent vector constant across
    # the variables; the shell path takes any spec.
    if all(len(set(exps)) == 1 for _, exps in spec.global_upper + spec.global_lower):
        sums = factors.degree_sums(ctl.max_terms)
    else:
        sums = factors.shell_sums(ctl.max_terms)
    # Whole-shell sums are the terms of the common stopping rule.  The
    # generator owns both budgets (ctl.max_terms and the total degree),
    # so sum_terms' own term cap is set one past the last shell.
    res = sum_terms(sums, replace(ctl, max_terms=_MAX_DEGREE + 2))
    return LauricellaResult(res.value, res.terms - 1, factors.used, res.tail_estimate)


def lauricella_eval(
    spec: LauricellaSpec,
    z,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> complex:
    """Sum the generalized Lauricella series at the argument vector z.

    The series is summed shell by shell in non-decreasing total degree;
    the whole-shell sums go through ``series.sum_terms``, so the series
    stops when the last few of them are each negligible against the
    partial sum they were added to.
    """
    return lauricella_eval_full(spec, z, ctl).value
