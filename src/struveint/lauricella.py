"""Multi-variable (Srivastava-Daoust) series, summed by total degree.

The coefficient Omega(k_1, ..., k_n) is a ratio of Pochhammer symbols
whose subscripts are positive linear forms in the multi-index; it is
accumulated in log space so that linear-form subscripts like
4(k_1+...+k_n) cannot overflow.  Each (p)_s is log Gamma(p + s) -
log Gamma(p), with log Gamma(p) taken once per evaluation by
``log_gamma`` and log Gamma(p + s) once per degree.  A block whose
parameters are all real and positive with a finite log Gamma takes
log Gamma(p + s) as a float ``math.lgamma`` (``gammafn.log_gamma_sum``),
with the same bits; any other block, or a degree whose float sum is not
finite, takes complex ``log_gamma`` values, and a gamma pole there names
its parameter.  Every global exponent vector must be
the same for every variable, as in each spec the identities build; a
spec with mixed global exponents raises DomainError.  The global block
then depends on the multi-index only through its total degree K, and
the sum of shell K is that block times the K-th Cauchy-product
coefficient of the per-variable series: O(n K) work per degree and one
complex exponentiation.  The shell sums are the terms of ``sum_terms``;
convolution coefficients are summed by ``series.fsum_complex``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

from .errors import DivergenceError, DomainError, GammaPoleError, RangeError
from .gammafn import _EXP_LIMIT, log_gamma, log_gamma_sum, real_rows
from .series import (_RADIUS_MARGIN, DEFAULT_CONTROL, SeriesControl, _modulus, boundary_radius,
                     fsum_complex, sum_terms)

# Highest total degree summed, whatever ``SeriesControl.max_terms`` allows.
_MAX_DEGREE = 400


def _parameter(value, label: str) -> complex:
    """A block's parameter as a complex; DomainError naming it unless finite."""
    value = complex(value)
    if not cmath.isfinite(value):
        raise DomainError(f"{label}: parameter must be finite")
    return value


def _norm_global(block, n: int, label: str):
    out = []
    for j, (a, exps) in enumerate(block):
        exps = tuple(float(e) for e in exps)
        if len(exps) != n:
            raise DomainError(f"{label}: exponent vector must have length n = {n}")
        if any(not 0 < e < math.inf for e in exps):
            raise DomainError(f"{label}: exponents must be positive reals")
        if len(set(exps)) > 1:
            raise DomainError(f"{label}: exponent vector must be the same for every variable")
        out.append((_parameter(a, f"{label}[{j}]"), exps))
    return tuple(out)


def _norm_per_var(blocks, n: int, label: str):
    blocks = tuple(blocks)
    if len(blocks) != n:
        raise DomainError(f"{label}: need one parameter list per variable ({n})")
    out = []
    for m, entries in enumerate(blocks):
        row = []
        for j, (b, e) in enumerate(entries):
            e = float(e)
            if not 0 < e < math.inf:
                raise DomainError(f"{label}[{m}]: exponents must be positive reals")
            row.append((_parameter(b, f"{label}[{m}][{j}]"), e))
        out.append(tuple(row))
    return tuple(out)


@dataclass(frozen=True)
class LauricellaSpec:
    """Full parameter structure of the generalized Lauricella series.

    ``global_upper``/``global_lower`` hold (parameter, exponent-vector)
    pairs whose Pochhammer subscript is the dot product of the exponent
    vector with the multi-index (each vector repeats one exponent for
    every variable); ``per_var_upper``/``per_var_lower`` hold,
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
        return boundary_radius(
            [e[m] for _, e in self.global_upper] + [e for _, e in self.per_var_upper[m]],
            [e[m] for _, e in self.global_lower] + [e for _, e in self.per_var_lower[m]],
        )


def _log_gamma_named(z: complex, param: complex, subscript: float, label: str) -> complex:
    """log Gamma(z), z = param + subscript; a gamma pole names the parameter.
    At subscript 0, z is param itself: param + 0.0 turns a -0.0 imaginary
    part into +0.0, the other side of log Gamma's cut."""
    try:
        return log_gamma(z)
    except GammaPoleError as exc:
        raise GammaPoleError(
            exc.location,
            f"{label}: parameter {param} at subscript {subscript} "
            f"hits the gamma pole at {exc.location}",
        ) from exc


def _rows(block, label: str) -> list:
    """A block's (parameter, exponent, log Gamma(parameter), label) rows;
    a global block's exponent vector gives its one exponent."""
    rows = []
    for j, (param, e) in enumerate(block):
        name = f"{label}[{j}]"
        rows.append((param, e if isinstance(e, float) else e[0], _log_gamma_named(param, param, 0.0, name), name))
    return rows


def _ratio_log(upper, lower, degree: int) -> complex:
    """log of prod (upper)_(e K) / prod (lower)_(e K) at degree K, each
    (p)_s = Gamma(p + s)/Gamma(p) with log Gamma(p) read from its row."""
    total = 0j
    for param, e, lg0, name in upper:
        total += _log_gamma_named(param + e * degree, param, e * degree, name) - lg0
    for param, e, lg0, name in lower:
        total -= _log_gamma_named(param + e * degree, param, e * degree, name) - lg0
    return total


def _block(upper, lower):
    """A gamma-ratio block's complex rows and, when it qualifies, its
    float rows (``gammafn.real_rows``)."""
    real = real_rows(((p, e, lg0, lg0.real) for p, e, lg0, _ in upper),
                     ((p, e, lg0, lg0.real) for p, e, lg0, _ in lower))
    return (upper, lower), real


def _block_log(block, degree: int) -> complex:
    """``_ratio_log`` of a block at degree K, in floats where it qualifies."""
    rows, real = block
    if real is not None:
        lg = log_gamma_sum(real, degree)
        if lg is not None:
            return lg
    return _ratio_log(*rows, degree)


@dataclass(frozen=True)
class LauricellaResult:
    """The series value; ``shells``, the last total degree summed;
    ``terms``, the degrees summed (``shells + 1``, what
    ``SeriesControl.max_terms`` counts); and the tail estimate of
    ``sum_terms``."""

    value: complex
    shells: int
    terms: int
    tail_estimate: float


def _degree_sums(spec: LauricellaSpec, zs, moduli):
    """Each shell's sum as G(K) C(K), for K = 0, 1, ...: the global block
    G depends on the multi-index only through its total degree K.

    Variable m's factor f_m(j) is its own Pochhammer ratio times
    z_m^j / j!.  It is kept as a log-magnitude ``scale[i][j]`` and a
    unit-modulus ``unit[i][j]``, so no factor is exponentiated on its
    own; only the active variables (z_m != 0, the i-th of them) are
    tabled, since z_m = 0 gives the sequence 1, 0, 0, ...  C(K) is the
    K-th coefficient of the Cauchy product of the active sequences, built
    by one O(K) convolution step per variable.  Each coefficient is a log
    scale plus an exactly rounded mantissa; log G(K) joins the scale
    before the one exponentiation, so a G(K) or a factor outside the
    double range on its own cannot overflow a finite shell.
    """
    # Each log Gamma(parameter) once, z_m = 0 variables' too, in the order
    # degree 0 meets them, so the first gamma pole raised is the one a
    # per-degree pass would raise.
    per_var = [_block(_rows(up, f"per_var_upper[{m}]"), _rows(lo, f"per_var_lower[{m}]"))
               for m, (up, lo) in enumerate(zip(spec.per_var_upper, spec.per_var_lower))]
    glob = _block(_rows(spec.global_upper, "global_upper"), _rows(spec.global_lower, "global_lower"))
    active = [(z, r, math.log(r), per_var[m]) for m, (z, r) in enumerate(zip(zs, moduli)) if z != 0]
    scale = [[] for _ in active]
    unit = [[] for _ in active]
    # log|z_m^j / j!| and the phase of z_m^j at the last j tabled.
    power = [(0.0, 1.0 + 0j) for _ in active]
    # conv[i]: (scales, mantissas) of the product of the first i + 1
    # active sequences; the first is that variable's own table.
    conv = [(scale[0], unit[0])] if active else []
    conv += [([], []) for _ in active[1:]]
    for degree in range(_MAX_DEGREE + 1):
        for i, (z, r, log_r, block) in enumerate(active):
            logmag, phase = power[i]
            if degree:
                logmag, phase = power[i] = (logmag + log_r - math.log(degree), phase * (z / r))
            lg = _block_log(block, degree)
            scale[i].append(lg.real + logmag)
            unit[i].append(cmath.exp(complex(0.0, lg.imag)) * phase)
        for i in range(1, len(active)):
            prev_scale, prev_mant = conv[i - 1]
            m_scale, m_unit = scale[i], unit[i]
            logs = [prev_scale[degree - j] + m_scale[j] for j in range(degree + 1)]
            top = max(logs)
            conv[i][0].append(top)
            conv[i][1].append(fsum_complex([
                math.exp(v - top) * prev_mant[degree - j] * m_unit[j]
                for j, v in enumerate(logs)
            ]))
        if active:
            top, mant = conv[-1][0][degree], conv[-1][1][degree]
        elif degree == 0:
            top, mant = 0.0, 1.0 + 0j
        else:
            yield 0j  # every z_m = 0: only the degree-0 shell has terms
            continue
        lg = _block_log(glob, degree)
        mag = lg.real + top
        if mag > _EXP_LIMIT:
            raise RangeError(f"shell of total degree {degree} overflows")
        yield cmath.exp(complex(mag, lg.imag)) * mant


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
    # Whole-shell sums are the terms of the common stopping rule, under
    # one budget: ctl.max_terms shells, at most total degree _MAX_DEGREE.
    sums = _degree_sums(spec, zs, moduli)
    res = sum_terms(sums, replace(ctl, max_terms=min(ctl.max_terms, _MAX_DEGREE + 1)))
    return LauricellaResult(res.value, res.terms - 1, res.terms, res.tail_estimate)


def lauricella_eval(
    spec: LauricellaSpec,
    z,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> complex:
    """Sum the generalized Lauricella series at the argument vector z.

    The series is summed degree by degree in non-decreasing total degree;
    the whole-shell sums go through ``series.sum_terms``, so the series
    stops when the last few of them are each negligible against the
    partial sum they were added to.
    """
    return lauricella_eval_full(spec, z, ctl).value
