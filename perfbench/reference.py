"""Extended-precision reference values for the benchmark's cases.

The value of both sides of an identity case is the gamma/power prefactor
times the generalized Lauricella series.  Every global block of both
identity variants depends on the multi-index only through its total
degree K, so the series is

    sum_K G(K) C(K),   C(K) = sum_{|k| = K} prod_m f_m(k_m),

where f_m(j) = z_m^j / ((3/2)_j (p_m + (b+2)/2)_j) and C is the
truncated convolution of the per-variable sequences.  That route shares
nothing with the library's shell enumeration; it is summed here in
mpmath at ``DPS`` digits and never imports ``struveint``.

Run as a script it reads a JSON list of cases on stdin and writes a JSON
list of ``[re, im]`` reference values on stdout:

    python3 perfbench/reference.py < cases.json

A case is a mapping with ``variant`` ("theorem1" or "theorem2"), ``a``,
``y`` (reals), and ``lam``, ``mu``, ``b``, ``c``, ``p`` given as
``[re, im]`` pairs (``p`` a list of them).
"""

from __future__ import annotations

import json
import sys

import mpmath as mp

DPS = 60

# Stop once this many consecutive degree sums fall below 10^-DPS of the
# partial sum, after the terms have started to shrink.
_SMALL_RUN = 4
_MAX_DEGREE = 2000


def _cpx(pair):
    return mp.mpc(pair[0], pair[1])


def _gamma_ratio_logs(terms):
    """Product of Gamma(x)^e over (x, e) pairs, via loggamma."""
    return mp.exp(mp.fsum(e * mp.loggamma(x) for x, e in terms))


def identity_value(case: dict) -> complex:
    """Prefactor times Lauricella series of a theorem1/theorem2 case."""
    with mp.workdps(DPS):
        a = mp.mpf(case["a"])
        lam, mu, b, c = (_cpx(case[k]) for k in ("lam", "mu", "b", "c"))
        p = [_cpx(v) for v in case["p"]]
        y = [mp.mpf(v) for v in case["y"]]
        n = len(p)
        big_p = mp.fsum(p)
        s = lam + big_p + n
        half3 = mp.mpf(3) / 2
        betas = [pm + (b + 2) / 2 for pm in p]

        common = mp.mpf(1)
        for pm, ym, beta in zip(p, y, betas):
            common *= ym ** (pm + 1) / mp.gamma(beta)
        common /= mp.gamma(half3) ** n

        if case["variant"] == "theorem1":
            pref = (
                s * mp.power(2, 1 - mu - big_p - n) * mp.power(a, mu - s) * common
                * _gamma_ratio_logs([(2 * mu, 1), (s - mu, 1), (1 + s + mu, -1)])
            )
            zs = [-c * ym * ym / (4 * a * a) for ym in y]
            up = [(1 + s, 2), (s - mu, 2)]
            low = [(s, 2), (1 + s + mu, 2)]
        elif case["variant"] == "theorem2":
            t = 2 * mu + 2 * big_p + 2 * n
            u = 1 + lam + mu + 2 * big_p + 2 * n
            pref = (
                s * mp.power(2, 1 - mu - 2 * big_p - 2 * n) * mp.power(a, mu - lam) * common
                * _gamma_ratio_logs([(lam - mu, 1), (t, 1), (u, -1)])
            )
            zs = [-c * ym * ym / 16 for ym in y]
            up = [(t, 4), (1 + s, 2)]
            low = [(u, 4), (s, 2)]
        else:
            raise ValueError(f"unknown variant {case['variant']!r}")

        # Per-variable sequences and their running partial convolutions
        # (level m convolves the first m + 1 sequences), extended one
        # degree at a time; the last level's entry is C(deg).
        seqs = [[] for _ in range(n)]
        levels = [[] for _ in range(n)]
        total = mp.mpc(0)
        tiny = mp.mpf(10) ** (-DPS)
        small = 0
        prev_mag = None
        for deg in range(_MAX_DEGREE + 1):
            for m in range(n):
                j = deg - 1
                seqs[m].append(mp.mpc(1) if deg == 0 else
                               seqs[m][j] * zs[m] / ((half3 + j) * (betas[m] + j)))
            levels[0] = seqs[0]
            for m in range(1, n):
                levels[m].append(mp.fsum(levels[m - 1][i] * seqs[m][deg - i] for i in range(deg + 1)))
            coeff = levels[n - 1][deg]
            g = mp.mpf(1)
            for x, w in up:
                g *= mp.rf(x, w * deg)
            for x, w in low:
                g /= mp.rf(x, w * deg)
            term = g * coeff
            total += term
            mag = abs(term)
            if prev_mag is not None and mag <= prev_mag and mag <= tiny * abs(total):
                small += 1
                if small >= _SMALL_RUN:
                    value = pref * total
                    return complex(value)
            else:
                small = 0
            prev_mag = mag
        raise ArithmeticError("reference series did not converge")


def main() -> int:
    cases = json.load(sys.stdin)
    out = [[v.real, v.imag] for v in map(identity_value, cases)]
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
