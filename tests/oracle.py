"""Extended-precision reference implementations used only by the tests.

Everything here is a direct mpmath transcription of the defining series
and closed forms, summed naively at >= 40 significant digits.  Nothing
imports the library under test, so these values are an independent
anchor for the double-precision implementations.
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 40


def _mpc(z):
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def struve_w(p, b, c, z, terms=120):
    """Sum_{k>=0} (-c)^k (z/2)^(2k+p+1) / (G(k+3/2) G(k+p+(b+2)/2))."""
    with mp.workdps(DPS):
        p, b, c, z = map(_mpc, (p, b, c, z))
        half = (z / 2) ** (p + 1)
        total = mp.mpc(0)
        for k in range(terms):
            total += (
                (-c) ** k
                * (z / 2) ** (2 * k)
                / (mp.gamma(k + mp.mpf(3) / 2) * mp.gamma(k + p + (b + 2) / 2))
            )
        return complex(half * total)


def log_gamma(z):
    """Principal log Gamma(z); mpmath has no signed zero, so the negative
    real axis gives the limit from above (imaginary part -pi * ceil(-x))."""
    with mp.workdps(DPS):
        return complex(mp.loggamma(_mpc(z)))


def struve_h(nu, z, terms=120):
    """The alternating series with second gamma G(k + nu + 1/2)."""
    return struve_w(nu, -1, 1, z, terms=terms)


def struve_l(nu, z, terms=120):
    return struve_w(nu, -1, -1, z, terms=terms)


def struve_w_derivative(p, b, c, z, order=1, terms=120):
    """Term-wise derivative of the struve_w series."""
    with mp.workdps(DPS):
        p, b, c, z = map(_mpc, (p, b, c, z))
        total = mp.mpc(0)
        for k in range(terms):
            m = 2 * k + p + 1
            term = (
                (-c) ** k
                * (z / 2) ** m
                / (mp.gamma(k + mp.mpf(3) / 2) * mp.gamma(k + p + (b + 2) / 2))
            )
            if order == 1:
                term *= m / z
            elif order == 2:
                term *= m * (m - 1) / z**2
            else:
                raise ValueError(order)
            total += term
        return complex(total)


def pfq(upper, lower, z, terms=300):
    with mp.workdps(DPS):
        upper = [_mpc(u) for u in upper]
        lower = [_mpc(v) for v in lower]
        z = _mpc(z)
        total = mp.mpc(0)
        term = mp.mpc(1)
        for k in range(terms):
            total += term
            num = mp.mpc(1)
            for u in upper:
                num *= u + k
            den = mp.mpc(1)
            for v in lower:
                den *= v + k
            term = term * num / den * z / (k + 1)
        return complex(total)


def fox_wright(upper, lower, z, terms=300):
    """upper/lower are (param, weight) pairs."""
    with mp.workdps(DPS):
        z = _mpc(z)
        total = mp.mpc(0)
        for k in range(terms):
            term = z**k / mp.factorial(k)
            for a, wa in upper:
                term *= mp.gamma(_mpc(a) + wa * k)
            for bb, wb in lower:
                term /= mp.gamma(_mpc(bb) + wb * k)
            total += term
        return complex(total)


def lauricella_shells(global_upper, global_lower, per_var_upper, per_var_lower, z, max_degree=60):
    """Shell sums S_0, ..., S_max_degree of the Srivastava-Daoust series,
    each the naive sum over every multi-index of that total degree.

    ``global_upper``/``global_lower`` are (param, exponent-vector) pairs,
    ``per_var_upper``/``per_var_lower`` are per-variable lists of
    (param, exponent) pairs, ``z`` the argument vector.  Any exponent
    vectors are accepted; each Pochhammer symbol and each variable's
    factor is computed once and reused.  The sums are mpmath values.
    """
    with mp.workdps(DPS):
        n = len(z)
        zs = [_mpc(v) for v in z]
        pochs, factors, globals_ = {}, {}, {}

        def poch(lam, nu):
            key = (complex(lam), nu)
            if key not in pochs:
                pochs[key] = mp.gamma(_mpc(lam) + nu) / mp.gamma(_mpc(lam))
            return pochs[key]

        def factor(m, j):
            if (m, j) not in factors:
                val = zs[m] ** j / mp.factorial(j)
                for b, ph in per_var_upper[m]:
                    val *= poch(b, ph * j)
                for d, de in per_var_lower[m]:
                    val /= poch(d, de * j)
                factors[m, j] = val
            return factors[m, j]

        def global_block(subscripts):
            if subscripts not in globals_:
                val = mp.mpc(1)
                for (a, _), nu in zip(global_upper, subscripts):
                    val *= poch(a, nu)
                for (cc, _), nu in zip(global_lower, subscripts[len(global_upper):]):
                    val /= poch(cc, nu)
                globals_[subscripts] = val
            return globals_[subscripts]

        def omega_z(k):
            # Each subscript is the exactly rounded sum of the exponent
            # times index products (which are doubles themselves).
            val = global_block(tuple(
                math.fsum(t * ki for t, ki in zip(th, k))
                for _, th in (*global_upper, *global_lower)
            ))
            for m in range(n):
                val *= factor(m, k[m])
            return val

        def shells(deg, parts):
            if parts == 1:
                yield (deg,)
                return
            for first in range(deg + 1):
                for rest in shells(deg - first, parts - 1):
                    yield (first,) + rest

        return [mp.fsum(omega_z(k) for k in shells(deg, n)) for deg in range(max_degree + 1)]


def lauricella(global_upper, global_lower, per_var_upper, per_var_lower, z, max_degree=60):
    """Naive multi-index sum of the series through total degree max_degree."""
    with mp.workdps(DPS):
        return complex(mp.fsum(lauricella_shells(
            global_upper, global_lower, per_var_upper, per_var_lower, z, max_degree
        )))


def oberhettinger(a, mu, lam):
    """2 lam a^-lam (a/2)^mu G(2 mu) G(lam-mu) / G(1+lam+mu)."""
    with mp.workdps(DPS):
        a, mu, lam = map(_mpc, (a, mu, lam))
        val = (
            2
            * lam
            * a ** (-lam)
            * (a / 2) ** mu
            * mp.gamma(2 * mu)
            * mp.gamma(lam - mu)
            / mp.gamma(1 + lam + mu)
        )
        return complex(val)


def prefactor_fixed_argument(a, lam, mu, b, p, y):
    """Coefficient in front of the series for the fixed-argument identity."""
    with mp.workdps(DPS):
        a_, lam_, mu_, b_ = map(_mpc, (a, lam, mu, b))
        ps = mp.fsum([_mpc(pj) for pj in p])
        n = len(p)
        s = lam_ + ps + n
        val = (
            s
            * mp.mpf(2) ** (1 - mu_ - ps - n)
            * a_ ** (mu_ - s)
            * mp.gamma(2 * mu_)
            * mp.gamma(s - mu_)
            / (mp.gamma(mp.mpf(3) / 2) ** n * mp.gamma(1 + s + mu_))
        )
        for pj, yj in zip(p, y):
            val *= _mpc(yj) ** (_mpc(pj) + 1) / mp.gamma(_mpc(pj) + (b_ + 2) / 2)
        return complex(val)


def prefactor_scaled_argument(a, lam, mu, b, p, y):
    """Coefficient in front of the series for the scaled-argument identity."""
    with mp.workdps(DPS):
        a_, lam_, mu_, b_ = map(_mpc, (a, lam, mu, b))
        ps = mp.fsum([_mpc(pj) for pj in p])
        n = len(p)
        s = lam_ + ps + n
        val = (
            s
            * mp.mpf(2) ** (1 - mu_ - 2 * ps - 2 * n)
            * a_ ** (mu_ - lam_)
            * mp.gamma(lam_ - mu_)
            * mp.gamma(2 * mu_ + 2 * ps + 2 * n)
            / (mp.gamma(mp.mpf(3) / 2) ** n * mp.gamma(1 + lam_ + mu_ + 2 * ps + 2 * n))
        )
        for pj, yj in zip(p, y):
            val *= _mpc(yj) ** (_mpc(pj) + 1) / mp.gamma(_mpc(pj) + (b_ + 2) / 2)
        return complex(val)


def identity_rhs(case, max_degree=60):
    """Prefactor times Lauricella series of an identity case (any object
    with the attributes of ``IntegralCase``), at 40 digits."""
    lam, mu, b, c, a = case.lam, case.mu, case.b, case.c, case.a
    n = len(case.p)
    p_sum = sum(case.p)
    s = lam + p_sum + n
    twos, fours = [2.0] * n, [4.0] * n
    per_var_upper = [[(1.0, 1.0)] for _ in case.p]
    per_var_lower = [[(1.5, 1.0), (pj + (b + 2) / 2, 1.0)] for pj in case.p]
    if case.variant == "theorem1":
        pref = prefactor_fixed_argument(a, lam, mu, b, case.p, case.y)
        global_upper = [(1 + s, twos), (s - mu, twos)]
        global_lower = [(s, twos), (1 + s + mu, twos)]
        z = [-c * yj * yj / (4 * a * a) for yj in case.y]
    else:
        pref = prefactor_scaled_argument(a, lam, mu, b, case.p, case.y)
        global_upper = [(2 * mu + 2 * p_sum + 2 * n, fours), (1 + s, twos)]
        global_lower = [(1 + lam + mu + 2 * p_sum + 2 * n, fours), (s, twos)]
        z = [-c * yj * yj / 16.0 for yj in case.y]
    return pref * lauricella(
        global_upper, global_lower, per_var_upper, per_var_lower, z, max_degree=max_degree
    )
