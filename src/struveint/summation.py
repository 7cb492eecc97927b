"""Compensated (Kahan) accumulation for deterministic series summation.

``KahanSum``'s caller is ``lauricella.lauricella_eval_full``, for the
terms within one total-degree shell.  Three loops inline the same
``add`` then ``value`` arithmetic to skip a method call per term:
``series.sum_terms``, the stopping rule that every series runs through
(the Lauricella series with whole-shell sums as its terms); its
real-arithmetic copy ``series._w_real``, which sums W_{p,b,c} for real
p, b, c bit for bit as ``sum_terms`` would; and
``quadrature.integrate_kernel``, for each refinement round's panel sum.
"""

from __future__ import annotations


class KahanSum:
    """Kahan compensated accumulator over complex values.

    Keeps a running sum plus a carry of the low-order bits lost at each
    addition, so long ascending-k series sum reproducibly to within an
    ulp or two of the exact rounded result.
    """

    __slots__ = ("total", "carry")

    def __init__(self, start: complex = 0j):
        self.total = complex(start)
        self.carry = 0j

    def add(self, value: complex) -> None:
        value = value + self.carry
        previous = self.total
        self.total = previous + value
        # The difference between where we landed and where we should be.
        self.carry = value - (self.total - previous)

    @property
    def value(self) -> complex:
        return self.total + self.carry
