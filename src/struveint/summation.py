"""Compensated (Kahan) accumulation for deterministic series summation.

``KahanSum`` serves the callers off the hot path: the Lauricella shell
sums (``lauricella.py``) and the final panel sum of
``quadrature.integrate_kernel``.  ``series.sum_terms``, which every
single-variable series runs through, inlines the same ``add`` then
``value`` arithmetic in its loop to skip a method call per term.
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
