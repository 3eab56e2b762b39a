"""Fock-space closed forms that only the tests read.

``basis_index`` is the position of an occupation tuple in the basis order
of ``basis_tuples``.  ``quantize_mixed_monomial`` writes the antinormal
image of theta^n bartheta^m entry by entry, as the oracle that
``quantize`` and the ladder products must reproduce.
"""

import numpy as np

from pgquant import Deformation, FockOperator
from pgquant.qnum import factorials


def basis_index(ns: tuple[int, ...], dfm: Deformation) -> int:
    idx = 0
    for n in ns:
        idx = idx * dfm.kprime + n
    return idx


def quantize_mixed_monomial(n: int, m: int, dfm: Deformation) -> FockOperator:
    """Closed form for the antinormal quantization of theta^n bartheta^m.

    Shift by n - m with factorial amplitudes; terms whose occupations
    leave the basis are dropped.  Coincides with
    ``quantize(theta^n bartheta^m)`` and with the operator product
    ``ladder^n @ ladder_dag^m`` (in that order; the reversed product
    differs in general).
    """
    kp = dfm.kprime
    if not (0 <= n <= kp - 1 and 0 <= m <= kp - 1):
        raise ValueError(f"powers must lie in 0..{kp - 1}, got n={n}, m={m}")
    fac = factorials(dfm)
    row = np.arange(max(0, m - n), kp - n)  # rows with top = row + n < kp and col = row + n - m >= 0
    out = np.zeros((kp, kp), dtype=complex)
    out[row, row + n - m] = fac[row + n] / np.sqrt(fac[row] * fac[row + n - m])
    return FockOperator(dfm, 1, out)
