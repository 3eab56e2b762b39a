"""``upper_symbol`` against the row-by-row triangular solve.

``back_substitution_symbol`` inverts antinormal quantization the long way.
Matrix entries on the diagonal col - row = p are reached only by the
monomials theta^(j+a) bartheta^(j+b) with a - b = p, so the coefficient map
restricted to one diagonal is a square triangular system; it is solved from
its outermost row inward, one row at a time, with entries and pivots read
from ``mode_table``.  The Hankel map of ``upper_symbol``, the closed-form
inverse of the table, must reproduce it.

Coefficients are compared in table units: a coefficient difference times
the largest table entry it multiplies, which is its size in the matrix.
They are compared only up to k = 16.  At larger k the diagonal systems are
ill-conditioned, and two correct solvers differ by up to 1e-3 in table
units at k = 64; what stays small there is the matrix round trip, which is
checked up to k = 48.
"""

import numpy as np
import pytest

from pgquant import FockOperator, deformation, mode_table, quantize, random_poly, upper_symbol

GATE = 1e-12


def back_substitution_symbol(op: FockOperator) -> np.ndarray:
    """Coefficients c[s, t] of theta^s bartheta^t in the upper symbol of ``op``."""
    kp = op.dfm.kprime
    table = mode_table(op.dfm)
    out = np.zeros((kp, kp), dtype=complex)
    for p in range(1 - kp, kp):
        a, b = max(p, 0), max(-p, 0)
        size = kp - abs(p)
        solved = np.zeros(size, dtype=complex)
        for i in range(size):
            # Row n involves only the unknowns j <= i.
            n = kp - 1 - a - i
            js = np.arange(i)
            acc = op.mat[n, n + p] - table[js + a, js + b, n] @ solved[:i]
            solved[i] = acc / table[i + a, i + b, n]
        out[np.arange(size) + a, np.arange(size) + b] = solved
    return out


def coefficient_array(f) -> np.ndarray:
    kp = f.dfm.kprime
    out = np.zeros((kp, kp), dtype=complex)
    for ((s,), (t,)), c in f.terms.items():
        out[s, t] = c
    return out


def random_operator(dfm, rng) -> FockOperator:
    kp = dfm.kprime
    return FockOperator(dfm, 1, rng.uniform(-1, 1, (kp, kp)) + 1j * rng.uniform(-1, 1, (kp, kp)))


@pytest.mark.parametrize("k", range(4, 18, 2))
def test_upper_symbol_matches_back_substitution(k):
    dfm = deformation(k)
    scale = mode_table(dfm).max(axis=-1)  # largest entry each coefficient multiplies
    rng = np.random.default_rng(k)
    ops = [random_operator(dfm, rng) for _ in range(3)]
    ops.append(quantize(random_poly(dfm, rng, modes=1)))
    for op in ops:
        got = coefficient_array(upper_symbol(op))
        assert np.max(np.abs(got - back_substitution_symbol(op)) * scale) <= GATE


@pytest.mark.parametrize("k", [24, 32, 40, 48])
def test_upper_symbol_round_trip_at_large_k(k):
    dfm = deformation(k)
    rng = np.random.default_rng(k)
    for _ in range(3):
        op = random_operator(dfm, rng)
        assert quantize(upper_symbol(op)).residual(op) <= 1e-9


def test_upper_symbol_gather_is_cached_and_read_only():
    from pgquant.symbols import _upper_gather

    dfm = deformation(10)
    tables = [table for table in _upper_gather(dfm) if table is not None]
    assert _upper_gather(dfm)[0] is tables[0]
    assert all(table.size <= dfm.kprime * (2 * dfm.kprime - 1) for table in tables)  # no k'^3 table
    for table in tables:
        with pytest.raises(ValueError):
            table.flat[0] = 1
