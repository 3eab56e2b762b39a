"""The Hankel GEMM of ``gather_contract`` against the k'^3 gather oracle.

``quantize`` and ``upper_symbol`` apply each mode's map as one real GEMM
of a Hankel matrix between two diagonal scalings.  ``gather_oracle.py``
applies the same maps from their (s, t, n) tables.  The two sum the same
terms in different orders, so they must agree to a few eps of the largest
entry, at every even k from 4 to 64 and on 1 to 3 modes, wherever the
tensor has at most 2^20 coefficients (3 modes up to k = 20).

The adjoint survives bit for bit on one mode: the GEMM dot products for
entry (n, m) of the image of conjugate(f) and entry (m, n) of the image of
f have the same nonzero terms in the same order, and so do those of the
upper symbols of a matrix and of its adjoint.
"""

import numpy as np
import pytest

from gather_oracle import gather_contract as oracle_contract
from gather_oracle import mode_table, quantize_gather, upper_gather
from pgquant import FockOperator, deformation, quantize, random_poly, upper_symbol
from pgquant.quantization import Ordering, _quantize_gather, _quantize_stack, gather_contract
from pgquant.symbols import _upper_gather

EPS = np.finfo(float).eps
SIZES = [(k, d) for d in (1, 2, 3) for k in range(4, 66, 2) if (k // 2) ** (2 * d) <= 1 << 20]


@pytest.mark.parametrize("k, d", SIZES)
def test_maps_match_the_gather_oracle(k, d):
    dfm = deformation(k)
    kp = dfm.kprime
    rng = np.random.default_rng([k, d])
    items = 3 if d == 1 else 1
    x = rng.uniform(-1, 1, (items,) + (kp,) * (2 * d) + (2,)).view(complex)[..., 0]
    for got_map, want_map in ((_quantize_gather, quantize_gather), (_upper_gather, upper_gather)):
        got, want = gather_contract(x, *got_map(dfm)), oracle_contract(x, *want_map(dfm))
        assert np.abs(got - want).max() <= 4 * EPS * np.abs(want).max(), got_map.__name__


@pytest.mark.parametrize("k", list(range(4, 34, 2)) + [64])
def test_conjugate_quantizes_to_the_adjoint_bit_for_bit(k):
    dfm = deformation(k)
    rng = np.random.default_rng(k)
    for _ in range(3):
        f = random_poly(dfm, rng, modes=1)
        assert np.array_equal(quantize(f.conjugate()).mat, quantize(f).mat.conj().T)


@pytest.mark.parametrize("k", [4, 16, 64])
def test_upper_symbol_of_the_adjoint_is_the_conjugate(k):
    dfm = deformation(k)
    kp = dfm.kprime
    a = FockOperator(dfm, 1, np.random.default_rng(k).uniform(-1, 1, (kp, kp, 2)).view(complex)[..., 0])
    assert upper_symbol(a.dagger()) == upper_symbol(a).conjugate()


def test_quantize_map_is_cached_read_only_and_quadratic():
    dfm = deformation(64)
    kp = dfm.kprime
    tables = _quantize_gather(dfm)
    assert _quantize_gather(dfm) is tables
    for table in tables:
        assert table.size <= kp * (2 * kp - 1)  # no k'^3 table
        assert not table.flags.writeable


@pytest.mark.parametrize("k, sample", [(8, None), (32, None), (236, 200)])
def test_placed_monomials_equal_the_oracle_table(k, sample):
    # a monomial has one term, so a stack of them is placed term by term from
    # [n+s]! and sqrt([n]! [m]!): entry (n, n + s - t) of the image of
    # theta^s bartheta^t is T[s, t, n] bit for bit, and every other entry is +0
    dfm = deformation(k)
    kp, table = dfm.kprime, mode_table(dfm)
    picks = np.arange(kp * kp) if sample is None else np.random.default_rng(k).choice(kp * kp, sample, replace=False)
    n = np.arange(kp)
    for lo in range(0, len(picks), 50):  # 50 symbols a stack: 11 MB in and 11 MB out at k = 236
        s, t = np.divmod(picks[lo:lo + 50], kp)
        stack = np.zeros((len(s), kp, kp), dtype=complex)
        stack[np.arange(len(s)), s, t] = 1.0
        images = _quantize_stack(dfm, stack, Ordering.ANTINORMAL)
        col = n + (s - t)[:, None]
        term, row = np.nonzero((col >= 0) & (col < kp))
        want = np.zeros(images.shape)
        want[term, row, col[term, row]] = table[s[term], t[term], row]
        assert (images.real == want).all()
        assert not images.imag.any()
        assert not np.signbit(images.real).any() and not np.signbit(images.imag).any()
