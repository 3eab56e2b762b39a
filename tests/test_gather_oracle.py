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

import itertools
from functools import reduce

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


MONOMIALS = [(8, 1, None), (32, 1, None), (236, 1, 200), (8, 2, None), (24, 2, 120), (6, 3, None), (8, 3, 120)]
MONOMIAL_IDS = [f"{k}-{sample}" + (f"-d{d}" if d > 1 else "") for k, d, sample in MONOMIALS]


def placed_monomials(k, d, sample, ordering):
    """Stacks of at most 50 monomials theta^s bartheta^t on d modes, every one
    or a seeded ``sample``, with their images under ``ordering``; per stack
    also (term, row, col, amp): the entries (row, col) of the image of term
    theta^s bartheta^t that lie in the matrix, col = row + s - t on every
    mode, and there the mode-order product of the oracle's T[s_i, t_i, n_i],
    n the row's state: zero where the kernel does not reach."""
    dfm = deformation(k)
    kp, table, shape = dfm.kprime, mode_table(dfm), (dfm.kprime,) * (2 * d)
    states = np.array(list(itertools.product(range(kp), repeat=d)))  # first mode most significant
    count = kp ** (2 * d)
    picks = np.arange(count) if sample is None else np.random.default_rng([k, d]).choice(count, sample, replace=False)
    for lo in range(0, len(picks), 50):  # 50 symbols a stack: 11 MB in and 11 MB out at k = 236
        expo = np.stack(np.unravel_index(picks[lo:lo + 50], shape), axis=1)
        stack = np.zeros((len(expo),) + shape, dtype=complex)
        stack[(np.arange(len(expo)), *expo.T)] = 1.0
        s, t = expo[:, None, :d], expo[:, None, d:]
        col = states + s - t
        term, row = np.nonzero(((col >= 0) & (col < kp)).all(-1))
        n, s, t = states[row], s[term, 0], t[term, 0]
        amp = reduce(np.multiply, [table[s[:, i], t[:, i], n[:, i]] for i in range(d)])
        col = np.ravel_multi_index(col[term, row].T, (kp,) * d)
        yield _quantize_stack(dfm, stack, ordering), (term, row, col, amp)


@pytest.mark.parametrize("k, d, sample", MONOMIALS, ids=MONOMIAL_IDS)
def test_placed_monomials_equal_the_oracle_table(k, d, sample):
    # a monomial has one term, so a stack of them is placed term by term from
    # [n+s]! and sqrt([n]! [m]!) at the pairs the kernel reaches: entry (n, n +
    # s - t) of the image of theta^s bartheta^t is the mode-order product of
    # T[s_i, t_i, n_i] bit for bit, and every other entry is +0
    for images, (term, row, col, amp) in placed_monomials(k, d, sample, Ordering.ANTINORMAL):
        want = np.zeros(images.shape)
        want[term, row, col] = amp
        assert (images.real == want).all()
        assert not images.imag.any()
        assert not np.signbit(images.real).any() and not np.signbit(images.imag).any()


@pytest.mark.parametrize("ordering", [Ordering.LEFT, Ordering.RIGHT])
@pytest.mark.parametrize("k, d, sample", MONOMIALS, ids=MONOMIAL_IDS)
def test_left_and_right_images_are_nonzero_exactly_where_the_kernel_reaches(k, d, sample, ordering):
    # the phase q_k^e has modulus 1, so the image of a one-term symbol is
    # nonzero exactly where the oracle's amplitude is, its modulus that
    # amplitude to a few eps, and +0 everywhere else
    for images, (term, row, col, amp) in placed_monomials(k, d, sample, ordering):
        reach = np.zeros(images.shape, dtype=bool)
        reach[term, row, col] = amp != 0
        assert ((images != 0) == reach).all()
        assert np.abs(np.abs(images[term, row, col]) - amp).max(initial=0) <= 4 * EPS * amp.max(initial=0)
        outside = images[~reach]
        assert not np.signbit(outside.real).any() and not np.signbit(outside.imag).any()
