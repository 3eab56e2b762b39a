"""The canonical product's two sources of pairs: the cached table of
admissible index pairs (``_pair_table``, one run of ``_admissible_pairs``
over the whole tensor) and ``_admissible_pairs`` run block by block over
the nonzero terms past ``_PAIRS_PER_BLOCK``.  Both must give the same
bytes, so ``_pair_table`` is patched to None to reach the block path at
sizes the table covers."""

import numpy as np
import pytest

from pgquant import ParaPoly, deformation, multiply, multiply_prescription
from pgquant import algebra
from pgquant.algebra import _pair_table

# every (k, d) whose (k'(k'+1)/2)^2d admissible pairs fit in _PAIRS_PER_BLOCK
TABLE_CASES = [(k, 1) for k in range(4, 26, 2)] + [(4, 2), (6, 2), (4, 3), (4, 4)]
JUST_PAST = [(26, 1), (8, 2), (6, 3)]
PRODUCTS = (multiply, multiply_prescription)


def _operands(dfm, d: int, rng) -> list[np.ndarray]:
    """Dense, random-sparse, single-term, zero and 1e-160-scaled
    (underflowing) coefficient tensors."""
    shape = (dfm.kprime,) * (2 * d)

    def draw():
        return rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)

    dense, sparse = draw(), draw() * (rng.random(shape) < 0.3)
    single = np.zeros(shape, dtype=complex)
    single[tuple(rng.integers(0, dfm.kprime, 2 * d))] = complex(*rng.uniform(-1, 1, 2))
    return [dense, sparse, single, np.zeros(shape, dtype=complex), 1e-160 * dense, 1e-160 * sparse]


def _block_path(monkeypatch) -> None:
    monkeypatch.setattr(algebra, "_pair_table", lambda dfm, d: None)


@pytest.mark.parametrize("k, d", TABLE_CASES)
def test_table_and_block_paths_give_the_same_bytes(k, d, monkeypatch):
    dfm = deformation(k)
    ops = [ParaPoly(dfm, d, c) for c in _operands(dfm, d, np.random.default_rng([k, d]))]
    pairs = [(f, g) for f in ops for g in ops]
    table = [product(f, g).coeffs.tobytes() for f, g in pairs for product in PRODUCTS]
    _block_path(monkeypatch)
    assert [product(f, g).coeffs.tobytes() for f, g in pairs for product in PRODUCTS] == table


@pytest.mark.parametrize("k, d", TABLE_CASES)
def test_block_boundaries_do_not_move_bytes(k, d, monkeypatch):
    """One left term a block, the smallest blocks there are, gives the
    bytes of the table's single block."""
    dfm = deformation(k)
    ops = [ParaPoly(dfm, d, c) for c in _operands(dfm, d, np.random.default_rng([k, d, 1]))]
    pairs = [(f, g) for f in ops for g in ops]
    table = [product(f, g).coeffs.tobytes() for f, g in pairs for product in PRODUCTS]
    _block_path(monkeypatch)
    monkeypatch.setattr(algebra, "_PAIRS_PER_BLOCK", 1)
    assert [product(f, g).coeffs.tobytes() for f, g in pairs for product in PRODUCTS] == table


@pytest.mark.parametrize("k, d", [(12, 1), (6, 2), (8, 2)])
@pytest.mark.parametrize("blocks", [False, True])
def test_a_lone_pair_rounds_as_inside_a_full_product(k, d, blocks, monkeypatch):
    """A one-term left factor sends each right term to its own target, so
    the entry of one pair must not depend on the other right terms: the
    product of two single terms equals that entry of the product with a
    full right factor, bit for bit."""
    if blocks:
        _block_path(monkeypatch)
    dfm = deformation(k)
    rng = np.random.default_rng([k, d, 7])
    shape = (dfm.kprime,) * (2 * d)
    full = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
    for _ in range(20):
        a, b = rng.integers(0, (dfm.kprime + 1) // 2, (2, 2 * d))
        f = ParaPoly(dfm, d, {(tuple(a[:d]), tuple(a[d:])): complex(*rng.uniform(-1, 1, 2))})
        g = ParaPoly(dfm, d, {(tuple(b[:d]), tuple(b[d:])): full[tuple(b)]})
        target = tuple(a + b)
        assert multiply(f, g).coeffs[target].tobytes() == multiply(f, ParaPoly(dfm, d, full)).coeffs[target].tobytes()


@pytest.mark.parametrize("k, d", TABLE_CASES)
def test_pair_table_is_cached_read_only_and_complete(k, d):
    dfm = deformation(k)
    table = _pair_table(dfm, d)
    assert _pair_table(dfm, d) is table
    i, j, target, phase = table
    assert not any(a.flags.writeable for a in table)
    kp = dfm.kprime
    assert len(i) == (kp * (kp + 1) // 2) ** (2 * d) <= algebra._PAIRS_PER_BLOCK
    assert np.array_equal(target, i + j)
    assert np.all(np.diff(i * kp ** (2 * d) + j) > 0)  # row-major (i, j) order


@pytest.mark.parametrize("k, d", JUST_PAST)
def test_pair_table_is_none_past_the_bound(k, d):
    kp = deformation(k).kprime
    assert (kp * (kp + 1) // 2) ** (2 * d) > algebra._PAIRS_PER_BLOCK
    assert _pair_table(deformation(k), d) is None


@pytest.mark.parametrize("k, d", [(6, 2), (16, 1), (8, 2)])
@pytest.mark.parametrize("blocks", [False, True])
@pytest.mark.parametrize("product", PRODUCTS)
def test_overflowing_product_raises(k, d, blocks, product, monkeypatch):
    if blocks:
        _block_path(monkeypatch)
    big = ParaPoly.constant(deformation(k), d, 1e200)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        product(big, big)
