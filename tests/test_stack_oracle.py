"""Stacked symbol maps against the maps applied one item at a time.

``quantize`` and ``upper_symbol`` are the stacked maps on a stack of one,
and the sampled checks of ``verify`` run their trials as stacks.  The
per-trial and per-monomial loops below are those checks written one call
per item; the stacked forms must return the same residuals.  The
per-monomial loop of ``check_mixed_quantization`` is kept, pair by pair, in
``test_mixed_oracle.py``.
"""

import tracemalloc

import numpy as np
import pytest

from pgquant import (
    FockOperator,
    ParaPoly,
    deformation,
    hermiticity_residual,
    ladder,
    ladder_dag,
    quantize,
    random_poly,
    round_trip_residuals,
    upper_symbol,
    verify_relations,
)
from pgquant.algebra import _PAIRS_PER_BLOCK
from pgquant.quantization import Ordering, _quantize_gather, _quantize_stack, gather_contract
from pgquant.symbols import _upper_gather

KS = list(range(4, 34, 2)) + [64]
# one more than a chunk of trials: the second chunk holds a single trial
TRIALS = [1, 20, pytest.param(None, id="chunk+1")]


def chunk_plus_one(dfm):
    return max(1, _PAIRS_PER_BLOCK // dfm.kprime**2) + 1


def hermiticity_by_trials(dfm, trials, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        f = random_poly(dfm, rng, modes=1)
        worst = max(worst, quantize(f.conjugate()).residual(quantize(f).dagger()))
    return worst


def round_trip_by_trials(dfm, trials, seed):
    rng = np.random.default_rng(seed)
    kp = dfm.kprime
    worst_poly = worst_mat = 0.0
    for _ in range(trials):
        f = random_poly(dfm, rng, modes=1)
        worst_poly = max(worst_poly, upper_symbol(quantize(f)).distance(f))
        a = FockOperator(dfm, 1, rng.uniform(-1.0, 1.0, (kp, kp)) + 1j * rng.uniform(-1.0, 1.0, (kp, kp)))
        worst_mat = max(worst_mat, quantize(upper_symbol(a)).residual(a))
    return worst_poly, worst_mat


def theta_powers_by_monomial(dfm):
    """The check "quantize(theta^n) = low^n and barred", one power at a time."""
    kp = dfm.kprime
    low, high = ladder(dfm), ladder_dag(dfm)
    res = 0.0
    for n in range(2, kp + 1):
        for op, theta, bar in ((low, (n,), (0,)), (high, (0,), (n,))):
            f = ParaPoly.zero(dfm, 1) if n >= kp else ParaPoly.monomial(dfm, 1, theta, bar)
            res = max(res, quantize(f).residual(op.power(n)))
    return res


def close(got, want):
    return abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k", KS)
def test_hermiticity_matches_trial_loop(k, seed, trials):
    dfm = deformation(k)
    trials = trials or chunk_plus_one(dfm)
    assert close(hermiticity_residual(dfm, trials, seed), hermiticity_by_trials(dfm, trials, seed))


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k", KS)
def test_round_trips_match_trial_loop(k, seed, trials):
    dfm = deformation(k)
    trials = trials or chunk_plus_one(dfm)
    got, want = round_trip_residuals(dfm, trials, seed), round_trip_by_trials(dfm, trials, seed)
    assert close(got[0], want[0]) and close(got[1], want[1])


@pytest.mark.parametrize("k", KS)
def test_theta_powers_match_monomial_loop(k):
    dfm = deformation(k)
    name = f"quantize(theta^n) = low^n and barred, n = 2..{dfm.kprime}"
    (check,) = [c for c in verify_relations(dfm).checks if c.name == name]
    assert close(check.residual, theta_powers_by_monomial(dfm))


# (k, d) with dim = 8, 16 and 27
SHAPES = [(16, 1), (8, 2), (6, 3)]


def sparse_stack(dfm, d, rng, items, terms):
    """``items`` symbols of ``terms`` random monomials each."""
    size = dfm.kprime ** (2 * d)
    stack = np.zeros((items, size), dtype=complex)
    for row in stack:
        row[rng.choice(size, terms, replace=False)] = rng.uniform(-1, 1, (terms, 2)).view(complex)[:, 0]
    return stack.reshape((items,) + (dfm.kprime,) * (2 * d))


def full_stack(dfm, d, rng, items):
    return rng.uniform(-1, 1, (items,) + (dfm.kprime,) * (2 * d) + (2,)).view(complex)[..., 0]


def stacks(dfm, d):
    """Stacks that are gathered while some of their symbols alone would be
    placed, placed while one symbol alone would be gathered, and placed in
    several blocks of ``_PAIRS_PER_BLOCK // dim`` terms; each holds a zero
    symbol."""
    rng = np.random.default_rng([dfm.k, d])
    dim = dfm.kprime**d
    zero = np.zeros((1,) + (dfm.kprime,) * (2 * d), dtype=complex)
    gathered = np.concatenate([full_stack(dfm, d, rng, 2), sparse_stack(dfm, d, rng, 3, 2), zero])
    placed = np.concatenate([full_stack(dfm, d, rng, 1), zero, sparse_stack(dfm, d, rng, dim + 1, 1)])
    blocks = np.concatenate([sparse_stack(dfm, d, rng, 799, 3), zero])
    assert np.count_nonzero(gathered) > len(gathered) * dim
    assert np.count_nonzero(placed) <= len(placed) * dim
    assert _PAIRS_PER_BLOCK // dim * 2 < np.count_nonzero(blocks) <= len(blocks) * dim
    return {"gathered": gathered, "placed": placed, "blocks": blocks}


def assert_matches_items(stacked, items):
    for got, want in zip(stacked, items):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    for part in (stacked.real, stacked.imag):
        assert not np.signbit(part[part == 0]).any()  # no -0


@pytest.mark.parametrize("ordering", list(Ordering))
@pytest.mark.parametrize("k, d", SHAPES)
def test_quantize_stack_matches_items(k, d, ordering):
    dfm = deformation(k)
    dim = dfm.kprime**d
    for name, stack in stacks(dfm, d).items():
        got = _quantize_stack(dfm, stack, ordering)
        assert got.shape == (len(stack), dim, dim), name
        assert_matches_items(got, [quantize(ParaPoly(dfm, d, x), ordering).mat for x in stack])


@pytest.mark.parametrize("k, d", SHAPES)
def test_gather_contract_stack_matches_items(k, d):
    dfm = deformation(k)
    for stack in stacks(dfm, d).values():
        for table in (_quantize_gather(dfm), _upper_gather(dfm)):
            got = gather_contract(stack, *table)
            assert_matches_items(got, [gather_contract(x[None], *table)[0] for x in stack])


@pytest.mark.parametrize("k", [4, 16, 32])
def test_upper_symbol_stack_matches_items(k):
    # more matrices than one gather block holds
    dfm = deformation(k)
    kp = dfm.kprime
    rng = np.random.default_rng(k)
    mats = rng.uniform(-1, 1, (3 * max(kp, _PAIRS_PER_BLOCK // kp**3), kp, kp, 2)).view(complex)[..., 0]
    mats[1] = 0.0
    got = gather_contract(mats, *_upper_gather(dfm))
    assert_matches_items(got, [upper_symbol(FockOperator(dfm, 1, a)).coeffs for a in mats])


def traced_peak(fn, dfm, trials):
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    fn(dfm, trials, 0)
    return tracemalloc.get_traced_memory()[1] - base


@pytest.mark.parametrize("fn", [hermiticity_residual, round_trip_residuals])
def test_sampled_check_memory_does_not_grow_with_trials(fn):
    dfm = deformation(16)
    chunk = chunk_plus_one(dfm) - 1
    tracemalloc.start()
    try:
        fn(dfm, chunk, 0)  # fill the cached tables
        small = traced_peak(fn, dfm, 10 * chunk)
        large = traced_peak(fn, dfm, 100 * chunk)
    finally:
        tracemalloc.stop()
    assert large <= 1.1 * small, (small, large)
