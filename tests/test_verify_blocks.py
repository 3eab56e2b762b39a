"""The single-mode checks of ``verify`` against the forms they replace, to the bit.

``check_mixed_quantization`` holds every one-diagonal matrix as the vector
of its diagonal and covers all (n, m) at once, the sampled checks draw
each chunk of trials in one call and conjugate it as one stack, and
``check_ordering_products`` quantizes both generators as one stack per
ordering.  The oracles below are those checks written one n, one trial or
one generator at a time, the mixed one with dense matrix products; the
residuals must be equal, not merely close, so that ``verify`` prints the
same report.  The 1e-12 comparisons with the per-pair and per-trial loops
stay in ``test_mixed_oracle.py`` and ``test_stack_oracle.py``.
"""

import tracemalloc

import numpy as np
import pytest

from pgquant import (
    ParaPoly,
    check_mixed_quantization,
    check_ordering_products,
    deformation,
    hermiticity_residual,
    ladder,
    ladder_dag,
    quantize,
    random_poly,
    round_trip_residuals,
)
from pgquant.algebra import _PAIRS_PER_BLOCK, _draw_trials
from pgquant.qnum import factorials
from pgquant.quantization import Ordering, _quantize_stack, _trial_chunks, gather_contract
from pgquant.symbols import _upper_gather

# k' = 2 to 32, and 48, where the residuals of the products reach 1e28 and
# any product rounded otherwise than the dense one would show
KS = [4, 8, 10, 16, 18, 20, 22, 24, 30, 32, 64, 96]


def chunk_plus_one(dfm):
    return max(1, _PAIRS_PER_BLOCK // dfm.kprime**2) + 1


def mixed_residuals_by_n(dfm) -> list[float]:
    """The four residuals of ``check_mixed_quantization`` with one step per
    n: every m at once, the monomials of that n quantized as one stack."""
    kp = dfm.kprime
    low, high = ladder(dfm), ladder_dag(dfm)
    lows = np.stack([low.power(n).mat for n in range(kp)])
    highs = np.stack([high.power(m).mat for m in range(kp)])
    fac = factorials(dfm)
    res_int = res_prod = res_rev = res_comm = 0.0
    base = lows[1] @ highs[1] - highs[1] @ lows[1]
    inner = np.zeros_like(highs)
    for j in range(1, kp):
        inner[j] = highs[1] @ inner[j - 1] + base @ highs[j - 1]
    nested = np.zeros_like(highs)
    m, row = np.ogrid[:kp, :kp]
    for n in range(kp):
        pm, pr = np.nonzero((row + n < kp) & (row + n - m >= 0))
        closed = np.zeros_like(highs)
        closed[pm, pr, pr + n - pm] = fac[pr + n] / np.sqrt(fac[pr] * fac[pr + n - pm])
        pm, pl = np.nonzero(row + np.maximum(m, n) < kp)
        rev = np.zeros_like(highs)
        rev[pm, pl + pm, pl + n] = np.sqrt((fac[pl + n] / fac[pl]) * (fac[pl + pm] / fac[pl]))
        monomials = np.zeros_like(highs)
        monomials[m, n, m] = 1.0
        res_int = max(res_int, float(np.max(np.abs(closed - _quantize_stack(dfm, monomials, Ordering.ANTINORMAL)))))
        forward = lows[n] @ highs
        reverse = highs @ lows[n]
        res_prod = max(res_prod, float(np.max(np.abs(closed - forward))))
        res_rev = max(res_rev, float(np.max(np.abs(reverse - rev))))
        res_comm = max(res_comm, float(np.max(np.abs(forward - reverse - nested))))
        nested = lows[1] @ nested + inner @ lows[n]
    return [res_int, res_prod, res_rev, res_comm]


@pytest.mark.parametrize("k", KS)
def test_blocked_mixed_sweep_equals_sweep_by_n(k):
    dfm = deformation(k)
    assert [c.residual for c in check_mixed_quantization(dfm).checks] == mixed_residuals_by_n(dfm)


def test_blocked_mixed_sweep_memory_stays_within_a_few_stacks():
    # At k' = 32 the check holds a few (n, m, r) arrays of k'^3 entries:
    # the quantized stack of monomials and its diagonals, both products
    # and the two closed forms; it measures 7.3 stacks.  Quantizing all
    # k'^2 monomials as separate matrices would take k' = 32.
    dfm = deformation(64)
    stack_bytes = 16 * dfm.kprime**3
    check_mixed_quantization(dfm)  # fill the cached tables
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        check_mixed_quantization(dfm)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 10 * stack_bytes, peak / stack_bytes


def per_trial_stream(dfm, rng, size, matrices):
    """One trial at a time: ``random_poly``, then with ``matrices`` a matrix
    as its real part, then its imaginary part."""
    kp = dfm.kprime
    fs, mats = [], []
    for _ in range(size):
        fs.append(random_poly(dfm, rng, modes=1).coeffs)
        if matrices:
            mats.append(rng.uniform(-1.0, 1.0, (kp, kp)) + 1j * rng.uniform(-1.0, 1.0, (kp, kp)))
    return (np.stack(fs), np.stack(mats)) if matrices else np.stack(fs)


@pytest.mark.parametrize("matrices", [False, True])
@pytest.mark.parametrize("size", [1, 5, None])
@pytest.mark.parametrize("k", [4, 16, 64])
def test_chunk_draw_equals_per_trial_stream(k, size, matrices):
    dfm = deformation(k)
    size = size or chunk_plus_one(dfm)
    got_rng, want_rng = np.random.default_rng(k), np.random.default_rng(k)
    got = _draw_trials(dfm, got_rng, size, matrices)
    want = per_trial_stream(dfm, want_rng, size, matrices)
    for g, w in zip(got, want) if matrices else [(got, want)]:
        assert g.shape == (size, dfm.kprime, dfm.kprime)
        assert np.array_equal(g, w)
    assert got_rng.random() == want_rng.random()  # the next chunk starts where the trials left off


def hermiticity_by_chunks(dfm, trials, seed):
    """``hermiticity_residual`` with one ``random_poly`` and one
    ``ParaPoly.conjugate`` per trial."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for size in _trial_chunks(dfm, trials):
        fs = [random_poly(dfm, rng, modes=1) for _ in range(size)]
        stack = np.stack([f.coeffs for f in fs] + [f.conjugate().coeffs for f in fs])
        mats = _quantize_stack(dfm, stack, Ordering.ANTINORMAL)
        worst = max(worst, float(np.max(np.abs(mats[size:] - mats[:size].conj().transpose(0, 2, 1)))))
    return worst


def round_trips_by_chunks(dfm, trials, seed):
    """``round_trip_residuals`` with the inputs drawn one trial at a time."""
    rng = np.random.default_rng(seed)
    upper = _upper_gather(dfm)
    worst_poly = worst_mat = 0.0
    for size in _trial_chunks(dfm, trials):
        f, a = per_trial_stream(dfm, rng, size, matrices=True)
        back = gather_contract(_quantize_stack(dfm, f, Ordering.ANTINORMAL), *upper)
        again = _quantize_stack(dfm, gather_contract(a, *upper), Ordering.ANTINORMAL)
        worst_poly = max(worst_poly, float(np.max(np.abs(back - f))))
        worst_mat = max(worst_mat, float(np.max(np.abs(again - a))))
    return worst_poly, worst_mat


@pytest.mark.parametrize("trials", [1, 20, None])
@pytest.mark.parametrize("k", [4, 16, 32])
def test_sampled_checks_equal_per_trial_draws(k, trials):
    dfm = deformation(k)
    trials = trials or chunk_plus_one(dfm)
    assert hermiticity_residual(dfm, trials, 7) == hermiticity_by_chunks(dfm, trials, 7)
    assert round_trip_residuals(dfm, trials, 7) == round_trips_by_chunks(dfm, trials, 7)


@pytest.mark.parametrize("k", [4, 6, 8, 16, 32])
def test_ordering_products_equal_one_quantize_per_generator(k):
    dfm = deformation(k)
    theta, bth = ParaPoly.generator(dfm, 1, 1), ParaPoly.generator(dfm, 1, 1, barred=True)
    for ordering in Ordering:
        stacked = _quantize_stack(dfm, np.stack([theta.coeffs, bth.coeffs]), ordering)
        for got, f in zip(stacked, (theta, bth)):
            assert np.array_equal(got, quantize(f, ordering).mat)
    assert all(c.passed for c in check_ordering_products(dfm).checks)
