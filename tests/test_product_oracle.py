"""``multiply``, ``conjugate`` and ``canonicalize_q`` against the literal
word-sorting reducer.

``reduce_word`` is the construction the relations state directly: it
insertion-sorts a factor word into canonical order, multiplying the scalar
by the commutation phase of every adjacent swap.  The package computes the
same products from one phase matrix W (``phase_matrix``); this reducer is
the reference it must reproduce.  ``test_sandwich_oracle`` reaches the
algebra product through ``multiply`` and so relies on this file.
"""

import numpy as np
import pytest

from pgquant import ParaPoly, canonicalize_q, deformation, multiply, random_poly
from pgquant.algebra import FactorWord, phase_matrix

GATE = 1e-12
CASES = [(k, 1) for k in range(4, 18, 2)] + [(6, 2), (8, 2), (6, 3)]


def _sort_key(factor: tuple[int, bool]) -> tuple[int, int]:
    mode, barred = factor
    return (1 if barred else 0, mode)


def _swap_phase(left: tuple[int, bool], right: tuple[int, bool], q_k: complex) -> complex:
    """Phase acquired rewriting the adjacent pair ``left right`` as ``right left``."""
    mode_l, bar_l = left
    mode_r, bar_r = right
    if mode_l == mode_r:
        # Sorting only ever moves an unbarred factor left past a barred one
        # of the same mode: bartheta theta -> conj(q_k) theta bartheta.
        return q_k.conjugate()
    a = -1 if bar_l else 1
    b = -1 if bar_r else 1
    exponent = a * b if mode_l < mode_r else -a * b
    return q_k if exponent == 1 else q_k.conjugate()


def _word_factors(theta: tuple[int, ...], bar: tuple[int, ...]) -> list[tuple[int, bool]]:
    out: list[tuple[int, bool]] = []
    for i, p in enumerate(theta):
        out.extend([(i + 1, False)] * p)
    for i, p in enumerate(bar):
        out.extend([(i + 1, True)] * p)
    return out


def reduce_word(word: FactorWord, dfm, d: int) -> ParaPoly:
    """Insertion-sort a factor word into canonical order, tracking q-phases;
    zero when any generator power reaches ``kprime``."""
    factors = list(word.factors)
    scalar = complex(word.scalar)
    q_k = dfm.q_k
    for i in range(1, len(factors)):
        j = i
        while j > 0 and _sort_key(factors[j]) < _sort_key(factors[j - 1]):
            scalar *= _swap_phase(factors[j - 1], factors[j], q_k)
            factors[j - 1], factors[j] = factors[j], factors[j - 1]
            j -= 1
    theta = [0] * d
    bar = [0] * d
    for mode, barred in factors:
        if not 1 <= mode <= d:
            raise ValueError(f"mode {mode} out of range 1..{d}")
        (bar if barred else theta)[mode - 1] += 1
    if any(p >= dfm.kprime for p in theta) or any(p >= dfm.kprime for p in bar):
        return ParaPoly.zero(dfm, d)
    return ParaPoly(dfm, d, {(tuple(theta), tuple(bar)): scalar})


def _accumulate(words, dfm, d: int) -> ParaPoly:
    acc: dict = {}
    for word in words:
        for key, v in reduce_word(word, dfm, d).terms.items():
            acc[key] = acc.get(key, 0.0) + v
    return ParaPoly(dfm, d, acc)


def sorted_multiply(p1: ParaPoly, p2: ParaPoly) -> ParaPoly:
    """Bilinear extension of ``reduce_word`` to concatenated words.  Pairs
    whose exponents add up to ``kprime`` or more are skipped: the reducer
    maps them to zero, and sorting them would only cost time."""
    kp = p1.dfm.kprime
    return _accumulate(
        (
            FactorWord(tuple(_word_factors(t1, b1) + _word_factors(t2, b2)), c1 * c2)
            for (t1, b1), c1 in p1.terms.items()
            for (t2, b2), c2 in p2.terms.items()
            if all(u + v < kp for u, v in zip(t1 + b1, t2 + b2))
        ),
        p1.dfm,
        p1.d,
    )


def sorted_conjugate(p: ParaPoly) -> ParaPoly:
    """Conjugate coefficients, bar-toggle and reverse each word, then sort."""
    return _accumulate(
        (
            FactorWord(tuple((mode, not barred) for mode, barred in reversed(_word_factors(theta, bar))), c.conjugate())
            for (theta, bar), c in p.terms.items()
        ),
        p.dfm,
        p.d,
    )


@pytest.mark.parametrize("modes", [1, 2, 3])
def test_phase_matrix_is_cached_read_only_and_strictly_lower(modes):
    w = phase_matrix(modes)
    assert phase_matrix(modes) is w
    assert not w.flags.writeable
    assert w.shape == (2 * modes, 2 * modes) and not np.triu(w).any()


@pytest.mark.parametrize("k, modes", CASES)
def test_multiply_matches_reducer(k, modes):
    dfm = deformation(k)
    rng = np.random.default_rng([k, modes])
    f, g = random_poly(dfm, rng, modes), random_poly(dfm, rng, modes)
    assert multiply(f, g).distance(sorted_multiply(f, g)) <= GATE


@pytest.mark.parametrize("k, modes", CASES)
def test_conjugate_matches_reducer(k, modes):
    f = random_poly(deformation(k), np.random.default_rng([k, modes, 1]), modes)
    assert f.conjugate().distance(sorted_conjugate(f)) <= GATE


@pytest.mark.parametrize("k, modes", CASES)
def test_canonicalize_q_matches_reducer(k, modes):
    """Shuffled words of random canonical monomials, which reduce to a
    nonzero term, and random words, which mostly overflow to zero."""
    dfm = deformation(k)
    rng = np.random.default_rng([k, modes, 2])
    gens = [(mode, barred) for barred in (False, True) for mode in range(1, modes + 1)]
    for _ in range(40):
        factors = _word_factors(*np.split(rng.integers(0, dfm.kprime, 2 * modes), 2))
        shuffled = [factors[i] for i in rng.permutation(len(factors))]
        drawn = [gens[i] for i in rng.integers(0, 2 * modes, rng.integers(0, 2 * modes * dfm.kprime))]
        for factors in (shuffled, drawn):
            word = FactorWord(tuple(factors), complex(*rng.uniform(-1, 1, 2)))
            assert canonicalize_q(word, dfm, modes).distance(reduce_word(word, dfm, modes)) <= GATE
