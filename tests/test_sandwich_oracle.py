"""``quantize`` against the literal coherent-state sandwich of the paper.

``sandwich_quantize`` builds every matrix entry the long way: entry (n, m)
integrates ket_n * f * weight * bra_m, merged by the phase-free
prescription for the antinormal ordering and by the algebra product, with
its q-phases, for the left and right orderings.  It is the reference that
the table-driven ``quantize`` must reproduce.  The left and right orderings
reach the algebra product through ``multiply``, which
``test_product_oracle`` checks against the word-sorting reducer.
"""

import itertools

import numpy as np
import pytest

from pgquant import (
    FockOperator,
    Ordering,
    ParaPoly,
    berezin_full_integral,
    berezin_prescription_product,
    deformation,
    multiply,
    multiply_prescription,
    quantize,
    random_poly,
    resolution_of_unity,
    weight,
)

from coherent_pairing import coherent_bra, coherent_ket
from gather_oracle import mode_table

GATE = 1e-12


def sandwich_quantize(f: ParaPoly, ordering: Ordering) -> FockOperator:
    dfm, d = f.dfm, f.d
    ket = coherent_ket(dfm, d)
    bra = coherent_bra(dfm, d)
    w = weight(dfm, d)
    dim = dfm.kprime**d
    out = np.zeros((dim, dim), dtype=complex)
    if ordering is Ordering.ANTINORMAL:
        rows = [multiply_prescription(comp, f) for comp in ket.components]
        cols = [multiply_prescription(w, comp) for comp in bra.components]
        for n, row in enumerate(rows):
            for m, col in enumerate(cols):
                out[n, m] = berezin_prescription_product(row, col)
    else:
        for n, kcomp in enumerate(ket.components):
            if ordering is Ordering.LEFT:
                row = multiply(multiply(kcomp, f), w)
            else:
                row = multiply(multiply(kcomp, w), f)
            for m, bcomp in enumerate(bra.components):
                out[n, m] = berezin_full_integral(multiply(row, bcomp))
    return FockOperator(dfm, d, out)


@pytest.mark.parametrize(
    "k, modes",
    [(k, 1) for k in range(4, 18, 2)] + [(6, 2), (8, 2), (6, 3)],
)
def test_quantize_matches_sandwich_on_random_symbols(k, modes):
    dfm = deformation(k)
    f = random_poly(dfm, np.random.default_rng([k, modes]), modes=modes)
    for ordering in Ordering:
        got = quantize(f, ordering)
        assert got.residual(sandwich_quantize(f, ordering)) <= GATE, ordering


def test_quantize_matches_sandwich_on_every_monomial_k8():
    dfm = deformation(8)
    for s, t in itertools.product(range(dfm.kprime), repeat=2):
        mono = ParaPoly.monomial(dfm, 1, (s,), (t,), 0.5 - 2j)
        for ordering in Ordering:
            got = quantize(mono, ordering)
            assert got.residual(sandwich_quantize(mono, ordering)) <= GATE, (s, t, ordering)


@pytest.mark.parametrize("k, modes", [(4, 1), (8, 1), (16, 1), (6, 2), (8, 2), (4, 3), (6, 3)])
def test_resolution_of_unity_matches_literal_integral(k, modes):
    # every entry the long way: the prescription product of the weight with
    # bra component m, integrated against ket component n
    dfm = deformation(k)
    cols = [multiply_prescription(weight(dfm, modes), comp) for comp in coherent_bra(dfm, modes).components]
    literal = np.array([[berezin_prescription_product(row, col) for col in cols]
                        for row in coherent_ket(dfm, modes).components])
    assert np.max(np.abs(resolution_of_unity(dfm, modes).mat - literal)) <= GATE


def test_quantize_of_zero_symbol():
    dfm = deformation(6)
    for ordering in Ordering:
        assert quantize(ParaPoly.zero(dfm, 2), ordering).max_abs() == 0.0


@pytest.mark.parametrize("k", [4, 8, 12, 16, 24, 32])
def test_mode_table_matches_sandwich_entries(k):
    # T[s, t, n] is entry (n, n + s - t) of the sandwich of theta^s bartheta^t,
    # and zero where that column leaves the matrix
    dfm = deformation(k)
    kp = dfm.kprime
    ket = coherent_ket(dfm, 1).components
    cols = [multiply_prescription(weight(dfm, 1), comp) for comp in coherent_bra(dfm, 1).components]
    table = mode_table(dfm)
    for s, t, n in itertools.product(range(kp), repeat=3):
        m = n + s - t
        if not 0 <= m < kp:
            assert table[s, t, n] == 0.0
            continue
        row = multiply_prescription(ket[n], ParaPoly.monomial(dfm, 1, (s,), (t,)))
        entry = berezin_prescription_product(row, cols[m])
        assert abs(table[s, t, n] - entry) <= 1e-14 * max(abs(entry), 1.0), (s, t, n)


@pytest.mark.parametrize("k, modes, terms", [(6, 2, 9), (4, 3, 8), (8, 2, 16), (8, 2, 30)])
def test_sparse_multimode_symbol_in_several_blocks_matches_sandwich(monkeypatch, k, modes, terms):
    # three terms per placement block, so the amplitudes and phases of later
    # blocks add onto entries of earlier ones; antinormal places at most dim
    # terms and gathers a denser symbol
    from pgquant import quantization

    dfm = deformation(k)
    kp, dim = dfm.kprime, dfm.kprime**modes
    monkeypatch.setattr(quantization, "_PAIRS_PER_BLOCK", 3 * dim)
    rng = np.random.default_rng([k, modes, terms])
    coeffs = np.zeros(kp ** (2 * modes), dtype=complex)
    coeffs[rng.choice(coeffs.size, terms, replace=False)] = rng.uniform(-1, 1, (terms, 2)).view(complex)[:, 0]
    f = ParaPoly(dfm, modes, coeffs.reshape((kp,) * (2 * modes)))
    for ordering in Ordering:
        got = quantize(f, ordering)
        assert got.residual(sandwich_quantize(f, ordering)) <= GATE, ordering
