"""Quantization layer: coherent kernels, the three operator orderings,
ladder closed forms and the relation checkers."""

import cmath
import math

import numpy as np
import pytest

from pgquant import (
    FockOperator,
    Ordering,
    ParaPoly,
    VerificationReport,
    basis_tuples,
    check_kfermionic,
    check_mixed_quantization,
    check_ordering_products,
    deformation,
    hermiticity_residual,
    ladder,
    ladder_dag,
    number_operator,
    operator_from_dict,
    operator_to_dict,
    q_power_N,
    qnumber,
    quantize,
    random_poly,
    rescale_B,
    resolution_of_unity,
    verify_relations,
)

from coherent_pairing import coherent_bra, coherent_ket
from fock_closed_forms import basis_index, quantize_mixed_monomial

ROOT4_2 = 2.0 ** 0.25


def test_basis_enumeration():
    dfm = deformation(4)
    assert basis_tuples(dfm, 1) == [(0,), (1,)]
    assert basis_tuples(dfm, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for i, t in enumerate(basis_tuples(dfm, 2)):
        assert basis_index(t, dfm) == i
    assert basis_tuples(deformation(8), 1) == [(0,), (1,), (2,), (3,)]


def test_coherent_ket_components_k4():
    dfm = deformation(4)
    ket = coherent_ket(dfm)
    assert ket.components[0].terms == {((0,), (0,)): 1.0 + 0j}
    assert ket.components[1].terms == {((1,), (0,)): 1.0 + 0j}


def test_coherent_ket_components_k8():
    dfm = deformation(8)
    ket = coherent_ket(dfm)
    # component n is theta^n / sqrt([n]!)
    assert ket.components[2].coefficient((2,), (0,)) == pytest.approx(1.0 / ROOT4_2)
    assert ket.components[3].coefficient((3,), (0,)) == pytest.approx(1.0 / ROOT4_2)


def test_coherent_pair_two_modes_k4():
    dfm = deformation(4)
    ket = coherent_ket(dfm, 2)
    bra = coherent_bra(dfm, 2)
    want_ket = [((0, 0), (0, 0)), ((0, 1), (0, 0)), ((1, 0), (0, 0)), ((1, 1), (0, 0))]
    want_bra = [((0, 0), (0, 0)), ((0, 0), (0, 1)), ((0, 0), (1, 0)), ((0, 0), (1, 1))]
    for comp, key in zip(ket.components, want_ket):
        assert comp.terms == {key: 1.0 + 0j}
    for comp, key in zip(bra.components, want_bra):
        # bra components carry no reordering phase by construction
        assert comp.terms == {key: 1.0 + 0j}


@pytest.mark.parametrize("modes", [1, 2])
def test_resolution_of_unity(dfm, modes):
    ru = resolution_of_unity(dfm, modes)
    assert ru.residual(FockOperator.identity(dfm, modes)) < 1e-10


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0])
def test_report_refuses_bad_tolerance(tolerance):
    with pytest.raises(ValueError, match="tolerance"):
        VerificationReport(tolerance)


def test_resolution_of_unity_three_modes():
    dfm = deformation(4)
    ru = resolution_of_unity(dfm, 3)
    assert ru.residual(FockOperator.identity(dfm, 3)) < 1e-10


# ---------------------------------------------------------------- quantize


def test_quantize_theta_k4():
    dfm = deformation(4)
    th = ParaPoly.generator(dfm, 1, 1)
    assert quantize(th).residual(FockOperator(dfm, 1, np.array([[0, 1], [0, 0]], complex))) < 1e-12


def test_quantize_theta_bartheta_k4():
    dfm = deformation(4)
    th = ParaPoly.generator(dfm, 1, 1)
    bth = ParaPoly.generator(dfm, 1, 1, barred=True)
    got = quantize(th * bth)
    assert got.residual(FockOperator(dfm, 1, np.diag([1.0, 0.0]).astype(complex))) < 1e-12


def test_quantize_theta_k8_superdiagonal():
    dfm = deformation(8)
    th = ParaPoly.generator(dfm, 1, 1)
    m = quantize(th).mat
    expect = np.zeros((4, 4), complex)
    expect[0, 1] = 1.0
    expect[1, 2] = ROOT4_2   # sqrt([2]) = 2^(1/4)
    expect[2, 3] = 1.0
    assert np.max(np.abs(m - expect)) < 1e-12


def test_quantize_linear(dfm):
    rng = np.random.default_rng(2)
    f = random_poly(dfm, rng)
    g = random_poly(dfm, rng)
    lhs = quantize(f + 2j * g)
    rhs = quantize(f) + 2j * quantize(g)
    assert lhs.residual(rhs) < 1e-12


def test_quantize_of_unit_is_identity(dfm):
    assert quantize(ParaPoly.unit(dfm)).residual(FockOperator.identity(dfm, 1)) < 1e-10


def test_ladder_matches_quantized_generator(dfm):
    th = ParaPoly.generator(dfm, 1, 1)
    bth = ParaPoly.generator(dfm, 1, 1, barred=True)
    assert ladder(dfm).residual(quantize(th)) < 1e-12
    assert ladder_dag(dfm).residual(quantize(bth)) < 1e-12
    assert ladder_dag(dfm).residual(ladder(dfm).dagger()) < 1e-12


def test_ordered_quantizations_k8_frozen():
    dfm = deformation(8)
    th = ParaPoly.generator(dfm, 1, 1)
    bth = ParaPoly.generator(dfm, 1, 1, barred=True)

    right = quantize(th, Ordering.RIGHT).mat
    # superdiagonal sqrt([n+1]) * q_k^(n+2) with q_k = i
    assert right[0, 1] == pytest.approx(-1.0, abs=1e-12)
    assert right[1, 2] == pytest.approx(-1j * ROOT4_2, abs=1e-12)
    assert right[2, 3] == pytest.approx(1.0, abs=1e-12)

    left = quantize(bth, Ordering.LEFT).mat
    assert left[1, 0] == pytest.approx(-1.0, abs=1e-12)
    assert left[2, 1] == pytest.approx(-1j * ROOT4_2, abs=1e-12)
    assert left[3, 2] == pytest.approx(1.0, abs=1e-12)

    # the unphased pair coincides with the antinormal ladder
    assert quantize(th, Ordering.LEFT).residual(ladder(dfm)) < 1e-12
    assert quantize(bth, Ordering.RIGHT).residual(ladder_dag(dfm)) < 1e-12


def test_ordering_accepts_strings():
    dfm = deformation(6)
    th = ParaPoly.generator(dfm, 1, 1)
    assert quantize(th, "right").residual(quantize(th, Ordering.RIGHT)) == 0.0


def test_number_operator_and_phase_diagonals():
    dfm = deformation(4)
    assert np.allclose(number_operator(dfm).mat, np.diag([0.0, 1.0]))
    assert np.max(np.abs(q_power_N(dfm, sign=-1).mat - np.diag([1.0, -1j]))) < 1e-12
    assert np.max(np.abs(q_power_N(dfm, sign=1).mat - np.diag([1.0, 1j]))) < 1e-12


def loop_mode_operators(dfm, modes, mode):
    """ladder, ladder_dag, number_operator and q_power_N(+1, -1) built entry by
    entry over the basis tuples: the reference for the Kronecker embeddings."""
    dim = dfm.kprime**modes
    low, high, num, q_pos, q_neg = (np.zeros((dim, dim), dtype=complex) for _ in range(5))
    for ns in basis_tuples(dfm, modes):
        i, n = basis_index(ns, dfm), ns[mode - 1]
        num[i, i] = n
        for sign, diag in ((1, q_pos), (-1, q_neg)):
            diag[i, i] = cmath.exp(2j * math.pi * ((sign * n) % dfm.k) / dfm.k)
        if n + 1 < dfm.kprime:
            up = basis_index(ns[: mode - 1] + (n + 1,) + ns[mode:], dfm)
            low[i, up] = high[up, i] = math.sqrt(qnumber(n + 1, dfm))
    return low, high, num, q_pos, q_neg


@pytest.mark.parametrize("k, modes", [(4, 1), (8, 1), (16, 1), (6, 2), (8, 2), (4, 3), (6, 3)])
def test_mode_operators_match_basis_loop(k, modes):
    dfm = deformation(k)
    for mode in range(1, modes + 1):
        got = [
            ladder(dfm, modes, mode), ladder_dag(dfm, modes, mode), number_operator(dfm, modes, mode),
            q_power_N(dfm, modes, 1, mode), q_power_N(dfm, modes, -1, mode),
        ]
        for op, ref in zip(got, loop_mode_operators(dfm, modes, mode)):
            # equal bit for bit, signed zeros included
            parts, ref_parts = np.stack([op.mat.real, op.mat.imag]), np.stack([ref.real, ref.imag])
            assert np.array_equal(parts, ref_parts)
            assert np.array_equal(np.signbit(parts), np.signbit(ref_parts))


def test_deformed_commutator(dfm):
    # A Adag - q Adag A = q^(-N) with q the primitive k-th root (not the
    # commutation phase q_k = q^2); the conjugate phase flips the exponent
    low = ladder(dfm)
    high = ladder_dag(dfm)
    q = dfm.q
    lhs = low @ high - q * (high @ low)
    assert lhs.residual(q_power_N(dfm, sign=-1)) < 1e-10
    lhs2 = low @ high - q.conjugate() * (high @ low)
    assert lhs2.residual(q_power_N(dfm, sign=1)) < 1e-10


def test_power_homomorphism_and_nilpotency(dfm):
    kp = dfm.kprime
    th = ParaPoly.generator(dfm, 1, 1)
    low = ladder(dfm)
    p = ParaPoly.unit(dfm)
    for n in range(1, kp + 1):
        p = p * th
        assert quantize(p).residual(low.power(n)) < 1e-10
    assert low.power(kp).max_abs() == 0.0


def test_rescaled_pair_unit_commutator(dfm):
    B, Bp = rescale_B(dfm)
    q2 = dfm.q * dfm.q
    lhs = B @ Bp - q2 * (Bp @ B)
    assert lhs.residual(FockOperator.identity(dfm, 1)) < 1e-10


def test_rescaled_pair_is_fermionic_at_k4():
    dfm = deformation(4)
    B, Bp = rescale_B(dfm)
    assert np.max(np.abs(B.mat - np.array([[0, 1], [0, 0]]))) < 1e-12
    assert np.max(np.abs(Bp.mat - np.array([[0, 0], [1, 0]]))) < 1e-12
    anti = B @ Bp + Bp @ B
    assert anti.residual(FockOperator.identity(dfm, 1)) < 1e-12


# ---------------------------------------------------------------- checkers


def test_verify_relations_single_mode(dfm):
    rep = verify_relations(dfm)
    assert rep.all_pass, [c.name for c in rep.checks if not c.passed]


@pytest.mark.parametrize("k", [4, 6, 8])
def test_verify_relations_two_modes(k):
    rep = verify_relations(deformation(k), modes=2)
    assert rep.all_pass, [c.name for c in rep.checks if not c.passed]


def test_mixed_monomial_closed_form(dfm):
    kp = dfm.kprime
    low = ladder(dfm)
    high = ladder_dag(dfm)
    for n in range(kp):
        for m in range(kp):
            mono = ParaPoly.monomial(dfm, 1, (n,), (m,))
            closed = quantize_mixed_monomial(n, m, dfm)
            assert closed.residual(quantize(mono)) < 1e-10, (n, m)
            assert closed.residual(low.power(n) @ high.power(m)) < 1e-10, (n, m)


def test_reversed_product_differs_k8():
    # Adag A is not the quantization of theta bartheta: the antinormal image
    # is A Adag, and the two diagonals are shifted by one step
    dfm = deformation(8)
    low = ladder(dfm)
    high = ladder_dag(dfm)
    mono = ParaPoly.monomial(dfm, 1, (1,), (1,))
    assert (high @ low).residual(quantize(mono)) > 0.9


def test_ordering_product_table(dfm):
    rep = check_ordering_products(dfm)
    assert rep.all_pass, [c.name for c in rep.checks if not c.passed]


def test_mixed_quantization_suite(dfm):
    rep = check_mixed_quantization(dfm)
    assert rep.all_pass, [c.name for c in rep.checks if not c.passed]


def test_kfermionic_principal_branch(dfm):
    rep = check_kfermionic(dfm)
    for c in rep.checks:
        if "[negated branch]" in c.name:
            continue
        assert c.passed, (c.name, c.residual)
    negated = [c for c in rep.checks if "[negated branch]" in c.name]
    assert len(negated) == 2
    if dfm.k == 4:
        # both mixed products vanish identically, so both branches hold
        assert all(c.passed for c in negated)
    else:
        assert not any(c.passed for c in negated)


def test_hermiticity_of_conjugation(dfm):
    assert hermiticity_residual(dfm, trials=50, seed=9) < 1e-9


def test_conjugation_dagger_explicit():
    dfm = deformation(6)
    rng = np.random.default_rng(13)
    f = random_poly(dfm, rng)
    assert quantize(f.conjugate()).residual(quantize(f).dagger()) < 1e-10


# ---------------------------------------------------------------- multimode


def test_two_mode_cross_products_k6():
    dfm = deformation(6)
    th1 = ParaPoly.generator(dfm, 2, 1)
    th2 = ParaPoly.generator(dfm, 2, 2)
    a1 = ladder(dfm, 2, 1)
    a2 = ladder(dfm, 2, 2)
    assert quantize(th1 * th2).residual(a1 @ a2) < 1e-10
    assert quantize(th1 * th2).residual(a2 @ a1) < 1e-10
    assert (a1 @ a2 - a2 @ a1).max_abs() < 1e-12


def test_quantize_random_two_modes_linear():
    dfm = deformation(4)
    rng = np.random.default_rng(19)
    f = random_poly(dfm, rng, modes=2)
    g = random_poly(dfm, rng, modes=2)
    assert quantize(f + g).residual(quantize(f) + quantize(g)) < 1e-12


# ---------------------------------------------------------------- serialization


def test_operator_json_round_trip(dfm):
    rng = np.random.default_rng(21)
    kp = dfm.kprime
    mat = rng.uniform(-1, 1, (kp, kp)) + 1j * rng.uniform(-1, 1, (kp, kp))
    op = FockOperator(dfm, 1, mat)
    back = operator_from_dict(operator_to_dict(op))
    assert back.residual(op) == 0.0
    assert back.dfm == op.dfm and back.d == op.d


def test_operator_from_dict_validation():
    good = operator_to_dict(ladder(deformation(4)))
    bad = dict(good)
    bad["dim"] = 3
    with pytest.raises(ValueError):
        operator_from_dict(bad)
    ragged = dict(good)
    ragged["rows"] = [good["rows"][0]]
    with pytest.raises(ValueError):
        operator_from_dict(ragged)


@pytest.mark.parametrize("d, message", [(0, "d must be >= 1"), (-2, "d must be >= 1"),
                                        (10**6, "complex matrix exceeds")])
def test_operator_from_dict_refuses_a_mode_count_before_the_power(d, message):
    # check_size compares sizes in log2 before kprime**d is computed, so a huge d is
    # refused at once with the size message, not with Python's int-to-str digit limit
    obj = {"k": 6, "d": d, "dim": 1, "rows": [[{"re": 1.0, "im": 0.0}]]}
    with pytest.raises(ValueError, match=message):
        operator_from_dict(obj)


def test_fock_operator_shape_guard():
    dfm = deformation(4)
    with pytest.raises(ValueError):
        FockOperator(dfm, 1, np.zeros((3, 3), complex))


def test_qnumber_consistency_with_commutator(dfm):
    # [n+1] - q [n] = q^(-n) entry by entry, the scalar core of the
    # deformed commutation relation
    q = dfm.q
    for n in range(dfm.kprime):
        lhs = qnumber(n + 1, dfm) - q * qnumber(n, dfm)
        assert abs(lhs - q ** (-n)) < 1e-10


@pytest.mark.parametrize("trials", [0, -3])
def test_hermiticity_residual_rejects_nonpositive_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        hermiticity_residual(deformation(6), trials=trials)


@pytest.mark.parametrize("field, value", [("k", 8.9), ("d", 1.7), ("dim", 4.5), ("k", 8.0), ("d", True),
                                          ("dim", "4")])
def test_operator_from_dict_refuses_a_size_that_is_not_an_integer(field, value):
    obj = operator_to_dict(ladder(deformation(8)))
    obj[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
        operator_from_dict(obj)


def test_operator_from_dict_rejects_non_finite_entries():
    obj = operator_to_dict(ladder(deformation(4)))
    obj["rows"][0][0] = {"re": float("nan"), "im": 0.0}
    with pytest.raises(ValueError, match="finite"):
        operator_from_dict(obj)


@pytest.mark.parametrize("k, modes, terms", [(8, 1, 1), (8, 1, 4), (32, 1, 16), (6, 2, 9), (8, 2, 16), (4, 3, 8)])
def test_antinormal_term_placement_matches_gather(k, modes, terms):
    # a symbol with at most dim terms is placed term by term; a denser one
    # goes through the per-mode gather, and the two agree
    from pgquant.quantization import _quantize_gather, gather_contract

    dfm = deformation(k)
    kp, dim = dfm.kprime, dfm.kprime**modes
    rng = np.random.default_rng([k, modes, terms])
    coeffs = np.zeros(dim * dim, dtype=complex)
    coeffs[rng.choice(dim * dim, terms, replace=False)] = rng.uniform(-1, 1, (terms, 2)).view(complex)[:, 0]
    f = ParaPoly(dfm, modes, coeffs.reshape((kp,) * (2 * modes)))
    placed = quantize(f).mat
    gathered = gather_contract(f.coeffs[None], *_quantize_gather(dfm))[0].reshape(dim, dim)
    assert np.abs(placed - gathered).max() <= 1e-12 * np.abs(gathered).max()
    for part in (placed.real, placed.imag):
        assert not np.signbit(part[part == 0]).any()


def test_placement_tables_are_cached_and_read_only():
    from pgquant.quantization import _placement

    dfm = deformation(6)
    states, place = _placement(dfm, 3)
    assert _placement(dfm, 3)[0] is states
    assert states.tolist() == [list(ns) for ns in basis_tuples(dfm, 3)]
    assert place.tolist() == [9, 3, 1]
    for table in (states, place):
        with pytest.raises(ValueError):
            table[0] = 1


@pytest.mark.parametrize("k, modes, terms", [(32, 2, 200), (6, 5, 150)])
def test_antinormal_placement_across_blocks_on_shared_diagonals(k, modes, terms):
    # at most dim terms, so they are placed, but more than one block of them
    # (_PAIRS_PER_BLOCK // dim), all on one shift, so later blocks add to the
    # entries that earlier blocks filled
    from pgquant.algebra import _PAIRS_PER_BLOCK
    from pgquant.quantization import _quantize_gather, gather_contract

    dfm = deformation(k)
    kp, dim = dfm.kprime, dfm.kprime**modes
    assert _PAIRS_PER_BLOCK // dim < terms <= dim
    rng = np.random.default_rng([k, modes])
    shape = (kp - 1,) + (kp,) * (modes - 1)
    theta = np.stack(np.unravel_index(rng.choice(math.prod(shape), terms, replace=False), shape), axis=1)
    bar = theta.copy()
    bar[:, 0] = theta[:, 0] + 1  # shift -1 on the first mode, 0 on the others
    coeffs = np.zeros((kp,) * (2 * modes), dtype=complex)
    coeffs[tuple(np.hstack([theta, bar]).T)] = rng.uniform(-1, 1, (terms, 2)).view(complex)[:, 0]
    f = ParaPoly(dfm, modes, coeffs)
    placed = quantize(f).mat
    gathered = gather_contract(f.coeffs[None], *_quantize_gather(dfm))[0].reshape(dim, dim)
    assert np.abs(placed - gathered).max() <= 1e-12 * np.abs(gathered).max()
    for part in (placed.real, placed.imag):
        assert not np.signbit(part[part == 0]).any()
