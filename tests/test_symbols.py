"""Symbol maps: coherent expectation (lower), antinormal preimage (upper),
the transported star product and the quaternion demo."""

import cmath
import math
import warnings

import numpy as np
import pytest

from pgquant import (
    FockOperator,
    ParaPoly,
    deformation,
    ladder,
    ladder_dag,
    lower_symbol,
    moyal_star,
    multiply,
    quantize,
    quaternion_demo,
    random_poly,
    round_trip_residuals,
    upper_symbol,
)

from coherent_pairing import coherent_overlap, lower_symbol_by_pairing


def random_operator(dfm, rng, modes=1):
    dim = dfm.kprime**modes
    mat = rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))
    return FockOperator(dfm, modes, mat)


# ---------------------------------------------------------------- lower symbol


def test_coherent_overlap_frozen_k4():
    dfm = deformation(4)
    ov = coherent_overlap(dfm)
    assert ov.coefficient((0,), (0,)) == pytest.approx(1.0)
    assert ov.coefficient((1,), (1,)) == pytest.approx(-1.0, abs=1e-12)
    assert len(ov.terms) == 2


def test_coherent_overlap_frozen_k6():
    dfm = deformation(6)
    ov = coherent_overlap(dfm)
    w = cmath.exp(-2j * math.pi / 3)
    assert ov.coefficient((0,), (0,)) == pytest.approx(1.0)
    assert ov.coefficient((1,), (1,)) == pytest.approx(w, abs=1e-12)
    # conj(q_k)^4 / [2]! = conj(q_k) since q_k^3 = 1 and [2] = 1 at k = 6
    assert ov.coefficient((2,), (2,)) == pytest.approx(w, abs=1e-12)


def test_lower_symbol_of_identity_is_overlap(dfm):
    sym = lower_symbol(FockOperator.identity(dfm, 1))
    assert sym.distance(coherent_overlap(dfm)) < 1e-12


def test_lower_symbol_ladder_identities(dfm):
    # expectation of the lowering operator multiplies the overlap by theta on
    # the right; the raising operator multiplies by bartheta on the left
    th = ParaPoly.generator(dfm, 1, 1)
    bth = ParaPoly.generator(dfm, 1, 1, barred=True)
    ov = coherent_overlap(dfm)
    assert lower_symbol(ladder(dfm)).distance(multiply(ov, th)) < 1e-12
    assert lower_symbol(ladder_dag(dfm)).distance(multiply(bth, ov)) < 1e-12


def test_lower_symbol_matches_pairing_route(dfm):
    rng = np.random.default_rng(43)
    for _ in range(10):
        op = random_operator(dfm, rng)
        direct = lower_symbol(op)
        paired = lower_symbol_by_pairing(op)
        assert direct.distance(paired) < 1e-10


def test_lower_symbol_is_linear():
    dfm = deformation(8)
    rng = np.random.default_rng(47)
    a = random_operator(dfm, rng)
    b = random_operator(dfm, rng)
    lhs = lower_symbol(a + (-1.5j) * b)
    rhs = lower_symbol(a) + (-1.5j) * lower_symbol(b)
    assert lhs.distance(rhs) < 1e-12


# ---------------------------------------------------------------- upper symbol


def test_upper_symbol_of_identity_is_one(dfm):
    sym = upper_symbol(FockOperator.identity(dfm, 1))
    assert sym.distance(ParaPoly.unit(dfm)) < 1e-10


def test_upper_symbol_k4_closed_form():
    dfm = deformation(4)
    rng = np.random.default_rng(53)
    for _ in range(20):
        op = random_operator(dfm, rng)
        a = op.mat
        expect = ParaPoly(
            dfm,
            1,
            {
                ((0,), (0,)): a[1, 1],
                ((1,), (0,)): a[0, 1],
                ((0,), (1,)): a[1, 0],
                ((1,), (1,)): a[0, 0] - a[1, 1],
            },
        )
        assert upper_symbol(op).distance(expect) < 1e-12


def test_upper_symbol_diag_projector_k4():
    dfm = deformation(4)
    op = FockOperator(dfm, 1, np.diag([1.0, 0.0]).astype(complex))
    sym = upper_symbol(op)
    assert sym.terms == {((1,), (1,)): 1.0 + 0j}


def test_round_trip_poly_to_matrix(dfm):
    rng = np.random.default_rng(59)
    for _ in range(25):
        f = random_poly(dfm, rng)
        assert upper_symbol(quantize(f)).distance(f) < 1e-9


def test_round_trip_matrix_to_poly(dfm):
    rng = np.random.default_rng(61)
    for _ in range(25):
        op = random_operator(dfm, rng)
        assert quantize(upper_symbol(op)).residual(op) < 1e-9


def test_round_trip_residual_helper():
    r_poly, r_mat = round_trip_residuals(deformation(10), trials=40, seed=3)
    assert r_poly < 1e-9 and r_mat < 1e-9


# ---------------------------------------------------------------- star product


def test_star_unit_is_neutral(dfm):
    rng = np.random.default_rng(67)
    f = random_poly(dfm, rng)
    one = ParaPoly.unit(dfm)
    assert moyal_star(one, f).distance(f) < 1e-9
    assert moyal_star(f, one).distance(f) < 1e-9


def test_star_powers_track_algebra_powers(dfm):
    # theta * theta (star) is theta^2, so star powers vanish at exactly the
    # algebra's nilpotency order
    th = ParaPoly.generator(dfm, 1, 1)
    bth = ParaPoly.generator(dfm, 1, 1, barred=True)
    assert moyal_star(th, th).distance(th * th) < 1e-10
    assert moyal_star(bth, bth).distance(bth * bth) < 1e-10
    p = th
    for _ in range(dfm.kprime - 1):
        p = moyal_star(p, th)
    assert p.is_zero(1e-10)
    p = bth
    for _ in range(dfm.kprime - 1):
        p = moyal_star(p, bth)
    assert p.is_zero(1e-10)


def test_star_nilpotency_k4():
    dfm = deformation(4)
    th = ParaPoly.generator(dfm, 1, 1)
    bth = ParaPoly.generator(dfm, 1, 1, barred=True)
    assert moyal_star(th, th).is_zero(1e-12)
    assert moyal_star(bth, bth).is_zero(1e-12)


def test_star_frozen_pairs_k4():
    dfm = deformation(4)
    th = ParaPoly.generator(dfm, 1, 1)
    bth = ParaPoly.generator(dfm, 1, 1, barred=True)
    assert moyal_star(th, bth).distance(th * bth) < 1e-12
    # reversed star is 1 - theta bartheta, not the algebra product
    expect = ParaPoly(dfm, 1, {((0,), (0,)): 1.0, ((1,), (1,)): -1.0})
    assert moyal_star(bth, th).distance(expect) < 1e-12
    assert moyal_star(bth, th).distance(bth * th) > 0.9


def test_star_matches_k4_coefficient_formula():
    # with f = f0 + f1 theta + f2 bartheta + f3 theta bartheta the operator
    # image is [[f0+f3, f1], [f2, f0]]; multiply two of those and read the
    # product coefficients back off
    dfm = deformation(4)
    rng = np.random.default_rng(71)

    def coeffs(p):
        return np.array(
            [
                p.coefficient((0,), (0,)),
                p.coefficient((1,), (0,)),
                p.coefficient((0,), (1,)),
                p.coefficient((1,), (1,)),
            ]
        )

    for _ in range(20):
        f = random_poly(dfm, rng)
        g = random_poly(dfm, rng)
        f0, f1, f2, f3 = coeffs(f)
        g0, g1, g2, g3 = coeffs(g)
        expect = np.array(
            [
                f2 * g1 + f0 * g0,
                (f0 + f3) * g1 + f1 * g0,
                f2 * (g0 + g3) + f0 * g2,
                (f0 + f3) * (g0 + g3) + f1 * g2 - f2 * g1 - f0 * g0,
            ]
        )
        got = coeffs(moyal_star(f, g))
        assert np.max(np.abs(got - expect)) < 1e-12


@pytest.mark.parametrize("k", [4, 6, 8])
def test_star_associative(k):
    dfm = deformation(k)
    rng = np.random.default_rng(73)
    for _ in range(10):
        f = random_poly(dfm, rng)
        g = random_poly(dfm, rng)
        h = random_poly(dfm, rng)
        lhs = moyal_star(moyal_star(f, g), h)
        rhs = moyal_star(f, moyal_star(g, h))
        assert lhs.distance(rhs) < 1e-9


def test_star_transports_operator_product(dfm):
    rng = np.random.default_rng(79)
    f = random_poly(dfm, rng)
    g = random_poly(dfm, rng)
    assert quantize(moyal_star(f, g)).residual(quantize(f) @ quantize(g)) < 1e-9


# ---------------------------------------------------------------- several modes

SEVERAL_MODES = pytest.mark.parametrize("k, d", [(4, 2), (6, 2), (8, 2), (16, 2), (4, 3), (6, 3), (4, 4)])


@SEVERAL_MODES
def test_upper_symbol_inverts_quantize_on_several_modes(k, d):
    dfm = deformation(k)
    rng = np.random.default_rng(101 + k + d)
    for _ in range(3):
        f = random_poly(dfm, rng, d)
        back = upper_symbol(quantize(f))
        assert back.d == d
        assert back.distance(f) <= 1e-13 * np.abs(f.coeffs).max()


@SEVERAL_MODES
def test_quantize_inverts_upper_symbol_on_several_modes(k, d):
    dfm = deformation(k)
    rng = np.random.default_rng(103 + k + d)
    for _ in range(3):
        op = random_operator(dfm, rng, d)  # entries of modulus at most sqrt(2)
        assert quantize(upper_symbol(op)).residual(op) <= 1e-12


@SEVERAL_MODES
def test_moyal_star_transports_the_product_on_several_modes(k, d):
    # dense operands are quantized by the Hankel GEMM, single generators
    # (at most dim terms between them) by term placement
    dfm = deformation(k)
    rng = np.random.default_rng(107 + k + d)
    th1 = ParaPoly.generator(dfm, d, 1)
    bth2 = ParaPoly.generator(dfm, d, 2, barred=True)
    pairs = [(random_poly(dfm, rng, d), random_poly(dfm, rng, d)), (th1, bth2), (bth2, th1), (th1 + ParaPoly.constant(dfm, d, 2.0), th1)]
    for f, g in pairs:
        star = moyal_star(f, g)
        assert star.d == d
        product = quantize(f) @ quantize(g)
        assert quantize(star).residual(product) <= 1e-12 * product.max_abs()


@SEVERAL_MODES
def test_lower_symbol_matches_pairing_on_several_modes(k, d):
    dfm = deformation(k)
    op = random_operator(dfm, np.random.default_rng(109 + k + d), d)
    direct = lower_symbol(op)
    assert direct.d == d
    assert direct.distance(lower_symbol_by_pairing(op)) <= 1e-13


def test_lower_symbol_keeps_every_coefficient_where_the_factorial_product_overflows():
    # at (k, d) = (144, 2) a product of the four factorials [nb_1]! [nb_2]! [n_1]! [n_2]!
    # passes the float64 maximum; divided one mode at a time, by sqrt([nb_i]! [n_i]!),
    # every nonzero entry of the ladder stays a finite nonzero coefficient
    op = ladder(deformation(144), 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        symbol = lower_symbol(op)
    assert np.count_nonzero(symbol.coeffs) == np.count_nonzero(op.mat) == 5112


# ---------------------------------------------------------------- quaternions


def test_quaternion_demo_passes():
    rep = quaternion_demo(trials=60, seed=17)
    assert rep.all_pass, [c.name for c in rep.checks if not c.passed]
    names = {c.name for c in rep.checks}
    assert "I*I = -1" in names
    assert "J*I = -K" in names
    assert "theta*theta = 0" in names


def test_quaternion_units_square_to_minus_one_directly():
    dfm = deformation(4)
    th = ParaPoly.generator(dfm, 1, 1)
    bth = ParaPoly.generator(dfm, 1, 1, barred=True)
    unit_i = 1j * (th + bth)
    unit_j = -1.0 * th + bth
    unit_k = ParaPoly(dfm, 1, {((0,), (0,)): -1j, ((1,), (1,)): 2j})
    minus_one = ParaPoly.constant(dfm, 1, -1.0)
    for u in (unit_i, unit_j, unit_k):
        assert moyal_star(u, u).distance(minus_one) < 1e-10
    assert moyal_star(unit_i, unit_j).distance(unit_k) < 1e-10
    assert moyal_star(unit_j, unit_i).distance(-unit_k) < 1e-10


def test_round_trip_matrix_k48():
    # Upper-symbol coefficients far below 1e-14 still multiply table entries
    # up to [23]! ~ 6e14 at k = 48, so none may be dropped.
    dfm = deformation(48)
    rng = np.random.default_rng(0)
    for _ in range(3):
        op = random_operator(dfm, rng)
        assert quantize(upper_symbol(op)).residual(op) < 1e-9


def test_upper_symbol_of_nan_matrix_raises():
    dfm = deformation(8)
    with pytest.raises(ValueError, match="non-finite"):
        upper_symbol(FockOperator(dfm, 1, np.full((4, 4), np.nan)))


@pytest.mark.parametrize("trials", [0, -3])
def test_sampled_helpers_reject_nonpositive_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        round_trip_residuals(deformation(6), trials=trials)
    with pytest.raises(ValueError, match="trials"):
        quaternion_demo(trials=trials)
