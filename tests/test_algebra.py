"""Algebra layer: canonical ordering, conjugation, the weighted integral
calculus and the sesquilinear form."""

import cmath
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgquant import (
    ParaPoly,
    berezin_full_integral,
    berezin_prescription_product,
    canonicalize_q,
    deformation,
    inner_product,
    multiply,
    multiply_prescription,
    poly_from_dict,
    poly_to_dict,
    pseudo_norm_sq,
    qfactorial,
    random_poly,
    weight,
)
from pgquant.algebra import FactorWord


def gens(dfm, d=1):
    th = [ParaPoly.generator(dfm, d, i + 1) for i in range(d)]
    bth = [ParaPoly.generator(dfm, d, i + 1, barred=True) for i in range(d)]
    return th, bth


# ---------------------------------------------------------------- ordering


def test_same_mode_reorder_phase(dfm):
    (th,), (bth,) = gens(dfm)
    q_k = dfm.q_k
    lhs = th * bth
    rhs = bth * th
    assert lhs.coefficient((1,), (1,)) == pytest.approx(1.0)
    # theta bartheta = q_k bartheta theta, so the reversed word picks up conj(q_k)
    assert rhs.coefficient((1,), (1,)) == pytest.approx(q_k.conjugate(), abs=1e-12)


def test_same_mode_reorder_frozen_k8():
    dfm = deformation(8)
    (th,), (bth,) = gens(dfm)
    c = (bth * th).coefficient((1,), (1,))
    assert c == pytest.approx(-1j, abs=1e-12)  # conj(q_8^2) = exp(-i pi/2)


def test_cross_mode_phases(dfm):
    th, bth = gens(dfm, d=2)
    q_k = dfm.q_k
    # theta_1 theta_2 = q_k theta_2 theta_1
    assert (th[1] * th[0]).coefficient((1, 1), (0, 0)) == pytest.approx(
        q_k.conjugate(), abs=1e-12
    )
    # theta_1 bartheta_2 is canonical; bartheta_2 theta_1 = q_k theta_1 bartheta_2
    assert (th[0] * bth[1]).coefficient((1, 0), (0, 1)) == pytest.approx(1.0)
    assert (bth[1] * th[0]).coefficient((1, 0), (0, 1)) == pytest.approx(q_k, abs=1e-12)
    # bartheta_1 theta_2 = conj(q_k) theta_2 bartheta_1
    assert (bth[0] * th[1]).coefficient((0, 1), (1, 0)) == pytest.approx(
        q_k.conjugate(), abs=1e-12
    )
    # barred pair: bartheta_2 bartheta_1 = conj(q_k) bartheta_1 bartheta_2
    assert (bth[1] * bth[0]).coefficient((0, 0), (1, 1)) == pytest.approx(
        q_k.conjugate(), abs=1e-12
    )


def test_nilpotency(dfm):
    (th,), (bth,) = gens(dfm)
    p = ParaPoly.unit(dfm)
    for _ in range(dfm.kprime):
        p = p * th
    assert p.is_zero()
    p = ParaPoly.unit(dfm)
    for _ in range(dfm.kprime):
        p = p * bth
    assert p.is_zero()


def test_canonicalize_prescription_drops_phases():
    dfm = deformation(8)
    word = FactorWord(((1, True), (1, False)), 1.0)
    with_phase = canonicalize_q(word, dfm)
    assert with_phase.coefficient((1,), (1,)) == pytest.approx(-1j, abs=1e-12)


def test_multiply_prescription_is_power_counting():
    dfm = deformation(6)
    (th,), (bth,) = gens(dfm)
    a = bth * th  # carries conj(q_k)
    b = multiply_prescription(bth, th)
    assert b.coefficient((1,), (1,)) == pytest.approx(a.coefficient((1,), (1,)) * dfm.q_k)
    # overflowing powers vanish in both products (kprime = 3 here)
    assert multiply_prescription(th * th, th).is_zero()
    assert (th * th * th).is_zero()


@settings(max_examples=60, deadline=None)
@given(
    k_half=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_multiply_associative(k_half, seed):
    dfm = deformation(2 * k_half)
    rng = np.random.default_rng(seed)
    p1 = random_poly(dfm, rng)
    p2 = random_poly(dfm, rng)
    p3 = random_poly(dfm, rng)
    assert multiply(multiply(p1, p2), p3).distance(multiply(p1, multiply(p2, p3))) < 1e-10


def test_multiply_associative_two_modes():
    dfm = deformation(6)
    rng = np.random.default_rng(7)
    for _ in range(20):
        p1 = random_poly(dfm, rng, modes=2)
        p2 = random_poly(dfm, rng, modes=2)
        p3 = random_poly(dfm, rng, modes=2)
        assert multiply(multiply(p1, p2), p3).distance(multiply(p1, multiply(p2, p3))) < 1e-10


def test_unit_is_neutral(dfm):
    rng = np.random.default_rng(3)
    p = random_poly(dfm, rng)
    one = ParaPoly.unit(dfm)
    assert (one * p).distance(p) == 0.0
    assert (p * one).distance(p) == 0.0


# ---------------------------------------------------------------- conjugation


def test_conjugate_basics(dfm):
    (th,), (bth,) = gens(dfm)
    assert th.conjugate().distance(bth) == 0.0
    assert (2j * th).conjugate().distance(-2j * bth) == 0.0  # antilinear


def test_conjugate_monomials_swap_exponents_without_phase(dfm):
    # on canonical monomials theta^s bartheta^t -> theta^t bartheta^s exactly
    kp = dfm.kprime
    for s in range(kp):
        for t in range(kp):
            m = ParaPoly.monomial(dfm, 1, (s,), (t,))
            c = m.conjugate()
            assert list(c.terms) == [((t,), (s,))]
            assert c.coefficient((t,), (s,)) == pytest.approx(1.0, abs=1e-12)


def test_conjugate_is_involution(dfm):
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = random_poly(dfm, rng)
        assert p.conjugate().conjugate().distance(p) < 1e-12


def test_conjugate_antihomomorphism_k4_only():
    # conj(p1 p2) = conj(p2) conj(p1) requires a real commutation phase,
    # which happens only at k = 4
    dfm = deformation(4)
    rng = np.random.default_rng(5)
    for _ in range(20):
        p1 = random_poly(dfm, rng)
        p2 = random_poly(dfm, rng)
        assert (p1 * p2).conjugate().distance(p2.conjugate() * p1.conjugate()) < 1e-12

    dfm8 = deformation(8)
    (th,), (bth,) = gens(dfm8)
    lhs = ((th * bth) * th).conjugate()
    rhs = th.conjugate() * (th * bth).conjugate()
    assert lhs.distance(rhs) > 0.5


# ---------------------------------------------------------------- weight + integral


def test_weight_frozen_forms():
    w4 = weight(deformation(4))
    assert w4.terms == {((0,), (0,)): 1.0 + 0j, ((1,), (1,)): 1.0 + 0j}

    w6 = weight(deformation(6))
    assert set(w6.terms) == {((0,), (0,)), ((1,), (1,)), ((2,), (2,))}
    assert all(c == pytest.approx(1.0) for c in w6.terms.values())

    w8 = weight(deformation(8))
    r2 = math.sqrt(2.0)
    assert w8.coefficient((3,), (3,)) == pytest.approx(1.0)
    assert w8.coefficient((2,), (2,)) == pytest.approx(1.0)
    assert w8.coefficient((1,), (1,)) == pytest.approx(r2)
    assert w8.coefficient((0,), (0,)) == pytest.approx(r2)


def test_weight_two_modes_product_form():
    dfm = deformation(4)
    w = weight(dfm, modes=2)
    assert w.terms == {
        ((0, 0), (0, 0)): 1.0 + 0j,
        ((1, 0), (1, 0)): 1.0 + 0j,
        ((0, 1), (0, 1)): 1.0 + 0j,
        ((1, 1), (1, 1)): 1.0 + 0j,
    }


def test_weight_general_coefficients(dfm):
    w = weight(dfm)
    kp = dfm.kprime
    for n in range(kp):
        expected = qfactorial(n, dfm)
        assert w.coefficient((kp - 1 - n,), (kp - 1 - n,)) == pytest.approx(expected)
    assert len(w.terms) == kp


def test_berezin_full_integral(dfm):
    kp = dfm.kprime
    top = ParaPoly.monomial(dfm, 1, (kp - 1,), (kp - 1,), 2.5)
    assert berezin_full_integral(top) == pytest.approx(2.5)
    assert berezin_full_integral(ParaPoly.unit(dfm)) == (0.0 if kp > 1 else 1.0)
    assert berezin_full_integral(weight(dfm)) == pytest.approx(1.0)


def test_berezin_prescription_product_matches_slow_route(dfm):
    rng = np.random.default_rng(17)
    for _ in range(25):
        p1 = random_poly(dfm, rng)
        p2 = random_poly(dfm, rng)
        fast = berezin_prescription_product(p1, p2)
        slow = berezin_full_integral(multiply_prescription(p1, p2))
        assert fast == pytest.approx(slow, abs=1e-12)


def test_berezin_prescription_product_two_modes():
    dfm = deformation(6)
    rng = np.random.default_rng(23)
    for _ in range(10):
        p1 = random_poly(dfm, rng, modes=2)
        p2 = random_poly(dfm, rng, modes=2)
        fast = berezin_prescription_product(p1, p2)
        slow = berezin_full_integral(multiply_prescription(p1, p2))
        assert fast == pytest.approx(slow, abs=1e-12)


# ---------------------------------------------------------------- inner product


def test_orthonormal_basis(dfm):
    kp = dfm.kprime
    basis = [
        ParaPoly.monomial(dfm, 1, (0,), (n,), 1.0 / math.sqrt(qfactorial(n, dfm)))
        for n in range(kp)
    ]
    for n in range(kp):
        for m in range(kp):
            got = inner_product(basis[n], basis[m])
            want = 1.0 if n == m else 0.0
            assert got == pytest.approx(want, abs=1e-10), (n, m)


def test_inner_product_diagonal_in_exponents():
    dfm = deformation(8)
    kp = dfm.kprime
    for s in range(kp):
        for t in range(kp):
            v = ParaPoly.monomial(dfm, 1, (0,), (s,))
            w_ = ParaPoly.monomial(dfm, 1, (0,), (t,))
            ip = inner_product(v, w_)
            if s != t:
                assert abs(ip) < 1e-12


def test_inner_product_rejects_multimode():
    dfm = deformation(4)
    p = ParaPoly.unit(dfm, 2)
    with pytest.raises(ValueError):
        inner_product(p, p)


def test_pseudo_norm_nonnegative_on_split_sector(dfm):
    # constants plus pure powers of one generator or the other: the form is
    # positive semidefinite there
    rng = np.random.default_rng(29)
    for _ in range(30):
        v = random_poly(dfm, rng, full=False)
        n2 = pseudo_norm_sq(v)
        assert abs(n2.imag) < 1e-10
        assert n2.real >= -1e-10


def test_pseudo_norm_hermitian_symmetry(dfm):
    rng = np.random.default_rng(31)
    for _ in range(20):
        v = random_poly(dfm, rng)
        w_ = random_poly(dfm, rng)
        a = inner_product(v, w_)
        b = inner_product(w_, v)
        assert a == pytest.approx(b.conjugate() if abs(b) else 0j, abs=1e-10)


# ---------------------------------------------------------------- serialization


def test_poly_json_round_trip(dfm):
    rng = np.random.default_rng(37)
    p = random_poly(dfm, rng)
    q = poly_from_dict(poly_to_dict(p))
    assert q.distance(p) == 0.0
    assert q.dfm == p.dfm and q.d == p.d


def test_poly_json_round_trip_two_modes():
    dfm = deformation(6)
    rng = np.random.default_rng(41)
    p = random_poly(dfm, rng, modes=2)
    f, g = random_poly(dfm, rng, modes=2), random_poly(dfm, rng, modes=2)
    # a product's keys are built from arrays and must still serialize as ints
    for poly in (p, f * g):
        assert poly_from_dict(json.loads(json.dumps(poly_to_dict(poly)))).distance(poly) == 0.0


def test_poly_from_dict_validation():
    with pytest.raises((ValueError, KeyError)):
        poly_from_dict({"k": 5, "d": 1, "terms": []})
    with pytest.raises((ValueError, KeyError)):
        poly_from_dict({"k": 4, "terms": []})
    with pytest.raises(ValueError):
        poly_from_dict(
            {"k": 4, "d": 1, "terms": [{"theta": [9], "bar": [0], "re": 1.0, "im": 0.0}]}
        )


@pytest.mark.parametrize("key, value, name", [("k", 6.9, "k"), ("d", 1.6, "d"), ("k", True, "k"), ("d", "1", "d"),
                                              ("theta", 1.6, "theta exponent"), ("bar", 1.0, "bar exponent"),
                                              ("theta", False, "theta exponent")])
def test_poly_from_dict_refuses_a_value_that_is_not_an_integer(key, value, name):
    # a float is not truncated: 1.6 is refused, not read as 1
    obj = poly_to_dict(ParaPoly.generator(deformation(6), 1, 1))
    if key in ("theta", "bar"):
        obj["terms"][0][key] = [value]
    else:
        obj[key] = value
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        poly_from_dict(obj)


# ---------------------------------------------------------------- guards


def test_incompatible_operands_raise():
    p4 = ParaPoly.unit(deformation(4))
    p6 = ParaPoly.unit(deformation(6))
    with pytest.raises(ValueError, match="deformation mismatch"):
        _ = p4 + p6
    with pytest.raises(ValueError, match="mode count mismatch"):
        _ = p4 * ParaPoly.unit(deformation(4), 2)


def test_monomial_exponent_guard():
    dfm = deformation(4)
    with pytest.raises(ValueError):
        ParaPoly.monomial(dfm, 1, (2,), (0,))


def test_constant_phase_algebra():
    dfm = deformation(12)
    (th,), (bth,) = gens(dfm)
    # (theta bartheta)(theta bartheta) = conj(q_k) theta^2 bartheta^2
    p = (th * bth) * (th * bth)
    assert p.coefficient((2,), (2,)) == pytest.approx(dfm.q_k.conjugate(), abs=1e-12)
    # frozen: conj(q_12^2) = exp(-i pi/3)
    assert p.coefficient((2,), (2,)) == pytest.approx(cmath.exp(-1j * math.pi / 3), abs=1e-12)


def test_small_coefficients_are_kept_and_zeros_dropped():
    dfm = deformation(8)
    p = ParaPoly(dfm, 1, {((1,), (0,)): 1e-30, ((2,), (0,)): 0.0})
    assert p.terms == {((1,), (0,)): 1e-30 + 0j}
    assert (p - p).terms == {}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1.0, float("-inf"))])
def test_non_finite_coefficient_raises(bad):
    with pytest.raises(ValueError, match="non-finite"):
        ParaPoly.monomial(deformation(6), 1, (1,), (0,), bad)
