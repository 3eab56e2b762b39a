"""The dense coefficient tensor behind ``ParaPoly``.

A polynomial on d modes holds one read-only complex array of shape
(kprime,) * 2d.  These tests pin the contract around it: the ``terms``
view, the two ways to build a polynomial, the refusal of non-finite and
oversize input, the random stream of ``random_poly``, and the pair
product against term-pair references.
"""

import itertools
import os
import types

import numpy as np
import pytest

import pgquant.algebra as algebra
import pgquant.cli as cli
from pgquant import ParaPoly, deformation, multiply, multiply_prescription, random_poly
from test_product_oracle import sorted_multiply


def scalar_draw_poly(dfm, rng, modes, full):
    """``random_poly`` as a loop of scalar draws, real part then imaginary
    part, one monomial at a time."""
    kp = dfm.kprime
    terms = {}

    def coeff():
        return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))

    if full:
        for theta in itertools.product(range(kp), repeat=modes):
            for bar in itertools.product(range(kp), repeat=modes):
                terms[(theta, bar)] = coeff()
    else:
        zeros = (0,) * modes
        terms[(zeros, zeros)] = coeff()
        for i in range(modes):
            for n in range(1, kp):
                theta = tuple(n if j == i else 0 for j in range(modes))
                terms[(theta, zeros)] = coeff()
                terms[(zeros, theta)] = coeff()
    return terms


@pytest.mark.parametrize("k, modes", [(4, 1), (8, 1), (16, 1), (6, 2), (8, 2), (6, 3), (4, 4)])
@pytest.mark.parametrize("full", [True, False])
def test_random_poly_equals_scalar_draw_stream(k, modes, full):
    dfm = deformation(k)
    got = random_poly(dfm, np.random.default_rng([k, modes]), modes=modes, full=full)
    ref = scalar_draw_poly(dfm, np.random.default_rng([k, modes]), modes, full)
    assert dict(got.terms) == ref  # bit for bit


def test_terms_view_holds_python_ints_in_sorted_order():
    dfm = deformation(8)
    p = random_poly(dfm, np.random.default_rng(3), modes=2, full=False) * ParaPoly.generator(dfm, 2, 2)
    keys = list(p.terms)
    assert keys == sorted(keys)
    assert all(type(e) is int for theta, bar in keys for e in theta + bar)
    assert all(type(c) is complex for c in p.terms.values())
    assert len(p.terms) == np.count_nonzero(p.coeffs)


def test_terms_view_and_tensor_are_read_only():
    p = ParaPoly.generator(deformation(6), 2, 1)
    assert isinstance(p.terms, types.MappingProxyType)
    with pytest.raises(TypeError):
        p.terms[((0, 0), (0, 0))] = 1.0
    with pytest.raises(ValueError):
        p.coeffs[0, 0, 0, 0] = 1.0


@pytest.mark.parametrize("k, modes", [(4, 1), (8, 1), (6, 2), (4, 3)])
def test_dict_and_array_construction_agree(k, modes):
    dfm = deformation(k)
    coeffs = random_poly(dfm, np.random.default_rng(k), modes=modes).coeffs
    source = np.array(coeffs)
    from_array = ParaPoly(dfm, modes, source)
    from_dict = ParaPoly(dfm, modes, dict(from_array.terms))
    assert from_array == from_dict
    source[(0,) * (2 * modes)] += 1.0  # the constructor copied its input
    assert np.array_equal(from_array.coeffs, coeffs)


def test_array_of_wrong_shape_raises():
    with pytest.raises(ValueError, match="shape"):
        ParaPoly(deformation(6), 2, np.zeros((3, 3)))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("-inf"))])
def test_non_finite_array_entry_raises(bad):
    coeffs = np.zeros((3, 3, 3, 3), dtype=complex)
    coeffs[1, 2, 0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        ParaPoly(deformation(6), 2, coeffs)


def test_oversize_polynomial_refused_before_allocating(monkeypatch):
    # the CLI and the constructor share one guard; a polynomial on d modes has
    # as many coefficients as its (k/2)^d square matrix
    assert cli.check_size is algebra.check_size
    with pytest.raises(ValueError, match="exceeds"):
        ParaPoly(deformation(4), 10**9)  # 2^(2e9) coefficients, refused without building anything
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1}.get)
    assert ParaPoly(deformation(8), 2).coeffs.nbytes == 4096
    with pytest.raises(ValueError, match="exceeds"):
        ParaPoly(deformation(8), 3)


def loop_prescription(p1, p2):
    """``multiply_prescription`` as a plain loop over term pairs: exponents
    add, coefficients multiply, and a pair reaching ``kprime`` drops out."""
    kp = p1.dfm.kprime
    out = {}
    for (t1, b1), c1 in p1.terms.items():
        for (t2, b2), c2 in p2.terms.items():
            theta, bar = tuple(map(sum, zip(t1, t2))), tuple(map(sum, zip(b1, b2)))
            if max(theta + bar) < kp:
                out[theta, bar] = out.get((theta, bar), 0.0) + c1 * c2
    return ParaPoly(p1.dfm, p1.d, out)


@pytest.mark.parametrize("product", [multiply, multiply_prescription])
@pytest.mark.parametrize("k, modes, full", [(4, 1, True), (8, 1, False), (6, 2, False), (8, 2, False), (4, 3, False)])
def test_pair_product_paths_agree(product, k, modes, full):
    # the vectorized pair product against the term-pair references: the
    # insertion-sort reducer for the algebra product, a plain loop for the
    # phase-free one
    dfm = deformation(k)
    rng = np.random.default_rng([k, modes])
    f = random_poly(dfm, rng, modes=modes, full=full)
    g = random_poly(dfm, rng, modes=modes, full=full) * ParaPoly.generator(dfm, modes, 1, barred=True)
    reference = {multiply: sorted_multiply, multiply_prescription: loop_prescription}[product]
    got = product(f, g)
    assert got.distance(reference(f, g)) <= 1e-13
    assert not got.is_zero()


@pytest.mark.parametrize("product", [multiply, multiply_prescription])
def test_product_with_a_zero_operand_is_zero(product):
    dfm = deformation(8)
    zero, theta = ParaPoly.zero(dfm, 2), ParaPoly.generator(dfm, 2, 1)
    assert product(zero, theta).is_zero() and product(theta, zero).is_zero() and product(zero, zero).is_zero()


def test_coefficient_reads_one_entry():
    p = random_poly(deformation(6), np.random.default_rng(5), modes=2)
    assert p.coefficient((1, 2), (0, 1)) == p.coeffs[1, 2, 0, 1]
    assert type(p.coefficient((1, 2), (0, 1))) is complex
    assert p.coefficient((1,), (0,)) == 0  # wrong arity
    assert p.coefficient((3, 0), (0, 0)) == 0  # past kprime - 1
    assert p.coefficient((-1, 0), (0, 0)) == 0  # no wrap-around
