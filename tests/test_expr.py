import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgquant import (
    ExprSyntaxError,
    ParaPoly,
    deformation,
    parse,
    poly_to_expr,
    random_poly,
)
from pgquant.cli import main
from pgquant.expr import MAX_POWER


def ev(text, k=4, modes=1):
    return parse(text, deformation(k), modes)


# ---------------------------------------------------------------- literals


@pytest.mark.parametrize(
    "text,value",
    [
        ("2", 2.0),
        ("2i", 2j),
        ("i", 1j),
        (".5", 0.5),
        ("1.5e-3", 0.0015),
        ("(1+2i)", 1 + 2j),
        ("(1-2i)", 1 - 2j),
        ("-3", -3.0),
        ("2 + 3*2", 8.0),
    ],
)
def test_scalar_literals(text, value):
    p = ev(text)
    assert p.coefficient((0,), (0,)) == pytest.approx(value)
    assert len(p.terms) <= 1


def test_generators():
    p = ev("th", k=6)
    assert p.terms == {((1,), (0,)): 1.0 + 0j}
    p = ev("bth", k=6)
    assert p.terms == {((0,), (1,)): 1.0 + 0j}
    p = ev("th2", k=6, modes=2)
    assert p.terms == {((0, 1), (0, 0)): 1.0 + 0j}
    p = ev("bth1", k=6, modes=2)
    assert p.terms == {((0, 0), (1, 0)): 1.0 + 0j}


def test_precedence():
    # power binds tighter than unary minus, which binds tighter than *
    p = ev("-th^2", k=8)
    assert p.coefficient((2,), (0,)) == pytest.approx(-1.0)
    p = ev("2*th + 1", k=8)
    assert p.coefficient((1,), (0,)) == pytest.approx(2.0)
    assert p.coefficient((0,), (0,)) == pytest.approx(1.0)
    p = ev("-2^2")
    assert p.coefficient((0,), (0,)) == pytest.approx(-4.0)


def test_product_preserves_written_order():
    dfm = deformation(8)
    got = ev("bth*th", k=8)
    # reordering to canonical form costs conj(q_8^2) = -i
    assert got.coefficient((1,), (1,)) == pytest.approx(-1j, abs=1e-12)
    assert ev("th*bth", k=8).coefficient((1,), (1,)) == pytest.approx(1.0)


def test_power_of_sum():
    p = ev("(th+bth)^2", k=6)
    # theta bartheta + bartheta theta = (1 + conj(q_k)) theta bartheta
    expect = 1.0 + cmath.exp(-2j * math.pi / 3)
    assert p.coefficient((1,), (1,)) == pytest.approx(expect, abs=1e-12)
    assert p.coefficient((2,), (0,)) == pytest.approx(1.0)
    assert p.coefficient((0,), (2,)) == pytest.approx(1.0)


def test_power_zero_is_unit():
    p = ev("th^0", k=6)
    assert p.terms == {((0,), (0,)): 1.0 + 0j}


# ---------------------------------------------------------------- evaluation


def power(x, n):
    out = ParaPoly.unit(x.dfm, x.d)
    for _ in range(n):
        out = out * x
    return out


def arithmetic_corpus(dfm, d):
    """(text, the same polynomial as ParaPoly arithmetic written out)."""
    def c(v):
        return ParaPoly.constant(dfm, d, v)

    if d == 1:
        th, bth = ParaPoly.generator(dfm, 1, 1), ParaPoly.generator(dfm, 1, 1, barred=True)
        return [
            ("-th", -th),
            ("th - bth", th - bth),
            ("2*th - 3 + bth", c(2.0) * th - c(3.0) + bth),
            ("3 - -th", c(3.0) - (-th)),
            ("th^0", power(th, 0)),
            ("bth^0*th", power(bth, 0) * th),
            ("(th+bth)^3", power(th + bth, 3)),
            ("2^3", power(c(2.0), 3)),
            ("bth*th", bth * th),
            ("th*bth", th * bth),
            ("th*bth*th - bth", th * bth * th - bth),
            ("-(th - 2i*bth)^2 * th", -power(th - c(2j) * bth, 2) * th),
            ("(1+2i)*bth^2*th", (c(1.0) + c(2j)) * power(bth, 2) * th),
        ]
    th1, th2 = (ParaPoly.generator(dfm, 2, i) for i in (1, 2))
    bth1, bth2 = (ParaPoly.generator(dfm, 2, i, barred=True) for i in (1, 2))
    return [
        ("-th2", -th2),
        ("th1*bth2 + 2", th1 * bth2 + c(2.0)),
        ("bth2*th1", bth2 * th1),
        ("th1*bth2", th1 * bth2),
        ("th2*th1 - th1*th2", th2 * th1 - th1 * th2),
        ("(th1 + bth2)^2 - -th2", power(th1 + bth2, 2) - (-th2)),
        ("bth1^0*th2", power(bth1, 0) * th2),
        ("(th1 - bth1 + th2*bth2)^3", power(th1 - bth1 + th2 * bth2, 3)),
        ("-(th1 - bth1)*(th2 + .5i)", -(th1 - bth1) * (th2 + c(0.5j))),
    ]


@pytest.mark.parametrize("k, d", [(6, 1), (8, 1), (12, 1), (6, 2), (8, 2)])
def test_parse_evaluates_as_the_written_arithmetic(k, d):
    dfm = deformation(k)
    got = {}
    for text, expected in arithmetic_corpus(dfm, d):
        got[text] = parse(text, dfm, d)
        assert got[text] == expected, text
        assert np.array_equal(got[text].coeffs, expected.coeffs), text
    # written order is kept: the two orders differ by the commutation phase
    swapped = ("bth*th", "th*bth") if d == 1 else ("bth2*th1", "th1*bth2")
    assert got[swapped[0]] != got[swapped[1]]


# ---------------------------------------------------------------- errors


@pytest.mark.parametrize(
    "text,offset",
    [
        ("th +", 4),
        ("(th", 3),
        ("th^", 3),
        ("th^1.5", 3),
        ("@", 0),
        ("th bth", 3),
        ("", 0),
        ("2^2^2", 3),
        ("th*", 3),
    ],
)
def test_syntax_error_offsets(text, offset):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text, deformation(4))
    assert exc.value.position == offset
    assert f"offset {offset}" in str(exc.value)


def test_generator_index_validation():
    with pytest.raises(ExprSyntaxError):
        parse("th", deformation(4), modes=2)  # bare name is ambiguous with several modes
    with pytest.raises(ExprSyntaxError):
        parse("th3", deformation(4), modes=2)
    with pytest.raises(ExprSyntaxError):
        parse("th0", deformation(4), modes=2)
    parse("th2", deformation(4), modes=2)


# ---------------------------------------------------------------- printing


def test_poly_to_expr_forms():
    dfm = deformation(6)
    assert poly_to_expr(ParaPoly.zero(dfm)) == "0"
    assert poly_to_expr(ParaPoly.monomial(dfm, 1, (1,), (1,))) == "th*bth"
    assert poly_to_expr(ParaPoly.monomial(dfm, 1, (1,), (1,), -1.0)) == "-th*bth"
    assert poly_to_expr(ParaPoly.monomial(dfm, 1, (2,), (0,))) == "th^2"
    two_mode = ParaPoly.monomial(deformation(6), 2, (1, 0), (0, 1), 2.5)
    assert poly_to_expr(two_mode) == "2.5*th1*bth2"


@settings(max_examples=50, deadline=None)
@given(
    k_half=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_print_parse_round_trip_exact(k_half, seed):
    dfm = deformation(2 * k_half)
    rng = np.random.default_rng(seed)
    p = random_poly(dfm, rng)
    text = poly_to_expr(p)
    back = parse(text, dfm, 1)
    assert back.distance(p) == 0.0


def test_print_parse_round_trip_two_modes():
    dfm = deformation(6)
    rng = np.random.default_rng(97)
    for _ in range(15):
        p = random_poly(dfm, rng, modes=2)
        back = parse(poly_to_expr(p), dfm, 2)
        assert back.distance(p) == 0.0


def test_round_trip_complex_coefficients():
    dfm = deformation(4)
    p = ParaPoly(
        dfm,
        1,
        {
            ((0,), (0,)): 0.1 + 0.7j,
            ((1,), (0,)): -2.25,
            ((0,), (1,)): -0.5j,
            ((1,), (1,)): 1.0,
        },
    )
    back = parse(poly_to_expr(p), dfm, 1)
    assert back.distance(p) == 0.0


# ---------------------------------------------------------------- powers


def test_power_fold_stops_once_the_product_is_zero(monkeypatch):
    dfm = deformation(8)
    calls = []
    product = ParaPoly.__mul__
    monkeypatch.setattr(ParaPoly, "__mul__", lambda a, b: calls.append(1) or product(a, b))
    assert parse(f"(th+bth)^{MAX_POWER}", dfm) == ParaPoly.zero(dfm, 1)
    assert len(calls) <= 2 * (dfm.kprime - 1) + 1
    calls.clear()
    assert parse(f"(th1*bth2)^{MAX_POWER}", dfm, modes=2) == ParaPoly.zero(dfm, 2)
    assert len(calls) <= 1 + dfm.kprime  # th1*bth2, then powers 1..kprime


@pytest.mark.parametrize("k, d", [(6, 1), (8, 1), (6, 2)])
def test_power_of_a_nilpotent_sum_equals_the_full_fold(k, d):
    dfm = deformation(k)
    text = "(th+bth)" if d == 1 else "(th1+bth1-th2*bth2)"
    base = parse(text, dfm, d)
    for n in range(2 * dfm.kprime + 1):
        assert parse(f"{text}^{n}", dfm, d) == power(base, n), n


def test_power_with_a_constant_term_folds_every_factor():
    dfm = deformation(6)
    got = parse(f"(1+th)^{MAX_POWER}", dfm)
    assert got == power(parse("1+th", dfm), MAX_POWER)
    assert got.terms[((1,), (0,))] == MAX_POWER


def test_power_past_the_limit_is_refused():
    with pytest.raises(ExprSyntaxError, match=f"exceeds the largest power {MAX_POWER}") as exc:
        parse(f"th^{MAX_POWER + 1}", deformation(8))
    assert exc.value.position == 3


def test_cli_refuses_a_power_past_the_limit(capsys):
    assert main(["quantize", "th^1000000000", "--k", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"exceeds the largest power {MAX_POWER}" in captured.err
