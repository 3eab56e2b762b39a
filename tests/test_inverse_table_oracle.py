"""The inverse quantization table against an 80-digit reference.

``upper_symbol`` applies U from the reciprocal series g = 1/e(x) mod x^k'
of the truncated q-exponential e(x) = sum_(i<k') x^i / [i]!:

    U[s, t, n] = g_(n+s+1-k') sqrt([n]! [n+s-t]!) / [k'-1]!

where n + s >= k'-1 and 0 <= n + s - t < k', and 0 elsewhere.  It holds U
as the Hankel matrix G[s, n] = g_(n+s+1-k') and the scaling
sqrt([n]! [m]!) / [k'-1]! of matrix entry (n, m); ``production_inverse``
rebuilds U from those two.  Here the q-factorials and g are recomputed with
mpmath at 80 digits.  The rebuilt float64 table must match that reference
to 1e-13 of its largest entry, must be exactly zero off its support, and,
in exact arithmetic, the formula must invert every diagonal block of T
(the closed form of ``gather_oracle.mode_table``, rebuilt here).  The
round-trip tests pin what a table with rounding noise off its
support breaks: that noise multiplies matrix entries up to [k'-1]!.
"""

import json

import mpmath
import numpy as np
import pytest

from pgquant import deformation, round_trip_residuals
from pgquant.cli import main
from pgquant.symbols import _upper_gather

DIGITS = 80


def reference_series(dfm) -> tuple[list, list]:
    """[n]! for n < kprime and the coefficients g of 1/e(x) mod x^kprime,
    as mpmath numbers; call inside ``mpmath.workdps``."""
    kp = dfm.kprime
    unit = mpmath.sin(2 * mpmath.pi / dfm.k)
    fac = [mpmath.mpf(1)]
    for j in range(1, kp):
        fac.append(fac[-1] * mpmath.sin(2 * mpmath.pi * j / dfm.k) / unit)
    g = [mpmath.mpf(1)]
    for i in range(1, kp):
        g.append(-mpmath.fsum(g[i - j] / fac[j] for j in range(1, i + 1)))
    return fac, g


def exact_tables(dfm) -> tuple[np.ndarray, np.ndarray]:
    """T and U as (s, t, n) object arrays of mpmath numbers, from their
    closed forms; call inside ``mpmath.workdps``."""
    kp = dfm.kprime
    fac, g = reference_series(dfm)
    fac_ = np.array(fac + [mpmath.mpf(0)] * kp, dtype=object)  # [m]! past kprime - 1 reads 0
    g_ = np.array([mpmath.mpf(0)] * (kp - 1) + g, dtype=object)
    root = np.array([mpmath.sqrt(f) for f in fac] + [mpmath.mpf(1)] * kp, dtype=object)
    s, t, n = np.ogrid[:kp, :kp, :kp]
    col = (n + s - t).clip(0, 2 * kp - 1)
    inside = (n + s - t >= 0) & (n + s - t < kp)
    pair = root[n] * root[col]
    return np.where(inside, fac_[n + s] / pair, 0), np.where(inside, g_[n + s] * pair / fac[kp - 1], 0)


def production_inverse(dfm) -> np.ndarray:
    """U[s, t, n] = G[s, n] * scale[n, n + s - t] from the cached map of
    ``upper_symbol``, whose scaling is held along the diagonals, cell
    (n, s - t + k' - 1), and is 0 where n + s - t leaves the matrix."""
    kp = dfm.kprime
    hankel, scale = _upper_gather(dfm)[2:4]
    s, t, n = np.ogrid[:kp, :kp, :kp]
    return hankel[s, n] * scale[n, s - t + kp - 1, 0]


@pytest.mark.parametrize("k", [16, 32, 64, 96])
def test_inverse_table_matches_80_digit_reference(k):
    dfm = deformation(k)
    with mpmath.workdps(DIGITS):
        reference = exact_tables(dfm)[1].astype(float)
    got = production_inverse(dfm)
    assert np.max(np.abs(got - reference)) <= 1e-13 * np.max(np.abs(reference))


@pytest.mark.parametrize("k", [16, 32, 64, 96])
def test_inverse_table_is_exactly_zero_off_its_support(k):
    kp = deformation(k).kprime
    s, t, n = np.ogrid[:kp, :kp, :kp]
    on = (n + s >= kp - 1) & (n + s - t < kp)  # n + s - t >= 0 follows, as t < kp
    got = production_inverse(deformation(k))
    assert not got[~on].any()
    assert np.all(got[on] != 0)


@pytest.mark.parametrize("k", [8, 16, 32])
def test_closed_form_inverts_every_diagonal_block_exactly(k):
    # T_p U_p = I in 80-digit arithmetic on each diagonal p = s - t: rows
    # n = j + b of the matrix, coefficients theta^(c+a) bartheta^(c+b)
    dfm = deformation(k)
    kp = dfm.kprime
    with mpmath.workdps(DIGITS):
        table, inverse = exact_tables(dfm)
        for p in range(1 - kp, kp):
            a, b = max(p, 0), max(-p, 0)
            j = np.arange(kp - abs(p))
            t_p = mpmath.matrix(table[j + a, j + b, (j + b)[:, None]].tolist())  # t_p[r, c] = T[c+a, c+b, r+b]
            u_p = mpmath.matrix(inverse[(j + a)[:, None], (j + b)[:, None], j + b].tolist())
            assert mpmath.mnorm(t_p * u_p - mpmath.eye(len(j)), 1) <= mpmath.mpf(10) ** (10 - DIGITS)


@pytest.mark.parametrize("k", [32, 64, 96])
def test_polynomial_round_trip_at_large_k(k):
    # upper_symbol(quantize(f)) = f; rounding noise off the support of U, as
    # inverting T block by block in LAPACK leaves, makes this miss by 8.6e-9,
    # 1.5e8 and 1.3e28
    assert round_trip_residuals(deformation(k), trials=3)[0] <= 1e-12


def test_verify_at_k64_passes_the_polynomial_round_trip(capsys):
    main(["verify", "--k", "64", "--format", "json"])
    failed = [r["name"] for r in json.loads(capsys.readouterr().out)["relations"] if not r["pass"]]
    assert "symbol round trip on polynomials" not in failed
