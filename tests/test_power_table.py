"""The ``verify`` families on the ladder-power table, against their forms
with one dense matrix per relation, to the bit.

``_ladder_powers`` holds the one nonzero diagonal of every ladder power,
multiplied in the order of ``np.linalg.matrix_power``.
``verify_relations`` reads it in place of dense powers and multiplies the
ladders of every mode count as (offset, vector) pairs;
``check_kfermionic`` and ``check_ordering_products`` take all their products
as one batched ``@``.  The oracles below are those checks written one
``FockOperator`` relation at a time, as they were before; the residuals must
be equal, not merely close, so that ``verify`` prints the same report.  The
quaternion demo runs its random trials as stacks, a chunk at a time, and its
per-trial loop is kept here as well.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from pgquant import (
    FockOperator,
    ParaPoly,
    VerificationReport,
    check_kfermionic,
    check_mixed_quantization,
    check_ordering_products,
    deformation,
    hermiticity_residual,
    ladder,
    ladder_dag,
    moyal_star,
    number_operator,
    q_power_N,
    quantize,
    quaternion_demo,
    rescale_B,
    round_trip_residuals,
    upper_symbol,
    verify_relations,
)
from pgquant import quantization as quantization_module
from pgquant import symbols as symbols_module
from pgquant.algebra import _PAIRS_PER_BLOCK
from pgquant.qnum import qnumber
from pgquant.quantization import Ordering, _ladder_powers, _quantize_stack

KS = list(range(4, 34, 2)) + [48, 64, 96, 128]


def bits(a):
    """The raw bits of a complex array, so that -0 and +0 differ."""
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


def relations_by_dense_powers(dfm) -> list[float]:
    """The residuals of one-mode ``verify_relations``, one dense power and
    one ``FockOperator`` relation at a time."""
    kp = dfm.kprime
    low, high = ladder(dfm), ladder_dag(dfm)
    res = [quantize(ParaPoly.generator(dfm, 1, 1)).residual(low),
           quantize(ParaPoly.generator(dfm, 1, 1, barred=True)).residual(high),
           (low @ high - dfm.q * (high @ low)).residual(q_power_N(dfm, 1, -1)),
           (low @ high - dfm.q.conjugate() * (high @ low)).residual(q_power_N(dfm, 1, 1))]
    worst = 0.0
    for n in range(2, kp + 1):
        for op, barred in ((low, False), (high, True)):
            f = ParaPoly.monomial(dfm, 1, (0 if barred else n,), (n if barred else 0,)) if n < kp else ParaPoly.zero(dfm, 1)
            worst = max(worst, quantize(f).residual(op.power(n)))
    return res + [worst, low.power(kp).max_abs(), high.residual(low.dagger())]


def relations_by_dense_ladders(dfm, modes) -> list[float]:
    """The residuals of multi-mode ``verify_relations``, with every ladder a
    dense ``FockOperator`` and every product a dense ``@``."""
    lows = [ladder(dfm, modes, i) for i in range(1, modes + 1)]
    highs = [ladder_dag(dfm, modes, i) for i in range(1, modes + 1)]
    res = []
    for i in range(1, modes + 1):
        a, ad = lows[i - 1], highs[i - 1]
        res.append((a @ ad - dfm.q * (ad @ a)).residual(q_power_N(dfm, modes, -1, i)))
        res.append((a @ ad - dfm.q.conjugate() * (ad @ a)).residual(q_power_N(dfm, modes, 1, i)))
        res.append(quantize(ParaPoly.generator(dfm, modes, i)).residual(a))
    for i in range(1, modes + 1):
        for j in range(i + 1, modes + 1):
            ai, aj = lows[i - 1], lows[j - 1]
            di, dj = highs[i - 1], highs[j - 1]
            res.append((ai @ aj - aj @ ai).max_abs())
            res.append((di @ dj - dj @ di).max_abs())
            res.append((ai @ dj - dj @ ai).max_abs())
            theta = tuple(int(mode in (i, j)) for mode in range(1, modes + 1))
            prod = quantize(ParaPoly.monomial(dfm, modes, theta, (0,) * modes))
            res.append(prod.residual(ai @ aj))
            res.append(prod.residual(aj @ ai))
    return res


def kfermionic_by_relation(dfm) -> list[float]:
    kp = dfm.kprime
    qF = cmath.exp(2j * math.pi / kp)
    f_minus, f_plus = rescale_B(dfm)
    f_plus_dag, f_minus_dag = f_plus.dagger(), f_minus.dagger()
    nop, one = number_operator(dfm), FockOperator.identity(dfm)

    def comm(x, y):
        return x @ y - y @ x

    res = [(f_minus @ f_plus - qF * (f_plus @ f_minus)).residual(one),
           comm(nop, f_minus).residual(-f_minus),
           comm(nop, f_plus).residual(f_plus),
           f_minus.power(kp).max_abs(),
           f_plus.power(kp).max_abs(),
           (f_plus_dag @ f_minus_dag - qF.conjugate() * (f_minus_dag @ f_plus_dag)).residual(one),
           comm(nop, f_plus_dag).residual(-f_plus_dag),
           comm(nop, f_minus_dag).residual(f_minus_dag),
           f_plus_dag.power(kp).max_abs(),
           f_minus_dag.power(kp).max_abs()]
    principal = cmath.exp(1j * math.pi / kp)
    for branch in (principal, -principal):
        res.append((f_minus @ f_plus_dag - (1.0 / branch) * (f_plus_dag @ f_minus)).max_abs())
        res.append((f_plus @ f_minus_dag - branch * (f_minus_dag @ f_plus)).max_abs())
    return res


def ordering_products_by_relation(dfm) -> list[float]:
    kp, q_k = dfm.kprime, dfm.q_k
    theta, bth = ParaPoly.generator(dfm, 1, 1), ParaPoly.generator(dfm, 1, 1, barred=True)
    a_N, b_N = quantize(theta), quantize(bth)
    a_L, b_L = quantize(theta, Ordering.LEFT), quantize(bth, Ordering.LEFT)
    a_R, b_R = quantize(theta, Ordering.RIGHT), quantize(bth, Ordering.RIGHT)

    def band(values, offset=0):
        return FockOperator(dfm, 1, np.diag(np.asarray(values, dtype=complex), offset))

    roots = [math.sqrt(qnumber(n + 1, dfm)) for n in range(kp - 1)]
    twisted = [roots[n] * q_k ** (n + 2) for n in range(kp - 1)]
    res = [a_L.residual(a_N), b_R.residual(b_N), a_L.residual(band(roots, 1)),
           a_R.residual(band(twisted, 1)), b_R.residual(band(roots, -1)), b_L.residual(band(twisted, -1))]
    nums = np.array([qnumber(n, dfm) for n in range(kp + 1)])
    n = np.arange(kp)
    for prod, shift, slope, offset in ((a_L @ b_R, 1, 0, 0), (a_L @ b_L, 1, 1, 2), (a_R @ b_R, 1, 1, 2),
                                       (a_R @ b_L, 1, 2, 4), (b_R @ a_L, 0, 0, 0), (b_R @ a_R, 0, 1, 1),
                                       (b_L @ a_L, 0, 1, 1), (b_L @ a_R, 0, 2, 2)):
        res.append(prod.residual(band(nums[n + shift] * q_k ** (slope * n + offset))))
    return res


@pytest.mark.parametrize("k", KS)
def test_power_table_holds_the_dense_power_diagonals(k):
    dfm = deformation(k)
    kp = dfm.kprime
    lows, highs = _ladder_powers(dfm)
    assert lows.shape == highs.shape == (kp + 1, 2 * kp)
    assert not lows.flags.writeable and not highs.flags.writeable
    low, high = ladder(dfm), ladder_dag(dfm)
    for p in range(kp + 1):
        assert np.array_equal(bits(lows[p, :kp - p]), bits(low.power(p).mat.diagonal(p))), p
        assert np.array_equal(bits(highs[p, p:kp]), bits(high.power(p).mat.diagonal(-p))), p
        assert not lows[p, kp - p:].any() and not highs[p, :p].any() and not highs[p, kp:].any()


@pytest.mark.parametrize("k", KS)
def test_stacked_families_equal_one_relation_at_a_time(k):
    dfm = deformation(k)
    assert [c.residual for c in verify_relations(dfm).checks] == relations_by_dense_powers(dfm)
    assert [c.residual for c in check_kfermionic(dfm).checks] == kfermionic_by_relation(dfm)
    assert [c.residual for c in check_ordering_products(dfm).checks] == ordering_products_by_relation(dfm)


@pytest.mark.parametrize("k, modes", [(k, 2) for k in range(4, 17, 2)] + [(k, 3) for k in (4, 6, 8)] + [(4, 4)])
def test_multimode_relations_equal_dense_ladder_products(k, modes):
    dfm = deformation(k)
    assert [c.residual for c in verify_relations(dfm, modes).checks] == relations_by_dense_ladders(dfm, modes)


@pytest.mark.parametrize("modes", [1, 2, 3])
def test_relations_take_no_dense_operator_arithmetic(monkeypatch, modes):
    def refuse(*args, **kwargs):
        raise AssertionError("FockOperator arithmetic called")

    for method in ("__matmul__", "__sub__", "residual", "max_abs"):
        monkeypatch.setattr(FockOperator, method, refuse)
    report = verify_relations(deformation(8), modes)
    assert len(report.checks) == {1: 7, 2: 11, 3: 24}[modes] and report.all_pass


@pytest.mark.parametrize("k, modes", [(48, 2), (16, 3)])
def test_multimode_relations_peak_below_four_dense_matrices(k, modes):
    # Only the quantized images are dense: one at a time, with its symbol's
    # coefficients and its absolute values.  The dense ladder products took
    # 7.5 and 10 matrices here.
    dfm = deformation(k)
    matrix_bytes = 16 * dfm.kprime ** (2 * modes)
    verify_relations(dfm, modes)  # fill the cached tables
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        verify_relations(dfm, modes)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * matrix_bytes, peak / matrix_bytes


def test_relations_and_mixed_check_take_no_matrix_power(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("matrix_power called")

    monkeypatch.setattr(np.linalg, "matrix_power", refuse)
    dfm = deformation(20)
    assert len(verify_relations(dfm).checks) == 7
    assert len(check_mixed_quantization(dfm).checks) == 4


def test_relations_build_no_dense_powers():
    # The one quantized stack of theta^n and bartheta^n, its input and its
    # absolute values come to 4.9 stacks of 16 k'^3 bytes at k' = 32; a
    # (2, k'-1, k', k') array of the dense powers would add two more.
    dfm = deformation(64)
    stack_bytes = 16 * dfm.kprime**3
    verify_relations(dfm)  # fill the cached tables
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        verify_relations(dfm)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * stack_bytes, peak / stack_bytes


def quaternion_by_trials(trials, seed):
    """The three random residuals of ``quaternion_demo``, one trial at a time."""
    dfm = deformation(4)
    units = [np.eye(2, dtype=complex), 1j * np.array([[0, 1], [1, 0]]), -1j * np.array([[0, -1j], [1j, 0]]),
             1j * np.array([[1, 0], [0, -1]])]
    rng = np.random.default_rng(seed)
    res_symbol = res_scalar = res_vector = 0.0
    for _ in range(trials):
        z = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
        w = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
        sym_z = upper_symbol(FockOperator(dfm, 1, sum(z[i] * units[i] for i in range(4))))
        sym_w = upper_symbol(FockOperator(dfm, 1, sum(w[i] * units[i] for i in range(4))))
        closed = ParaPoly(dfm, 1, {((0,), (0,)): z[0] - 1j * z[3], ((1,), (0,)): 1j * z[1] - z[2],
                                   ((0,), (1,)): 1j * z[1] + z[2], ((1,), (1,)): 2j * z[3]})
        res_symbol = max(res_symbol, sym_z.distance(closed))
        p = moyal_star(sym_z, sym_w)
        c0, cth, cbth, cmix = (p.coefficient((s,), (t,)) for s, t in ((0, 0), (1, 0), (0, 1), (1, 1)))
        z3 = cmix / 2j
        got = np.array([c0 + 1j * z3, (cth + cbth) / 2j, (cbth - cth) / 2.0, z3])
        x0 = z[0] * w[0] - (z[1] * w[1] + z[2] * w[2] + z[3] * w[3])
        xv = z[0] * w[1:] + w[0] * z[1:] + np.cross(z[1:], w[1:])
        res_scalar = max(res_scalar, abs(got[0] - x0))
        res_vector = max(res_vector, float(np.max(np.abs(got[1:] - xv))))
    return [res_symbol, res_scalar, res_vector]


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("trials", [1, 100, 4097])  # 4097: three chunks at k = 4
def test_stacked_quaternion_trials_equal_one_trial_at_a_time(trials, seed):
    got = [c.residual for c in quaternion_demo(trials=trials, seed=seed).checks[-3:]]
    assert got == quaternion_by_trials(trials, seed)


def poison_one_chunk(monkeypatch, module, chunk):
    """Make the ``chunk``-th ``_quantize_stack`` call seen by ``module`` return NaN."""
    calls = []

    def poisoned(dfm, stack, ordering):
        calls.append(None)
        out = _quantize_stack(dfm, stack, ordering)
        return out * np.nan if len(calls) == chunk else out

    monkeypatch.setattr(module, "_quantize_stack", poisoned)
    return calls


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_a_nan_chunk_fails_the_sampled_checks(monkeypatch, chunk):
    dfm = deformation(32)
    trials = 2 * (_PAIRS_PER_BLOCK // dfm.kprime**2) + 1  # three chunks, the last of one trial
    calls = poison_one_chunk(monkeypatch, quantization_module, chunk)
    worst = hermiticity_residual(dfm, trials=trials)
    assert len(calls) == 3 and math.isnan(worst)
    assert not VerificationReport().add("conjugation matches adjoint", worst).all_pass
    # the round trip quantizes twice a chunk: f, then the upper symbol of A
    calls = poison_one_chunk(monkeypatch, symbols_module, 2 * chunk)
    poly, mat = round_trip_residuals(dfm, trials=trials)
    assert len(calls) == 6 and math.isnan(mat) and not math.isnan(poly)
    assert not VerificationReport().add("symbol round trip on matrices", mat).all_pass
