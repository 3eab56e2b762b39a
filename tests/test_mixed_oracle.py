"""``check_mixed_quantization`` against its pair-by-pair form.

``mixed_residuals_by_pairs`` walks every pair (n, m) in turn, with one
dense matrix per power and the nested commutator sums carried as single
matrices; ``check_mixed_quantization`` holds each of those one-diagonal
matrices as the vector of its diagonal and covers all (n, m) at once.
The four residuals must agree.
"""

import numpy as np
import pytest

from pgquant import (
    ParaPoly,
    check_mixed_quantization,
    deformation,
    ladder,
    ladder_dag,
    quantize,
)
from pgquant.qnum import factorials

from fock_closed_forms import quantize_mixed_monomial


def mixed_residuals_by_pairs(dfm) -> list[float]:
    """The four residuals of ``check_mixed_quantization``, one pair at a time."""
    kp = dfm.kprime
    low = ladder(dfm)
    high = ladder_dag(dfm)
    lows = [low.power(n).mat for n in range(kp)]
    highs = [high.power(m).mat for m in range(kp)]
    fac = factorials(dfm)
    res_int = res_prod = res_rev = res_comm = 0.0
    base = lows[1] @ highs[1] - highs[1] @ lows[1]
    inner = np.zeros((kp, kp), complex)  # sum_{r<m} high^r base high^(m-1-r)
    for m in range(kp):
        nested = np.zeros((kp, kp), complex)  # sum_{s<n} low^s inner low^(n-1-s)
        for n in range(kp):
            closed = quantize_mixed_monomial(n, m, dfm)
            res_int = max(res_int, closed.residual(quantize(ParaPoly.monomial(dfm, 1, (n,), (m,)))))
            forward = lows[n] @ highs[m]
            reverse = highs[m] @ lows[n]
            res_prod = max(res_prod, float(np.max(np.abs(closed.mat - forward))))
            rev = np.zeros((kp, kp), dtype=complex)
            l = np.arange(kp - max(n, m))
            rev[l + m, l + n] = np.sqrt((fac[l + n] / fac[l]) * (fac[l + m] / fac[l]))
            res_rev = max(res_rev, float(np.max(np.abs(reverse - rev))))
            res_comm = max(res_comm, float(np.max(np.abs(forward - reverse - nested))))
            nested = lows[1] @ nested + inner @ lows[n]
        inner = highs[1] @ inner + base @ highs[m]
    return [res_int, res_prod, res_rev, res_comm]


@pytest.mark.parametrize("k", list(range(4, 34, 2)) + [64])
def test_stacked_check_matches_pair_by_pair(k):
    dfm = deformation(k)
    checks = check_mixed_quantization(dfm).checks
    assert [c.name for c in checks] == [
        "closed mixed form = quantize(theta^n bartheta^m), all n,m",
        "closed mixed form = low^n @ high^m, all n,m",
        "reversed product high^m @ low^n matches its closed form, all n,m",
        "[low^n, high^m] = nested first-order commutator sum, all n,m",
    ]
    for check, want in zip(checks, mixed_residuals_by_pairs(dfm)):
        assert abs(check.residual - want) <= 1e-12 * want, check.name
