import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pgquant import deformation, qfactorial, qnumber
from pgquant.qnum import factorials

# hand-computed from sin(2*pi*n/k) / sin(2*pi/k)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
FROZEN_QNUMBERS = {
    4: [0.0, 1.0, 0.0],
    6: [0.0, 1.0, 1.0, 0.0],
    8: [0.0, 1.0, math.sqrt(2.0), 1.0, 0.0],
    10: [0.0, 1.0, GOLDEN, GOLDEN, 1.0, 0.0],
    12: [0.0, 1.0, math.sqrt(3.0), 2.0, math.sqrt(3.0), 1.0, 0.0],
}

FROZEN_QFACTORIALS = {
    8: [1.0, 1.0, math.sqrt(2.0), math.sqrt(2.0)],
    12: [1.0, 1.0, math.sqrt(3.0), 2.0 * math.sqrt(3.0), 6.0, 6.0],
}


@pytest.mark.parametrize("k", sorted(FROZEN_QNUMBERS))
def test_qnumber_frozen_values(k):
    dfm = deformation(k)
    for n, expected in enumerate(FROZEN_QNUMBERS[k]):
        assert qnumber(n, dfm) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("k", sorted(FROZEN_QFACTORIALS))
def test_qfactorial_frozen_values(k):
    dfm = deformation(k)
    for n, expected in enumerate(FROZEN_QFACTORIALS[k]):
        assert qfactorial(n, dfm) == pytest.approx(expected, abs=1e-12)


def test_deformation_fields():
    dfm = deformation(8)
    assert dfm.k == 8
    assert dfm.kprime == 4
    assert abs(dfm.q - cmath.exp(2j * math.pi / 8)) < 1e-15
    assert abs(dfm.q_k - dfm.q**2) < 1e-15


@pytest.mark.parametrize("bad", [3, 5, 7, 9, 2, 0, -4, 1])
def test_deformation_rejects_bad_orders(bad):
    with pytest.raises(ValueError):
        deformation(bad)


def test_qnumber_rejects_out_of_range():
    dfm = deformation(6)
    with pytest.raises(ValueError):
        qnumber(-1, dfm)
    with pytest.raises(ValueError):
        qnumber(7, dfm)
    with pytest.raises(ValueError):
        qfactorial(4, dfm)


def test_qnumber_ratio_form(dfm):
    # independent route: (q^n - q^-n) / (q - q^-1) must be real and agree
    q = dfm.q
    for n in range(dfm.k + 1):
        ratio = (q**n - q**-n) / (q - q**-1)
        assert abs(ratio.imag) < 1e-12
        assert qnumber(n, dfm) == pytest.approx(ratio.real, abs=1e-12)


@given(k_half=st.integers(min_value=2, max_value=40), data=st.data())
def test_qnumber_reflection_and_positivity(k_half, data):
    dfm = deformation(2 * k_half)
    n = data.draw(st.integers(min_value=0, max_value=dfm.kprime))
    assert qnumber(dfm.kprime - n, dfm) == pytest.approx(qnumber(n, dfm), abs=1e-12)
    if 1 <= n <= dfm.kprime - 1:
        assert qnumber(n, dfm) > 0.0
    assert qnumber(0, dfm) == 0.0
    assert abs(qnumber(dfm.kprime, dfm)) < 1e-12


@given(k_half=st.integers(min_value=2, max_value=24))
def test_qfactorial_recurrence(k_half):
    dfm = deformation(2 * k_half)
    for n in range(1, dfm.kprime + 1):
        assert qfactorial(n, dfm) == pytest.approx(
            qfactorial(n - 1, dfm) * qnumber(n, dfm), rel=1e-12, abs=1e-12
        )


def test_factorials_are_qfactorial_bit_for_bit():
    # one running product of [1] .. [k'-1], in qfactorial's order, so the same bits
    for k in range(4, 240, 2):
        dfm = deformation(k)
        assert factorials(dfm).tolist() == [qfactorial(n, dfm) for n in range(dfm.kprime)], k
