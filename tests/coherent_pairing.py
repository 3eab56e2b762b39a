"""The coherent expectation symbol the long way, as a cross-check.

``lower_symbol_by_pairing`` multiplies bra component nb by ket component n
in the algebra, picking up the q-phases, and weights the product by matrix
entry (nb, n).  ``pgquant.lower_symbol`` evaluates the same sum in closed
form and must reproduce it.
"""

from pgquant import FockOperator, ParaPoly, coherent_bra, coherent_ket, multiply


def lower_symbol_by_pairing(op: FockOperator) -> ParaPoly:
    """Coherent expectation of a single-mode ``op``, pair by pair."""
    assert op.d == 1
    dfm = op.dfm
    ket = coherent_ket(dfm, 1)
    bra = coherent_bra(dfm, 1)
    out = ParaPoly.zero(dfm, 1)
    for nb in range(dfm.kprime):
        for n in range(dfm.kprime):
            a = op.mat[nb, n]
            if a == 0:
                continue
            out = out + a * multiply(bra.components[nb], ket.components[n])
    return out


def coherent_overlap(dfm) -> ParaPoly:
    """Overlap of the coherent family with itself: sum over n of
    bartheta^n theta^n / [n]! in canonical form."""
    return lower_symbol_by_pairing(FockOperator.identity(dfm, 1))
