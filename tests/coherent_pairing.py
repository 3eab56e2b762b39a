"""The coherent-state families, and the coherent expectation symbol the long
way, as cross-checks.

``coherent_ket`` and ``coherent_bra`` hold the components of the paper's
coherent states as polynomials; only the literal sandwich and pairing
oracles read them, since ``pgquant`` works from their closed form, the
per-mode table.  ``lower_symbol_by_pairing`` multiplies bra component nb by
ket component n in the algebra, picking up the q-phases, and weights the
product by matrix entry (nb, n).  ``pgquant.lower_symbol`` evaluates the
same sum in closed form and must reproduce it.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from pgquant import Deformation, FockOperator, ParaPoly, basis_tuples, multiply, qfactorial


@dataclass(frozen=True)
class CoherentKet:
    """Coherent-state family: component ``n`` multiplies the Fock vector
    ``|n>`` by a monomial in the generators (unbarred for kets, barred for
    bras), normalized by the square root of the deformed factorials."""

    dfm: Deformation
    d: int
    components: tuple[ParaPoly, ...]


def _coherent_family(dfm: Deformation, modes: int, barred: bool) -> CoherentKet:
    zeros = (0,) * modes
    comps = []
    for ns in basis_tuples(dfm, modes):
        scale = 1.0 / math.sqrt(math.prod(qfactorial(n, dfm) for n in ns))
        theta, bar = (zeros, ns) if barred else (ns, zeros)
        comps.append(ParaPoly.monomial(dfm, modes, theta, bar, scale))
    return CoherentKet(dfm, modes, tuple(comps))


@lru_cache(maxsize=None)
def coherent_ket(dfm: Deformation, modes: int = 1) -> CoherentKet:
    """Ket components: theta_1^n1 .. theta_d^nd / sqrt([n_1]! .. [n_d]!)."""
    return _coherent_family(dfm, modes, barred=False)


@lru_cache(maxsize=None)
def coherent_bra(dfm: Deformation, modes: int = 1) -> CoherentKet:
    """Bra components: the barred counterparts, bartheta_1^n1 .. bartheta_d^nd
    over the same normalization, written directly in canonical order."""
    return _coherent_family(dfm, modes, barred=True)


def lower_symbol_by_pairing(op: FockOperator) -> ParaPoly:
    """Coherent expectation of ``op`` on any number of modes, pair by pair."""
    dfm = op.dfm
    ket = coherent_ket(dfm, op.d)
    bra = coherent_bra(dfm, op.d)
    out = ParaPoly.zero(dfm, op.d)
    for nb in range(op.dim):
        for n in range(op.dim):
            a = op.mat[nb, n]
            if a == 0:
                continue
            out = out + a * multiply(bra.components[nb], ket.components[n])
    return out


def coherent_overlap(dfm) -> ParaPoly:
    """Overlap of the coherent family with itself: sum over n of
    bartheta^n theta^n / [n]! in canonical form."""
    return lower_symbol_by_pairing(FockOperator.identity(dfm, 1))
