"""Exact matrix quantization through the coherent-state kernel, and relation checkers.

A polynomial in the nilpotent q-commuting variables is mapped to a dense
complex matrix acting on the finite Fock space spanned by
``|n_1 .. n_d>`` with each occupation in ``0..kprime-1``.  Basis order is
row-major with ``n_1`` most significant, so ``dim = kprime**d``.

Entry (n, m) of the quantization of f integrates the coherent-state
kernel ket_n * f * weight * bra_m.  The kernel factorizes over the modes,
and on each mode it has the closed form T[s, t, n] = [n+s]! / S[n, n+s-t],
S[n, m] = sqrt([n]! [m]!) the one cached table ``factorial_roots`` of
``pgquant.qnum``: the term c theta^s bartheta^t sends |n> to |n + s - t>
with amplitude c * prod_i T[s_i, t_i, n_i].  The operator orderings differ
only by a phase q_k^e on that amplitude:

* antinormal -- the kernel is merged by the phase-free prescription, e = 0,
  so the map is, mode by mode, one GEMM of the Hankel matrix [n+s]! with
  the coefficients read along their diagonals, then scaled by 1/S
  (``gather_contract``), or, for a symbol with at most dim terms, each term
  placed in turn.  The GEMM sums the same
  terms in the same order for entry (n, m) of the image of conjugate(f) as
  for entry (m, n) of that of f, so on one mode that image is exactly the
  adjoint;
* left / right -- the kernel is the algebra product of the words ket_n, f,
  w, bra_m (left) or ket_n, w, f, bra_m (right), with w the weight monomial
  completing the top degree; e sums ``product_phase`` of
  ``pgquant.algebra`` over all ordered pairs of words.

Both act on a stack of B symbols at once, and ``quantize`` is that map on
a stack of one, so a family of monomials or a chunk of random trials costs
one call, not one per symbol.

Everything asserted about the resulting operators is checked numerically
by the ``verify_*``/``check_*`` functions, which return a
``VerificationReport`` of named residuals.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .algebra import (
    _PAIRS_PER_BLOCK,
    ParaPoly,
    _draw_trials,
    _json_int,
    _nonzero,
    check_size,
    product_phase,
    q_powers,
    weight,
)
from .qnum import Deformation, factorial_roots, factorials, qnumber

__all__ = [
    "Ordering",
    "basis_tuples",
    "FockOperator",
    "RelationCheck",
    "VerificationReport",
    "resolution_of_unity",
    "gather_contract",
    "quantize",
    "ladder",
    "ladder_dag",
    "number_operator",
    "q_power_N",
    "rescale_B",
    "verify_relations",
    "check_kfermionic",
    "check_ordering_products",
    "check_mixed_quantization",
    "hermiticity_residual",
    "operator_to_dict",
    "operator_from_dict",
]


class Ordering(enum.Enum):
    """Placement rule for the symbol inside the quantization kernel."""

    ANTINORMAL = "antinormal"
    LEFT = "left"
    RIGHT = "right"


def basis_tuples(dfm: Deformation, modes: int = 1) -> list[tuple[int, ...]]:
    """Occupation tuples in basis order (row-major, first mode most significant)."""
    return list(itertools.product(range(dfm.kprime), repeat=modes))


class FockOperator:
    """Dense complex matrix tagged with its deformation and mode count."""

    __slots__ = ("dfm", "d", "mat")

    def __init__(self, dfm: Deformation, d: int, mat):
        mat = np.asarray(mat, dtype=complex)
        dim = dfm.kprime**d
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match dim {dim} (k'={dfm.kprime}, d={d})")
        self.dfm = dfm
        self.d = d
        self.mat = mat

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def identity(cls, dfm: Deformation, d: int = 1) -> "FockOperator":
        return cls(dfm, d, np.eye(dfm.kprime**d, dtype=complex))

    def _check(self, other: "FockOperator") -> None:
        if self.dfm != other.dfm or self.d != other.d:
            raise ValueError("operator deformation/mode mismatch")

    def dagger(self) -> "FockOperator":
        return FockOperator(self.dfm, self.d, self.mat.conj().T)

    def power(self, n: int) -> "FockOperator":
        return FockOperator(self.dfm, self.d, np.linalg.matrix_power(self.mat, n))

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        self._check(other)
        return FockOperator(self.dfm, self.d, self.mat @ other.mat)

    def __add__(self, other: "FockOperator") -> "FockOperator":
        self._check(other)
        return FockOperator(self.dfm, self.d, self.mat + other.mat)

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        self._check(other)
        return FockOperator(self.dfm, self.d, self.mat - other.mat)

    def __neg__(self) -> "FockOperator":
        return FockOperator(self.dfm, self.d, -self.mat)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, complex)):
            return FockOperator(self.dfm, self.d, self.mat * scalar)
        return NotImplemented

    __rmul__ = __mul__

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.mat))) if self.mat.size else 0.0

    def residual(self, other: "FockOperator") -> float:
        """Largest entrywise deviation from ``other``."""
        self._check(other)
        return float(np.max(np.abs(self.mat - other.mat)))

    def __repr__(self) -> str:
        return f"FockOperator(k={self.dfm.k}, d={self.d}, dim={self.dim})"


def resolution_of_unity(dfm: Deformation, modes: int = 1) -> FockOperator:
    """Integrate ket (x) weight (x) bra under the phase-free prescription.

    Entry (n, m) is the full integral of the prescription-ordered product
    of ket component n, the weight, and bra component m.  Both components
    are monomials, so only the weight term theta^(k'-1-n) bartheta^(k'-1-m)
    reaches the top degree: the entry is its coefficient over
    sqrt([n]! [m]!).  The result must be the identity matrix; returning it
    (rather than asserting) lets the caller measure the residual.
    """
    dim = dfm.kprime**modes
    norm = 1.0 / np.sqrt(reduce(np.multiply.outer, [factorials(dfm)] * modes).ravel())
    flipped = weight(dfm, modes).coeffs.reshape(dim, dim)[::-1, ::-1]
    return FockOperator(dfm, modes, norm[:, None] * flipped * norm)


def _hankel_map(series: np.ndarray, before: np.ndarray | None, after: np.ndarray | None) -> tuple:
    """A map for ``gather_contract``, read-only: ``skew[i, p + kprime - 1]``,
    the flat index of entry (i, i + p) of a (kprime, kprime) axis pair, and
    of some entry of row i where i + p leaves 0..kprime-1; ``unskew[a *
    kprime + b]``, the flat index of cell (a, a - b) of that skewed layout;
    the Hankel matrix M[i, j] = series[i + j] of 2 kprime - 1 terms; the
    (kprime, kprime) scaling ``before`` M, or 1, in the skewed layout and 0
    off the axis pair; and the scaling ``after`` M as a column, or None."""
    kp = (len(series) + 1) // 2
    (i, p), j = np.ogrid[:kp, 1 - kp:kp], np.arange(kp)
    skew, inside = i * kp + (i + p).clip(0, kp - 1), (i + p >= 0) & (i + p < kp)
    before = inside * (1.0 if before is None else before.ravel()[skew])
    after = None if after is None else after.reshape(-1, 1)
    maps = (skew, (2 * kp * i + kp - 1 - j).ravel(), series[i + j], before[..., None], after)
    for table in maps:
        if table is not None:
            table.setflags(write=False)
    return maps


@lru_cache(maxsize=None)
def _quantize_gather(dfm: Deformation) -> tuple[np.ndarray, ...]:
    """The antinormal map as ``gather_contract`` reads it, cached: entry
    (n, m) is 1/S[n, m] times the sum over s of H[n, s] = [n+s]!, zero from
    n + s = kprime, times coefficient (s, s + n - m)."""
    kp, fac = dfm.kprime, factorials(dfm)  # first, as it refuses a k past the factorials' range
    return _hankel_map(np.concatenate([fac, np.zeros(kp - 1)]), None, 1.0 / factorial_roots(dfm))


@lru_cache(maxsize=None)
def _placement(dfm: Deformation, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The basis states as a (dim, d) array in ``basis_tuples`` order, and
    the place value kprime^(d-1-i) of mode i in a basis index: what term
    placement in ``quantize`` reads.  Cached per (dfm, d), read-only."""
    kp = dfm.kprime
    states = np.indices((kp,) * d).reshape(d, -1).T
    place = kp ** np.arange(d - 1, -1, -1)
    for table in (states, place):
        table.setflags(write=False)
    return states, place


def gather_contract(x: np.ndarray, skew: np.ndarray, unskew: np.ndarray, matrix: np.ndarray,
                    before: np.ndarray, after: np.ndarray | None) -> np.ndarray:
    """Apply a ``_hankel_map`` to every mode of each (kprime,) * 2d tensor in
    a stack (B,) + (kprime,) * 2d.  Mode i owns axes 1 + i and 1 + d + i.
    Its axis pair x is read skewed and scaled, X[i, p] = before[i, p] *
    x[i, i + p], then Y = matrix @ X and out[a, b] = after[a, b] *
    Y[a, a - b], or Y[a, a - b] if ``after`` is None.  The pair goes in
    front of the B axis and the other modes, so Y is one real GEMM on the
    real and imaginary parts of a block of those rows; the blocks keep each
    temporary within the stack or ``_PAIRS_PER_BLOCK``."""
    d, kp, pair = x.ndim // 2, x.shape[1], x.shape[1] ** 2
    rows = x.size // pair
    block = max(1, rows // kp, _PAIRS_PER_BLOCK // (kp * (2 * kp - 1)))
    # the last mode's pair in front: u_d, v_d, B, u_1, v_1, ..., u_(d-1), v_(d-1)
    out = x.transpose(d, 2 * d, 0, *itertools.chain(*zip(range(1, d), range(d + 1, 2 * d))))
    for i in range(d):
        if i:  # mode m = d - i in front of the modes done: u_m, v_m, u_(m+1), v_(m+1), ..., B, ...
            out = out.reshape(pair, -1, kp, kp).transpose(2, 3, 0, 1)
        flat = out.reshape(pair, rows)  # a view on one mode, a copy on several
        out = np.empty((pair, rows), dtype=complex)
        for lo in range(0, rows, block):  # one skewed block alive at a time
            part = flat[:, lo:lo + block].take(skew, axis=0).view(float)
            part *= before  # on the real and imaginary parts, as a real scaling rounds them
            y = (matrix @ part.reshape(kp, -1)).view(complex).reshape(skew.size, -1)
            y.take(unskew, axis=0, out=out[:, lo:lo + block], mode="clip")
        del flat
        if after is not None:
            np.multiply(out.view(float), after, out=out.view(float))
    # u_1, v_1, ..., u_d, v_d, B to B, u_1, ..., u_d, v_1, ..., v_d
    out = out.reshape((kp,) * (2 * d) + (-1,)).transpose(2 * d, *range(0, 2 * d, 2), *range(1, 2 * d, 2))
    return np.ascontiguousarray(out)


def _quantize_stack(dfm: Deformation, stack: np.ndarray, ordering: Ordering) -> np.ndarray:
    """The matrices, shape (B, dim, dim), of a stack of B coefficient tensors
    on the same modes; see ``quantize``.  The stack is placed term by term
    when it has at most B * dim terms, and gathered otherwise, so a stack
    of sparse symbols is as cheap as their terms."""
    batch, d, kp = stack.shape[0], stack.ndim // 2, dfm.kprime
    dim = kp**d
    # placing a term costs about dim entries, the GEMMs about 2 d k' dim^2 a symbol
    if ordering is Ordering.ANTINORMAL and np.count_nonzero(stack) > batch * dim:
        return gather_contract(stack, *_quantize_gather(dfm)).reshape(batch, dim, dim)
    fac = np.concatenate([factorials(dfm), np.zeros(kp - 1)])  # [n+s]!, zero from n + s = kprime
    roots = np.full((kp, 3 * kp - 2), np.inf)  # S, and +inf past either edge, where [n+s]! divides to +0
    roots[:, kp - 1:1 - kp] = factorial_roots(dfm)
    states, place = _placement(dfm, d)
    diag = states * (3 * kp - 1) + kp - 1  # S[n, n] in roots for each state and mode
    expo, coeffs = _nonzero(stack)
    theta, bar = expo[:, 1:d + 1], expo[:, d + 1:]
    shift = expo[:, 0] * dim**2 + (theta - bar) @ place  # from entry (n, n) of matrix 0 to the term's in row n
    flat = np.zeros(batch * dim * dim, dtype=complex)
    block = max(1, _PAIRS_PER_BLOCK // dim)
    for lo in range(0, len(coeffs), block):
        s, t = theta[lo:lo + block], bar[lo:lo + block]
        # (term, state) amplitude prod_i T[s_i, t_i, n_i] = prod_i [n_i+s_i]! / S[n_i, n_i+s_i-t_i]
        amp = reduce(np.multiply, (fac[si[:, None] + n] / roots.ravel()[(si - ti)[:, None] + c]
                                   for si, ti, n, c in zip(s.T, t.T, states.T, diag.T)))
        term, row = np.nonzero(amp)
        index = row * (dim + 1) + shift[lo:lo + block][term]
        vals = coeffs[lo + term] * amp[term, row]
        if ordering is not Ordering.ANTINORMAL:
            n, s, t = states[row], s[term], t[term]
            none = np.zeros_like(n)
            ket, sym, bra = np.hstack([n, none]), np.hstack([s, t]), np.hstack([none, n + s - t])
            w = np.tile(kp - 1 - n - s, 2)
            words = [ket, sym, w, bra] if ordering is Ordering.LEFT else [ket, w, sym, bra]
            e = sum(product_phase(sum(words[:j]), words[j]) for j in range(1, 4))
            vals *= q_powers(dfm)[e % kp]
        np.add.at(flat, index, vals)  # from +0, so no entry ends as -0
    return flat.reshape(batch, dim, dim)


def quantize(f: ParaPoly, ordering: Ordering | str = Ordering.ANTINORMAL) -> FockOperator:
    """Map a polynomial symbol to its matrix by coherent-state sandwiching.

    Entry (n, m) integrates ket_n * f * weight * bra_m.  For the
    antinormal ordering the whole kernel is merged by the phase-free
    prescription and factorizes over the modes, one Hankel GEMM a mode in
    ``gather_contract``; a symbol with at most dim terms is cheaper to
    place term by term.  For ``left``/``right`` the symbol is kept to the
    left / right of the weight and the kernel is reduced with genuine
    q-phases, which couple the modes, so each term is placed with its own
    phase.  See the module docstring.
    """
    if isinstance(ordering, str):
        ordering = Ordering(ordering)
    return FockOperator(f.dfm, f.d, _quantize_stack(f.dfm, f.coeffs[None], ordering)[0])


def _mode_operator(dfm: Deformation, modes: int, mode: int, band, offset: int = 0) -> FockOperator:
    """Kronecker embedding 1 (x) F (x) 1 of the single-mode factor F that holds
    ``band[n]`` at (n, n + offset), acting on the given mode.  Every nonzero
    entry is a copy of a ``band`` value, so no entry is a product with zero
    and every zero is +0."""
    if not 1 <= mode <= modes:
        raise ValueError(f"mode {mode} out of range 1..{modes}")
    kp = dfm.kprime
    inner = kp ** (modes - mode)
    diag = np.tile(np.repeat(np.asarray(band, dtype=complex), inner), kp ** (mode - 1))
    return FockOperator(dfm, modes, np.diag(diag[: diag.size - offset * inner], offset * inner))


def ladder(dfm: Deformation, modes: int = 1, mode: int = 1) -> FockOperator:
    """Closed-form quantization of theta_mode: lowers occupation ``mode`` by
    one with amplitude sqrt([n+1]).  Must coincide with
    ``quantize(theta_mode)``; that equality is part of ``verify_relations``.
    """
    roots = [math.sqrt(qnumber(n + 1, dfm)) for n in range(dfm.kprime - 1)] + [0.0]
    return _mode_operator(dfm, modes, mode, roots, offset=1)


def ladder_dag(dfm: Deformation, modes: int = 1, mode: int = 1) -> FockOperator:
    """Closed-form quantization of bartheta_mode: raises occupation ``mode``
    with amplitude sqrt([n+1]); the transpose of the real ``ladder``."""
    return FockOperator(dfm, modes, ladder(dfm, modes, mode).mat.T)


def number_operator(dfm: Deformation, modes: int = 1, mode: int = 1) -> FockOperator:
    """Diagonal occupation count of the given mode."""
    return _mode_operator(dfm, modes, mode, range(dfm.kprime))


def q_power_N(dfm: Deformation, modes: int = 1, sign: int = 1, mode: int = 1) -> FockOperator:
    """Diagonal matrix q**(sign * n_mode)."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return _mode_operator(dfm, modes, mode, _q_phases(dfm, sign))


def _q_phases(dfm: Deformation, sign: int) -> list[complex]:
    """q**(sign * n), n = 0..kprime-1; (sign * n) % k keeps the exponent >= 0, so n = 0 gives 1 + 0j, not 1 - 0j."""
    return [cmath.exp(2j * math.pi * ((sign * n) % dfm.k) / dfm.k) for n in range(dfm.kprime)]


def rescale_B(dfm: Deformation) -> tuple[FockOperator, FockOperator]:
    """Rescaled pair B = q^(N/2) A and B' = A' q^(N/2) (single mode).

    Straightens the two q-commutators into the single relation
    B B' - q^2 B' B = 1.
    """
    # Principal branch: q**(n/2) = exp(i*pi*n/k).
    half = np.diag([cmath.exp(1j * math.pi * n / dfm.k) for n in range(dfm.kprime)])
    low = ladder(dfm).mat
    return FockOperator(dfm, 1, half @ low), FockOperator(dfm, 1, low.T @ half)


def _diag_product(a: tuple, b: tuple) -> tuple:
    """The product AB of two n x n matrices that each hold one nonzero
    diagonal, of offset o, as (o, v) with v[r] = M[r, r + o] zero-padded to
    2n entries, so an index past the matrix, or below zero, reads 0: (AB)[r]
    = v_A[r] v_B[r + o_A], the one nonzero term of each entry of the dense
    product, so the bits are the dense product's."""
    (o, v), w, n = a, b[1], len(a[1]) // 2
    return o + b[0], np.concatenate([v[:n] * w[np.arange(n) + o], np.zeros(n)])


@lru_cache(maxsize=None)
def _ladder_powers(dfm: Deformation) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of the single-mode ladder powers, cached per deformation
    (read-only): ``lows[p, r] = (low^p)[r, r+p]`` and ``highs[p, r] =
    (high^p)[r, r-p]`` for p = 0..kprime, zero-padded to 2 kprime entries,
    in the (offset, vector) form of ``_diag_product``.  The products run in
    the order of ``np.linalg.matrix_power``, so every entry has the dense
    power's bits.
    """
    kp = dfm.kprime

    def power(a, n):  # numpy's order: a@a, (a@a)@a, then squares, least significant bit first
        if n < 4:
            return reduce(_diag_product, [a] * n) if n else (0, (np.arange(2 * kp) < kp).astype(complex))
        z = result = None
        while n:
            z = a if z is None else _diag_product(z, z)
            n, bit = divmod(n, 2)
            if bit:
                result = z if result is None else _diag_product(result, z)
        return result

    step = np.zeros(2 * kp, dtype=complex)
    step[:kp - 1] = ladder(dfm).mat.diagonal(1)  # high = low^T: the same values one row down
    tables = np.array([[power(a, p)[1] for p in range(kp + 1)] for a in ((1, step), (-1, np.roll(step, 1)))])
    tables.setflags(write=False)
    return tables[0], tables[1]


@dataclass
class RelationCheck:
    name: str
    residual: float
    passed: bool


class VerificationReport:
    """Named residuals from a family of identity checks at one tolerance.

    A check passes when its residual does not exceed the tolerance, which
    must be finite and non-negative.
    """

    def __init__(self, tolerance: float = 1e-10):
        self.tolerance = float(tolerance)
        if not 0.0 <= self.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
        self.checks: list[RelationCheck] = []

    def add(self, name: str, residual: float) -> "VerificationReport":
        r = float(residual)
        self.checks.append(RelationCheck(name, r, r <= self.tolerance))
        return self

    def extend(self, other: "VerificationReport") -> "VerificationReport":
        if other.tolerance != self.tolerance:
            raise ValueError("cannot merge reports with different tolerances")
        self.checks.extend(other.checks)
        return self

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "relations": [
                {"name": c.name, "residual": c.residual, "pass": c.passed} for c in self.checks
            ],
            "tolerance": self.tolerance,
        }

    def pretty_lines(self) -> list[str]:
        lines = [
            f"{c.name}: {'pass' if c.passed else 'FAIL'} (residual {c.residual:.3e})"
            for c in self.checks
        ]
        n_fail = sum(1 for c in self.checks if not c.passed)
        if n_fail:
            lines.append(f"{n_fail} of {len(self.checks)} relations FAILED (tolerance {self.tolerance:g})")
        else:
            lines.append(f"all {len(self.checks)} relations pass (tolerance {self.tolerance:g})")
        return lines

    def __repr__(self) -> str:
        status = "pass" if self.all_pass else "FAIL"
        return f"VerificationReport({len(self.checks)} checks, {status})"


def verify_relations(dfm: Deformation, modes: int = 1, tolerance: float = 1e-10) -> VerificationReport:
    """Check the oscillator algebra produced by quantization.

    One mode: the two q-deformed commutators with diagonal right-hand
    sides q^(-N) and q^(+N), the power homomorphism against direct
    quantization, exact nilpotency at order kprime, and hermiticity of the
    lowering/raising pair; the powers are the diagonals of
    ``_ladder_powers``, and theta^n and bartheta^n are quantized as one stack.
    Several modes: the per-mode commutators plus vanishing cross-mode
    commutators and the factorized quantization of two-mode monomials.
    Every ladder is one diagonal, ``_ladder_powers``' first row read at each
    basis state's n_i, multiplied by ``_diag_product``; a quantized image is
    compared through that one diagonal, so no dense product is built.
    """
    factorials(dfm)  # refuses k past the tables' float64 range before any matrix is built
    rep = VerificationReport(tolerance)
    kp, dim = dfm.kprime, dfm.kprime**modes
    lows, highs = _ladder_powers(dfm)
    states, place = _placement(dfm, modes)
    low = [(o, np.concatenate([lows[1][n], np.zeros(dim)])) for o, n in zip(place, states.T)]
    high = [(-o, np.concatenate([highs[1][n], np.zeros(dim)])) for o, n in zip(place, states.T)]
    phases = np.array([_q_phases(dfm, -1), _q_phases(dfm, 1)])

    def commutators(i):  # low@high - q high@low = q^(-n_i), then with conj(q) = q^(+n_i)
        lh, hl = _diag_product(low[i], high[i])[1][:dim], _diag_product(high[i], low[i])[1][:dim]
        return [np.abs(lh - hl * s - rhs[states[:, i]]).max() for s, rhs in zip((dfm.q, dfm.q.conjugate()), phases)]

    if modes == 1:
        # theta^n, then bartheta^n, for n = 1..kp-1 as one stack, less the
        # one diagonal of low^n and high^n; theta^kp quantizes to 0
        n = np.arange(1, kp)
        stack = np.zeros((2, kp - 1, kp, kp), dtype=complex)
        stack[0, n - 1, n, 0] = stack[1, n - 1, 0, n] = 1.0
        diff = _quantize_stack(dfm, stack.reshape(-1, kp, kp), Ordering.ANTINORMAL).reshape(stack.shape)
        i, r = np.nonzero(np.add.outer(n, np.arange(kp)) < kp)  # entry (r, r + n) of low^n, n = i + 1
        diff[0, i, r, r + i + 1] -= lows[i + 1, r]
        diff[1, i, r + i + 1, r] -= highs[i + 1, r + i + 1]
        res = np.abs(diff).max(axis=(2, 3))
        rep.add("quantize(theta) matches closed-form lowering", res[0, 0])
        rep.add("quantize(bartheta) matches closed-form raising", res[1, 0])
        for name, residual in zip(("q high@low = diag(q^-n)", "conj(q) high@low = diag(q^n)"), commutators(0)):
            rep.add(f"low@high - {name}", residual)
        rep.add(f"quantize(theta^n) = low^n and barred, n = 2..{kp}",
                np.max(res[:, 1:], initial=np.abs([lows[kp], highs[kp]]).max()))
        rep.add(f"low^{kp} = 0 exactly", np.abs(lows[kp]).max())  # no entry lies inside the matrix
        rep.add("raising = dagger(lowering)", np.abs(highs[1, 1:kp] - lows[1, :kp - 1].conj()).max())
        return rep

    def image_residuals(theta, offset, *diagonals):
        # max |Q - M| for Q the image of the monomial with exponents theta and each M = (offset, v):
        # Q's diagonal is read out and zeroed in place, so the rest of Q is scanned once
        image, r = quantize(ParaPoly.monomial(dfm, modes, theta, (0,) * modes)).mat, np.arange(dim - offset)
        diag = image[r, r + offset]
        image[r, r + offset] = 0
        rest = np.abs(image).max()
        return [np.maximum(rest, np.abs(diag - v[r]).max()) for v in diagonals]

    for i in range(1, modes + 1):
        for name, residual in zip((f"q high@low = diag(q^-n_{i})", f"conj(q) high@low = diag(q^n_{i})"),
                                  commutators(i - 1)):
            rep.add(f"mode {i}: low@high - {name}", residual)
        rep.add(f"mode {i}: quantize(theta_{i}) matches closed form",
                image_residuals(tuple(int(mode == i) for mode in range(1, modes + 1)), *low[i - 1])[0])
    for (i, ai, di), (j, aj, dj) in itertools.combinations(zip(range(1, modes + 1), low, high), 2):
        for x, y, a, b in (("low", "low", ai, aj), ("high", "high", di, dj), ("low", "high", ai, dj)):
            rep.add(f"[{x}_{i}, {y}_{j}] = 0", np.abs(_diag_product(a, b)[1] - _diag_product(b, a)[1]).max())
        (offset, ij), ji = _diag_product(ai, aj), _diag_product(aj, ai)[1]
        theta = tuple(int(mode in (i, j)) for mode in range(1, modes + 1))
        for (a, b), residual in zip(((i, j), (j, i)), image_residuals(theta, offset, ij, ji)):
            rep.add(f"quantize(theta_{i} theta_{j}) = low_{a}@low_{b}", residual)
    return rep


def check_kfermionic(dfm: Deformation, tolerance: float = 1e-10) -> VerificationReport:
    """Check the rescaled pair against the generalized-fermion algebra of
    order kprime.

    With f- = B, f+ = B', f+^+ = dagger(f+), f-^+ = dagger(f-) and N the
    occupation count, the defining relations split into three types:
    (i) the deformed commutator of (f-, f+) with unit right-hand side and
    the N-grading, (ii) the conjugated family, and (iii) the mixed
    relations, which involve a square root of the deformation parameter.
    Both branches of that square root are reported; the principal branch
    ``exp(i*pi/kprime)`` is the one that holds.
    """
    kp = dfm.kprime
    qF = cmath.exp(2j * math.pi / kp)
    f_minus, f_plus = (op.mat for op in rescale_B(dfm))
    ops = np.stack([f_minus, f_plus, f_plus.conj().T, f_minus.conj().T, number_operator(dfm).mat])
    one, zero = np.eye(kp), np.zeros((kp, kp))
    # (name, a, b, c, d, s, rhs): ops[a] ops[b] - ops[c] ops[d] s = rhs, with
    # ops f-, f+, f+^+, f-^+, N; the scalar stays on the right, as rounding may
    # differ with the order of the factors
    relations = [
        ("(i) f- f+ - qF f+ f- = 1", 0, 1, 1, 0, qF, one),
        ("(i) [N, f-] = -f-", 4, 0, 0, 4, 1, -ops[0]),
        ("(i) [N, f+] = +f+", 4, 1, 1, 4, 1, ops[1]),
        ("(ii) f+^+ f-^+ - conj(qF) f-^+ f+^+ = 1", 2, 3, 3, 2, qF.conjugate(), one),
        ("(ii) [N, f+^+] = -f+^+", 4, 2, 2, 4, 1, -ops[2]),
        ("(ii) [N, f-^+] = +f-^+", 4, 3, 3, 4, 1, ops[3]),
    ]
    principal = cmath.exp(1j * math.pi / kp)
    for branch, label in ((principal, "principal"), (-principal, "negated")):
        relations += [(f"(iii) f- f+^+ = qF^-1/2 f+^+ f- [{label} branch]", 0, 2, 2, 0, 1.0 / branch, zero),
                      (f"(iii) f+ f-^+ = qF^+1/2 f-^+ f+ [{label} branch]", 1, 3, 3, 1, branch, zero)]
    names, a, b, c, d, s, rhs = zip(*relations)
    prod = ops[list(a + c)] @ ops[list(b + d)]
    lhs = prod[:len(names)] - prod[len(names):] * np.array(s)[:, None, None]
    checks = list(zip(names, np.abs(lhs - np.array(rhs)).max(axis=(1, 2))))
    powers = [f"(i) f-^{kp} = 0", f"(i) f+^{kp} = 0", f"(ii) (f+^+)^{kp} = 0", f"(ii) (f-^+)^{kp} = 0"]
    nil = list(zip(powers, np.abs(np.linalg.matrix_power(ops[:4], kp)).max(axis=(1, 2))))
    rep = VerificationReport(tolerance)
    for name, residual in checks[:3] + nil[:2] + checks[3:6] + nil[2:] + checks[6:]:
        rep.add(name, residual)
    return rep


def check_ordering_products(dfm: Deformation, tolerance: float = 1e-10) -> VerificationReport:
    """Check the left/right-ordered quantizations of the two generators and
    all six of their first-order products against their closed diagonal
    forms (single mode)."""
    kp = dfm.kprime
    q_k = dfm.q_k
    # theta, then bartheta, as one stack per ordering
    generators = np.stack([ParaPoly.generator(dfm, 1, 1, barred).coeffs for barred in (False, True)])
    (a_N, b_N), (a_L, b_L), (a_R, b_R) = (_quantize_stack(dfm, generators, o) for o in Ordering)
    roots = [math.sqrt(qnumber(n + 1, dfm)) for n in range(kp - 1)]
    twisted = [roots[n] * q_k ** (n + 2) for n in range(kp - 1)]
    names = ["left-ordered lowering = antinormal lowering", "right-ordered raising = antinormal raising",
             "left-ordered lowering matches sqrt([n+1]) superdiag",
             "right-ordered lowering matches sqrt([n+1]) q_k^(n+2) superdiag",
             "right-ordered raising matches sqrt([n+1]) subdiag",
             "left-ordered raising matches sqrt([n+1]) q_k^(n+2) subdiag"]
    lhs = [a_L, b_R, a_L, a_R, b_R, b_L]
    rhs = [a_N, b_N, np.diag(roots, 1), np.diag(twisted, 1), np.diag(roots, -1), np.diag(twisted, -1)]
    # (name, left, right, shift, slope, offset): left @ right = diag([n+shift] q_k^(slope*n + offset))
    products = [
        ("L(th)@R(bth) = diag([n+1])", a_L, b_R, 1, 0, 0),
        ("L(th)@L(bth) = diag([n+1] q_k^(n+2))", a_L, b_L, 1, 1, 2),
        ("R(th)@R(bth) = diag([n+1] q_k^(n+2))", a_R, b_R, 1, 1, 2),
        ("R(th)@L(bth) = diag([n+1] q_k^(2n+4))", a_R, b_L, 1, 2, 4),
        ("R(bth)@L(th) = diag([n])", b_R, a_L, 0, 0, 0),
        ("R(bth)@R(th) = diag([n] q_k^(n+1))", b_R, a_R, 0, 1, 1),
        ("L(bth)@L(th) = diag([n] q_k^(n+1))", b_L, a_L, 0, 1, 1),
        ("L(bth)@R(th) = diag([n] q_k^(2n+2))", b_L, a_R, 0, 2, 2),
    ]
    label, left, right, shift, slope, offset = zip(*products)
    shift, slope, offset = np.array([shift, slope, offset])[:, :, None]
    nums = np.array([qnumber(n, dfm) for n in range(kp + 1)])
    n = np.arange(kp)
    diags = np.zeros((len(products), kp, kp), dtype=complex)
    diags[:, n, n] = nums[n + shift] * q_k ** (slope * n + offset)
    lhs = np.concatenate([lhs, np.array(left) @ np.array(right)])
    rep = VerificationReport(tolerance)
    for name, residual in zip(names + list(label), np.abs(lhs - np.concatenate([rhs, diags])).max(axis=(1, 2))):
        rep.add(name, residual)
    return rep


def check_mixed_quantization(dfm: Deformation, tolerance: float = 1e-10) -> VerificationReport:
    """Check the closed forms for mixed monomials theta^n bartheta^m against
    direct quantization and against ordered operator products, plus the
    commutator expansion of [low^n, high^m] into nested first-order
    commutators (single mode).

    Every matrix here has one nonzero diagonal, held and multiplied as in
    ``_diag_product``, broadcast over (n, m, r), so each product has the
    dense product's bits; the powers are those of ``_ladder_powers``.  The
    closed forms and both products are (n, m, r) arrays; the images of the
    monomials are one quantized stack of the kprime symbols
    theta^n sum_m bartheta^m, whose terms fall on kprime distinct
    diagonals.  Only the nested sum S(n, m) = sum_(s<n) low^s I_m
    low^(n-1-s) goes n by n, as S(n+1) = low S(n) + I low^n, over
    I_m = sum_(r<m) high^r [low, high] high^(m-1-r), built by
    I_(m+1) = high I_m + [low, high] high^m.
    """
    kp = dfm.kprime
    rep = VerificationReport(tolerance)
    lows, highs = _ladder_powers(dfm)
    n, (m, r) = np.arange(kp)[:, None, None], np.ogrid[:kp, :kp]
    col = r + n - m  # theta^n bartheta^m sends row r to column r + n - m
    stack = np.zeros((kp, kp, kp), dtype=complex)
    stack[range(kp), range(kp)] = 1.0  # theta^n sum_m bartheta^m
    fac = np.concatenate([factorials(dfm), np.ones(kp)])  # the ones are read only where masked out
    closed = np.where((r + n < kp) & (col >= 0), fac[r + n] / factorial_roots(dfm)[r, col % kp], 0.0)
    # each residual as soon as its operands exist, so few (kp, kp, kp) arrays live at once; a
    # column past the matrix wraps onto a diagonal no monomial of that n reaches: zero
    res_direct = np.abs(_quantize_stack(dfm, stack, Ordering.ANTINORMAL)[n, r, col % kp] - closed).max()
    l = r - m  # high^m @ low^n: row l + m -> l + n for 0 <= l < kp - max(n, m)
    reverse = highs[m, r] * lows[n, l]
    rev = np.where((l >= 0) & (col < kp), np.sqrt((fac[l + n] / fac[l]) * (fac[r] / fac[l])), 0.0)
    res_reverse = np.abs(reverse - rev).max()
    forward = lows[n, r] * highs[m, r + n]
    res_forward = np.abs(closed - forward).max()
    r = r[0]
    base = lows[1, r] * highs[1, r + 1] - highs[1, r] * lows[1, r - 1]  # [low, high]
    inner = np.zeros((kp, kp + 1), dtype=complex)  # I_m in row r at column r + 1, after a zero
    for j in range(1, kp):
        inner[j, 1:] = highs[1, :kp] * inner[j - 1, :kp] + base * highs[j - 1, :kp]
    # shifted[i, m, r] = lows[i, r + 1 - m], zero where that column is negative
    shifted = sliding_window_view(np.pad(lows, ((0, 0), (kp, 0))), kp, axis=1)[:, kp + 1:1:-1]
    nested = np.zeros_like(inner)  # S(n, m) in row r, for the current n, then a zero
    res_comm = []
    for i in range(kp):
        res_comm.append(np.abs(forward[i] - reverse[i] - nested[:, :kp]).max())
        nested[:, :kp] = lows[1, :kp] * nested[:, 1:] + inner[:, 1:] * shifted[i]
    rep.add("closed mixed form = quantize(theta^n bartheta^m), all n,m", res_direct)
    rep.add("closed mixed form = low^n @ high^m, all n,m", res_forward)
    rep.add("reversed product high^m @ low^n matches its closed form, all n,m", res_reverse)
    rep.add("[low^n, high^m] = nested first-order commutator sum, all n,m", np.max(res_comm))
    return rep


def _trial_chunks(dfm: Deformation, trials: int) -> list[int]:
    """Sizes of the chunks a sampled check runs its trials in, each quantized
    as one stack: at most ``_PAIRS_PER_BLOCK // kprime^2`` trials, so memory
    does not grow with ``trials``."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    step = max(1, _PAIRS_PER_BLOCK // dfm.kprime**2)
    return [min(step, trials - lo) for lo in range(0, trials, step)]


def hermiticity_residual(dfm: Deformation, trials: int = 100, seed: int = 0) -> float:
    """Worst deviation of quantize(conjugate(f)) from dagger(quantize(f))
    over random single-mode symbols, drawn one chunk per call, in per-trial
    order, and quantized a chunk at a time, each chunk of f and
    conjugate(f) as one stack.  On one mode conjugation carries no phase:
    it conjugates the coefficients and swaps the two exponents."""
    rng = np.random.default_rng(seed)
    worst = []
    for size in _trial_chunks(dfm, trials):
        f = _draw_trials(dfm, rng, size)
        stack = np.concatenate([f, f.transpose(0, 2, 1).conj()])  # f, then conjugate(f)
        mats = _quantize_stack(dfm, stack, Ordering.ANTINORMAL)
        worst.append(np.abs(mats[size:] - mats[:size].conj().transpose(0, 2, 1)).max())
    return float(np.max(worst))  # a NaN chunk stays NaN


def operator_to_dict(op: FockOperator) -> dict:
    """JSON-ready form: ``{"k", "d", "dim", "rows"}`` with complex entries
    as ``{"re", "im"}`` objects."""
    rows = [
        [{"re": float(v.real), "im": float(v.imag)} for v in row] for row in op.mat
    ]
    return {"k": op.dfm.k, "d": op.d, "dim": op.dim, "rows": rows}


def operator_from_dict(obj: dict) -> FockOperator:
    """Inverse of ``operator_to_dict`` with shape validation."""
    from .qnum import deformation

    try:
        k, d, dim = (_json_int(obj[field], field) for field in ("k", "d", "dim"))
        rows = obj["rows"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    dfm = deformation(k)
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    check_size(dfm, d)  # in log2, before kprime**d is computed
    if dim != dfm.kprime**d:
        raise ValueError(f"dim {dim} does not match (k/2)^d = {dfm.kprime ** d}")
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ValueError("rows do not form a dim x dim matrix")
    try:
        mat = [[complex(float(v["re"]), float(v["im"])) for v in row] for row in rows]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix entry: {exc}") from exc
    mat = np.asarray(mat, dtype=complex)
    if not np.isfinite(mat).all():
        raise ValueError("matrix entries must be finite")
    return FockOperator(dfm, d, mat)
