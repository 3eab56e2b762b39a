"""Canonical-form arithmetic for multi-mode nilpotent q-commuting variables.

The algebra on ``d`` modes is generated by ``theta_1 .. theta_d`` and their
conjugates ``bartheta_1 .. bartheta_d``.  Every generator is nilpotent of
order ``kprime``, and generators q-commute:

    theta_i bartheta_i = q_k bartheta_i theta_i                 (same mode)
    x_i y_j = q_k**(a*b) y_j x_i        for modes i < j         (cross mode)

where ``a`` (resp. ``b``) is +1 when the left (resp. right) factor is
unbarred and -1 when it is barred.  Canonical word order puts every
unbarred generator before every barred one, each group sorted by
increasing mode index; a canonical monomial is its exponent row
``(theta_1 .. theta_d, bar_1 .. bar_d)``.

Two products coexist and must never be conflated:

* ``multiply`` is the algebra product.  The relations above reduce to one
  rule on canonical monomials, a truncated quantum plane:

      x^a x^b = q_k**(a^T W b) x^(a + b),  zero once an exponent reaches kprime,

  with W = ``phase_matrix(d)``.  ``product_phase`` evaluates a^T W b; the
  involution ``ParaPoly.conjugate`` and the left/right orderings of
  ``quantize`` read the same W.
* ``multiply_prescription`` is the phase-free ordering rule used inside
  integral kernels (products written between ordering colons): exponents
  add, the coefficients just multiply, and the written order is forgotten.
"""

from __future__ import annotations

import math
import os
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache, reduce
from types import MappingProxyType

import numpy as np

from .qnum import Deformation, factorials

__all__ = [
    "FactorWord",
    "ParaPoly",
    "phase_matrix",
    "product_phase",
    "q_powers",
    "canonicalize_q",
    "multiply",
    "multiply_prescription",
    "berezin_full_integral",
    "berezin_prescription_product",
    "weight",
    "inner_product",
    "pseudo_norm_sq",
    "random_poly",
    "poly_to_dict",
    "poly_from_dict",
    "check_size",
]

# Most pairs handled at once: term pairs in ``multiply``, (term, basis state)
# pairs and gathered entries in ``quantize``; memory stays O(block + output).
_PAIRS_PER_BLOCK = 1 << 13


def check_size(dfm: Deformation, modes: int) -> None:
    """Refuse a dense (k/2)^modes square complex matrix larger than physical
    memory; a coefficient tensor on ``modes`` modes has as many entries.
    Compared in log2, so a huge ``modes`` costs nothing."""
    kp = dfm.kprime
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if modes >= 1 and 4 + 2 * modes * math.log2(kp) > math.log2(memory):  # 16 bytes an entry
        raise ValueError(f"a {kp}^{modes} x {kp}^{modes} complex matrix exceeds {memory / 2**30:.1f} GiB of memory")


@dataclass(frozen=True)
class FactorWord:
    """Ordered product of generators with a scalar prefactor.

    ``factors`` is a sequence of ``(mode, barred)`` pairs with 1-based mode
    indices; ``(2, True)`` is bartheta_2.  The word represents
    ``scalar * f_1 f_2 ... f_n`` read left to right.
    """

    factors: tuple[tuple[int, bool], ...]
    scalar: complex = 1.0 + 0.0j


@lru_cache(maxsize=None)
def phase_matrix(d: int) -> np.ndarray:
    """Integer matrix W of x^a x^b = q_k**(a^T W b) x^(a + b) on ``d`` modes.

    Rows index the left exponent row, columns the right one.  Joining two
    canonical words leaves three kinds of pairs out of order, each swapped
    once: a left theta_i before a right theta_j with i > j (q_k^-1), a left
    bartheta_i before a right theta_j (q_k^-1 if i <= j, else q_k), and a
    left bartheta_i before a right bartheta_j with i > j (q_k^-1).  W is
    strictly lower triangular in canonical order.  Cached, read-only.
    """
    later = np.tril(np.ones((d, d), dtype=np.int64), -1)  # later[i, j] = 1 when i > j
    w = np.block([[-later, np.zeros_like(later)], [2 * later - 1, -later]])
    w.setflags(write=False)
    return w


def product_phase(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exponent e = a^T W b of x^a x^b = q_k^e x^(a + b), row by row, for
    exponent rows a = ``x`` and b = ``y`` stacked along the last axis as
    ``(theta_1..theta_d, bar_1..bar_d)``."""
    return ((x @ phase_matrix(x.shape[-1] // 2)) * y).sum(-1)


@lru_cache(maxsize=None)
def q_powers(dfm: Deformation) -> np.ndarray:
    """``q_k**e`` for e = 0 .. kprime - 1; q_k is a primitive kprime-th root
    of unity, so index with ``e % kprime``.  Cached, read-only."""
    out = np.exp(2j * np.pi * np.arange(dfm.kprime) / dfm.kprime)
    out.setflags(write=False)
    return out


class ParaPoly:
    """Polynomial in the nilpotent q-commuting generators, stored canonically.

    ``coeffs`` is a read-only complex array of shape ``(kprime,) * 2d``
    whose entry ``[a_1 .. a_d, b_1 .. b_d]`` is the coefficient of the word
    theta_1^a1 .. theta_d^ad bartheta_1^b1 .. bartheta_d^bd; it has as many
    entries as the quantized matrix.  The constructor copies such an array
    or reads a dict ``{(theta, bar): c}``.  No coefficient is pruned,
    however small: a tiny upper-symbol coefficient can still multiply a
    matrix entry of order [k'-1]!.  A non-finite one raises ``ValueError``.
    """

    __slots__ = ("dfm", "d", "coeffs")

    def __init__(self, dfm: Deformation, d: int, terms: dict | np.ndarray | None = None):
        if d < 1:
            raise ValueError(f"mode count must be >= 1, got {d}")
        if isinstance(terms, np.ndarray):  # allocated already, so no size guard
            if terms.ndim != 2 * d or terms.shape != (dfm.kprime,) * terms.ndim:
                raise ValueError(f"coefficient array of shape {terms.shape}, expected ({dfm.kprime},) * {2 * d}")
            coeffs = np.array(terms, dtype=complex, order="C")
        else:
            check_size(dfm, d)
            coeffs = np.zeros((dfm.kprime,) * (2 * d), dtype=complex)
            for (theta, bar), c in (terms or {}).items():
                key = tuple(theta) + tuple(bar)
                if len(theta) != d or len(bar) != d:
                    raise ValueError(f"monomial arity {len(theta)}/{len(bar)} does not match d={d}")
                if any(not 0 <= p < dfm.kprime for p in key):
                    raise ValueError(f"exponents must lie in 0..{dfm.kprime - 1}: {(theta, bar)}")
                coeffs[key] = complex(c)
        if not np.isfinite(coeffs).all():
            raise ValueError(f"non-finite coefficient at {np.argwhere(~np.isfinite(coeffs))[0].tolist()}")
        coeffs.setflags(write=False)
        self.dfm = dfm
        self.d = d
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dfm: Deformation, d: int = 1) -> "ParaPoly":
        return cls(dfm, d, {})

    @classmethod
    def constant(cls, dfm: Deformation, d: int, value: complex) -> "ParaPoly":
        return cls.monomial(dfm, d, (0,) * d, (0,) * d, value)

    @classmethod
    def unit(cls, dfm: Deformation, d: int = 1) -> "ParaPoly":
        return cls.constant(dfm, d, 1.0)

    @classmethod
    def generator(cls, dfm: Deformation, d: int, mode: int, barred: bool = False) -> "ParaPoly":
        if not 1 <= mode <= d:
            raise ValueError(f"mode {mode} out of range 1..{d}")
        theta = [0] * d
        bar = [0] * d
        (bar if barred else theta)[mode - 1] = 1
        return cls(dfm, d, {(tuple(theta), tuple(bar)): 1.0 + 0.0j})

    @classmethod
    def monomial(cls, dfm: Deformation, d: int, theta, bar, coeff: complex = 1.0) -> "ParaPoly":
        return cls(dfm, d, {(tuple(theta), tuple(bar)): complex(coeff)})

    # -- basic queries -------------------------------------------------

    @property
    def terms(self) -> Mapping:
        """Read-only view ``{(theta, bar): c}`` of the nonzero coefficients:
        tuples of Python ints, in row-major order, which is sorted order."""
        d = self.d
        rows, vals = _nonzero(self.coeffs)
        return MappingProxyType({(tuple(r[:d]), tuple(r[d:])): c for r, c in zip(rows.tolist(), vals.tolist())})

    def coefficient(self, theta, bar) -> complex:
        """One entry of ``coeffs``; 0 for a key of the wrong arity or out of range."""
        key = tuple(theta) + tuple(bar)
        inside = len(theta) == len(bar) == self.d and all(0 <= p < self.dfm.kprime for p in key)
        return complex(self.coeffs[key]) if inside else 0.0 + 0.0j

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool((np.abs(self.coeffs) <= tol).all())

    def _check_compatible(self, other: "ParaPoly") -> None:
        if self.dfm != other.dfm:
            raise ValueError(f"deformation mismatch: k={self.dfm.k} vs k={other.dfm.k}")
        if self.d != other.d:
            raise ValueError(f"mode count mismatch: d={self.d} vs d={other.d}")

    # -- linear structure ----------------------------------------------

    def __add__(self, other: "ParaPoly") -> "ParaPoly":
        if not isinstance(other, ParaPoly):
            return NotImplemented
        self._check_compatible(other)
        return ParaPoly(self.dfm, self.d, self.coeffs + other.coeffs)

    def __sub__(self, other: "ParaPoly") -> "ParaPoly":
        if not isinstance(other, ParaPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ParaPoly":
        return ParaPoly(self.dfm, self.d, -self.coeffs)

    def scale(self, value: complex) -> "ParaPoly":
        return ParaPoly(self.dfm, self.d, complex(value) * self.coeffs)

    def __mul__(self, other):
        if isinstance(other, ParaPoly):
            return multiply(self, other)
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            # Scalars commute with everything, so left and right agree.
            return self.scale(other)
        return NotImplemented

    # -- involution ------------------------------------------------------

    def conjugate(self) -> "ParaPoly":
        """Antilinear involution: conjugate coefficients, bar-toggle every
        factor and reverse the word.  c theta^a bartheta^b becomes
        conj(c) q_k^e theta^b bartheta^a: the reversed word is
        theta_d^b_d .. theta_1^b_1 bartheta_d^a_d .. bartheta_1^a_1, and
        sorting each block back into increasing mode order gives
        e = -sum_{i>j} (a_i a_j + b_i b_j), the quadratic forms of the two
        diagonal blocks of ``phase_matrix``; it is symmetric in (a, b).  On a
        single mode e = 0, so theta^s bartheta^t maps to theta^t bartheta^s
        with no phase.
        """
        d = self.d
        swapped = self.coeffs.transpose(*range(d, 2 * d), *range(d))
        return ParaPoly(self.dfm, d, swapped.conj() * _conjugation_phase(self.dfm, d))

    # -- comparison helpers ----------------------------------------------

    def distance(self, other: "ParaPoly") -> float:
        """Largest coefficient difference over all monomials."""
        self._check_compatible(other)
        return float(np.abs(self.coeffs - other.coeffs).max())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParaPoly):
            return NotImplemented
        return self.dfm == other.dfm and self.d == other.d and bool(np.array_equal(self.coeffs, other.coeffs))

    __hash__ = None

    def __repr__(self) -> str:
        names = [f"th{i + 1}" for i in range(self.d)] + [f"bth{i + 1}" for i in range(self.d)]
        parts = []
        for (theta, bar), c in self.terms.items():
            gens = [name + (f"^{p}" if p > 1 else "") for name, p in zip(names, theta + bar) if p]
            parts.append(f"({c:.4g})*{'*'.join(gens) or '1'}")
        return f"ParaPoly(k={self.dfm.k}, d={self.d}: {' + '.join(parts) or '0'})"


def _nonzero(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exponent rows (terms, 2d) of the nonzero entries, row-major, and their values."""
    rows = np.argwhere(coeffs)
    return rows, coeffs[tuple(rows.T)]


@lru_cache(maxsize=None)
def _conjugation_phase(dfm: Deformation, d: int) -> np.ndarray:
    """q_k^e at every exponent row (a, b), with e = -sum_{i>j} (a_i a_j +
    b_i b_j) as in ``ParaPoly.conjugate``.  Cached, read-only."""
    shape, w = (dfm.kprime,) * (2 * d), phase_matrix(d)
    theta, bar = np.indices(shape).reshape(2, d, -1).transpose(0, 2, 1)  # exponent rows
    e = ((theta @ w[:d, :d]) * theta).sum(-1) + ((bar @ w[d:, d:]) * bar).sum(-1)
    out = q_powers(dfm)[e % dfm.kprime].reshape(shape)
    out.setflags(write=False)
    return out


def canonicalize_q(word: FactorWord, dfm: Deformation, modes: int | None = None) -> ParaPoly:
    """Reduce a factor word to canonical form: its scalar times the algebra
    product of its generators, left to right.  Zero once any generator
    power reaches ``kprime``."""
    d = modes if modes is not None else max((mode for mode, _ in word.factors), default=1)
    out = ParaPoly.constant(dfm, d, word.scalar)
    for mode, barred in word.factors:
        out = multiply(out, ParaPoly.generator(dfm, d, mode, barred))
    return out


def multiply(p1: ParaPoly, p2: ParaPoly) -> ParaPoly:
    """Algebra product, bilinear over term pairs: x^a x^b = q_k**(a^T W b)
    x^(a + b), with pairs whose exponent sum reaches ``kprime`` dropped.
    Order matters."""
    return _pair_product(p1, p2, twisted=True)


def multiply_prescription(p1: ParaPoly, p2: ParaPoly) -> ParaPoly:
    """Phase-free product used inside integral kernels: exponents add, the
    coefficients just multiply, overflowing monomials drop out."""
    return _pair_product(p1, p2, twisted=False)


def _pair_product(p1: ParaPoly, p2: ParaPoly, twisted: bool) -> ParaPoly:
    """Sum over the admissible pairs of terms, times their phase when
    ``twisted``: every pair of ``_pair_table`` while it exists, zeros
    included (a zero pair adds an exact zero to a sum that never reads -0,
    so the bytes equal those of the nonzero pairs alone), else
    ``_admissible_pairs`` of the nonzero terms."""
    p1._check_compatible(p2)
    dfm, d, c1, c2 = p1.dfm, p1.d, p1.coeffs.ravel(), p2.coeffs.ravel()
    out = np.zeros(c1.size, dtype=complex)
    table = _pair_table(dfm, d)
    blocks = [table] if table is not None else _admissible_pairs(dfm, d, c1.nonzero()[0], c2.nonzero()[0])
    for i, j, target, phase in blocks:
        vals = c1[i] * c2[j]
        np.add.at(out, target, vals * phase if twisted else vals)
    return ParaPoly(dfm, d, out.reshape(p1.coeffs.shape))


def _admissible_pairs(dfm: Deformation, d: int, fx: np.ndarray, fy: np.ndarray):
    """Blocks ``(i, j, i + j, q_k**(a^T W b))`` of the pairs of flat indices
    i in ``fx`` and j in ``fy`` of the (kprime,)^2d tensor whose exponent
    rows a and b add up to less than ``kprime`` on every axis, in row-major
    (i, j) order.  A block holds at most ``_PAIRS_PER_BLOCK // len(fy)``
    left indices, so memory stays O(block)."""
    kp, shape = dfm.kprime, (dfm.kprime,) * (2 * d)
    x, y = np.array(np.unravel_index(fx, shape)), np.array(np.unravel_index(fy, shape))  # one column per index
    small = np.min_scalar_type(kp - 1)  # the pair test reads 2d bytes per pair, not 16d
    room, right, xw = (kp - 1 - x).astype(small), y.astype(small), phase_matrix(d).T @ x
    block = max(1, _PAIRS_PER_BLOCK // max(len(fy), 1))
    for lo in range(0, len(fx), block):
        i, j = np.nonzero((right[:, None, :] <= room[:, lo:lo + block, None]).all(0))
        i += lo
        yield fx[i], fy[j], fx[i] + fy[j], q_powers(dfm)[(xw[:, i] * y[:, j]).sum(0) % kp]


@lru_cache(maxsize=None)
def _pair_table(dfm: Deformation, d: int) -> tuple[np.ndarray, ...] | None:
    """``_admissible_pairs`` over the whole (kprime,)^2d tensor, in one
    block: arrays ``(i, j, target, phase)``.  None when there are more than
    ``_PAIRS_PER_BLOCK`` pairs, (k'(k'+1)/2)^2d, since the table grows as
    the square of the tensor.  Cached, read-only."""
    kp = dfm.kprime
    if (kp * (kp + 1) // 2) ** (2 * d) > _PAIRS_PER_BLOCK:
        return None
    every = np.arange(kp ** (2 * d))
    table = tuple(np.concatenate(a) for a in zip(*_admissible_pairs(dfm, d, every, every)))
    for a in table:
        a.setflags(write=False)
    return table


def berezin_full_integral(p: ParaPoly) -> complex:
    """Top-coefficient extraction: the integral over every generator pair.

    Returns the coefficient of theta_1^(k'-1) .. theta_d^(k'-1)
    bartheta_1^(k'-1) .. bartheta_d^(k'-1), the last entry of the
    coefficient tensor; all lower monomials integrate to zero.
    """
    return complex(p.coeffs.flat[-1])


def berezin_prescription_product(p1: ParaPoly, p2: ParaPoly) -> complex:
    """``berezin_full_integral(multiply_prescription(p1, p2))`` without
    building the product: monomials pair exactly when their exponents are
    complementary, and complementing every exponent of a row-major tensor
    reverses its flat order."""
    p1._check_compatible(p2)
    return complex(p1.coeffs.ravel() @ p2.coeffs.ravel()[::-1])


@lru_cache(maxsize=None)
def weight(dfm: Deformation, modes: int = 1) -> ParaPoly:
    """Weight polynomial making the coherent-state resolution of unity exact.

    One mode:  sum over n of [n]! theta^(k'-1-n) bartheta^(k'-1-n).
    d modes:   product form, one factorial factor per mode, with the
    monomial written in canonical order.  Treat the returned polynomial as
    read-only (it is cached).
    """
    kp = dfm.kprime
    diagonal = reduce(np.multiply.outer, [factorials(dfm)[::-1]] * modes).ravel()
    return ParaPoly(dfm, modes, np.diag(diagonal).reshape((kp,) * (2 * modes)))


def inner_product(v: ParaPoly, v2: ParaPoly) -> complex:
    """Sesquilinear pairing: integrate conjugate(v) * v2 * weight after
    ordering the kernel by the phase-free prescription.

    Antilinear in ``v``, linear in ``v2``.  Only defined on one mode; the
    multi-mode pairing is not part of the calculus.
    """
    v._check_compatible(v2)
    if v.d != 1:
        raise ValueError("inner product is defined for single-mode polynomials only")
    kernel = multiply_prescription(v.conjugate(), v2)
    return berezin_prescription_product(kernel, weight(v.dfm, 1))


def pseudo_norm_sq(v: ParaPoly) -> complex:
    """``inner_product(v, v)``.  Real and non-negative on the span of
    {1, theta^n, bartheta^n}; indefinite on mixed monomials."""
    return inner_product(v, v)


def random_poly(dfm: Deformation, rng, modes: int = 1, full: bool = True) -> ParaPoly:
    """Random polynomial with coefficients uniform in [-1, 1]^2.

    ``full=True`` fills every monomial; otherwise only the subspace
    spanned by 1, theta_i^n and bartheta_i^n (the positive-norm sector),
    drawn in the order 1, then theta_i^n, bartheta_i^n for each i and n.
    """
    kp = dfm.kprime
    shape = (kp,) * (2 * modes)
    if full:
        return ParaPoly(dfm, modes, _full_draw(dfm, rng, modes)[0])
    draws = rng.uniform(-1.0, 1.0, (1 + 2 * modes * (kp - 1), 2)).view(complex)[:, 0]
    coeffs = np.zeros(shape, dtype=complex)
    coeffs[(0,) * (2 * modes)] = draws[0]
    sector = draws[1:].reshape(modes, kp - 1, 2)
    for i in range(modes):
        for barred in (0, 1):
            where = [0] * (2 * modes)
            where[barred * modes + i] = slice(1, None)
            coeffs[tuple(where)] = sector[i, :, barred]
    return ParaPoly(dfm, modes, coeffs)


def _full_draw(dfm: Deformation, rng, modes: int, lead: tuple[int, ...] = (), extra: int = 0):
    """``random_poly``'s full draw for a ``lead``-shaped stack of
    polynomials, in one ``rng.uniform`` call: per polynomial a (re, im) pair
    for every monomial, exponent grid in C order, then ``extra`` further
    uniforms.  Returns the coefficient stack and the (lead + (extra,))
    further draws."""
    shape = (dfm.kprime,) * (2 * modes)
    pairs = 2 * dfm.kprime ** (2 * modes)
    draws = rng.uniform(-1.0, 1.0, lead + (pairs + extra,))
    return draws[..., :pairs].reshape(lead + shape + (2,)).view(complex)[..., 0], draws[..., pairs:]


def _draw_trials(dfm: Deformation, rng, size: int, matrices: bool = False):
    """The random inputs of ``size`` trials of a sampled check, in one
    ``rng.uniform`` call and in per-trial order: a trial draws a full
    single-mode symbol f as ``random_poly`` does, and with ``matrices``
    then a matrix A as its real part, then its imaginary part.  Returns the
    (size, kprime, kprime) stack of f, or the stacks of f and A."""
    kp2 = dfm.kprime**2
    f, rest = _full_draw(dfm, rng, 1, (size,), 2 * kp2 if matrices else 0)
    if not matrices:
        return f
    return f, (rest[:, :kp2] + 1j * rest[:, kp2:]).reshape(size, dfm.kprime, dfm.kprime)


def poly_to_dict(p: ParaPoly) -> dict:
    """JSON-ready form: ``{"k", "d", "terms": [{"theta", "bar", "re", "im"}]}``
    with terms sorted by monomial key for stable output."""
    terms = [{"theta": list(t), "bar": list(b), "re": c.real, "im": c.imag} for (t, b), c in p.terms.items()]
    return {"k": p.dfm.k, "d": p.d, "terms": terms}


def _json_int(value, field: str) -> int:
    """``value`` as an int if it is a JSON integer; a float such as 8.9 or
    8.0, a string or a bool raises ``ValueError`` naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return int(value)


def _json_number(value, field: str) -> float:
    """``value`` as a float if it is a JSON number; a string, a bool, a null or
    an integer past the float64 range raises ``ValueError`` naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer)):
        raise ValueError(f"{field} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{field} is past the float64 range") from None


def poly_from_dict(obj: dict) -> ParaPoly:
    """Inverse of ``poly_to_dict`` with validation."""
    from .qnum import deformation

    try:
        k = _json_int(obj["k"], "k")
        d = _json_int(obj["d"], "d")
        raw = obj["terms"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed polynomial object: {exc}") from exc
    dfm = deformation(k)
    terms: dict = {}
    for entry in raw:
        try:
            theta = tuple(_json_int(x, "theta exponent") for x in entry["theta"])
            bar = tuple(_json_int(x, "bar exponent") for x in entry["bar"])
            c = complex(_json_number(entry["re"], "re"), _json_number(entry["im"], "im"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed polynomial term {entry!r}: {exc}") from exc
        terms[(theta, bar)] = terms.get((theta, bar), 0.0) + c
    return ParaPoly(dfm, d, terms)
