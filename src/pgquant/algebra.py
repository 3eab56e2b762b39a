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

import cmath
import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qnum import Deformation, qfactorial

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
    "top_monomial",
    "random_poly",
    "poly_to_dict",
    "poly_from_dict",
]

# Upper bound on the pairs handled at once: term pairs in ``multiply``,
# (term, basis state) pairs in ``quantize``.  Memory stays O(block + output).
_PAIRS_PER_BLOCK = 1 << 13


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

    ``terms`` maps monomial keys ``(theta, bar)`` -- two length-``d`` tuples
    of exponents, each in ``0..kprime-1`` -- to complex coefficients.  The
    key encodes the canonical word theta_1^a1 .. theta_d^ad bartheta_1^b1 ..
    bartheta_d^bd.  Treat ``terms`` as read-only; all operations return new
    polynomials.  Exact zeros are dropped and every other coefficient is
    kept, however small: a tiny upper-symbol coefficient can still multiply
    a matrix entry of order [k'-1]!.  A non-finite coefficient raises
    ``ValueError``.
    """

    __slots__ = ("dfm", "d", "terms")

    def __init__(self, dfm: Deformation, d: int, terms: dict | None = None):
        if d < 1:
            raise ValueError(f"mode count must be >= 1, got {d}")
        self.dfm = dfm
        self.d = d
        cleaned: dict[tuple[tuple[int, ...], tuple[int, ...]], complex] = {}
        for (theta, bar), c in (terms or {}).items():
            theta = tuple(theta)
            bar = tuple(bar)
            if len(theta) != d or len(bar) != d:
                raise ValueError(f"monomial arity {len(theta)}/{len(bar)} does not match d={d}")
            if any(not 0 <= p < dfm.kprime for p in theta + bar):
                raise ValueError(f"exponents must lie in 0..{dfm.kprime - 1}: {(theta, bar)}")
            c = complex(c)
            if c != 0:
                if not cmath.isfinite(c):
                    raise ValueError(f"non-finite coefficient {c} at {(theta, bar)}")
                cleaned[(theta, bar)] = c
        self.terms = cleaned

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dfm: Deformation, d: int = 1) -> "ParaPoly":
        return cls(dfm, d, {})

    @classmethod
    def constant(cls, dfm: Deformation, d: int, value: complex) -> "ParaPoly":
        zeros = (0,) * d
        return cls(dfm, d, {(zeros, zeros): complex(value)})

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

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The terms as exponent rows ``(theta_1..theta_d, bar_1..bar_d)``, an
        int64 array of shape (terms, 2d), and their complex coefficients."""
        n, width = len(self.terms), 2 * self.d
        expo = np.fromiter(itertools.chain.from_iterable(a + b for a, b in self.terms), np.int64, n * width)
        return expo.reshape(n, width), np.fromiter(self.terms.values(), complex, n)

    def coefficient(self, theta, bar) -> complex:
        return self.terms.get((tuple(theta), tuple(bar)), 0.0 + 0.0j)

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c in self.terms.values())

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
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0.0) + c
        return ParaPoly(self.dfm, self.d, out)

    def __sub__(self, other: "ParaPoly") -> "ParaPoly":
        if not isinstance(other, ParaPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ParaPoly":
        return ParaPoly(self.dfm, self.d, {k: -c for k, c in self.terms.items()})

    def scale(self, value: complex) -> "ParaPoly":
        value = complex(value)
        return ParaPoly(self.dfm, self.d, {k: value * c for k, c in self.terms.items()})

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
        diagonal blocks of ``phase_matrix``.  On a single mode e = 0, so
        theta^s bartheta^t maps to theta^t bartheta^s with no phase.
        """
        d = self.d
        x, coeffs = self.arrays()
        zero = np.zeros_like(x[:, :d])
        theta, bar = np.hstack([x[:, :d], zero]), np.hstack([zero, x[:, d:]])
        e = product_phase(theta, theta) + product_phase(bar, bar)
        vals = coeffs.conj() * q_powers(self.dfm)[e % self.dfm.kprime]
        return ParaPoly(self.dfm, d, {(r[d:], r[:d]): c for r, c in zip(map(tuple, x.tolist()), vals.tolist())})

    # -- comparison helpers ----------------------------------------------

    def distance(self, other: "ParaPoly") -> float:
        """Largest coefficient difference over the union of monomials."""
        self._check_compatible(other)
        keys = set(self.terms) | set(other.terms)
        if not keys:
            return 0.0
        return max(abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) for k in keys)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParaPoly):
            return NotImplemented
        return self.dfm == other.dfm and self.d == other.d and self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        if not self.terms:
            body = "0"
        else:
            parts = []
            for (theta, bar), c in sorted(self.terms.items()):
                gens = []
                for i, p in enumerate(theta):
                    if p:
                        gens.append(f"th{i + 1}" + (f"^{p}" if p > 1 else ""))
                for i, p in enumerate(bar):
                    if p:
                        gens.append(f"bth{i + 1}" + (f"^{p}" if p > 1 else ""))
                mono = "*".join(gens) if gens else "1"
                parts.append(f"({c:.4g})*{mono}")
            body = " + ".join(parts)
        return f"ParaPoly(k={self.dfm.k}, d={self.d}: {body})"


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
    p1._check_compatible(p2)
    dfm, d, kp = p1.dfm, p1.d, p1.dfm.kprime
    x, a = p1.arrays()
    y, b = p2.arrays()
    q = q_powers(dfm)
    acc: dict = {}
    block = max(1, _PAIRS_PER_BLOCK // max(1, len(y)))
    for lo in range(0, len(x), block):
        xs = x[lo:lo + block]
        z = xs[:, None, :] + y
        i, j = np.nonzero((z < kp).all(-1))
        vals = a[lo + i] * b[j] * q[product_phase(xs[i], y[j]) % kp]
        for key, v in zip(map(tuple, z[i, j].tolist()), vals.tolist()):
            acc[key] = acc.get(key, 0) + v
    return ParaPoly(dfm, d, {(key[:d], key[d:]): c for key, c in acc.items()})


def multiply_prescription(p1: ParaPoly, p2: ParaPoly) -> ParaPoly:
    """Phase-free product used inside integral kernels: exponents add, the
    coefficients just multiply, overflowing monomials drop out."""
    p1._check_compatible(p2)
    kp = p1.dfm.kprime
    acc: dict = {}
    for (t1, b1), c1 in p1.terms.items():
        for (t2, b2), c2 in p2.terms.items():
            theta = tuple(a + b for a, b in zip(t1, t2))
            if any(p >= kp for p in theta):
                continue
            bar = tuple(a + b for a, b in zip(b1, b2))
            if any(p >= kp for p in bar):
                continue
            key = (theta, bar)
            acc[key] = acc.get(key, 0.0) + c1 * c2
    return ParaPoly(p1.dfm, p1.d, acc)


def top_monomial(dfm: Deformation, d: int = 1) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Monomial key of maximal degree: every exponent equal to kprime - 1."""
    full = (dfm.kprime - 1,) * d
    return (full, full)


def berezin_full_integral(p: ParaPoly) -> complex:
    """Top-coefficient extraction: the integral over every generator pair.

    Returns the coefficient of theta_1^(k'-1) .. theta_d^(k'-1)
    bartheta_1^(k'-1) .. bartheta_d^(k'-1) in the canonical form; all lower
    monomials integrate to zero.
    """
    return p.terms.get(top_monomial(p.dfm, p.d), 0.0 + 0.0j)


def berezin_prescription_product(p1: ParaPoly, p2: ParaPoly) -> complex:
    """``berezin_full_integral(multiply_prescription(p1, p2))`` without
    building the product: monomials pair exactly when their exponents are
    complementary."""
    p1._check_compatible(p2)
    kp1 = p1.dfm.kprime - 1
    other = p2.terms
    total = 0.0 + 0.0j
    for (theta, bar), c in p1.terms.items():
        comp = (tuple(kp1 - p for p in theta), tuple(kp1 - p for p in bar))
        c2 = other.get(comp)
        if c2 is not None:
            total += c * c2
    return total


@lru_cache(maxsize=None)
def weight(dfm: Deformation, modes: int = 1) -> ParaPoly:
    """Weight polynomial making the coherent-state resolution of unity exact.

    One mode:  sum over n of [n]! theta^(k'-1-n) bartheta^(k'-1-n).
    d modes:   product form, one factorial factor per mode, with the
    monomial written in canonical order.  Treat the returned polynomial as
    read-only (it is cached).
    """
    kp = dfm.kprime
    terms: dict = {}
    for ns in itertools.product(range(kp), repeat=modes):
        coeff = 1.0
        for n in ns:
            coeff *= qfactorial(n, dfm)
        expo = tuple(kp - 1 - n for n in ns)
        terms[(expo, expo)] = complex(coeff)
    return ParaPoly(dfm, modes, terms)


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
    spanned by 1, theta_i^n and bartheta_i^n (the positive-norm sector).
    """
    kp = dfm.kprime
    terms: dict = {}

    def _coeff():
        return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))

    if full:
        for theta in itertools.product(range(kp), repeat=modes):
            for bar in itertools.product(range(kp), repeat=modes):
                terms[(theta, bar)] = _coeff()
    else:
        zeros = (0,) * modes
        terms[(zeros, zeros)] = _coeff()
        for i in range(modes):
            for n in range(1, kp):
                theta = tuple(n if j == i else 0 for j in range(modes))
                terms[(theta, zeros)] = _coeff()
                terms[(zeros, theta)] = _coeff()
    return ParaPoly(dfm, modes, terms)


def poly_to_dict(p: ParaPoly) -> dict:
    """JSON-ready form: ``{"k", "d", "terms": [{"theta", "bar", "re", "im"}]}``
    with terms sorted by monomial key for stable output."""
    terms = []
    for (theta, bar), c in sorted(p.terms.items()):
        terms.append(
            {"theta": list(theta), "bar": list(bar), "re": float(c.real), "im": float(c.imag)}
        )
    return {"k": p.dfm.k, "d": p.d, "terms": terms}


def poly_from_dict(obj: dict) -> ParaPoly:
    """Inverse of ``poly_to_dict`` with validation."""
    from .qnum import deformation

    try:
        k = int(obj["k"])
        d = int(obj["d"])
        raw = obj["terms"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed polynomial object: {exc}") from exc
    dfm = deformation(k)
    terms: dict = {}
    for entry in raw:
        try:
            theta = tuple(int(x) for x in entry["theta"])
            bar = tuple(int(x) for x in entry["bar"])
            c = complex(float(entry["re"]), float(entry["im"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed polynomial term {entry!r}: {exc}") from exc
        terms[(theta, bar)] = terms.get((theta, bar), 0.0) + c
    return ParaPoly(dfm, d, terms)
