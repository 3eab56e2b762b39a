"""Symbol maps between matrices and polynomials, and the induced star product.

The lower symbol pairs a matrix with the coherent-state family; the upper
symbol inverts antinormal quantization in closed form, as the same Hankel
GEMM with the series reciprocal of the truncated q-exponential.  Since
quantization is a linear bijection onto the full matrix algebra,
transporting the operator product back to symbols defines an associative
star product.  The kernel factorizes over the modes, so every map here takes
any mode count d.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .algebra import ParaPoly, _draw_trials, phase_matrix, q_powers
from .qnum import Deformation, deformation, factorial_roots, factorials
from .quantization import (
    FockOperator,
    Ordering,
    VerificationReport,
    _hankel_map,
    _placement,
    _quantize_stack,
    _trial_chunks,
    gather_contract,
)

__all__ = [
    "lower_symbol",
    "upper_symbol",
    "moyal_star",
    "round_trip_residuals",
    "quaternion_demo",
]


def lower_symbol(op: FockOperator) -> ParaPoly:
    """Coherent-state expectation of ``op`` as a polynomial (unnormalized).

    The entry in row nb and column n contributes
    q_k^e * A[nb, n] / prod_i S[nb_i, n_i] * theta^n bartheta^nb, with
    S[n, m] = sqrt([n]! [m]!) divided out one mode at a time, so no
    product of more than two factorials is formed, and q_k^e the phase of
    the product bartheta^nb theta^n: e = nb^T W n for the block W[d:, :d]
    of ``phase_matrix(d)``, which is -nb*n on one mode.  No division by
    the coherent-state overlap is attempted: the overlap has no inverse in
    a nilpotent algebra.
    """
    dfm, d = op.dfm, op.d
    kp = dfm.kprime
    states = _placement(dfm, d)[0]
    e = states @ phase_matrix(d)[d:, :d] @ states.T
    coeffs = (q_powers(dfm)[e % kp] * op.mat).reshape((kp,) * 2 * d)  # axes nb_1 .. nb_d, n_1 .. n_d
    for i in range(d):  # S[nb_i, n_i] on axes i and d + i
        coeffs /= factorial_roots(dfm).reshape([kp if a in (i, d + i) else 1 for a in range(2 * d)])
    return ParaPoly(dfm, d, coeffs.reshape(kp**d, -1).T.reshape((kp,) * 2 * d))


@lru_cache(maxsize=None)
def _upper_gather(dfm: Deformation) -> tuple[np.ndarray, ...]:
    """The inverse of the antinormal map, T[s, t, n] = [n+s]! / S[n, n+s-t],
    as ``gather_contract`` reads it, cached.  As [m]! [k'-1-m]! = [k'-1]!,
    each diagonal block of T is a row scaling times a triangular Hankel
    block of [k'-1]! e(x), e(x) = sum_(i<k') x^i / [i]!.  So coefficient
    (s, t) sums G[s, n] = g_(n+s+1-k'), g = 1/e(x) mod x^k', zero for
    n + s < k'-1, times entry (n, n + s - t) of the matrix scaled by
    S[n, n+s-t] / [k'-1]!."""
    kp, fac = dfm.kprime, factorials(dfm)  # first, as it refuses a k past the factorials' range
    g = np.ones(kp)
    for i in range(1, kp):
        g[i] = -(g[i - 1::-1] / fac[1:i + 1]).sum()  # g_i = -sum_(j=1..i) g_(i-j) / [j]!
    scale = factorial_roots(dfm) / fac[kp - 1]
    return _hankel_map(np.concatenate([np.zeros(kp - 1), g]), scale, None)


def upper_symbol(op: FockOperator) -> ParaPoly:
    """Polynomial whose antinormal quantization reproduces ``op`` exactly.

    One ``gather_contract`` of the matrix as a (k',) * 2d tensor, mode by
    mode: on each mode the coefficient of theta^s bartheta^t is
    ``sum_n U[s, t, n] * A[n, n + s - t]`` with U = G times the scaling of
    ``_upper_gather``, the closed-form inverse of the antinormal map.
    """
    stack = op.mat.reshape((1,) + (op.dfm.kprime,) * 2 * op.d)
    return ParaPoly(op.dfm, op.d, gather_contract(stack, *_upper_gather(op.dfm))[0])


def moyal_star(f: ParaPoly, g: ParaPoly) -> ParaPoly:
    """Star product transported from the operator product:
    upper_symbol(quantize(f) @ quantize(g)).  Associative and
    noncommutative; star powers of a generator vanish at the algebra's
    nilpotency order, so the generators square to zero exactly when
    that order is two.  Both operands are quantized as one stack."""
    f._check_compatible(g)
    a, b = _quantize_stack(f.dfm, np.stack([f.coeffs, g.coeffs]), Ordering.ANTINORMAL)
    return upper_symbol(FockOperator(f.dfm, f.d, a @ b))


def round_trip_residuals(dfm: Deformation, trials: int = 100, seed: int = 0) -> tuple[float, float]:
    """Worst residuals of the two symbol round trips on random data:
    upper_symbol(quantize(f)) vs f, and quantize(upper_symbol(A)) vs A.
    Each trial draws f, then A; the inputs are drawn one chunk per call, in
    per-trial order, and the maps run a chunk of trials at a time, each on
    one stack."""
    rng = np.random.default_rng(seed)
    upper = _upper_gather(dfm)
    worst = []
    for size in _trial_chunks(dfm, trials):
        f, a = _draw_trials(dfm, rng, size, matrices=True)
        back = gather_contract(_quantize_stack(dfm, f, Ordering.ANTINORMAL), *upper)
        again = _quantize_stack(dfm, gather_contract(a, *upper), Ordering.ANTINORMAL)
        worst.append((np.abs(back - f).max(), np.abs(again - a).max()))
    worst_poly, worst_mat = np.max(worst, axis=0)  # a NaN chunk stays NaN
    return float(worst_poly), float(worst_mat)


def _quaternion_coeffs(c: np.ndarray) -> np.ndarray:
    """Invert the symbol map of 2x2 matrices written in the quaternion basis
    (identity, three anti-hermitian units) at k = 4: a (B, 2, 2) stack of
    symbol coefficients to the (B, 4) stack of quaternion components."""
    z3 = c[:, 1, 1] / 2j
    return np.stack([c[:, 0, 0] + 1j * z3, (c[:, 1, 0] + c[:, 0, 1]) / 2j, (c[:, 0, 1] - c[:, 1, 0]) / 2.0, z3], 1)


def _quaternion_symbol(z: np.ndarray) -> np.ndarray:
    """Closed-form upper symbols, a (B, 2, 2) coefficient stack, of the
    quaternions z0 + z1 i*s1 + z2 (-i*s2) + z3 i*s3 in a (B, 4) stack."""
    z0, z1, z2, z3 = z.T
    return np.stack([z0 - 1j * z3, 1j * z1 + z2, 1j * z1 - z2, 2j * z3], 1).reshape(-1, 2, 2)


def quaternion_demo(trials: int = 100, seed: int = 0, tolerance: float = 1e-10) -> VerificationReport:
    """Star-product realization of the quaternions at k = 4.

    The three anti-hermitian Pauli combinations i*s1, -i*s2, i*s3 close the
    quaternion algebra under matrix multiplication; their upper symbols
    must therefore close it under the star product.  Checks the defining
    unit relations, the closed-form symbol, and the full product law on
    random complex quaternion pairs.  The random trials run a chunk at a
    time, each as stacks: one symbol map for all operands, one batched
    product, one map back; memory does not grow with ``trials``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    dfm = deformation(4)
    upper = _upper_gather(dfm)
    rep = VerificationReport(tolerance)
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    units = [np.eye(2, dtype=complex), 1j * s1, -1j * s2, 1j * s3]
    unit_syms = gather_contract(np.array(units), *upper)
    sym_i, sym_j, sym_k = (ParaPoly(dfm, 1, c) for c in unit_syms[1:])
    minus_one = ParaPoly.constant(dfm, 1, -1.0)

    rep.add("I*I = -1", moyal_star(sym_i, sym_i).distance(minus_one))
    rep.add("J*J = -1", moyal_star(sym_j, sym_j).distance(minus_one))
    rep.add("K*K = -1", moyal_star(sym_k, sym_k).distance(minus_one))
    rep.add("I*J = K", moyal_star(sym_i, sym_j).distance(sym_k))
    rep.add("J*I = -K", moyal_star(sym_j, sym_i).distance(-sym_k))
    theta = ParaPoly.generator(dfm, 1, 1)
    bth = ParaPoly.generator(dfm, 1, 1, barred=True)
    zero = ParaPoly.zero(dfm, 1)
    rep.add("theta*theta = 0", moyal_star(theta, theta).distance(zero))
    rep.add("bartheta*bartheta = 0", moyal_star(bth, bth).distance(zero))
    rep.add("symbol closed form (basis units)", np.abs(unit_syms - _quaternion_symbol(np.eye(4))).max())

    # a chunk of trials at a time: z re, z im, w re, w im per trial, as drawn one at a time
    rng = np.random.default_rng(seed)
    worst = []
    for size in _trial_chunks(dfm, trials):
        draws = rng.uniform(-1, 1, (size, 4, 4))
        z, w = draws[:, 0] + 1j * draws[:, 1], draws[:, 2] + 1j * draws[:, 3]
        mats = np.concatenate([sum(x[:, i, None, None] * units[i] for i in range(4)) for x in (z, w)])
        syms = gather_contract(mats, *upper)
        quants = _quantize_stack(dfm, syms, Ordering.ANTINORMAL)
        got = _quaternion_coeffs(gather_contract(quants[:size] @ quants[size:], *upper))
        # z_i w_i and |.| of the scalar part as complex scalars round them, with
        # no fused multiply-add and with hypot, unlike numpy's complex array loops
        zw = (z.real * w.real - z.imag * w.imag) + 1j * (z.real * w.imag + z.imag * w.real)
        miss = got[:, 0] - (zw[:, 0] - (zw[:, 1] + zw[:, 2] + zw[:, 3]))
        xv = z[:, :1] * w[:, 1:] + w[:, :1] * z[:, 1:] + np.cross(z[:, 1:], w[:, 1:])
        worst.append((np.abs(syms[:size] - _quaternion_symbol(z)).max(), np.hypot(miss.real, miss.imag).max(),
                      np.abs(got[:, 1:] - xv).max()))
    names = ("symbol closed form (random)", "product law scalar part (random)", "product law vector part (random)")
    for name, residual in zip(names, np.max(worst, axis=0)):  # a NaN chunk stays NaN
        rep.add(name, residual)
    return rep
