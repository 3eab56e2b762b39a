"""Reference results for the benchmark's correctness checks.

Nothing here imports pgquant.  Every value is rebuilt from the closed forms
and commutation relations that the package documents:

* ``[n] = sin(2 pi n / k) / sin(2 pi / k)`` and ``q_k = exp(4 pi i / k)``;
* antinormal quantization of theta^s bartheta^t on one mode has entry
  (n, m) equal to ``[N]! / sqrt([n]! [m]!)`` where ``N = n + s = m + t``
  and ``N <= k' - 1``, and zero elsewhere; on several modes it is the
  product of one such factor per mode;
* theta_i bartheta_i = q_k bartheta_i theta_i, and for modes i < j
  x_i y_j = q_k^(a b) y_j x_i with a, b = +1 for an unbarred and -1 for a
  barred generator; canonical order puts every unbarred generator first,
  each group by increasing mode.

Polynomials are dense complex arrays of shape ``(k',) * 2d`` indexed by
``[theta_1 .. theta_d, bartheta_1 .. bartheta_d]`` exponents.
"""

from __future__ import annotations

import functools
import itertools
import string

import numpy as np


def q_k(k: int) -> complex:
    return complex(np.exp(4j * np.pi / k))


def qfactorials(k: int) -> np.ndarray:
    """``[0]!, [1]!, .., [k'-1]!``."""
    n = np.arange(1, k // 2)
    return np.concatenate([[1.0], np.cumprod(np.sin(2 * np.pi * n / k) / np.sin(2 * np.pi / k))])


@functools.lru_cache(maxsize=None)
def mode_table(k: int) -> np.ndarray:
    """``T[s, t, n, m]``: single-mode antinormal quantization of theta^s
    bartheta^t.  Cached; treat as read-only."""
    kp = k // 2
    fac = qfactorials(k)
    table = np.zeros((kp,) * 4)
    for s, t, n in itertools.product(range(kp), repeat=3):
        top, m = n + s, n + s - t
        if top < kp and m >= 0:
            table[s, t, n, m] = fac[top] / np.sqrt(fac[n] * fac[m])
    return table


def quantize(coeffs: np.ndarray, k: int) -> np.ndarray:
    """Antinormal quantization as a per-mode tensor contraction."""
    d = coeffs.ndim // 2
    s, t, n, m = (string.ascii_letters[i * d:(i + 1) * d] for i in range(4))
    spec = s + t + "".join(f",{s[i]}{t[i]}{n[i]}{m[i]}" for i in range(d)) + "->" + n + m
    dim = (k // 2) ** d
    return np.einsum(spec, coeffs, *[mode_table(k)] * d, optimize=True).reshape(dim, dim)


def _exponents(shape) -> np.ndarray:
    return np.array(list(np.ndindex(*shape)), dtype=np.int64).reshape(-1, len(shape))


def multiply(c1: np.ndarray, c2: np.ndarray, k: int) -> np.ndarray:
    """Algebra product, monomial pair by monomial pair.

    Concatenating two canonical words leaves three kinds of pairs out of
    order: an unbarred theta_i of the left word before an unbarred theta_j
    of the right word with i > j (phase q_k^-1 each), a barred left factor
    before any unbarred right factor (q_k^-1 when the left mode is <= the
    right mode, q_k^+1 otherwise), and a barred left factor before a barred
    right one with i > j (q_k^-1).  Every such pair is swapped once.
    """
    kp = k // 2
    d = c1.ndim // 2
    expo = _exponents(c1.shape)
    al, be = expo[:, :d], expo[:, d:]
    later = np.tril(np.ones((d, d), dtype=np.int64), -1)  # later[i, j] = 1 when i > j
    phase = -al @ later @ al.T + be @ (2 * later - 1) @ al.T - be @ later @ be.T
    out_expo = expo[:, None, :] + expo[None, :, :]
    keep = (out_expo < kp).all(axis=-1)
    vals = np.outer(c1.ravel(), c2.ravel()) * np.exp(4j * np.pi / k * phase)
    out = np.zeros(c1.size, dtype=complex)
    np.add.at(out, np.ravel_multi_index(tuple(out_expo[keep].T), c1.shape), vals[keep])
    return out.reshape(c1.shape)


def conjugate(c: np.ndarray, k: int) -> np.ndarray:
    """Involution: c theta^a bartheta^b -> conj(c) q_k^-(sum_{i>j} a_i a_j + b_i b_j) theta^b bartheta^a.

    Reversing the word and toggling bars leaves each block in decreasing
    mode order; sorting it swaps every pair of distinct modes once.
    """
    d = c.ndim // 2
    expo = _exponents(c.shape)
    al, be = expo[:, :d], expo[:, d:]
    later = np.tril(np.ones((d, d), dtype=np.int64), -1)
    phase = -(np.einsum("pi,ij,pj->p", al, later, al) + np.einsum("pi,ij,pj->p", be, later, be))
    out = np.zeros(c.shape, dtype=complex)
    swapped = np.concatenate([be, al], axis=1)
    out[tuple(swapped.T)] = np.conj(c.ravel()) * np.exp(4j * np.pi / k * phase)
    return out


def lowering(k: int) -> np.ndarray:
    """Single-mode lowering matrix: ``sqrt([n+1])`` on the superdiagonal."""
    n = np.arange(1, k // 2)
    return np.diag(np.sqrt(np.sin(2 * np.pi * n / k) / np.sin(2 * np.pi / k)), 1).astype(complex)
