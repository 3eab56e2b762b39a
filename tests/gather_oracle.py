"""The symbol maps as k'^3 gathers, the oracle of the Hankel GEMM.

``gather_contract`` in ``pgquant.quantization`` applies each map as a
Hankel matrix between two diagonal scalings, and term placement reads the
same map one mode at a time from [n+s]! and S[n, m] = sqrt([n]! [m]!),
with no k'^3 table.  Here the maps are
written as the tables they factor: ``mode_table`` T[s, t, n] for
``quantize`` and the inverse table U[s, t, n] for ``upper_symbol``, each
read by a gather of k'^3 entries per row and one ``einsum``.  T and U come
from their own closed forms, so nothing here reads the production maps.
"""

from functools import lru_cache

import numpy as np

from pgquant import Deformation
from pgquant.qnum import factorials


@lru_cache(maxsize=None)
def mode_table(dfm: Deformation) -> np.ndarray:
    """T[s, t, n], entry (n, n + s - t) of the antinormal quantization of
    theta^s bartheta^t: ``[n+s]! / sqrt([n]! [n+s-t]!)``, and exactly 0
    where ``n + s >= kprime`` or ``n + s < t``, the entries the kernel
    cannot reach.  Cached per deformation, read-only."""
    kp = dfm.kprime
    fac = factorials(dfm)
    s, t, n = np.ogrid[:kp, :kp, :kp]
    top, col = n + s, n + s - t
    reach = (top < kp) & (col >= 0)
    table = np.where(reach, fac[top.clip(0, kp - 1)] / np.sqrt(fac[n] * fac[col.clip(0, kp - 1)]), 0.0)
    table.setflags(write=False)
    return table


def series_g(dfm: Deformation) -> np.ndarray:
    """g = 1/e(x) mod x^k', e(x) = sum_(i<k') x^i / [i]!."""
    fac = factorials(dfm)
    g = np.ones(dfm.kprime)
    for i in range(1, dfm.kprime):
        g[i] = -(g[i - 1::-1] / fac[1:i + 1]).sum()
    return g


def inverse_table(dfm: Deformation) -> np.ndarray:
    """U[s, t, n] = g_(n+s+1-k') sqrt([n]! [n+s-t]!) / [k'-1]! for
    n + s >= k'-1 and 0 <= n + s - t < k', and exactly 0 elsewhere."""
    kp, fac, g = dfm.kprime, factorials(dfm), series_g(dfm)
    s, t, n = np.ogrid[:kp, :kp, :kp]
    low, col = n + s + 1 - kp, n + s - t
    root = np.sqrt(fac[n] * fac[col.clip(0, kp - 1)])
    return np.where((low >= 0) & (col < kp), g[low.clip(0)] * root / fac[kp - 1], 0.0)


def quantize_gather(dfm: Deformation) -> tuple[np.ndarray, np.ndarray]:
    """Entry (n, m) sums coefficient (s, t) times T[s, t, n] along the
    diagonal s - t = m - n."""
    kp, table = dfm.kprime, mode_table(dfm)
    n, m, j = np.ogrid[:kp, :kp, :kp]
    s, t = j + np.maximum(m - n, 0), j + np.maximum(n - m, 0)
    inside = (s < kp) & (t < kp)
    s, t = s.clip(max=kp - 1), t.clip(max=kp - 1)
    return s * kp + t, np.where(inside, table[s, t, n], 0.0)


def upper_gather(dfm: Deformation) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient (s, t) sums U[s, t, n] times matrix entry (n, n + s - t)."""
    kp = dfm.kprime
    s, t, n = np.ogrid[:kp, :kp, :kp]
    return n * kp + (n + s - t).clip(0, kp - 1), inverse_table(dfm)


def gather_contract(x: np.ndarray, index: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Apply a gather map to every mode of each tensor in a stack of shape
    (B,) + (kprime,) * 2d: with the axis pair (u, v) of a mode read as the
    flat index u * kprime + v, out[a, b] = sum_j weight[a, b, j] *
    x[index[a, b, j]], one mode at a time, in blocks of rows that gather
    about 2^20 entries each."""
    d, kp = x.ndim // 2, x.shape[1]
    block = max(1, (1 << 20) // kp**3)
    pairs = x.transpose(0, *sum(zip(range(1, d + 1), range(d + 1, 2 * d + 1)), ()))
    for _ in range(d):  # contract the last mode, then rotate it to the front
        flat = pairs.reshape(-1, kp * kp)
        out = np.empty_like(flat)
        for lo in range(0, len(flat), block):
            part = flat[lo:lo + block].take(index, axis=1)
            out[lo:lo + block] = np.einsum("rabj,abj->rab", part, weight).reshape(-1, kp * kp)
        pairs = out.reshape((-1,) + (kp * kp,) * d).transpose(0, d, *range(1, d))
    out = pairs.reshape((-1,) + (kp,) * (2 * d)).transpose(0, *range(1, 2 * d + 1, 2), *range(2, 2 * d + 1, 2))
    return np.ascontiguousarray(out)
