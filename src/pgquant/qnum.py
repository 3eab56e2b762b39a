"""Deformation parameters and symmetric q-deformed integers at even roots of unity."""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["Deformation", "deformation", "qnumber", "qfactorial", "factorials"]


@dataclass(frozen=True)
class Deformation:
    """Root-of-unity deformation data shared by the whole toolkit.

    Attributes
    ----------
    k : int
        Even integer >= 4, the order of the primitive root ``q``.
    kprime : int
        Nilpotency order ``k // 2``.  Generator powers live in
        ``0..kprime-1`` and every single-mode matrix block is
        ``kprime x kprime``.
    q : complex
        ``exp(2*pi*i/k)``.
    q_k : complex
        Commutation phase ``q**2``, a primitive ``kprime``-th root of unity.
    """

    k: int
    kprime: int
    q: complex
    q_k: complex


def deformation(k: int) -> Deformation:
    """Build the deformation data for an even root-of-unity order ``k``.

    Odd ``k`` is rejected: the symmetric deformed integers must stay
    non-negative up to the nilpotency order, which forces ``k`` even.
    ``k < 4`` is rejected because ``kprime <= 1`` leaves no generator.
    """
    if k % 2 != 0:
        raise ValueError(
            f"odd k unsupported: k={k} (deformed integers would change sign below the nilpotency order)"
        )
    if k < 4:
        raise ValueError(f"k must be an even integer >= 4, got {k}")
    q = cmath.exp(2j * math.pi / k)
    return Deformation(k=k, kprime=k // 2, q=q, q_k=q * q)


def qnumber(n: int, dfm: Deformation) -> float:
    """Symmetric deformed integer ``[n] = sin(2*pi*n/k) / sin(2*pi/k)``.

    Real by construction.  ``[0] = 0``, ``[1] = 1``, ``[kprime] = 0`` and
    the reflection ``[kprime - n] = [n]`` holds; values are non-negative
    for ``0 <= n <= kprime``.
    """
    if not 0 <= n <= dfm.k:
        raise ValueError(f"qnumber defined for 0 <= n <= k={dfm.k}, got n={n}")
    return math.sin(2.0 * math.pi * n / dfm.k) / math.sin(2.0 * math.pi / dfm.k)


def qfactorial(n: int, dfm: Deformation) -> float:
    """Product ``[1][2]...[n]`` of deformed integers, with ``[0]! = 1``.

    Defined for ``0 <= n <= kprime``; the value at ``n = kprime`` is zero
    because ``[kprime] = 0``.
    """
    if not 0 <= n <= dfm.kprime:
        raise ValueError(f"qfactorial defined for 0 <= n <= k'={dfm.kprime}, got n={n}")
    out = 1.0
    for j in range(1, n + 1):
        out *= qnumber(j, dfm)
    return out


@lru_cache(maxsize=None)
def factorials(dfm: Deformation) -> np.ndarray:
    """``[n]!`` for n = 0 .. kprime - 1, one running product in ``qfactorial``'s
    order.  Cached per deformation, read-only.  Every closed-form table reads
    products [n]! [m]!, which overflow float64 once [k'-1]! > sqrt(float max):
    from k = 240 on, where [119]! = 3.3e154.  Such a k raises ``ValueError``."""
    with np.errstate(over="ignore"):  # an overflow is refused below, with the range
        out = np.cumprod([1.0] + [qnumber(j, dfm) for j in range(1, dfm.kprime)])
    if not out[-1] <= math.sqrt(sys.float_info.max):  # also an inf or a NaN
        raise ValueError(f"k={dfm.k} is past the float64 range of the q-factorial tables (k <= 238): "
                         f"[{dfm.kprime - 1}]! exceeds sqrt(float64 max) = 1.34e+154")
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def factorial_roots(dfm: Deformation) -> np.ndarray:
    """S[n, m] = sqrt([n]! [m]!) for n, m = 0 .. kprime - 1: the scaling of
    every per-mode quantization table, which a map on d modes applies one
    mode at a time.  Cached per deformation, read-only."""
    fac = factorials(dfm)
    out = np.sqrt(np.multiply.outer(fac, fac))
    out.setflags(write=False)
    return out
