"""Holomorphic (theta-only) realization of the single-mode Fock space.

A Fock vector with components psi_n becomes the polynomial
sum_n psi_n theta^n / sqrt([n]!).  Under this unitary identification the
lowering matrix acts as the deformed derivative and the raising matrix as
multiplication by theta; both are nilpotent of order kprime, and they
satisfy the same q-deformed commutation relations as the matrices.
"""

from __future__ import annotations

import numpy as np

from .algebra import ParaPoly
from .qnum import Deformation, factorials, qnumber

__all__ = [
    "to_bargmann",
    "from_bargmann",
    "derivative",
    "multiply_theta",
]


def _check_theta_only(p: ParaPoly, what: str) -> None:
    if p.d != 1:
        raise ValueError(f"{what} supports a single mode only (got d={p.d})")
    if p.coeffs[:, 1:].any():
        raise ValueError(f"{what} expects a polynomial in theta only (found a barred factor)")


def _theta_only(dfm: Deformation, column: np.ndarray) -> ParaPoly:
    coeffs = np.zeros((dfm.kprime, dfm.kprime), dtype=complex)
    coeffs[:, 0] = column
    return ParaPoly(dfm, 1, coeffs)


def to_bargmann(psi, dfm: Deformation) -> ParaPoly:
    """Represent a Fock vector as sum_n psi_n theta^n / sqrt([n]!)."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (dfm.kprime,):
        raise ValueError(f"vector length {psi.shape} does not match k'={dfm.kprime}")
    return _theta_only(dfm, psi / np.sqrt(factorials(dfm)))


def from_bargmann(p: ParaPoly) -> np.ndarray:
    """Recover the Fock components from a theta-only polynomial."""
    _check_theta_only(p, "from_bargmann")
    return p.coeffs[:, 0] * np.sqrt(factorials(p.dfm))


def derivative(p: ParaPoly) -> ParaPoly:
    """Deformed derivative: theta^n -> [n] theta^(n-1).

    Transports the lowering matrix to the polynomial realization, and
    together with ``multiply_theta`` satisfies
    d(m(f)) - q m(d(f)) = q^(-n) f on monomials of degree n.
    Nilpotent of order kprime.
    """
    _check_theta_only(p, "derivative")
    numbers = np.array([qnumber(n, p.dfm) for n in range(1, p.dfm.kprime)] + [0.0])
    return _theta_only(p.dfm, numbers * np.roll(p.coeffs[:, 0], -1))


def multiply_theta(p: ParaPoly) -> ParaPoly:
    """Multiplication by theta with nilpotent truncation:
    theta^(kprime-1) is sent to zero.  Transports the raising matrix."""
    _check_theta_only(p, "multiply_theta")
    return _theta_only(p.dfm, np.concatenate([[0.0], p.coeffs[:-1, 0]]))
