"""Operator calculus on spectral fields.

Fractional time derivatives and the Hilbert transform are diagonal
Fourier multipliers in the time modes; spatial derivatives act modally
between the sine and cosine families.  The Burgers splitting

    L u = u_t - mu u_xx        (diagonal symbol 2*pi*i*n + mu*(m*pi)^2)
    S(u) = u u_x = (u^2)_x / 2
    T = L + S

is realized on coefficient arrays, with dual-space objects represented
through the L2(Q) pairing in the same orthonormal modal coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import (
    Basis,
    BasisMismatchError,
    SpectralField,
    advection_matrix,
    product_cosine,
)


def sgn(n):
    return np.sign(n)


@dataclass(frozen=True)
class TimeMultiplier:
    """Diagonal multiplier sigma(n) acting on the time modes.

    sigma(-n) = conj(sigma(n)) so reality is preserved."""

    name: str
    symbol: Callable[[np.ndarray], np.ndarray]

    def factors(self, n_t: int) -> np.ndarray:
        n = np.arange(-n_t, n_t + 1)
        s = np.asarray(self.symbol(n), dtype=complex)
        defect = np.abs(s[::-1].conj() - s).max()
        if defect > 1e-14 * max(1.0, np.abs(s).max()):
            raise ValueError(f"multiplier {self.name} does not preserve reality")
        return s

    def apply(self, u: SpectralField) -> SpectralField:
        return u.with_coeffs(u.coeffs * self.factors(u.n_t)[:, None])


def fractional_multiplier(s: float) -> TimeMultiplier:
    """Multiplier of the order-s time derivative: |2 pi n|^s e^{i sgn(n) s pi/2}."""
    def symbol(n):
        return (2 * np.pi * np.abs(n)) ** s * np.exp(1j * sgn(n) * s * np.pi / 2)

    return TimeMultiplier(f"D^{s}", symbol)


HALF_DERIVATIVE = fractional_multiplier(0.5)
HALF_DERIVATIVE_ADJOINT = TimeMultiplier(
    "D^0.5_*", lambda n: np.conj(HALF_DERIVATIVE.symbol(n))
)
HILBERT = TimeMultiplier("H", lambda n: -1j * sgn(n) + 0.0j)
TIME_DERIVATIVE = TimeMultiplier("d_t", lambda n: 2j * np.pi * n)


def half_derivative(u: SpectralField) -> SpectralField:
    return HALF_DERIVATIVE.apply(u)


def half_derivative_adjoint(u: SpectralField) -> SpectralField:
    return HALF_DERIVATIVE_ADJOINT.apply(u)


def hilbert(u: SpectralField) -> SpectralField:
    return HILBERT.apply(u)


def d_t(u: SpectralField) -> SpectralField:
    return TIME_DERIVATIVE.apply(u)


def d_x(u: SpectralField) -> SpectralField:
    """Exact modal x-derivative; swaps the sine and cosine families."""
    m = u.space_modes.astype(float)
    if u.basis is Basis.DIRICHLET_SINE:
        # d/dx sqrt(2) sin(m pi x) = m pi sqrt(2) cos(m pi x)
        cols = u.n_x + 1
        coeffs = np.zeros((u.coeffs.shape[0], cols), dtype=complex)
        coeffs[:, 1:] = u.coeffs * (m * np.pi)[None, :]
        return SpectralField(coeffs, u.n_t, u.n_x, Basis.NEUMANN_COSINE)
    # d/dx sqrt(2) cos(m pi x) = -m pi sqrt(2) sin(m pi x)
    coeffs = -u.coeffs[:, 1:] * (m[1:] * np.pi)[None, :]
    return SpectralField(coeffs, u.n_t, u.n_x, Basis.DIRICHLET_SINE)


def d_xx(u: SpectralField) -> SpectralField:
    m = u.space_modes.astype(float)
    return u.with_coeffs(u.coeffs * (-((m * np.pi) ** 2))[None, :])


def inner(u: SpectralField, v: SpectralField) -> float:
    """L2(Q) inner product of two real fields in the same basis."""
    if not u.same_layout(v):
        raise BasisMismatchError("inner product requires matching layouts")
    return float(np.vdot(v.coeffs, u.coeffs).real)


@dataclass(frozen=True)
class LinearSymbol:
    """Diagonal symbol lambda(n, m) = 2 pi i n + mu (m pi)^2 of L."""

    mu: float

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be positive")

    def values(self, n_t: int, n_x: int) -> np.ndarray:
        n = np.arange(-n_t, n_t + 1)[:, None]
        m = np.arange(1, n_x + 1)[None, :]
        return 2j * np.pi * n + self.mu * (m * np.pi) ** 2


def apply_L(u: SpectralField, mu: float) -> SpectralField:
    if u.basis is not Basis.DIRICHLET_SINE:
        raise BasisMismatchError("L acts on Dirichlet-sine fields")
    lam = LinearSymbol(mu).values(u.n_t, u.n_x)
    return u.with_coeffs(u.coeffs * lam)


def invert_L(f: SpectralField, mu: float) -> SpectralField:
    """Exact diagonal inverse; the symbol never vanishes for m >= 1."""
    if f.basis is not Basis.DIRICHLET_SINE:
        raise BasisMismatchError("L acts on Dirichlet-sine fields")
    lam = LinearSymbol(mu).values(f.n_t, f.n_x)
    return f.with_coeffs(f.coeffs / lam)


def apply_S(u: SpectralField) -> SpectralField:
    """Quadratic operator S(u) = u u_x = (u^2)_x / 2 as a dual object.

    The square is formed exactly in the cosine algebra and differentiated
    after truncation to the cosine modes a Dirichlet test derivative can
    see, so <S(u), v> = -(u^2, v_x)/2 holds to rounding for band-limited v.
    """
    sq = product_cosine(u, u, u.n_t, u.n_x)
    return 0.5 * d_x(sq)


def apply_T(u: SpectralField, mu: float, lam: float = 1.0) -> SpectralField:
    """Homotopy operator (L + lam*S)(u); lam = 1 is the Burgers operator."""
    out = apply_L(u, mu)
    if lam != 0.0:
        out = out + lam * apply_S(u)
    return out


def apply_T_prime(m: SpectralField, w: SpectralField, mu: float) -> SpectralField:
    """Gateaux derivative of T at m: w -> L w + (m w)_x."""
    if not m.same_layout(w):
        raise BasisMismatchError("T'(m) requires matching layouts")
    mw = product_cosine(m, w, m.n_t, m.n_x)
    return apply_L(w, mu) + d_x(mw)


def T_prime_matrix(m: SpectralField, mu: float) -> np.ndarray:
    """Dense real matrix of T'(m) on packed (`fields.pack`) Dirichlet-sine
    coefficients; m must be real."""
    a = advection_matrix(m)
    # L multiplies mode n by lambda(n): on the packed pair (Re, Im) of a
    # row n >= 1 that is [[Re lambda, -Im lambda], [Im lambda, Re lambda]]
    lam = LinearSymbol(mu).values(m.n_t, m.n_x)[m.n_t :].ravel()  # n >= 0
    a[np.diag_indices_from(a)] += np.concatenate([lam.real, lam.real[m.n_x :]])
    re = np.arange(m.n_x, lam.size)
    im = re + m.n_t * m.n_x
    a[re, im] -= lam.imag[m.n_x :]
    a[im, re] += lam.imag[m.n_x :]
    return a


def p_transform(u: SpectralField) -> SpectralField:
    """Test-function rotation P(u) = (u - H u)/sqrt(2) used for coercivity."""
    return (u - hilbert(u)) * (1.0 / np.sqrt(2.0))
