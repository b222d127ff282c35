"""Operator calculus on spectral fields.

Fractional time derivatives and the Hilbert transform are diagonal
Fourier multipliers in the time modes, each with a symbol
sigma(-n) = conj(sigma(n)) so a real field stays real; spatial
derivatives act modally between the sine and cosine families.  The
Burgers splitting

    L u = u_t - mu u_xx        (diagonal symbol 2*pi*i*n + mu*(m*pi)^2)
    S(u) = u u_x = (u^2)_x / 2
    T = L + S

is realized on coefficient arrays, with dual-space objects represented
through the L2(Q) pairing in the same orthonormal modal coordinates.
"""

from __future__ import annotations

import numpy as np

from .fields import (
    Basis,
    BasisMismatchError,
    SpectralField,
    _mode_symbols,
    product_cosine,
)


def half_derivative(u: SpectralField) -> SpectralField:
    """D^{1/2}: time mode n times |2 pi n|^{1/2} e^{i sgn(n) pi/4}."""
    return u.with_coeffs(u.coeffs * u.symbols.half)


def half_derivative_adjoint(u: SpectralField) -> SpectralField:
    """The L2 adjoint of D^{1/2}: the conjugate symbol."""
    return u.with_coeffs(u.coeffs * u.symbols.half_adjoint)


def hilbert(u: SpectralField) -> SpectralField:
    """H: time mode n times -i sgn(n)."""
    return u.with_coeffs(u.coeffs * u.symbols.hilbert)


def d_t(u: SpectralField) -> SpectralField:
    """Time derivative: time mode n times 2 pi i n."""
    return u.with_coeffs(u.coeffs * u.symbols.d_t)


def d_x(u: SpectralField) -> SpectralField:
    """Exact modal x-derivative; swaps the sine and cosine families."""
    m_pi = u.symbols.m_pi
    if u.basis is Basis.DIRICHLET_SINE:
        # d/dx sqrt(2) sin(m pi x) = m pi sqrt(2) cos(m pi x)
        cols = u.n_x + 1
        coeffs = np.zeros((u.coeffs.shape[0], cols), dtype=complex)
        coeffs[:, 1:] = u.coeffs * m_pi
        return SpectralField(coeffs, u.n_t, u.n_x, Basis.NEUMANN_COSINE)
    # d/dx sqrt(2) cos(m pi x) = -m pi sqrt(2) sin(m pi x)
    coeffs = -u.coeffs[:, 1:] * m_pi[:, 1:]
    return SpectralField(coeffs, u.n_t, u.n_x, Basis.DIRICHLET_SINE)


def d_xx(u: SpectralField) -> SpectralField:
    return u.with_coeffs(u.coeffs * -u.symbols.space_weight)


def inner(u: SpectralField, v: SpectralField) -> float:
    """L2(Q) inner product of two real fields in the same basis."""
    if not u.same_layout(v):
        raise BasisMismatchError("inner product requires matching layouts")
    return float(np.vdot(v.coeffs, u.coeffs).real)


def linear_symbol(n_t: int, n_x: int, mu: float) -> np.ndarray:
    """Diagonal symbol lambda(n, m) = 2 pi i n + mu (m pi)^2 of L on the
    truncation (n_t, n_x)."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    symbols = _mode_symbols(n_t, n_x, Basis.DIRICHLET_SINE)
    return symbols.d_t + mu * symbols.space_weight


def apply_L(u: SpectralField, mu: float) -> SpectralField:
    if u.basis is not Basis.DIRICHLET_SINE:
        raise BasisMismatchError("L acts on Dirichlet-sine fields")
    lam = linear_symbol(u.n_t, u.n_x, mu)
    return u.with_coeffs(u.coeffs * lam)


def invert_L(f: SpectralField, mu: float) -> SpectralField:
    """Exact diagonal inverse; the symbol never vanishes for m >= 1."""
    if f.basis is not Basis.DIRICHLET_SINE:
        raise BasisMismatchError("L acts on Dirichlet-sine fields")
    lam = linear_symbol(f.n_t, f.n_x, mu)
    return f.with_coeffs(f.coeffs / lam)


def apply_S(u: SpectralField) -> SpectralField:
    """Quadratic operator S(u) = u u_x = (u^2)_x / 2 as a dual object.

    The square is formed exactly in the cosine algebra and differentiated
    after truncation to the cosine modes a Dirichlet test derivative can
    see, so <S(u), v> = -(u^2, v_x)/2 holds to rounding for band-limited v.
    """
    sq = product_cosine(u, u, u.n_t, u.n_x)
    return 0.5 * d_x(sq)


def apply_T(u: SpectralField, mu: float) -> SpectralField:
    """The Burgers operator T(u) = L u + S(u)."""
    return apply_L(u, mu) + apply_S(u)


def p_transform(u: SpectralField) -> SpectralField:
    """Test-function rotation P(u) = (u - H u)/sqrt(2) used for coercivity."""
    return (u - hilbert(u)) * (1.0 / np.sqrt(2.0))
