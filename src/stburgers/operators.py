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

import functools

import numpy as np

from .fields import (
    TRANSFORM_CACHE_SIZE,
    Basis,
    BasisMismatchError,
    SpectralField,
    product_cosine,
)


@functools.lru_cache(maxsize=TRANSFORM_CACHE_SIZE)
def _time_symbols(n_t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The symbols [n, 1] of D^{1/2}, of its adjoint, of H and of d_t on
    the time modes n = -n_t..n_t, read-only; built from numpy alone, so a
    miss calls no other function of the package."""
    n = np.arange(-n_t, n_t + 1)[:, None]
    half = (2 * np.pi * np.abs(n)) ** 0.5 * np.exp(1j * np.sign(n) * 0.5 * np.pi / 2)
    symbols = half, np.conj(half), -1j * np.sign(n) + 0.0j, 2j * np.pi * n
    for symbol in symbols:
        symbol.setflags(write=False)
    return symbols


def half_derivative(u: SpectralField) -> SpectralField:
    """D^{1/2}: time mode n times |2 pi n|^{1/2} e^{i sgn(n) pi/4}."""
    return u.with_coeffs(u.coeffs * _time_symbols(u.n_t)[0])


def half_derivative_adjoint(u: SpectralField) -> SpectralField:
    """The L2 adjoint of D^{1/2}: the conjugate symbol."""
    return u.with_coeffs(u.coeffs * _time_symbols(u.n_t)[1])


def hilbert(u: SpectralField) -> SpectralField:
    """H: time mode n times -i sgn(n)."""
    return u.with_coeffs(u.coeffs * _time_symbols(u.n_t)[2])


def d_t(u: SpectralField) -> SpectralField:
    """Time derivative: time mode n times 2 pi i n."""
    return u.with_coeffs(u.coeffs * _time_symbols(u.n_t)[3])


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


@functools.lru_cache(maxsize=TRANSFORM_CACHE_SIZE)
def _symbol_table(n_t: int, n_x: int) -> tuple[np.ndarray, np.ndarray]:
    """The parts 2 pi i n [n, 1] (d_t's symbol) and (m pi)^2 [1, m] of
    L's symbol on the truncation (n_t, n_x), read-only; built from numpy
    alone, so a miss calls no other function of the package."""
    space = (np.arange(1, n_x + 1)[None, :] * np.pi) ** 2
    space.setflags(write=False)
    return _time_symbols(n_t)[3], space


def linear_symbol(n_t: int, n_x: int, mu: float) -> np.ndarray:
    """Diagonal symbol lambda(n, m) = 2 pi i n + mu (m pi)^2 of L on the
    truncation (n_t, n_x)."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    time, space = _symbol_table(n_t, n_x)
    return time + mu * space


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
