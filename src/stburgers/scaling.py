"""Conversion between physical problem data and the normalized problem.

A forced Burgers problem with period T, spatial length L, viscosity nu
and forcing g rescales onto the unit space-time box via

    ubar(t, x) = (T/L) u(tT, xL),    mu = nu T / L**2,
    f(t, x) = (T**2 / L) g(tT, xL).

For negative viscosity the direction of time is reversed, which flips
the sign of mu and conjugate-reverses the time modes of f; undoing the
reversal on the way back negates the solution as well as its time
argument (ubar(t, x) = -utilde(-t, x)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import SpectralField, evaluate, space_nodes, time_nodes


@dataclass(frozen=True)
class PhysicalProblem:
    """Problem data in physical units.

    The forcing is supplied already sampled on the normalized grid, that
    is, as the spectral field of g(tT, xL)."""

    period: float
    length: float
    viscosity: float
    forcing: SpectralField

    def __post_init__(self):
        if not self.period > 0:
            raise ValueError("period must be strictly positive")
        if not self.length > 0:
            raise ValueError("length must be strictly positive")
        if self.viscosity == 0:
            raise ValueError("viscosity must be nonzero")


@dataclass(frozen=True)
class PhysicalField:
    """Solution samples in physical units on a tensor grid."""

    times: np.ndarray
    positions: np.ndarray
    values: np.ndarray  # shape (len(times), len(positions))


def time_reverse(u: SpectralField) -> SpectralField:
    """Coefficients of u(-t, x): time-mode rows reversed."""
    return u._own(u.coeffs[::-1].copy())


def normalize(p: PhysicalProblem) -> tuple[float, SpectralField, bool]:
    """Scale physical data onto the unit box.

    Returns (mu, f, flip) with mu > 0; flip records a time reversal
    applied when the viscosity is negative."""
    mu = abs(p.viscosity) * p.period / p.length**2
    f = (p.period**2 / p.length) * p.forcing
    flip = p.viscosity < 0
    if flip:
        f = time_reverse(f)
    return mu, f, flip


def denormalize(u_bar: SpectralField, p: PhysicalProblem, m_t: int, m_x: int) -> PhysicalField:
    """Physical-units solution samples u = (L/T) ubar on the m_t x m_x
    physical grid.

    If the problem required a time flip during normalization, the
    solved field is negated and time-reversed before scaling back."""
    if p.viscosity < 0:
        u_bar = -1.0 * time_reverse(u_bar)
    tbar = time_nodes(m_t)
    xbar = space_nodes(m_x, u_bar.basis)
    vals = (p.length / p.period) * evaluate(u_bar, m_t, m_x)
    return PhysicalField(times=p.period * tbar, positions=p.length * xbar, values=vals)
