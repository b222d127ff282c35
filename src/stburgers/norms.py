"""Norms, inequalities and estimate machinery.

The working space carries the concrete anisotropic norm

    ||u||^2 = ||u||_L2^2 + ||D^{1/2} u||_L2^2 + ||u_x||_L2^2

with diagonal modal weight w(n, m) = 1 + 2 pi |n| + (m pi)^2, so the
dual norm of a forcing is exact rather than estimated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StburgersError
from .fields import (
    Basis,
    BasisMismatchError,
    SpectralField,
    _float_power,
    _fold,
    _owned,
    _per_field,
    product_cosine,
    random_field,
    sub_seed,
    to_grid,
)
from .operators import d_x, half_derivative, inner


class DegenerateSampleError(StburgersError, ValueError):
    """All probe samples were degenerate (zero space derivative)."""


@dataclass(frozen=True)
class NormReport:
    l2: float
    l4: float
    half_dt: float
    dx: float
    aniso: float


def aniso_norm(u: SpectralField):
    """The anisotropic norm, per field of a stack."""
    return _per_field(np.sqrt((u.symbols.aniso * np.abs(u.coeffs) ** 2).sum(axis=(-2, -1))))


def outer_shell_weight(u: SpectralField) -> float:
    """Relative l2 weight of the outermost shell of the truncation,
    sqrt(max(w_t, w_x) / |u|^2), with w_t the squared l2 weight of the
    time rows |n| = n_t and w_x that of the space column m = n_x.  A
    resolved solution has a small tail (Boyd, Chebyshev and Fourier
    Spectral Methods, 2nd ed., ch. 2); the zero field has weight 0."""
    sq = np.abs(u.coeffs) ** 2
    total = sq.sum()
    if total == 0.0:
        return 0.0
    w_t = sq[np.abs(u.time_modes) == u.n_t].sum()
    w_x = sq[:, -1].sum()
    return float(np.sqrt(max(w_t, w_x) / total))


def l4_norm(u: SpectralField) -> float:
    """L4(Q) norm by quadrature; u^4 needs 4th-order products so the grid
    is padded accordingly, and the grid sum over m_t w (w = m_x + 1 on
    sine nodes, m_x on midpoint nodes) integrates it exactly."""
    m_t = 4 * u.n_t + 1
    m_x = 2 * u.n_x + 1
    w = (m_x + 1) if u.basis is Basis.DIRICHLET_SINE else m_x
    quarter = float((to_grid(u, m_t, m_x).values ** 4).sum() / (m_t * w))
    return quarter ** 0.25


def norm_report(u: SpectralField) -> NormReport:
    if u.basis is not Basis.DIRICHLET_SINE:
        raise BasisMismatchError("norm_report expects a Dirichlet-sine field")
    wt, wx = u.symbols.time_weight, u.symbols.space_weight
    sq = np.abs(u.coeffs) ** 2
    l2 = float(np.sqrt(sq.sum()))
    half_dt = float(np.sqrt((wt * sq).sum()))
    dx = float(np.sqrt((wx * sq).sum()))
    aniso = float(np.sqrt(l2 ** 2 + half_dt ** 2 + dx ** 2))
    return NormReport(l2=l2, l4=l4_norm(u), half_dt=half_dt, dx=dx, aniso=aniso)


def dual_norm(f: SpectralField) -> float:
    """Exact norm of f in the dual of the chosen anisotropic space."""
    return float(np.sqrt((np.abs(f.coeffs) ** 2 / f.symbols.aniso).sum()))


@dataclass(frozen=True)
class ForcingDecomposition:
    """Pair (g, h) realizing f = D^{1/2} g + h_x in the distribution sense.

    g is an L2 field in the sine basis; h lives in the cosine family so
    h_x is a Dirichlet-sine dual object."""

    g: SpectralField
    h: SpectralField

    def reconstruct(self) -> SpectralField:
        return half_derivative(self.g) + d_x(self.h)


def decompose_forcing(f: SpectralField, eps: float) -> ForcingDecomposition:
    """Split f between the half-derivative channel and the d_x channel.

    The time-derivative channel is used preferentially for high-|n| modes
    (largest multiplier gain) while ||g||_L2 stays within the eps budget;
    everything else goes through h, which is always possible since m >= 1.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if f.basis is not Basis.DIRICHLET_SINE:
        raise BasisMismatchError("decompose_forcing expects a Dirichlet dual")
    n_t, n_x = f.n_t, f.n_x
    # candidate modes, n >= 1 (the conjugate partner comes along), in
    # order of decreasing multiplier gain sqrt(2 pi n): n descending,
    # then m
    n = np.arange(n_t, 0, -1)
    m_pi = f.symbols.m_pi
    c = f.coeffs[n_t + n]
    gmode = c / f.symbols.half[n_t + n]
    mass = 2.0 * np.abs(gmode) ** 2  # both +-n rows
    nonzero = c != 0
    # the greedy walk fills the eps budget in that order
    budget = eps ** 2
    used = 0.0
    take = []
    for q in mass.ravel().tolist():  # 0 for a zero mode
        fits = used + q <= budget
        take.append(fits)
        if fits:
            used += q
    take = np.array(take, dtype=bool).reshape(c.shape) & nonzero
    rest = nonzero & ~take
    hmode = -c / m_pi
    gc = np.zeros_like(np.asarray(f.coeffs))
    gc[n_t + n] = np.where(take, gmode, 0.0)
    gc[n_t - n] = np.where(take, gmode.conj(), 0.0)
    hc = np.zeros((2 * n_t + 1, n_x + 1), dtype=complex)
    hc[n_t + n, 1:] = np.where(rest, hmode, 0.0)
    hc[n_t - n, 1:] = np.where(rest, hmode.conj(), 0.0)
    # n = 0 row always rides the h channel (zero half-derivative multiplier)
    hc[n_t, 1:] = -f.coeffs[n_t] / m_pi[0]
    g = _owned(gc, n_t, n_x, Basis.DIRICHLET_SINE)
    h = _owned(hc, n_t, n_x, Basis.NEUMANN_COSINE)
    return ForcingDecomposition(g=g, h=h)


def gn_probe(seeds, n_samples: int, n_t: int, n_x: int) -> float:
    """Sampled Gagliardo-Nirenberg constant ||u^2|| / (||u|| ||u_x||).

    Returns the max ratio over n_samples random fields of decay 2 per
    seed; the analytic constant exists but is never numeric in the
    estimate, so the probe supplies the value used in the a priori bound.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    best = -np.inf
    for seed in seeds:
        for i in range(n_samples):
            try:
                best = _fold(best, gn_ratio(random_field(sub_seed(seed, i), n_t, n_x, 2.0)), max)
            except DegenerateSampleError:
                pass  # zero x-derivative: the ratio is undefined
    if best == -np.inf:
        raise DegenerateSampleError("all probe samples had zero x-derivative")
    return float(best)


def gn_ratio(u: SpectralField) -> float:
    """Ratio ||u^2||_L2 / (||u|| ||u_x||) for a single field."""
    ux = float(np.sqrt((u.symbols.space_weight * np.abs(u.coeffs) ** 2).sum()))
    if ux == 0.0:
        raise DegenerateSampleError("field has zero x-derivative")
    return product_cosine(u, u).l2() / (aniso_norm(u) * ux)


def apriori_bound(f: SpectralField, mu: float, c_gn: float) -> float:
    """Evaluate the energy-estimate bound (b + sqrt(a + b^2))^2.

    a = 2 (1 + 1/mu) ||f||_*, b = R0 ||h|| sqrt(||f||_*/mu) with
    R0 = c_gn / (2 mu); eps is chosen so R0 ||g|| <= 1/2 with margin."""
    if mu <= 0 or c_gn <= 0:
        raise ValueError("mu and c_gn must be positive")
    fn = dual_norm(f)
    if fn == 0.0:
        return 0.0
    r0 = c_gn / (2.0 * mu)
    eps = 0.9 * min(1.0, 1.0 / (2.0 * r0))
    dec = decompose_forcing(f, eps)
    a = 2.0 * (1.0 + 1.0 / mu) * fn
    b = r0 * dec.h.l2() * np.sqrt(fn / mu)
    return float((b + np.sqrt(a + b ** 2)) ** 2)


def interpolation_slack(
    u: SpectralField, alpha: float, beta: float, theta: float
) -> float:
    """Relative excess of the anisotropic Hoelder inequality

        sum wt^(1-theta) wx^theta |c|^2 <= (sum wt|c|^2)^(1-theta) (sum wx|c|^2)^theta

    with wt = (2 pi |n|)^(2 alpha), wx = (m pi)^(2 beta).  Nonpositive up
    to roundoff for every field; the returned value clips at zero.  Per
    field of a stack."""
    if alpha < 0 or beta < 0 or not 0.0 <= theta <= 1.0:
        raise ValueError("need alpha, beta >= 0 and theta in [0, 1]")
    sq = np.abs(u.coeffs) ** 2
    wt = u.symbols.time_weight ** (2 * alpha)
    wx = u.symbols.m_pi ** (2 * beta)
    axes = (-2, -1)
    lhs = (wt ** (1 - theta) * wx**theta * sq).sum(axis=axes)
    rhs = _float_power((wt * sq).sum(axis=axes), 1 - theta) * _float_power((wx * sq).sum(axis=axes), theta)
    return _per_field(np.maximum(0.0, (lhs - rhs) / np.maximum(rhs, 1e-300)))


def energy_gap(f: SpectralField, u: SpectralField, mu: float) -> float:
    """Relative defect of the energy identity mu ||u_x||^2 = <f, u>."""
    ux2 = float((u.symbols.space_weight * np.abs(u.coeffs) ** 2).sum())
    fu = inner(f, u)
    return abs(mu * ux2 - fu) / max(1.0, abs(fu))
