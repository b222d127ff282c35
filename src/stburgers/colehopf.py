"""Uniqueness machinery: solution-set bijections and the period map.

For a fixed background field v, three solution sets are linked by
explicit constructive maps:

    S1: w with T(w) = -(v w)_x                       (Dirichlet field)
    S2: (W, K) with W_t - mu W_xx + (W_x)^2/2 = -v W_x + K
        (Neumann field modulo additive constants)
    S3: (phi, K) with phi_t - mu phi_xx + v phi_x + K phi = 0
        (positive Neumann field modulo positive scaling)

The substitution phi = exp(-W/(2 mu)) converts the quadratic potential
equation into linear advection-diffusion; the monodromy of that linear
flow over one period has leading eigenvalue one with constant
eigenfunction, the numerical face of uniqueness.

The maps between S2 and S3, their quotients and the chain-rule defect
also act on a stack of fields (see `fields`): an S2Element or
S3Element then holds a stack and one K per field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, StburgersError
from .fields import (
    Basis,
    BasisMismatchError,
    SQRT2,
    SpectralField,
    _mode_symbols,
    _owned,
    _per_field,
    analyse,
    evaluate,
    evaluate_at,
    product_cosine,
    random_field,
    space_matrix,
    zeros,
)
from .operators import apply_T, d_t, d_x, d_xx, invert_L
from .norms import dual_norm
from .solver import SolverConfig, newton_solve


# the largest relative x-dependent potential residual of an S1 element in
# lift_s1_to_s2, the largest pointwise miss of the projected exponential
# of s2_to_s3, and the largest l2 distance between two solutions that
# verify_uniqueness counts as one
S1_TOL = 1e-6
PROJECTION_TOL = 1e-6
UNIQUENESS_TOL = 1e-6
# the steps of verify's period maps and the starts of its uniqueness
# check, and the defaults of the colehopf command's monodromy_steps and
# n_starts
MONODROMY_STEPS = 512
N_STARTS = 3


class NotInS1Error(StburgersError, ValueError):
    """The x-dependent part of the potential residual is too large."""


class ProjectionAccuracyError(StburgersError, ValueError):
    """Re-projected exponential field fails its own equation residual;
    `sample` is the index of the first field of a stack that fails."""

    sample = 0


class NonpositivePhiError(StburgersError, ValueError):
    """S3 representative is not strictly positive on the grid."""


@dataclass(frozen=True, eq=False)
class S2Element:
    """A potential (W, K) of S2; W is taken modulo constants, and the
    representative kept has zero space-time mean.  For a stack W, K holds
    one value per field."""

    W: SpectralField
    K: float

    def __post_init__(self):
        c = self.W.coeffs.copy()
        c[..., self.W.n_t, 0] -= c[..., self.W.n_t, 0].real
        object.__setattr__(self, "W", self.W._own(c))


@dataclass(frozen=True, eq=False)
class S3Element:
    """A density (phi, K') of S3 with K' = K/(2 mu); phi is taken modulo
    positive scaling."""

    phi: SpectralField
    K: float


def antiderivative_x(w: SpectralField) -> SpectralField:
    """Modal antiderivative int_0^x w(t, y) dy with value 0 at x = 0.

    Lands in the cosine family; d_x of the result reproduces w.  Per
    field of a stack."""
    if w.basis is not Basis.DIRICHLET_SINE:
        raise BasisMismatchError("antiderivative_x expects a Dirichlet-sine field")
    m_pi = w.symbols.m_pi
    cols = np.zeros(w.coeffs.shape[:-1] + (w.n_x + 1,), dtype=complex)
    # int_0^x sqrt(2) sin(m pi y) dy = sqrt(2)/(m pi) - (1/(m pi)) sqrt(2) cos(m pi x)
    cols[..., 1:] = -w.coeffs / m_pi
    cols[..., 0] = (w.coeffs * (SQRT2 / m_pi)).sum(axis=-1)
    return _owned(cols, w.n_t, w.n_x, Basis.NEUMANN_COSINE)


def _potential_residual(
    wbar: SpectralField, w: SpectralField, v: SpectralField, mu: float
) -> SpectralField:
    """Cosine-family residual Wbar_t - mu Wbar_xx + w^2/2 + v w of the
    potential equation (Wbar_x = w by construction)."""
    n_t, n_x = w.n_t, w.n_x
    quad = product_cosine(w, w, n_t, 2 * n_x)
    adv = product_cosine(v, w, n_t, 2 * n_x)
    lin = d_t(wbar) - mu * d_xx(wbar)
    res = 0.5 * quad.coeffs + adv.coeffs
    res[:, : n_x + 1] += lin.coeffs
    return _owned(res, n_t, 2 * n_x, Basis.NEUMANN_COSINE)


def lift_s1_to_s2(w: SpectralField, v: SpectralField, mu: float) -> S2Element:
    """Map an S1 element to its S2 potential (W, K).

    The x-antiderivative satisfies the potential equation up to a purely
    time-dependent residual g(t); K is its time mean and the periodic
    antiderivative of g - K is subtracted to land in S2.  If the residual
    has x-dependent content above S1_TOL (relative), w was not in S1."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    wbar = antiderivative_x(w)
    res = _potential_residual(wbar, w, v, mu)
    scale = max(1.0, w.l2() * (1.0 + v.l2()), w.l2() ** 2)
    xdep = float(np.abs(res.coeffs[:, 1:]).max())
    if xdep > S1_TOL * scale:
        raise NotInS1Error(
            f"x-dependent potential residual {xdep:.3e} exceeds {S1_TOL * scale:.3e}"
        )
    g = res.coeffs[:, 0]  # time series of the spatially constant residual
    k = float(g[w.n_t].real)
    d_t_symbol = w.symbols.d_t[:, 0]
    h = np.zeros_like(g)
    nz = d_t_symbol != 0
    h[nz] = g[nz] / d_t_symbol[nz]
    coeffs = wbar.coeffs.copy()
    coeffs[:, 0] -= h
    return S2Element(wbar._own(coeffs), k)


def _pointwise_map(u: SpectralField, fn, n_t_out: int, n_x_out: int) -> SpectralField:
    """Apply fn pointwise on a twice-oversampled grid and re-project.

    The result is only as accurate as the target truncation allows; the
    caller monitors the equation residual of the projection.  Per field
    of a stack."""
    m_t = 2 * (2 * n_t_out + 1)
    m_x = 2 * (n_x_out + 1)
    vals = fn(evaluate(u, m_t, m_x, Basis.NEUMANN_COSINE))
    return analyse(vals, n_t_out, n_x_out, Basis.NEUMANN_COSINE)


def chain_rule_defect(W: SpectralField, v: SpectralField, k: float, mu: float) -> float:
    """Sup-norm defect of the substitution identity for phi = exp(-W/(2 mu)):

        phi_t - mu phi_xx + v phi_x + (K/(2 mu)) phi = -(1/(2 mu)) r phi

    where r = W_t - mu W_xx + (W_x)^2/2 + v W_x - K is the S2 equation
    residual of (W, K).  Exact for arbitrary smooth (W, v, K); the defect
    only measures the truncation of the projected exponential.  Per field
    of two stacks W and v, with k an array of one K per field."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    k = np.asarray(k, dtype=float)
    n_t_p = 4 * W.n_t
    n_x_p = 4 * W.n_x
    phi = _pointwise_map(W, lambda g: np.exp(-g / (2.0 * mu)), n_t_p, n_x_p)
    lin = d_t(phi) - mu * d_xx(phi) + (k / (2.0 * mu)) * phi
    phix = d_x(phi)
    m_t = 2 * (2 * n_t_p + 1)
    m_x = 2 * (n_x_p + 2)

    def ev(u):
        return evaluate(u, m_t, m_x, Basis.NEUMANN_COSINE)

    w = d_x(W)
    vg = ev(v)
    wg = ev(w)
    rg = ev(d_t(W)) - mu * ev(d_xx(W)) + 0.5 * wg**2 + vg * wg - k[..., None, None]
    lhs = ev(lin) + vg * ev(phix)
    rhs = -(1.0 / (2.0 * mu)) * rg * ev(phi)
    axes = (-2, -1)
    return _per_field(np.abs(lhs - rhs).max(axis=axes) / np.maximum(1.0, np.abs(rhs).max(axis=axes)))


def grid_min(u: SpectralField):
    """The least value of u on a 4x oversampled grid, per field."""
    m_t = max(4 * (2 * u.n_t + 1), 8)
    m_x = max(4 * (u.n_x + 1), 8)
    return _per_field(evaluate(u, m_t, m_x).min(axis=(-2, -1)))


def s2_to_s3(e: S2Element, mu: float) -> S3Element:
    """phi = exp(-W/(2 mu)) on a padded grid, re-projected; K' = K/(2 mu).

    Positivity comes from the exponential; the representative is scaled
    to maximum one.  The exponential leaves any fixed truncation, so phi
    is retained with three times the modes of W; the projection defect is
    measured pointwise against the exact exponential and must stay below
    PROJECTION_TOL or the truncation was too coarse for W.  Per field of
    a stack; the error names the first field that fails."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    W = e.W
    phi = _pointwise_map(W, lambda g: np.exp(-g / (2.0 * mu)), 3 * W.n_t, 3 * W.n_x)
    top = -grid_min(-1.0 * phi)
    phi = (1.0 / top) * phi
    kp = e.K / (2.0 * mu)
    m_t = 4 * (2 * phi.n_t + 1)
    m_x = 4 * (phi.n_x + 2)
    mid = Basis.NEUMANN_COSINE  # midpoint nodes
    exact = np.exp(-evaluate(W, m_t, m_x, mid) / (2.0 * mu)) / np.asarray(top)[..., None, None]
    defect = np.abs(evaluate(phi, m_t, m_x, mid) - exact).max(axis=(-2, -1)).ravel()
    failed = np.flatnonzero(defect > PROJECTION_TOL)
    if failed.size:
        error = ProjectionAccuracyError(
            f"projected exponential misses its pointwise values by {defect[failed[0]]:.3e} "
            f"(> {PROJECTION_TOL:g}); refine the truncation of W"
        )
        error.sample = int(failed[0])
        raise error
    return S3Element(phi, kp)


def s3_to_s2(e: S3Element, mu: float) -> S2Element:
    """Inverse map W = -2 mu log(phi), mean-normalized; K = 2 mu K'.

    This is the true inverse of phi = exp(-W/(2 mu)); the quotient
    normalizations make the round trip an identity.  Per field of a
    stack."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    phi = e.phi
    if np.any(grid_min(phi) <= 0.0):
        raise NonpositivePhiError("phi is not strictly positive on the grid")
    W = _pointwise_map(phi, lambda g: -2.0 * mu * np.log(g), phi.n_t, phi.n_x)
    return S2Element(W, 2.0 * mu * e.K)


# ---------------------------------------------------------------------------
# Period (monodromy) map of the linear advection-diffusion flow


# Steps whose propagators are formed and multiplied together at once,
# and whose times v is evaluated at at once (`evaluate_at`); bounds the
# period map's temporaries at a few block x (n_x+1)^2 floats, whatever
# the number of steps.
PERIOD_MAP_BLOCK = 64


class PeriodMap:
    """One-period evolution psi(0) -> psi(1) of
    psi_t - mu psi_xx + v psi_x = 0 with Neumann conditions.

    Space is the cosine modal basis (profiles are real coefficient
    vectors of length n_x+1); time stepping is trapezoidal in both the
    diffusion and the frozen-coefficient advection term, second order in
    1/steps and unconditionally stable.  The whole period is assembled
    once into `matrix`, the (n_x+1)x(n_x+1) monodromy matrix, so each
    application is one matrix-vector product and the spectrum one dense
    eigensolve.
    """

    def __init__(self, v: SpectralField, mu: float, steps: int, n_x: int | None = None):
        if steps < 1:
            raise ValueError("steps must be at least 1")
        if mu <= 0:
            raise ValueError("mu must be positive")
        self.n_x = v.n_x if n_x is None else n_x
        n_x = self.n_x
        n = n_x + 1
        m_x = 2 * n
        mid = Basis.NEUMANN_COSINE  # midpoint nodes
        bs = space_matrix(n_x, m_x, mid, Basis.DIRICHLET_SINE)      # sine eval
        bc = space_matrix(n_x, m_x, mid, Basis.NEUMANN_COSINE)      # cosine eval
        symbols = _mode_symbols(v.n_t, n_x, Basis.NEUMANN_COSINE)
        # cosine mode m differentiates to -m*pi times sine mode m
        grad = np.zeros((m_x, n))
        grad[:, 1:] = bs * -symbols.m_pi[0, 1:]
        # the advection matrix at time k is (vgrid[k] @ q).reshape(n, n),
        # sum over nodes x of analysis[i, x] vgrid[k, x] grad[x, j]
        q = ((bc / m_x)[:, :, None] * grad[:, None, :]).reshape(m_x, n * n)
        dt = 1.0 / steps
        diff = np.diag(mu * -symbols.space_weight[0])
        eye = np.eye(n)
        self.matrix = eye
        for lo in range(0, steps, PERIOD_MAP_BLOCK):
            hi = min(lo + PERIOD_MAP_BLOCK, steps)
            vgrid = evaluate_at(v, np.arange(lo, hi + 1) * dt, m_x, mid)  # (hi-lo+1, m_x)
            a = diff - (vgrid @ q).reshape(-1, n, n)
            props = np.linalg.solve(eye - 0.5 * dt * a[1:], eye + 0.5 * dt * a[:-1])
            self.matrix = _chain_product(props) @ self.matrix

    def apply(self, psi0: np.ndarray) -> np.ndarray:
        psi = np.asarray(psi0, dtype=float)
        if psi.shape != (self.n_x + 1,):
            raise ValueError(f"profile must have {self.n_x + 1} cosine modes")
        return self.matrix @ psi


def _chain_product(mats: np.ndarray) -> np.ndarray:
    """mats[-1] @ ... @ mats[0] by pairwise batched products."""
    while len(mats) > 1:
        pairs = mats[1::2] @ mats[0 : len(mats) - 1 : 2]
        mats = np.concatenate([pairs, mats[-1:]]) if len(mats) % 2 else pairs
    return mats[0]


def profile_values(psi: np.ndarray) -> np.ndarray:
    """Evaluate a cosine-coefficient profile on midpoint nodes."""
    n_x = len(psi) - 1
    m_x = max(4 * (n_x + 1), 16)
    b = space_matrix(n_x, m_x, Basis.NEUMANN_COSINE, Basis.NEUMANN_COSINE)
    return b @ np.asarray(psi, dtype=float)


def monodromy_leading_pair(v: SpectralField, mu: float, steps: int):
    """Leading eigenpair of the period map from its dense spectrum.

    Uniqueness of the time-periodic problem predicts eigenvalue one,
    simple and leading, with constant eigenfunction.  Constants are
    conserved, so the first column of the map is e_0 exactly and LAPACK's
    balancing isolates that eigenvalue: whenever the rest of the spectrum
    lies inside the unit disc the pair is exactly (1.0, e_0).  Returns
    (rho, cosine-coefficient profile normalized to maximum one); rho is
    NaN when the eigenvalue of largest modulus is not real."""
    vals, vecs = np.linalg.eig(PeriodMap(v, mu, steps).matrix)
    k = int(np.argmax(np.abs(vals)))
    rho = float(vals[k].real) if vals[k].imag == 0.0 else float("nan")
    psi = vecs[:, k].real
    prof = profile_values(psi)
    return rho, psi / prof[np.argmax(np.abs(prof))]


# ---------------------------------------------------------------------------
# Multi-start uniqueness verification


@dataclass
class UniquenessReport:
    solutions: list
    max_pairwise_l2: float
    max_s1_residual: float
    unique: bool
    reports: list = field(default_factory=list)


def s1_residual(w: SpectralField, v: SpectralField, mu: float) -> float:
    """Dual norm of T(w) + (v w)_x, zero exactly on S1."""
    vw = product_cosine(v, w, w.n_t, w.n_x)
    return dual_norm(apply_T(w, mu) + d_x(vw))


def verify_uniqueness(
    f: SpectralField, cfg: SolverConfig, n_starts: int, seed: int
) -> UniquenessReport:
    """Solve T(u) = f from several starts and check all runs agree.

    Differences of solutions are S1 elements for v = one of the
    solutions; their residual and smallness are reported.  Distances
    above UNIQUENESS_TOL flag a solver defect, not a counterexample."""
    if n_starts < 2:
        raise ValueError("need at least 2 starts")
    starts = [zeros(f.n_t, f.n_x, f.basis), invert_L(f, cfg.mu)]
    i = 0
    while len(starts) < n_starts:
        starts.append(0.1 * random_field(seed + i, f.n_t, f.n_x, 2.0))
        i += 1
    reports = [newton_solve(f, s, cfg) for s in starts[:n_starts]]
    for r in reports:
        if not r.success:
            raise SolverError(f"start failed to converge: {r.message}")
    sols = [r.u for r in reports]
    max_d = 0.0
    max_res = 0.0
    for i in range(len(sols)):
        for j in range(i + 1, len(sols)):
            w = sols[i] - sols[j]
            max_d = max(max_d, w.l2())
            max_res = max(max_res, s1_residual(w, sols[j], cfg.mu))
    return UniquenessReport(
        solutions=sols,
        max_pairwise_l2=max_d,
        max_s1_residual=max_res,
        unique=max_d <= UNIQUENESS_TOL,
        reports=reports,
    )
