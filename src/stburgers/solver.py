"""Newton / homotopy solution of the time-periodic Burgers problem T(u) = f.

The linearized equations T'(m) w = r are solved for a real w, on the N
real coordinates that `fields.pack` gives its Hermitian coefficients, so
every w is Hermitian by construction.  The linearization is built once
per Newton step, and its size picks how a correction is found: small
systems are solved directly with the real dense matrix of T'(m), which
`operators.T_prime_matrix` builds from the same factors as the GMRES
matvec (`fields.advection_matrix`); larger ones run `gmres`, one cycle
of GMRES in real arithmetic from zero, right-preconditioned by the
time-mean linearization P = L + (m_0 .)_x, m_0 the time mean of m, and
weighted by the dual norm: GMRES solves
W T'(m) P^{-1} W^{-1} z = W r for w = P^{-1} W^{-1} z, with W the
diagonal 1 / sqrt(aniso_weight), so the residual it minimizes is the
dual residual of w that the solve is gated on (right preconditioning:
Saad, Iterative Methods for Sparse Linear Systems, 2nd ed., 2003, 9.3).
P is block diagonal over the time modes (the harmonic-balance
preconditioner of Hall, Thomas & Clark, AIAA J. 40, 2002), so one
n_x x n_x eigendecomposition per Newton step inverts it; what is left
to GMRES is the advection by the fluctuation m' = m - m_0 alone.  Its
matvec stays on packed coordinates: (m' w)_x is
`fields.advection_operator(m')`, four real products with m' held on the
padded product grid.  Either path then runs the same few rounds of
refinement on the true residual, each a fresh LU solve or GMRES cycle,
to the same dual-residual gate; they remove what roundoff leaves where
T'(m) or P is ill-conditioned.  The package needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError
from .fields import SpectralField, advection_operator, mean_advection_block, pack, unpack, zeros
from .norms import aniso_norm, aniso_weight, apriori_bound, dual_norm
from .operators import T_prime_matrix, apply_T, apply_T_prime, invert_L


class LinearSolveError(SolverError):
    """Krylov iteration failed to reach the requested residual."""


class ContinuationError(SolverError):
    """Homotopy continuation failed at a specific lambda step."""


# relative dual residual that each linearized solve must reach
KRYLOV_TOL = 1e-12
# inner iterations of one GMRES cycle, the dimension of its Krylov basis
MAX_KRYLOV = 500
# up to this many unknowns the dense LU beats GMRES (summed homotopy
# times: dense up to N = 396, GMRES from N = 406, 14x14)
DENSE_MAX_UNKNOWNS = 400
# step halvings of one damped Newton step, and contractions toward zero
# after a stalled one
MAX_DAMPING = 40
MAX_RECOVERIES = 6
# the homotopy's lambda steps, and the midpoints it may insert
HOMOTOPY_STEPS = (0.0, 0.25, 0.5, 0.75, 1.0)
MAX_BISECTIONS = 12


@dataclass(frozen=True)
class SolverConfig:
    mu: float
    newton_tol: float = 1e-10
    max_newton: int = 30

    def __post_init__(self):
        for key in ("mu", "newton_tol"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)}")
        if self.max_newton < 1:
            raise ValueError(f"max_newton must be at least 1, got {self.max_newton}")


@dataclass
class SolveReport:
    u: SpectralField
    residual_dual: float
    newton_iters: int
    lambda_path: list = field(default_factory=list)
    apriori_margin: float | None = None
    success: bool = True
    message: str = ""


def solve_linear(f: SpectralField, cfg: SolverConfig) -> SpectralField:
    """The lambda = 0 entry point: exact diagonal inverse of L."""
    return invert_L(f, cfg.mu)


def _linearized_matvec(m: SpectralField, cfg: SolverConfig):
    """(matvec, weight, solution) of the GMRES form of T'(m) w = r, on
    flat packed coordinates, right-preconditioned and weighted by the
    dual norm: matvec is A = W T'(m) P^{-1} W^{-1}, GMRES runs on
    b = W pack(r), and solution(z) = P^{-1} W^{-1} z is the packed w of
    its iterate z.  W is the diagonal `weight`, 1 / sqrt(aniso_weight)
    laid out as `pack` lays out rows, so |W pack(r)|_2 = dual_norm(r) for
    Hermitian r and GMRES's residual |b - A z|_2 is the dual residual
    dual_norm(r - T'(m) w) that `_residual_target` gates.

    T'(m) splits as P + A', with P = L + (m_0 .)_x, m_0 the time mean of
    m, and A' the advection by the fluctuation m' = m - m_0, so
    A z = z + W (m' w)_x with w = solution(z); A' is applied as an
    advection by m' rather than as A - A0, which would cancel.  P maps
    each time mode n to itself by the n_x x n_x matrix 2 pi i n + B, with
    B = mu K^2 + B0 real (`fields.mean_advection_block`); one
    eigendecomposition B = V D V^-1 inverts every block as
    V (2 pi i n + D)^-1 V^-1, applied to the packed (Re, Im) row pairs as
    complex rows.  An eigendecomposition that fails raises
    LinearSolveError."""
    n_t, n_x = m.n_t, m.n_x
    h = n_t + 1
    block = np.diag(cfg.mu * (np.pi * np.arange(1, n_x + 1)) ** 2) + mean_advection_block(m)
    try:
        d, v = np.linalg.eig(block)
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError as exc:
        raise LinearSolveError(f"mean-advection preconditioner failed: {exc}") from exc
    scale = 1.0 / (2j * np.pi * np.arange(h)[:, None] + d)  # [n, eigenvalue]
    root = np.sqrt(aniso_weight(m)[n_t:])  # [n >= 0, k]; even in n
    weight = 1.0 / np.concatenate([root, root[1:]]).ravel()
    fluctuation = m.coeffs.copy()
    fluctuation[n_t] = 0.0
    advect = advection_operator(m.with_coeffs(fluctuation))

    def solution(z: np.ndarray) -> np.ndarray:
        x = (z / weight).reshape(2 * n_t + 1, n_x)
        y = x[:h].astype(complex)
        y[1:] += 1j * x[h:]
        y = ((y @ v_inv.T) * scale) @ v.T
        return np.concatenate([y.real, y[1:].imag]).ravel()

    def matvec(z: np.ndarray) -> np.ndarray:
        return z + weight * advect(solution(z))

    return matvec, weight, solution


def solve_linearized(
    m: SpectralField, r: SpectralField, cfg: SolverConfig
) -> SpectralField:
    """Solve T'(m) w = r for a real w (Hermitian coefficients) to dual
    residual KRYLOV_TOL * dual_norm(r); m must be real.

    The size of the system picks how each correction is found: up to
    DENSE_MAX_UNKNOWNS unknowns by an LU solve with the dense T'(m)
    (`_dense_correction`), above that by one GMRES cycle
    (`_krylov_correction`).  Both paths then share one loop of at most
    3 rounds, each solving for the correction from the true residual
    r - T'(m) w of the iterate so far (iterative refinement, Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 12), and one gate
    on its dual norm.  One round meets the gate
    unless roundoff (in the LU factors, in Arnoldi, or in an
    ill-conditioned P^{-1}) leaves the true residual above it; a later
    round then removes that error.  A loop that ends above the gate
    raises LinearSolveError.

    A non-Hermitian r is solved for its Hermitian part, as `pack` drops
    the rest, and the dual residual is taken against r itself."""
    rn = dual_norm(r)
    if rn == 0.0:
        return zeros(r.n_t, r.n_x, r.basis)
    krylov = r.coeffs.size > DENSE_MAX_UNKNOWNS
    correction = (_krylov_correction if krylov else _dense_correction)(m, cfg)
    x = np.zeros(r.coeffs.size)
    res = r
    for _ in range(3):
        x += correction(res)
        w = r.with_coeffs(unpack(x.reshape(r.coeffs.shape)))
        res = r - apply_T_prime(m, w, cfg.mu)
        rd = dual_norm(res)
        if rd <= _residual_target(m, w, rn):
            return w
    raise LinearSolveError(
        f"{'GMRES' if krylov else 'dense LU solve'} did not converge "
        f"(dual residual {rd:.3e}, target {KRYLOV_TOL * rn:.3e})"
    )


def _dense_correction(m: SpectralField, cfg: SolverConfig):
    """The packed correction of a residual by an LU solve with the real
    dense matrix of T'(m), built once per linearized solve."""
    a = T_prime_matrix(m, cfg.mu)
    return lambda res: np.linalg.solve(a, pack(res.coeffs).ravel())


def _krylov_correction(m: SpectralField, cfg: SolverConfig):
    """The packed correction of a residual by one cycle of real GMRES, of
    at most MAX_KRYLOV inner iterations, on the right-preconditioned,
    dual-weighted form of `_linearized_matvec`.  GMRES minimizes the dual
    norm of the residual, so for a Hermitian residual the cycle's own
    stopping test is the gate of `solve_linearized`."""
    matvec, weight, solution = _linearized_matvec(m, cfg)

    def correction(res: SpectralField) -> np.ndarray:
        z, _info = gmres(matvec, weight * pack(res.coeffs).ravel(), KRYLOV_TOL, MAX_KRYLOV)
        return solution(z)

    return correction


def _residual_target(m, w, rn) -> float:
    # relative target plus the roundoff floor of evaluating T'(m) w
    floor = 5e-15 * (1.0 + m.l2()) * (1.0 + w.l2())
    return max(KRYLOV_TOL * rn, floor)


def gmres(matvec, rhs: np.ndarray, rtol: float, restart: int):
    """One cycle of GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7,
    1986) from zero on the real operator `matvec`, for
    |rhs - A x| <= rtol |rhs|, of at most `restart` inner iterations.
    Returns (x, info): info is 0 if the true residual rhs - A x meets the
    target and 1 otherwise.  A caller that wants more restarts the cycle
    on its own residual, as the refinement rounds of `solve_linearized`
    do.

    Arnoldi orthogonalizes each new vector by classical Gram-Schmidt
    done twice, two products with the basis, and Givens rotations keep
    the Hessenberg least-squares problem triangular, so every inner
    iteration knows its residual norm without forming x; the cycle stops
    when that estimate meets the target.  A module function, so a
    wrapper set on `solver.gmres` (as bench/tracer.py does) sees every
    call."""
    n = rhs.size
    bnorm = np.linalg.norm(rhs)
    if bnorm == 0.0:
        return np.zeros(n), 0
    atol = rtol * bnorm
    eps = np.finfo(float).eps
    restart = min(restart, n)
    basis = np.empty((restart + 1, n))
    tri = np.zeros((restart, restart))  # R of the rotated Hessenberg matrix
    basis[0] = rhs * (1.0 / bnorm)
    g = [bnorm]  # rotated right-hand side |rhs| e_1
    rotations = []
    for j in range(restart):
        w = matvec(basis[j])
        h0 = np.linalg.norm(w)
        v = basis[: j + 1]
        col = v @ w
        w -= col @ v
        again = v @ w
        w -= again @ v
        h1 = np.linalg.norm(w)
        breakdown = h1 <= eps * h0  # A maps the basis into its span
        if not breakdown:
            basis[j + 1] = w * (1.0 / h1)
        col = (col + again).tolist() + [0.0 if breakdown else h1]
        for k, (c, s) in enumerate(rotations):
            col[k], col[k + 1] = c * col[k] + s * col[k + 1], c * col[k + 1] - s * col[k]
        d = math.hypot(col[j], col[j + 1])
        rho = math.copysign(d, col[j])
        c, s = (col[j] / rho, col[j + 1] / rho) if d else (1.0, 0.0)
        rotations.append((c, s))
        col[j] = rho
        tri[: j + 1, j] = col[: j + 1]
        g.append(-s * g[j])
        g[j] *= c
        if abs(g[j + 1]) <= atol or breakdown:
            break
    x = _back_substitute(tri[: j + 1, : j + 1], g[: j + 1]) @ basis[: j + 1]
    return x, int(np.linalg.norm(rhs - matvec(x)) > atol)


def _back_substitute(tri: np.ndarray, g: list) -> np.ndarray:
    """y with tri y = g for upper-triangular tri; a zero pivot, which
    only a singular Hessenberg matrix gives, leaves its entry 0."""
    y = np.zeros(len(g))
    for k in range(len(g) - 1, -1, -1):
        if tri[k, k] != 0.0:
            y[k] = (g[k] - tri[k, k + 1 :] @ y[k + 1 :]) / tri[k, k]
    return y


def _newton(
    f: SpectralField,
    u0: SpectralField,
    cfg: SolverConfig,
    lam: float = 1.0,
) -> SolveReport:
    u = u0
    res = apply_T(u, cfg.mu, lam) - f
    rd = dual_norm(res)
    history = [(lam, rd)]
    recoveries = MAX_RECOVERIES
    for it in range(1, cfg.max_newton + 1):
        if rd <= cfg.newton_tol:
            return SolveReport(u=u, residual_dual=rd, newton_iters=it - 1, lambda_path=history)
        try:
            # T'(u) for the homotopy operator L + lam*S has advection
            # field lam*u
            w = solve_linearized(lam * u, res, cfg)
        except LinearSolveError as exc:
            return SolveReport(
                u=u, residual_dual=rd, newton_iters=it - 1,
                lambda_path=history, success=False,
                message=f"linearized solve failed: {exc}",
            )
        step = 1.0
        stalled = True
        for _ in range(MAX_DAMPING):
            u_try = u - step * w
            res_try = apply_T(u_try, cfg.mu, lam) - f
            rd_try = dual_norm(res_try)
            # demand a nonvanishing relative decrease: an accepted crawl
            # along a fold is a stall in slow motion
            if rd_try < 0.999 * rd:
                stalled = False
                break
            step *= 0.5
        if stalled:
            # the damped iteration ran into a fold of the residual
            # landscape (near-singular Jacobian); contract the iterate
            # toward the zero start and continue from the better basin
            if recoveries > 0:
                recoveries -= 1
                u = 0.5 * u
                res = apply_T(u, cfg.mu, lam) - f
                rd = dual_norm(res)
                history.append((lam, rd))
                continue
            return SolveReport(
                u=u, residual_dual=rd, newton_iters=it,
                lambda_path=history, success=False,
                message="damped Newton step could not reduce the residual",
            )
        u, res, rd = u_try, res_try, rd_try
        history.append((lam, rd))
    if rd <= cfg.newton_tol:
        return SolveReport(u=u, residual_dual=rd, newton_iters=cfg.max_newton, lambda_path=history)
    return SolveReport(
        u=u, residual_dual=rd, newton_iters=cfg.max_newton,
        lambda_path=history, success=False,
        message=f"no convergence after {cfg.max_newton} Newton iterations",
    )


def newton_solve(
    f: SpectralField,
    u0: SpectralField | None = None,
    cfg: SolverConfig | None = None,
) -> SolveReport:
    """Damped Newton iteration on T(u) = f from the given start."""
    if cfg is None:
        raise ValueError("a SolverConfig is required")
    if u0 is None:
        u0 = zeros(f.n_t, f.n_x, f.basis)
    return _newton(f, u0, cfg, lam=1.0)


def homotopy_solve(
    f: SpectralField,
    cfg: SolverConfig,
    c_gn: float | None = None,
) -> SolveReport:
    """Continuation in lambda from the linear solve to the Burgers solve.

    Each lambda step warm-starts from the previous solution; a failed
    step is bisected (the solution path is smooth in lambda, so midpoint
    insertion recovers).  Every accepted iterate is recorded with its
    anisotropic norm for comparison against the a priori bound."""
    bound = apriori_bound(f, cfg.mu, c_gn) if c_gn is not None else None
    path = []
    u = solve_linear(f, cfg)
    path.append((0.0, dual_norm(apply_T(u, cfg.mu, 0.0) - f), aniso_norm(u)))
    pending = list(HOMOTOPY_STEPS[1:])
    prev_lam = 0.0
    bisections = 0
    last = None
    while pending:
        lam = pending[0]
        report = _newton(f, u, cfg, lam=lam)
        if not report.success:
            if bisections >= MAX_BISECTIONS or lam - prev_lam < 1e-6:
                raise ContinuationError(
                    f"continuation failed at lambda = {lam:.6g}: {report.message}"
                )
            pending.insert(0, 0.5 * (prev_lam + lam))
            bisections += 1
            continue
        u = report.u
        last = report
        path.append((lam, report.residual_dual, aniso_norm(u)))
        prev_lam = lam
        pending.pop(0)
    last.lambda_path = [(lam, rd) for lam, rd, _ in path]
    if bound is not None:
        last.apriori_margin = min(bound - nrm for _, _, nrm in path)
    return last
