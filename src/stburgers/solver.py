"""Newton / homotopy solution of the time-periodic Burgers problem T(u) = f.

The linearized equations T'(m) w = r are solved in the preconditioned
fixed-point form w + L^{-1}(m w)_x = L^{-1} r, which is identity plus a
compact perturbation, the regime where Krylov iterations converge mesh
independently.  The linearization is built once per Newton step: small
systems are solved directly with the dense matrix of T'(m), which
`operators.T_prime_matrix` assembles in closed form; larger ones run
GMRES on `fields.advection_operator(m)`, which holds m on the padded
product grid, so each matvec is four products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import SolverError
from .fields import SpectralField, advection_operator, zeros
from .norms import aniso_norm, apriori_bound, dual_norm, energy_gap
from .operators import LinearSymbol, T_prime_matrix, apply_T, apply_T_prime, invert_L


class LinearSolveError(SolverError):
    """Krylov iteration failed to reach the requested residual."""


class ContinuationError(SolverError):
    """Homotopy continuation failed at a specific lambda step."""


@dataclass(frozen=True)
class SolverConfig:
    mu: float
    newton_tol: float = 1e-10
    max_newton: int = 30
    homotopy_steps: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)
    krylov_tol: float = 1e-12
    max_krylov: int = 500
    dense_threshold: int = 2000
    max_damping: int = 40
    max_recoveries: int = 6

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.max_krylov < 1:
            raise ValueError("max_krylov must be at least 1")
        steps = tuple(float(s) for s in self.homotopy_steps)
        if not steps or steps[0] != 0.0 or steps[-1] != 1.0 or any(
            b <= a for a, b in zip(steps, steps[1:])
        ):
            raise ValueError("homotopy_steps must increase strictly from 0 to 1")
        object.__setattr__(self, "homotopy_steps", steps)


@dataclass
class SolveReport:
    u: SpectralField
    residual_dual: float
    newton_iters: int
    lambda_path: list = field(default_factory=list)
    energy_gap: float = 0.0
    apriori_margin: float | None = None
    success: bool = True
    message: str = ""


def solve_linear(f: SpectralField, cfg: SolverConfig) -> SpectralField:
    """The lambda = 0 entry point: exact diagonal inverse of L."""
    return invert_L(f, cfg.mu)


def _symmetrize(u: SpectralField) -> SpectralField:
    c = u.coeffs
    return u.with_coeffs(0.5 * (c + c[::-1].conj()))


def _linearized_matvec(m: SpectralField, cfg: SolverConfig):
    """Preconditioned operator x -> x + L^{-1} (m w)_x on the flattened
    coefficients x of w; the advection operator is built once here."""
    advect = advection_operator(m)
    lam = LinearSymbol(cfg.mu).values(m.n_t, m.n_x).ravel()
    n = lam.size
    return LinearOperator(
        (n, n), matvec=lambda x: x.ravel() + advect(x) / lam, dtype=complex
    )


def solve_linearized(
    m: SpectralField, r: SpectralField, cfg: SolverConfig
) -> SpectralField:
    """Solve T'(m) w = r to dual residual krylov_tol * dual_norm(r)."""
    rn = dual_norm(r)
    if rn == 0.0:
        return zeros(r.n_t, r.n_x, r.basis)
    if r.coeffs.size > cfg.dense_threshold:
        return _krylov_solve(m, r, rn, cfg)[0]
    w = _symmetrize(_dense_solve(m, r, cfg))
    res = dual_norm(apply_T_prime(m, w, cfg.mu) - r)
    if res > 10.0 * _residual_target(m, w, rn, cfg):
        raise LinearSolveError(
            f"linearized solve stalled at dual residual {res:.3e} "
            f"(target {cfg.krylov_tol * rn:.3e})"
        )
    return w


def _dense_solve(m: SpectralField, r: SpectralField, cfg: SolverConfig) -> SpectralField:
    x = np.linalg.solve(T_prime_matrix(m, cfg.mu), r.coeffs.ravel())
    return r.with_coeffs(x.reshape(r.coeffs.shape))


def _residual_target(m, w, rn, cfg) -> float:
    # relative target plus the roundoff floor of evaluating T'(m) w
    floor = 5e-15 * (1.0 + m.l2()) * (1.0 + w.l2())
    return max(cfg.krylov_tol * rn, floor)


def _krylov_solve(
    m: SpectralField, r: SpectralField, rn: float, cfg: SolverConfig
) -> tuple[SpectralField, float]:
    """GMRES on the preconditioned form; returns the symmetrized iterate
    and its dual residual, which meets the target."""
    op = _linearized_matvec(m, cfg)
    rhs = invert_L(r, cfg.mu).coeffs.ravel()
    rtol = cfg.krylov_tol
    restart = min(cfg.max_krylov, rhs.size)
    x = None
    for _ in range(3):
        # gmres counts maxiter in restart cycles; at most max_krylov
        # inner iterations per call
        x, _info = gmres(
            op,
            rhs,
            x0=x,
            rtol=rtol,
            atol=0.0,
            maxiter=cfg.max_krylov // restart,
            restart=restart,
        )
        w = r.with_coeffs(x.reshape(m.coeffs.shape))
        ws = _symmetrize(w)
        res = dual_norm(apply_T_prime(m, ws, cfg.mu) - r)
        if res <= _residual_target(m, w, rn, cfg):
            return ws, res
        rtol *= 1e-2
    raise LinearSolveError(f"GMRES did not converge (dual residual {res:.3e})")


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
    recoveries = cfg.max_recoveries
    for it in range(1, cfg.max_newton + 1):
        if rd <= cfg.newton_tol:
            return _finalize(f, u, cfg, rd, it - 1, history)
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
        for _ in range(cfg.max_damping):
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
        return _finalize(f, u, cfg, rd, cfg.max_newton, history)
    return SolveReport(
        u=u, residual_dual=rd, newton_iters=cfg.max_newton,
        lambda_path=history, success=False,
        message=f"no convergence after {cfg.max_newton} Newton iterations",
    )


def _finalize(f, u, cfg, rd, iters, history) -> SolveReport:
    return SolveReport(
        u=u,
        residual_dual=rd,
        newton_iters=iters,
        lambda_path=history,
        energy_gap=energy_gap(f, u, cfg.mu),
        success=True,
    )


def newton_solve(
    f: SpectralField,
    u0: SpectralField | None = None,
    cfg: SolverConfig | None = None,
    c_gn: float | None = None,
) -> SolveReport:
    """Damped Newton iteration on T(u) = f from the given start."""
    if cfg is None:
        raise ValueError("a SolverConfig is required")
    if u0 is None:
        u0 = zeros(f.n_t, f.n_x, f.basis)
    report = _newton(f, u0, cfg, lam=1.0)
    if report.success and c_gn is not None:
        bound = apriori_bound(f, cfg.mu, c_gn)
        report.apriori_margin = bound - aniso_norm(report.u)
    return report


def homotopy_solve(
    f: SpectralField,
    cfg: SolverConfig,
    c_gn: float | None = None,
    max_bisections: int = 12,
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
    pending = list(cfg.homotopy_steps[1:])
    prev_lam = 0.0
    bisections = 0
    last = None
    while pending:
        lam = pending[0]
        report = _newton(f, u, cfg, lam=lam)
        if not report.success:
            if bisections >= max_bisections or lam - prev_lam < 1e-6:
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
    last.energy_gap = energy_gap(f, u, cfg.mu)
    return last
