"""Newton / homotopy solution of the time-periodic Burgers problem T(u) = f.

Damped Newton runs on the real coordinates X that `fields.pack` gives
the Hermitian coefficients of u, a (2 n_t + 1) x n_x array, so every
iterate and every correction w is real by construction; SpectralFields
are built only where Newton starts and stops.  Each iterate is evaluated
once on the padded product grid (`fields.AdvectionGrid`), g = R X S^T,
and that one g gives both its residual,
T(u) - f = L X + (1 / 2) R^T ((g * g) C) - pack(f), and the next
linearization T'(u), the advection by the field with values g.
The dual norm of a residual is |W res|_2, W the diagonal
1 / sqrt(aniso_weight) in packed layout.

The linearized equations T'(m) w = r are solved to a dual-residual gate.
The size of the system picks how a correction is found: small systems
are solved directly with the real dense matrix of T'(m), `_Packed.matrix`,
the advection contracted from g (`AdvectionGrid.matrix`) plus L written
in by index; larger ones run `gmres`, one cycle of GMRES in real
arithmetic from zero, right-preconditioned by the time-mean
linearization P = L + (m_0 .)_x, m_0 the time mean of m, and weighted
by the dual norm: GMRES solves W T'(m) P^{-1} W^{-1} z = W r for
w = P^{-1} W^{-1} z, so the residual it minimizes is the dual residual
of w that the solve is gated on (right preconditioning: Saad, Iterative
Methods for Sparse Linear Systems, 2nd ed., 2003, 9.3).  P is block
diagonal over the time modes (the harmonic-balance preconditioner of
Hall, Thomas & Clark, AIAA J. 40, 2002), so one n_x x n_x
eigendecomposition per Newton step inverts it; what is left to GMRES
is the advection by the fluctuation m' = m - m_0 alone,
`AdvectionGrid.advect` by g less its time mean, four real products on
the grid.  Either path then runs the same few rounds of refinement on
the true residual r - (L w + (m w)_x), computed matrix-free by the same
`advect`, each a fresh LU solve or GMRES cycle, to the same gate; they
remove what roundoff leaves where T'(m) or P is ill-conditioned.

`homotopy_solve` continues in the forcing: L u + lam S(u) = f is
T(v) = lam f for v = lam u, so Newton solves T(u) = f and nothing else.
It continues on the coarsest level (n_t >> j, n_x >> j), both at least
COARSEST, whose solution keeps at most TAIL_MAX of its weight in the
outermost shell, then climbs to full size by Newton from the zero-padded
solution, one doubling at a time (mesh sequencing).  With no such level,
or a climb step that fails, it runs the homotopy at full size.  The
package needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import SolverError
from .fields import (
    Basis, BasisMismatchError, SpectralField, advection_grid, pack, truncate, unpack, zeros,
)
from .norms import aniso_norm, aniso_weight, apriori_bound, dual_norm, outer_shell_weight
from .operators import apply_L, invert_L, linear_symbol


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
# the smallest truncation the homotopy may run on, and the largest
# outer-shell weight of a coarse solution that counts as resolved
COARSEST = 8
TAIL_MAX = 0.1


@dataclass(frozen=True)
class SolverConfig:
    mu: float
    newton_tol: float = 1e-10
    max_newton: int = 30

    def __post_init__(self):
        for key in ("mu", "newton_tol"):
            if not 0 < getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be positive and finite, got {getattr(self, key)}")
        n = self.max_newton
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"max_newton must be at least 1 and an integer, got {n!r}")


@dataclass
class SolveReport:
    """The result of a solve.  `lambda_path` holds (lam, dual residual)
    rows: for `homotopy_solve` one per continuation step, the residual
    being that of L u + lam S(u) = f; for `newton_solve` the Newton
    residual history, every row at lam = 1."""

    u: SpectralField
    residual_dual: float
    newton_iters: int
    lambda_path: list = field(default_factory=list)
    apriori_margin: float | None = None
    success: bool = True
    message: str = ""


def solve_linear(f: SpectralField, cfg: SolverConfig) -> SpectralField:
    """invert_L(f, cfg.mu), the lambda = 0 solution.  Nothing in the
    package calls it; it stays only because bench/workloads.py does, and
    goes once the benchmark calls `invert_L` itself."""
    return invert_L(f, cfg.mu)


class _Packed:
    """The parts of T on the packed (`pack`) coordinates X of the
    truncation of a Dirichlet-sine field u, (2 n_t + 1) x n_x real arrays:
    the AdvectionGrid of the product, the symbol of L and the dual
    weights W, 1 / sqrt(aniso_weight) laid out as `pack` lays out rows, so
    |W pack(r)|_2 = dual_norm(r) for Hermitian r.  L and W are read from
    the cached tables of `linear_symbol` and `aniso_weight`.  The packed
    layout of L lives here alone: `apply_L` applies it and `matrix` writes
    it into the dense T'(m)."""

    def __init__(self, u: SpectralField, mu: float):
        n_t = u.n_t
        self.grid = advection_grid(n_t, u.n_x)
        sym = linear_symbol(n_t, u.n_x, mu)[n_t:]  # n >= 0
        self.diffusion = np.concatenate([sym.real, sym.real[1:]])
        self.frequency = sym.imag[1:]
        root = np.sqrt(aniso_weight(u)[n_t:])  # even in n
        self.weight = 1.0 / np.concatenate([root, root[1:]])

    def apply_L(self, x: np.ndarray) -> np.ndarray:
        """L X: mu (m pi)^2 X, plus 2 pi n times the (Re, Im) row pair
        (a, b) of each mode n >= 1 turned by i, to (-b, a)."""
        h = len(self.frequency) + 1
        y = self.diffusion * x
        y[1:h] -= self.frequency * x[h:]
        y[h:] += self.frequency * x[1:h]
        return y

    def matrix(self, g: np.ndarray) -> np.ndarray:
        """Dense real T'(m) on flattened packed coordinates, m the field
        with values g on the grid: grid.matrix(g) with L written in by
        index as `apply_L` applies it, the diffusion on the diagonal and
        -/+ the frequency between the Re and Im rows of each mode n >= 1."""
        a = self.grid.matrix(g)
        a[np.diag_indices_from(a)] += self.diffusion.ravel()
        n_x = self.grid.n_x
        re = np.arange(n_x, (len(self.frequency) + 1) * n_x)
        im = re + self.frequency.size
        a[re, im] -= self.frequency.ravel()
        a[im, re] += self.frequency.ravel()
        return a

    def residual(self, x: np.ndarray, g: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """pack(T(u) - f) for X = pack(u), g = grid.values(X) and
        rhs = pack(f): L X + (1 / 2) R^T ((g * g) C) - rhs."""
        return self.apply_L(x) - rhs + 0.5 * self.grid.derivative(g * g)

    def dual(self, res: np.ndarray) -> float:
        return float(np.linalg.norm(self.weight * res))


def _linearized_matvec(packed: _Packed, g: np.ndarray):
    """(matvec, weight, solution) of the GMRES form of T'(m) w = r, on
    flat packed coordinates, for the m with values g on the product grid,
    right-preconditioned and weighted by the dual norm: matvec is
    A = W T'(m) P^{-1} W^{-1}, GMRES runs on b = W pack(r), and
    solution(z) = P^{-1} W^{-1} z is the packed w of its iterate z.  W is
    the diagonal `weight` of `_Packed`, so GMRES's residual |b - A z|_2 is
    the dual residual dual_norm(r - T'(m) w) that `_residual_target` gates.

    T'(m) splits as P + A', with P = L + (m_0 .)_x, m_0 the time mean of
    m, and A' the advection by the fluctuation m' = m - m_0, whose values
    are g less its mean over t, so A z = z + W (m' w)_x with
    w = solution(z); A' is applied as an advection by m' rather than as
    A - A0, which would cancel.  P maps each time mode n to itself by the
    n_x x n_x matrix 2 pi i n + B, with B = mu K^2 + B0 real
    (`AdvectionGrid.mean_block`); one eigendecomposition B = V D V^-1
    inverts every block as V (2 pi i n + D)^-1 V^-1, applied to the
    packed (Re, Im) row pairs as complex rows.  An eigendecomposition
    that fails raises LinearSolveError."""
    grid = packed.grid
    shape = (2 * grid.n_t + 1, grid.n_x)
    h = grid.n_t + 1
    block = np.diag(packed.diffusion[0]) + grid.mean_block(g)
    try:
        d, v = np.linalg.eig(block)
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError as exc:
        raise LinearSolveError(f"mean-advection preconditioner failed: {exc}") from exc
    scale = 1.0 / (2j * np.pi * np.arange(h)[:, None] + d)  # [n, eigenvalue]
    weight = packed.weight.ravel()
    fluctuation = g - g.mean(axis=0)

    def solution(z: np.ndarray) -> np.ndarray:
        x = (z / weight).reshape(shape)
        y = x[:h].astype(complex)
        y[1:] += 1j * x[h:]
        y = ((y @ v_inv.T) * scale) @ v.T
        return np.concatenate([y.real, y[1:].imag]).ravel()

    def matvec(z: np.ndarray) -> np.ndarray:
        return z + weight * grid.advect(fluctuation, solution(z).reshape(shape)).ravel()

    return matvec, weight, solution


def _solve_packed(packed: _Packed, g: np.ndarray, b: np.ndarray, m_norm: float) -> np.ndarray:
    """The packed X with T'(m) X = b to dual residual KRYLOV_TOL |W b|,
    m the field with values g on the product grid and l2 norm m_norm.

    The size of the system picks how each correction is found: up to
    DENSE_MAX_UNKNOWNS unknowns by an LU solve with the dense T'(m)
    (`_dense_correction`), above that by one GMRES cycle
    (`_krylov_correction`).  Both paths then share one loop of at most
    3 rounds, each solving for the correction from the true residual
    b - T'(m) X of the iterate so far (iterative refinement, Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 12), computed
    matrix-free by `_linearized_residual`, and one gate on its dual norm.
    One round meets the gate unless roundoff (in the LU factors, in
    Arnoldi, or in an ill-conditioned P^{-1}) leaves the true residual
    above it; a later round then removes that error.  A loop that ends
    above the gate raises LinearSolveError."""
    rn = packed.dual(b)
    if rn == 0.0:
        return np.zeros_like(b)
    krylov = b.size > DENSE_MAX_UNKNOWNS
    correction = (_krylov_correction if krylov else _dense_correction)(packed, g)
    x = np.zeros_like(b)
    res = b
    for _ in range(3):
        x += correction(res)
        res = _linearized_residual(packed, g, b, x)
        rd = packed.dual(res)
        if rd <= _residual_target(m_norm, np.linalg.norm(x), rn):
            return x
    raise LinearSolveError(
        f"{'GMRES' if krylov else 'dense LU solve'} did not converge "
        f"(dual residual {rd:.3e}, target {KRYLOV_TOL * rn:.3e})"
    )


def _linearized_residual(packed: _Packed, g: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """b - T'(m) X = b - (L X + R^T ((g * (R X S^T)) C)), matrix-free."""
    return b - (packed.apply_L(x) + packed.grid.advect(g, x))


def _dense_correction(packed: _Packed, g: np.ndarray):
    """The packed correction of a residual by an LU solve with the real
    dense matrix of T'(m), built once per linearized solve."""
    a = packed.matrix(g)
    return lambda res: np.linalg.solve(a, res.ravel()).reshape(res.shape)


def _krylov_correction(packed: _Packed, g: np.ndarray):
    """The packed correction of a residual by one cycle of real GMRES, of
    at most MAX_KRYLOV inner iterations, on the right-preconditioned,
    dual-weighted form of `_linearized_matvec`.  GMRES minimizes the dual
    norm of the residual, so the cycle's own stopping test is the gate of
    `_solve_packed`."""
    matvec, weight, solution = _linearized_matvec(packed, g)

    def correction(res: np.ndarray) -> np.ndarray:
        z, _info = gmres(matvec, weight * res.ravel(), KRYLOV_TOL, MAX_KRYLOV)
        return solution(z).reshape(res.shape)

    return correction


def _residual_target(m_norm: float, w_norm: float, rn: float) -> float:
    # relative target plus the roundoff floor of evaluating T'(m) w, from
    # the l2 norms of m and w
    floor = 5e-15 * (1.0 + m_norm) * (1.0 + w_norm)
    return max(KRYLOV_TOL * rn, floor)


def gmres(matvec, rhs: np.ndarray, rtol: float, restart: int):
    """One cycle of GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7,
    1986) from zero on the real operator `matvec`, for
    |rhs - A x| <= rtol |rhs|, of at most `restart` inner iterations.
    Returns (x, info): info is 0 if the true residual rhs - A x meets the
    target and 1 otherwise.  A caller that wants more restarts the cycle
    on its own residual, as the refinement rounds of `_solve_packed` do.

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


def _newton(f: SpectralField, u0: SpectralField, cfg: SolverConfig) -> SolveReport:
    """Damped Newton on T(u) = f from u0, run on the packed coordinates X
    of u (`_Packed`).  Each iterate is evaluated once on the product grid,
    g = R X S^T, and that one g gives both its residual and the next
    linearization T'(u), whose values are g.  The dual residual is
    |W pack(T(u) - f)|_2, taken together with the dual norm of the
    anti-Hermitian part of f, which no real u removes; u0 enters by its
    Hermitian part, which `pack` keeps.  The report's u is u0 itself
    until a step moves it.  f must be a Dirichlet-sine field and u0 of
    its layout."""
    if f.basis is not Basis.DIRICHLET_SINE:
        raise BasisMismatchError("L acts on Dirichlet-sine fields")
    if not u0.same_layout(f):
        raise BasisMismatchError("field layouts differ")
    packed = _Packed(f, cfg.mu)
    rhs = pack(f.coeffs)
    skew = dual_norm(f.with_coeffs(0.5 * (f.coeffs - f.coeffs[::-1].conj())))

    def evaluate(x):
        # the iterate's values g on the grid, which are those of the
        # advection field of its linearization, and its residual
        g = packed.grid.values(x)
        res = packed.residual(x, g, rhs)
        return g, res, math.hypot(packed.dual(res), skew)

    def report(x, rd, iters, message=""):
        u = u0 if x is start else u0.with_coeffs(unpack(x))
        return SolveReport(
            u=u, residual_dual=rd, newton_iters=iters, lambda_path=history,
            success=not message, message=message,
        )

    x = start = pack(u0.coeffs)
    g, res, rd = evaluate(x)
    history = [(1.0, rd)]
    recoveries = MAX_RECOVERIES
    for it in range(1, cfg.max_newton + 1):
        if rd <= cfg.newton_tol:
            return report(x, rd, it - 1)
        try:
            w = _solve_packed(packed, g, res, np.linalg.norm(x))
        except LinearSolveError as exc:
            return report(x, rd, it - 1, f"linearized solve failed: {exc}")
        step = 1.0
        stalled = True
        for _ in range(MAX_DAMPING):
            x_try = x - step * w
            g_try, res_try, rd_try = evaluate(x_try)
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
                x = 0.5 * x
                g, res, rd = evaluate(x)
                history.append((1.0, rd))
                continue
            return report(x, rd, it, "damped Newton step could not reduce the residual")
        x, g, res, rd = x_try, g_try, res_try, rd_try
        history.append((1.0, rd))
    if rd <= cfg.newton_tol:
        return report(x, rd, cfg.max_newton)
    return report(x, rd, cfg.max_newton, f"no convergence after {cfg.max_newton} Newton iterations")


def newton_solve(f: SpectralField, u0: SpectralField | None, cfg: SolverConfig) -> SolveReport:
    """Damped Newton iteration on T(u) = f from u0, or from zero if u0
    is None."""
    if u0 is None:
        u0 = zeros(f.n_t, f.n_x, f.basis)
    return _newton(f, u0, cfg)


def homotopy_solve(
    f: SpectralField,
    cfg: SolverConfig,
    c_gn: float | None = None,
) -> SolveReport:
    """Continuation in the forcing lam f, lam from 0 to 1, from the linear
    solve to the Burgers solve, run on the coarsest truncation that resolves the solution and
    carried to full size by Newton (mesh sequencing: Knoll & Keyes,
    J. Comput. Phys. 193, 2004).

    The levels are (n_t >> j, n_x >> j) for j >= 1 while both are at
    least COARSEST, tried from the coarsest up; a truncation with
    min(n_t, n_x) < 2 COARSEST has none.  A level is accepted when the
    homotopy on truncate(f, level) succeeds and its solution's
    `outer_shell_weight` is at most TAIL_MAX.  From it the solution is
    zero-padded to each doubling in turn and Newton solves T(u) = f
    there, up to full size.  If no level is accepted or a climb step
    fails, the homotopy runs at full size.

    The report of a climb has the full-size Newton's `newton_iters` and
    `residual_dual`, the coarse homotopy's `lambda_path`, and an
    `apriori_margin` taken over that path and the solution of every
    level (`apriori_bound` of the full f less the largest aniso norm)."""
    bound = apriori_bound(f, cfg.mu, c_gn) if c_gn is not None else None
    n_t, n_x = f.n_t, f.n_x
    depth = 0
    while min(n_t >> (depth + 1), n_x >> (depth + 1)) >= COARSEST:
        depth += 1
    for j in range(depth, 0, -1):
        try:
            coarse = _homotopy(truncate(f, n_t >> j, n_x >> j), cfg, bound)
        except ContinuationError:
            continue
        if outer_shell_weight(coarse.u) <= TAIL_MAX:
            return _climb(f, coarse, j, cfg, bound) or _homotopy(f, cfg, bound)
    return _homotopy(f, cfg, bound)


def _climb(
    f: SpectralField, coarse: SolveReport, j: int, cfg: SolverConfig, bound: float | None
) -> SolveReport | None:
    """Newton on T(u) = f at each doubling from the level-j solution of
    `coarse` up to the truncation of f; None if a step fails."""
    u = coarse.u
    level_norms = []
    for i in range(j - 1, -1, -1):
        size = (f.n_t >> i, f.n_x >> i)
        report = _newton(truncate(f, *size), truncate(u, *size), cfg)
        if not report.success:
            return None
        u = report.u
        level_norms.append(aniso_norm(u))
    report.lambda_path = coarse.lambda_path
    if bound is not None:
        report.apriori_margin = min(coarse.apriori_margin, bound - max(level_norms))
    return report


def _homotopy(f: SpectralField, cfg: SolverConfig, bound: float | None) -> SolveReport:
    """Continuation in the forcing at the truncation of f.

    L u + lam S(u) = f is T(v) = lam f for v = lam u, so the step at lam
    is Newton on T(v) = lam f from lam u, u the last solution (L^{-1} f
    at first), to lam newton_tol, and u = v / lam; the path row's
    residual is that of L u + lam S(u) - f, residual_dual / lam.  The
    path is the preimage of the ray {lam f} under the diffeomorphism T,
    smooth and without folds (natural-parameter continuation: Allgower &
    Georg, Introduction to Numerical Continuation Methods, 1990), so a
    failed step is bisected.  Every accepted u is recorded with its
    anisotropic norm for comparison against the a priori bound.  A step
    that cannot be bisected further raises ContinuationError; if the
    last iterate's outer-shell weight (the same for v and u) is above
    TAIL_MAX, its message says the truncation is likely too coarse."""
    path = []
    u = invert_L(f, cfg.mu)
    path.append((0.0, dual_norm(apply_L(u, cfg.mu) - f), aniso_norm(u)))
    pending = list(HOMOTOPY_STEPS[1:])
    prev_lam = 0.0
    bisections = 0
    last = None
    while pending:
        lam = pending[0]
        report = _newton(lam * f, lam * u, replace(cfg, newton_tol=lam * cfg.newton_tol))
        if not report.success:
            if bisections >= MAX_BISECTIONS or lam - prev_lam < 1e-6:
                tail = outer_shell_weight(report.u)
                hint = (
                    f"; outer-shell weight {tail:.3g} > {TAIL_MAX:g}: "
                    f"the truncation ({f.n_t}, {f.n_x}) is likely too coarse"
                    if tail > TAIL_MAX else ""
                )
                raise ContinuationError(
                    f"continuation failed at lambda = {lam:.6g}: {report.message}{hint}"
                )
            pending.insert(0, 0.5 * (prev_lam + lam))
            bisections += 1
            continue
        u = report.u.with_coeffs(report.u.coeffs / lam)
        last = report
        path.append((lam, report.residual_dual / lam, aniso_norm(u)))
        prev_lam = lam
        pending.pop(0)
    last.lambda_path = [(lam, rd) for lam, rd, _ in path]
    if bound is not None:
        last.apriori_margin = min(bound - nrm for _, _, nrm in path)
    return last
