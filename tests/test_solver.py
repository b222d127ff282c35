import numpy as np
import pytest

from stburgers import fields, operators, solver
from stburgers.fields import random_field, set_mode, truncate, zeros
from stburgers.norms import aniso_norm, dual_norm
from stburgers.operators import apply_T, apply_T_prime
from stburgers.solver import (
    SolverConfig,
    homotopy_solve,
    newton_solve,
    solve_linear,
    solve_linearized,
)


def manufactured():
    u = zeros(8, 8)
    u = set_mode(u, 1, 1, -0.15j)
    u = set_mode(u, 2, 2, 0.05)
    return u


def test_newton_recovers_manufactured_solution():
    mu = 1.0
    u_star = manufactured()
    f = apply_T(u_star, mu)
    rep = newton_solve(f, None, SolverConfig(mu=mu))
    assert rep.success
    assert rep.residual_dual < 1e-10
    assert np.max(np.abs(rep.u.coeffs - u_star.coeffs)) < 1e-12


def test_newton_quadratic_tail():
    # once inside the basin the damped iteration takes full steps and the
    # dual residual should contract with slope close to 2 in log-log
    mu = 0.5
    f = 0.5 * random_field(5, 8, 8, 2.0)
    rep = newton_solve(f, None, SolverConfig(mu=mu, newton_tol=1e-13))
    assert rep.success
    resids = [rd for _, rd in rep.lambda_path if rd > 0]
    tail = [r for r in resids if r < 1e-2]
    assert len(tail) >= 2
    slopes = [
        np.log(tail[i + 1]) / np.log(tail[i])
        for i in range(len(tail) - 1)
        if tail[i + 1] > 1e-15
    ]
    assert slopes and max(slopes) > 1.8


def forced_path(monkeypatch, path):
    """Send every linearized solve down `path`, "dense" or "gmres"."""
    monkeypatch.setattr(solver, "DENSE_MAX_UNKNOWNS", 10**6 if path == "dense" else 0)


def test_dense_and_krylov_solves_agree(monkeypatch):
    mu = 0.3
    f = 0.4 * random_field(3, 6, 6, 2.0)
    reports = []
    for path in ("dense", "gmres"):
        forced_path(monkeypatch, path)
        reports.append(newton_solve(f, None, SolverConfig(mu=mu)))
    dense, kry = reports
    assert dense.success and kry.success
    assert np.max(np.abs(dense.u.coeffs - kry.u.coeffs)) < 1e-8


@pytest.mark.parametrize("path", ["dense", "gmres"])
def test_solve_linearized_returns_a_real_field(monkeypatch, path):
    # a Newton residual, Hermitian only to rounding; the solve works on
    # the real coordinates of the Hermitian half, so w is real exactly
    mu = 0.3
    f = 0.4 * random_field(3, 6, 5, 2.0)
    m = random_field(4, 6, 5, 1.5)
    r = apply_T(m, mu) - f
    forced_path(monkeypatch, path)
    w = solve_linearized(m, r, SolverConfig(mu=mu))
    assert w.hermitian_defect() == 0.0
    assert dual_norm(apply_T_prime(m, w, mu) - r) <= 1e-11 * dual_norm(r)


def test_gmres_work_is_bounded_by_max_krylov(monkeypatch):
    # a strongly advected linearization that GMRES cannot solve in a few
    # iterations: the first cycle misses the target, so all three rounds
    # run; each GMRES cycle starts from zero and may spend at most
    # MAX_KRYLOV inner iterations plus its one true residual b - A x, the
    # solver checks the dual residual of each round's iterate once, and
    # the Newton solve then reports the failure instead of raising
    applies, residuals = [], []

    def counting_operator(m):
        advect = fields.advection_operator(m)

        def counted(x):
            applies.append(1)
            return advect(x)

        return counted

    def counting_residual(*args, **kwargs):
        residuals.append(1)
        return operators.apply_T_prime(*args, **kwargs)

    monkeypatch.setattr(solver, "advection_operator", counting_operator)
    monkeypatch.setattr(solver, "apply_T_prime", counting_residual)
    f = 2.0 * random_field(3, 6, 6, 2.0)
    u0 = 2.0 * random_field(4, 6, 6, 1.0)
    krylov = 4
    monkeypatch.setattr(solver, "MAX_KRYLOV", krylov)
    forced_path(monkeypatch, "gmres")
    rep = newton_solve(f, u0, SolverConfig(mu=0.05))
    assert not rep.success
    assert "GMRES did not converge" in rep.message
    assert rep.u is u0
    assert 0 < len(applies) <= 3 * (krylov + 1)
    assert len(residuals) == 3


def test_refinement_carries_a_dense_solve_with_an_inexact_matrix(monkeypatch):
    # a dense T'(m) off by 1e-7 relative leaves the first LU solve at a
    # dual residual near 1e-7 relative; the refinement rounds on the true
    # residual, which the dense path shares with GMRES, reach the 1e-12
    # target with the one perturbed matrix
    mu = 0.3
    f = 0.4 * random_field(3, 6, 6, 2.0)
    m = random_field(4, 6, 6, 1.5)
    r = apply_T(m, mu) - f
    rng = np.random.default_rng(5)
    builds, solves = [], []
    exact_matrix, exact_solve = solver.T_prime_matrix, np.linalg.solve

    def perturbed(*args):
        a = exact_matrix(*args)
        builds.append(a.shape)
        return a * (1.0 + 1e-7 * rng.uniform(-1.0, 1.0, a.shape))

    def counted_solve(*args):
        solves.append(1)
        return exact_solve(*args)

    monkeypatch.setattr(solver, "T_prime_matrix", perturbed)
    monkeypatch.setattr(solver.np.linalg, "solve", counted_solve)
    forced_path(monkeypatch, "dense")
    w = solve_linearized(m, r, SolverConfig(mu=mu))
    assert dual_norm(apply_T_prime(m, w, mu) - r) <= solver.KRYLOV_TOL * dual_norm(r)
    assert len(builds) == 1 and len(solves) > 1


class Counted:
    """A function (a matvec, a solve) that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def test_gmres_zero_rhs_returns_zero():
    x, info = solver.gmres(Counted(lambda v: 2.0 * v), np.zeros(7), 1e-12, 7)
    assert info == 0 and x.shape == (7,) and not x.any()


def test_gmres_identity_breaks_down_after_one_inner_iteration():
    # A b lies in span(b): Arnoldi breaks down at once, and the one
    # inner iteration plus the cycle's true residual are the only applies
    b = np.random.default_rng(0).standard_normal(40)
    matvec = Counted(lambda v: v.copy())
    x, info = solver.gmres(matvec, b, 1e-12, 40)
    assert info == 0
    assert matvec.calls == 2
    assert np.abs(x - b).max() <= 1e-15 * np.abs(b).max()


@pytest.mark.parametrize("restart", [30, 6], ids=["full", "restarted"])
@pytest.mark.parametrize("seed", range(4))
def test_gmres_matches_a_direct_solve(seed, restart):
    # "full": one cycle of the system's dimension; "restarted": cycles of
    # 6 inner iterations, each from zero on the residual of the sum of
    # the ones before, the restart that the refinement rounds of
    # `solve_linearized` make
    rng = np.random.default_rng(seed)
    a = np.eye(30) + 0.4 * rng.standard_normal((30, 30)) / np.sqrt(30)
    b = rng.standard_normal(30)
    x, cycles = np.zeros(30), []
    while np.linalg.norm(b - a @ x) > 1e-12 * np.linalg.norm(b):
        assert len(cycles) < 200
        dx, info = solver.gmres(lambda v: a @ v, b - a @ x, 1e-12, restart)
        x += dx
        cycles.append(info)
    assert cycles == [0] if restart == 30 else len(cycles) > 1
    ref = np.linalg.solve(a, b)
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


def test_gmres_reports_nonconvergence():
    # eigenvalues 1..50: two inner iterations cannot reach 1e-12
    a = np.diag(np.arange(1.0, 51.0))
    b = np.ones(50)
    x, info = solver.gmres(lambda v: a @ v, b, 1e-12, 2)
    assert info != 0
    assert np.linalg.norm(b - a @ x) < np.linalg.norm(b)


@pytest.mark.parametrize("seed, mu", [(1, 1.0), (2, 0.1), (3, 0.05)])
def test_gmres_inner_iterations_match_scipy(seed, mu):
    scipy_linalg = pytest.importorskip("scipy.sparse.linalg")
    # the right-preconditioned, dual-weighted packed operator of a Newton
    # step on its right-hand side W pack(r), one cycle large enough for
    # either solver to converge in it, so that inner iterations are
    # applies minus the one true residual
    m = 2.0 * random_field(seed, 8, 8, 1.5)
    r = random_field(seed + 10, 8, 8, 1.0)
    cfg = SolverConfig(mu=mu)
    matvec, weight, _ = solver._linearized_matvec(m, cfg)
    rhs = weight * fields.pack(r.coeffs).ravel()
    ours = Counted(matvec)
    x, info = solver.gmres(ours, rhs, solver.KRYLOV_TOL, rhs.size)
    theirs = Counted(matvec)
    op = scipy_linalg.LinearOperator((rhs.size, rhs.size), matvec=theirs, dtype=float)
    y, yinfo = scipy_linalg.gmres(op, rhs, rtol=solver.KRYLOV_TOL, atol=0.0, restart=rhs.size, maxiter=1)
    assert info == yinfo == 0
    assert abs(ours.calls - theirs.calls) <= 1, (ours.calls, theirs.calls)
    assert np.abs(x - y).max() <= 1e-10 * np.abs(y).max()


def test_one_gmres_cycle_per_linearized_solve(monkeypatch, base_forcing):
    # the Newton solve from zero on the Tier-1 forcing at mu = 0.05,
    # amplitude 1 (16x16, GMRES by default): GMRES minimizes the dual
    # residual that the solve is gated on, so its own stopping test meets
    # the target and no linearized solve needs a second cycle
    solves, cycles = Counted(solver._krylov_correction), Counted(solver.gmres)
    monkeypatch.setattr(solver, "_krylov_correction", solves)
    monkeypatch.setattr(solver, "gmres", cycles)
    rep = newton_solve(base_forcing, None, SolverConfig(mu=0.05, max_newton=60))
    assert rep.success
    assert solves.calls == rep.newton_iters == 11
    assert cycles.calls == solves.calls


def test_refinement_carries_a_high_peclet_gmres_solve(monkeypatch, base_forcing):
    # mu = 0.02, amplitude 2.5: the time-mean preconditioner is as
    # ill-conditioned as the steady advection-diffusion block here, so
    # the residual target lies near the accuracy that GMRES can reach
    # through it; whatever refinement rounds on the true residual run
    # (none at 12x12, some at 32x32), the GMRES path must give the dense
    # path's solve
    f = 2.5 * truncate(base_forcing, 12, 12)
    reports = []
    for path in ("dense", "gmres"):
        forced_path(monkeypatch, path)
        reports.append(homotopy_solve(f, SolverConfig(mu=0.02, max_newton=60)))
    dense, kry = reports
    assert dense.success and kry.success
    assert kry.newton_iters == dense.newton_iters
    assert len(kry.lambda_path) == len(dense.lambda_path)
    assert np.abs(kry.u.coeffs - dense.u.coeffs).max() <= 1e-10


def test_failed_preconditioner_eigensolve_fails_the_newton_step(monkeypatch):
    def broken_eig(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(solver.np.linalg, "eig", broken_eig)
    f = 0.4 * random_field(3, 6, 6, 2.0)
    u0 = random_field(4, 6, 6, 1.0)
    forced_path(monkeypatch, "gmres")
    rep = newton_solve(f, u0, SolverConfig(mu=0.3))
    assert not rep.success
    assert rep.newton_iters == 0 and rep.u is u0
    assert "preconditioner" in rep.message and "did not converge" in rep.message


@pytest.mark.parametrize("n, path", [(8, "dense"), (12, "dense"), (14, "gmres"), (16, "gmres")])
def test_default_config_routes_the_linearized_solve_by_size(monkeypatch, n, path):
    # verify's 8x8 solves and the 12x12 configs stay on the dense LU; the
    # 16x16 Tier-1 fixture and configs/solve.json go to GMRES
    calls = {"dense": 0, "gmres": 0}
    dense_solve, krylov_solve = np.linalg.solve, solver._krylov_correction

    def counted_dense(*args):
        calls["dense"] += 1
        return dense_solve(*args)

    def counted_krylov(*args):
        calls["gmres"] += 1
        return krylov_solve(*args)

    monkeypatch.setattr(solver.np.linalg, "solve", counted_dense)
    monkeypatch.setattr(solver, "_krylov_correction", counted_krylov)
    m = 0.5 * random_field(1, n, n, 2.0)
    r = random_field(2, n, n, 2.0)
    solve_linearized(m, r, SolverConfig(mu=1.0))
    assert calls == {"dense": int(path == "dense"), "gmres": int(path == "gmres")}


def test_default_path_matches_dense_on_the_hardest_fixture_cell(monkeypatch, test_matrix):
    # the fixture's 16x16 solves take GMRES by default; on its hardest
    # cell the dense path must take the same Newton iterations and lambda
    # steps to the same solution, for the homotopy and for the Newton
    # solve from the linear solve (22 iterations)
    mu, amp = 0.05, 2.5
    cell = test_matrix[(mu, amp)]
    f = cell["f"]
    cfg = SolverConfig(mu=mu, max_newton=60)
    forced_path(monkeypatch, "dense")
    pairs = [
        (homotopy_solve(f, cfg), cell["homotopy"]),
        (newton_solve(f, solve_linear(f, cfg), cfg), cell["starts"][1]),
    ]
    for dense, default in pairs:
        assert dense.success and default.success
        assert dense.newton_iters == default.newton_iters
        assert len(dense.lambda_path) == len(default.lambda_path)
        assert np.abs(dense.u.coeffs - default.u.coeffs).max() <= 1e-10


def test_spectral_convergence_in_truncation():
    # band-limited forcing, refined solution truncation: the nonlinearity
    # spreads energy across all modes, but the solution is analytic so the
    # tail decays spectrally fast
    mu = 0.5
    f_low = 1.5 * random_field(3, 4, 4, 1.0)
    ref = newton_solve(truncate(f_low, 24, 24), None, SolverConfig(mu=mu)).u
    errs = []
    for n in (6, 10, 14):
        u_n = newton_solve(truncate(f_low, n, n), None, SolverConfig(mu=mu)).u
        diff = truncate(u_n, ref.n_t, ref.n_x) - ref
        errs.append(aniso_norm(diff))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-2 * errs[0]


def test_homotopy_path_is_recorded(test_matrix):
    rep = test_matrix[(0.1, 1.0)]["homotopy"]
    assert rep.success
    lams = [lam for lam, _ in rep.lambda_path]
    assert lams[0] == 0.0 and lams[-1] == 1.0
    assert all(b > a for a, b in zip(lams, lams[1:]))
    assert rep.residual_dual < 1e-10
    assert rep.apriori_margin is not None and rep.apriori_margin > 0


def test_all_starts_reach_the_same_solution(test_matrix):
    # includes the stiff corner (mu = 0.05, amplitude 2.5) where the
    # linear-solve start lands near a fold and needs contraction steps
    for (mu, amp), cell in test_matrix.items():
        hom = cell["homotopy"]
        assert hom.success, (mu, amp)
        for rep in cell["starts"]:
            assert rep.success, (mu, amp, rep.message)
            d = np.max(np.abs(rep.u.coeffs - hom.u.coeffs))
            assert d < 1e-8, (mu, amp, d)


def test_linear_solve_inverts_l():
    f = random_field(4, 6, 6, 2.0)
    cfg = SolverConfig(mu=0.7)
    u = solve_linear(f, cfg)
    assert dual_norm(apply_T(u, cfg.mu, 0.0) - f) < 1e-14


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mu=0.0)
    with pytest.raises(ValueError):
        newton_solve(random_field(2, 4, 4, 2.0))


@pytest.mark.parametrize("key", ["newton_tol"])
def test_config_rejects_nonpositive_tolerances(key):
    # a tolerance of zero or below can never be met
    for value in (0.0, -1.0):
        with pytest.raises(ValueError, match=f"{key} must be positive"):
            SolverConfig(mu=1.0, **{key: value})


@pytest.mark.parametrize("key, least", [("max_newton", 1)])
def test_config_rejects_counts_below_their_least_value(key, least):
    # the bound the CLI checks on config.solver; max_newton = 0 would
    # otherwise fail every solve that does not start converged
    with pytest.raises(ValueError, match=f"{key} must be at least {least}"):
        SolverConfig(mu=1.0, **{key: least - 1})
    assert getattr(SolverConfig(mu=1.0, **{key: least}), key) == least
