import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stburgers import fields, norms, solver
from stburgers.fields import random_field, set_mode, truncate, zeros
from stburgers.norms import aniso_norm, apriori_bound, dual_norm
from stburgers.operators import apply_L, apply_T, apply_T_prime
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
    linearized_matvec = solver._linearized_matvec

    def counting_matvec(*args):
        matvec, weight, solution = linearized_matvec(*args)

        def counted(z):
            applies.append(1)
            return matvec(z)

        return counted, weight, solution

    linearized_residual = solver._linearized_residual

    def counting_residual(*args):
        residuals.append(1)
        return linearized_residual(*args)

    monkeypatch.setattr(solver, "_linearized_matvec", counting_matvec)
    monkeypatch.setattr(solver, "_linearized_residual", counting_residual)
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


@settings(max_examples=40, deadline=None)
@given(
    n_t=st.integers(1, 10),
    n_x=st.integers(1, 10),
    mu=st.floats(0.01, 2.0),
    seed=st.integers(0, 2**31 - 1),
    amp=st.floats(0.1, 5.0),
)
@example(n_t=3, n_x=9, mu=0.05, seed=1, amp=5.0)
@example(n_t=9, n_x=2, mu=1.0, seed=2, amp=2.0)
def test_packed_residual_is_the_burgers_residual(n_t, n_x, mu, seed, amp):
    # the residual that Newton computes from X = pack(u) and its one grid
    # evaluation g is pack(T(u) - f), and its norm |W res| is the dual
    # norm of that residual
    f = random_field(seed, n_t, n_x, 2.0)
    u = amp * random_field(seed + 1, n_t, n_x, 1.5)
    packed = solver._Packed(f, mu)
    x = fields.pack(u.coeffs)
    res = packed.residual(x, packed.grid.values(x), fields.pack(f.coeffs))
    ref = apply_T(u, mu) - f
    rn = dual_norm(ref)
    assert dual_norm(ref.with_coeffs(fields.unpack(res)) - ref) <= 1e-13 * rn
    assert abs(packed.dual(res) - rn) <= 1e-13 * rn
    assert abs(packed.dual(fields.pack(ref.coeffs)) - rn) <= 1e-14 * rn


def test_newton_takes_a_non_hermitian_forcing_part_into_its_residual():
    # no real u removes the anti-Hermitian part of f: Newton's residual
    # is the dual norm of all of T(u) - f, so it cannot meet a tolerance
    # below that part
    mu = 0.5
    f = 0.5 * random_field(5, 4, 4, 2.0)
    skew = f.with_coeffs(1e-6j * np.ones(f.coeffs.shape))
    rep = newton_solve(f + skew, None, SolverConfig(mu=mu))
    assert not rep.success
    assert rep.residual_dual == pytest.approx(dual_norm(apply_T(rep.u, mu) - f - skew), rel=1e-9)
    assert rep.residual_dual >= dual_norm(skew)


@pytest.mark.parametrize(
    "forcing, start, message",
    [
        ((4, 4, fields.Basis.DIRICHLET_SINE), (3, 3, fields.Basis.DIRICHLET_SINE), "layouts differ"),
        ((4, 4, fields.Basis.DIRICHLET_SINE), (4, 5, fields.Basis.DIRICHLET_SINE), "layouts differ"),
        ((4, 4, fields.Basis.DIRICHLET_SINE), (4, 4, fields.Basis.NEUMANN_COSINE), "layouts differ"),
        ((4, 4, fields.Basis.NEUMANN_COSINE), None, "Dirichlet-sine"),
    ],
    ids=["start-3x3", "start-4x5", "cosine-start", "cosine-forcing"],
)
def test_newton_rejects_a_start_or_forcing_off_the_layout(forcing, start, message):
    # Newton packs f and u0 on one Dirichlet-sine truncation: a start of
    # another truncation or basis, or a cosine forcing, is a
    # BasisMismatchError before any packing
    f = random_field(1, *forcing[:2], 2.0, basis=forcing[2])
    u0 = None if start is None else zeros(*start)
    with pytest.raises(fields.BasisMismatchError, match=message):
        newton_solve(f, u0, SolverConfig(mu=0.5))


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
    exact_matrix, exact_solve = solver._Packed.matrix, np.linalg.solve

    def perturbed(*args):
        a = exact_matrix(*args)
        builds.append(a.shape)
        return a * (1.0 + 1e-7 * rng.uniform(-1.0, 1.0, a.shape))

    def counted_solve(*args):
        solves.append(1)
        return exact_solve(*args)

    monkeypatch.setattr(solver._Packed, "matrix", perturbed)
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
    matvec, weight, _ = solver._linearized_matvec(solver._Packed(m, mu), fields.advection_values(m))
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


@pytest.mark.parametrize("mu", [1.0, 0.1, 0.05])
@pytest.mark.parametrize("n", [16, 32])
def test_ladder_agrees_with_the_full_homotopy(monkeypatch, base_forcing, n, mu):
    # the Tier-1 forcing's coarse solutions are resolved at these cells,
    # so the homotopy runs coarse and Newton climbs to n; the two
    # solutions agree inside newton_tol (1.1e-11 relative at most)
    f = truncate(base_forcing, n, n)
    cfg = SolverConfig(mu=mu, max_newton=60)
    climbs = Counted(solver._climb)
    monkeypatch.setattr(solver, "_climb", climbs)
    ladder = homotopy_solve(f, cfg)
    full = solver._homotopy(f, cfg, None)
    assert ladder.success and full.success
    assert climbs.calls == 1
    assert ladder.residual_dual <= cfg.newton_tol
    assert aniso_norm(ladder.u - full.u) <= 1e-8 * aniso_norm(full.u)
    assert [lam for lam, _ in ladder.lambda_path] == list(solver.HOMOTOPY_STEPS)


def test_ladder_margin_covers_the_path_and_every_level(test_matrix, gn_constant):
    # the fixture's homotopy at mu = 0.1, amplitude 1 climbs from 8x8:
    # its margin is the full bound less the largest aniso norm over the
    # coarse path and the solution of every level, here the 16x16 one
    cell = test_matrix[(0.1, 1.0)]
    f, rep = cell["f"], cell["homotopy"]
    bound = apriori_bound(f, 0.1, gn_constant)
    coarse = solver._homotopy(truncate(f, 8, 8), SolverConfig(mu=0.1, max_newton=60), bound)
    assert rep.lambda_path == coarse.lambda_path
    assert rep.apriori_margin == min(coarse.apriori_margin, bound - aniso_norm(rep.u)) > 0


def test_unresolved_coarse_level_falls_back_to_the_full_homotopy(monkeypatch, base_forcing):
    # at mu = 0.02, amplitude 2.5 the 8x8 solution keeps 0.23 of its
    # weight in the outer shell, so no level is accepted and the report
    # is the full-size homotopy's, bit for bit
    f = 2.5 * base_forcing
    cfg = SolverConfig(mu=0.02, max_newton=60)
    coarse = solver._homotopy(truncate(f, 8, 8), cfg, None)
    assert norms.outer_shell_weight(coarse.u) > solver.TAIL_MAX
    monkeypatch.setattr(solver, "_climb", no_call)
    rep = homotopy_solve(f, cfg)
    ref = solver._homotopy(f, cfg, None)
    assert rep.success
    assert rep.lambda_path == ref.lambda_path
    assert rep.newton_iters == ref.newton_iters
    assert rep.u.coeffs.tobytes() == ref.u.coeffs.tobytes()


def test_bisected_homotopy_path_is_pinned(base_forcing):
    # at 8x8, mu = 0.02, amplitude 2.5 the steps to lambda = 0.25 and
    # then to 0.125 fail, so the path is bisected down to 0.0625; each
    # row's residual is that of L u + lam S(u) - f, which the step at lam
    # solves as T(lam u) = lam f to the tolerance lam newton_tol
    cfg = SolverConfig(mu=0.02, max_newton=60)
    rep = homotopy_solve(2.5 * truncate(base_forcing, 8, 8), cfg)
    assert rep.success
    assert [lam for lam, _ in rep.lambda_path] == [0.0, 0.0625, 0.125, 0.25, 0.5, 0.75, 1.0]
    assert rep.newton_iters == 7
    assert all(rd <= cfg.newton_tol for _, rd in rep.lambda_path)


def test_failed_climb_step_falls_back_to_the_full_homotopy(monkeypatch, base_forcing):
    # the coarse homotopy runs at 8x8 and the fallback at 32x32, so the
    # only 16x16 Newton is the climb's; when it fails, the report is the
    # full-size homotopy's
    f = truncate(base_forcing, 32, 32)
    cfg = SolverConfig(mu=0.1)
    newton = solver._newton
    failed = []

    def failing_climb(f, u0, cfg):
        if f.n_t == 16:
            failed.append(f.n_t)
            return solver.SolveReport(u=u0, residual_dual=1.0, newton_iters=0, success=False)
        return newton(f, u0, cfg)

    monkeypatch.setattr(solver, "_newton", failing_climb)
    rep = homotopy_solve(f, cfg)
    assert failed == [16]
    monkeypatch.setattr(solver, "_newton", newton)
    ref = solver._homotopy(f, cfg, None)
    assert rep.success and rep.residual_dual <= cfg.newton_tol
    assert rep.lambda_path == ref.lambda_path
    assert rep.u.coeffs.tobytes() == ref.u.coeffs.tobytes()


def no_call(*args, **kwargs):
    raise AssertionError("called")


@pytest.mark.parametrize("n_t, n_x", [(8, 8), (12, 12), (15, 16), (16, 10)])
def test_small_truncations_run_the_homotopy_unchanged(monkeypatch, base_forcing, n_t, n_x):
    # below min(n_t, n_x) = 16 there is no level: no coarse truncation
    # of f and no climb, only the full-size homotopy
    f = truncate(base_forcing, n_t, n_x)
    cfg = SolverConfig(mu=0.1)
    ref = solver._homotopy(f, cfg, None)
    monkeypatch.setattr(solver, "truncate", no_call)
    monkeypatch.setattr(solver, "_climb", no_call)
    rep = homotopy_solve(f, cfg)
    assert rep.lambda_path == ref.lambda_path
    assert rep.u.coeffs.tobytes() == ref.u.coeffs.tobytes()


def test_failed_homotopy_names_a_too_coarse_truncation(monkeypatch, base_forcing):
    # the Tier-1 forcing x2.5 at 6x6, mu = 0.02 does not converge, and
    # its last iterate keeps 0.286 of its weight in the outer shell
    cfg = SolverConfig(mu=0.02, max_newton=60)
    with pytest.raises(solver.ContinuationError, match=r"outer-shell weight 0\.286 > 0\.1: "
                       r"the truncation \(6, 6\) is likely too coarse"):
        homotopy_solve(truncate(2.5 * base_forcing, 6, 6), cfg)
    # a failure on a resolved field says nothing of the truncation
    def stalled(f, u0, cfg):
        return solver.SolveReport(u=u0, residual_dual=1.0, newton_iters=0, success=False,
                                  message="stalled")

    monkeypatch.setattr(solver, "_newton", stalled)
    with pytest.raises(solver.ContinuationError) as failure:
        homotopy_solve(base_forcing, SolverConfig(mu=1.0))
    assert str(failure.value).endswith("stalled")


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
    assert dual_norm(apply_L(u, cfg.mu) - f) < 1e-14


def test_config_validation():
    # a viscosity of nan would otherwise bisect the homotopy down to
    # lambda = 6.1e-5 before failing on a nan residual
    for mu in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="mu must be positive"):
            SolverConfig(mu=mu)
    with pytest.raises(ValueError):
        newton_solve(random_field(2, 4, 4, 2.0))


@pytest.mark.parametrize("key", ["newton_tol"])
def test_config_rejects_nonpositive_tolerances(key):
    # a tolerance of zero or below can never be met, and one of inf or
    # nan is met or missed whatever the residual (inf reported success
    # after 0 iterations at a dual residual of 0.036)
    for value in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match=f"{key} must be positive"):
            SolverConfig(mu=1.0, **{key: value})


@pytest.mark.parametrize("key, least", [("max_newton", 1)])
def test_config_rejects_counts_below_their_least_value(key, least):
    # the bound the CLI checks on config.solver; max_newton = 0 would
    # otherwise fail every solve that does not start converged.  A count
    # must be an integer and not a boolean: 2.5 would fail in range() and
    # True would run one iteration and report newton_iters=True
    with pytest.raises(ValueError, match=f"{key} must be at least {least}"):
        SolverConfig(mu=1.0, **{key: least - 1})
    for value in (2.5, True):
        with pytest.raises(ValueError, match=f"{key} must be at least {least} and an integer"):
            SolverConfig(mu=1.0, **{key: value})
    assert getattr(SolverConfig(mu=1.0, **{key: least}), key) == least
