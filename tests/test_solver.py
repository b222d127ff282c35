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


def test_dense_and_krylov_solves_agree():
    mu = 0.3
    f = 0.4 * random_field(3, 6, 6, 2.0)
    dense = newton_solve(f, None, SolverConfig(mu=mu, dense_threshold=10**6))
    kry = newton_solve(f, None, SolverConfig(mu=mu, dense_threshold=0))
    assert dense.success and kry.success
    assert np.max(np.abs(dense.u.coeffs - kry.u.coeffs)) < 1e-8


@pytest.mark.parametrize("dense_threshold", [10**6, 0], ids=["dense", "gmres"])
def test_solve_linearized_returns_a_real_field(dense_threshold):
    # a Newton residual, Hermitian only to rounding; the solve works on
    # the real coordinates of the Hermitian half, so w is real exactly
    mu = 0.3
    f = 0.4 * random_field(3, 6, 5, 2.0)
    m = random_field(4, 6, 5, 1.5)
    r = apply_T(m, mu) - f
    w = solve_linearized(m, r, SolverConfig(mu=mu, dense_threshold=dense_threshold))
    assert w.hermitian_defect() == 0.0
    assert dual_norm(apply_T_prime(m, w, mu) - r) <= 1e-11 * dual_norm(r)


def test_gmres_work_is_bounded_by_max_krylov(monkeypatch):
    # a strongly advected linearization that GMRES cannot solve in a few
    # iterations: each of the three GMRES calls may spend at most
    # max_krylov inner iterations plus its two residual evaluations
    # b - A x (operator applies both), the solver checks the dual residual
    # of each call's iterate once, and the Newton solve then reports the
    # failure instead of raising
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
    cfg = SolverConfig(mu=0.05, max_krylov=4, dense_threshold=0)
    rep = newton_solve(f, u0, cfg)
    assert not rep.success
    assert "GMRES did not converge" in rep.message
    assert rep.u is u0
    assert 0 < len(applies) <= 3 * (cfg.max_krylov + 2)
    assert len(residuals) == 3


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
        SolverConfig(mu=1.0, homotopy_steps=(0.0, 0.5, 0.4, 1.0))
    with pytest.raises(ValueError):
        SolverConfig(mu=1.0, homotopy_steps=(0.1, 1.0))
    with pytest.raises(ValueError):
        SolverConfig(mu=1.0, max_krylov=0)
    with pytest.raises(ValueError):
        newton_solve(random_field(2, 4, 4, 2.0))
