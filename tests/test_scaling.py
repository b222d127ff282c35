import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import time_eval_matrix
from stburgers.fields import (
    random_field,
    set_mode,
    space_eval_matrix,
    space_nodes,
    time_nodes,
    zeros,
)
from stburgers.norms import dual_norm
from stburgers.operators import apply_S, apply_T, d_t, d_xx
from stburgers.scaling import (
    PhysicalProblem,
    denormalize,
    normalize,
    time_reverse,
)
from stburgers.solver import SolverConfig, newton_solve


def test_normalization_arithmetic():
    f = random_field(1, 4, 5, 2.0)
    p = PhysicalProblem(period=2.0, length=3.0, viscosity=0.5, forcing=f)
    mu, fbar, flip = normalize(p)
    assert abs(mu - 0.5 * 2.0 / 9.0) < 1e-15
    assert not flip
    assert np.max(np.abs(fbar.coeffs - (4.0 / 3.0) * f.coeffs)) < 1e-15


def test_unit_problem_is_fixed_point():
    f = random_field(2, 4, 5, 2.0)
    p = PhysicalProblem(period=1.0, length=1.0, viscosity=1.0, forcing=f)
    mu, fbar, flip = normalize(p)
    assert mu == 1.0 and not flip
    assert np.max(np.abs(fbar.coeffs - f.coeffs)) < 1e-15


def test_time_reverse_is_involution_and_keeps_reality():
    u = random_field(3, 4, 5, 2.0)
    r = time_reverse(u)
    assert np.max(np.abs(time_reverse(r).coeffs - u.coeffs)) < 1e-15
    # reversing a Hermitian-symmetric field equals conjugation, so the
    # grid values stay real: check one sampled column
    e = time_eval_matrix(u.n_t, 9)
    vals = e @ r.coeffs
    assert np.max(np.abs(vals.imag)) < 1e-13


def test_negative_viscosity_flips_time():
    f = set_mode(zeros(4, 5), 1, 1, 0.3 - 0.2j)
    p = PhysicalProblem(period=1.0, length=1.0, viscosity=-0.7, forcing=f)
    mu, fbar, flip = normalize(p)
    assert flip and abs(mu - 0.7) < 1e-15
    assert np.max(np.abs(fbar.coeffs - f.coeffs[::-1])) < 1e-15


@settings(max_examples=30, deadline=None)
@given(
    n_t=st.integers(1, 8),
    n_x=st.integers(1, 8),
    mu=st.floats(0.01, 2.0),
    seed=st.integers(0, 2**31 - 1),
    period=st.floats(0.1, 10.0),
    length=st.floats(0.1, 10.0),
    sign=st.sampled_from([1.0, -1.0]),
)
@example(n_t=8, n_x=8, mu=1.0, seed=18594981, period=1.0, length=1.98453464681217, sign=1.0)
def test_scaling_round_trip(n_t, n_x, mu, seed, period, length, sign):
    # a physical field u, sampled on the unit box as u_hat(t, x) = u(tT, xL),
    # and the forcing g = u_t - nu u_xx + u u_x it solves: normalize must
    # give the problem that the scaled field ubar solves, and denormalize
    # must map ubar back to the samples of u, for either sign of nu
    nu = sign * mu * length**2 / period
    u_hat = random_field(seed, n_t, n_x, 2.0)
    g = (1.0 / period) * d_t(u_hat) - (nu / length**2) * d_xx(u_hat) + (1.0 / length) * apply_S(u_hat)
    p = PhysicalProblem(period=period, length=length, viscosity=nu, forcing=g)
    mu_bar, fbar, flip = normalize(p)
    assert flip == (sign < 0)
    assert abs(mu_bar - mu) <= 1e-15 * mu
    ratio = period / length
    u_bar = ratio * u_hat
    if flip:  # ubar(t, x) = -(T / L) u_hat(-t, x)
        u_bar = -1.0 * time_reverse(u_bar)
    # roundoff relative to the three parts of T(ubar), which may cancel
    parts = (ratio * d_t(u_hat), mu * ratio * d_xx(u_hat), ratio**2 * apply_S(u_hat))
    assert dual_norm(apply_T(u_bar, mu_bar) - fbar) <= 1e-13 * sum(map(dual_norm, parts))
    m_t, m_x = 2 * n_t + 3, n_x + 2
    out = denormalize(u_bar, p, m_t, m_x)
    assert np.abs(out.times - period * time_nodes(m_t)).max() <= 1e-15 * period
    assert np.abs(out.positions - length * space_nodes(m_x, u_hat.basis)).max() <= 1e-15 * length
    e = time_eval_matrix(n_t, m_t)
    b = space_eval_matrix(n_x, space_nodes(m_x, u_hat.basis), u_hat.basis)
    expect = ((e @ u_hat.coeffs) @ b.T).real
    # the two evaluations round one sum of k n_x terms, k = 2 n_t + 1, with
    # the same computed E and B.  By |fl(A B) - A B| <= gamma_n |A| |B| for
    # inner dimension n (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2nd ed., 3.5), the complex oracle is within
    # gamma_(2k + n_x) M of the exact values, M = |E| |C| |B|^T, as the
    # real part of a complex dot product is a real one of length 2k.  The
    # packed evaluation (L / T) (R pack((T / L) C)) B^T is within
    # gamma_(k + n_x + 8) M: the sqrt 2 factors of R and pack keep the sum
    # of its term sizes at most M, and each term takes 8 roundings outside
    # the two products (T / L, L / T, the two scalings, and sqrt 2 and its
    # product in R and in pack).  gamma_a + gamma_b <= gamma_(a + b).
    n = 3 * (2 * n_t + 1) + 2 * n_x + 8
    unit = np.finfo(float).eps / 2
    size = (np.abs(e) @ np.abs(u_hat.coeffs)) @ np.abs(b).T
    assert np.all(np.abs(out.values - expect) <= n * unit / (1 - n * unit) * size)


def test_denormalize_returns_scaled_samples():
    u = random_field(4, 4, 5, 2.0)
    p = PhysicalProblem(period=2.0, length=3.0, viscosity=0.5, forcing=u)
    out = denormalize(u, p, m_t=9, m_x=8)
    assert out.times.shape == (9,) and out.positions.shape == (8,)
    assert abs(out.times[0]) < 1e-14
    assert abs(out.times[1] - out.times[0] - 2.0 / 9.0) < 1e-14
    e = time_eval_matrix(u.n_t, 9)
    b = space_eval_matrix(u.n_x, space_nodes(8, u.basis), u.basis)
    expect = (3.0 / 2.0) * ((e @ u.coeffs) @ b.T).real
    assert np.max(np.abs(out.values - expect)) < 1e-15


def test_solve_commutes_with_scaling_for_negative_viscosity():
    # solve the normalized problem, undo the scaling, and check the
    # physical equation u_t - nu u_xx + u u_x = f in the weak modal sense
    T, L, nu = 1.0, 1.0, -0.4
    f = 0.5 * random_field(6, 8, 8, 2.5)
    p = PhysicalProblem(period=T, length=L, viscosity=nu, forcing=f)
    mu, fbar, flip = normalize(p)
    assert flip
    rep = newton_solve(fbar, None, SolverConfig(mu=mu))
    assert rep.success
    # on the unit box the physical solution is u(t,x) = -ubar(-t,x)
    u_phys = -1.0 * time_reverse(rep.u)
    # T_phys(u) = u_t - nu u_xx + u u_x; with nu < 0 this equals
    # -(apply_T of the reversed field) reversed, so check directly:
    from stburgers.operators import apply_L, apply_S, d_t, d_xx

    res = d_t(u_phys) - nu * d_xx(u_phys) + apply_S(u_phys) - f
    from stburgers.norms import dual_norm

    assert dual_norm(res) < 1e-9


def test_round_trip_through_physical_units():
    # normalize, solve, denormalize, and compare the samples against a
    # direct evaluation of the scaled modal solution
    f = 0.4 * random_field(7, 6, 6, 2.5)
    p = PhysicalProblem(period=0.5, length=2.0, viscosity=0.3, forcing=f)
    mu, fbar, flip = normalize(p)
    rep = newton_solve(fbar, None, SolverConfig(mu=mu))
    assert rep.success
    out = denormalize(rep.u, p, 2 * rep.u.n_t + 1, rep.u.n_x + 1)
    assert abs(out.times.max() - 0.5 * time_nodes(2 * rep.u.n_t + 1).max()) < 1e-14
    assert np.all(out.positions > 0) and np.all(out.positions < 2.0)
    assert np.max(np.abs(out.values)) > 0


def test_validation():
    f = zeros(2, 3)
    with pytest.raises(ValueError):
        PhysicalProblem(period=0.0, length=1.0, viscosity=1.0, forcing=f)
    with pytest.raises(ValueError):
        PhysicalProblem(period=1.0, length=-1.0, viscosity=1.0, forcing=f)
    with pytest.raises(ValueError):
        PhysicalProblem(period=1.0, length=1.0, viscosity=0.0, forcing=f)
