import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from stburgers import colehopf
from stburgers.colehopf import (
    NonpositivePhiError,
    NotInS1Error,
    PERIOD_MAP_BLOCK,
    PeriodMap,
    S2Element,
    S3Element,
    antiderivative_x,
    chain_rule_defect,
    grid_min,
    lift_s1_to_s2,
    monodromy_leading_pair,
    profile_values,
    s1_residual,
    s2_to_s3,
    s3_to_s2,
    verify_uniqueness,
)
from stburgers.fields import (
    Basis,
    SpectralField,
    evaluate,
    random_field,
    space_eval_matrix,
    space_matrix,
    space_nodes,
    truncate,
    zeros,
)
from stburgers.norms import dual_norm
from stburgers.operators import d_x
from stburgers.solver import SolverConfig


def zero_mean_potential(seed, n_t=4, n_x=5, amp=0.4):
    w = amp * random_field(seed, n_t, n_x, 2.5)
    return S2Element(antiderivative_x(w), 0.0).W


def test_antiderivative_round_trip():
    w = random_field(3, 5, 7, 2.0)
    wbar = antiderivative_x(w)
    assert wbar.basis is Basis.NEUMANN_COSINE
    back = d_x(wbar)
    assert np.max(np.abs(back.coeffs - w.coeffs)) < 1e-14
    # value at x = 0: basis values are 1 and sqrt(2) cos(0) = sqrt(2)
    at_zero = wbar.coeffs[:, 0] + np.sqrt(2.0) * wbar.coeffs[:, 1:].sum(axis=1)
    assert np.max(np.abs(at_zero)) < 1e-13


def test_lift_rejects_generic_fields():
    # a random w does not solve the linearized equation at a random v, so
    # its potential residual has x-dependent content
    w = random_field(1, 4, 5, 2.0)
    v = random_field(2, 4, 5, 2.0)
    with pytest.raises(NotInS1Error):
        lift_s1_to_s2(w, v, mu=0.5)


def test_lift_project_is_structurally_inverse(monkeypatch):
    # with the residual gate disabled the projection W -> W_x recovers w
    # exactly for any w: the lift only changes the constant-in-x column
    monkeypatch.setattr(colehopf, "S1_TOL", np.inf)
    w = random_field(4, 4, 5, 2.0)
    v = random_field(5, 4, 5, 2.0)
    e2 = lift_s1_to_s2(w, v, mu=0.5)
    # the S2 -> S1 projection is w = W_x
    assert np.max(np.abs(d_x(e2.W).coeffs - w.coeffs)) < 1e-13
    # the S2 representative has zero space-time mean
    assert abs(e2.W.coeffs[e2.W.n_t, 0]) < 1e-15


@settings(max_examples=50, deadline=None)
@given(
    n_t=st.integers(0, 6),
    n_x=st.integers(0, 7),
    mean=st.floats(-1e3, 1e3),
    seed=st.integers(0, 2**31 - 1),
)
def test_s2_element_keeps_the_zero_mean_representative(n_t, n_x, mean, seed):
    # W is taken modulo constants: the record keeps the representative of
    # zero space-time mean, and changes no other coefficient
    c = random_field(seed, n_t, n_x, 1.5, Basis.NEUMANN_COSINE).coeffs.copy()
    c[n_t, 0] += mean
    W = SpectralField(c, n_t, n_x, Basis.NEUMANN_COSINE)
    e = S2Element(W, 0.25)
    assert e.W.coeffs[n_t, 0] == 0.0 and e.K == 0.25
    grid = evaluate(e.W, 2 * n_t + 3, n_x + 3)
    assert abs(grid.mean()) < 1e-12 * max(1.0, np.abs(grid).max())
    rest = np.ones(c.shape, dtype=bool)
    rest[n_t, 0] = False
    assert np.array_equal(e.W.coeffs[rest], c[rest])
    again = S2Element(e.W, e.K)
    assert np.array_equal(again.W.coeffs, e.W.coeffs)


def test_s2_s3_round_trip_is_exact():
    mu = 0.5
    for seed in range(4):
        W = zero_mean_potential(seed)
        e2 = S2Element(W, 0.3 * seed - 0.2)
        e3 = s2_to_s3(e2, mu)
        assert abs(-grid_min(-1.0 * e3.phi) - 1.0) < 1e-12
        assert grid_min(e3.phi) > 0.0
        back = s3_to_s2(e3, mu)
        diff = truncate(back.W, W.n_t, W.n_x) - W
        assert diff.l2() < 1e-12
        assert abs(back.K - e2.K) < 1e-14


@settings(max_examples=30, deadline=None)
@given(
    n_t=st.integers(1, 6),
    n_x=st.integers(2, 7),
    mu=st.floats(0.5, 2.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_s2_s3_round_trip_over_random_truncations(n_t, n_x, mu, seed):
    # the fixed-size round trip above over random sizes; n_x = 1 and
    # mu < 0.5 leave the exponential less resolved in the 3x truncation
    # of phi, and there the trip back misses W by up to a few 1e-13
    W = zero_mean_potential(seed, n_t, n_x)
    k = float(np.random.default_rng(seed).uniform(-1.0, 1.0))
    e3 = s2_to_s3(S2Element(W, k), mu)
    assert abs(-grid_min(-1.0 * e3.phi) - 1.0) < 1e-12
    assert grid_min(e3.phi) > 0.0
    back = s3_to_s2(e3, mu)
    assert (truncate(back.W, n_t, n_x) - W).l2() < 1e-12
    assert abs(back.K - k) < 1e-14


def test_s3_quotient_normalization():
    # scaling phi by a positive constant changes nothing after the trip
    # back: the mean normalization of W absorbs the factor
    mu = 0.4
    W = zero_mean_potential(7)
    e3 = s2_to_s3(S2Element(W, 1.0), mu)
    scaled = S3Element(0.37 * e3.phi, e3.K)
    w1 = s3_to_s2(e3, mu).W
    w2 = s3_to_s2(scaled, mu).W
    assert (w1 - w2).l2() < 1e-12


def test_chain_rule_defect_is_small():
    mu = 0.5
    worst = 0.0
    for seed in range(4):
        W = zero_mean_potential(seed + 20)
        v = 0.5 * random_field(seed + 30, 4, 5, 2.5)
        worst = max(worst, chain_rule_defect(W, v, 0.1 * seed, mu))
    assert worst < 1e-8


def test_s3_to_s2_rejects_sign_changing_phi():
    phi = zeros(2, 3, Basis.NEUMANN_COSINE)
    c = phi.coeffs.copy()
    c[2, 0] = 0.1
    c[2, 1] = 1.0  # 0.1 + sqrt(2) cos(pi x) changes sign
    phi = phi.with_coeffs(c)
    e3 = S3Element(phi, 0.0)
    with pytest.raises(NonpositivePhiError):
        s3_to_s2(e3, mu=1.0)


def test_period_map_heat_decay_oracle():
    # v = 0: mode m decays by exp(-mu m^2 pi^2) over one period
    mu = 0.8
    v = zeros(2, 4)
    psi0 = np.zeros(5)
    psi0[0] = 1.0
    psi0[1] = 1.0
    psi0[2] = 0.5
    out = PeriodMap(v, mu, 2048, n_x=4).apply(psi0)
    exact = psi0 * np.exp(-mu * (np.arange(5) * np.pi) ** 2)
    assert np.max(np.abs(out - exact)) < 1e-7


def test_period_map_preserves_constants_exactly():
    v = 2.0 * random_field(3, 4, 6, 2.0)
    psi0 = np.zeros(7)
    psi0[0] = 1.0
    out = PeriodMap(v, 0.2, 64, n_x=6).apply(psi0)
    assert np.max(np.abs(out - psi0)) < 1e-13


def step_oracle(v, mu, steps, n_x, psi):
    """Reference period map: the trapezoidal evolution one step at a
    time, with one dense solve per step."""
    m_x = 2 * (n_x + 1)
    mid = Basis.NEUMANN_COSINE
    bs = space_matrix(n_x, m_x, mid, Basis.DIRICHLET_SINE)
    bc = space_matrix(n_x, m_x, mid, Basis.NEUMANN_COSINE)
    bv = space_matrix(v.n_x, m_x, mid, Basis.DIRICHLET_SINE)
    analysis = bc.T / m_x
    lap = -((np.arange(n_x + 1) * np.pi) ** 2)
    deriv = np.zeros((n_x, n_x + 1))
    for mm in range(1, n_x + 1):
        deriv[mm - 1, mm] = -mm * np.pi
    dt = 1.0 / steps
    times = np.arange(steps + 1) * dt
    e = np.exp(2j * np.pi * np.arange(-v.n_t, v.n_t + 1)[None, :] * times[:, None])
    vgrid = ((e @ v.coeffs) @ bv.T).real
    eye = np.eye(n_x + 1)
    mats = [
        np.diag(mu * lap) - analysis @ (vgrid[k][:, None] * (bs @ deriv))
        for k in range(steps + 1)
    ]
    for k in range(steps):
        psi = np.linalg.solve(eye - 0.5 * dt * mats[k + 1], (eye + 0.5 * dt * mats[k]) @ psi)
    return psi


B = PERIOD_MAP_BLOCK


@settings(max_examples=40, deadline=None)
@given(
    n_x=st.integers(1, 10),
    v_n_t=st.integers(1, 4),
    v_n_x=st.integers(1, 10),
    mu=st.floats(0.01, 2.0),
    steps=st.sampled_from([1, 2, 3, B - 1, B, B + 1, 2 * B + 1, 512]),
    seed=st.integers(0, 2**31 - 1),
)
def test_period_map_matches_step_oracle(n_x, v_n_t, v_n_x, mu, steps, seed):
    v = 2.0 * random_field(seed, v_n_t, v_n_x, 2.0)
    psi = np.random.default_rng(seed).standard_normal(n_x + 1)
    pmap = PeriodMap(v, mu, steps, n_x=n_x)
    ref = step_oracle(v, mu, steps, n_x, psi)
    assert np.abs(pmap.apply(psi) - ref).max() <= 1e-12 * np.abs(ref).max()
    e0 = np.zeros(n_x + 1)
    e0[0] = 1.0
    assert np.array_equal(pmap.matrix[:, 0], e0)  # constants are fixed points


@pytest.mark.parametrize("mu", [0.1, 1.0])
@pytest.mark.parametrize("steps", [1, 2, B - 1, B, B + 1, 100, 512])
def test_period_map_matches_the_complex_evaluation(steps, mu):
    # the oracle evaluates v by the complex time matrix exp(2 pi i n t);
    # v layouts with n_t = 0..8, also where steps < 2 n_t + 1, and maps
    # whose last block is ragged (65, 100)
    for v_n_t in range(9):
        v = 2.0 * random_field(v_n_t, v_n_t, 2 + v_n_t % 5, 2.0)
        ref = step_oracle(v, mu, steps, 6, np.eye(7))
        got = PeriodMap(v, mu, steps, n_x=6).matrix
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("seed", range(4))
def test_period_map_outputs_stay_exact(seed):
    # what the reports print of the period map is exact: the pair of a
    # map whose other eigenvalues lie in the unit disc and verify's floor
    from stburgers.verify import VerifyConfig, check_positivity

    v = 2.0 * random_field(seed, 4, 6, 2.0)
    e0 = np.zeros(7)
    e0[0] = 1.0
    for mu in (0.1, 1.0):
        rho, psi = monodromy_leading_pair(v, mu, colehopf.MONODROMY_STEPS)
        assert rho == 1.0
        assert np.array_equal(psi, e0)
    (floor,) = check_positivity(VerifyConfig(seed=seed))
    assert floor.value == 0.0


def test_profile_projection_round_trip():
    # cosine coefficients of cos^2(pi x) by the midpoint rule on 36 nodes
    b = space_matrix(8, 36, Basis.NEUMANN_COSINE, Basis.NEUMANN_COSINE)
    psi = (b.T @ np.cos(np.pi * space_nodes(36, Basis.NEUMANN_COSINE)) ** 2) / 36
    x = np.linspace(0.05, 0.95, 11)
    vals = space_eval_matrix(8, x, Basis.NEUMANN_COSINE) @ psi
    assert np.max(np.abs(vals - np.cos(np.pi * x) ** 2)) < 1e-12


def test_monodromy_of_heat_flow():
    rho, psi = monodromy_leading_pair(zeros(2, 8), mu=0.5, steps=256)
    assert abs(rho - 1.0) < 1e-10
    vals = profile_values(psi)
    assert np.max(np.abs(vals - 1.0)) < 1e-9


def test_monodromy_pair_is_exact_at_small_mu():
    # the subdominant eigenvalue exp(-mu pi^2) is within 1e-3 of one, so
    # an iterative eigensolver converges slowly; the pair is still exact
    rho, psi = monodromy_leading_pair(zeros(2, 8), mu=1e-4, steps=64)
    e0 = np.zeros(9)
    e0[0] = 1.0
    assert rho == 1.0
    assert np.array_equal(psi, e0)


def test_monodromy_pair_of_a_map_with_another_leading_eigenvalue():
    # strong advection on coarse steps: the trapezoidal map picks up an
    # eigenvalue of modulus above one, which the pair reports as it is
    v = 200.0 * random_field(39, 3, 6, 1.0)
    rho, psi = monodromy_leading_pair(v, mu=0.1, steps=8)
    assert abs(rho - 2.2703) < 1e-4
    assert abs(np.abs(profile_values(psi) - 1.0).max() - 0.774) < 1e-3
    # here the eigenvalue of largest modulus is complex
    rho, _ = monodromy_leading_pair(v, mu=0.1, steps=2)
    assert np.isnan(rho)


@settings(max_examples=60, deadline=None)
@given(
    n_x=st.integers(0, 11),
    v_n_t=st.integers(1, 3),
    v_n_x=st.integers(1, 8),
    amp=st.floats(0.0, 300.0),
    mu=st.floats(0.01, 2.0),
    steps=st.sampled_from([1, 2, 3, 4, 8, 16, 64, 65, 512]),
    seed=st.integers(0, 2**31 - 1),
)
def test_monodromy_pair_is_exact_when_one_leads(n_x, v_n_t, v_n_x, amp, mu, steps, seed):
    # v is padded or cut to the map's n_x modes
    v = truncate(amp * random_field(seed, v_n_t, v_n_x, 1.0), v_n_t, n_x)
    m = PeriodMap(v, mu, steps).matrix
    radius = np.abs(np.linalg.eigvals(m[1:, 1:])).max(initial=0.0)
    # a second eigenvalue within the invariant's tolerance of one cannot
    # be told apart from the constant's by rho alone
    assume(abs(radius - 1.0) > 1e-6)
    rho, psi = monodromy_leading_pair(v, mu, steps=steps)
    if radius < 1.0:
        e0 = np.zeros(n_x + 1)
        e0[0] = 1.0
        assert rho == 1.0
        assert np.array_equal(psi, e0)
    else:
        assert np.isnan(rho) or abs(rho - 1.0) > 1e-6


def test_period_map_memory_does_not_grow_with_steps():
    v = 2.0 * random_field(3, 4, 6, 2.0)

    def peak(steps):
        tracemalloc.start()
        try:
            PeriodMap(v, 0.5, steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(10_000) <= 1.5 * peak(512)


def test_monodromy_around_solved_field(test_matrix):
    u = test_matrix[(0.1, 1.0)]["homotopy"].u
    rho, psi = monodromy_leading_pair(u, mu=0.1, steps=512)
    assert abs(rho - 1.0) < 1e-6
    assert np.max(np.abs(profile_values(psi) - 1.0)) < 1e-5


def test_uniqueness_verification(test_matrix):
    f = test_matrix[(0.1, 1.0)]["f"]
    rep = verify_uniqueness(f, SolverConfig(mu=0.1, max_newton=60), n_starts=3, seed=0)
    assert rep.unique
    assert rep.max_pairwise_l2 < 1e-8
    assert rep.max_s1_residual < 1e-8


def test_s1_residual_of_solution_difference(test_matrix):
    cell = test_matrix[(1.0, 1.0)]
    u1 = cell["homotopy"].u
    u2 = cell["starts"][0].u
    w = u1 - u2
    assert s1_residual(w, u2, 1.0) < 1e-9
    # a generic field is far from S1
    g = random_field(2, 16, 16, 2.0)
    assert s1_residual(g, u2, 1.0) > 1e-2
