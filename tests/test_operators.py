import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stburgers.fields import (
    Basis,
    BasisMismatchError,
    SpectralField,
    advection_grid,
    evaluate,
    pack,
    packed_time_matrix,
    product_cosine,
    random_field,
    set_mode,
    space_eval_matrix,
    space_matrix,
    time_eval_matrix,
    unpack,
    zeros,
)
from stburgers import solver
from stburgers.norms import dual_norm
from stburgers.operators import (
    apply_L,
    apply_S,
    apply_T,
    d_t,
    d_x,
    d_xx,
    half_derivative,
    half_derivative_adjoint,
    hilbert,
    inner,
    invert_L,
    linear_symbol,
    p_transform,
)


def apply_T_prime(m, w, mu):
    """The oracle of the solver's packed linearization: the Gateaux
    derivative of T at m, w -> L w + (m w)_x, from the spectral product."""
    return apply_L(w, mu) + d_x(product_cosine(m, w, m.n_t, m.n_x))


def advection_values(m):
    """The values g of m on its AdvectionGrid, which fix the advection by m."""
    return advection_grid(m.n_t, m.n_x).values(pack(m.coeffs))


def symbol_at(op, n, n_t=4):
    """The symbol of a time multiplier at mode n, read off the image of
    the single-mode field with coefficient 1 at (|n|, m = 1)."""
    u = set_mode(zeros(n_t, 1), abs(n), 1, 1.0)
    return op(u).coeffs[n_t + n, 0]


def test_half_derivative_symbol_values():
    # (2 pi |n|)^{1/2} e^{i sgn(n) pi/4}
    val = symbol_at(half_derivative, 1)
    assert abs(val - np.sqrt(2 * np.pi) * np.exp(1j * np.pi / 4)) < 1e-15
    val = symbol_at(half_derivative, -4)
    assert abs(val - np.sqrt(8 * np.pi) * np.exp(-1j * np.pi / 4)) < 1e-15
    assert symbol_at(half_derivative, 0) == 0.0


def test_hilbert_symbol():
    assert symbol_at(hilbert, 3) == -1j
    assert symbol_at(hilbert, -2) == 1j
    assert symbol_at(hilbert, 0) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    n_t=st.integers(0, 16),
    n_x=st.integers(1, 16),
    basis=st.sampled_from(list(Basis)),
    seed=st.integers(0, 2**31 - 1),
)
def test_time_multipliers_keep_real_fields_real(n_t, n_x, basis, seed):
    u = random_field(seed, n_t, n_x, 1.0, basis=basis)
    for op in (half_derivative, half_derivative_adjoint, hilbert, d_t):
        out = op(u)
        assert out.hermitian_defect() <= 1e-14 * max(1.0, np.abs(out.coeffs).max()), op


def test_products_of_real_fields_are_exactly_hermitian():
    # analyse returns the coefficients of real values through `unpack`,
    # so products of real fields, and T and T' built on them, are real
    # to the last bit, not only to roundoff
    for seed in range(3):
        u, v = random_field(seed, 16, 16, 1.0), random_field(seed + 10, 16, 16, 1.0)
        for out in (product_cosine(u, v), apply_T(u, 0.3), apply_T_prime(u, v, 0.3)):
            assert out.hermitian_defect() == 0.0


def test_half_derivative_composes_to_time_derivative():
    for seed in range(10):
        u = random_field(seed, 8, 8, 1.0)
        lhs = half_derivative(half_derivative(u))
        rhs = d_t(u)
        assert (lhs - rhs).l2() <= 1e-12 * max(1.0, rhs.l2())


def test_adjoint_is_hilbert_of_half_derivative():
    u = random_field(3, 8, 8, 1.0)
    lhs = half_derivative_adjoint(u)
    rhs = hilbert(half_derivative(u))
    assert (lhs - rhs).l2() < 1e-14
    rhs2 = half_derivative(hilbert(u))
    assert (lhs - rhs2).l2() < 1e-14


def test_rotated_pairing_identity():
    for seed in range(10):
        u = random_field(seed, 6, 6, 1.0)
        d = half_derivative(u)
        val = inner(d, half_derivative_adjoint(hilbert(u)))
        assert abs(val + d.l2() ** 2) < 1e-12 * max(1.0, d.l2() ** 2)


def test_hilbert_pairing_is_skew():
    for seed in range(10):
        u = random_field(seed, 6, 6, 1.0)
        assert abs(inner(u, hilbert(u))) < 1e-13


def test_half_derivative_adjoint_pairing_vanishes():
    for seed in range(10):
        u = random_field(seed, 6, 6, 1.0)
        d = half_derivative(u)
        assert abs(inner(d, half_derivative_adjoint(u))) < 1e-12 * max(
            1.0, d.l2() ** 2
        )


def test_adjoint_pairing_transfer():
    u = random_field(1, 6, 6, 1.0)
    v = random_field(2, 6, 6, 1.0)
    lhs = inner(half_derivative(u), v)
    rhs = inner(u, half_derivative_adjoint(v))
    assert abs(lhs - rhs) < 1e-13


def test_d_x_single_mode():
    # d/dx sqrt(2) sin(m pi x) = m pi sqrt(2) cos(m pi x)
    u = set_mode(zeros(0, 3), 0, 2, 1.0)
    ux = d_x(u)
    assert ux.basis is Basis.NEUMANN_COSINE
    expected = np.zeros(4)
    expected[2] = 2 * np.pi
    assert np.abs(ux.coeffs[0].real - expected).max() < 1e-14


def test_d_x_integration_by_parts():
    # <u_x, q> = -(u, q_x) for sine u and cosine q: both sides are exact
    # modal sums, compared against independent Gauss-Legendre quadrature
    u = random_field(4, 3, 5, 1.0)
    q = random_field(5, 3, 5, 1.0, basis=Basis.NEUMANN_COSINE)
    lhs = inner(d_x(u), q)
    rhs = -inner(u, d_x(q))
    assert abs(lhs - rhs) < 1e-13
    nodes, weights = np.polynomial.legendre.leggauss(200)
    xs = 0.5 * (nodes + 1.0)
    wq = 0.5 * weights
    m_t = 16
    times = np.arange(m_t) / m_t
    n = np.arange(-3, 4)
    e = np.exp(2j * np.pi * np.outer(times, n))
    bu = space_eval_matrix(5, xs, Basis.DIRICHLET_SINE)
    bq = space_eval_matrix(5, xs, Basis.NEUMANN_COSINE)
    bux = space_eval_matrix(5, xs, Basis.NEUMANN_COSINE)
    ux_vals = ((e @ d_x(u).coeffs) @ bux.T).real
    q_vals = ((e @ q.coeffs) @ bq.T).real
    oracle = ((ux_vals * q_vals) @ wq).mean()
    assert abs(lhs - oracle) < 1e-12


def test_dxx_is_dx_squared():
    u = random_field(6, 4, 6, 1.0)
    assert (d_xx(u) - d_x(d_x(u))).l2() < 1e-12


@pytest.mark.parametrize("n_t, n_x, mu", [(0, 1, 1.0), (2, 3, 0.3), (8, 5, 0.05)])
def test_linear_symbol_table_gives_the_formula_bytes(n_t, n_x, mu):
    # the symbol is read from the truncation's mode table; the result is
    # the bytes of the direct formula, and a fresh array for each caller
    from stburgers import fields

    fields._mode_symbols.cache_clear()
    n = np.arange(-n_t, n_t + 1)[:, None]
    m = np.arange(1, n_x + 1)[None, :]
    ref = 2j * np.pi * n + mu * (m * np.pi) ** 2
    for _ in range(2):
        sym = linear_symbol(n_t, n_x, mu)
        assert sym.tobytes() == ref.tobytes() and sym.shape == ref.shape
        assert sym.flags.writeable
    assert fields._mode_symbols.cache_info()[:2] == (1, 1)


def test_linear_symbol_values():
    sym = linear_symbol(2, 3, 0.3)
    assert sym.shape == (5, 3)
    assert abs(sym[3, 1] - (2j * np.pi + 0.3 * (2 * np.pi) ** 2)) < 1e-13
    assert abs(sym[2, 0] - 0.3 * np.pi**2) < 1e-14
    with pytest.raises(ValueError, match="mu must be positive"):
        linear_symbol(2, 3, 0.0)


def test_invert_l_roundtrip():
    for mu in (1.0, 0.1):
        u = random_field(7, 8, 8, 1.0)
        back = invert_L(apply_L(u, mu), mu)
        assert (back - u).l2() < 1e-13


def test_apply_l_finite_difference_oracle():
    # u_t by 4th-order central differences in t on a fine periodic grid,
    # u_xx analytically per mode; both fully independent of apply_L
    mu = 0.7
    u = random_field(8, 3, 3, 1.0)
    f = apply_L(u, mu)
    m_t = 4096
    times = np.arange(m_t) / m_t
    xs = np.array([0.2, 0.5, 0.85])
    n = np.arange(-3, 4)
    e = np.exp(2j * np.pi * np.outer(times, n))
    b = space_eval_matrix(3, xs, Basis.DIRICHLET_SINE)
    uu = ((e @ u.coeffs) @ b.T).real
    dt = 1.0 / m_t
    du = (
        -np.roll(uu, -2, 0) + 8 * np.roll(uu, -1, 0) - 8 * np.roll(uu, 1, 0) + np.roll(uu, 2, 0)
    ) / (12 * dt)
    m = np.arange(1, 4)
    b_xx = -((m * np.pi) ** 2)[None, :] * b
    uxx = ((e @ u.coeffs) @ b_xx.T).real
    f_vals = ((e @ f.coeffs) @ b.T).real
    assert np.abs(f_vals - (du - mu * uxx)).max() < 1e-7


def test_apply_s_pairing_identity():
    # <S(u), v> = -1/2 (u^2, v_x), with the right side by independent
    # quadrature (Gauss-Legendre in x, uniform in t)
    u = random_field(9, 3, 4, 1.0)
    v = random_field(10, 3, 4, 1.0)
    lhs = inner(apply_S(u), v)
    nodes, weights = np.polynomial.legendre.leggauss(200)
    xs = 0.5 * (nodes + 1.0)
    wq = 0.5 * weights
    m_t = 32
    times = np.arange(m_t) / m_t
    n = np.arange(-3, 4)
    e = np.exp(2j * np.pi * np.outer(times, n))
    b = space_eval_matrix(4, xs, Basis.DIRICHLET_SINE)
    bc = space_eval_matrix(4, xs, Basis.NEUMANN_COSINE)
    uu = ((e @ u.coeffs) @ b.T).real
    vx = ((e @ d_x(v).coeffs) @ bc.T).real
    oracle = -0.5 * ((uu**2 * vx) @ wq).mean()
    assert abs(lhs - oracle) < 1e-12


def test_apply_s_energy_orthogonality():
    for seed in range(10):
        u = random_field(seed, 6, 6, 1.0)
        assert abs(inner(apply_S(u), u)) < 1e-13 * max(1.0, u.l2() ** 3)


def test_apply_t_prime_finite_difference():
    mu = 0.4
    u = random_field(11, 4, 4, 1.0)
    w = random_field(12, 4, 4, 1.0)
    eps = 1e-6
    fd_val = (1.0 / (2 * eps)) * (apply_T(u + eps * w, mu) - apply_T(u - eps * w, mu))
    exact = apply_T_prime(u, w, mu)
    assert (fd_val - exact).l2() < 1e-8


def column_jacobian(m, mu):
    """Reference matrix of T'(m) on all complex coefficients, built one
    unit column at a time.  apply_T_prime acts on real fields, so each
    unit array e is split as e = h1 + i h2 with h1, h2 Hermitian, and its
    column is apply(h1) + i apply(h2), by complex linearity."""
    shape = m.coeffs.shape
    n = m.coeffs.size
    a = np.empty((n, n), dtype=complex)
    for k in range(n):
        e = np.zeros(n, dtype=complex)
        e[k] = 1.0
        e = e.reshape(shape)
        h1 = 0.5 * (e + e[::-1].conj())
        h2 = -0.5j * (e - e[::-1].conj())
        cols = [apply_T_prime(m, SpectralField(h, m.n_t, m.n_x), mu).coeffs for h in (h1, h2)]
        a[:, k] = (cols[0] + 1j * cols[1]).ravel()
    return a


def complex_advection_matrix(m):
    """Closed-form complex matrix of w -> (m w)_x on all flattened
    Dirichlet-sine coefficients: block Toeplitz in the time modes,

        A[(n, k), (i, j)] = sum_t sum_x conj(E[t, n]) E[t, i] m[t, x]
                            * S[x, j] (-k pi) C[x, k] / (m_t m_x)

    on the padded product grid, E the complex time matrix
    (`time_eval_matrix`); the sum over t is one product for the
    4 n_t + 1 differences i - n."""
    rows, n_x = 2 * m.n_t + 1, m.n_x
    m_t, m_x = 3 * m.n_t + 1, 3 * n_x + 2
    mid = Basis.NEUMANN_COSINE
    diffs = time_eval_matrix(2 * m.n_t, m_t).T @ evaluate(m, m_t, m_x, mid)  # [i - n, x]
    s = space_matrix(n_x, m_x, mid, Basis.DIRICHLET_SINE)
    k = np.arange(1, n_x + 1)
    c = space_matrix(n_x, m_x, mid, mid)[:, 1:] * (-np.pi * k / (m_t * m_x))
    d = (c[:, :, None] * s[:, None, :]).reshape(m_x, n_x * n_x)  # [x, (k, j)]
    blocks = (diffs @ d).reshape(2 * rows - 1, n_x, n_x)  # [i - n, k, j]
    a = np.empty((rows, n_x, rows, n_x), dtype=complex)  # [n, k, i, j]
    for n in range(rows):
        a[n] = blocks[rows - 1 - n : 2 * rows - 1 - n].transpose(1, 0, 2)
    return a.reshape(rows * n_x, rows * n_x)


def complex_T_prime_matrix(m, mu):
    """The complex oracle of the solver's dense T'(m), `_Packed.matrix`:
    T'(m) on all coefficients."""
    a = complex_advection_matrix(m)
    a[np.diag_indices_from(a)] += linear_symbol(m.n_t, m.n_x, mu).ravel()
    return a


def packed(a, shape):
    """Real matrix of x -> pack(a @ unpack(x)) for a complex matrix a on
    flattened coefficient arrays of the given shape."""
    cols = [unpack(e.reshape(shape)).ravel() for e in np.eye(a.shape[1])]
    return np.stack([pack((a @ col).reshape(shape)).ravel() for col in cols], axis=1)


@settings(max_examples=15, deadline=None)
@given(
    n_t=st.integers(1, 7),
    n_x=st.integers(1, 7),
    mu=st.floats(0.01, 2.0),
    seed=st.integers(0, 2**31 - 1),
    amp=st.floats(0.1, 5.0),
)
def test_t_prime_matrix_matches_column_oracle(n_t, n_x, mu, seed, amp):
    m = amp * random_field(seed, n_t, n_x, 1.5)
    ref = column_jacobian(m, mu)
    a = complex_T_prime_matrix(m, mu)
    assert a.shape == ref.shape
    assert np.abs(a - ref).max() <= 1e-13 * np.abs(ref).max()
    ref = packed(ref, m.coeffs.shape)
    a = solver._Packed(m, mu).matrix(advection_values(m))
    assert a.dtype == float and a.shape == ref.shape
    assert np.abs(a - ref).max() <= 1e-13 * np.abs(ref).max()


@settings(max_examples=25, deadline=None)
@given(
    n_t=st.integers(1, 10),
    n_x=st.integers(1, 10),
    mu=st.floats(0.01, 2.0),
    seed=st.integers(0, 2**31 - 1),
    amp=st.floats(0.1, 5.0),
)
# cond(T'(m)) = 2.7e4 here, so the forward error of a backward-stable
# solve may reach eps * cond = 6e-12
@example(n_t=2, n_x=9, mu=0.01, seed=1, amp=2.0)
def test_real_dense_solve_matches_complex_oracle(n_t, n_x, mu, seed, amp):
    # the real dense solve is backward stable in the complex oracle system
    # A w = r: the normwise backward error |A w - r| / (|A| |w| + |r|) of
    # its w, in the infinity norm (Rigal & Gaches; Higham, Accuracy and
    # Stability of Numerical Algorithms, 2nd ed., Thm 7.1), is a few eps
    m = amp * random_field(seed, n_t, n_x, 1.5)
    r = random_field(seed + 1, n_t, n_x, 1.0).coeffs
    a = solver._Packed(m, mu).matrix(advection_values(m))
    w = unpack(np.linalg.solve(a, pack(r).ravel()).reshape(r.shape)).ravel()
    oracle = complex_T_prime_matrix(m, mu)
    r = r.ravel()
    scale = np.abs(oracle).sum(axis=1).max() * np.abs(w).max() + np.abs(r).max()
    assert np.abs(oracle @ w - r).max() <= 4 * np.finfo(float).eps * scale


@settings(max_examples=25, deadline=None)
@given(
    n_t=st.integers(1, 12),
    n_x=st.integers(1, 12),
    mu=st.floats(0.01, 2.0),
    seed=st.integers(0, 2**31 - 1),
    amp=st.floats(0.1, 5.0),
)
def test_advection_operator_matches_matrix_and_product(n_t, n_x, mu, seed, amp):
    m = amp * random_field(seed, n_t, n_x, 1.5)
    x = np.random.default_rng(seed).standard_normal(m.coeffs.shape)  # packed
    w = m.with_coeffs(unpack(x))
    grid = advection_grid(n_t, n_x)
    g = advection_values(m)
    y = grid.advect(g, x).ravel()
    x = x.ravel()
    assert y.dtype == float and y.shape == x.shape
    by_matrix = grid.matrix(g) @ x
    by_product = pack(d_x(product_cosine(m, w, n_t, n_x)).coeffs).ravel()
    # at n_x = 1, (m w)_x has no mode in the band (sin^2 holds cosine
    # modes 0 and 2 only), so the entries are compared with the size
    # pi |m| |x| of the product there
    scale = np.abs(by_product).max() if n_x > 1 else np.pi * m.l2() * np.linalg.norm(x)
    assert np.abs(y - by_matrix).max() <= 1e-13 * scale
    assert np.abs(y - by_product).max() <= 1e-13 * scale
    # the solver's right-preconditioned, dual-weighted real GMRES operator
    # A z = z + W pack((m' w)_x), w = unpack(P^{-1} W^{-1} z), with
    # P = L + (m_0 .)_x, m_0 the time mean of m and m' = m - m_0
    matvec, weight, solution = solver._linearized_matvec(solver._Packed(m, mu), advection_values(m))
    mean = zeros(n_t, n_x).coeffs.copy()
    mean[n_t] = m.coeffs[n_t]
    m_0 = m.with_coeffs(mean)
    y = solution(x)
    v = m.with_coeffs(unpack(y.reshape(m.coeffs.shape)))
    mv = matvec(x)
    product = pack(d_x(product_cosine(m - m_0, v, n_t, n_x)).coeffs).ravel()
    ref = x + weight * product
    assert mv.dtype == float and y.dtype == float
    # the two sides differ only in how (m' v)_x is computed, and W <= 1
    scale = np.abs(product).max() if n_x > 1 else np.pi * m.l2() * np.linalg.norm(y)
    assert np.abs(mv - ref).max() <= 1e-13 * scale
    kappa = preconditioner_kappa(m, mu)
    back = solution(weight * pack((apply_L(w, mu) + d_x(product_cosine(m_0, w, n_t, n_x))).coeffs).ravel())
    assert back.dtype == float
    assert np.abs(back - x).max() <= 1e-14 * kappa * np.abs(x).max()


def preconditioner_kappa(m, mu):
    """Roundoff model of the solver's P^{-1}, P = L + (m_0 .)_x: it
    amplifies the roundoff of its argument, about eps (|P| + pi n_x |m|)
    times its size, by at most |P_n^{-1}| on time mode n, and its
    eigenvector basis V by at most cond(V)."""
    n_t, n_x = m.n_t, m.n_x
    mean_block = advection_grid(n_t, n_x).mean_block(advection_values(m))
    block = np.diag(mu * (np.pi * np.arange(1, n_x + 1)) ** 2) + mean_block
    inv_norm = max(
        np.linalg.norm(np.linalg.inv(block + 2j * np.pi * n * np.eye(n_x)), 2)
        for n in range(n_t + 1)
    )
    return (
        np.linalg.cond(np.linalg.eig(block)[1]) * inv_norm
        * (np.linalg.norm(block, 2) + 2 * np.pi * n_t + np.pi * n_x * m.l2())
    )


@settings(max_examples=25, deadline=None)
@given(
    n_t=st.integers(1, 12),
    n_x=st.integers(1, 12),
    mu=st.floats(0.01, 2.0),
    seed=st.integers(0, 2**31 - 1),
    amp=st.floats(0.1, 5.0),
)
def test_gmres_residual_is_the_dual_residual(n_t, n_x, mu, seed, amp):
    # GMRES's residual |b - A z| on b = W pack(r) is the dual residual
    # of the iterate w = unpack(P^{-1} W^{-1} z) that it stands for, so
    # the cycle stops on the solver's own gate
    m = amp * random_field(seed, n_t, n_x, 1.5)
    r = random_field(seed + 1, n_t, n_x, 1.0)
    z = np.random.default_rng(seed).standard_normal(m.coeffs.size)
    matvec, weight, solution = solver._linearized_matvec(solver._Packed(m, mu), advection_values(m))
    b = weight * pack(r.coeffs).ravel()
    assert np.linalg.norm(b) == pytest.approx(dual_norm(r), rel=1e-14)
    w = r.with_coeffs(unpack(solution(z).reshape(r.coeffs.shape)))
    ours = np.linalg.norm(b - matvec(z))
    theirs = dual_norm(r - apply_T_prime(m, w, mu))
    # z = W P w holds to the roundoff of P^{-1} on z, which A z assumes
    # and apply_T_prime does not
    assert abs(ours - theirs) <= 1e-14 * preconditioner_kappa(m, mu) * (np.linalg.norm(z) + np.linalg.norm(b))


# truncations of N = (2 n_t + 1) n_x <= 400 unknowns at the two extremes
# of the aspect ratio: long time axes over one or two space modes, and
# long space axes over one to three time modes
ELONGATED = st.one_of(
    st.integers(1, 2).flatmap(
        lambda n_x: st.tuples(st.integers(1, (400 // n_x - 1) // 2), st.just(n_x))
    ),
    st.integers(1, 3).flatmap(
        lambda n_t: st.tuples(st.just(n_t), st.integers(1, 400 // (2 * n_t + 1)))
    ),
)


@settings(max_examples=10, deadline=None)
@given(shape=ELONGATED, seed=st.integers(0, 2**31 - 1), amp=st.floats(0.1, 5.0))
def test_advection_matrix_matches_operator_and_product_when_elongated(shape, seed, amp):
    n_t, n_x = shape
    m = amp * random_field(seed, n_t, n_x, 1.5)
    grid = advection_grid(n_t, n_x)
    g = advection_values(m)
    a = grid.matrix(g)
    n = (2 * n_t + 1) * n_x
    assert a.dtype == float and a.shape == (n, n) and n <= 400
    columns = np.stack([grid.advect(g, e.reshape(m.coeffs.shape)).ravel() for e in np.eye(n)], axis=1)
    x = np.random.default_rng(seed).standard_normal(m.coeffs.shape)  # packed
    w = m.with_coeffs(unpack(x))
    x = x.ravel()
    by_product = pack(d_x(product_cosine(m, w, n_t, n_x)).coeffs).ravel()
    # the n_x = 1 scale of test_advection_operator_matches_matrix_and_product:
    # pi |m| |x|, with |x| = 1 for the unit columns
    if n_x > 1:
        scale, column_scale = np.abs(by_product).max(), np.abs(columns).max()
    else:
        scale, column_scale = np.pi * m.l2() * np.linalg.norm(x), np.pi * m.l2()
    assert np.abs(a - columns).max() <= 1e-13 * column_scale
    assert np.abs(a @ x - by_product).max() <= 1e-13 * scale


@pytest.mark.parametrize("n_t, n_x", [(1, 133), (3, 57), (14, 14), (199, 1)])
def test_t_prime_matrix_peak_memory_is_a_few_matrices(n_t, n_x):
    m = random_field(n_t + n_x, n_t, n_x, 1.5)
    g = advection_values(m)
    packed = solver._Packed(m, 0.1)
    packed.matrix(g)  # fills the layout caches
    tracemalloc.start()
    try:
        a = packed.matrix(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * a.nbytes, f"peak {peak} B for a {a.nbytes} B matrix"


@settings(max_examples=25, deadline=None)
@given(
    n_t=st.integers(0, 10),
    n_x=st.integers(1, 12),
    seed=st.integers(0, 2**31 - 1),
    amp=st.floats(0.1, 5.0),
)
def test_mean_advection_block_is_the_mean_mode_of_the_matrix(n_t, n_x, seed, amp):
    m = amp * random_field(seed, n_t, n_x, 1.5)
    grid = advection_grid(n_t, n_x)
    g = advection_values(m)
    block = grid.mean_block(g)
    assert block.shape == (n_x, n_x) and block.dtype == float
    ref = grid.matrix(g)[:n_x, :n_x]
    assert np.abs(block - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


def test_packed_time_matrix_is_orthogonal_on_the_product_grid():
    for n_t, m_t in ((1, 4), (3, 7), (8, 25)):
        r = packed_time_matrix(n_t, m_t)
        assert r.shape == (m_t, 2 * n_t + 1)
        assert np.abs(r.T @ r - m_t * np.eye(2 * n_t + 1)).max() <= 1e-13 * m_t
        # R x are the values in time of the Hermitian array unpack(x)
        x = np.random.default_rng(n_t).standard_normal(2 * n_t + 1)
        values = time_eval_matrix(n_t, m_t) @ unpack(x[:, None])[:, 0]
        assert np.abs(values.imag).max() <= 1e-14 * np.abs(x).sum()
        assert np.abs(r @ x - values.real).max() <= 1e-14 * np.abs(x).sum()


def test_advection_rejects_values_off_every_product_grid():
    # an advection's values lie on the product grid of its truncation,
    # (3 n_t + 1, 3 n_x + 2) with n_x >= 1; none of these shapes is one,
    # and each grid, and the dense T'(m) built on it, checks g against
    # its own shape
    for n_t, n_x in ((1, 1), (2, 1), (1, 2)):
        grid = advection_grid(n_t, n_x)
        x = np.zeros((2 * n_t + 1, n_x))
        takers = (
            lambda g: grid.advect(g, x), grid.matrix, grid.mean_block,
            solver._Packed(zeros(n_t, n_x), 0.5).matrix,
        )
        for shape in ((5, 5), (7, 4), (7, 2)):
            for take in takers:
                with pytest.raises(ValueError, match="off the product grid"):
                    take(np.zeros(shape))


def test_apply_t_secant_identity():
    # T(u) - T(v) = T'((u+v)/2)(u - v), exactly (quadratic nonlinearity)
    mu = 0.2
    u = random_field(13, 4, 4, 1.0)
    v = random_field(14, 4, 4, 1.0)
    lhs = apply_T(u, mu) - apply_T(v, mu)
    rhs = apply_T_prime(0.5 * (u + v), u - v, mu)
    assert (lhs - rhs).l2() < 1e-13


@settings(max_examples=40, deadline=None)
@given(
    n_t=st.integers(1, 10),
    n_x=st.integers(1, 10),
    mu=st.floats(0.01, 2.0),
    lam=st.floats(1e-6, 1.0),
    seed=st.integers(0, 2**31 - 1),
    amp=st.floats(0.1, 5.0),
)
@example(n_t=9, n_x=2, mu=1.0, lam=0.3, seed=2, amp=2.0)
def test_scaled_burgers_operator_is_the_homotopy_operator(n_t, n_x, mu, lam, seed, amp):
    # T(lam u) - lam f = lam (L u + lam S(u) - f): the homotopy solves its
    # step at lam as T(v) = lam f for v = lam u.  lam stays above 1e-6,
    # which is below the smallest step bisection reaches, 0.25 / 2^12
    f = random_field(seed, n_t, n_x, 2.0)
    u = amp * random_field(seed + 1, n_t, n_x, 1.5)
    lhs = apply_T(lam * u, mu) - lam * f
    rhs = lam * (apply_L(u, mu) + lam * apply_S(u) - f)
    assert dual_norm(lhs - rhs) <= 1e-13 * dual_norm(rhs)


def test_p_transform_coercivity_identity():
    for mu in (1.0, 0.05):
        for seed in range(5):
            u = random_field(seed, 6, 6, 1.0)
            lhs = np.sqrt(2.0) * inner(apply_L(u, mu), p_transform(u))
            rhs = half_derivative(u).l2() ** 2 + mu * d_x(u).l2() ** 2
            assert abs(lhs - rhs) < 1e-12 * max(1.0, rhs)


def test_operators_reject_wrong_basis():
    q = random_field(0, 3, 3, 1.0, basis=Basis.NEUMANN_COSINE)
    with pytest.raises(BasisMismatchError):
        apply_S(q)
