import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stburgers import fields
from stburgers.fields import (
    SQRT2,
    TRANSFORM_CACHE_SIZE,
    Basis,
    BasisMismatchError,
    GridField,
    ResolutionError,
    SpectralField,
    advection_grid,
    analyse,
    evaluate,
    evaluate_at,
    grid_quadrature,
    pack,
    packed_time_matrix,
    product_cosine,
    random_field,
    set_mode,
    space_columns,
    space_eval_matrix,
    space_matrix,
    space_nodes,
    time_eval_matrix,
    time_nodes,
    to_grid,
    to_spectral,
    truncate,
    unpack,
    zeros,
)


def eval_on(u, times, xs):
    """Direct pointwise evaluation, independent of the grid transforms."""
    n = np.arange(-u.n_t, u.n_t + 1)
    e = np.exp(2j * np.pi * np.outer(times, n))
    b = space_eval_matrix(u.n_x, np.asarray(xs), u.basis)
    return ((e @ u.coeffs) @ b.T).real


def test_roundtrip_exact():
    u = random_field(0, 6, 7, 1.0)
    g = to_grid(u, 13, 9)
    back = to_spectral(g, 6, 7)
    assert (back - u).l2() < 1e-14


def test_roundtrip_oversampled():
    u = random_field(1, 4, 5, 1.0)
    back = to_spectral(to_grid(u, 31, 24), 4, 5)
    assert (back - u).l2() < 1e-14


def test_roundtrip_cosine_basis():
    u = random_field(2, 4, 5, 1.0, basis=Basis.NEUMANN_COSINE)
    back = to_spectral(to_grid(u, 9, 6), 4, 5)
    assert (back - u).l2() < 1e-14


def test_resolution_error():
    u = random_field(3, 4, 4, 1.0)
    g = to_grid(u, 12, 8)
    with pytest.raises(ResolutionError):
        to_spectral(g, 6, 4)


def test_parseval():
    u = random_field(4, 5, 6, 1.0)
    g = to_grid(u, 64, 63)
    l2_grid = np.sqrt(grid_quadrature(GridField(g.values**2, g.m_t, g.m_x, g.basis)))
    assert abs(l2_grid - u.l2()) < 1e-13 * max(1.0, u.l2())


def test_hermitian_defect_zero_for_random_fields():
    for seed in range(5):
        u = random_field(seed, 6, 6, 1.5)
        assert u.hermitian_defect() == 0.0


def test_pack_round_trip_and_isometry():
    for seed, (n_t, n_x, basis) in enumerate(
        [(0, 1, Basis.DIRICHLET_SINE), (1, 1, Basis.DIRICHLET_SINE),
         (3, 5, Basis.DIRICHLET_SINE), (6, 2, Basis.NEUMANN_COSINE)]
    ):
        c = (1e3 * random_field(seed, n_t, n_x, 0.5, basis)).coeffs
        x = pack(c)
        assert x.dtype == float and x.shape == c.shape
        assert abs(np.linalg.norm(x) - np.linalg.norm(c)) <= 1e-15 * np.linalg.norm(c)
        back = unpack(x)
        # sqrt(2) is irrational, so x * sqrt(2) / sqrt(2) can miss x by
        # one unit in the last place; the structure is exact
        np.testing.assert_array_max_ulp(back.real, c.real, maxulp=1)
        np.testing.assert_array_max_ulp(back.imag, c.imag, maxulp=1)
        assert (back[n_t] == c[n_t]).all()
        assert SpectralField(back, n_t, n_x, basis).hermitian_defect() == 0.0
        np.testing.assert_array_max_ulp(pack(back), x, maxulp=1)


def test_pack_drops_the_anti_hermitian_part_and_is_the_adjoint_of_unpack():
    rng = np.random.default_rng(5)
    shape = (9, 3)  # n_t = 4, n_x = 3
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    herm = 0.5 * (c + c[::-1].conj())
    assert np.abs(pack(c) - pack(herm)).max() <= 1e-15 * np.abs(c).max()
    assert np.abs(pack(c - herm)).max() <= 1e-15 * np.abs(c).max()
    # <pack(c), x> = Re <c, unpack(x)> for every real x
    x = rng.standard_normal(shape)
    assert unpack(x).shape == shape
    lhs = np.vdot(pack(c), x)
    rhs = np.vdot(c, unpack(x)).real
    assert abs(lhs - rhs) <= 1e-14 * np.abs(c).sum() * np.abs(x).max()


@settings(max_examples=60, deadline=None)
@given(
    n_t=st.integers(0, 40),
    n_x=st.integers(1, 40),
    basis=st.sampled_from(list(Basis)),
    nodes=st.sampled_from(list(Basis)),
    hermitian=st.booleans(),
    extra_t=st.integers(-1, 40),
    extra_x=st.integers(-1, 40),
    seed=st.integers(0, 2**31 - 1),
)
def test_evaluate_matches_the_complex_formula(n_t, n_x, basis, nodes, hermitian, extra_t, extra_x, seed):
    # the oracle is the complex transform ((E @ c) @ B.T).real, the values
    # of the Hermitian part of c, which evaluate computes in real arithmetic
    rows, cols = 2 * n_t + 1, space_columns(n_x, basis)
    m_t, m_x = max(1, rows + extra_t), max(1, cols + extra_x)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    if hermitian:
        c = 0.5 * (c + c[::-1].conj())
    e = time_eval_matrix(n_t, m_t)
    b = space_eval_matrix(n_x, space_nodes(m_x, nodes), basis)
    ref = ((e @ c) @ b.T).real
    got = evaluate(SpectralField(c, n_t, n_x, basis), m_t, m_x, nodes)
    assert got.dtype == float and got.shape == (m_t, m_x)
    assert np.abs(got - ref).max() <= 1e-14 * max(np.abs(ref).max(), np.abs(c).max())


@settings(max_examples=60, deadline=None)
@given(
    n_t=st.integers(0, 12),
    n_x=st.integers(1, 12),
    basis=st.sampled_from(list(Basis)),
    nodes=st.sampled_from(list(Basis)),
    m_t=st.integers(1, 70),
    m_x=st.integers(1, 20),
    seed=st.integers(0, 2**31 - 1),
)
def test_evaluate_at_is_evaluate_at_any_times(n_t, n_x, basis, nodes, m_t, m_x, seed):
    # at a grid's nodes it gives evaluate's bits, and at other times the
    # values of the pointwise formula
    u = random_field(seed, n_t, n_x, 1.0, basis)
    assert np.array_equal(evaluate_at(u, time_nodes(m_t), m_x, nodes), evaluate(u, m_t, m_x, nodes))
    times = np.random.default_rng(seed).uniform(0.0, 1.0, 5)
    n = np.arange(-n_t, n_t + 1)
    ref = ((np.exp(2j * np.pi * np.outer(times, n)) @ u.coeffs) @ space_matrix(n_x, m_x, nodes, basis).T).real
    got = evaluate_at(u, times, m_x, nodes)
    assert np.abs(got - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max())


@settings(max_examples=60, deadline=None)
@given(
    n_t=st.integers(0, 40),
    n_x=st.integers(1, 40),
    basis=st.sampled_from(list(Basis)),
    extra_t=st.integers(0, 40),
    extra_x=st.integers(0, 40),
    decay=st.floats(0.1, 3.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_analyse_inverts_evaluate(n_t, n_x, basis, extra_t, extra_x, decay, seed):
    u = random_field(seed, n_t, n_x, decay, basis)
    m_t, m_x = 2 * n_t + 1 + extra_t, space_columns(n_x, basis) + extra_x
    back = analyse(evaluate(u, m_t, m_x), n_t, n_x, basis)
    assert back.hermitian_defect() == 0.0
    assert np.abs(back.coeffs - u.coeffs).max() <= 1e-13 * np.abs(u.coeffs).max()


def test_to_grid_rejects_imaginary_residue():
    u = zeros(2, 2)
    c = u.coeffs.copy()
    c[3, 0] = 1.0 + 0j  # n = +1 without its conjugate partner
    u = u.with_coeffs(c)
    with pytest.raises(ValueError):
        to_grid(u, 9, 5)


def test_set_mode_conjugate_partner():
    u = zeros(3, 3)
    u = set_mode(u, 2, 1, 0.5 - 0.25j)
    assert u.coeffs[5, 0] == 0.5 - 0.25j
    assert u.coeffs[1, 0] == 0.5 + 0.25j
    assert u.hermitian_defect() == 0.0


def test_set_mode_rejects_complex_mean():
    u = zeros(3, 3)
    with pytest.raises(ValueError):
        set_mode(u, 0, 1, 1j)


def test_set_mode_rejects_time_modes_outside_the_truncation():
    u = zeros(2, 3)
    for n in (3, -3):
        with pytest.raises(ValueError, match=f"time mode {n} .*n_t = 2"):
            set_mode(u, n, 1, 0.5)
    assert set_mode(u, -2, 1, 0.5).coeffs[0, 0] == 0.5


def test_field_arithmetic():
    u = random_field(5, 3, 3, 1.0)
    v = random_field(6, 3, 3, 1.0)
    w = 2.0 * u + v - u
    assert (w - (u + v)).l2() < 1e-15


def test_basis_mismatch_in_arithmetic():
    u = random_field(7, 3, 3, 1.0)
    v = random_field(7, 3, 3, 1.0, basis=Basis.NEUMANN_COSINE)
    with pytest.raises(BasisMismatchError):
        u + v


def test_truncate_roundtrip():
    u = random_field(8, 4, 5, 1.0)
    big = truncate(u, 7, 9)
    assert (truncate(big, 4, 5) - u).l2() == 0.0
    assert abs(big.l2() - u.l2()) < 1e-15


def test_product_cosine_matches_pointwise_product():
    u = random_field(9, 3, 4, 1.0)
    v = random_field(10, 3, 4, 1.0)
    p = product_cosine(u, v)
    times = np.linspace(0.05, 0.95, 11)
    xs = np.linspace(0.1, 0.9, 9)
    direct = eval_on(u, times, xs) * eval_on(v, times, xs)
    assert np.abs(eval_on(p, times, xs) - direct).max() < 1e-13


def test_product_cosine_exact_band():
    # the product of single modes lands exactly on known cosine modes:
    # 2 sin(pi x) sin(2 pi x) = cos(pi x) - cos(3 pi x)
    u = set_mode(zeros(0, 1), 0, 1, 1.0)
    v = set_mode(zeros(0, 2), 0, 2, 1.0)
    # matching truncations required
    u = truncate(u, 0, 2)
    p = product_cosine(u, v, 0, 4)
    c = p.coeffs[0]
    # u*v = 2 sin sin / 2 ... basis includes sqrt(2) factors:
    # sqrt2 sin(pi x) * sqrt2 sin(2 pi x) = cos(pi x) - cos(3 pi x)
    expected = np.zeros(5)
    expected[1] = 1.0 / np.sqrt(2.0)
    expected[3] = -1.0 / np.sqrt(2.0)
    assert np.abs(c.real - expected).max() < 1e-14
    assert np.abs(c.imag).max() < 1e-14


def cosine_to_sine_projection(n_x_sine, n_x_cos):
    """Matrix of L2(0,1) inner products <q_k, b_m>: entry [m-1, k]
    projects cosine mode k onto sine mode m, nonzero only when m + k is
    odd."""
    m = np.arange(1, n_x_sine + 1)[:, None].astype(float)
    k = np.arange(0, n_x_cos + 1)[None, :].astype(float)
    odd = (m + k) % 2 == 1
    with np.errstate(divide="ignore"):
        plus = np.where(odd, 2.0 / ((m + k) * np.pi), 0.0)
        diff = m - k
        minus = np.where(odd & (diff != 0), 2.0 / (diff * np.pi), 0.0)
    proj = plus + minus
    # normalization: q_0 = 1 while q_k = sqrt(2) cos for k >= 1
    proj[:, 0] *= 1.0 / SQRT2
    return proj


def dealiased_product(u, v):
    """Dirichlet-sine coefficients of u*v: the exact cosine product,
    L2-projected onto the sine modes up to n_x."""
    pc = product_cosine(u, v, u.n_t, 2 * u.n_x)
    coeffs = pc.coeffs @ cosine_to_sine_projection(u.n_x, 2 * u.n_x).T
    return SpectralField(coeffs, u.n_t, u.n_x, Basis.DIRICHLET_SINE)


def test_cosine_to_sine_projection_against_quadrature():
    n_s, n_c = 6, 9
    mat = cosine_to_sine_projection(n_s, n_c)
    nodes, weights = np.polynomial.legendre.leggauss(200)
    x = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    sines = space_eval_matrix(n_s, x, Basis.DIRICHLET_SINE)
    coss = space_eval_matrix(n_c, x, Basis.NEUMANN_COSINE)
    oracle = (sines * w[:, None]).T @ coss
    assert np.abs(mat - oracle).max() < 1e-12


def test_dealiased_product_is_l2_projection():
    u = random_field(12, 3, 5, 1.0)
    v = random_field(13, 3, 5, 1.0)
    p = dealiased_product(u, v)
    # oracle: uniform (exact) quadrature in time, Gauss-Legendre in space,
    # of u*v against each retained sine mode
    m_t = 4 * 3 + 1
    times = np.arange(m_t) / m_t
    nodes, weights = np.polynomial.legendre.leggauss(300)
    xs = 0.5 * (nodes + 1.0)
    wq = 0.5 * weights
    prod = eval_on(u, times, xs) * eval_on(v, times, xs)
    e = time_eval_matrix(p.n_t, m_t)
    b = space_eval_matrix(p.n_x, xs, Basis.DIRICHLET_SINE)
    oracle = (e.conj().T @ prod @ (wq[:, None] * b)) / m_t
    assert np.abs(p.coeffs - oracle).max() < 1e-12


def test_random_field_deterministic():
    a = random_field(42, 5, 5, 2.0)
    b = random_field(42, 5, 5, 2.0)
    assert (a - b).l2() == 0.0
    c = random_field(43, 5, 5, 2.0)
    assert (a - c).l2() > 0.0


def test_random_field_decay_envelope():
    u = random_field(0, 16, 16, 3.0)
    low = np.abs(u.coeffs[u.n_t - 1 : u.n_t + 2, :2]).max()
    high = np.abs(u.coeffs[0, -1])
    assert high < low


def packed_time_oracle(n_t, m_t):
    """The packed time matrix [1, sqrt 2 Re E, -sqrt 2 Im E] of modes n >= 1."""
    e = time_eval_matrix(n_t, m_t)[:, n_t + 1 :]
    return np.concatenate([np.ones((m_t, 1)), SQRT2 * e.real, -SQRT2 * e.imag], axis=1)


def test_cached_matrices_equal_the_eval_matrices(monkeypatch):
    # every layout these transforms use, and no other, is cached: after
    # the caches are cleared, each is a hit on a direct call
    packed_time_matrix.cache_clear()
    space_matrix.cache_clear()
    advection_grid.cache_clear()
    u = random_field(30, 5, 4, 2.0)
    to_spectral(to_grid(u, 16, 12), 5, 4)
    to_grid(product_cosine(u, u), 24, 20)
    grid = advection_grid(5, 4)
    grid.matrix(grid.values(pack(u.coeffs)))
    sine, cosine = Basis.DIRICHLET_SINE, Basis.NEUMANN_COSINE
    time_layouts = [(5, 16), (5, 21), (10, 21), (10, 24)]
    space_layouts = [(4, 12, sine, sine), (4, 18, cosine, sine), (8, 18, cosine, cosine),
                     (8, 20, cosine, cosine), (4, 14, cosine, sine), (4, 14, cosine, cosine)]
    for cache, layouts in ((packed_time_matrix, time_layouts), (space_matrix, space_layouts)):
        before = cache.cache_info()
        assert before.currsize == len(layouts)
        for layout in layouts:
            cache(*layout)
        after = cache.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (len(layouts), 0)
    for n_t, m_t in time_layouts:
        assert np.array_equal(packed_time_matrix(n_t, m_t), packed_time_oracle(n_t, m_t))
    for n_x, m_x, nodes, basis in space_layouts:
        b = space_matrix(n_x, m_x, nodes, basis)
        assert np.array_equal(b, space_eval_matrix(n_x, space_nodes(m_x, nodes), basis))
    # a miss calls the eval matrix through the module globals, so a
    # wrapper set there (as a tracer sets) sees every build
    builds = []

    def counted(*args):
        builds.append(args)
        return time_eval_matrix(*args)

    monkeypatch.setattr(fields, "time_eval_matrix", counted)
    packed_time_matrix(2, 7)
    packed_time_matrix(2, 7)
    assert builds == [(2, 7)]


def test_cached_matrices_are_read_only():
    r = packed_time_matrix(3, 9)
    b = space_matrix(3, 9, Basis.NEUMANN_COSINE, Basis.DIRICHLET_SINE)
    for mat in (r, b):
        with pytest.raises(ValueError):
            mat[0, 0] = 0.0
    assert packed_time_matrix(3, 9) is r


def test_layout_cache_size_is_bounded():
    packed_time_matrix.cache_clear()
    last = 2 + TRANSFORM_CACHE_SIZE + 10
    for m_t in range(3, last + 1):
        packed_time_matrix(1, m_t)
    info = packed_time_matrix.cache_info()
    assert info.maxsize == info.currsize == TRANSFORM_CACHE_SIZE

    def missed(m_t):
        misses = packed_time_matrix.cache_info().misses
        packed_time_matrix(1, m_t)
        return packed_time_matrix.cache_info().misses - misses

    # least recently used layouts go first: the oldest survivor, once
    # used again, outlives the next oldest when a new layout comes in
    assert missed(last) == 0
    assert missed(13) == 0
    assert missed(3) == 1
    assert missed(13) == 0
    assert missed(14) == 1
    assert np.array_equal(packed_time_matrix(1, 3), packed_time_oracle(1, 3))


def no_call(*args, **kwargs):
    raise AssertionError("called")


def test_mode_symbols_are_their_closed_forms_read_only(monkeypatch):
    # every diagonal multiplier of a truncation is read from one read-only
    # table per layout (n_t, n_x, basis), built on the first call from
    # numpy alone, so a wrapper counting the package's calls sees the same
    # calls whether or not the table was cached; each entry is the bytes
    # of its closed form, and so is the image of each time multiplier
    from stburgers.operators import d_t, half_derivative, half_derivative_adjoint, hilbert

    fields._mode_symbols.cache_clear()
    for n_t in range(41):
        for basis in Basis:
            n_x = 1 + n_t % 7
            with monkeypatch.context() as patch:
                patch.setattr(fields, "space_mode_numbers", no_call)
                table = fields._mode_symbols(n_t, n_x, basis)
            assert fields.zeros(n_t, n_x, basis).symbols is table
            n = np.arange(-n_t, n_t + 1)[:, None]
            m = fields.space_mode_numbers(n_x, basis)[None, :]
            half = (2 * np.pi * np.abs(n)) ** 0.5 * np.exp(1j * np.sign(n) * 0.5 * np.pi / 2)
            refs = fields.ModeSymbols(
                half=half,
                half_adjoint=np.conj(half),
                hilbert=-1j * np.sign(n) + 0.0j,
                d_t=2j * np.pi * n,
                time_weight=2 * np.pi * np.abs(n).astype(float),
                m_pi=m.astype(float) * np.pi,
                space_weight=(m * np.pi) ** 2,
                aniso=1.0 + 2 * np.pi * np.abs(n) + (m * np.pi) ** 2,
            )
            for entry, ref in zip(table, refs):
                assert entry.tobytes() == ref.tobytes() and entry.shape == ref.shape
                assert entry.dtype == ref.dtype and not entry.flags.writeable
            if n_t in (0, 3, 40):
                u = random_field(n_t, n_t, n_x, 1.0, basis=basis)
                ops = half_derivative, half_derivative_adjoint, hilbert, d_t
                for apply, ref in zip(ops, refs):
                    assert apply(u).coeffs.tobytes() == (u.coeffs * ref).tobytes()
    # one miss per layout: every later call was a hit
    assert fields._mode_symbols.cache_info().misses == 41 * 2


def test_the_package_caches_are_the_declared_ones():
    # the package's lru tables, each bounded by TRANSFORM_CACHE_SIZE: a
    # caller that counts the package's calls across runs clears exactly
    # these, so a new table is a deliberate change to this list
    import importlib
    import inspect
    import pkgutil

    import stburgers

    found = {}
    for info in pkgutil.iter_modules(stburgers.__path__):
        module = importlib.import_module(f"stburgers.{info.name}")
        scopes = [(info.name, module)] + [
            (f"{info.name}.{name}", cls)
            for name, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__
        ]
        for prefix, scope in scopes:
            for name, obj in vars(scope).items():
                if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__:
                    found[f"{prefix}.{name}"] = obj
    assert set(found) == {
        "fields.space_matrix",
        "fields.packed_time_matrix",
        "fields.advection_grid",
        "fields._mode_symbols",
    }
    for cache in found.values():
        assert cache.cache_info().maxsize == TRANSFORM_CACHE_SIZE


def test_records_of_arrays_compare_by_identity():
    # a frozen dataclass's generated == compares its arrays with ==, whose
    # truth value is ambiguous, and its hash hashes them; each record that
    # holds arrays compares by identity instead, and hashes
    import dataclasses

    from stburgers.colehopf import S2Element, S3Element, antiderivative_x
    from stburgers.scaling import PhysicalField

    u = random_field(1, 3, 4, 2.0)
    w = antiderivative_x(u)
    records = [
        u,
        to_grid(u, 9, 6),
        PhysicalField(np.arange(3.0), np.arange(2.0), np.zeros((3, 2))),
        S2Element(w, 0.5),
        S3Element(w, 0.5),
    ]
    for r in records:
        twin = dataclasses.replace(r)
        assert r == r and r != twin and not (r == twin)
        assert len({r, twin, r}) == 2
