import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stburgers import fields, norms
from stburgers.fields import (
    Basis,
    SpectralField,
    random_field,
    set_mode,
    sub_seed,
    truncate,
    zeros,
)
from stburgers.norms import (
    DegenerateSampleError,
    aniso_norm,
    apriori_bound,
    decompose_forcing,
    dual_norm,
    energy_gap,
    gn_probe,
    gn_ratio,
    interpolation_slack,
    l4_norm,
    norm_report,
    outer_shell_weight,
)
from stburgers.operators import apply_L, apply_T, d_x, half_derivative
from stburgers.solver import SolverConfig, newton_solve


def single_mode(n, m, value, n_t=4, n_x=4):
    return set_mode(zeros(n_t, n_x), n, m, value)


def test_norms_of_single_space_mode():
    # u = sqrt(2) sin(pi x): L2 norm 1, ||u_x|| = pi, no time content
    u = single_mode(0, 1, 1.0)
    rep = norm_report(u)
    assert abs(rep.l2 - 1.0) < 1e-15
    assert abs(rep.dx - np.pi) < 1e-13
    assert rep.half_dt == 0.0
    assert abs(rep.aniso - np.sqrt(1 + np.pi**2)) < 1e-13
    # L4^4 of sqrt(2) sin(pi x) is 4 * (3/8) = 3/2, so L4 = (3/2)^(1/4)
    assert abs(rep.l4 - (1.5) ** 0.25) < 1e-13


def test_outer_shell_weight_on_hand_built_fields():
    # |u|^2 counts both rows of a mode (n, m) and (-n, m), n != 0
    assert outer_shell_weight(zeros(4, 4)) == 0.0
    assert outer_shell_weight(set_mode(zeros(4, 4), 1, 2, 1.0)) == 0.0
    assert outer_shell_weight(set_mode(zeros(4, 4), 4, 2, 0.3j)) == pytest.approx(1.0)
    u = set_mode(zeros(4, 4), 1, 1, 1.0)  # interior, weight 2
    u = set_mode(u, 4, 2, 0.5)  # time shell |n| = 4, weight 0.5
    u = set_mode(u, 0, 4, 0.6)  # space shell m = 4, weight 0.36
    assert outer_shell_weight(u) == pytest.approx(np.sqrt(0.5 / 2.86), rel=1e-14)
    u = set_mode(u, 0, 4, 0.8)  # the space shell now outweighs, 0.64
    assert outer_shell_weight(u) == pytest.approx(np.sqrt(0.64 / 3.14), rel=1e-14)
    # a corner mode lies in both shells; with n_t = 0 the one row is the
    # time shell, counted once
    assert outer_shell_weight(set_mode(zeros(4, 4), -4, 4, 2.0)) == pytest.approx(1.0)
    assert outer_shell_weight(set_mode(zeros(0, 4), 0, 1, 2.0)) == pytest.approx(1.0)
    # a spectrally decaying field has a small tail, growing as it is cut
    tails = [outer_shell_weight(truncate(random_field(3, 16, 16, 3.0), n, n)) for n in (4, 8, 16)]
    assert tails[0] > tails[1] > tails[2]


def test_l4_against_independent_quadrature():
    # u evaluated pointwise from its modes, the uniform rule in time (exact
    # for the 16 time modes of u^4 at 64 nodes) and 60-point Gauss-Legendre
    # in space (u^4 has space frequencies up to 20 pi, resolved to roundoff)
    times = np.arange(64) / 64
    nodes, weights = np.polynomial.legendre.leggauss(60)
    xs = 0.5 * (nodes + 1.0)
    for basis in (Basis.DIRICHLET_SINE, Basis.NEUMANN_COSINE):
        u = random_field(0, 4, 5, 1.0, basis=basis)
        m = u.space_modes[None, :]
        if basis is Basis.DIRICHLET_SINE:
            b = np.sqrt(2.0) * np.sin(m * np.pi * xs[:, None])
        else:
            b = np.where(m == 0, 1.0, np.sqrt(2.0) * np.cos(m * np.pi * xs[:, None]))
        e = np.exp(2j * np.pi * np.outer(times, u.time_modes))
        values = ((e @ u.coeffs) @ b.T).real
        oracle = ((values**4 @ (0.5 * weights)).mean()) ** 0.25
        assert abs(l4_norm(u) - oracle) < 1e-12, basis


def test_half_derivative_weight_in_aniso_norm():
    # u = e^{2 pi i t} mode: ||D^{1/2} u||^2 = 2 pi |u|^2
    u = single_mode(1, 1, 0.5)
    rep = norm_report(u)
    l2sq = 2 * 0.25
    assert abs(rep.l2**2 - l2sq) < 1e-15
    assert abs(rep.half_dt**2 - 2 * np.pi * l2sq) < 1e-13
    assert abs(half_derivative(u).l2() - rep.half_dt) < 1e-13


def test_dual_norm_single_mode():
    # f = sqrt(2) sin(pi x): weight 1 + 0 + pi^2 -> dual norm 1/sqrt(1+pi^2)
    f = single_mode(0, 1, 1.0)
    assert abs(dual_norm(f) - 1.0 / np.sqrt(1 + np.pi**2)) < 1e-14


def test_dual_norm_is_suprising_pairing():
    # the maximizer of <f, u>/||u|| is u = W^{-1} f; verify the sup form
    from stburgers.operators import inner

    f = random_field(1, 5, 5, 1.0)
    w = f.symbols.aniso
    u = f.with_coeffs(f.coeffs / w)
    assert abs(inner(f, u) / aniso_norm(u) - dual_norm(f)) < 1e-12


def test_decompose_forcing_reconstructs():
    f = random_field(2, 6, 6, 1.0)
    for eps in (0.05, 0.5):
        dec = decompose_forcing(f, eps)
        assert (dec.reconstruct() - f).l2() < 1e-12 * max(1.0, f.l2())
        assert dec.g.l2() <= eps + 1e-12


def test_decompose_forcing_prefers_high_frequency_g():
    f = random_field(3, 6, 6, 1.0)
    dec = decompose_forcing(f, 0.2)
    if dec.g.l2() > 0:
        rows = np.abs(dec.g.coeffs).sum(axis=1)
        n = np.abs(np.arange(-6, 7))
        used = n[rows > 1e-14]
        if used.size and (rows <= 1e-14).any():
            unused = n[rows <= 1e-14]
            assert used.min() >= unused.max() - 6  # greedy from the top


def decompose_forcing_oracle(f, eps):
    """The coefficient arrays (g, h) of the mode-by-mode greedy split,
    one scalar step per mode, as `decompose_forcing` computed them
    before it was vectorized."""
    n_t, n_x = f.n_t, f.n_x
    gc = np.zeros_like(np.asarray(f.coeffs))
    hc = np.zeros((2 * n_t + 1, n_x + 1), dtype=complex)
    budget = eps ** 2
    used = 0.0
    order = []
    for n in range(n_t, 0, -1):
        for m in range(1, n_x + 1):
            order.append((n, m))
    for n, m in order:
        c = f.coeffs[n_t + n, m - 1]
        if c == 0:
            continue
        mult = np.sqrt(2 * np.pi * n) * np.exp(1j * np.pi / 4)
        gmode = c / mult
        mass = 2.0 * abs(gmode) ** 2
        if used + mass <= budget:
            gc[n_t + n, m - 1] = gmode
            gc[n_t - n, m - 1] = np.conj(gmode)
            used += mass
        else:
            hc[n_t + n, m] = -c / (m * np.pi)
            hc[n_t - n, m] = np.conj(hc[n_t + n, m])
    for m in range(1, n_x + 1):
        c = f.coeffs[n_t, m - 1]
        hc[n_t, m] = -c / (m * np.pi)
    return gc, hc


@settings(max_examples=60, deadline=None)
@given(
    n_t=st.integers(0, 10),
    n_x=st.integers(1, 10),
    seed=st.integers(0, 2**31 - 1),
    zero_frac=st.sampled_from([0.0, 0.3, 1.0]),
    eps=st.floats(1e-3, 10.0),
)
def test_decompose_forcing_matches_the_mode_loop(n_t, n_x, seed, zero_frac, eps):
    # any coefficients, zero modes included, with a budget from none of
    # the modes to all of them: the same arrays, bit for bit
    rng = np.random.default_rng(seed)
    shape = (2 * n_t + 1, n_x)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs *= rng.random(shape) >= zero_frac
    coeffs *= (1.0 + np.abs(np.arange(-n_t, n_t + 1)))[:, None] ** -1.5
    f = SpectralField(coeffs, n_t, n_x, Basis.DIRICHLET_SINE)
    dec = decompose_forcing(f, eps)
    gc, hc = decompose_forcing_oracle(f, eps)
    assert dec.g.coeffs.dtype == gc.dtype and dec.h.coeffs.dtype == hc.dtype
    assert (dec.g.coeffs == gc).all() and (dec.h.coeffs == hc).all()
    # bit for bit, the signs of zero parts included
    assert dec.g.coeffs.tobytes() == gc.tobytes() and dec.h.coeffs.tobytes() == hc.tobytes()


def test_apriori_bound_formula():
    f = single_mode(1, 2, 0.3)
    mu, c = 0.5, 0.08
    val = apriori_bound(f, mu, c)
    r0 = c / (2 * mu)
    eps = 0.9 * min(1.0, 1.0 / (2 * r0))
    dec = decompose_forcing(f, eps)
    a = 2 * (1 + 1 / mu) * dual_norm(f)
    b = r0 * dec.h.l2() * np.sqrt(dual_norm(f) / mu)
    assert abs(val - (b + np.sqrt(a + b**2)) ** 2) < 1e-12 * val


def test_apriori_bound_holds_on_solves():
    mu = 0.5
    f = 0.5 * random_field(4, 8, 8, 2.0)
    c = gn_probe([0], 50, n_t=16, n_x=16)
    u = newton_solve(f, None, SolverConfig(mu=mu)).u
    assert aniso_norm(u) <= apriori_bound(f, mu, c)


def test_interpolation_slack_zero_on_random_fields():
    for seed in range(20):
        u = random_field(seed, 8, 8, 1.0)
        for triple in [(0.5, 1.0, 0.5), (0.25, 0.5, 0.5), (0.5, 1.0, 0.25)]:
            assert interpolation_slack(u, *triple) <= 1e-12


def test_interpolation_rejects_bad_exponents():
    u = random_field(0, 3, 3, 1.0)
    with pytest.raises(ValueError):
        interpolation_slack(u, -1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        interpolation_slack(u, 0.5, 1.0, 1.5)


def test_gn_probe_deterministic_and_positive():
    a = gn_probe([0, 1], 10, n_t=8, n_x=8)
    b = gn_probe([0, 1], 10, n_t=8, n_x=8)
    assert a == b
    assert a > 0


def test_gn_probe_keeps_a_nan_ratio(monkeypatch):
    # a NaN ratio must not be dropped by the fold over the samples
    clean = gn_probe([3], 5, n_t=8, n_x=8)
    ratio = norms.gn_ratio
    calls = []

    def nan_second(u):
        calls.append(u)
        return float("nan") if len(calls) == 2 else ratio(u)

    monkeypatch.setattr(norms, "gn_ratio", nan_second)
    assert np.isnan(gn_probe([3], 5, n_t=8, n_x=8))
    assert len(calls) == 5
    monkeypatch.setattr(norms, "gn_ratio", ratio)
    assert gn_probe([3], 5, n_t=8, n_x=8) == clean > 0


def test_gn_ratio_matches_probe_sample():
    u = random_field(5, 8, 8, 2.0)
    r = gn_ratio(u)
    assert 0 < r < 1.0  # well below any plausible constant
    with pytest.raises(DegenerateSampleError):
        gn_ratio(zeros(3, 3))


def test_gn_probe_validates_sample_count():
    with pytest.raises(ValueError):
        gn_probe([0], 0, n_t=8, n_x=8)


def test_gn_probe_rejects_an_empty_seed_list():
    # no seed is a bad argument, not a probe whose samples all degenerate
    with pytest.raises(ValueError, match="seeds") as err:
        gn_probe([], 5, n_t=8, n_x=8)
    assert not isinstance(err.value, DegenerateSampleError)


def product_ratio(u):
    """The oracle of gn_ratio: ||u^2||_L2 as the l2 norm of the exact
    cosine product u * u."""
    ux = float(np.sqrt((u.symbols.space_weight * np.abs(u.coeffs) ** 2).sum()))
    return fields.product_cosine(u, u).l2() / (aniso_norm(u) * ux)


@settings(max_examples=60, deadline=None)
@given(
    n_t=st.integers(0, 16),
    n_x=st.integers(1, 16),
    decay=st.sampled_from([0.5, 1.0, 2.0]),
    hermitian=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
@example(n_t=0, n_x=1, decay=2.0, hermitian=True, seed=0)
@example(n_t=0, n_x=1, decay=1.0, hermitian=False, seed=1)
@example(n_t=7, n_x=2, decay=2.0, hermitian=True, seed=2)
@example(n_t=2, n_x=11, decay=1.0, hermitian=False, seed=3)
def test_gn_ratio_quadrature_is_the_product_norm(n_t, n_x, decay, hermitian, seed):
    # by Parseval ||u^2||_L2 is the root mean of u^4, which the padded
    # L4 grid integrates exactly; like product_cosine, gn_ratio drops an
    # anti-Hermitian part of the coefficients
    u = random_field(seed, n_t, n_x, decay)
    if not hermitian:
        rng = np.random.default_rng(seed)
        u = u.with_coeffs(u.coeffs + 0.3j * rng.standard_normal(u.coeffs.shape))
    assert abs(gn_ratio(u) - product_ratio(u)) <= 1e-13 * product_ratio(u)


def test_gn_probe_matches_the_product_probe():
    oracle = max(
        product_ratio(random_field(sub_seed(seed, i), 16, 16, 2.0)) for seed in [0, 1] for i in range(25)
    )
    assert abs(gn_probe([0, 1], 25, n_t=16, n_x=16) - oracle) <= 1e-14 * oracle


def test_gn_probe_forms_no_product(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("gn_probe formed a padded product")

    for name in ("product_cosine", "analyse"):
        monkeypatch.setattr(fields, name, forbidden)
        monkeypatch.setattr(norms, name, forbidden, raising=False)
    assert gn_probe([0, 1], 5, n_t=8, n_x=8) > 0


def test_gn_probe_skips_a_degenerate_sample(monkeypatch):
    # the zero field has no x-derivative: its sample is skipped, so the
    # probe is the largest ratio of the other samples, and a probe whose
    # every sample is zero raises
    draw = norms.random_field
    ratios = [gn_ratio(draw(sub_seed(3, i), 8, 8, 2.0)) for i in range(5)]
    top = int(np.argmax(ratios))
    zero_seeds = {sub_seed(3, top)}

    def zero_some(seed, *args):
        return zeros(*args[:2]) if seed in zero_seeds else draw(seed, *args)

    monkeypatch.setattr(norms, "random_field", zero_some)
    assert gn_probe([3], 5, n_t=8, n_x=8) == max(r for i, r in enumerate(ratios) if i != top)
    zero_seeds = {sub_seed(3, i) for i in range(5)}
    with pytest.raises(DegenerateSampleError):
        gn_probe([3], 5, n_t=8, n_x=8)


def test_apriori_bound_of_zero_forcing_is_zero():
    assert apriori_bound(zeros(3, 3), 0.5, 0.1) == 0.0


def test_energy_gap_zero_on_exact_solution():
    mu = 1.0
    u = single_mode(1, 1, -0.15j) + single_mode(2, 2, 0.05)
    f = apply_T(u, mu)
    assert energy_gap(f, u, mu) < 1e-14


def test_energy_gap_detects_wrong_field():
    mu = 1.0
    u = single_mode(1, 1, -0.15j)
    f = apply_T(u, mu) + single_mode(1, 1, 0.1j)
    assert energy_gap(f, u, mu) > 1e-3


@pytest.mark.parametrize("basis", list(Basis))
@pytest.mark.parametrize("n_t, n_x", [(0, 1), (3, 5), (8, 2)])
def test_weight_table_is_the_weight_formula_read_only(n_t, n_x, basis):
    # the norms read their weights from the truncation's mode table: the
    # anisotropic weight is its read-only entry, and each norm gives the
    # bytes of the direct formula
    u = random_field(n_t + n_x, n_t, n_x, 1.0, basis=basis)
    n = np.abs(u.time_modes)[:, None].astype(float)
    m = u.space_modes[None, :].astype(float)
    wt, wx = 2 * np.pi * n, (m * np.pi) ** 2
    w = u.symbols.aniso
    assert not w.flags.writeable
    assert w.tobytes() == (1.0 + wt + wx).tobytes()
    sq = np.abs(u.coeffs) ** 2
    assert aniso_norm(u) == float(np.sqrt((w * sq).sum()))
    assert dual_norm(u) == float(np.sqrt((sq / w).sum()))
    if basis is Basis.DIRICHLET_SINE:
        report = norm_report(u)
        assert report.half_dt == float(np.sqrt((wt * sq).sum()))
        assert report.dx == float(np.sqrt((wx * sq).sum()))
