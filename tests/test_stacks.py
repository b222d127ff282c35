"""A SpectralField may hold a stack of fields along leading axes.  Each
function that takes a stack must give, bit for bit, the stack of its
results on the single fields, and a single field must give what it gave
before stacks existed: the former single-field formulas are kept here as
references.  Every operator result is a fresh read-only array."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stburgers import colehopf as ch
from stburgers import fields as fd
from stburgers import norms as nm
from stburgers import operators as op
from stburgers import scaling as sc
from stburgers.fields import SQRT2, Basis


def _bytes(x):
    return np.ascontiguousarray(x).tobytes()


def _same(a, b):
    """Equal bits, shapes and dtypes (so -0.0 differs from 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and _bytes(a) == _bytes(b)


def _fields(seed, lead, n_t, n_x, basis, decay=1.5, scale=1.0):
    """prod(lead) seeded fields and their stack of leading shape lead."""
    singles = [scale * fd.random_field(seed + i, n_t, n_x, decay, basis) for i in range(math.prod(lead))]
    coeffs = np.stack([u.coeffs for u in singles]).reshape(lead + singles[0].coeffs.shape)
    return singles, fd.SpectralField(coeffs, n_t, n_x, basis)


def _stacked(values, lead):
    """Per-field results as the stack a stacked call must return."""
    values = [v.coeffs if isinstance(v, fd.SpectralField) else v for v in values]
    out = np.stack([np.asarray(v) for v in values])
    return out.reshape(lead + out.shape[1:])


def _check(fn, singles, stack, lead, *more):
    """fn on the stack is the stack of fn on each field (`more` holds
    further per-field arguments as (singles, stack) pairs)."""
    per_field = [fn(u, *(m[0][i] for m in more)) for i, u in enumerate(singles)]
    together = fn(stack, *(m[1] for m in more))
    if isinstance(together, fd.SpectralField):
        assert all(together.same_layout(u) for u in per_field)
        together = together.coeffs
    assert _same(together, _stacked(per_field, lead))
    for value in per_field:  # a single field's value is a float, not an array
        assert isinstance(value, (float, fd.SpectralField)) or np.ndim(value) > 0


LAYOUTS = dict(
    seed=st.integers(0, 2**20),
    lead=st.sampled_from([(1,), (2,), (3,), (6,), (7,), (2, 3)]),
    n_t=st.integers(0, 5),
    n_x=st.integers(1, 7),
)


@settings(max_examples=30, deadline=None)
@given(basis=st.sampled_from(list(Basis)), **LAYOUTS)
def test_field_layer_stacks_are_per_field(seed, lead, n_t, n_x, basis):
    singles, stack = _fields(seed, lead, n_t, n_x, basis)
    _check(lambda u: u.l2(), singles, stack, lead)
    _check(lambda u: fd.pack(u.coeffs), singles, stack, lead)
    _check(lambda u: fd.unpack(fd.pack(u.coeffs)), singles, stack, lead)
    m_t, m_x = 2 * n_t + 3, n_x + 4
    _check(lambda u: fd.evaluate(u, m_t, m_x), singles, stack, lead)
    _check(lambda u: fd.evaluate(u, m_t, m_x, Basis.NEUMANN_COSINE), singles, stack, lead)
    times = np.array([0.1, 0.35, 1.0])
    _check(lambda u: fd.evaluate_at(u, times, m_x, Basis.NEUMANN_COSINE), singles, stack, lead)
    _check(lambda u: fd.analyse(fd.evaluate(u, m_t, m_x), n_t, n_x, basis), singles, stack, lead)
    for t, x in ((n_t + 2, n_x + 1), (max(n_t - 1, 0), max(n_x - 1, 1))):
        _check(lambda u: fd.truncate(u, t, x), singles, stack, lead)
    for f in (op.half_derivative, op.half_derivative_adjoint, op.hilbert, op.d_t, op.d_x, op.d_xx):
        _check(f, singles, stack, lead)
    _check(nm.aniso_norm, singles, stack, lead)
    for triple in ((0.5, 1.0, 0.5), (0.25, 0.5, 0.5), (0.5, 1.0, 0.25), (1.0, 0.0, 1.0)):
        _check(lambda u: nm.interpolation_slack(u, *triple), singles, stack, lead)
    others = _fields(seed + 1000, lead, n_t, n_x, basis)
    _check(op.inner, singles, stack, lead, others)
    _check(lambda u, v: u + v, singles, stack, lead, others)
    _check(lambda u, v: u - v, singles, stack, lead, others)
    scalars = np.random.default_rng(seed).normal(size=lead)
    _check(lambda u, s: s * u, singles, stack, lead, (scalars.ravel().tolist(), scalars))
    if basis is Basis.DIRICHLET_SINE:
        _check(lambda u, v: fd.product_cosine(u, v), singles, stack, lead, others)
        _check(lambda u: fd.product_cosine(u, u, n_t, n_x), singles, stack, lead)
        for f in (op.apply_S, op.p_transform, lambda u: op.apply_L(u, 0.3), lambda u: op.invert_L(u, 0.3)):
            _check(f, singles, stack, lead)


@settings(max_examples=20, deadline=None)
@given(mu=st.sampled_from([0.05, 0.5, 1.0]), **LAYOUTS)
def test_colehopf_stacks_are_per_field(seed, lead, n_t, n_x, mu):
    n_t, n_x = min(n_t, 3), min(n_x, 4)  # the Cole-Hopf maps multiply the modes
    w, ws = _fields(seed, lead, n_t, n_x, Basis.DIRICHLET_SINE, decay=2.5, scale=0.4)
    v = _fields(seed + 1000, lead, n_t, n_x, Basis.DIRICHLET_SINE, decay=2.5, scale=0.5)
    ks = np.random.default_rng(seed).normal(size=lead)
    k = (ks.ravel().tolist(), ks)
    _check(ch.antiderivative_x, w, ws, lead)
    W = [ch.antiderivative_x(u) for u in w], ch.antiderivative_x(ws)
    _check(lambda u, k: ch.S2Element(u, k).W, *W, lead, k)
    e2 = [ch.S2Element(u, kk) for u, kk in zip(W[0], k[0])], ch.S2Element(W[1], k[1])
    _check(lambda u: ch._pointwise_map(u, np.exp, 2 * n_t + 1, n_x + 2), *W, lead)
    _check(ch.grid_min, *W, lead)
    _check(lambda u: -ch.grid_min(-1.0 * u), *W, lead)
    _check(lambda u, v, k: ch.chain_rule_defect(u, v, k, mu), *W, lead, v, k)
    if mu < 0.5:
        return  # the projection often fails: see test_s2_to_s3_names_the_first_failing_field
    e3 = [ch.s2_to_s3(e, mu) for e in e2[0]], ch.s2_to_s3(e2[1], mu)
    _check(lambda e: ch.s2_to_s3(e, mu).phi, *e2, lead)
    _check(lambda e: ch.s2_to_s3(e, mu).K, *e2, lead)
    _check(lambda e: ch.s3_to_s2(e, mu).W, *e3, lead)
    _check(lambda e: ch.s3_to_s2(e, mu).K, *e3, lead)


def test_s2_to_s3_names_the_first_failing_field(monkeypatch):
    mu = 0.05
    w, ws = _fields(4, (6,), 3, 4, Basis.DIRICHLET_SINE, decay=2.5, scale=0.4)
    k = np.linspace(-1.0, 1.0, 6)
    e2 = [ch.S2Element(ch.antiderivative_x(u), kk) for u, kk in zip(w, k)]

    def failure(e):
        with pytest.raises(ch.ProjectionAccuracyError) as info:
            ch.s2_to_s3(e, mu)
        return info.value

    monkeypatch.setattr(ch, "PROJECTION_TOL", -1.0)  # every field fails
    assert failure(ch.S2Element(ch.antiderivative_x(ws), k)).sample == 0
    misses = [float(str(failure(e)).split(" by ")[1].split()[0]) for e in e2]
    later = [j for j in range(1, 6) if misses[j] > 1.1 * max(misses[:j])]
    assert later, misses
    for j in later:
        # a tolerance that field j misses and every field before it meets
        monkeypatch.setattr(ch, "PROJECTION_TOL", (misses[j] * max(misses[:j])) ** 0.5)
        error = failure(ch.S2Element(ch.antiderivative_x(ws), k))
        assert error.sample == j
        assert str(error) == str(failure(e2[j]))


# the single-field formulas as they were before fields could be stacked


def _former_pack(c):
    n_t = c.shape[0] // 2
    h = 0.5 * (c[n_t:] + c[n_t::-1].conj())
    h[1:] *= SQRT2
    return np.concatenate([h.real, h[1:].imag])


def _former_unpack(x):
    n_t = x.shape[0] // 2
    upper = x[: n_t + 1].astype(complex)
    upper[1:] = (x[1 : n_t + 1] + 1j * x[n_t + 1 :]) / SQRT2
    return np.concatenate([upper[:0:-1].conj(), upper])


def _former_slack(u, alpha, beta, theta):
    sq = np.abs(u.coeffs) ** 2
    wt = u.symbols.time_weight ** (2 * alpha)
    wx = u.symbols.m_pi ** (2 * beta)
    lhs = (wt ** (1 - theta) * wx**theta * sq).sum()
    rhs = (wt * sq).sum() ** (1 - theta) * (wx * sq).sum() ** theta
    return max(0.0, (lhs - rhs) / max(rhs, 1e-300))


def _former_d_x(u):
    m_pi = u.symbols.m_pi
    if u.basis is Basis.DIRICHLET_SINE:
        coeffs = np.zeros((u.coeffs.shape[0], u.n_x + 1), dtype=complex)
        coeffs[:, 1:] = u.coeffs * m_pi
        return coeffs
    return -u.coeffs[:, 1:] * m_pi[:, 1:]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    n_t=st.integers(0, 5),
    n_x=st.integers(1, 7),
    basis=st.sampled_from(list(Basis)),
    scalar=st.floats(-3.0, 3.0),
)
def test_a_single_field_gives_the_former_bits(seed, n_t, n_x, basis, scalar):
    u = fd.random_field(seed, n_t, n_x, 1.5, basis)
    v = fd.random_field(seed + 1, n_t, n_x, 1.5, basis)
    c = u.coeffs
    assert _same(u.l2(), float(np.sqrt((np.abs(c) ** 2).sum())))
    assert _same(nm.aniso_norm(u), float(np.sqrt((u.symbols.aniso * np.abs(c) ** 2).sum())))
    assert _same(op.inner(u, v), float(np.vdot(v.coeffs, c).real))
    assert _same(fd.pack(c), _former_pack(c))
    assert _same(fd.unpack(fd.pack(c)), _former_unpack(_former_pack(c)))
    assert _same((u * scalar).coeffs, c * float(scalar))
    assert _same((scalar * u).coeffs, c * float(scalar))
    assert _same(op.d_x(u).coeffs, _former_d_x(u))
    m_t, m_x = 2 * n_t + 3, n_x + 4
    r = fd.packed_time_matrix(n_t, m_t)
    b = fd.space_matrix(n_x, m_x, basis, basis)
    g = fd.evaluate(u, m_t, m_x)
    assert _same(g, (r @ _former_pack(c)) @ b.T)
    w = (m_x + 1) if basis is Basis.DIRICHLET_SINE else m_x
    assert _same(fd.analyse(g, n_t, n_x, basis).coeffs, _former_unpack(r.T @ (g @ b) / (m_t * w)))
    for triple in ((0.5, 1.0, 0.5), (0.25, 0.5, 0.5), (0.5, 1.0, 0.25)):
        assert _same(nm.interpolation_slack(u, *triple), float(_former_slack(u, *triple)))
    if basis is Basis.DIRICHLET_SINE:
        mt, mx = 3 * n_t + 1, 3 * n_x + 2
        rp = fd.packed_time_matrix(n_t, mt)
        s = fd.space_matrix(n_x, mx, Basis.NEUMANN_COSINE, Basis.DIRICHLET_SINE)
        bc = fd.space_matrix(n_x, mx, Basis.NEUMANN_COSINE, Basis.NEUMANN_COSINE)
        gu, gv = (rp @ _former_pack(c)) @ s.T, (rp @ _former_pack(v.coeffs)) @ s.T
        former = _former_unpack(rp.T @ ((gu * gv) @ bc) / (mt * mx))
        assert _same(fd.product_cosine(u, v, n_t, n_x).coeffs, former)


def _operators():
    """(name, result on the Dirichlet field u) of every operator that
    builds a field from fields."""
    u = fd.random_field(2, 3, 4, 1.5)
    v = fd.random_field(3, 3, 4, 1.5)
    c = ch.antiderivative_x(u)
    return u, v, c, {
        "half_derivative": lambda: op.half_derivative(u),
        "half_derivative_adjoint": lambda: op.half_derivative_adjoint(u),
        "hilbert": lambda: op.hilbert(u),
        "d_t": lambda: op.d_t(u),
        "d_x": lambda: op.d_x(u),
        "d_x_cosine": lambda: op.d_x(c),
        "d_xx": lambda: op.d_xx(u),
        "apply_L": lambda: op.apply_L(u, 0.5),
        "invert_L": lambda: op.invert_L(u, 0.5),
        "apply_S": lambda: op.apply_S(u),
        "apply_T": lambda: op.apply_T(u, 0.5),
        "p_transform": lambda: op.p_transform(u),
        "add": lambda: u + v,
        "sub": lambda: u - v,
        "mul": lambda: 2.0 * u,
        "truncate": lambda: fd.truncate(u, 3, 4),
        "set_mode": lambda: fd.set_mode(u, 1, 2, 0.5 + 0.5j),
        "product_cosine": lambda: fd.product_cosine(u, v),
        "analyse": lambda: fd.analyse(fd.evaluate(u, 9, 8), 3, 4, Basis.DIRICHLET_SINE),
        "stack": lambda: fd.stack([u, v]),
        "time_reverse": lambda: sc.time_reverse(u),
        "antiderivative_x": lambda: ch.antiderivative_x(u),
        "S2Element": lambda: ch.S2Element(c, 0.5).W,
        "pointwise_map": lambda: ch._pointwise_map(c, np.exp, 3, 4),
    }


@pytest.mark.parametrize("name", sorted(_operators()[3]))
def test_every_operator_result_is_fresh_and_read_only(name):
    u, v, c, ops = _operators()
    before = [_bytes(x.coeffs) for x in (u, v, c)]
    out = ops[name]()
    assert not out.coeffs.flags.writeable
    for x in (u, v, c):
        assert not np.shares_memory(out.coeffs, x.coeffs)
    assert [_bytes(x.coeffs) for x in (u, v, c)] == before
    with pytest.raises(ValueError):
        out.coeffs[0, 0] = 1.0


def test_the_public_constructor_keeps_its_copy():
    c = np.ones((3, 2), dtype=complex)
    u = fd.SpectralField(c, 1, 2)
    assert c.flags.writeable and not u.coeffs.flags.writeable
    assert not np.shares_memory(c, u.coeffs)
    assert not np.shares_memory(u.with_coeffs(c).coeffs, c)
    with pytest.raises(ValueError, match="expected"):
        fd.SpectralField(np.ones((2, 3, 3)), 1, 2)
