"""Discrete space-time fields on the normalized domain T x (0,1).

Real fields are represented either by Fourier-sine coefficients
(homogeneous Dirichlet in space) or Fourier-cosine coefficients
(homogeneous Neumann in space), with exponential modes exp(2*pi*i*n*t)
in time.  The space bases are L2(0,1)-orthonormal:

    DirichletSine:  b_m(x) = sqrt(2) sin(m pi x),   m = 1..n_x
    NeumannCosine:  q_0(x) = 1,  q_m(x) = sqrt(2) cos(m pi x),  m = 1..n_x

so Parseval holds with unit weights and all norm formulas are diagonal.
"""

from __future__ import annotations

import enum
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import StburgersError

SQRT2 = np.sqrt(2.0)
# layouts each transform cache holds before it evicts the least recently
# used one; the verify suite with the Cole-Hopf chain at the configs/
# sizes uses 17 time and 33 space layouts (1.3 MB in all)
TRANSFORM_CACHE_SIZE = 64


class Basis(enum.Enum):
    DIRICHLET_SINE = "dirichlet-sine"
    NEUMANN_COSINE = "neumann-cosine"


class ResolutionError(StburgersError, ValueError):
    """Grid resolution too small for the requested truncation."""


class BasisMismatchError(StburgersError, ValueError):
    """Operation applied to a field in the wrong basis."""


def space_columns(n_x: int, basis: Basis) -> int:
    return n_x if basis is Basis.DIRICHLET_SINE else n_x + 1


def space_mode_numbers(n_x: int, basis: Basis) -> np.ndarray:
    if basis is Basis.DIRICHLET_SINE:
        return np.arange(1, n_x + 1)
    return np.arange(0, n_x + 1)


@dataclass(frozen=True)
class SpectralField:
    """Coefficient array indexed by (time mode n, space mode m).

    Row i holds time mode n = i - n_t, so rows run n = -n_t..n_t.
    Hermitian symmetry coeffs[-n, m] = conj(coeffs[n, m]) encodes that
    the field is real valued.
    """

    coeffs: np.ndarray
    n_t: int
    n_x: int
    basis: Basis = Basis.DIRICHLET_SINE

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        expected = (2 * self.n_t + 1, space_columns(self.n_x, self.basis))
        if c.shape != expected:
            raise ValueError(
                f"coefficient array has shape {c.shape}, expected {expected}"
            )
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def time_modes(self) -> np.ndarray:
        return np.arange(-self.n_t, self.n_t + 1)

    @property
    def space_modes(self) -> np.ndarray:
        return space_mode_numbers(self.n_x, self.basis)

    def same_layout(self, other: "SpectralField") -> bool:
        return (
            self.n_t == other.n_t
            and self.n_x == other.n_x
            and self.basis is other.basis
        )

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(coeffs, self.n_t, self.n_x, self.basis)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        if not self.same_layout(other):
            raise BasisMismatchError("field layouts differ")
        return self.with_coeffs(self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        if not self.same_layout(other):
            raise BasisMismatchError("field layouts differ")
        return self.with_coeffs(self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return self.with_coeffs(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return self.with_coeffs(-self.coeffs)

    def l2(self) -> float:
        """L2(Q) norm via Parseval."""
        return float(np.sqrt((np.abs(self.coeffs) ** 2).sum()))

    def hermitian_defect(self) -> float:
        return float(np.abs(self.coeffs[::-1].conj() - self.coeffs).max())


@dataclass(frozen=True)
class GridField:
    """Real values on the tensor collocation grid.

    Time nodes t_j = j / m_t.  Space nodes are the interior sine nodes
    x_i = i/(m_x+1) for Dirichlet fields and the midpoint cosine nodes
    x_i = (i+1/2)/m_x for Neumann fields.
    """

    values: np.ndarray
    m_t: int
    m_x: int
    basis: Basis = Basis.DIRICHLET_SINE

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.m_t, self.m_x):
            raise ValueError(
                f"value array has shape {v.shape}, expected {(self.m_t, self.m_x)}"
            )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def time_nodes(m_t: int) -> np.ndarray:
    return np.arange(m_t) / m_t


def space_nodes(m_x: int, basis: Basis) -> np.ndarray:
    if basis is Basis.DIRICHLET_SINE:
        return np.arange(1, m_x + 1) / (m_x + 1)
    return (np.arange(m_x) + 0.5) / m_x


def space_eval_matrix(n_x: int, nodes: np.ndarray, basis: Basis) -> np.ndarray:
    """Matrix B with B[i, j] = (basis function j)(nodes[i])."""
    x = np.asarray(nodes)[:, None]
    m = space_mode_numbers(n_x, basis)[None, :]
    if basis is Basis.DIRICHLET_SINE:
        return SQRT2 * np.sin(m * np.pi * x)
    b = SQRT2 * np.cos(m * np.pi * x)
    b[:, 0] = 1.0
    return b


def time_eval_matrix(n_t: int, m_t: int) -> np.ndarray:
    """Matrix E with E[j, i] = exp(2 pi i n_i t_j), n_i = i - n_t."""
    t = time_nodes(m_t)[:, None]
    n = np.arange(-n_t, n_t + 1)[None, :]
    return np.exp(2j * np.pi * n * t)


class LayoutCache:
    """Basis matrices built once per layout and then kept read-only.

    Holds at most `size` layouts and evicts the least recently used one.
    A lock guards the table, so threads may share the cache (sweep rows
    run in a pool); a cached matrix is never written after it is built."""

    def __init__(self, build, size: int = TRANSFORM_CACHE_SIZE):
        self._build = build
        self.size = size
        self._table: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __call__(self, *layout) -> np.ndarray:
        with self._lock:
            mat = self._table.get(layout)
            if mat is not None:
                self._table.move_to_end(layout)
                return mat
        mat = self._build(*layout)
        mat.setflags(write=False)
        with self._lock:
            self._table[layout] = mat
            while len(self._table) > self.size:
                self._table.popitem(last=False)
        return mat

    def entries(self) -> list:
        """(layout, matrix) pairs, least recently used first."""
        with self._lock:
            return list(self._table.items())


def _space_layout(n_x: int, m_x: int, nodes: Basis, basis: Basis) -> np.ndarray:
    return space_eval_matrix(n_x, space_nodes(m_x, nodes), basis)


# E for the time layout (n_t, m_t); B for the space layout (n_x, m_x,
# node family, basis), that is, `basis` evaluated on the m_x nodes of the
# grid that belongs to `nodes`.  The builders look the eval functions up
# at call time, so a wrapper set on the module attribute (as
# bench/tracer.py does) sees every cache miss.
time_matrix = LayoutCache(lambda n_t, m_t: time_eval_matrix(n_t, m_t))
space_matrix = LayoutCache(_space_layout)


def evaluate(u: SpectralField, m_t: int, m_x: int, nodes: Basis | None = None) -> np.ndarray:
    """Complex values (E @ c) @ B.T of u on the m_t x m_x grid of the
    node family `nodes` (by default the family of u's own basis)."""
    e = time_matrix(u.n_t, m_t)
    b = space_matrix(u.n_x, m_x, u.basis if nodes is None else nodes, u.basis)
    return (e @ u.coeffs) @ b.T


def analyse(values: np.ndarray, n_t: int, n_x: int, basis: Basis) -> SpectralField:
    """Discrete analysis of grid values on the node family of `basis`;
    the exact inverse of `evaluate` on band-limited fields."""
    m_t, m_x = values.shape
    e = time_matrix(n_t, m_t)
    b = space_matrix(n_x, m_x, basis, basis)
    # discrete orthogonality weight: sum_i b_j(x_i)^2 = m_x+1 on sine
    # nodes and m_x on midpoint cosine nodes, for every basis function
    w = (m_x + 1) if basis is Basis.DIRICHLET_SINE else m_x
    coeffs = (e.conj().T @ values @ b) / (m_t * w)
    return SpectralField(coeffs, n_t, n_x, basis)


def zeros(n_t: int, n_x: int, basis: Basis = Basis.DIRICHLET_SINE) -> SpectralField:
    shape = (2 * n_t + 1, space_columns(n_x, basis))
    return SpectralField(np.zeros(shape, dtype=complex), n_t, n_x, basis)


def truncate(u: SpectralField, n_t: int, n_x: int) -> SpectralField:
    """Change the truncation of a field, dropping or zero-padding modes."""
    out = zeros(n_t, n_x, u.basis)
    coeffs = out.coeffs.copy()
    dt = min(n_t, u.n_t)
    dx = min(space_columns(n_x, u.basis), space_columns(u.n_x, u.basis))
    coeffs[n_t - dt : n_t + dt + 1, :dx] = u.coeffs[
        u.n_t - dt : u.n_t + dt + 1, :dx
    ]
    return SpectralField(coeffs, n_t, n_x, u.basis)


def set_mode(
    field: SpectralField, n: int, m: int, value: complex
) -> SpectralField:
    """Return a copy with mode (n, m) set to `value` and (-n, m) to its
    conjugate.  For n = 0 a real value is required."""
    if n == 0 and abs(complex(value).imag) > 0:
        raise ValueError("n = 0 coefficients must be real")
    cols = field.space_modes
    col = np.searchsorted(cols, m)
    if col >= len(cols) or cols[col] != m:
        raise ValueError(f"space mode {m} not representable in this basis")
    c = field.coeffs.copy()
    c[field.n_t + n, col] = value
    c[field.n_t - n, col] = np.conj(value)
    return field.with_coeffs(c)


def to_grid(u: SpectralField, m_t: int, m_x: int) -> GridField:
    """Pointwise evaluation of the truncated series on the collocation grid."""
    if m_t < 2 * u.n_t + 1 or m_x < space_columns(u.n_x, u.basis):
        raise ResolutionError(
            f"grid {m_t}x{m_x} too small for truncation ({u.n_t}, {u.n_x})"
        )
    vals = evaluate(u, m_t, m_x)
    scale = max(1.0, np.abs(vals).max())
    imag = np.abs(vals.imag).max()
    if imag > 1e-12 * scale:
        raise ValueError(f"grid evaluation has imaginary residue {imag:.3e}")
    return GridField(vals.real, m_t, m_x, u.basis)


def to_spectral(g: GridField, n_t: int, n_x: int, basis: Basis | None = None) -> SpectralField:
    """Discrete analysis; exact inverse of to_grid on band-limited fields."""
    if basis is None:
        basis = g.basis
    if basis is not g.basis:
        raise BasisMismatchError("grid node family does not match requested basis")
    if g.m_t < 2 * n_t + 1 or g.m_x < space_columns(n_x, basis):
        raise ResolutionError(
            f"grid {g.m_t}x{g.m_x} too small for truncation ({n_t}, {n_x})"
        )
    return analyse(g.values, n_t, n_x, basis)


def grid_quadrature(g: GridField) -> float:
    """Integral over Q of the grid function.

    Exact for band-limited integrands (time modes < m_t; Dirichlet-node
    grids integrate cosine content up to 2*m_x+1 by the trapezoid rule
    with vanishing endpoints, Neumann-node grids up to 2*m_x-1 by the
    midpoint rule)."""
    w = (g.m_x + 1) if g.basis is Basis.DIRICHLET_SINE else g.m_x
    return float(g.values.sum() / (g.m_t * w))


def _product_grid(u: SpectralField, n_t_out: int, n_x_out: int) -> tuple[int, int]:
    """Padded grid (m_t, m_x) on which the product of two fields of u's
    truncation is exact in the output band (n_t_out, n_x_out)."""
    return 2 * u.n_t + n_t_out + 1, 2 * u.n_x + n_x_out + 2


def product_cosine(
    u: SpectralField,
    v: SpectralField,
    n_t_out: int | None = None,
    n_x_out: int | None = None,
) -> SpectralField:
    """Exact NeumannCosine representation of the pointwise product u*v.

    Two Dirichlet-sine fields multiply into the cosine algebra with space
    modes up to n_x(u)+n_x(v) and time modes up to n_t(u)+n_t(v); the
    result is exact (to rounding) for any output truncation inside that
    band.  Grid sizes are padded so no aliasing reaches the retained modes.
    """
    if u.basis is not Basis.DIRICHLET_SINE or v.basis is not Basis.DIRICHLET_SINE:
        raise BasisMismatchError("product_cosine expects Dirichlet-sine inputs")
    if (u.n_t, u.n_x) != (v.n_t, v.n_x):
        raise BasisMismatchError("product_cosine expects matching truncations")
    if n_t_out is None:
        n_t_out = 2 * u.n_t
    if n_x_out is None:
        n_x_out = 2 * u.n_x
    m_t, m_x = _product_grid(u, n_t_out, n_x_out)
    # stays complex-bilinear so linearized solves may pass non-Hermitian
    # intermediates through; real inputs give real products automatically
    gu = evaluate(u, m_t, m_x, Basis.NEUMANN_COSINE)
    gv = evaluate(v, m_t, m_x, Basis.NEUMANN_COSINE)
    return analyse(gu * gv, n_t_out, n_x_out, Basis.NEUMANN_COSINE)


def pack(c: np.ndarray) -> np.ndarray:
    """Real coordinates of the Hermitian part of a coefficient array.

    Rows n >= 0 of h = (c[n] + conj(c[-n])) / 2 give, in one real array
    of c's shape, the row Re h[0], then the rows sqrt(2) Re h[n] and then
    sqrt(2) Im h[n] for n = 1..n_t.  The weights make pack an isometry on
    Hermitian arrays, |pack(c)|_2 = |c|_2, and its adjoint is `unpack`;
    the anti-Hermitian part of c is dropped."""
    n_t = c.shape[0] // 2
    h = 0.5 * (c[n_t:] + c[n_t::-1].conj())
    h[1:] *= SQRT2
    return np.concatenate([h.real, h[1:].imag])


def unpack(x: np.ndarray) -> np.ndarray:
    """The Hermitian coefficient array whose `pack` is the real array x."""
    n_t = x.shape[0] // 2
    upper = x[: n_t + 1].astype(complex)
    upper[1:] = (x[1 : n_t + 1] + 1j * x[n_t + 1 :]) / SQRT2
    return np.concatenate([upper[:0:-1].conj(), upper])


def _real_grid(m: SpectralField, m_t: int, m_x: int) -> np.ndarray:
    """Values of m on the m_t x m_x midpoint grid, which must be real."""
    g = evaluate(m, m_t, m_x, Basis.NEUMANN_COSINE)
    if np.abs(g.imag).max() > 1e-12 * max(1.0, np.abs(g).max()):
        raise ValueError("advection operator expects a real field (Hermitian coefficients)")
    return g.real


def advection_matrix(m: SpectralField) -> np.ndarray:
    """Real matrix of the linear map w -> (m w)_x, the x-derivative of
    product_cosine(m, w, n_t, n_x), on the packed (`pack`) Dirichlet-sine
    coefficients of m's truncation; m must be real.

    On the padded grid of that product, with g = m on the grid, E the
    time matrix and S, C the sine and cosine matrices on midpoint nodes,
    the complex matrix on all coefficients is block Toeplitz,

        A[(n, k), (i, j)] = B[i - n][k, j]
                          = sum_t sum_x conj(E[t, n]) E[t, i] g[t, x]
                            * S[x, j] (-k pi) C[x, k] / (m_t m_x),

    so the sum over t is one product for the 4 n_t + 1 differences and
    the sum over x one more.  For real g, B[-d] = conj(B[d]), and on a
    Hermitian w = a + i b the rows n >= 0 of (m w)_x are the sum over
    i >= 0 of (P[n, i] a[i] + i M[n, i] b[i]) / (2 if i = 0 else 1), with
    the Toeplitz and Hankel slices P, M = B[i - n] +- B[-i - n].  Their
    real and imaginary parts, scaled by the packing weights, fill the
    real matrix; no complex matrix is built."""
    if m.basis is not Basis.DIRICHLET_SINE:
        raise BasisMismatchError("advection_matrix expects a Dirichlet-sine field")
    n_t, n_x = m.n_t, m.n_x
    m_t, m_x = _product_grid(m, n_t, n_x)
    mid = Basis.NEUMANN_COSINE
    diffs = time_matrix(2 * n_t, m_t).T @ _real_grid(m, m_t, m_x)  # [i - n, x]
    s = space_matrix(n_x, m_x, mid, Basis.DIRICHLET_SINE)
    k = np.arange(1, n_x + 1)
    c = space_matrix(n_x, m_x, mid, mid)[:, 1:] * (-np.pi * k / (m_t * m_x))
    d = (c[:, :, None] * s[:, None, :]).reshape(m_x, n_x * n_x)  # [x, (k, j)]
    blocks = (diffs @ d).reshape(4 * n_t + 1, n_x, n_x)  # [i - n + 2 n_t, k, j]
    h = n_t + 1
    a = np.empty((2 * n_t + 1, n_x, 2 * n_t + 1, n_x))  # [row, k, col, j]
    for n in range(h):
        toeplitz = blocks[2 * n_t - n : 3 * n_t - n + 1]  # B[i - n], i = 0..n_t
        hankel = blocks[n_t - n : 2 * n_t - n + 1][::-1]  # B[-i - n]
        p = (toeplitz + hankel).transpose(1, 0, 2)  # [k, i, j]
        q = (toeplitz[1:] - hankel[1:]).transpose(1, 0, 2)
        a[n, :, :h] = p.real
        a[n, :, h:] = -q.imag
        if n:
            a[n_t + n, :, :h] = p.imag
            a[n_t + n, :, h:] = q.real
    # packed coordinates weigh mode n by w[n] = (1, sqrt 2, ..., sqrt 2):
    # entry (n, i) scales by w[n] / (w[i] (2 if i = 0 else 1)), which is
    # 1/sqrt 2 on the row block and on the column block of mode 0
    a[0] /= SQRT2
    a[:, :, 0] /= SQRT2
    return a.reshape(a.shape[0] * n_x, -1)


def _packed_time_layout(n_t: int, m_t: int) -> np.ndarray:
    # E restricted to modes n >= 0, split as `pack` splits coefficients
    e = time_matrix(n_t, m_t)[:, n_t:]
    return np.concatenate([e[:, :1].real, SQRT2 * e[:, 1:].real, -SQRT2 * e[:, 1:].imag], axis=1)


# R for the time layout (n_t, m_t): R[t] = [1, sqrt 2 cos(2 pi n t),
# -sqrt 2 sin(2 pi n t)], n = 1..n_t, the time matrix of packed
# coordinates; R x are the values in time of unpack(x), and
# R^T R = m_t I when m_t > 2 n_t
packed_time_matrix = LayoutCache(_packed_time_layout)


def advection_operator(m: SpectralField):
    """Matrix-free twin of advection_matrix(m): a function that maps the
    flattened packed (`pack`) Dirichlet-sine coefficients x of a real w
    to the packed coefficients of (m w)_x; m must be real.

    Everything that depends on m alone is formed here, once: the real
    values g of m on the padded grid of the product, and the midpoint
    cosine matrix C of modes 1..n_x scaled by the derivative factor
    -k pi / (m_t m_x); the packed time matrix R and the midpoint sine
    matrix S come from the layout caches.  An apply is then four real
    products,

        (m w)_x = R^T ((g * (R X S^T)) C),

    with X the packed coefficients as a (2 n_t + 1) x n_x array: R X S^T
    are the values of w on the grid, and R^T / m_t is the analysis onto
    packed coordinates, since R^T R = m_t I."""
    if m.basis is not Basis.DIRICHLET_SINE:
        raise BasisMismatchError("advection_operator expects a Dirichlet-sine field")
    rows, n_x = 2 * m.n_t + 1, m.n_x
    m_t, m_x = _product_grid(m, m.n_t, n_x)
    mid = Basis.NEUMANN_COSINE
    # contiguous transposes: at 32x32 an apply is 15% faster on them
    r = packed_time_matrix(m.n_t, m_t)  # [t, i]
    r_t = np.ascontiguousarray(r.T)
    s_t = np.ascontiguousarray(space_matrix(n_x, m_x, mid, Basis.DIRICHLET_SINE).T)  # [j, x]
    k = np.arange(1, n_x + 1)
    c = space_matrix(n_x, m_x, mid, mid)[:, 1:] * (-np.pi * k / (m_t * m_x))  # [x, k]
    g = _real_grid(m, m_t, m_x)  # [t, x]

    def apply(x: np.ndarray) -> np.ndarray:
        p = (r @ x.reshape(rows, n_x)) @ s_t
        p *= g
        return (r_t @ (p @ c)).ravel()

    return apply


def mean_advection_block(m: SpectralField) -> np.ndarray:
    """Real n_x x n_x matrix B0 of w -> (m_0 w)_x on the Dirichlet-sine
    coefficients of one time mode, m_0 the time mean (row n = 0) of m;
    m must be real.  It is the diagonal block B[0] of the block-Toeplitz
    complex advection matrix (see advection_matrix), which maps every time
    mode to itself, and the block advection_matrix(m)[:n_x, :n_x] of the
    real mode n = 0.

    With g0 the values of m_0 on the midpoint nodes of the padded product
    grid, B0 = C^T (g0 * S), C the cosine matrix of modes 1..n_x scaled by
    the derivative factor -k pi / m_x."""
    if m.basis is not Basis.DIRICHLET_SINE:
        raise BasisMismatchError("mean_advection_block expects a Dirichlet-sine field")
    n_x = m.n_x
    _, m_x = _product_grid(m, m.n_t, n_x)
    mid = Basis.NEUMANN_COSINE
    s = space_matrix(n_x, m_x, mid, Basis.DIRICHLET_SINE)  # [x, j]
    k = np.arange(1, n_x + 1)
    c = space_matrix(n_x, m_x, mid, mid)[:, 1:] * (-np.pi * k / m_x)  # [x, k]
    mean = m.coeffs[m.n_t]
    if np.abs(mean.imag).max() > 1e-12 * max(1.0, np.abs(mean).max()):
        raise ValueError("mean_advection_block expects a real field (Hermitian coefficients)")
    g0 = s @ mean.real
    return c.T @ (g0[:, None] * s)


def cosine_to_sine_projection(n_x_sine: int, n_x_cos: int) -> np.ndarray:
    """Matrix of L2(0,1) inner products <q_k, b_m>.

    Entry [m-1, k] projects cosine mode k onto sine mode m; nonzero only
    when m + k is odd."""
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


def dealiased_product(u: SpectralField, v: SpectralField) -> SpectralField:
    """Dirichlet-sine coefficients of the pointwise product u*v.

    The product is formed exactly in the mixed sine/cosine algebra on a
    padded grid and then L2-projected onto the sine modes up to n_x."""
    pc = product_cosine(u, v, u.n_t, 2 * u.n_x)
    proj = cosine_to_sine_projection(u.n_x, 2 * u.n_x)
    coeffs = pc.coeffs @ proj.T
    return SpectralField(coeffs, u.n_t, u.n_x, Basis.DIRICHLET_SINE)


def random_field(
    seed: int,
    n_t: int,
    n_x: int,
    decay: float,
    basis: Basis = Basis.DIRICHLET_SINE,
    amplitude: float = 1.0,
) -> SpectralField:
    """Deterministic pseudorandom field with Hermitian symmetry and
    magnitude envelope (1+|n|)^-decay (1+m)^-decay."""
    if decay <= 0:
        raise ValueError("decay must be positive")
    rng = np.random.default_rng(seed)
    cols = space_columns(n_x, basis)
    m = space_mode_numbers(n_x, basis).astype(float)
    env_m = (1.0 + m) ** (-decay)
    shape = (n_t + 1, cols)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    raw[0] = raw[0].real  # n = 0 row is real
    n = np.arange(0, n_t + 1)[:, None].astype(float)
    upper = amplitude * raw * (1.0 + n) ** (-decay) * env_m[None, :] / SQRT2
    coeffs = np.empty((2 * n_t + 1, cols), dtype=complex)
    coeffs[n_t:] = upper
    coeffs[:n_t] = upper[1:][::-1].conj()
    return SpectralField(coeffs, n_t, n_x, basis)
