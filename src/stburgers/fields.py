"""Discrete space-time fields on the normalized domain T x (0,1).

Real fields are represented either by Fourier-sine coefficients
(homogeneous Dirichlet in space) or Fourier-cosine coefficients
(homogeneous Neumann in space), with exponential modes exp(2*pi*i*n*t)
in time.  The space bases are L2(0,1)-orthonormal:

    DirichletSine:  b_m(x) = sqrt(2) sin(m pi x),   m = 1..n_x
    NeumannCosine:  q_0(x) = 1,  q_m(x) = sqrt(2) cos(m pi x),  m = 1..n_x

so Parseval holds with unit weights and all norm formulas are diagonal.

A SpectralField may also hold a stack of fields of one layout along
leading sample axes.  The functions that say so act on each field of a
stack and give, bit for bit, the stack of their results on the single
fields: the stacked products (R X) B^T and R^T (V B) are one BLAS call
per field, and the per-field sums over the two trailing axes of a
contiguous stack add in the order of a single field's sum.  A per-field
value is a float for a single field and an array of the leading shape
for a stack.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import StburgersError

SQRT2 = np.sqrt(2.0)
# layouts each per-layout cache holds before it evicts the least recently
# used one; configs/verify.json (its Cole-Hopf chain included) uses 10
# time and 24 space layouts (0.31 MB in all), and with configs/colehopf.json
# run in the same process 14 and 31 (0.54 MB); either way one advection
# grid (12 kB) and 9 mode-symbol layouts (_mode_symbols, 68 kB); the
# period map's times (`evaluate_at`) take no time layout
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


class ModeSymbols(NamedTuple):
    """The diagonal multipliers on the modes of one truncation, read-only:
    time symbols on the time modes [n, 1], space ones on [1, m]."""

    half: np.ndarray  # D^{1/2}: |2 pi n|^{1/2} e^{i sgn(n) pi/4}
    half_adjoint: np.ndarray  # its adjoint: the conjugate
    hilbert: np.ndarray  # H: -i sgn(n)
    d_t: np.ndarray  # 2 pi i n
    time_weight: np.ndarray  # 2 pi |n|, the weight of |D^{1/2} u|^2
    m_pi: np.ndarray  # m pi, the factor of d_x
    space_weight: np.ndarray  # (m pi)^2, the weight of |u_x|^2
    aniso: np.ndarray  # 1 + 2 pi |n| + (m pi)^2 [n, m], the anisotropic weight


@functools.lru_cache(maxsize=TRANSFORM_CACHE_SIZE)
def _mode_symbols(n_t: int, n_x: int, basis: Basis) -> ModeSymbols:
    """The ModeSymbols of the truncation (n_t, n_x) of `basis`; built from
    numpy alone, so a miss calls no other function of the package."""
    n = np.arange(-n_t, n_t + 1)[:, None]
    first = 1 if basis is Basis.DIRICHLET_SINE else 0
    m_pi = np.arange(first, n_x + 1)[None, :] * np.pi
    wt, wx = 2 * np.pi * np.abs(n), m_pi ** 2
    half = wt ** 0.5 * np.exp(1j * np.sign(n) * 0.5 * np.pi / 2)
    table = ModeSymbols(
        half, np.conj(half), -1j * np.sign(n) + 0.0j, 2j * np.pi * n, wt, m_pi, wx, 1.0 + wt + wx
    )
    for entry in table:
        entry.setflags(write=False)
    return table


def _per_field(x):
    """A per-field value: a float for a single field, else the array."""
    return float(x) if np.ndim(x) == 0 else x


def _float_power(x, p):
    """x ** p with Python's float power, per field: numpy's array power
    rounds some last bits differently (x ** 2 in about 1 of 1200 draws)."""
    if np.ndim(x) == 0:
        return x ** p
    return np.array([v ** p for v in np.ravel(x).tolist()]).reshape(np.shape(x))


def _fold(worst: float, values, fold) -> float:
    """worst folded with each per-field value in turn, as a loop over the
    fields would fold them one at a time, except that a NaN value makes
    the result NaN (the builtin max and min keep whichever NaN or number
    comes first), so that a bound or invariant that reads NaN fails."""
    for value in np.ravel(values).tolist():
        worst = value if math.isnan(value) else fold(worst, value)
    return worst


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Coefficient array indexed by (time mode n, space mode m), of shape
    (..., 2 n_t + 1, cols): leading axes, if any, index the fields of a
    stack.

    Row i holds time mode n = i - n_t, so rows run n = -n_t..n_t.
    Hermitian symmetry coeffs[-n, m] = conj(coeffs[n, m]) encodes that
    the field is real valued.  The constructor keeps a read-only copy of
    its array.  Fields compare by identity; compare `coeffs` to compare
    values.
    """

    coeffs: np.ndarray
    n_t: int
    n_x: int
    basis: Basis = Basis.DIRICHLET_SINE

    # numpy defers to the field, so (array of per-field scalars) * field
    # is __rmul__
    __array_ufunc__ = None

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex).copy()
        _check_shape(c, self.n_t, self.n_x, self.basis)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def time_modes(self) -> np.ndarray:
        return np.arange(-self.n_t, self.n_t + 1)

    @property
    def space_modes(self) -> np.ndarray:
        return space_mode_numbers(self.n_x, self.basis)

    @property
    def symbols(self) -> ModeSymbols:
        return _mode_symbols(self.n_t, self.n_x, self.basis)

    def same_layout(self, other: "SpectralField") -> bool:
        return (
            self.n_t == other.n_t
            and self.n_x == other.n_x
            and self.basis is other.basis
        )

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(coeffs, self.n_t, self.n_x, self.basis)

    def _own(self, coeffs: np.ndarray) -> "SpectralField":
        """with_coeffs without the copy, for a fresh array; see _owned."""
        return _owned(coeffs, self.n_t, self.n_x, self.basis)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        if not self.same_layout(other):
            raise BasisMismatchError("field layouts differ")
        return self._own(self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        if not self.same_layout(other):
            raise BasisMismatchError("field layouts differ")
        return self._own(self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        """The field times a real scalar; a stack also takes one scalar
        per field, an array of its leading shape."""
        return self._own(self.coeffs * np.asarray(scalar, dtype=float)[..., None, None])

    __rmul__ = __mul__

    def l2(self):
        """L2(Q) norm via Parseval, per field."""
        return _per_field(np.sqrt((np.abs(self.coeffs) ** 2).sum(axis=(-2, -1))))

    def hermitian_defect(self) -> float:
        return float(np.abs(self.coeffs[..., ::-1, :].conj() - self.coeffs).max())


def _check_shape(c: np.ndarray, n_t: int, n_x: int, basis: Basis) -> None:
    expected = (2 * n_t + 1, space_columns(n_x, basis))
    if c.shape[-2:] != expected:
        raise ValueError(f"coefficient array has shape {c.shape}, expected {expected}")


def _owned(coeffs: np.ndarray, n_t: int, n_x: int, basis: Basis) -> SpectralField:
    """SpectralField(coeffs, n_t, n_x, basis) without its copy: the field
    takes over `coeffs`, a fresh complex array that nothing else holds,
    and freezes it in place.  Every operator result is built this way."""
    coeffs = np.asarray(coeffs, dtype=complex)
    _check_shape(coeffs, n_t, n_x, basis)
    coeffs.setflags(write=False)
    u = object.__new__(SpectralField)
    u.__dict__.update(coeffs=coeffs, n_t=n_t, n_x=n_x, basis=basis)
    return u


def stack(fields) -> SpectralField:
    """The fields, all of one layout, as one stack along a new leading axis."""
    u = fields[0]
    if not all(u.same_layout(f) for f in fields):
        raise BasisMismatchError("stacked fields must share a layout")
    return _owned(np.stack([f.coeffs for f in fields]), u.n_t, u.n_x, u.basis)


@dataclass(frozen=True, eq=False)
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


# The transform caches: each basis matrix is built once per layout, kept
# read-only and evicted least recently used first.  `space_matrix` looks
# `space_eval_matrix` up in the module globals at call time, so a wrapper
# set on it (as bench/tracer.py sets) sees every space cache miss.


@functools.lru_cache(maxsize=TRANSFORM_CACHE_SIZE)
def space_matrix(n_x: int, m_x: int, nodes: Basis, basis: Basis) -> np.ndarray:
    """B for the space layout (n_x, m_x, node family, basis), that is,
    `basis` evaluated on the m_x nodes of the grid that belongs to
    `nodes`."""
    b = space_eval_matrix(n_x, space_nodes(m_x, nodes), basis)
    b.setflags(write=False)
    return b


@functools.lru_cache(maxsize=TRANSFORM_CACHE_SIZE)
def packed_time_matrix(n_t: int, m_t: int) -> np.ndarray:
    """R for the time layout (n_t, m_t): the packed time rows
    (`_packed_rows`) at the nodes of the m_t-point time grid.  R x are
    the values in time of unpack(x), unpack(R^T g) is E^H g for real g,
    E[t, n] = exp(2 pi i n t) on all modes n = -n_t..n_t, and R^T R =
    m_t I when m_t > 2 n_t."""
    r = _packed_rows(n_t, time_nodes(m_t))
    r.setflags(write=False)
    return r


def _packed_rows(n_t: int, times: np.ndarray) -> np.ndarray:
    """The time matrix of packed coordinates at the given times:
    R[t] = [1, sqrt 2 Re e[t, n], -sqrt 2 Im e[t, n]], n = 1..n_t, of the
    exponentials e[t, n] = exp(2 pi i n t) of the modes n = 0..n_t alone,
    split as `pack` splits coefficients."""
    e = np.exp(2j * np.pi * np.arange(n_t + 1) * np.asarray(times)[:, None])
    return np.concatenate([e[:, :1].real, SQRT2 * e[:, 1:].real, -SQRT2 * e[:, 1:].imag], axis=1)


def evaluate(u: SpectralField, m_t: int, m_x: int, nodes: Basis | None = None) -> np.ndarray:
    """Real values (R @ pack(c)) @ B.T of u on the m_t x m_x grid of the
    node family `nodes` (by default the family of u's own basis), per
    field of a stack; like `pack`, it drops an anti-Hermitian part of the
    coefficients c."""
    r = packed_time_matrix(u.n_t, m_t)
    b = space_matrix(u.n_x, m_x, u.basis if nodes is None else nodes, u.basis)
    return (r @ pack(u.coeffs)) @ b.T


def evaluate_at(u: SpectralField, times: np.ndarray, m_x: int, nodes: Basis) -> np.ndarray:
    """`evaluate` at the given times in place of a time grid's nodes, per
    field of a stack: the values at a few of a long grid's times, say one
    block of them, without that grid's whole time matrix.  Uncached; at
    the nodes of a grid it gives evaluate's bits."""
    b = space_matrix(u.n_x, m_x, nodes, u.basis)
    return (_packed_rows(u.n_t, times) @ pack(u.coeffs)) @ b.T


def analyse(values: np.ndarray, n_t: int, n_x: int, basis: Basis) -> SpectralField:
    """Exactly Hermitian analysis unpack(R^T (values B)) / (m_t w) of real
    grid values on the node family of `basis`, per grid of a stack of
    grids; the exact inverse of `evaluate` on band-limited fields."""
    m_t, m_x = values.shape[-2:]
    r = packed_time_matrix(n_t, m_t)
    b = space_matrix(n_x, m_x, basis, basis)
    # discrete orthogonality weight: sum_i b_j(x_i)^2 = m_x+1 on sine
    # nodes and m_x on midpoint cosine nodes, for every basis function
    w = (m_x + 1) if basis is Basis.DIRICHLET_SINE else m_x
    x = r.T @ (values @ b)
    x /= m_t * w
    return _owned(unpack(x), n_t, n_x, basis)


def zeros(n_t: int, n_x: int, basis: Basis = Basis.DIRICHLET_SINE) -> SpectralField:
    shape = (2 * n_t + 1, space_columns(n_x, basis))
    return _owned(np.zeros(shape, dtype=complex), n_t, n_x, basis)


def truncate(u: SpectralField, n_t: int, n_x: int) -> SpectralField:
    """Change the truncation of a field, dropping or zero-padding modes;
    per field of a stack."""
    rows, cols = 2 * n_t + 1, space_columns(n_x, u.basis)
    coeffs = np.zeros(u.coeffs.shape[:-2] + (rows, cols), dtype=complex)
    dt = min(n_t, u.n_t)
    dx = min(cols, space_columns(u.n_x, u.basis))
    coeffs[..., n_t - dt : n_t + dt + 1, :dx] = u.coeffs[..., u.n_t - dt : u.n_t + dt + 1, :dx]
    return _owned(coeffs, n_t, n_x, u.basis)


def set_mode(
    field: SpectralField, n: int, m: int, value: complex
) -> SpectralField:
    """Return a copy with mode (n, m) set to `value` and (-n, m) to its
    conjugate.  For n = 0 a real value is required."""
    if abs(n) > field.n_t:
        raise ValueError(f"time mode {n} not representable at truncation n_t = {field.n_t}")
    if n == 0 and abs(complex(value).imag) > 0:
        raise ValueError("n = 0 coefficients must be real")
    cols = field.space_modes
    col = np.searchsorted(cols, m)
    if col >= len(cols) or cols[col] != m:
        raise ValueError(f"space mode {m} not representable in this basis")
    c = field.coeffs.copy()
    c[field.n_t + n, col] = value
    c[field.n_t - n, col] = np.conj(value)
    return field._own(c)


def to_grid(u: SpectralField, m_t: int, m_x: int) -> GridField:
    """Pointwise evaluation of the truncated series on the collocation grid."""
    if m_t < 2 * u.n_t + 1 or m_x < space_columns(u.n_x, u.basis):
        raise ResolutionError(
            f"grid {m_t}x{m_x} too small for truncation ({u.n_t}, {u.n_x})"
        )
    _require_real(u, "to_grid")
    return GridField(evaluate(u, m_t, m_x), m_t, m_x, u.basis)


def to_spectral(g: GridField, n_t: int, n_x: int) -> SpectralField:
    """Discrete analysis in the basis of the grid's node family; exact
    inverse of to_grid on band-limited fields."""
    if g.m_t < 2 * n_t + 1 or g.m_x < space_columns(n_x, g.basis):
        raise ResolutionError(
            f"grid {g.m_t}x{g.m_x} too small for truncation ({n_t}, {n_x})"
        )
    return analyse(g.values, n_t, n_x, g.basis)


def _product_grid(n_t: int, n_x: int, n_t_out: int, n_x_out: int) -> tuple[int, int]:
    """Padded grid (m_t, m_x) on which the product of two fields of the
    truncation (n_t, n_x) is exact in the output band (n_t_out, n_x_out)."""
    return 2 * n_t + n_t_out + 1, 2 * n_x + n_x_out + 2


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
    Per field of two stacks.
    """
    if u.basis is not Basis.DIRICHLET_SINE or v.basis is not Basis.DIRICHLET_SINE:
        raise BasisMismatchError("product_cosine expects Dirichlet-sine inputs")
    if (u.n_t, u.n_x) != (v.n_t, v.n_x):
        raise BasisMismatchError("product_cosine expects matching truncations")
    if n_t_out is None:
        n_t_out = 2 * u.n_t
    if n_x_out is None:
        n_x_out = 2 * u.n_x
    m_t, m_x = _product_grid(u.n_t, u.n_x, n_t_out, n_x_out)
    # real values on the grid; evaluate drops an anti-Hermitian part
    g = evaluate(u, m_t, m_x, Basis.NEUMANN_COSINE)
    g *= g if v is u else evaluate(v, m_t, m_x, Basis.NEUMANN_COSINE)
    return analyse(g, n_t_out, n_x_out, Basis.NEUMANN_COSINE)


def pack(c: np.ndarray) -> np.ndarray:
    """Real coordinates of the Hermitian part of a coefficient array, or
    of each array of a stack (..., 2 n_t + 1, cols).

    Rows n >= 0 of h = (c[n] + conj(c[-n])) / 2 give, in one real array
    of c's shape, the row Re h[0], then the rows sqrt(2) Re h[n] and then
    sqrt(2) Im h[n] for n = 1..n_t.  The weights make pack an isometry on
    Hermitian arrays, |pack(c)|_2 = |c|_2, and its adjoint is `unpack`;
    the anti-Hermitian part of c is dropped."""
    n_t = c.shape[-2] // 2
    h = 0.5 * (c[..., n_t:, :] + c[..., n_t::-1, :].conj())
    h[..., 1:, :] *= SQRT2
    return np.concatenate([h.real, h[..., 1:, :].imag], axis=-2)


def unpack(x: np.ndarray) -> np.ndarray:
    """The Hermitian coefficient array whose `pack` is the real array x,
    per array of a stack."""
    n_t = x.shape[-2] // 2
    upper = x[..., : n_t + 1, :].astype(complex)
    upper[..., 1:, :] = (x[..., 1 : n_t + 1, :] + 1j * x[..., n_t + 1 :, :]) / SQRT2
    return np.concatenate([upper[..., :0:-1, :].conj(), upper], axis=-2)


def _require_real(u: SpectralField, what: str) -> None:
    """Raise unless u is real: Hermitian coefficients to a relative 1e-12."""
    defect = u.hermitian_defect()
    if defect > 1e-12 * max(1.0, np.abs(u.coeffs).max()):
        raise ValueError(f"{what} expects a real field (Hermitian coefficients): {defect:.3e}")


@dataclass(frozen=True, eq=False)
class AdvectionGrid:
    """The padded grid of product_cosine(m, w, n_t, n_x) for two fields of
    the truncation (n_t, n_x), and the two maps between it and packed
    (`pack`) Dirichlet-sine coefficients X, (2 n_t + 1) x n_x arrays:

        values(X) = R X S^T,    derivative(p) = R^T (p C),

    R the packed time matrix [t, i], S the midpoint sine matrix [x, j] and
    C the midpoint cosine matrix of modes 1..n_x scaled by the derivative
    factor -k pi / (m_t m_x) [x, k].  values(X) are the values of
    unpack(X) on the grid, and derivative(p) is the packed x-derivative
    of the product of grid values p, so (m w)_x is
    derivative(values(X_m) * values(X_w)); R^T / m_t is the analysis onto
    packed coordinates, since R^T R = m_t I.  r_t and s_t are contiguous
    copies of R^T and S^T: at 32x32 a product is 15% faster on them.

    The advection w -> (m w)_x by the m with values g = values(X_m) on
    the grid is `advect` matrix-free, `matrix` as a dense matrix, and
    `mean_block` on one time mode for the time mean of m; each checks
    that g lies on this grid."""

    n_t: int
    n_x: int
    r: np.ndarray
    s: np.ndarray
    c: np.ndarray
    r_t: np.ndarray
    s_t: np.ndarray

    def values(self, x: np.ndarray) -> np.ndarray:
        return (self.r @ x) @ self.s_t

    def derivative(self, p: np.ndarray) -> np.ndarray:
        return self.r_t @ (p @ self.c)

    def _check(self, g: np.ndarray) -> None:
        shape = (len(self.r), len(self.s))
        if g.shape != shape:
            raise ValueError(f"values of shape {g.shape} lie off the product grid {shape}")

    def advect(self, g: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The packed (m w)_x = derivative(g * values(X)) of the w with
        packed coefficients X, four real products."""
        self._check(g)
        p = self.values(x)
        p *= g
        return self.derivative(p)

    def matrix(self, g: np.ndarray) -> np.ndarray:
        """Real matrix of `advect(g, .)` on flattened packed coefficients,
        contracted from the same factors:

            A[(n, k), (i, j)] = sum_t R[t, n] R[t, i] h[t, k, j],
            h[t, k, j] = sum_x C[x, k] g[t, x] S[x, j],

        with the sum over x taken first.  The largest temporary is then
        the product [t, k, i, j] that R^T contracts, m_t / (2 n_t + 1) < 1.5
        times the size of the matrix; no complex array is formed."""
        self._check(g)
        r = self.r
        h = self.c.T @ (g[:, :, None] * self.s)  # [t, k, j]
        # [t, k, i, j], so R^T brings out the rows (n, k) and columns (i, j)
        a = r.T @ (h[:, :, None, :] * r[:, None, :, None]).reshape(len(r), -1)
        return a.reshape(r.shape[1] * self.n_x, -1)

    def mean_block(self, g: np.ndarray) -> np.ndarray:
        """Real n_x x n_x matrix B0 of w -> (m_0 w)_x on the Dirichlet-sine
        coefficients of one time mode, m_0 the time mean of m.  Advection
        by m_0 maps every time mode to itself, and B0 is its block on
        each; it equals matrix(g)[:n_x, :n_x], the block of the real mode
        n = 0: B0 = C^T (sum_t g[t] * S), since R[t, 0] = 1."""
        self._check(g)
        return self.c.T @ (g.sum(axis=0)[:, None] * self.s)


@functools.lru_cache(maxsize=TRANSFORM_CACHE_SIZE)
def advection_grid(n_t: int, n_x: int) -> AdvectionGrid:
    """The AdvectionGrid of the truncation (n_t, n_x), cached like the
    transform matrices it is built from, its arrays read-only."""
    m_t, m_x = _product_grid(n_t, n_x, n_t, n_x)
    mid = Basis.NEUMANN_COSINE
    r = packed_time_matrix(n_t, m_t)
    s = space_matrix(n_x, m_x, mid, Basis.DIRICHLET_SINE)
    k_pi = _mode_symbols(n_t, n_x, Basis.DIRICHLET_SINE).m_pi
    c = space_matrix(n_x, m_x, mid, mid)[:, 1:] * (-k_pi / (m_t * m_x))
    grid = AdvectionGrid(n_t, n_x, r, s, c, np.ascontiguousarray(r.T), np.ascontiguousarray(s.T))
    for a in (grid.c, grid.r_t, grid.s_t):
        a.setflags(write=False)
    return grid


def random_field(
    seed: int,
    n_t: int,
    n_x: int,
    decay: float,
    basis: Basis = Basis.DIRICHLET_SINE,
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
    upper = raw * (1.0 + n) ** (-decay) * env_m[None, :] / SQRT2
    coeffs = np.empty((2 * n_t + 1, cols), dtype=complex)
    coeffs[n_t:] = upper
    coeffs[:n_t] = upper[1:][::-1].conj()
    return _owned(coeffs, n_t, n_x, basis)


def sub_seed(seed: int, k: int) -> int:
    """The seed of field k of the random family of `seed`: the first word
    of numpy's SeedSequence([seed, k]), so that fields k and k + 1, or
    the families of seeds s and s + 1, give unrelated draws."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
