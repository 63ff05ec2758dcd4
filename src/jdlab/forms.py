"""Jump kernels, carre-du-champ operators, energies, and the M constants.

Convention pin: the jump form is the full ordered double sum

    E^(j)(u, v) = sum_x sum_{y != x} (u(x)-u(y)) (v(x)-v(y)) j(x,y) m(y) m(x)

with no 1/2 in front, while the local part carries 1/2:

    E(u, v) = 1/2 sum_x Gamma_c(u,v)(x) m(x) + E^(j)(u, v).

Pairing <-Lu, v>_m = E^(j)(u, v) then forces the simulated jump rate
q(x, y) = 2 j(x,y) m(y); only the rate table applies the factor 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np
import scipy.sparse as sp

from .space import DiscreteMMSpace, exactly_symmetric, support_sets

_BLOCK_NNZ = 1 << 18  # stored entries per run of whole rows (bounds temporaries)


def row_blocks(indptr: np.ndarray) -> Iterator[tuple[np.ndarray, int, int]]:
    """Runs of whole non-empty CSR rows with at most _BLOCK_NNZ entries (or one longer row).

    Yields (rows, lo, hi): the run's ascending row ids and its entry range
    [lo, hi), contiguous because the rows skipped between them are empty.
    """
    rows = np.flatnonzero(np.diff(indptr))
    ends = indptr[rows + 1]
    k = 0
    while k < len(rows):
        lo = int(indptr[rows[k]])
        stop = max(int(np.searchsorted(ends, lo + _BLOCK_NNZ, side="right")), k + 1)
        yield rows[k:stop], lo, int(ends[stop - 1])
        k = stop


class KernelOperator:
    """A symmetric jump kernel j over a truncation, the interface every caller reads.

    With W = j(x, y) m(y):
    - matvec(v) = W v, and row_mass = W 1;
    - diag() is the diagonal of the jump form matrix, 2 m(x) row_mass(x),
      since j vanishes on the diagonal;
    - weighted_row_sums(g) = sum_y j(x, y) g(d(x, y)) m(y) for each x, from
      which criteria take omega(r) and M_j;
    - jump_support() is X^(j), the points with a positive kernel entry;
    - jump_energy(u, v) is the jump form E^(j)(u, v);
    - csr() is the kernel as a CSR `JumpKernel`, which only the rate table,
      range truncation and the assembled form matrix gather.
    """

    space: DiscreteMMSpace

    def matvec(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def row_mass(self) -> np.ndarray:
        raise NotImplementedError

    def diag(self) -> np.ndarray:
        return 2.0 * self.space.measure * self.row_mass

    def weighted_row_sums(self, g: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def jump_support(self) -> np.ndarray:
        raise NotImplementedError

    def jump_energy(self, u: np.ndarray, v: np.ndarray) -> float:
        """E^(j)(u, v) = sum_x Gamma_j(u, v)(x) m(x)."""
        return float(np.dot(gamma_jump(self, u, v), self.space.measure))

    def csr(self) -> "JumpKernel":
        raise NotImplementedError


class JumpKernel(KernelOperator):
    """Symmetric off-diagonal jump density j(x, y) w.r.t. m (x) m.

    Stored as a sparse matrix over the truncation. `pair_distances` (same
    sparsity pattern as the density) is computed lazily from the space
    metric when an operation needs d(x, y) on the kernel support.
    """

    def __init__(self, space: DiscreteMMSpace, matrix):
        self.space = space
        n = space.n_points
        m = sp.csr_matrix(matrix, dtype=float, shape=(n, n))
        m.sum_duplicates()  # canonical, so m == m.T exactly when their arrays match
        # clear the stored diagonal in place; setdiag would first insert the missing ones
        m.data[m.indices == np.repeat(np.arange(n, dtype=m.indices.dtype), np.diff(m.indptr))] = 0.0
        m.eliminate_zeros()
        # entries must be finite too: inf - inf is nan, so an infinite pair is not exactly symmetric
        if not (exactly_symmetric(m) and np.isfinite(m.data).all()):
            raise ValueError("jump density must be exactly symmetric")
        if m.nnz and m.data.min() < 0:
            raise ValueError("jump density must be nonnegative")
        self.matrix = m
        self._pair_d: Optional[np.ndarray] = None  # d(x, y) aligned with matrix.data
        self._weighted: Optional[sp.csr_matrix] = None  # W = j(x,y) m(y)
        self._row_mass: Optional[np.ndarray] = None  # sum_y j(x,y) m(y)

    @classmethod
    def from_entries(cls, space: DiscreteMMSpace, rows, cols, values) -> "JumpKernel":
        """Kernel with j(i, j) = j(j, i) = value per (i, j, value) triple; a pair repeats only with an equal value."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=float)
        if np.any(rows == cols):
            raise ValueError("kernel entries must be off-diagonal")
        n = space.n_points
        both = (np.concatenate([rows, cols]), np.concatenate([cols, rows]))
        m = sp.csr_matrix((np.concatenate([values, values]), both), shape=(n, n))
        if m.nnz < 2 * len(rows):  # a pair is repeated, so the csr summed its values
            pairs = np.minimum(rows, cols) * n + np.maximum(rows, cols)
            _, first, group = np.unique(pairs, return_index=True, return_inverse=True)
            bad = np.flatnonzero(values != values[first][group])
            if bad.size:
                raise ValueError(f"conflicting values for symmetric pair {divmod(int(pairs[bad[0]]), n)}")
            return cls.from_entries(space, rows[first], cols[first], values[first])
        return cls(space, m)

    @property
    def weighted(self) -> sp.csr_matrix:
        if self._weighted is None:
            self._weighted = self.matrix.multiply(self.space.measure[None, :]).tocsr()
        return self._weighted

    @property
    def row_mass(self) -> np.ndarray:
        if self._row_mass is None:
            self._row_mass = np.asarray(self.weighted.sum(axis=1)).reshape(-1)
        return self._row_mass

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.weighted @ v

    def pair_distances(self) -> np.ndarray:
        """d(x, y) aligned with self.matrix.data (CSR order)."""
        if self._pair_d is None:
            m = self.matrix
            counts = np.diff(m.indptr)
            out = np.empty(m.nnz)
            for rows, lo, hi in row_blocks(m.indptr):
                out[lo:hi] = self.space.pair_distances(np.repeat(rows, counts[rows]), m.indices[lo:hi])
            self._pair_d = out
        return self._pair_d

    def density(self, x: int, y: int) -> float:
        return float(self.matrix[x, y])

    def weighted_row_sums(self, g: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """sum_y j(x, y) g(d(x, y)) m(y) per x, as segment sums over runs of whole rows (0 off X^(j))."""
        dist, w = self.pair_distances(), self.weighted  # distances first: their temporaries peak before W exists
        out = np.zeros(self.space.n_points)
        for rows, lo, hi in row_blocks(w.indptr):
            out[rows] = np.add.reduceat(g(dist[lo:hi]) * w.data[lo:hi], w.indptr[rows] - lo)
        return out

    def jump_support(self) -> np.ndarray:
        return np.flatnonzero(np.diff(self.matrix.indptr)).astype(np.int64)

    def jump_energy(self, u: np.ndarray, v: np.ndarray) -> float:
        """sum of j(x, y) m(y) m(x) (u(x)-u(y))(v(x)-v(y)) over the stored entries, one run of rows at a time.

        The Gamma formula u v W1 - u Wv - v Wu + W(u v) cancels where u is
        nearly constant over a row's reach; these terms do not.
        """
        w, m = self.weighted, self.space.measure
        counts = np.diff(w.indptr)
        total = 0.0
        for rows, lo, hi in row_blocks(w.indptr):
            x, y = np.repeat(rows, counts[rows]), w.indices[lo:hi]
            du = u[x] - u[y]
            dv = du if v is u else v[x] - v[y]
            total += float(np.sum(w.data[lo:hi] * m[x] * du * dv))
        return total

    def csr(self) -> "JumpKernel":
        return self


def offset_distances(extent: int, dim: int, spacing: float) -> np.ndarray:
    """|k| spacing over the lattice offsets k in [-2E, 2E]^dim, from integer offsets times the spacing."""
    axes = np.meshgrid(*[np.arange(-2 * extent, 2 * extent + 1)] * dim, indexing="ij")
    return np.sqrt(sum((a * spacing) ** 2 for a in axes))


def circulant_embedding(centred: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A stencil over the offsets |k_a| <= c_a (offset k at index c + k) placed at index k mod shape.

    Every shape_a must be at least 2 c_a + 1, so that no two offsets share an index.
    """
    out = np.zeros(shape)
    out[tuple(slice(0, n) for n in centred.shape)] = centred
    # offset k sits at index k mod shape, so the centre (offset 0) moves to index 0
    return np.roll(out, [-(n // 2) for n in centred.shape], axis=tuple(range(centred.ndim)))


def box_convolution(box: np.ndarray, hat: np.ndarray, fft_shape: tuple[int, ...]) -> np.ndarray:
    """sum_k w(k) box[. - k] on the box, where hat is the rfftn of w's `circulant_embedding` in fft_shape.

    No offset wraps around when fft_shape_a >= box_a + c_a, c_a being w's largest offset.
    """
    from scipy import fft as sp_fft

    full = sp_fft.irfftn(sp_fft.rfftn(box, s=fft_shape) * hat, s=fft_shape)
    return full[tuple(slice(0, n) for n in box.shape)]


class StencilKernel(KernelOperator):
    """Translation-invariant kernel j(x, y) = stencil[s(x) - s(y) + 2E] on a lattice box with uniform measure.

    The space's steps s must be the full box {-E..E}^d in row-major order
    (as `_lattice_points` lists it, with the spacing h in meta["spacing"]),
    and stencil holds j once over the offsets [-2E, 2E]^d, so memory is
    O(n). Its unit-offset entries are positive, so every point jumps and
    X^(j) is the whole box. W v is one real FFT product over the circulant
    embedding of the weighted stencil, zero-padded to a fast length >= 4E + 1
    per axis, which no offset of the box wraps around; row_mass is the same
    product applied to 1, and weighted_row_sums(g) the product of the
    stencil times g(|k| h) applied to 1. The CSR kernel is gathered from the
    stencil only by `csr()`.
    """

    def __init__(self, space: DiscreteMMSpace, stencil: np.ndarray):
        from scipy import fft as sp_fft  # here, not at module level: the import adds ~5 MB to every run

        self.space = space
        self.stencil = stencil
        self._csr: Optional[JumpKernel] = None
        self._side = (stencil.shape[0] + 1) // 2  # 2E + 1 points per axis
        self._mass = float(space.measure[0])
        self._fft_shape = tuple(sp_fft.next_fast_len(n, real=True) for n in stencil.shape)
        self._hat = sp_fft.rfftn(circulant_embedding(stencil * self._mass, self._fft_shape))
        self._row_mass: Optional[np.ndarray] = None

    def matvec(self, v: np.ndarray) -> np.ndarray:
        box = np.reshape(v, (self._side,) * self.stencil.ndim)
        return box_convolution(box, self._hat, self._fft_shape).reshape(-1)

    @property
    def row_mass(self) -> np.ndarray:
        if self._row_mass is None:
            self._row_mass = self.matvec(np.ones(self.space.n_points))
        return self._row_mass

    def weighted_row_sums(self, g: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        from scipy import fft as sp_fft

        d = offset_distances(self._side // 2, self.stencil.ndim, self.space.meta["spacing"])
        hat = sp_fft.rfftn(circulant_embedding(self.stencil * g(d) * self._mass, self._fft_shape))
        return box_convolution(np.ones((self._side,) * self.stencil.ndim), hat, self._fft_shape).reshape(-1)

    def jump_support(self) -> np.ndarray:
        return np.arange(self.space.n_points, dtype=np.int64)

    def csr(self) -> JumpKernel:
        """The same kernel as a CSR JumpKernel, gathered from the stencil 512 rows at a time on first call."""
        if self._csr is None:
            steps, centre = self.space.steps, self._side - 1

            def rows(lo: int) -> sp.csr_matrix:  # j(x, y) = stencil[s(x) - s(y) + 2E] for x in the run, every y
                x = slice(lo, lo + 512)
                offsets = tuple(steps[x, None, a] - steps[None, :, a] + centre for a in range(steps.shape[1]))
                return sp.csr_matrix(self.stencil[offsets])

            # the chunk list dies with the vstack call, before the kernel's own checks allocate
            chunks = range(0, len(steps), 512)
            self._csr = JumpKernel(self.space, sp.vstack([rows(lo) for lo in chunks], format="csr"))
        return self._csr

    def __getstate__(self) -> dict:
        return {**vars(self), "_csr": None}  # a pickle keeps the stencil, not a CSR gathered from it

    @property
    def matrix(self) -> sp.csr_matrix:
        # no module of jdlab reads this; benchmark/spans.py's `_on_load` counts a loaded kernel's entries through it
        return self.csr().matrix


@dataclass
class LocalPart:
    """Discretized gradient form on grid / subdivided-edge spaces.

    Symmetric conductances c(x, y) on declared local edges; the pointwise
    density is Gamma_c(u,v)(x) = sum_y c(x,y)(u(x)-u(y))(v(x)-v(y)) and the
    form contribution is (1/2) sum_x Gamma_c(u,v)(x) m(x). Grid builders
    normalize c = 1/(h^2 * deg_local) so Gamma_c(d, d) -> 1 as h -> 0 on a
    line; an O(h) approximation of the continuum object, never exact.
    """

    edges: np.ndarray  # (m, 2) endpoint indices
    conductance: np.ndarray  # (m,) symmetric c values
    spacing: float
    support: np.ndarray  # declared X^(c) point indices

    def __post_init__(self) -> None:
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        self.conductance = np.asarray(self.conductance, dtype=float).reshape(-1)
        self.support = np.asarray(self.support, dtype=np.int64)
        if np.any(self.conductance < 0):
            raise ValueError("conductances must be nonnegative")

    def gamma(self, u: np.ndarray, v: Optional[np.ndarray] = None, n_points: Optional[int] = None) -> np.ndarray:
        """Pointwise Gamma_c(u, v) over all points (zero off local edges)."""
        if v is None:
            v = u
        n = n_points if n_points is not None else int(self.edges.max(initial=-1)) + 1
        out = np.zeros(n)
        i, j = self.edges[:, 0], self.edges[:, 1]
        term = self.conductance * (u[i] - u[j]) * (v[i] - v[j])
        np.add.at(out, i, term)
        np.add.at(out, j, term)
        return out

    def energy(self, measure: np.ndarray, u: np.ndarray, v: Optional[np.ndarray] = None) -> float:
        """(1/2) sum_x Gamma_c(u,v)(x) m(x), assembled edge-wise."""
        if v is None:
            v = u
        i, j = self.edges[:, 0], self.edges[:, 1]
        w = self.conductance * 0.5 * (measure[i] + measure[j])
        return float(np.sum(w * (u[i] - u[j]) * (v[i] - v[j])))

    def form_matrix(self, measure: np.ndarray, n: int) -> sp.csr_matrix:
        """Sparse G_c with u^T G_c v = local energy."""
        i, j = self.edges[:, 0], self.edges[:, 1]
        w = self.conductance * 0.5 * (measure[i] + measure[j])
        rows = np.concatenate([i, j, i, j])
        cols = np.concatenate([j, i, i, j])
        vals = np.concatenate([-w, -w, w, w])
        return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def local_chain(points: np.ndarray, measure: np.ndarray, spacing: float, support=None) -> LocalPart:
    """Finite-difference local part along an ordered 1-D chain of point indices.

    Conductance c = 1/(h^2 * max(deg_i, deg_j)) per consecutive pair, which
    is 1/(2 h^2) away from the chain ends.
    """
    points = np.asarray(points, dtype=np.int64)
    if len(points) < 2:
        return LocalPart(np.empty((0, 2), dtype=np.int64), np.empty(0), spacing, points)
    edges = np.column_stack([points[:-1], points[1:]])
    deg = np.full(len(points), 2.0)
    deg[0] = deg[-1] = 1.0
    cap = np.maximum(deg[:-1], deg[1:])
    cond = 1.0 / (spacing**2 * cap)
    if support is None:
        support = points
    return LocalPart(edges, cond, spacing, np.asarray(support, dtype=np.int64))


def gamma_jump(kernel: KernelOperator, u: np.ndarray, v: Optional[np.ndarray] = None) -> np.ndarray:
    """Gamma_j(u, v)(x) = sum_{y != x} (u(x)-u(y))(v(x)-v(y)) j(x,y) m(y); W u is applied once when v is u."""
    u = np.asarray(u, dtype=float)
    v = u if v is None else np.asarray(v, dtype=float)
    w = kernel.matvec
    wu = w(u)
    wv = wu if v is u else w(v)
    return u * v * kernel.row_mass - u * wv - v * wu + w(u * v)


def energy(
    space: DiscreteMMSpace,
    kernel: Optional[KernelOperator],
    local: Optional[LocalPart],
    u: np.ndarray,
    v: Optional[np.ndarray] = None,
) -> float:
    """E(u, v) = 1/2 int Gamma_c dm + full ordered jump double sum."""
    u = np.asarray(u, dtype=float)
    v = u if v is None else np.asarray(v, dtype=float)
    total = 0.0
    if local is not None:
        total += local.energy(space.measure, u, v)
    if kernel is not None:
        total += kernel.jump_energy(u, v)
    return total


def truncate_kernel(kernel: KernelOperator, a: float) -> JumpKernel:
    """Jump range cut at a: density zeroed where d(x, y) > a."""
    if a <= 0:
        raise ValueError("truncation range a must be positive")
    csr = kernel.csr()
    m = csr.matrix
    dist = csr.pair_distances()
    keep = dist <= a
    data = np.where(keep, m.data, 0.0)
    out = sp.csr_matrix((data, m.indices.copy(), m.indptr.copy()), shape=m.shape)
    # graph-metric distances can differ by an ulp across orientations; zero
    # both entries whenever either side crossed the cut
    return JumpKernel(kernel.space, out.minimum(out.T))


@dataclass
class MConstants:
    """Maxima of the compatibility integrands over the truncation supports."""

    m_c: float
    m_j: float
    argmax_c: Optional[int]
    argmax_j: Optional[int]
    argmax_c_on_boundary: bool = False
    argmax_j_on_boundary: bool = False


def _near_boundary(space: DiscreteMMSpace, x: int) -> bool:
    reach = space.max_distance_from(space.origin)
    if not np.isfinite(reach) or reach == 0:
        return False
    return bool(space.distances_from(space.origin)[x] >= 0.9 * reach)


def m_constants(space: DiscreteMMSpace, kernel: Optional[KernelOperator], local: Optional[LocalPart]) -> MConstants:
    """M_c = max Gamma_c(d,d) over X^(c); M_j = max int (1 ^ d^2) j over X^(j).

    The distance function is d(., origin); away from the origin its local
    increments are what Gamma_c sees, so the base point only perturbs the
    maximum at O(h). Maxima over the truncation, not essential suprema; the
    boundary flags mark arg-max points sitting near the truncation edge
    (evidence that the true supremum may be larger).
    """
    x_c, x_j = support_sets(kernel, local)
    m_c, arg_c = 0.0, None
    if local is not None and len(x_c):
        d_row = space.distances_from(space.origin)
        g = local.gamma(d_row, n_points=space.n_points)
        k = int(np.argmax(g[x_c]))
        m_c, arg_c = float(g[x_c][k]), int(x_c[k])
    m_j, arg_j = 0.0, None
    if len(x_j):
        sums = kernel.weighted_row_sums(lambda d: np.minimum(1.0, d**2))[x_j]
        k = int(np.argmax(sums))
        m_j, arg_j = max(float(sums[k]), 0.0), int(x_j[k])
    return MConstants(
        m_c,
        m_j,
        arg_c,
        arg_j,
        argmax_c_on_boundary=arg_c is not None and _near_boundary(space, arg_c),
        argmax_j_on_boundary=arg_j is not None and _near_boundary(space, arg_j),
    )


def derivation_residual(space: DiscreteMMSpace, kernel: KernelOperator, u: np.ndarray, phi: np.ndarray) -> float:
    """E^(j)(u, u phi) - int u Gamma_j(u, phi) dm - int phi Gamma_j[u] dm.

    Identically zero for every symmetric kernel: this is the exact discrete
    integral-derivation identity in the factor-consistent normalization.
    """
    u = np.asarray(u, dtype=float)
    phi = np.asarray(phi, dtype=float)
    lhs = energy(space, kernel, None, u, u * phi)
    mixed = float(np.dot(u * gamma_jump(kernel, u, phi), space.measure))
    square = float(np.dot(phi * gamma_jump(kernel, u), space.measure))
    return lhs - mixed - square


@dataclass
class RateTable:
    """Jump rates q(x, y) = 2 j(x,y) m(y) and total rates lambda(x)."""

    space: DiscreteMMSpace
    q: sp.csr_matrix
    lam: np.ndarray
    _cum: Optional[np.ndarray] = field(default=None, repr=False)

    def cumulative_rows(self) -> np.ndarray:
        """Per-row cumulative sums of q, aligned with q.data (for sampling)."""
        if self._cum is None:
            cum = self.q.data.copy()
            indptr = self.q.indptr
            for x in range(self.q.shape[0]):
                lo, hi = indptr[x], indptr[x + 1]
                if hi > lo:
                    cum[lo:hi] = np.cumsum(cum[lo:hi])
            self._cum = cum
        return self._cum


def jump_rates(kernel: KernelOperator) -> RateTable:
    """Generator-consistent rate table: <-Lu, v>_m = E^(j)(u, v)."""
    q = (2.0 * kernel.csr().weighted).tocsr()
    lam = np.asarray(q.sum(axis=1)).reshape(-1)
    return RateTable(kernel.space, q, lam)


def form_matrix(
    space: DiscreteMMSpace, kernel: Optional[KernelOperator], local: Optional[LocalPart]
) -> sp.csr_matrix:
    """Sparse symmetric G with u^T G v = energy(space, kernel, local, u, v)."""
    n = space.n_points
    parts = []
    if kernel is not None:
        k = kernel.csr().weighted.multiply(space.measure[:, None]).tocsr()
        d = sp.diags(np.asarray(k.sum(axis=1)).reshape(-1))
        parts.append(2.0 * (d - k))
    if local is not None:
        parts.append(local.form_matrix(space.measure, n))
    if not parts:
        return sp.csr_matrix((n, n))
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return total.tocsr()
