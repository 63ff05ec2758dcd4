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

from .space import DiscreteMMSpace, support_sets

_PAIR_CHUNK = 256  # graph-metric distance rows per Dijkstra call
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


def max_row_sum(mat: sp.csr_matrix, factor: Callable[[int, int], np.ndarray]) -> tuple[float, Optional[int]]:
    """Largest row sum of factor(lo, hi) * mat.data[lo:hi] and its first row; (-inf, None) if none."""
    best, arg = -np.inf, None
    for rows, lo, hi in row_blocks(mat.indptr):
        sums = np.add.reduceat(factor(lo, hi) * mat.data[lo:hi], mat.indptr[rows] - lo)
        k = int(np.argmax(sums))
        if sums[k] > best:
            best, arg = float(sums[k]), int(rows[k])
    return best, arg


class JumpKernel:
    """Symmetric off-diagonal jump density j(x, y) w.r.t. m (x) m.

    Stored as a sparse matrix over the truncation. `pair_distances` (same
    sparsity pattern as the density) is computed lazily from the space
    metric when an operation needs d(x, y) on the kernel support.
    """

    def __init__(self, space: DiscreteMMSpace, matrix, pair_distances: Optional[np.ndarray] = None):
        self.space = space
        m = sp.csr_matrix(matrix, dtype=float, shape=(space.n_points, space.n_points))
        m.setdiag(0.0)
        m.eliminate_zeros()
        if (abs(m - m.T)).nnz != 0:
            raise ValueError("jump density must be exactly symmetric")
        if m.nnz and m.data.min() < 0:
            raise ValueError("jump density must be nonnegative")
        self.matrix = m
        self._pair_d = pair_distances
        self._weighted: Optional[sp.csr_matrix] = None  # W = j(x,y) m(y)
        self._row_mass: Optional[np.ndarray] = None  # sum_y j(x,y) m(y)

    @classmethod
    def from_entries(cls, space: DiscreteMMSpace, rows, cols, values) -> "JumpKernel":
        """Symmetrized kernel from (i, j, value) triples; both orientations set."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=float)
        if np.any(rows == cols):
            raise ValueError("diagonal kernel entries are not allowed")
        n = space.n_points
        m = sp.csr_matrix((values, (rows, cols)), shape=(n, n))
        mt = sp.csr_matrix((values, (cols, rows)), shape=(n, n))
        sym = m.maximum(mt)
        return cls(space, sym)

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

    def pair_distances(self) -> np.ndarray:
        """d(x, y) aligned with self.matrix.data (CSR order)."""
        if self._pair_d is None:
            m = self.matrix
            counts = np.diff(m.indptr)
            out = np.empty(m.nnz)
            if self.space.metric_kind == "graph":
                chunks = self.space.distances_chunked(np.flatnonzero(counts), chunk=_PAIR_CHUNK)
                for idx, dist_rows in chunks:
                    lo, hi = m.indptr[idx[0]], m.indptr[idx[-1] + 1]
                    local_rows = np.repeat(np.arange(len(idx)), counts[idx])
                    out[lo:hi] = dist_rows[local_rows, m.indices[lo:hi]]
            else:
                for rows, lo, hi in row_blocks(m.indptr):
                    out[lo:hi] = self.space.pair_distances(np.repeat(rows, counts[rows]), m.indices[lo:hi])
            self._pair_d = out
        return self._pair_d

    def density(self, x: int, y: int) -> float:
        return float(self.matrix[x, y])

    def total_rate(self, x: int) -> float:
        """lambda(x) = 2 sum_y j(x,y) m(y)."""
        return 2.0 * float(self.row_mass[x])

    def max_row_mass(self) -> float:
        return float(self.row_mass.max()) if self.space.n_points else 0.0


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


def gamma_jump(kernel: JumpKernel, u: np.ndarray, v: Optional[np.ndarray] = None) -> np.ndarray:
    """Gamma_j(u, v)(x) = sum_{y != x} (u(x)-u(y))(v(x)-v(y)) j(x,y) m(y)."""
    u = np.asarray(u, dtype=float)
    v = u if v is None else np.asarray(v, dtype=float)
    w = kernel.weighted
    s = kernel.row_mass
    return u * v * s - u * (w @ v) - v * (w @ u) + w @ (u * v)


def energy(
    space: DiscreteMMSpace,
    kernel: Optional[JumpKernel],
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
        total += float(np.dot(gamma_jump(kernel, u, v), space.measure))
    return total


def truncate_kernel(kernel: JumpKernel, a: float) -> JumpKernel:
    """Jump range cut at a: density zeroed where d(x, y) > a."""
    if a <= 0:
        raise ValueError("truncation range a must be positive")
    m = kernel.matrix
    dist = kernel.pair_distances()
    keep = dist <= a
    data = np.where(keep, m.data, 0.0)
    out = sp.csr_matrix((data, m.indices.copy(), m.indptr.copy()), shape=m.shape)
    # graph-metric distances can differ by an ulp across orientations; zero
    # both entries whenever either side crossed the cut
    out = out.minimum(out.T).tocsr()
    out.eliminate_zeros()
    return JumpKernel(kernel.space, out)


@dataclass
class MConstants:
    """Maxima of the compatibility integrands over the truncation supports."""

    m_c: float
    m_j: float
    argmax_c: Optional[int]
    argmax_j: Optional[int]
    argmax_c_on_boundary: bool = False
    argmax_j_on_boundary: bool = False

    def __iter__(self):
        return iter((self.m_c, self.m_j))


def _near_boundary(space: DiscreteMMSpace, x: int) -> bool:
    reach = space.max_distance_from(space.origin)
    if not np.isfinite(reach) or reach == 0:
        return False
    return bool(space.distances_from(space.origin)[x] >= 0.9 * reach)


def m_constants(space: DiscreteMMSpace, kernel: Optional[JumpKernel], local: Optional[LocalPart]) -> MConstants:
    """M_c = max Gamma_c(d,d) over X^(c); M_j = max int (1 ^ d^2) j over X^(j).

    The distance function is d(., origin); away from the origin its local
    increments are what Gamma_c sees, so the base point only perturbs the
    maximum at O(h). Maxima over the truncation, not essential suprema; the
    boundary flags mark arg-max points sitting near the truncation edge
    (evidence that the true supremum may be larger).
    """
    x_c, _ = support_sets(kernel, local)
    m_c, arg_c = 0.0, None
    if local is not None and len(x_c):
        d_row = space.distances_from(space.origin)
        g = local.gamma(d_row, n_points=space.n_points)
        k = int(np.argmax(g[x_c]))
        m_c, arg_c = float(g[x_c][k]), int(x_c[k])
    m_j, arg_j = 0.0, None
    if kernel is not None and kernel.matrix.nnz:
        dist = kernel.pair_distances()
        best, arg_j = max_row_sum(kernel.weighted, lambda lo, hi: np.minimum(1.0, dist[lo:hi] ** 2))
        m_j = max(best, 0.0)
    return MConstants(
        m_c,
        m_j,
        arg_c,
        arg_j,
        argmax_c_on_boundary=arg_c is not None and _near_boundary(space, arg_c),
        argmax_j_on_boundary=arg_j is not None and _near_boundary(space, arg_j),
    )


def derivation_residual(space: DiscreteMMSpace, kernel: JumpKernel, u: np.ndarray, phi: np.ndarray) -> float:
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


def jump_rates(kernel: JumpKernel) -> RateTable:
    """Generator-consistent rate table: <-Lu, v>_m = E^(j)(u, v)."""
    q = (2.0 * kernel.weighted).tocsr()
    lam = np.asarray(q.sum(axis=1)).reshape(-1)
    return RateTable(kernel.space, q, lam)


def form_matrix(
    space: DiscreteMMSpace, kernel: Optional[JumpKernel], local: Optional[LocalPart]
) -> sp.csr_matrix:
    """Sparse symmetric G with u^T G v = energy(space, kernel, local, u, v)."""
    n = space.n_points
    parts = []
    if kernel is not None:
        k = kernel.weighted.multiply(space.measure[:, None]).tocsr()
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
