"""Jump kernels, carre-du-champ operators, energies, and the M constants.

Convention pin: the jump form is the full ordered double sum

    E^(j)(u, v) = sum_x sum_{y != x} (u(x)-u(y)) (v(x)-v(y)) j(x,y) m(y) m(x)

with no 1/2 in front, while the local part carries 1/2:

    E(u, v) = 1/2 sum_x Gamma_c(u,v)(x) m(x) + E^(j)(u, v).

Pairing <-Lu, v>_m = E^(j)(u, v) then forces the simulated jump rate
q(x, y) = 2 j(x,y) m(y); only the rate table applies the factor 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .space import DiscreteMMSpace, exactly_symmetric

_BLOCK_NNZ = 1 << 18  # stored entries per run of whole rows (bounds temporaries)
_GATHER_ROWS = 512  # dense rows per block of a gathered CSR kernel (bounds the dense block)
_ITEM_BYTES = 64  # per point, stored kernel entry or stencil offset, a build's temporaries included (measured: 28-58)
_SIZE_BUDGET = 4 << 30  # bytes: the most one build may take by that estimate


def _check_size(fields: str, items: float) -> None:
    """Reject a build or a CSR gather before it allocates if its items (points, stored entries, stencil offsets) exceed the budget."""
    nbytes = items * _ITEM_BYTES
    if not nbytes <= _SIZE_BUDGET:
        raise ValueError(f"{fields}: about {nbytes:.3g} bytes, over the {_SIZE_BUDGET:.3g}-byte budget of one build")


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
    - longest_pair_distance() is the largest d(x, y) over the stored pairs,
      past which g(min(d, r)) stops changing in r; inf where none is kept;
    - jump_support() is X^(j), the points with a positive kernel entry;
    - jump_energy(u, v) is the jump form E^(j)(u, v);
    - csr() is the kernel as a CSR `JumpKernel`, which only the rate table
      and the assembled form matrix ask for; a kernel that is not stored as
      a CSR gathers it afresh on each call and keeps none.
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

    def longest_pair_distance(self) -> float:
        return np.inf

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
        bad = np.flatnonzero(~np.isfinite(m.data))
        if bad.size:
            x = int(np.searchsorted(m.indptr, bad[0], side="right")) - 1
            raise ValueError(f"jump density must be finite: j({x}, {m.indices[bad[0]]}) = {m.data[bad[0]]}")
        if not exactly_symmetric(m):
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

    @classmethod
    def from_dense_rows(cls, space: DiscreteMMSpace, rows: Callable[[np.ndarray], np.ndarray]) -> "JumpKernel":
        """Kernel whose rows idx are the dense block rows(idx) = j(idx, every y), asked for _GATHER_ROWS rows at a time.

        The constructor clears the diagonal, so rows need not zero it.
        """
        idx = np.arange(space.n_points)
        blocks = range(0, space.n_points, _GATHER_ROWS)
        # the block list dies with the vstack call, before the kernel's own checks allocate
        return cls(space, sp.vstack([sp.csr_matrix(rows(idx[lo : lo + _GATHER_ROWS])) for lo in blocks], format="csr"))

    @property
    def weighted(self) -> sp.csr_matrix:
        if self._weighted is None:
            m = self.matrix  # W shares the kernel's indptr and indices, so W.data stays aligned with pair_distances
            self._weighted = sp.csr_matrix((m.data * self.space.measure[m.indices], m.indices, m.indptr), shape=m.shape)
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

    def longest_pair_distance(self) -> float:
        """max d(x, y) over the stored entries (0 for the empty kernel; inf across components)."""
        return float(self.pair_distances().max(initial=0.0))

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


def _fast_len(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, scipy.fft.next_fast_len(n, real=True)."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # times the least power of two that reaches n
            best, p35 = min(best, p35 << (-(-n // p35) - 1).bit_length()), p35 * 3
        p5 *= 5
    return best


def _rfftn(x: np.ndarray, shape: Optional[tuple] = None) -> np.ndarray:
    """scipy.fft.rfftn(x, s=shape) bit for bit: the last axis, then the others in increasing order (np.fft.rfftn reverses them)."""
    shape = shape or x.shape
    y = np.fft.rfft(x, n=shape[-1], axis=-1)
    for axis in range(len(shape) - 1):
        y = np.fft.fft(y, n=shape[axis], axis=axis)
    return y


def _irfftn(y: np.ndarray, shape: tuple) -> np.ndarray:
    """scipy.fft.irfftn(y, s=shape) bit for bit: unscaled, the other axes in increasing order, then the last; then 1/N once."""
    for axis in range(len(shape) - 1):
        y = np.fft.ifft(y, n=shape[axis], axis=axis, norm="forward")
    x = np.fft.irfft(y, n=shape[-1], axis=-1, norm="forward")
    x *= float(1 / np.longdouble(math.prod(shape)))  # 1/N rounded from long double, as scipy's pocketfft takes it
    return x


class _Convolution:
    """x -> sum_y w(s(x) - s(y)) x(y) over points with integer steps s, for a centred stencil w (offset k at index c + k).

    x is scattered into the points' bounding box, of side L_a per axis, and
    gathered back after one real FFT product: w is cut to the offsets
    |k_a| < L_a and placed at index k mod fft_shape in its circulant
    embedding, zero-padded to a fast length >= 2 L_a - 1, so nothing wraps.
    """

    def __init__(self, weights: np.ndarray, steps: np.ndarray):
        corner = steps.min(axis=0)
        self.at = tuple((steps - corner).T)  # the points' places in their bounding box
        self.box = tuple(int(n) + 1 for n in steps.max(axis=0) - corner)
        self.fft_shape = tuple(_fast_len(2 * n - 1) for n in self.box)
        cut = weights[tuple(slice(c // 2 - n + 1, c // 2 + n) for c, n in zip(weights.shape, self.box))]
        padded = np.zeros(self.fft_shape)
        padded[tuple(slice(0, c) for c in cut.shape)] = cut
        # offset k sits at index k mod fft_shape, so the centre (offset 0) moves to index 0
        self.embedded = np.roll(padded, [1 - n for n in self.box], axis=tuple(range(len(self.box))))
        self.hat = _rfftn(self.embedded)

    def scatter(self, x: np.ndarray) -> np.ndarray:
        """x on the points, 0 elsewhere in the bounding box."""
        grid = np.zeros(self.box)
        grid[self.at] = np.reshape(x, -1)
        return grid

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return _irfftn(_rfftn(self.scatter(x), self.fft_shape) * self.hat, self.fft_shape)[self.at]


class StencilKernel(KernelOperator):
    """Translation-invariant kernel j(x, y) = f(|x - y|) on points of a lattice, with uniform measure m.

    The space's steps s are two or more distinct integer points inside
    their bounding box (side L_a per axis), in any order. Its coordinates
    must be exactly s @ B, for the basis B read off the points at the unit
    steps e_a: h I on hZ^d, the triangular basis on the gasket. f is
    evaluated once, as the stencil j over the offsets |k_a| < L_a at the
    distance |k @ B| (0 at k = 0), the space's `axis_norm`, so memory is O(box)
    and where k @ B are exact coordinate differences `csr()` is the
    pairwise build bit for bit. The unit-offset entries must be positive
    and the points connected through unit steps, so X^(j) is every point;
    a full box is connected, a proper mask runs connected_components. W v is one
    `_Convolution` by m j, and weighted_row_sums(g) the convolution of the
    points' indicator by m j g(|k @ B|).
    The kernel holds only its space, its stencil and its FFT state: `csr()`
    gathers an O(n^2) CSR kernel afresh on each call, and nothing keeps it;
    its n (n - 1) entries are charged to the size gate first.
    """

    def __init__(self, space: DiscreteMMSpace, f: Callable[[np.ndarray], np.ndarray]):
        steps, n = space.steps, space.n_points
        if steps is None or steps.dtype.kind not in "iu" or n < 2:
            raise ValueError("a stencil kernel needs integer steps for two or more points")
        corner = steps.min(axis=0)
        self._box = tuple(int(s) + 1 for s in steps.max(axis=0) - corner)
        ids = np.full(self._box, -1)  # the point at each step of the box, -1 where there is none
        ids[tuple((steps - corner).T)] = np.arange(n)
        if np.count_nonzero(ids >= 0) < n:
            raise ValueError("a stencil kernel needs distinct steps")
        units = np.eye(len(self._box), dtype=np.int64)
        unit_ids = np.concatenate([np.flatnonzero((steps == e).all(axis=1)) for e in units])
        if len(unit_ids) < len(units):
            raise ValueError("a stencil kernel needs the points at the unit steps e_a, whose coordinates are its basis B")
        basis = None if space.metric_kind == "graph" or space.coords is None else space.coords[unit_ids]
        if basis is None or not np.array_equal(space.coords, np.dot(steps, basis)):
            raise ValueError("a stencil kernel needs a coordinate metric and coordinates equal to steps @ B")
        if not np.all(space.measure == space.measure[0]):
            raise ValueError("a stencil kernel needs a uniform measure")
        self.space, self._basis = space, basis
        d = self._offset_distances()
        at_units = tuple((np.subtract(self._box, 1) + units).T)
        # the unit steps' lengths from B scaled by powers of two, which (k B)^2 cannot under- or overflow
        scale = 2.0 ** np.frexp(np.abs(basis).max(axis=1))[1]
        if not (np.array_equal(d[at_units], space.norm(basis / scale[:, None]) * scale) and np.isfinite(d).all()):
            h = np.abs(basis).max()  # the spacing of the lattice hZ^d, where B = h I
            raise ValueError(f"the offset distances |k B| lose digits at the lattice spacing h = {h:g}: (k B)^2 under- or overflows")
        self.stencil = np.array(np.broadcast_to(f(d), d.shape), dtype=float)  # a stencil of the wrong shape raises ValueError
        self.stencil[tuple(np.subtract(self._box, 1))] = 0.0  # j vanishes on the diagonal
        if not np.isfinite(self.stencil).all():
            raise ValueError("stencil kernel entries must be finite")
        if not (self.stencil[at_units] > 0).all():
            raise ValueError("the stencil's unit-offset entry must be positive on every axis, so that the points are connected")
        if n < ids.size:  # a proper mask: the components of its points one unit step apart
            pairs = [(g[:-1], g[1:]) for g in (np.moveaxis(ids, a, 0) for a in range(ids.ndim))]
            edges = np.concatenate([np.stack([p, q])[:, (p >= 0) & (q >= 0)] for p, q in pairs], axis=1)
            if connected_components(sp.csr_matrix((np.ones(edges.shape[1]), tuple(edges)), (n, n)), directed=False)[0] > 1:
                raise ValueError("a stencil kernel's points must be connected through unit steps")
        self._mass = float(space.measure[0])
        self._conv = _Convolution(self.stencil * self._mass, steps)
        self._row_mass: Optional[np.ndarray] = None

    def _offset_distances(self) -> np.ndarray:
        """|k B| over the offsets |k_a| < L_a: the space's per-axis norm of the components of k B.

        Component c of k B is the sum over a of the offsets k_a, one axis of
        the box each, times B[a, c], with the zero entries of B left out, so
        it spans only the axes it depends on, and the norm broadcasts the
        components to the box one at a time.
        """
        basis = self._basis
        axes = np.ix_(*(np.arange(1 - n, n) for n in self._box))  # the offsets k_a, each along its own axis

        def component(c: int) -> np.ndarray:
            terms = [k * basis[a, c] for a, k in enumerate(axes) if basis[a, c] != 0]
            return sum(terms[1:], terms[0]) if terms else np.zeros(1)

        with np.errstate(over="ignore", under="ignore"):  # the constructor's check names the lost digits
            return np.broadcast_to(self.space.axis_norm(component, basis.shape[1]), [k.size for k in axes])

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self._conv(v)

    @property
    def row_mass(self) -> np.ndarray:
        if self._row_mass is None:
            self._row_mass = self.matvec(np.ones(self.space.n_points))
        return self._row_mass

    def weighted_row_sums(self, g: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """g is evaluated only where the stencil is nonzero, the entries the CSR twin stores (so not at d = 0)."""
        stored = self.stencil != 0
        weights = np.zeros_like(self.stencil)
        weights[stored] = self.stencil[stored] * g(self._offset_distances()[stored]) * self._mass
        return _Convolution(weights, self.space.steps)(np.ones(self.space.n_points))

    def jump_support(self) -> np.ndarray:
        return np.arange(self.space.n_points, dtype=np.int64)

    def free_operator(self, free_idx: np.ndarray) -> "_FreeOperator":
        return _FreeOperator(self, free_idx)  # the jump form on the points free_idx, with a circulant preconditioner

    def csr(self) -> JumpKernel:
        """The same kernel as a CSR JumpKernel, gathered afresh from the stencil on each call."""
        n = self.space.n_points
        _check_size(f"the CSR of a stencil kernel on {n} points holds {n * (n - 1):.3g} entries", n * (n - 1))
        steps, centre = self.space.steps, np.subtract(self._box, 1)

        def rows(x: np.ndarray) -> np.ndarray:  # j(x, y) = stencil[s(x) - s(y) + L - 1] for every y
            return self.stencil[tuple(steps[x, a, None] - steps[:, a] + centre[a] for a in range(steps.shape[1]))]

        return JumpKernel.from_dense_rows(self.space, rows)


class _FreeOperator(spla.LinearOperator):
    """The jump form matrix A = 2 (diag(m row_mass) - m W) of a stencil kernel on the free points.

    A matvec is one `_Convolution` by the weighted stencil w over the free
    points, in their bounding box of side L_a per axis. `precond` applies
    the inverse of T. Chan's optimal circulant C on the box for
    A_ext = A (+) mean(diag) I, which extends A by its mean diagonal to the
    box's other points. C's eigenvalue at each Fourier vector f of the box
    is f* A_ext f, positive since A_ext is positive definite; over the box's
    N points they are mean(diag) - (2m / N) FFT(fold_L(w a)), where a(k)
    counts the free pairs at offset k (the mask's autocorrelation) and
    fold_L sums offsets mod L.
    """

    def __init__(self, kernel: StencilKernel, free_idx: np.ndarray):
        super().__init__(float, (free_idx.size, free_idx.size))
        self._scale = 2.0 * kernel._mass
        self._diag = kernel.diag()[free_idx]
        self._conv = conv = _Convolution(kernel.stencil * kernel._mass, kernel.space.steps[free_idx])
        mask = _rfftn(conv.scatter(np.ones(free_idx.size)), conv.fft_shape)
        autocorrelation = np.rint(_irfftn(mask * mask.conj(), conv.fft_shape))
        folded = conv.embedded * autocorrelation
        for axis, n in enumerate(conv.box):  # offset k sits at index k mod fft_shape; sum it into k mod L
            folded = np.moveaxis(folded, axis, 0)
            head = folded[:n].copy()
            head[1:] += folded[folded.shape[0] - n + 1 :]
            folded = np.moveaxis(head, 0, axis)
        self.eigenvalues = self._diag.mean() - self._scale / folded.size * _rfftn(folded).real
        self.precond = spla.LinearOperator(self.shape, matvec=self._precond_solve, dtype=float)

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        return self._diag * np.reshape(x, -1) - self._scale * self._conv(x)

    def _precond_solve(self, r: np.ndarray) -> np.ndarray:
        return _irfftn(_rfftn(self._conv.scatter(r)) / self.eigenvalues, self._conv.box)[self._conv.at]


@dataclass
class LocalPart:
    """Discretized gradient form on grid / subdivided-edge spaces.

    Symmetric conductances c(x, y) on declared local edges of its space; the
    pointwise density is Gamma_c(u,v)(x) = sum_y c(x,y)(u(x)-u(y))(v(x)-v(y))
    and the form contribution is (1/2) sum_x Gamma_c(u,v)(x) m(x), which is
    sum over edges of c (m_x + m_y)/2 (u(x)-u(y))(v(x)-v(y)). Grid builders
    normalize c = 1/(h^2 * deg_local) so Gamma_c(d, d) -> 1 as h -> 0 on a
    line; an O(h) approximation of the continuum object, never exact.
    """

    space: DiscreteMMSpace
    edges: np.ndarray  # (m, 2) endpoint indices
    conductance: np.ndarray  # (m,) symmetric c values
    support: np.ndarray  # declared X^(c) point indices

    def __post_init__(self) -> None:
        self.edges = self.space.point_ids("each point id of the local edges", self.edges).reshape(-1, 2)
        self.conductance = np.asarray(self.conductance, dtype=float).reshape(-1)
        self.support = self.space.point_ids("each point id of the local support", self.support)
        if len(self.conductance) != len(self.edges):
            raise ValueError(f"conductance gives {len(self.conductance)} values for {len(self.edges)} local edges: one per edge")
        if np.any(self.conductance < 0):
            raise ValueError("conductances must be nonnegative")

    @cached_property
    def weight(self) -> np.ndarray:
        """c (m_x + m_y)/2 per edge, computed on first use: what `energy` and `form_matrix` weigh each edge by."""
        m = self.space.measure
        return self.conductance * 0.5 * (m[self.edges[:, 0]] + m[self.edges[:, 1]])

    def gamma(self, u: np.ndarray) -> np.ndarray:
        """Pointwise Gamma_c(u, u) over every point of the space (zero off local edges)."""
        out = np.zeros(self.space.n_points)
        i, j = self.edges[:, 0], self.edges[:, 1]
        du = u[i] - u[j]
        term = self.conductance * du * du
        np.add.at(out, i, term)
        np.add.at(out, j, term)
        return out

    def energy(self, u: np.ndarray, v: Optional[np.ndarray] = None) -> float:
        """(1/2) sum_x Gamma_c(u,v)(x) m(x), assembled edge-wise."""
        if v is None:
            v = u
        i, j = self.edges[:, 0], self.edges[:, 1]
        return float(np.sum(self.weight * (u[i] - u[j]) * (v[i] - v[j])))

    def form_matrix(self) -> sp.csr_matrix:
        """Sparse G_c with u^T G_c v = local energy."""
        i, j, w = self.edges[:, 0], self.edges[:, 1], self.weight
        rows = np.concatenate([i, j, i, j])
        cols = np.concatenate([j, i, i, j])
        vals = np.concatenate([-w, -w, w, w])
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.space.n_points,) * 2)


def local_chain(space: DiscreteMMSpace, points: np.ndarray, spacing: float) -> LocalPart:
    """Finite-difference local part along an ordered 1-D chain of point indices of space.

    Conductance c = 1/(h^2 * max(deg_i, deg_j)) per consecutive pair: every
    edge has an end of degree 2, so c = 1/(2 h^2), except on a chain of two
    points, where c = 1/h^2.
    """
    points = np.asarray(points, dtype=np.int64)
    edges = np.column_stack([points[:-1], points[1:]])
    if len(points) < 2:  # no edge; and h^2 may overflow where one point fills the truncation
        return LocalPart(space, edges, np.empty(0), points)
    cap = 1.0 if len(points) == 2 else 2.0
    return LocalPart(space, edges, np.full(len(edges), 1.0 / (spacing**2 * cap)), points)


@dataclass(frozen=True)
class BuiltInstance:
    """One form on one space: a jump kernel, and a local part on the kernel's space where there is one."""

    kernel: KernelOperator
    local: Optional[LocalPart] = None

    def __post_init__(self) -> None:
        if self.local is not None and self.local.space is not self.kernel.space:
            raise ValueError(
                f"the local part's space ({self.local.space.n_points} points) "
                f"is not the kernel's space ({self.kernel.space.n_points} points)"
            )

    @property
    def space(self) -> DiscreteMMSpace:
        """The kernel's space, which the local part shares: an instance holds no other."""
        return self.kernel.space


def support_sets(built: BuiltInstance) -> tuple[np.ndarray, np.ndarray]:
    """X^(c) (local support) and X^(j) (jump support) of the instance.

    X^(j) is every point with at least one positive kernel entry; X^(c) is
    the local part's declared support (grid spaces: all points on a
    positive-conductance local edge; subdivided metric graphs: edge
    interiors only, since vertex atoms carry no absolutely continuous local
    energy density).
    """
    x_c = np.array([], dtype=np.int64) if built.local is None else built.local.support
    return x_c, built.kernel.jump_support()


def gamma_jump(kernel: KernelOperator, u: np.ndarray, v: Optional[np.ndarray] = None) -> np.ndarray:
    """Gamma_j(u, v)(x) = sum_{y != x} (u(x)-u(y))(v(x)-v(y)) j(x,y) m(y); W u is applied once when v is u."""
    u = np.asarray(u, dtype=float)
    v = u if v is None else np.asarray(v, dtype=float)
    w = kernel.matvec
    wu = w(u)
    wv = wu if v is u else w(v)
    return u * v * kernel.row_mass - u * wv - v * wu + w(u * v)


def energy(built: BuiltInstance, u: np.ndarray, v: Optional[np.ndarray] = None) -> float:
    """E(u, v) = 1/2 int Gamma_c dm + full ordered jump double sum, over the instance's space."""
    u = np.asarray(u, dtype=float)
    v = u if v is None else np.asarray(v, dtype=float)
    e_local = 0.0 if built.local is None else built.local.energy(u, v)
    return e_local + built.kernel.jump_energy(u, v)


@dataclass
class MConstants:
    """Maxima of the compatibility integrands over the truncation supports."""

    m_c: float
    m_j: float
    argmax_c: Optional[int]
    argmax_j: Optional[int]


def m_constants(built: BuiltInstance) -> MConstants:
    """M_c = max Gamma_c(d,d) over X^(c); M_j = max int (1 ^ d^2) j over X^(j), over the instance's space.

    The distance function is d(., origin); away from the origin its local
    increments are what Gamma_c sees, so the base point only perturbs the
    maximum at O(h). Maxima over the truncation, not essential suprema, so
    where an integrand grows toward the truncation edge the true supremum is
    larger. Each arg-max is the first maximising point (np.argmax): under
    ties its position says nothing about where the maximum sits.
    """
    space = built.space
    x_c, x_j = support_sets(built)
    m_c, arg_c = 0.0, None
    if len(x_c):
        g = built.local.gamma(space.distances_from(space.origin))
        k = int(np.argmax(g[x_c]))
        m_c, arg_c = float(g[x_c][k]), int(x_c[k])
    m_j, arg_j = 0.0, None
    if len(x_j):
        sums = built.kernel.weighted_row_sums(lambda d: np.minimum(1.0, d**2))[x_j]
        k = int(np.argmax(sums))
        m_j, arg_j = max(float(sums[k]), 0.0), int(x_j[k])
    return MConstants(m_c, m_j, arg_c, arg_j)


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
            lens = np.diff(indptr)
            # one in-place cumsum per run of consecutive rows of equal length, on a view of cum
            bounds = np.concatenate(([0], np.flatnonzero(np.diff(lens)) + 1, [len(lens)]))
            for a, b in zip(bounds[:-1], bounds[1:]):
                if b > a and lens[a] > 1:
                    block = cum[indptr[a] : indptr[b]].reshape(b - a, lens[a])
                    np.cumsum(block, axis=1, out=block)
            self._cum = cum
        return self._cum


def jump_rates(kernel: KernelOperator) -> RateTable:
    """Generator-consistent rate table: <-Lu, v>_m = E^(j)(u, v)."""
    q = (2.0 * kernel.csr().weighted).tocsr()
    lam = np.asarray(q.sum(axis=1)).reshape(-1)
    return RateTable(kernel.space, q, lam)


def form_matrix(built: BuiltInstance) -> sp.csr_matrix:
    """Sparse symmetric G with u^T G v = energy(built, u, v), over the instance's space."""
    k = built.kernel.csr().weighted.multiply(built.space.measure[:, None]).tocsr()
    g = sp.diags(np.asarray(k.sum(axis=1)).reshape(-1)) - k
    g.data *= 2.0  # in place: 2.0 * g would copy G
    if built.local is not None:
        g = g + built.local.form_matrix()
    return g.tocsr()
