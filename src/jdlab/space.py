"""Discrete metric measure spaces.

A space here is a finite truncation of an intended infinite state space: a
point set with a strictly positive measure, a metric (either induced by
point coordinates or by shortest paths on a weighted graph), and, where it
makes sense, an auxiliary graph distance rho. Weighted graphs get the
standard adapted distance with edge length

    sigma(x, y) = min(deg(x)^{-1/2}, deg(y)^{-1/2}, 1),
    deg(x) = (1/mu(x)) * sum_{y ~ x} omega(x, y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

# Euclidean / l1 norms act on all coordinate columns; "stack" treats the last
# column as a layer index: d = |p(x)-p(y)|_2 + |q(x)-q(y)|. Each is summed
# axis by axis, in axis order.
_COORD_METRICS = ("euclidean", "l1", "stack")

ROW_CACHE_LIMIT = 64  # cached single-source distance rows per space
_SEARCH_CHUNK = 64  # sources per bounded Dijkstra call (bounds the dense output)


class UnsupportedOperation(RuntimeError):
    """Requested quantity is not defined on this space (e.g. no rho)."""


@dataclass
class GraphData:
    """Locally finite weighted graph: symmetric edge weights and a vertex measure."""

    n_vertices: int
    edges: np.ndarray  # (m, 2) int array of endpoint indices
    weights: np.ndarray  # (m,) nonnegative edge weights omega(x, y)
    vertex_measure: np.ndarray  # (n,) positive mu

    def __post_init__(self) -> None:
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        self.vertex_measure = np.asarray(self.vertex_measure, dtype=float).reshape(-1)
        if len(self.weights) != len(self.edges):
            raise ValueError("edges and weights length mismatch")
        if len(self.vertex_measure) != self.n_vertices:
            raise ValueError("vertex_measure length mismatch")
        if np.any(self.weights < 0):
            raise ValueError("edge weights must be nonnegative")
        if np.any(self.vertex_measure <= 0):
            raise ValueError("vertex measure must be strictly positive")
        if np.any(self.edges[:, 0] == self.edges[:, 1]):
            raise ValueError("self loops are not allowed (omega(x,x)=0)")
        # the CSR metric and rho graphs would sum a repeated edge's lengths into one edge
        pairs = np.sort(self.edges, axis=1)
        pairs = pairs[np.lexsort(pairs.T[::-1])]
        repeat = pairs[1:][(pairs[1:] == pairs[:-1]).all(axis=1)]
        if len(repeat):
            raise ValueError(f"edge {tuple(repeat[0].tolist())} is listed more than once (in either orientation)")

    @classmethod
    def from_weight_matrix(cls, w, vertex_measure) -> "GraphData":
        """Build from a (possibly sparse) symmetric weight matrix."""
        w = sp.csr_matrix(w)
        if (abs(w - w.T)).nnz != 0:
            raise ValueError("edge weight matrix must be symmetric")
        coo = sp.triu(w, k=1).tocoo()
        edges = np.column_stack([coo.row, coo.col])
        return cls(w.shape[0], edges, coo.data, np.asarray(vertex_measure, dtype=float))

    def degree(self) -> np.ndarray:
        """deg(x) = (1/mu) sum of incident omega."""
        deg = np.zeros(self.n_vertices)
        np.add.at(deg, self.edges[:, 0], self.weights)
        np.add.at(deg, self.edges[:, 1], self.weights)
        return deg / self.vertex_measure

    def adapted_lengths(self) -> np.ndarray:
        """Adapted edge lengths sigma(x,y) = min(deg(x)^{-1/2}, deg(y)^{-1/2}, 1), one per edge.

        Vertices with zero adapted degree still get sigma = 1 through the
        cap, but structurally isolated vertices (no incident edge at all)
        have no finite distance to the rest and are rejected.
        """
        n = self.n_vertices
        if n == 0:
            raise ValueError("empty graph")
        incident = np.zeros(n, dtype=bool)
        incident[self.edges.reshape(-1)] = True
        if n > 1 and not incident.all():
            bad = int(np.flatnonzero(~incident)[0])
            raise ValueError(
                f"vertex {bad} has no incident edge: sigma is undefined there "
                "(adapted distance cannot reach it)"
            )
        deg = self.degree()
        with np.errstate(divide="ignore"):
            inv_sqrt = 1.0 / np.sqrt(deg)  # +inf where deg == 0, removed by the cap
        i, j = self.edges[:, 0], self.edges[:, 1]
        return np.minimum(np.minimum(inv_sqrt[i], inv_sqrt[j]), 1.0)


def exactly_symmetric(m: sp.csr_matrix) -> bool:
    """m equals its transpose entry for entry; m must be canonical (sorted indices, no duplicates)."""
    mt = m.T.tocsr()
    return (
        np.array_equal(m.indptr, mt.indptr)
        and np.array_equal(m.indices, mt.indices)
        and np.array_equal(m.data, mt.data)
    )


class DiscreteMMSpace:
    """Finite metric measure space with positive measure and cached metric rows.

    The metric is either coordinate-induced (`metric_kind` in
    {"euclidean", "l1", "stack"}) or shortest-path over positive edge
    lengths (`metric_kind == "graph"`). rho, when present, is an auxiliary
    graph distance (integer on vertices, interpolated on subdivision points).
    Metric and rho graphs are canonical CSR matrices (sorted indices, no
    duplicates) and must be exactly symmetric.
    """

    def __init__(
        self,
        measure,
        *,
        coords=None,
        metric_kind: str = "euclidean",
        metric_graph: Optional[sp.csr_matrix] = None,
        steps=None,
        rho_graph: Optional[sp.csr_matrix] = None,
        origin: int = 0,
        truncation_radius: float = float("inf"),
    ):
        self.measure = np.asarray(measure, dtype=float).reshape(-1)
        if np.any(self.measure <= 0):
            raise ValueError("measure must be strictly positive at every point")
        if not np.isfinite(self.measure).all():
            raise ValueError("measure must be finite at every point")
        self.n_points = len(self.measure)
        if self.n_points < 1:
            raise ValueError("a space needs at least one point")
        # a private, read-only copy: the per-axis columns derived from it cannot go stale
        self.coords = None if coords is None else _per_point("coords", np.array(coords, dtype=float), self.n_points)
        if self.coords is not None:
            self.coords.flags.writeable = False
        self.metric_kind = metric_kind
        self.metric_graph = metric_graph
        self.steps = None if steps is None else _per_point("steps", np.asarray(steps), self.n_points)
        self.rho_graph = rho_graph
        self.origin = int(origin)
        if not 0 <= self.origin < self.n_points:
            raise ValueError(f"origin {self.origin} is not a point id in [0, {self.n_points})")
        self.truncation_radius = float(truncation_radius)
        self._row_cache: dict[int, np.ndarray] = {}
        self._rho_cache: dict[int, np.ndarray] = {}
        for name, graph in (("metric", metric_graph), ("rho", rho_graph)):
            # the searches pass directed=True, which is exact only on a symmetric graph
            if graph is not None and not exactly_symmetric(graph):
                raise ValueError(f"{name} graph must be exactly symmetric")
        if metric_kind == "graph":
            if metric_graph is None:
                raise ValueError("graph metric requires an edge-length matrix")
        elif metric_kind not in _COORD_METRICS:
            raise ValueError(f"unknown metric kind {metric_kind!r}")
        elif self.coords is None or self.coords.shape[1] == 0:
            raise ValueError("coordinate metric requires coords with at least one column")

    # -- metric ---------------------------------------------------------

    @cached_property
    def _columns(self) -> tuple[np.ndarray, ...]:
        """The coordinate columns, each contiguous."""
        return tuple(np.ascontiguousarray(c) for c in self.coords.T)

    def axis_norm(self, diff_at: Callable[[int], np.ndarray], n_axes: int) -> np.ndarray:
        """Coordinate-metric length from the per-axis differences diff_at(a), a < n_axes, broadcast together.

        The one formula for coordinate distances: squares (euclidean) or
        absolute values (l1) summed in axis order; the stack sums the squares
        of all but the last axis, takes the root and adds the absolute layer
        gap. Rows, pairs and a stencil kernel's offset distances all evaluate
        it, so they agree bit for bit. No (..., n_axes) array is formed.
        """
        if n_axes < 1:
            raise ValueError("a coordinate metric needs at least one axis")
        kind = self.metric_kind
        total = None
        for a in range(n_axes - 1 if kind == "stack" else n_axes):
            term = np.abs(diff_at(a)) if kind == "l1" else np.square(diff_at(a))
            total = term if total is None else total + term
        if kind == "l1":
            return total
        if kind == "euclidean":
            return np.sqrt(total)
        gap = np.abs(diff_at(n_axes - 1))
        return gap if total is None else np.sqrt(total) + gap

    def norm(self, diff: np.ndarray) -> np.ndarray:
        """Coordinate-metric length of the vectors along the last axis of diff: `axis_norm` of its columns."""
        diff = np.asarray(diff)
        return self.axis_norm(lambda a: diff[..., a], diff.shape[-1])

    def pair_distances(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """d(rows[k], cols[k]) for each k.

        Coordinate metrics evaluate the norm per pair, in O(len(rows)). Graph
        metrics run Dijkstra from each distinct row with a limit on a ladder
        that starts at the longest edge and doubles; a row that misses one of
        its columns moves up a rung. The origin's row gives every pair the
        landmark lower bound |d(o,x) - d(o,y)| <= d(x,y), and each row starts
        at the first rung at or above its largest bound, so rows whose pairs
        lie far apart skip the searches they would miss. A search with any
        limit at or above d settles d by the same relaxations as a full
        search, so the bound decides only the work, never a value.

        A bounded round first marks the union of its rows' balls in one
        multi-source search, then searches from each row on the subgraph that
        union induces: a path no longer than the limit stays inside its row's
        ball, because edge lengths are positive. The distances equal
        `distances_from` bit for bit. Rows whose bound, or whose misses, climb
        past twice the origin's reach get one unbounded round on the whole
        graph (inf across components).
        """
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)  # once, not in every take
        if self.metric_kind != "graph":
            columns = self._columns
            return self.axis_norm(lambda a: columns[a].take(rows) - columns[a].take(cols), len(columns))
        sources, slot, n_cols = np.unique(rows, return_inverse=True, return_counts=True)
        order = np.argsort(slot, kind="stable")  # entries grouped by source
        starts = np.cumsum(n_cols) - n_cols
        reach = 2.0 * self.max_distance_from(self.origin)
        ladder = []
        limit = float(self.metric_graph.data.max(initial=0.0))
        while 0.0 < limit <= reach:
            ladder.append(limit)
            limit *= 2.0
        from_origin = self.distances_from(self.origin)
        with np.errstate(invalid="ignore"):
            bound = np.abs(from_origin[rows] - from_origin[cols])
        bound[np.isnan(bound)] = 0.0  # both points off the origin's component
        rung = np.searchsorted(ladder, np.maximum.reduceat(bound[order], starts))
        out = np.full(len(rows), np.inf)
        for k, limit in enumerate(ladder + [np.inf]):
            pending = np.flatnonzero(rung == k)
            for lo in range(0, len(pending), _SEARCH_CHUNK):
                chunk = pending[lo : lo + _SEARCH_CHUNK]
                local = np.repeat(np.arange(len(chunk)), n_cols[chunk])
                idx = order[_ranges(starts[chunk], n_cols[chunk])]
                out[idx] = self._search(sources[chunk], local, cols[idx], limit)
                rung[chunk[np.unique(local[np.isinf(out[idx])])]] += 1
        return out

    def _search(self, sources: np.ndarray, local: np.ndarray, targets: np.ndarray, limit: float) -> np.ndarray:
        """d(sources[local[k]], targets[k]) where it is at most limit, inf elsewhere."""
        graph = self.metric_graph
        if limit == np.inf:
            return dijkstra(graph, directed=True, indices=sources)[local, targets]
        ball = np.isfinite(dijkstra(graph, directed=True, indices=sources, limit=limit, min_only=True))
        sub, label = _induced(graph, ball)
        dist = dijkstra(sub, directed=True, indices=label[sources], limit=limit)
        return np.where(ball[targets], dist[local, label[targets]], np.inf)  # off the union, label is 0: read, then masked

    def _cached(self, cache: dict, x0: int, row_of) -> np.ndarray:
        """Row x0 of a bounded cache, read-only, computed by row_of(x0) on a miss."""
        x0 = int(x0)
        row = cache.get(x0)
        if row is None:
            row = row_of(x0)
            row.flags.writeable = False  # shared with the cache
            if len(cache) < ROW_CACHE_LIMIT:
                cache[x0] = row
        return row

    def distances_from(self, x0: int) -> np.ndarray:
        """All distances d(x0, .) as a read-only vector: row x0 of `distance_rows`, cached."""
        return self._cached(self._row_cache, x0, lambda x: self.distance_rows([x])[0])

    def distance_rows(self, idx: np.ndarray) -> np.ndarray:
        """The dense rows d(idx[i], .), without polluting the row cache."""
        if self.metric_kind == "graph":
            return dijkstra(self.metric_graph, directed=True, indices=idx)
        columns, idx = self._columns, np.asarray(idx, dtype=np.int64)
        return self.axis_norm(lambda a: columns[a].take(idx)[:, None] - columns[a], len(columns))

    def distances_chunked(self, indices, chunk: int = 128) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (index chunk, distance rows) without polluting the row cache."""
        indices = np.asarray(indices, dtype=np.int64)
        for lo in range(0, len(indices), chunk):
            idx = indices[lo : lo + chunk]
            yield idx, self.distance_rows(idx)

    def d(self, x: int, y: int) -> float:
        return float(self.distances_from(x)[y])

    # -- graph distance rho ----------------------------------------------

    @property
    def has_graph_distance(self) -> bool:
        """rho is the rho graph's, or the L1 distance of steps that fill their bounding box: its grid's graph distance."""
        full_box = self.steps is not None and self.n_points == math.prod(int(n) + 1 for n in np.ptp(self.steps, axis=0))
        return self.rho_graph is not None or full_box

    def rho_from(self, x0: int) -> np.ndarray:
        """All rho(x0, .) as a read-only vector, cached like `distances_from`."""
        if not self.has_graph_distance:
            raise UnsupportedOperation("space carries no graph distance rho")
        if self.rho_graph is not None:
            return self._cached(self._rho_cache, x0, lambda x: dijkstra(self.rho_graph, directed=True, indices=x))
        return self._cached(self._rho_cache, x0, lambda x: np.abs(self.steps - self.steps[x]).sum(axis=1).astype(float))

    # -- volume queries ---------------------------------------------------

    def max_distance_from(self, x0: int) -> float:
        row = self.distances_from(x0)
        finite = row[np.isfinite(row)]
        return float(finite.max()) if len(finite) else 0.0


def _per_point(name: str, values: np.ndarray, n: int) -> np.ndarray:
    """values with one row per point: an (n, d) array as it is, a flat (n,) vector as one axis."""
    rows = values[:, None] if values.ndim == 1 else values
    if rows.ndim != 2 or rows.shape[0] != n:
        raise ValueError(f"{name} must have one row per point: shape {values.shape} for {n} points")
    return rows


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The index ranges [starts[i], starts[i] + counts[i]) concatenated."""
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def _induced(graph: sp.csr_matrix, member: np.ndarray) -> tuple[sp.csr_matrix, np.ndarray]:
    """The subgraph of a CSR graph induced on the points where member holds, and labels: members in order, others 0."""
    points = np.flatnonzero(member)
    label = np.zeros(len(member), dtype=np.int64)
    label[points] = np.arange(len(points))
    lo = graph.indptr[points]
    counts = graph.indptr[points + 1] - lo
    entries = _ranges(lo, counts)
    kept = member[graph.indices[entries]]
    indptr = np.concatenate([[0], np.cumsum(kept)])[np.concatenate([[0], np.cumsum(counts)])]
    entries = entries[kept]
    return sp.csr_matrix((graph.data[entries], label[graph.indices[entries]], indptr), shape=(len(points),) * 2), label


def boundary_notes(reach: float, r_max: float) -> list[str]:
    """Truncation note for balls of radius up to r_max about a point whose farthest point lies at reach."""
    if r_max < 0.95 * reach:
        return []
    return [
        "boundary contamination: largest balls touch the truncation edge; "
        "statistics there under-count the intended infinite space"
    ]


def metric_ball(space: DiscreteMMSpace, x0: int, r: float) -> tuple[np.ndarray, float]:
    """Closed metric ball {y : d(x0,y) <= r} and its volume V(x0, r)."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    row = space.distances_from(x0)
    members = np.flatnonzero(row <= r)
    return members, float(space.measure[members].sum())


def open_ball_mask(space: DiscreteMMSpace, x0: int, r: float) -> np.ndarray:
    """Boolean mask of the open ball {y : d(x0,y) < r}."""
    return space.distances_from(x0) < r


def shell_volume(space: DiscreteMMSpace, x0: int, n: int) -> float:
    """m(S_rho(x0, n)) with S = B_rho(x0,n) \\ B_rho(x0,n-1), closed balls."""
    if n < 1:
        raise ValueError("shell index must be a positive integer")
    row = space.rho_from(x0)
    mask = (row > n - 1) & (row <= n)
    return float(space.measure[mask].sum())


def support_sets(kernel, local) -> tuple[np.ndarray, np.ndarray]:
    """X^(c) (local support) and X^(j) (jump support) of the given parts.

    X^(j) is every point with at least one positive kernel entry; X^(c) is
    the local part's declared support (grid spaces: all points on a
    positive-conductance local edge; subdivided metric graphs: edge
    interiors only, since vertex atoms carry no absolutely continuous local
    energy density).
    """
    if local is None:
        x_c = np.array([], dtype=np.int64)
    else:
        x_c = np.asarray(local.support, dtype=np.int64)
    return x_c, kernel.jump_support()
