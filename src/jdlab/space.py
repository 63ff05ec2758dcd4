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

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

# Euclidean / l1 norms act on all coordinate columns; "stack" treats the last
# column as a layer index: d = |p(x)-p(y)|_2 + |q(x)-q(y)|.
_COORD_METRICS = ("euclidean", "l1", "stack")

ROW_CACHE_LIMIT = 64  # cached single-source distance rows per space


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


class DiscreteMMSpace:
    """Finite metric measure space with positive measure and cached metric rows.

    The metric is either coordinate-induced (`metric_kind` in
    {"euclidean", "l1", "stack"}) or shortest-path over positive edge
    lengths (`metric_kind == "graph"`). rho, when present, is an auxiliary
    graph distance (integer on vertices, interpolated on subdivision points).
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
        meta: Optional[dict] = None,
    ):
        self.measure = np.asarray(measure, dtype=float).reshape(-1)
        if np.any(self.measure <= 0):
            raise ValueError("measure must be strictly positive at every point")
        self.n_points = len(self.measure)
        self.coords = None if coords is None else np.atleast_2d(np.asarray(coords, dtype=float))
        if self.coords is not None and self.coords.shape[0] != self.n_points:
            self.coords = self.coords.T
        self.metric_kind = metric_kind
        self.metric_graph = metric_graph
        self.steps = None if steps is None else np.atleast_2d(np.asarray(steps))
        if self.steps is not None and self.steps.shape[0] != self.n_points:
            self.steps = self.steps.T
        self.rho_graph = rho_graph
        self.origin = int(origin)
        self.truncation_radius = float(truncation_radius)
        self.meta = dict(meta or {})
        self._row_cache: dict[int, np.ndarray] = {}
        self._rho_cache: dict[int, np.ndarray] = {}
        if metric_kind == "graph":
            if metric_graph is None:
                raise ValueError("graph metric requires an edge-length matrix")
        elif metric_kind not in _COORD_METRICS:
            raise ValueError(f"unknown metric kind {metric_kind!r}")
        elif self.coords is None:
            raise ValueError("coordinate metric requires coords")

    # -- metric ---------------------------------------------------------

    def _norm(self, diff: np.ndarray) -> np.ndarray:
        """Coordinate-metric length along the last axis; rows and pairs share it bit for bit."""
        if self.metric_kind == "euclidean":
            return np.sqrt((diff**2).sum(axis=-1))
        if self.metric_kind == "l1":
            return np.abs(diff).sum(axis=-1)
        # stack: euclidean over all but the last column, absolute layer gap
        p = np.sqrt((diff[..., :-1] ** 2).sum(axis=-1))
        return p + np.abs(diff[..., -1])

    def pair_distances(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """d(rows[k], cols[k]) for each k on a coordinate metric, in O(len(rows))."""
        if self.metric_kind == "graph":
            raise UnsupportedOperation("graph metrics have no per-pair distance; use distance rows")
        return self._norm(self.coords[rows] - self.coords[cols])

    def distances_from(self, x0: int) -> np.ndarray:
        """All distances d(x0, .) as a vector; rows are cached."""
        x0 = int(x0)
        row = self._row_cache.get(x0)
        if row is None:
            if self.metric_kind == "graph":
                row = dijkstra(self.metric_graph, directed=False, indices=x0)
            else:
                row = self._norm(self.coords[x0] - self.coords)
            if len(self._row_cache) < ROW_CACHE_LIMIT:
                self._row_cache[x0] = row
        return row

    def distances_chunked(self, indices, chunk: int = 128) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (index chunk, distance rows) without polluting the row cache."""
        indices = np.asarray(indices, dtype=np.int64)
        for lo in range(0, len(indices), chunk):
            idx = indices[lo : lo + chunk]
            if self.metric_kind == "graph":
                rows = dijkstra(self.metric_graph, directed=False, indices=idx)
            else:
                rows = self._norm(self.coords[idx][:, None, :] - self.coords)
            yield idx, rows

    def d(self, x: int, y: int) -> float:
        return float(self.distances_from(x)[y])

    # -- graph distance rho ----------------------------------------------

    @property
    def has_graph_distance(self) -> bool:
        return self.rho_graph is not None or self.steps is not None

    def rho_from(self, x0: int) -> np.ndarray:
        if not self.has_graph_distance:
            raise UnsupportedOperation("space carries no graph distance rho")
        x0 = int(x0)
        row = self._rho_cache.get(x0)
        if row is None:
            if self.rho_graph is not None:
                row = dijkstra(self.rho_graph, directed=False, indices=x0)
            else:
                row = np.abs(self.steps - self.steps[x0]).sum(axis=1).astype(float)
            if len(self._rho_cache) < ROW_CACHE_LIMIT:
                self._rho_cache[x0] = row
        return row

    def rho(self, x: int, y: int) -> float:
        return float(self.rho_from(x)[y])

    # -- volume queries ---------------------------------------------------

    def max_distance_from(self, x0: int) -> float:
        row = self.distances_from(x0)
        finite = row[np.isfinite(row)]
        return float(finite.max()) if len(finite) else 0.0

    def total_mass(self) -> float:
        return float(self.measure.sum())


def build_graph_space(g: GraphData, origin: int = 0, truncation_radius: float = float("inf")) -> DiscreteMMSpace:
    """Adapted-distance space of a weighted graph.

    Edge length sigma(x,y) = min(deg(x)^{-1/2}, deg(y)^{-1/2}, 1); rho uses
    unit edge lengths. Vertices with zero adapted degree still get
    sigma = 1 through the cap, but structurally isolated vertices (no
    incident edge at all) have no finite distance to the rest and are
    rejected.
    """
    n = g.n_vertices
    if n == 0:
        raise ValueError("empty graph")
    incident = np.zeros(n, dtype=bool)
    incident[g.edges.reshape(-1)] = True
    if n > 1 and not incident.all():
        bad = int(np.flatnonzero(~incident)[0])
        raise ValueError(
            f"vertex {bad} has no incident edge: sigma is undefined there "
            "(adapted distance cannot reach it)"
        )
    deg = g.degree()
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(deg)  # +inf where deg == 0, removed by the cap
    i, j = g.edges[:, 0], g.edges[:, 1]
    sigma = np.minimum(np.minimum(inv_sqrt[i], inv_sqrt[j]), 1.0)
    metric_graph = sp.csr_matrix((sigma, (i, j)), shape=(n, n))
    metric_graph = metric_graph + metric_graph.T
    rho_graph = sp.csr_matrix((np.ones(len(i)), (i, j)), shape=(n, n))
    rho_graph = rho_graph + rho_graph.T
    space = DiscreteMMSpace(
        g.vertex_measure,
        metric_kind="graph",
        metric_graph=metric_graph,
        rho_graph=rho_graph,
        origin=origin,
        truncation_radius=truncation_radius,
        meta={"kind": "graph", "sigma": sigma, "edges": g.edges},
    )
    row = space.distances_from(space.origin)
    if not np.all(np.isfinite(row)):
        raise ValueError("graph is disconnected: some points are unreachable from the origin")
    return space


def metric_ball(space: DiscreteMMSpace, x0: int, r: float) -> tuple[np.ndarray, float]:
    """Closed metric ball {y : d(x0,y) <= r} and its volume V(x0, r)."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    row = space.distances_from(x0)
    members = np.flatnonzero(row <= r)
    return members, float(space.measure[members].sum())


def open_ball_mask(space: DiscreteMMSpace, x0: int, r: float) -> np.ndarray:
    """Boolean mask of {y : d(x0,y) < r} (used by capacity / exit events)."""
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
    if kernel is None:
        x_j = np.array([], dtype=np.int64)
    else:
        x_j = np.flatnonzero(np.diff(kernel.matrix.indptr)).astype(np.int64)
    if local is None:
        x_c = np.array([], dtype=np.int64)
    else:
        x_c = np.asarray(local.support, dtype=np.int64)
    return x_c, x_j
