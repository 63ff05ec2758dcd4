"""Discrete metric measure spaces.

A space here is a finite truncation of an intended infinite state space: a
point set with a strictly positive measure and a metric, either induced by
point coordinates or by shortest paths on a weighted graph. Weighted graphs
get the standard adapted distance with edge length

    sigma(x, y) = min(deg(x)^{-1/2}, deg(y)^{-1/2}, 1),
    deg(x) = (1/mu(x)) * sum_{y ~ x} omega(x, y).
"""

from __future__ import annotations

import numbers
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
_BLOCK_NNZ = 1 << 18  # entries per block of every row walk: runs of CSR rows, gathered kernel rows, distance rows
_SEARCH_CHUNK = 256  # rows per multi-source Dijkstra call: 64 rows took 1.1x the time on the 12,801-point mixed graph
_MIN_GROUPS = 16  # groups per pass at least: one group holding most rows owns every column that is a row itself


def point_ids(name: str, ids, n_points: int) -> np.ndarray:
    """ids as an int64 array of their shape; a ValueError, headed by name, gives the first that is not an integer in [0, n_points).

    A list is judged value by value before numpy coerces it, so a bool or a
    string is named rather than read as 1 or as text.
    """
    ids = ids if isinstance(ids, np.ndarray) else np.array(ids, dtype=object)
    values = ids
    if ids.dtype.kind not in "iuf":
        given = ids.ravel().tolist()
        odd = {t for t in set(map(type, given)) if issubclass(t, bool) or not issubclass(t, numbers.Real)}
        if odd:
            raise ValueError(f"{name}: point id {next(v for v in given if type(v) in odd)!r} is not an integer")
        values = ids.astype(np.float64)  # Python ints past 64 bits stay far outside any range as floats
    if values.dtype.kind == "f":
        fractional = ids[values != np.round(values)]  # a cast to int would truncate them
        if len(fractional):
            raise ValueError(f"{name}: point id {fractional[0]} is not an integer")
    if values.size and not 0 <= values.min() <= values.max() < n_points:  # two reductions; no mask unless one is out
        bad = ids[(values < 0) | (values >= n_points)]
        raise ValueError(f"{name}: point id {bad[0]} is not in [0, {n_points})")
    return values.astype(np.int64, copy=False)  # exact: each value is a whole number below n_points


@dataclass
class GraphData:
    """Locally finite weighted graph: symmetric edge weights and a vertex measure."""

    n_vertices: int
    edges: np.ndarray  # (m, 2) int array of endpoint indices
    weights: np.ndarray  # (m,) nonnegative edge weights omega(x, y)
    vertex_measure: np.ndarray  # (n,) positive mu

    def __post_init__(self) -> None:
        self.edges = point_ids(f"each point id of edges (n_vertices {self.n_vertices})", self.edges, self.n_vertices).reshape(-1, 2)
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        self.vertex_measure = np.asarray(self.vertex_measure, dtype=float).reshape(-1)
        if len(self.weights) != len(self.edges):
            raise ValueError("edges and weights length mismatch")
        if len(self.vertex_measure) != self.n_vertices:
            raise ValueError("vertex_measure length mismatch")
        if not np.all(np.isfinite(self.weights) & (self.weights >= 0)):
            raise ValueError("edge weights must be finite and nonnegative")
        if not np.all(np.isfinite(self.vertex_measure) & (self.vertex_measure > 0)):
            raise ValueError("vertex measure must be finite and strictly positive")
        if np.any(self.edges[:, 0] == self.edges[:, 1]):
            raise ValueError("self loops are not allowed (omega(x,x)=0)")
        # the CSR metric graph would sum a repeated edge's lengths into one edge
        pairs = np.sort(self.edges, axis=1)
        pairs = pairs[np.lexsort(pairs.T[::-1])]
        repeat = pairs[1:][(pairs[1:] == pairs[:-1]).all(axis=1)]
        if len(repeat):
            raise ValueError(f"edge {tuple(repeat[0].tolist())} is listed more than once (in either orientation)")

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


def block_rows(n_columns: int) -> int:
    """Dense rows of n_columns entries per block of a row walk: as many as _BLOCK_NNZ entries hold, and at least one."""
    return max(1, _BLOCK_NNZ // n_columns)


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
    lengths (`metric_kind == "graph"`). The metric graph is a canonical CSR
    matrix (sorted indices, no duplicates) and must be exactly symmetric.
    """

    def __init__(
        self,
        measure,
        *,
        coords=None,
        metric_kind: str = "euclidean",
        metric_graph: Optional[sp.csr_matrix] = None,
        steps=None,
        origin: int = 0,
        truncation_radius: float = float("inf"),
    ):
        # private, read-only copies, so that what is derived from them (weights on the measure, the per-axis columns,
        # the cached distance rows) cannot go stale
        self.measure = np.array(measure, dtype=float).reshape(-1)
        self.measure.flags.writeable = False
        if np.any(self.measure <= 0):
            raise ValueError("measure must be strictly positive at every point")
        if not np.isfinite(self.measure).all():
            raise ValueError("measure must be finite at every point")
        self.n_points = len(self.measure)
        if self.n_points < 1:
            raise ValueError("a space needs at least one point")
        self.coords = None if coords is None else _per_point("coords", np.array(coords, dtype=float), self.n_points)
        if self.coords is not None:
            self.coords.flags.writeable = False
            bad = np.flatnonzero(~np.isfinite(self.coords).all(axis=1))
            if bad.size:
                raise ValueError(f"coordinates must be finite: point {bad[0]} is at {self.coords[bad[0]].tolist()}")
        self.metric_kind = metric_kind
        if metric_graph is not None:
            metric_graph = sp.csr_matrix(metric_graph, copy=True)
            for a in (metric_graph.data, metric_graph.indices, metric_graph.indptr):
                a.flags.writeable = False
        self.metric_graph = metric_graph
        self.steps = None if steps is None else _per_point("steps", np.asarray(steps), self.n_points)
        self.origin = int(point_ids("origin", [origin], self.n_points)[0])
        self.truncation_radius = float(truncation_radius)
        self._row_cache: dict[int, np.ndarray] = {}
        # the searches pass directed=True, which is exact only on a symmetric graph
        if metric_graph is not None and not exactly_symmetric(metric_graph):
            raise ValueError("metric graph must be exactly symmetric")
        if metric_kind == "graph":
            if metric_graph is None:
                raise ValueError("graph metric requires an edge-length matrix")
        elif metric_kind not in _COORD_METRICS:
            raise ValueError(f"unknown metric kind {metric_kind!r}")
        elif self.coords is None or self.coords.shape[1] == 0:
            raise ValueError("coordinate metric requires coords with at least one column")
        else:  # the norm of the per-axis spans bounds every pair distance
            with np.errstate(over="ignore"):  # per contiguous column: max(axis=0) on (n, 3) coords is 20x slower
                spans = np.array([c.max() - c.min() for c in self._columns])
                if not np.isfinite(self.norm(spans)):
                    raise ValueError(f"coordinate spans {spans.tolist()} per axis overflow the {metric_kind} metric")

    def point_ids(self, name: str, ids) -> np.ndarray:
        """ids as an int64 array by `point_ids`, checked against this space's points."""
        return point_ids(name, ids, self.n_points)

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
        gap. Rows, pairs and lattice offset distances all evaluate
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
        metrics search from the distinct rows, each with a limit that doubles
        when the row misses one of its columns. The origin's row gives every
        pair the landmark lower bound |d(o,x) - d(o,y)| <= d(x,y). A row
        starts at j * l + s: l is the longest edge, j >= 1 the least whole
        number with j * l at or above the row's largest bound less s, and the
        slack s = 2 n eps reach covers the rounding of float sums along paths
        shorter than reach, twice the origin's farthest distance. A j-edge
        path is at most j * l long, so on subdivided graphs the first limit
        holds every column. The slack decides only the work, never a
        distance: a limit below d misses and climbs, and every limit at or
        above d gives the same sum. Limits stop at reach, which bounds every
        distance on the origin's component; a row that misses there, or has
        a pair across components, gets one unbounded round (inf across
        components).

        Rung k holds the rows whose limit is above 2^(k-1) l and at most
        2^k l (plus s), so a miss climbs one rung. Each search is one
        multi-source Dijkstra from a group of rows of one rung, dealt
        round-robin, so a group is spread over the id range, to the largest
        limit among them: at most twice what any of its rows needs. It
        labels every point y it reaches with its owner, the nearest row of
        the group, and a pair (x, y) settles when x owns y. y's predecessor
        chain then runs back to x, so dist[y] is the left-to-right float sum
        along an x-path: at least x's own search result, which the
        multi-source minimum cannot exceed, as float addition is monotone.
        The distances therefore equal `distances_from` bit for bit, whatever
        the limit, once it is at or above d. A pair whose column another row
        owns is retried at the same rung in smaller groups, dealt at random:
        half the size while a pass leaves at most half of its pairs over,
        single rows otherwise, and a single row owns every point it reaches.
        Each search writes three n-vectors, whatever the size of its group.
        """
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)  # once, not in every take
        if self.metric_kind != "graph":
            columns = self._columns
            return self.axis_norm(lambda a: columns[a].take(rows) - columns[a].take(cols), len(columns))
        sources, slot = np.unique(rows, return_inverse=True)
        reach = 2.0 * self.max_distance_from(self.origin)
        from_origin = self.distances_from(self.origin)
        with np.errstate(invalid="ignore"):
            bound = np.abs(from_origin[rows] - from_origin[cols])
        bound[np.isnan(bound)] = 0.0  # both points off the origin's component
        top = np.zeros(len(sources))
        np.maximum.at(top, slot, bound)
        longest = float(self.metric_graph.data.max(initial=0.0))
        slack = 2.0 * self.n_points * np.finfo(float).eps * reach
        with np.errstate(divide="ignore", invalid="ignore"):  # no edge: longest is 0, every limit NaN, then inf
            edges = np.maximum(np.ceil((top - slack) / longest), 1.0)
            limit = np.minimum(longest * edges + slack, reach)
            limit[~(limit > 0.0) | (top > reach)] = np.inf  # NaN, the origin alone, or a pair across components
            rung = np.where(limit < np.inf, np.ceil(np.log2(edges)), np.inf)  # inf: the unbounded round, last
        out = np.full(len(rows), np.inf)
        pending = np.ones(len(rows), dtype=bool)
        group = np.empty(len(sources), dtype=np.int64)
        deal = np.random.default_rng(0)
        while pending.any():
            k = rung[slot[pending]].min()
            size, retry = _SEARCH_CHUNK, False
            while (todo := np.flatnonzero(pending & (rung[slot] == k))).size:
                active = np.unique(slot[todo])
                if retry:  # dealt at random, so rows that shared a group rarely share one again
                    active = deal.permutation(active)
                stride = max(-(-len(active) // size), min(len(active), _MIN_GROUPS))
                group[active] = np.arange(len(active)) % stride
                todo = todo[np.argsort(group[slot[todo]], kind="stable")]
                ends = np.cumsum(np.bincount(group[slot[todo]], minlength=stride))
                for g, part in enumerate(np.split(todo, ends[:-1])):
                    members = active[g::stride]
                    dist, _, owner = dijkstra(
                        self.metric_graph,
                        directed=True,
                        indices=sources[members],
                        limit=limit[members].max(),
                        min_only=True,
                        return_predecessors=True,
                    )
                    out[part] = dist[cols[part]]  # final once owned; inf where no row of the group reaches
                    owned = owner[cols[part]] == rows[part]
                    if k == np.inf:
                        owned |= np.isinf(out[part])  # inf from every row of the group
                    pending[part[owned]] = False
                if k < np.inf:  # a miss climbs; a miss at reach crosses components
                    climb = slot[todo[pending[todo] & np.isinf(out[todo])]]
                    limit[climb] = np.where(limit[climb] < reach, np.minimum(2.0 * limit[climb], reach), np.inf)
                    rung[climb] = np.where(limit[climb] < np.inf, k + 1, np.inf)
                left = np.count_nonzero(pending[todo] & (rung[slot[todo]] == k))
                size, retry = (size // 2 if 2 * left <= len(todo) else 1), True
        return out

    def distances_from(self, x0: int) -> np.ndarray:
        """All distances d(x0, .) as a read-only vector: row x0 of `distance_rows`, cached."""
        x0 = int(x0)
        row = self._row_cache.get(x0)
        if row is None:
            row = self.distance_rows([x0])[0]
            row.flags.writeable = False  # shared with the cache
            if len(self._row_cache) < ROW_CACHE_LIMIT:
                self._row_cache[x0] = row
        return row

    def distance_rows(self, idx: np.ndarray) -> np.ndarray:
        """The dense rows d(idx[i], .), without polluting the row cache."""
        if self.metric_kind == "graph":
            return dijkstra(self.metric_graph, directed=True, indices=idx)
        columns, idx = self._columns, np.asarray(idx, dtype=np.int64)
        return self.axis_norm(lambda a: columns[a].take(idx)[:, None] - columns[a], len(columns))

    def distances_chunked(self, indices) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (index chunk, distance rows), `block_rows` rows at a time, without polluting the row cache."""
        indices, chunk = np.asarray(indices, dtype=np.int64), block_rows(self.n_points)
        for lo in range(0, len(indices), chunk):
            idx = indices[lo : lo + chunk]
            yield idx, self.distance_rows(idx)

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


def boundary_notes(reach: float, r_max: float) -> list[str]:
    """Truncation note for balls of radius up to r_max about a point whose farthest point lies at reach."""
    if r_max < 0.95 * reach:
        return []
    return [
        "boundary contamination: largest balls touch the truncation edge; "
        "statistics there under-count the intended infinite space"
    ]


def ball_volumes(space: DiscreteMMSpace, x0: int, radii, weights=None) -> np.ndarray:
    """V(x0, r) = sum of weights (default: the measure) over the closed ball {y : d(x0,y) <= r}, per r of the sorted radii.

    One pass over the row: each point is binned at the first radius at or
    above its distance, and the bins are summed up the grid. A point at
    infinite distance counts only in a ball of infinite radius; a nan
    radius, which sorts last, holds no point.
    """
    radii = np.asarray(radii, dtype=float)
    slot = np.searchsorted(radii, space.distances_from(x0), "left")
    volumes = np.cumsum(np.bincount(slot, space.measure if weights is None else weights, len(radii) + 1))[:-1]
    volumes[np.isnan(radii)] = 0.0
    return volumes


def check_distinct_radii(radii: np.ndarray) -> None:
    """A ValueError names the first radius that the sorted grid radii repeats."""
    repeated = radii[1:][radii[1:] == radii[:-1]]
    if len(repeated):
        raise ValueError(f"radius {repeated[0]} is repeated: a radius grid lists each radius once")


def metric_ball(space: DiscreteMMSpace, x0: int, r: float) -> tuple[np.ndarray, float]:
    """Closed metric ball {y : d(x0,y) <= r}, its members in id order, and its volume V(x0, r)."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    members = np.flatnonzero(space.distances_from(x0) <= r)
    return members, float(ball_volumes(space, x0, [r])[0])


def open_ball_mask(space: DiscreteMMSpace, x0: int, r: float) -> np.ndarray:
    """Boolean mask of the open ball {y : d(x0,y) < r}."""
    return space.distances_from(x0) < r
