"""Differential tests: vectorised and shared paths against the code they replaced.

The oracles below are the earlier implementations, kept verbatim in spirit:
dense distance rows per point, per-row Python reductions, tuple-dict
lattice neighbours, the dense n x n kernel builders, the per-offset band
loops, the per-edge chain loop of the mixed graph, the stand-alone
adapted-distance graph space, the m - m.T symmetry check, the form matrix
built from the raw kernel, the capacity solve before it shared one
free-set solve, the spec dispatch with its own copy of the
builders' parameters, the entry check it made, the max(m, m.T)
symmetrization of kernel entries and the setdiag clearing of the
diagonal. Pair
distances (full Dijkstra rows on graph metrics), kernels, form matrices,
capacities, spec builds and the lattice and mixed-graph arrays must match bit for bit;
row sums are accumulated in another order, so omega and M_j must agree
within 1e-12 relative.
"""

import json
import math
from collections import deque

import jdlab.kernels as kmod

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components, dijkstra

from jdlab import (
    DiscreteMMSpace,
    GraphData,
    capacity_scan,
    equilibrium_potential,
    lattice_nn,
    local_chain,
    m_constants,
    model_manifold,
    recurrence_report,
    stable_like,
    stack_space,
    weighted_line,
)
from jdlab.capacity import _dead_components, _solve_spd
from jdlab.criteria import _omega_values
from jdlab.forms import BuiltInstance, JumpKernel, LocalPart, form_matrix, row_blocks, support_sets
from jdlab.forms import energy as form_energy
from jdlab.kernels import (
    _band_entries,
    _lattice_points,
    _neighbors,
    explicit_kernel,
    lattice2d_graph,
    mixed_graph,
    sandwich_profile,
)
from jdlab.space import ball_volumes, boundary_notes
from jdlab.specio import SpecError, build_from_spec
from conftest import random_symmetric_kernel, stable_like_density

REL = 1e-12


# -- oracles -------------------------------------------------------------------


def oracle_pair_distances(kernel):
    m = kernel.matrix
    out = np.empty(m.nnz)
    rows_with = np.flatnonzero(np.diff(m.indptr) > 0)
    for idx, dist_rows in kernel.space.distances_chunked(rows_with, chunk=7):
        for k, x in enumerate(idx):
            lo, hi = m.indptr[x], m.indptr[x + 1]
            out[lo:hi] = dist_rows[k][m.indices[lo:hi]]
    return out


def oracle_row_sums(kernel, factor):
    """(max, first arg-max row, all row values) of sum_y factor(d) j(x,y) m(y) over X^(j)."""
    mat = kernel.weighted
    dist = oracle_pair_distances(kernel)
    x_j = np.flatnonzero(np.diff(mat.indptr) > 0)
    best, arg, values = -np.inf, None, {}
    for x in x_j:
        lo, hi = mat.indptr[x], mat.indptr[x + 1]
        val = float(np.sum(factor(dist[lo:hi]) * mat.data[lo:hi]))
        values[int(x)] = val
        if val > best:
            best, arg = val, int(x)
    return best, arg, values


def oracle_dead_components(a_ff, g_rows, clamped):
    coupled = np.zeros(g_rows.shape[0], dtype=bool)
    for k in range(g_rows.shape[0]):
        lo, hi = g_rows.indptr[k], g_rows.indptr[k + 1]
        cols = g_rows.indices[lo:hi]
        vals = g_rows.data[lo:hi]
        coupled[k] = bool(np.any(clamped[cols] & (vals != 0)))
    off = a_ff.copy()
    off.setdiag(0.0)
    off.eliminate_zeros()
    n_comp, labels = connected_components(abs(off) > 0, directed=False)
    dead = np.zeros(a_ff.shape[0], dtype=bool)
    for c in range(n_comp):
        members = labels == c
        if not coupled[members].any():
            dead[members] = True
    return dead


def oracle_neighbor_entries(steps):
    index = {tuple(s): k for k, s in enumerate(steps)}
    rows, cols = [], []
    for k, s in enumerate(steps):
        for axis in range(steps.shape[1]):
            t = list(s)
            t[axis] += 1
            other = index.get(tuple(t))
            if other is not None:
                rows.append(k)
                cols.append(other)
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)


def oracle_lattice2d_edges(extent):
    axis = np.arange(-extent, extent + 1)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([gx.reshape(-1), gy.reshape(-1)])
    index = {tuple(p): k for k, p in enumerate(pts)}
    rows, cols = [], []
    for kidx, p in enumerate(pts):
        for dxy in ((1, 0), (0, 1)):
            q = (p[0] + dxy[0], p[1] + dxy[1])
            if q in index:
                rows.append(kidx)
                cols.append(index[q])
    return np.column_stack([rows, cols]).astype(np.int64)



def oracle_dense_kernel(space, value):
    """The dense n x n build `stable_like` and `stack_space` used before the CSR row chunks."""
    n = space.n_points
    dense = np.zeros((n, n))
    for idx, rows in space.distances_chunked(np.arange(n), chunk=512):
        dense[idx, :] = value(idx, rows)
    np.fill_diagonal(dense, 0.0)
    return JumpKernel(space, sp.csr_matrix(dense))


def oracle_weighted_line_kernel(space, lam, spacing):
    xs = space.coords[:, 0]
    band = int(math.floor(1.0 / spacing + 1e-9))
    rows, cols, vals = [], [], []
    n = len(xs)
    for offset in range(1, band + 1):
        i = np.arange(0, n - offset)
        j = i + offset
        rows.append(i)
        cols.append(j)
        vals.append(np.exp(-lam * (np.abs(xs[i]) + np.abs(xs[j]))))
    return JumpKernel.from_entries(space, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))


def oracle_model_manifold_kernel(space, sig, dim, spacing):
    band = int(math.ceil(1.0 / spacing)) - 1
    rows, cols, vals = [], [], []
    n = space.n_points
    sig_n = sig**dim
    for offset in range(1, band + 1):
        if offset * spacing >= 1.0:
            break
        i = np.arange(0, n - offset)
        j = i + offset
        rows.append(i)
        cols.append(j)
        vals.append(1.0 / (sig_n[i] * sig_n[j]))
    if rows:
        return JumpKernel.from_entries(space, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))
    return JumpKernel(space, sp.csr_matrix((n, n)))


def oracle_band_entries(n, band):
    rows, cols = [], []
    for offset in range(1, band + 1):
        i = np.arange(0, n - offset)
        rows.append(i)
        cols.append(i + offset)
    if not rows:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return np.concatenate(rows), np.concatenate(cols)


def oracle_graph_space_parts(g):
    """sigma and the metric graph of the adapted-distance space, as the bare mixed graph built them on its own."""
    deg = g.degree()
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(deg)
    i, j = g.edges[:, 0], g.edges[:, 1]
    sigma = np.minimum(np.minimum(inv_sqrt[i], inv_sqrt[j]), 1.0)
    n = g.n_vertices
    metric_graph = sp.csr_matrix((sigma, (i, j)), shape=(n, n))
    return sigma, metric_graph + metric_graph.T


def oracle_mixed_graph_parts(graph, phi, k):
    """measure, metric graph, local edges, conductances and support of `mixed_graph` from its per-edge loop."""
    sigma = oracle_graph_space_parts(graph)[0]
    edges, nv, h = graph.edges, graph.n_vertices, 1.0 / (k + 1)
    phi_e = np.full(len(edges), float(phi)) if np.isscalar(phi) else np.asarray(phi, dtype=float)
    measure = np.empty(nv + k * len(edges))
    measure[:nv] = graph.vertex_measure
    d_rows, d_cols, d_len, local_edges, interior = [], [], [], [], []
    for e, (u, v) in enumerate(edges):
        chain = [u] + [nv + e * k + t for t in range(k)] + [v]
        interior.extend(chain[1:-1])
        for t in range(k):
            measure[chain[1 + t]] = phi_e[e] * h
        for a, b in zip(chain[:-1], chain[1:]):
            d_rows.append(a)
            d_cols.append(b)
            d_len.append(sigma[e] * h)
            local_edges.append((a, b))
    local_cond = [phi_e[s // (k + 1)] / (h * (measure[a] + measure[b])) for s, (a, b) in enumerate(local_edges)]
    n = len(measure)
    ij = (np.array(d_rows, dtype=np.int64), np.array(d_cols, dtype=np.int64))
    metric_graph = sp.csr_matrix((np.array(d_len), ij), shape=(n, n))
    return (
        measure,
        metric_graph + metric_graph.T,
        np.array(local_edges, dtype=np.int64).reshape(-1, 2),
        np.array(local_cond),
        np.array(sorted(set(interior)), dtype=np.int64),
    )


def oracle_is_symmetric(matrix):
    """The check `JumpKernel` made before comparing m with m.T array by array."""
    m = sp.csr_matrix(matrix, dtype=float)
    m.setdiag(0.0)
    m.eliminate_zeros()
    return (abs(m - m.T)).nnz == 0


def oracle_canonical(matrix, n):
    """The matrix `JumpKernel` stored: setdiag(0), eliminate_zeros, then sum_duplicates."""
    m = sp.csr_matrix(matrix, dtype=float, shape=(n, n))
    m.setdiag(0.0)
    m.eliminate_zeros()
    m.sum_duplicates()
    return m


def oracle_from_entries(cls, space, rows, cols, values):
    """`JumpKernel.from_entries` by max(m, m.T) of the one-orientation matrices."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    if np.any(rows == cols):
        raise ValueError("diagonal kernel entries are not allowed")
    n = space.n_points
    m = sp.csr_matrix((values, (rows, cols)), shape=(n, n))
    mt = sp.csr_matrix((values, (cols, rows)), shape=(n, n))
    return cls(space, m.maximum(mt))


def oracle_check_symmetric_entries(entries):
    seen = {}
    for row in entries:
        if len(row) != 3:
            raise SpecError("explicit kernel entries must be [i, j, value] triples")
        i, j, v = int(row[0]), int(row[1]), float(row[2])
        if i == j:
            raise SpecError("explicit kernel entries must be off-diagonal")
        key = (min(i, j), max(i, j))
        if key in seen and seen[key] != v:
            raise SpecError(f"conflicting values for symmetric pair {key}: {seen[key]} vs {v}")
        seen[key] = v


def oracle_build_from_spec(raw):
    """The spec dispatch with its own parameter names, defaults and casts."""
    radius = float(raw["truncation_radius"])
    params = dict(raw.get("params", {}))
    kind = raw["type"]
    if kind == "lattice":
        kspec = dict(params.pop("kernel", {"family": "nn"}))
        family = kspec.pop("family", "nn")
        common = {
            "dim": int(params.get("dim", 1)),
            "spacing": float(params.get("spacing", 1.0)),
            "truncation_radius": radius,
        }
        if family == "nn":
            return kmod.lattice_nn(
                measure=params.get("measure", "counting"),
                density=float(kspec.get("density", 1.0)),
                **common,
            )
        if family in ("stable_i", "stable_ii"):
            return kmod.stable_like(
                case="i" if family == "stable_i" else "ii",
                alpha=float(kspec.get("alpha", 1.0)),
                beta=float(kspec.get("beta", 1.0)),
                tempering=float(kspec.get("tempering", 1.0)),
                support=params.get("support", "lattice"),
                gasket_level=int(params.get("gasket_level", 5)),
                **common,
            )
        assert family == "explicit"
        entries = kspec.get("entries", [])
        oracle_check_symmetric_entries(entries)
        n_points = int(kspec.get("n_points", (2 * math.floor(radius / common["spacing"]) + 1) ** common["dim"]))
        return kmod.explicit_kernel(n_points, entries, truncation_radius=radius)
    if kind == "graph":
        return kmod.mixed_graph_from_params(truncation_radius=radius, **params)
    if kind == "stack":
        psi = params.pop("psi", 1.0)
        if isinstance(psi, dict):
            if psi.get("kind") == "constant":
                psi_arg = float(psi.get("value", 1.0))
            else:
                assert psi.get("kind") == "power"
                a, p = float(psi.get("a", 1.0)), float(psi.get("p", 0.0))
                psi_arg = lambda pts: (a + np.sqrt((pts**2).sum(axis=1))) ** p
        else:
            psi_arg = float(psi)
        return kmod.stack_space(psi=psi_arg, truncation_radius=radius, **params)
    if kind == "weighted_line":
        return kmod.weighted_line(truncation_radius=radius, **params)
    assert kind == "model_manifold"
    return kmod.model_manifold(truncation_radius=radius, **params)


def oracle_bfs_hops(g, origin):
    """The graph distance rho from origin, hop counts over every edge of g, by a breadth-first search."""
    neighbours = [[] for _ in range(g.n_vertices)]
    for u, v in g.edges.tolist():
        neighbours[u].append(v)
        neighbours[v].append(u)
    hops, queue = [math.inf] * g.n_vertices, deque([origin])
    hops[origin] = 0
    while queue:
        u = queue.popleft()
        for v in neighbours[u]:
            if hops[v] == math.inf:
                hops[v] = hops[u] + 1
                queue.append(v)
    return np.array(hops, dtype=float)


def oracle_shell_power_phi(g, hops, c, p):
    """phi of a shell_power graph from the row of hop counts of all its vertices from the origin."""
    return c * np.maximum(1.0, 0.5 * (hops[g.edges[:, 0]] + hops[g.edges[:, 1]])) ** (-p)


def oracle_form_matrix(space, kernel, local):
    n = space.n_points
    parts = []
    if kernel is not None:
        k = kernel.matrix.multiply(space.measure[None, :]).multiply(space.measure[:, None]).tocsr()
        d = sp.diags(np.asarray(k.sum(axis=1)).reshape(-1))
        parts.append(2.0 * (d - k))
    if local is not None:  # the edge weights c (m_x + m_y)/2 from the measure, not the part's own
        (i, j), c = local.edges.T, local.conductance
        w = c * 0.5 * (space.measure[i] + space.measure[j])
        rows, cols = np.concatenate([i, j, i, j]), np.concatenate([j, i, i, j])
        parts.append(sp.csr_matrix((np.concatenate([-w, -w, w, w]), (rows, cols)), shape=(n, n)))
    if not parts:
        return sp.csr_matrix((n, n))
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return total.tocsr()


def oracle_energy(space, kernel, local, u):
    """E[u] summed as `energy` summed it before every builder returned a kernel: kernel None is no jump part."""
    total = 0.0
    if local is not None:
        (i, j), du = local.edges.T, u[local.edges[:, 0]] - u[local.edges[:, 1]]
        total += float(np.sum(local.conductance * 0.5 * (space.measure[i] + space.measure[j]) * du * du))
    if kernel is not None:
        total += kernel.jump_energy(u, u)
    return total


def oracle_capacities(space, kernel, local, inner, radii):
    """(capacities, residuals, warnings) from per-radius solves with their own dead-component branch."""
    g = oracle_form_matrix(space, kernel, local)
    dist = space.distances_from(int(inner[0]))
    caps, residuals, warns = [], [], []
    for r in sorted(radii):
        free = dist < r
        free[inner] = False
        u = np.zeros(space.n_points)
        u[inner] = 1.0
        free_idx = np.flatnonzero(free)
        if free_idx.size == 0:
            warns.append("B \\ K is empty: potential is the indicator of K")
            caps.append(oracle_energy(space, kernel, local, u))
            residuals.append(0.0)
            continue
        g_rows = g[free_idx].tocsr()
        a_ff = g_rows[:, free_idx].tocsr()
        b = -np.asarray(g_rows[:, inner].sum(axis=1)).reshape(-1)
        dead = oracle_dead_components(a_ff, g_rows, ~free)
        if dead.any():
            warns.append(
                f"{int(dead.sum())} free points lie in components touching neither K nor the "
                "ball boundary; their potential is set to 0"
            )
            live = ~dead
            x_live, res, _ = _solve_spd(a_ff[live][:, live].tocsr(), b[live])
            x = np.zeros(free_idx.size)
            x[live] = x_live
        else:
            x, res, _ = _solve_spd(a_ff, b)
        u[free_idx] = x
        caps.append(oracle_energy(space, kernel, local, u))
        residuals.append(res)
    return caps, residuals, warns


# -- random instances on every metric kind --------------------------------------


def _coord_instance(rng, metric_kind):
    """Random sparse kernel on random coordinates (last column a layer for stack)."""
    base = random_symmetric_kernel(rng, int(rng.integers(2, 30)), density=float(rng.uniform(0.05, 0.9)))
    n = base.space.n_points
    dim = int(rng.integers(1, 4))
    coords = rng.normal(scale=3.0, size=(n, dim))
    if metric_kind == "stack":
        coords = np.column_stack([coords, rng.integers(-2, 3, size=n)])
    space = DiscreteMMSpace(base.space.measure, coords=coords, metric_kind=metric_kind)
    return space, JumpKernel(space, base.kernel.matrix)


def _graph_instance(rng):
    """Random connected weighted graph (a spanning path plus chords) and a kernel on it."""
    n = int(rng.integers(2, 30))
    order = rng.permutation(n)
    edges = [(order[k], order[k + 1]) for k in range(n - 1)]
    for _ in range(int(rng.integers(0, 2 * n))):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.append((i, j))
    edges = np.unique(np.sort(np.array(edges), axis=1), axis=0)
    g = GraphData(n, edges, rng.uniform(0.1, 3.0, size=len(edges)), rng.uniform(0.5, 2.0, size=n))
    space = mixed_graph(g, subdivisions=0).space
    base = random_symmetric_kernel(rng, n, density=float(rng.uniform(0.05, 0.9)))
    return space, JumpKernel(space, base.kernel.matrix)


METRICS = ["euclidean", "l1", "stack", "graph"]


def _instance(seed, metric_kind):
    rng = np.random.default_rng(seed)
    if metric_kind == "graph":
        return _graph_instance(rng)
    return _coord_instance(rng, metric_kind)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(METRICS))
def test_pair_distances_bit_identical(seed, metric_kind):
    space, kernel = _instance(seed, metric_kind)
    assert np.array_equal(kernel.pair_distances(), oracle_pair_distances(kernel))
    assert np.array_equal(space.distances_from(1), next(space.distances_chunked([1]))[1][0])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(METRICS))
def test_omega_and_m_j_match_row_loops(seed, metric_kind):
    _, kernel = _instance(seed, metric_kind)
    radii = np.array([0.1, 0.7, 1.0, 2.5, 10.0])
    got = _omega_values(kernel, radii)
    for k, r in enumerate(radii):
        want, _, _ = oracle_row_sums(kernel, lambda d: np.minimum(d, r) ** 2)
        assert got[k] == pytest.approx(want, rel=REL, abs=0.0)
    mc = m_constants(BuiltInstance(kernel))
    want, arg, values = oracle_row_sums(kernel, lambda d: np.minimum(1.0, d**2))
    assert mc.m_j == pytest.approx(want, rel=REL, abs=0.0)
    # equal up to ties: the reported row attains the maximum as well
    assert mc.argmax_j == arg or values[mc.argmax_j] == pytest.approx(want, rel=REL, abs=0.0)


def test_row_blocks_cover_nonempty_rows_in_bounded_runs(monkeypatch):
    import jdlab.forms

    monkeypatch.setattr(jdlab.forms, "_BLOCK_NNZ", 5)
    counts = np.array([0, 3, 0, 0, 2, 7, 1, 0, 4, 4, 0])
    indptr = np.concatenate([[0], np.cumsum(counts)])
    runs = list(row_blocks(indptr))
    assert np.array_equal(np.concatenate([rows for rows, _, _ in runs]), np.flatnonzero(counts))
    assert [(lo, hi) for _, lo, hi in runs] == [(0, 5), (5, 12), (12, 17), (17, 21)]
    assert list(row_blocks(np.zeros(4, dtype=np.int64))) == []


@pytest.mark.parametrize("metric_kind", ["euclidean", "graph"])
def test_small_blocks_give_the_same_results(monkeypatch, metric_kind):
    import jdlab.forms
    import jdlab.space

    space, kernel = _instance(3, metric_kind)
    want_d = kernel.pair_distances().copy()
    want_om = _omega_values(kernel, np.array([0.5, 3.0]))
    want_mc = m_constants(BuiltInstance(kernel))
    monkeypatch.setattr(jdlab.forms, "_BLOCK_NNZ", 3)
    monkeypatch.setattr(jdlab.space, "_SEARCH_CHUNK", 2)
    fresh = JumpKernel(space, kernel.matrix)
    assert np.array_equal(fresh.pair_distances(), want_d)
    assert np.array_equal(_omega_values(fresh, np.array([0.5, 3.0])), want_om)
    mc = m_constants(BuiltInstance(fresh))
    assert (mc.m_j, mc.argmax_j) == (want_mc.m_j, want_mc.argmax_j)


# -- bounded Dijkstra on graph metrics against full distance rows ---------------------


def _recording_dijkstra(monkeypatch, searches=None):
    """Patch the search in jdlab.space to record the limit of every call.

    `searches`, if given, also gets each call's (sources, limit, min_only, return_predecessors).
    """
    import jdlab.space

    limits = []
    full = jdlab.space.dijkstra

    def record(graph, *args, limit=np.inf, **kwargs):
        limits.append(limit)
        if searches is not None:
            searches.append(
                (
                    np.atleast_1d(kwargs["indices"]),
                    limit,
                    kwargs.get("min_only", False),
                    kwargs.get("return_predecessors", False),
                )
            )
        return full(graph, *args, limit=limit, **kwargs)

    monkeypatch.setattr(jdlab.space, "dijkstra", record)
    return limits


def _graph_space(n, edges, lengths, rng, origin=0):
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    w = sp.csr_matrix((lengths, (edges[:, 0], edges[:, 1])), shape=(n, n))
    return DiscreteMMSpace(rng.uniform(0.5, 2.0, size=n), metric_kind="graph", metric_graph=w + w.T, origin=origin)


def _long_graph_instance(rng):
    """A weighted random path with few chords and a kernel on random pairs, most of them many edges apart."""
    n = int(rng.integers(8, 60))
    order = rng.permutation(n)
    edges = [(order[k], order[k + 1]) for k in range(n - 1)]
    for _ in range(int(rng.integers(0, n // 4 + 1))):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.append((i, j))
    edges = np.unique(np.sort(np.array(edges), axis=1), axis=0)
    space = _graph_space(n, edges, rng.uniform(0.1, 1.0, size=len(edges)), rng, origin=int(rng.integers(n)))
    base = random_symmetric_kernel(rng, n, density=float(rng.uniform(0.02, 0.5)))
    return space, JumpKernel(space, base.kernel.matrix)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_bounded_search_matches_full_rows_over_doubling_rounds(seed):
    space, kernel = _long_graph_instance(np.random.default_rng(seed))
    assert np.array_equal(kernel.pair_distances(), oracle_pair_distances(kernel))


def _first_limits(space, kernel):
    """Each kernel row's first search limit: the first whole multiple of the longest edge at or above the row's
    landmark bound, padded by the rounding slack and clipped at twice the origin's reach; inf for a row with a
    pair across components."""
    longest, reach = space.metric_graph.data.max(), 2 * space.max_distance_from(space.origin)
    slack = 2 * space.n_points * np.finfo(float).eps * reach
    from_origin = space.distances_from(space.origin)
    tops = {}
    coo = kernel.matrix.tocoo()
    for x, y in zip(coo.row.tolist(), coo.col.tolist()):
        off = math.isinf(from_origin[x]) and math.isinf(from_origin[y])  # both off the origin's component
        tops[x] = max(tops.get(x, 0.0), 0.0 if off else abs(from_origin[x] - from_origin[y]))
    first = {}
    for x, top in tops.items():
        first[x] = min(longest * max(math.ceil((top - slack) / longest), 1) + slack, reach) if top < np.inf else np.inf
    return first


def _limits_by_row(searches):
    """Each row's search limits in call order, from single-row searches."""
    limits = {}
    for sources, limit, _, _ in searches:
        (x,) = sources.tolist()
        limits.setdefault(x, []).append(limit)
    return limits


def test_bounded_search_runs_several_rounds_on_a_long_path(monkeypatch):
    """Each row starts at a whole multiple of the longest edge; a row whose bound is loose climbs several rounds."""
    rng = np.random.default_rng(5)
    n = 40
    space = _graph_space(n, [(k, k + 1) for k in range(n - 1)], rng.uniform(0.5, 1.0, size=n - 1), rng, origin=n // 2)
    kernel = JumpKernel.from_entries(space, [0, 3, 10, 20], [1, 9, 30, 39], [1.0, 2.0, 0.5, 1.5])
    want = oracle_pair_distances(kernel)
    space.max_distance_from(space.origin)  # the origin row is a full search of its own
    searches = []
    _recording_dijkstra(monkeypatch, searches)
    assert np.array_equal(kernel.pair_distances(), want)
    first = _first_limits(space, kernel)
    limits = _limits_by_row(searches)  # 8 rows, fewer than _MIN_GROUPS: each searches alone
    assert limits.keys() == first.keys()
    reach = 2 * space.max_distance_from(n // 2)
    for x, seen in limits.items():  # a row that misses doubles from its own start, up to twice the origin's reach
        assert seen == [min(first[x] * 2**k, reach) for k in range(len(seen))]
    # 3 - 9 lies on one side of the origin, so its bound is tight and one search settles it;
    # 10 - 30 straddles the origin, so its bound is below one edge and it climbs from one edge length
    assert len(limits[3]) == 1 and len(limits[10]) >= 3
    assert first[10] == space.metric_graph.data.max() + 2 * n * np.finfo(float).eps * 2 * space.max_distance_from(n // 2)
    assert all(lim < np.inf for seen in limits.values() for lim in seen)  # all pairs lie within twice the reach


def test_bounded_search_is_exact_across_components(monkeypatch):
    """Origin on a 3-point component; a long 27-point path beside it; kernel pairs inside and across both."""
    rng = np.random.default_rng(11)
    small = [(0, 1), (1, 2)]
    large = [(k, k + 1) for k in range(3, 29)]
    space = _graph_space(30, small + large, np.ones(len(small) + len(large)), rng, origin=0)
    assert space.max_distance_from(0) == 2.0
    rows, cols = [0, 3, 3, 1, 0, 2, 4], [1, 4, 29, 10, 29, 3, 28]  # 3 - 29 is 26 apart, beyond 2 x reach
    kernel = JumpKernel.from_entries(space, rows, cols, rng.uniform(0.5, 2.0, size=len(rows)))
    want = oracle_pair_distances(kernel)
    searches = []
    limits = _recording_dijkstra(monkeypatch, searches)
    got = kernel.pair_distances()
    assert np.array_equal(got, want)
    assert np.isinf(got).sum() == 2 * 3  # three cross pairs, both orientations
    assert all(min_only and predecessors for _, _, min_only, predecessors in searches)
    # a row with a pair across the origin's component has an infinite bound and starts unbounded; rows 4
    # and 28 lie off that component (bound 0), so they start at one edge length, 1 + slack, and double up
    # to twice the origin's reach of 2, where a miss sends them to the unbounded round
    start = 1.0 + 2 * 30 * np.finfo(float).eps * 4.0
    first = {0: np.inf, 1: np.inf, 2: np.inf, 3: np.inf, 4: start, 10: np.inf, 28: start, 29: np.inf}
    assert _first_limits(space, kernel) == first
    assert _limits_by_row(searches)[4] == _limits_by_row(searches)[28] == [start, 2 * start, 4.0, np.inf]
    # the unbounded round comes last, after the bounded ones
    bounded = [start, start, 2 * start, 2 * start, 4.0, 4.0]
    assert limits[:6] == bounded and all(lim == np.inf for lim in limits[6:])
    assert space.pair_distances([3, 29, 3], [29, 3, 3]).tolist() == [26.0, 26.0, 0.0]


@pytest.mark.parametrize("subdivisions", [0, 1, 2, 3])
def test_mixed_graph_pairs_settle_on_the_first_rung(monkeypatch, subdivisions):
    """Kernel pairs on lattice2d mixed graphs lie 1/2 or 1/sqrt(3) apart, and 1/sqrt(3) is a whole number of
    longest edges: every row's first limit holds all its pairs, and none climbs."""
    import jdlab.space

    for extent, ties in ((6, False), (7, True)):  # 7: row width 15, so the stride 16 leaves tied columns
        built = kmod.mixed_graph_from_params(
            graph_kind="lattice2d", extent=extent, subdivisions=subdivisions, phi_kind="shell_power"
        )
        space, kernel = built.space, built.kernel
        want = oracle_pair_distances(kernel)
        space.max_distance_from(space.origin)
        sources = np.flatnonzero(np.diff(kernel.matrix.indptr))
        searches = []
        with pytest.MonkeyPatch.context() as patch:
            _recording_dijkstra(patch, searches)
            assert np.array_equal(kernel.pair_distances(), want)
        limits = {lim for _, lim, _, _ in searches}
        assert len(limits) == 1 and limits.pop() < 0.58  # one rung, just above 1/sqrt(3), for every search
        if not ties:  # one bounded pass: the sources dealt round-robin, one search per group, nothing retried
            stride = jdlab.space._MIN_GROUPS
            assert [group.tolist() for group, _, _, _ in searches] == [sources[g::stride].tolist() for g in range(stride)]


def test_a_group_searches_its_rung_to_the_largest_limit_among_its_rows(monkeypatch):
    """Unit path 0 - ... - 15, origin 0: pairs 1, 2, 3 and 4 edges apart, each on one side of the origin, start at
    1, 2, 3 and 4 edges; rung k holds 2^(k-1) < j <= 2^k edges, so 3 and 4 share the last one."""
    import jdlab.space

    space = _graph_space(16, [(k, k + 1) for k in range(15)], np.ones(15), np.random.default_rng(0))
    space.max_distance_from(0)
    monkeypatch.setattr(jdlab.space, "_MIN_GROUPS", 1)  # one group per rung
    searches = []
    _recording_dijkstra(monkeypatch, searches)
    assert space.pair_distances([1, 12, 5, 6], [0, 14, 2, 10]).tolist() == [1.0, 2.0, 3.0, 4.0]
    slack = 2 * 16 * np.finfo(float).eps * 30.0
    want = [([1], 1 + slack), ([12], 2 + slack), ([5, 6], 4 + slack)]
    assert [(group.tolist(), lim) for group, lim, _, _ in searches] == want


def test_equal_edges_of_an_inexact_length_settle_in_one_pass(monkeypatch):
    """A path of 0.7-long edges: a pair m edges apart has a float path sum that can exceed the float m x 0.7
    its landmark bound rounds to; the rounding slack keeps such rows on their first rung."""
    n = 20
    space = _graph_space(n, [(k, k + 1) for k in range(n - 1)], np.full(n - 1, 0.7), np.random.default_rng(3))
    rows = np.concatenate([np.arange(n - m) for m in (1, 2, 3, 4, 5, 7)])
    cols = np.concatenate([np.arange(m, n) for m in (1, 2, 3, 4, 5, 7)])
    kernel = JumpKernel.from_entries(space, rows, cols, np.ones(len(rows)))
    want = oracle_pair_distances(kernel)
    space.max_distance_from(space.origin)
    # the premise: some path sums exceed the unpadded rung 0.7 x ceil(bound / 0.7)
    sums = np.array([space.distances_from(x)[y] for x, y in zip(rows, cols)])
    bounds = space.distances_from(0)[cols] - space.distances_from(0)[rows]
    assert np.any(sums > 0.7 * np.maximum(np.ceil(bounds / 0.7), 1))
    searches = []
    _recording_dijkstra(monkeypatch, searches)
    assert np.array_equal(kernel.pair_distances(), want)
    searched = np.concatenate([group for group, _, _, _ in searches])
    assert np.array_equal(np.sort(searched), np.arange(n))  # each row searched once: no miss, no retry
    assert all(lim < np.inf for _, lim, _, _ in searches)


def _components_instance(rng):
    """2 to 4 weighted components (paths plus chords, log-uniform lengths), the origin on part 0, and a
    kernel on random pairs plus a pair inside part 1 and one from the origin to part 1."""
    n_parts = int(rng.integers(2, 5))
    n = int(rng.integers(2 * n_parts, 40))
    part = np.concatenate([np.repeat(np.arange(n_parts), 2), rng.integers(n_parts, size=n - 2 * n_parts)])
    part = part[rng.permutation(n)]
    edges = []
    for p in range(n_parts):
        members = rng.permutation(np.flatnonzero(part == p))
        edges += list(zip(members[:-1], members[1:]))
        for _ in range(int(rng.integers(0, len(members)))):
            i, j = rng.choice(members, size=2)
            if i != j:
                edges.append((i, j))
    edges = np.unique(np.sort(np.array(edges), axis=1), axis=0)
    origin = int(rng.choice(np.flatnonzero(part == 0)))
    space = _graph_space(n, edges, 10.0 ** rng.uniform(-2, 0.5, size=len(edges)), rng, origin=origin)
    second = np.flatnonzero(part == 1)
    pairs = {tuple(sorted(rng.choice(n, size=2, replace=False))) for _ in range(int(rng.integers(1, 3 * n)))}
    pairs |= {tuple(sorted(rng.choice(second, size=2, replace=False))), tuple(sorted((origin, rng.choice(second))))}
    rows, cols = np.array(sorted(pairs)).T
    return space, JumpKernel.from_entries(space, rows, cols, rng.uniform(0.5, 2.0, size=len(rows)))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_bounded_search_matches_full_rows_across_components_in_small_chunks(seed):
    import jdlab.space

    space, kernel = _components_instance(np.random.default_rng(seed))
    want = oracle_pair_distances(kernel)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jdlab.space, "_SEARCH_CHUNK", 2)
        assert np.array_equal(kernel.pair_distances(), want)


def test_a_mixed_graph_settles_every_pair_in_one_bounded_pass(monkeypatch):
    import jdlab.space

    built = kmod.mixed_graph_from_params(
        graph_kind="lattice2d", extent=6, subdivisions=2, phi_kind="shell_power", truncation_radius=6
    )
    space, kernel = built.space, built.kernel
    assert space.n_points == 793
    want = oracle_pair_distances(kernel)
    space.max_distance_from(space.origin)  # the origin row is a full search of its own
    sources = np.flatnonzero(np.diff(kernel.matrix.indptr))
    searches = []
    _recording_dijkstra(monkeypatch, searches)
    for chunk in (jdlab.space._SEARCH_CHUNK, 8):  # at least _MIN_GROUPS groups, then ceil(169 / 8) = 22
        monkeypatch.setattr(jdlab.space, "_SEARCH_CHUNK", chunk)
        searches.clear()
        assert np.array_equal(JumpKernel(space, kernel.matrix).pair_distances(), want)
        assert all(min_only and predecessors for _, _, min_only, predecessors in searches)
        # one bounded pass: the sources dealt round-robin into groups, one search each, nothing retried
        n_groups = max(-(-len(sources) // chunk), min(len(sources), jdlab.space._MIN_GROUPS))
        assert [group.tolist() for group, _, _, _ in searches] == [sources[g::n_groups].tolist() for g in range(n_groups)]
        assert len({lim for _, lim, _, _ in searches}) == 1 and searches[0][1] < np.inf


def test_a_column_equidistant_from_two_rows_of_a_group_settles_for_both(monkeypatch):
    """Unit path 0 - 1 - 2: one search from {0, 2} gives point 1 to one owner; the other row is retried."""
    import jdlab.space

    space = _graph_space(3, [(0, 1), (1, 2)], np.ones(2), np.random.default_rng(0), origin=0)
    space.max_distance_from(0)
    monkeypatch.setattr(jdlab.space, "_MIN_GROUPS", 1)
    searches = []
    _recording_dijkstra(monkeypatch, searches)
    assert space.pair_distances([0, 2], [1, 1]).tolist() == [1.0, 1.0]
    assert searches[0][0].tolist() == [0, 2]
    assert len(searches) == 2 and len(searches[1][0]) == 1  # the row that lost the tie, on its own


def _tied_instance(rng):
    """A random connected graph with edge lengths from a few values (unit lengths half the time), so columns
    are often equidistant from several rows, and a kernel on random pairs: every column is a row as well."""
    n = int(rng.integers(3, 40))
    order = rng.permutation(n)
    edges = [(order[k], order[k + 1]) for k in range(n - 1)]
    for _ in range(int(rng.integers(0, n))):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.append((i, j))
    edges = np.unique(np.sort(np.array(edges), axis=1), axis=0)
    lengths = rng.choice([1.0] if rng.random() < 0.5 else [0.5, 1.0, 1.5], size=len(edges))
    space = _graph_space(n, edges, lengths, rng, origin=int(rng.integers(n)))
    pairs = np.unique(np.sort(rng.integers(0, n, size=(int(rng.integers(1, 3 * n)), 2)), axis=1), axis=0)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    vals = rng.uniform(0.5, 2.0, size=len(pairs))
    return space, JumpKernel.from_entries(space, pairs[:, 0], pairs[:, 1], vals) if len(pairs) else None


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([1, 2, 3, 256]))
def test_shared_searches_match_full_rows_bit_for_bit(seed, chunk):
    import jdlab.space

    space, kernel = _tied_instance(np.random.default_rng(seed))
    if kernel is None:
        return
    want = oracle_pair_distances(kernel)
    searches = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jdlab.space, "_SEARCH_CHUNK", chunk)
        patch.setattr(jdlab.space, "_MIN_GROUPS", 1)  # let groups share even on these few rows
        _recording_dijkstra(patch, searches)
        assert np.array_equal(kernel.pair_distances(), want)
    if chunk > 1 and np.count_nonzero(np.diff(kernel.matrix.indptr)) > 1:
        assert max(len(group) for group, _, _, _ in searches) > 1


def test_bounded_search_on_an_empty_kernel():
    space, _ = _long_graph_instance(np.random.default_rng(2))
    kernel = JumpKernel(space, sp.csr_matrix((space.n_points, space.n_points)))
    assert kernel.pair_distances().shape == (0,)
    assert np.array_equal(kernel.pair_distances(), oracle_pair_distances(kernel))
    assert space.pair_distances([], []).shape == (0,)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_dead_components_match_loops(seed):
    rng = np.random.default_rng(seed)
    built = random_symmetric_kernel(rng, int(rng.integers(2, 30)), density=float(rng.uniform(0.02, 0.3)))
    g = form_matrix(built)
    free = rng.random(built.space.n_points) < 0.6
    g_rows = g[np.flatnonzero(free)].tocsr()
    a_ff = g_rows[:, np.flatnonzero(free)].tocsr()
    want = oracle_dead_components(a_ff, g_rows, ~free)
    labels, dead = _dead_components(a_ff, g_rows, ~free)
    assert np.array_equal(dead[labels], want)


def whole_ball_note(space, radius):
    """The scan's note when its last ball, about point 0, holds every point and so can raise no certificate."""
    if not (space.distances_from(0) < radius).all():
        return []
    return [f"the ball of radius {radius:.6g} holds every point, so its capacity is 0 on any space: no certificate"]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_capacity_scan_matches_per_radius_potentials(seed):
    rng = np.random.default_rng(seed)
    built = random_symmetric_kernel(rng, int(rng.integers(4, 40)), density=float(rng.uniform(0.02, 0.5)))
    space, kernel = built.space, built.kernel
    radii = sorted(float(r) for r in rng.uniform(1.5, space.n_points, size=3))
    scan = capacity_scan(BuiltInstance(kernel), [0], radii)
    dist = space.distances_from(0)
    caps, residuals, warnings = [], [], []
    for r in radii:
        solve = equilibrium_potential(BuiltInstance(kernel), [0], dist < r)
        caps.append(solve.energy)
        residuals.append(solve.residual)
        warnings.extend(solve.warnings)
    assert scan.capacities == caps
    assert scan.residuals == residuals
    assert scan.warnings == warnings + boundary_notes(space.max_distance_from(0), radii[-1]) + whole_ball_note(space, radii[-1])


@pytest.mark.parametrize("dim,radius", [(1, 5), (2, 4), (3, 3), (4, 2)])
def test_neighbor_entries_match_tuple_dict(dim, radius):
    steps = _lattice_points(dim, radius, 1.0)
    want_rows, want_cols = oracle_neighbor_entries(steps)
    ids, inside = _neighbors(steps)
    assert ids.dtype == np.int64 and ids.shape == inside.shape == (len(steps), 2 * dim)
    assert (np.diff(ids, axis=1) > 0).all()  # each row's offsets in increasing order
    points = np.broadcast_to(np.arange(len(steps))[:, None], ids.shape)
    up, down = slice(None, dim - 1, -1), slice(None, dim)  # +s_0 ... +s_{dim-1}, and the -s half
    assert np.array_equal(points[:, up][inside[:, up]], want_rows)
    assert np.array_equal(ids[:, up][inside[:, up]], want_cols)
    # the -s half holds the same pairs, seen from their larger end
    below = sorted(zip(ids[:, down][inside[:, down]].tolist(), points[:, down][inside[:, down]].tolist()))
    assert below == sorted(zip(want_rows.tolist(), want_cols.tolist()))


@pytest.mark.parametrize("extent", [0, 1, 2, 7, 25])
def test_lattice2d_edges_match_tuple_dict(extent):
    assert np.array_equal(lattice2d_graph(extent).edges, oracle_lattice2d_edges(extent))


# -- kernel builders against the dense n x n build and the per-offset loops ----------


def assert_bit_identical(a, b):
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def _both_builds(monkeypatch, build):
    """The instance from the CSR row-chunk build, then the one from the dense n x n build."""
    import jdlab.kernels

    new = build()
    monkeypatch.setattr(jdlab.kernels, "_pairwise_kernel", oracle_dense_kernel)
    return new, build()


@pytest.mark.parametrize("measure", ["counting", "cell"])
@pytest.mark.parametrize("density", [0.0, 1.0, 2.5])
@pytest.mark.parametrize("spacing", [1.0, 0.5])
@pytest.mark.parametrize("dim,radius", [(1, 1), (1, 5), (2, 1), (2, 4), (3, 1), (3, 3), (4, 1), (4, 2)])
def test_lattice_nn_matches_from_entries_over_tuple_dict(dim, radius, spacing, density, measure):
    # lattice_nn writes its CSR from the box's sorted offsets; the oracle pairs neighbours by a tuple dict and
    # symmetrizes them through max(m, m.T)
    built = lattice_nn(dim=dim, spacing=spacing, density=density, measure=measure, truncation_radius=radius)
    rows, cols = oracle_neighbor_entries(built.space.steps)
    want = oracle_from_entries(JumpKernel, built.space, rows, cols, np.full(len(rows), density))
    assert_bit_identical(built.kernel.matrix, want.matrix)
    assert built.kernel.matrix.nnz == (0 if density == 0 else 2 * len(rows))


@pytest.mark.parametrize(
    "case,dim,radius",
    [("i", 1, 300.0), ("ii", 1, 300.0), ("i", 2, 6.0), ("ii", 2, 6.0), ("i", 3, 2.0), ("ii", 3, 2.0)],
)
def test_stable_like_kernel_matches_dense_build(case, dim, radius):
    # lattice builds gather the CSR from a stencil, so the dense build is called here, not patched in
    kwargs = dict(case=case, alpha=1.2, beta=0.7, tempering=0.8)
    built = stable_like(dim=dim, spacing=0.5, truncation_radius=radius, **kwargs)
    assert built.space.n_points > 512  # more than one row chunk
    density = stable_like_density(kappa=float(dim), **kwargs)
    assert_bit_identical(built.kernel.csr().matrix, oracle_dense_kernel(built.space, lambda idx, d: density(d)).matrix)


@pytest.mark.parametrize("case", ["i", "ii"])
def test_gasket_kernel_matches_dense_build(case):
    # the stencil takes d from the offsets k @ B, the dense build from differences of float coordinates, which round
    # differently, so the entries agree to 1e-12, not bit for bit. Case ii jumps at d = 1, where the dense build's
    # rounded distances land on either side for pairs exactly 1 apart; the stencil gives them all j(1).
    built = stable_like(case=case, alpha=0.8, support="gasket", gasket_level=6)
    assert built.space.n_points > 512
    density = stable_like_density(case=case, alpha=0.8, kappa=kmod.KAPPA_GASKET)
    got, want = built.kernel.csr().matrix, oracle_dense_kernel(built.space, lambda idx, d: density(d)).matrix
    assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
    a, b = (built.space.steps[np.repeat(np.arange(got.shape[0]), np.diff(got.indptr))] - built.space.steps[got.indices]).T
    unit = a * a + a * b + b * b == 1  # |a e1 + b e2|^2 on the triangular lattice, in integers
    expected = np.where(unit, density(np.array(1.0)), want.data)
    assert (np.abs(want.data - expected) > 1e-12 * expected).any() == (case == "ii")
    np.testing.assert_allclose(got.data, expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dim": 1, "layers": 3, "psi": 2.0},
        {"dim": 2, "layers": 2, "psi": lambda p: (1.0 + np.sqrt((p**2).sum(axis=1))) ** -1.0, "truncation_radius": 5.0},
        {"dim": 1, "layers": 2, "psi": lambda p: (0.5 + np.abs(p[:, 0])) ** 0.5, "range_cutoff": 1.5},
    ],
)
def test_stack_kernel_and_flags_match_dense_build(monkeypatch, kwargs):
    new, old = _both_builds(monkeypatch, lambda: stack_space(spacing=0.5, alpha=0.9, beta=1.3, **kwargs))
    assert_bit_identical(new.kernel.matrix, old.kernel.matrix)


@pytest.mark.filterwarnings("ignore:overflow encountered in exp")
@pytest.mark.parametrize("lam,spacing,radius", [(1.0, 0.1, 20.0), (0.3, 0.3, 12.0), (50.0, 0.05, 15.0)])
def test_weighted_line_kernel_matches_offset_loop(lam, spacing, radius):
    if 2 * lam * radius > 709.78:  # exp overflows: the measure is inf far out
        with pytest.raises(ValueError, match="finite"):
            weighted_line(lam=lam, spacing=spacing, truncation_radius=radius)
        return
    built = weighted_line(lam=lam, spacing=spacing, truncation_radius=radius)
    want = oracle_weighted_line_kernel(built.space, lam, spacing)
    assert_bit_identical(built.kernel.matrix, want.matrix)
    # with a finite measure, 2 lam R < 745 and no entry e^{-lam(|x|+|y|)} underflows to 0
    pairs = oracle_band_entries(built.space.n_points, int(math.floor(1.0 / spacing + 1e-9)))[0].size
    assert built.kernel.matrix.nnz == 2 * pairs


@pytest.mark.parametrize(
    "dim,spacing,profile",
    [(1, 0.05, "sandwich"), (2, 0.1, "sandwich"), (1, 0.3, "linear"), (3, 0.05, "constant"), (1, 1.0, "sandwich")],
)
def test_model_manifold_kernel_matches_offset_loop(dim, spacing, profile):
    built = model_manifold(dim=dim, spacing=spacing, profile=profile, truncation_radius=20.0, profile_constant=1.5)
    radii = built.space.coords[:, 0]
    sig = {
        "sandwich": lambda r: sandwich_profile(dim)(r),
        "linear": lambda r: 1.5 * r,
        "constant": lambda r: np.full_like(r, 1.5),
    }[profile](radii)
    want = oracle_model_manifold_kernel(built.space, sig, dim, spacing)
    assert_bit_identical(built.kernel.matrix, want.matrix)
    assert (built.kernel.matrix.nnz == 0) == (spacing >= 1.0)


@pytest.mark.parametrize("n,band", [(1, 3), (5, 0), (5, 2), (5, 4), (5, 9), (40, 19)])
def test_band_entries_match_offset_loop(n, band):
    rows, cols = _band_entries(n, band)
    want_rows, want_cols = oracle_band_entries(n, band)
    assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
    assert rows.dtype == cols.dtype == np.int64


def _irregular_graph(rng, n):
    """Random connected graph (spanning path plus chords) with random weights and measure."""
    order = rng.permutation(n)
    edges = [(order[k], order[k + 1]) for k in range(n - 1)] + [tuple(rng.choice(n, 2, replace=False)) for _ in range(n)]
    edges = np.unique(np.sort(np.array(edges), axis=1), axis=0)
    return GraphData(n, edges, rng.uniform(0.0, 3.0, size=len(edges)), rng.uniform(0.5, 2.0, size=n))


@pytest.mark.parametrize("k", [0, 1, 2, 5])
@pytest.mark.parametrize("which", ["lattice", "lattice-array-phi", "irregular"])
def test_mixed_graph_matches_chain_loop(k, which):
    rng = np.random.default_rng(k)
    graph = _irregular_graph(rng, 12) if which == "irregular" else lattice2d_graph(3)
    phi = rng.uniform(0.2, 2.0, size=len(graph.edges)) if which != "lattice" else 0.7
    built = mixed_graph(graph, phi=phi, subdivisions=k)
    measure, metric_graph, local_edges, cond, support = oracle_mixed_graph_parts(graph, phi, k)
    assert measure.tobytes() == built.space.measure.tobytes()
    assert_bit_identical(built.space.metric_graph, metric_graph)
    if k == 0:
        assert built.local is None
        return
    assert np.array_equal(built.local.edges, local_edges)
    assert cond.tobytes() == built.local.conductance.tobytes()
    assert np.array_equal(built.local.support, support) and built.local.support.dtype == np.int64
    assert np.array_equal(support_sets(built)[0], support)


@pytest.mark.parametrize("which", ["lattice", "weighted-cycle"])
def test_build_graph_space_matches_its_own_build(which):
    # the graph space is the bare mixed graph: no edge interior, so no local part
    if which == "lattice":
        g, origin = lattice2d_graph(6), 84
    else:  # a zero-weight edge: both its ends still have positive degree
        edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]])
        g, origin = GraphData(5, edges, np.array([1.0, 2.5, 0.0, 0.7, 3.0]), np.array([1.0, 2.0, 0.5, 1.5, 1.0])), 3
    space = mixed_graph(g, subdivisions=0, origin=origin, truncation_radius=4.0).space
    _, metric_graph = oracle_graph_space_parts(g)
    assert space.measure.tobytes() == g.vertex_measure.tobytes()
    assert_bit_identical(space.metric_graph, metric_graph)
    assert (space.origin, space.truncation_radius) == (origin, 4.0)
    full = dijkstra(metric_graph, directed=False)
    for x in range(g.n_vertices):
        assert space.distances_from(x).tobytes() == full[x].tobytes()


# -- the kernel symmetry check against m - m.T ---------------------------------------

_SPECIAL = [1.0, 2.0, np.nextafter(1.0, 2.0), 5e-324, 1e-323, -0.0, 0.0, np.inf, -np.inf, np.nan]


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_symmetry_check_accepts_what_m_minus_mt_accepted(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    k = int(rng.integers(0, 8))
    rows, cols = rng.integers(0, n, size=k), rng.integers(0, n, size=k)
    vals = rng.choice(_SPECIAL, size=k) if rng.random() < 0.5 else rng.uniform(0.0, 2.0, size=k)
    if rng.random() < 0.6:  # mirror every entry, then maybe spoil one
        rows, cols, vals = np.concatenate([rows, cols]), np.concatenate([cols, rows]), np.concatenate([vals, vals])
        if k and rng.random() < 0.3:
            vals[rng.integers(2 * k)] = rng.choice(_SPECIAL)
    # unsorted indices with duplicates, as a caller may hand them in
    perm = np.argsort(rows, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    matrix = sp.csr_matrix((vals[perm], cols[perm], indptr), shape=(n, n))
    space = DiscreteMMSpace(np.ones(n), coords=np.arange(n, dtype=float)[:, None])
    try:
        JumpKernel(space, matrix.copy())
        accepted = True
    except ValueError as exc:
        # a non-finite entry is named before the symmetry check, and a negative one passes it first
        accepted = "symmetric" not in str(exc) and "finite" not in str(exc)
    assert accepted == oracle_is_symmetric(matrix.copy())


# -- form matrix and the free-set solve on islands --------------------------------


def _island_instance(seed):
    """Sparse random kernel (isolated points and small islands), sometimes with a local chain."""
    rng = np.random.default_rng(seed)
    built = random_symmetric_kernel(rng, int(rng.integers(4, 40)), density=float(rng.uniform(0.01, 0.2)))
    space, local = built.space, None
    if rng.random() < 0.5:
        points = rng.choice(space.n_points, size=int(rng.integers(2, space.n_points // 2 + 2)), replace=False)
        local = local_chain(space, points, float(rng.uniform(0.5, 2.0)))
    return rng, space, built.kernel, local


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_islands_form_matrix_dead_masks_and_scan_match_oracles(seed):
    rng, space, kernel, local = _island_instance(seed)
    g = form_matrix(BuiltInstance(kernel, local))
    want = oracle_form_matrix(space, kernel, local)
    assert_bit_identical(g, want)
    free = rng.random(space.n_points) < 0.6
    g_rows = g[np.flatnonzero(free)].tocsr()
    a_ff = g_rows[:, np.flatnonzero(free)].tocsr()
    labels, dead = _dead_components(a_ff, g_rows, ~free)
    assert np.array_equal(dead[labels], oracle_dead_components(a_ff, g_rows, ~free))
    radii = sorted(float(r) for r in rng.uniform(0.5, space.n_points, size=3))
    scan = capacity_scan(BuiltInstance(kernel, local), [0], radii)
    caps, residuals, warns = oracle_capacities(space, kernel, local, np.array([0]), radii)
    assert scan.capacities == caps
    assert scan.residuals == residuals
    assert scan.warnings == warns + boundary_notes(space.max_distance_from(0), radii[-1]) + whole_ball_note(space, radii[-1])


def test_zero_conductance_edge_does_not_join_components():
    """A local edge of conductance 0 is stored as explicit zeros in G_c; it must not couple 2 to 1."""
    space = DiscreteMMSpace(np.ones(6), coords=np.arange(6.0)[:, None])
    local = LocalPart(space, np.array([[0, 1], [1, 2], [2, 3]]), np.array([1.0, 0.0, 1.0]), np.arange(4))
    assert np.any(local.form_matrix().data == 0.0)
    empty = JumpKernel.from_entries(space, [], [], [])
    solve = equilibrium_potential(BuiltInstance(empty, local), [0], space.distances_from(0) < 3.5)
    assert solve.warnings == [
        "2 free points lie in components touching neither K nor the ball boundary; their potential is set to 0"
    ]
    assert list(solve.u) == [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "build",
    [
        lambda: model_manifold(dim=2, spacing=0.1, truncation_radius=8.0),
        lambda: kmod.mixed_graph_from_params(extent=5, subdivisions=2, phi_kind="shell_power"),
    ],
    ids=["model_manifold", "mixed_graph"],
)
def test_an_empty_kernel_gives_what_no_kernel_gave(build):
    """An empty JumpKernel leaves the local part alone: energy, G, supports, recurrence and capacities bit for bit."""
    built = build()
    space, local, origin = built.space, built.local, built.space.origin
    empty = JumpKernel.from_entries(space, [], [], [])
    rng = np.random.default_rng(1)
    u, v = rng.normal(size=space.n_points), rng.normal(size=space.n_points)
    assert form_energy(BuiltInstance(empty, local), u, v) == 0.0 + local.energy(u, v)
    assert_bit_identical(form_matrix(BuiltInstance(empty, local)), oracle_form_matrix(space, None, local))
    x_c, x_j = support_sets(BuiltInstance(empty, local))
    assert np.array_equal(x_c, local.support) and x_j.size == 0
    radii = [space.max_distance_from(origin) * f for f in (0.2, 0.4, 0.7, 0.95)]
    rep = recurrence_report(BuiltInstance(empty, local), origin, radii)
    on_c = space.measure * np.isin(np.arange(space.n_points), local.support)  # m on X^(c)
    assert rep.values == [v_c / r**2 for r, v_c in zip(radii, ball_volumes(space, origin, radii, on_c).tolist())]
    assert rep.extras["omega"] == [0.0] * len(radii)
    assert "jump support is empty: omega is identically 0" in rep.notes
    scan = capacity_scan(BuiltInstance(empty, local), [origin], radii)
    caps, residuals, warns = oracle_capacities(space, None, local, np.array([origin]), radii)
    assert scan.capacities == caps and scan.residuals == residuals
    assert scan.warnings == warns + boundary_notes(space.max_distance_from(origin), radii[-1])


# -- stale supports regression ----------------------------------------------------


def test_criteria_use_the_supports_of_the_kernel_they_are_given():
    built = lattice_nn(dim=1, truncation_radius=50)
    space = built.space
    empty = JumpKernel(space, sp.csr_matrix((space.n_points,) * 2))
    mc = m_constants(BuiltInstance(empty))
    assert (mc.m_j, mc.argmax_j) == (0.0, None)
    rep = recurrence_report(BuiltInstance(empty), space.origin, [2.0, 4.0, 8.0])
    assert "jump support is empty: omega is identically 0" in rep.notes
    assert rep.values == [0.0, 0.0, 0.0]


# -- spec builds against the hand-copied dispatch, kernel entries against max(m, m.T) ---------

_E = [[k, k + 1, (k + 1) ** 3] for k in range(12)]
_EDGES = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [1, 3]]
_SPECS = {
    "nn": ("lattice", 10, {"dim": 1, "spacing": 1, "kernel": {"family": "nn", "density": 2}}),
    "nn-cell": ("lattice", 3, {"dim": 2, "spacing": 1, "measure": "cell"}),
    "nn-default": ("lattice", 7, {}),
    "stable_i": ("lattice", 60, {"dim": 1, "kernel": {"family": "stable_i", "alpha": 1, "beta": 1}}),
    "stable_i-2d": ("lattice", 3, {"dim": 2, "spacing": 1, "kernel": {"family": "stable_i", "alpha": 1, "beta": 2}}),
    "stable_ii": ("lattice", 40, {"dim": 1, "spacing": 2, "kernel": {"family": "stable_ii", "alpha": 1, "tempering": 2}}),
    "gasket": ("lattice", 8, {"support": "gasket", "gasket_level": 3, "kernel": {"family": "stable_i", "alpha": 1}}),
    "explicit": ("lattice", 3, {"dim": 1, "kernel": {"family": "explicit", "n_points": 4, "entries": [[0, 1, 2], [2, 1, 5]]}}),
    "explicit-mirrored": (
        "lattice", 3, {"dim": 1, "kernel": {"family": "explicit", "n_points": 4, "entries": [[0, 1, 2], [1, 0, 2], [2, 1, 5]]}}
    ),
    "explicit-default-n": ("lattice", 6, {"dim": 2, "spacing": 1, "kernel": {"family": "explicit", "entries": _E}}),
    "explicit-empty": ("lattice", 3, {"kernel": {"family": "explicit", "n_points": 3}}),
    "graph": ("graph", 3, {"graph_kind": "lattice2d", "extent": 3, "subdivisions": 1, "phi_constant": 2}),
    "graph-shell_power": ("graph", 6, {"graph_kind": "lattice2d", "extent": 6, "subdivisions": 2, "phi_kind": "shell_power"}),
    "graph-explicit-shell_power": ("graph", 4, {
        "graph_kind": "explicit", "n_vertices": 5, "edges": _EDGES, "weights": [1, 2, 0, 3, 3, 1],
        "vertex_measure": [1, 2, 1, 3, 1], "subdivisions": 2, "phi_kind": "shell_power", "phi_constant": 2, "phi_power": 3,
    }),
    "stack-constant": ("stack", 3, {"dim": 1, "spacing": 1, "layers": 2, "psi": {"kind": "constant", "value": 2}}),
    "stack-power": ("stack", 4, {"dim": 1, "layers": 3, "alpha": 1, "beta": 1, "psi": {"kind": "power", "a": 1, "p": -1}}),
    "stack-scalar": ("stack", 2, {"dim": 2, "psi": 3, "range_cutoff": 2}),
    "weighted_line": ("weighted_line", 5, {"lam": 1}),
    "model_manifold-sandwich": ("model_manifold", 4, {"dim": 1, "profile": "sandwich"}),
    "model_manifold-constant": ("model_manifold", 4, {"dim": 2, "profile": "constant", "profile_constant": 2}),
    "model_manifold-linear": ("model_manifold", 4, {"dim": 1, "profile": "linear", "profile_constant": 3}),
}
# counts, indices and sizes; every other number is written once as an int, once as a float
_INTEGER_KEYS = {"dim", "layers", "extent", "subdivisions", "n_vertices", "n_points", "edges", "gasket_level"}


def _as_floats(obj, key=None):
    if key in _INTEGER_KEYS:
        return obj
    if isinstance(obj, dict):
        return {k: _as_floats(v, k) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_as_floats(v, key) for v in obj]
    return float(obj) if isinstance(obj, int) and not isinstance(obj, bool) else obj


def _spec(name, floats):
    kind, radius, params = _SPECS[name]
    spec = {"type": kind, "truncation_radius": radius, "params": params}
    return _as_floats(spec) if floats else spec


def _oracle_build(monkeypatch, spec):
    with monkeypatch.context() as patch:
        patch.setattr(JumpKernel, "from_entries", classmethod(oracle_from_entries))
        return oracle_build_from_spec(spec)


def _array_equal(a, b):
    return (a is None and b is None) or (
        a is not None and b is not None and a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    )


def assert_same_instance(a, b):
    for name in ("measure", "coords", "steps"):
        assert _array_equal(getattr(a.space, name), getattr(b.space, name)), name
    for name in ("origin", "truncation_radius", "metric_kind"):
        assert getattr(a.space, name) == getattr(b.space, name), name
    x, y = a.space.metric_graph, b.space.metric_graph
    assert (x is None) == (y is None)
    if x is not None:
        assert_bit_identical(x, y)
    assert_bit_identical(a.kernel.csr().matrix, b.kernel.csr().matrix)
    assert (a.local is None) == (b.local is None)
    if a.local is not None:
        for name in ("edges", "conductance", "support"):
            assert _array_equal(getattr(a.local, name), getattr(b.local, name)), name


@pytest.mark.parametrize("floats", [False, True], ids=["ints", "floats"])
@pytest.mark.parametrize("name", sorted(_SPECS))
def test_spec_builds_match_the_hand_copied_dispatch(monkeypatch, name, floats):
    spec = _spec(name, floats)
    built = build_from_spec(spec)
    assert_same_instance(built, _oracle_build(monkeypatch, spec))
    if spec["type"] == "lattice":  # the builders own the casts
        assert_same_instance(built, build_from_spec(_spec(name, not floats)))


@pytest.mark.parametrize("dim,gasket_level", [(2.0, 5), (1, 3.0)])
def test_integer_lattice_params_written_as_floats(monkeypatch, dim, gasket_level):
    kernel = {"family": "stable_i", "alpha": 1.5}
    gasket = {"support": "gasket", "gasket_level": gasket_level, "kernel": kernel}
    for radius, params in ((4, {"dim": dim, "kernel": kernel}), (2 ** int(gasket_level), gasket)):  # a gasket's is 2^L
        spec = {"type": "lattice", "truncation_radius": radius, "params": params}
        assert_same_instance(build_from_spec(spec), _oracle_build(monkeypatch, spec))


def test_repeated_equal_entries_collapse_where_the_old_build_doubled(monkeypatch):
    once = {"type": "lattice", "truncation_radius": 3,
            "params": {"kernel": {"family": "explicit", "n_points": 4, "entries": [[0, 1, 2.0], [2, 1, 0.5]]}}}
    repeated = json.loads(json.dumps(once))
    repeated["params"]["kernel"]["entries"] += [[0, 1, 2.0], [1, 0, 2.0], [1, 2, 0.5]]
    assert_same_instance(build_from_spec(repeated), _oracle_build(monkeypatch, once))
    # each orientation summed its copies first: (0, 1) twice gave 4, then max(m, m.T)
    assert _oracle_build(monkeypatch, repeated).kernel.matrix[0, 1] == 4.0


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_from_entries_matches_max_of_both_orientations(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    i, j = np.triu_indices(n, k=1)
    pick = rng.random(len(i)) < 0.5
    i, j = i[pick], j[pick]
    vals = rng.uniform(0.0, 2.0, size=len(i))
    vals[rng.random(len(i)) < 0.2] = 0.0
    flip = rng.random(len(i)) < 0.5  # either orientation
    rows, cols = np.where(flip, j, i), np.where(flip, i, j)
    space = DiscreteMMSpace(np.ones(n), coords=np.arange(n, dtype=float)[:, None])
    want = oracle_from_entries(JumpKernel, space, rows, cols, vals).matrix
    assert_bit_identical(JumpKernel.from_entries(space, rows, cols, vals).matrix, want)
    # the same pairs with repeats in both orientations collapse to the same kernel
    again = rng.integers(0, len(i), size=len(i)) if len(i) else np.zeros(0, dtype=np.int64)
    rep_rows, rep_cols = np.concatenate([rows, cols[again]]), np.concatenate([cols, rows[again]])
    rep_vals = np.concatenate([vals, vals[again]])
    assert_bit_identical(JumpKernel.from_entries(space, rep_rows, rep_cols, rep_vals).matrix, want)


@pytest.mark.parametrize("seed", range(12))
def test_kernel_init_clears_the_diagonal_as_setdiag_did(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    rows, cols = np.triu_indices(n, k=1)
    pick = rng.random(len(rows)) < 0.3
    pick[0] = True
    rows, cols = rows[pick], cols[pick]
    k = len(rows)
    vals = rng.uniform(0.0, 2.0, size=k)
    vals[rng.random(k) < 0.2] = 0.0
    dup = rng.integers(0, k, size=k // 2 + 1)
    diag = rng.integers(0, n, size=3)
    # mirrored entries, some of them twice (a sum of two is the same in either order), plus stored diagonal entries
    rows, cols, vals = (
        np.concatenate([rows, cols, rows[dup], cols[dup], diag]),
        np.concatenate([cols, rows, cols[dup], rows[dup], diag]),
        np.concatenate([vals, vals, vals[dup], vals[dup], rng.uniform(0.5, 1.0, size=3)]),
    )
    perm = rng.permutation(len(rows))  # unsorted indices within each row
    perm = perm[np.argsort(rows[perm], kind="stable")]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    matrix = sp.csr_matrix((vals[perm], cols[perm], indptr), shape=(n, n))
    assert not matrix.has_canonical_format and matrix.diagonal().any()
    space = DiscreteMMSpace(np.ones(n), coords=np.arange(n, dtype=float)[:, None])
    got = JumpKernel(space, matrix.copy()).matrix
    assert_bit_identical(got, oracle_canonical(matrix.copy(), n))
    assert got.has_canonical_format and not got.diagonal().any() and got.data.all()


@pytest.mark.parametrize("which", ["lattice", "explicit"])
def test_shell_power_phi_matches_the_rho_row_of_a_whole_space(which):
    if which == "lattice":
        g, origin = lattice2d_graph(25), 1300
        built = kmod.mixed_graph_from_params(graph_kind="lattice2d", extent=25, subdivisions=1, phi_kind="shell_power")
        a, b = np.divmod(np.arange(g.n_vertices), 51)
        phi = oracle_shell_power_phi(g, np.abs(a - 25) + np.abs(b - 25), 1.0, 2.0)  # |a| + |b| hops to (a, b)
    else:
        w, mu = [1.0, 2.5, 0.0, 0.7, 3.0, 1.0], [1.0, 2.0, 0.5, 1.5, 1.0]
        g, origin = GraphData(5, _EDGES, w, mu), 0
        built = kmod.mixed_graph_from_params(
            graph_kind="explicit", n_vertices=5, edges=_EDGES, weights=w, vertex_measure=mu,
            subdivisions=1, phi_kind="shell_power", phi_constant=0.5, phi_power=1.5,
        )
        phi = oracle_shell_power_phi(g, oracle_bfs_hops(g, origin), 0.5, 1.5)
    want = mixed_graph(g, phi=phi, subdivisions=1, origin=origin, truncation_radius=built.space.truncation_radius)
    assert_same_instance(built, want)
