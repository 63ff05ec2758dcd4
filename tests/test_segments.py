"""Differential tests: CSR row-segment paths against the per-row loops they replaced.

The oracles below are the earlier implementations, kept verbatim in spirit:
dense distance rows per point, per-row Python reductions, tuple-dict
lattice neighbours. Pair distances and the lattice arrays must match bit
for bit; row sums are accumulated in another order, so omega and M_j must
agree within 1e-12 relative.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from jdlab import (
    DiscreteMMSpace,
    GraphData,
    build_graph_space,
    capacity_scan,
    equilibrium_potential,
    lattice_nn,
    m_constants,
    recurrence_report,
    split_supports,
    truncate_kernel,
)
from jdlab.capacity import _dead_components
from jdlab.criteria import _omega_values
from jdlab.forms import JumpKernel, form_matrix, row_blocks
from jdlab.kernels import _lattice_points, _neighbor_entries, lattice2d_graph
from conftest import random_symmetric_kernel

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
    space = build_graph_space(g)
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
    space, kernel = _instance(seed, metric_kind)
    radii = np.array([0.1, 0.7, 1.0, 2.5, 10.0])
    got = _omega_values(space, kernel, radii)
    for k, r in enumerate(radii):
        want, _, _ = oracle_row_sums(kernel, lambda d: np.minimum(d, r) ** 2)
        assert got[k] == pytest.approx(want, rel=REL, abs=0.0)
    mc = m_constants(space, kernel, None)
    want, arg, values = oracle_row_sums(kernel, lambda d: np.minimum(1.0, d**2))
    assert mc.m_j == pytest.approx(want, rel=REL, abs=0.0)
    # equal up to ties: the reported row attains the maximum as well
    assert mc.argmax_j == arg or values[mc.argmax_j] == pytest.approx(want, rel=REL, abs=0.0)
    assert type(mc.argmax_j_on_boundary) is bool


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

    space, kernel = _instance(3, metric_kind)
    want_d = kernel.pair_distances().copy()
    want_om = _omega_values(space, kernel, np.array([0.5, 3.0]))
    want_mc = m_constants(space, kernel, None)
    monkeypatch.setattr(jdlab.forms, "_BLOCK_NNZ", 3)
    monkeypatch.setattr(jdlab.forms, "_PAIR_CHUNK", 2)
    fresh = JumpKernel(space, kernel.matrix)
    assert np.array_equal(fresh.pair_distances(), want_d)
    assert np.array_equal(_omega_values(space, fresh, np.array([0.5, 3.0])), want_om)
    mc = m_constants(space, fresh, None)
    assert (mc.m_j, mc.argmax_j) == (want_mc.m_j, want_mc.argmax_j)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_dead_components_match_loops(seed):
    rng = np.random.default_rng(seed)
    built = random_symmetric_kernel(rng, int(rng.integers(2, 30)), density=float(rng.uniform(0.02, 0.3)))
    g = form_matrix(built.space, built.kernel, None)
    free = rng.random(built.space.n_points) < 0.6
    g_rows = g[np.flatnonzero(free)].tocsr()
    a_ff = g_rows[:, np.flatnonzero(free)].tocsr()
    want = oracle_dead_components(a_ff, g_rows, ~free)
    assert np.array_equal(_dead_components(a_ff, g_rows, ~free), want)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_capacity_scan_matches_per_radius_potentials(seed):
    rng = np.random.default_rng(seed)
    built = random_symmetric_kernel(rng, int(rng.integers(4, 40)), density=float(rng.uniform(0.02, 0.5)))
    space, kernel = built.space, built.kernel
    radii = sorted(float(r) for r in rng.uniform(1.5, space.n_points, size=3))
    scan = capacity_scan(space, kernel, None, [0], radii)
    dist = space.distances_from(0)
    caps, residuals, warnings = [], [], []
    for r in radii:
        solve = equilibrium_potential(space, kernel, None, [0], dist < r)
        caps.append(solve.energy)
        residuals.append(solve.residual)
        warnings.extend(solve.warnings)
    assert scan.capacities == caps
    assert scan.residuals == residuals
    assert scan.warnings == warnings


@pytest.mark.parametrize("dim,radius", [(1, 5), (2, 4), (3, 3), (4, 2)])
def test_neighbor_entries_match_tuple_dict(dim, radius):
    steps = _lattice_points(dim, radius, 1.0)
    want_rows, want_cols = oracle_neighbor_entries(steps)
    rows, cols = _neighbor_entries(dim, 2 * radius + 1)
    assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
    assert rows.dtype == cols.dtype == np.int64


@pytest.mark.parametrize("extent", [0, 1, 2, 7, 25])
def test_lattice2d_edges_match_tuple_dict(extent):
    assert np.array_equal(lattice2d_graph(extent).edges, oracle_lattice2d_edges(extent))


# -- stale supports regression ----------------------------------------------------


def test_criteria_use_the_supports_of_the_kernel_they_are_given():
    built = lattice_nn(dim=1, truncation_radius=50)
    space = built.space
    split_supports(space, built.kernel, None)  # caches the full support on the space
    empty = truncate_kernel(built.kernel, 0.5)
    assert empty.matrix.nnz == 0
    mc = m_constants(space, empty, None)
    assert (mc.m_j, mc.argmax_j, mc.argmax_j_on_boundary) == (0.0, None, False)
    rep = recurrence_report(space, empty, None, space.origin, [2.0, 4.0, 8.0])
    assert "jump support is empty: omega is identically 0" in rep.notes
    assert rep.values == [0.0, 0.0, 0.0]
