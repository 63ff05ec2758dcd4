"""Differential tests: vectorised and shared paths against the code they replaced.

The oracles below are the earlier implementations, kept verbatim in spirit:
dense distance rows per point, per-row Python reductions, tuple-dict
lattice neighbours, the dense n x n kernel builders, the per-offset band
loops, the form matrix built from the raw kernel, and the capacity and
Green-function solves before they shared one free-set solve. Pair
distances, kernels, form matrices, capacities and the lattice arrays must
match bit for bit; row sums are accumulated in another order, so omega and
M_j must agree within 1e-12 relative.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from jdlab import (
    DiscreteMMSpace,
    GraphData,
    build_graph_space,
    capacity_scan,
    equilibrium_potential,
    green_growth,
    lattice_nn,
    local_chain,
    m_constants,
    model_manifold,
    recurrence_report,
    stable_like,
    stack_space,
    truncate_kernel,
    weighted_line,
)
from jdlab.capacity import _dead_components, _solve_spd
from jdlab.criteria import _omega_values
from jdlab.forms import JumpKernel, LocalPart, form_matrix, row_blocks
from jdlab.forms import energy as form_energy
from jdlab.kernels import (
    _band_entries,
    _lattice_points,
    _neighbor_entries,
    explicit_kernel,
    lattice2d_graph,
    sandwich_profile,
)
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


def oracle_form_matrix(space, kernel, local):
    n = space.n_points
    parts = []
    if kernel is not None:
        k = kernel.matrix.multiply(space.measure[None, :]).multiply(space.measure[:, None]).tocsr()
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
            caps.append(form_energy(space, kernel, local, u))
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
            x_live, res = _solve_spd(a_ff[live][:, live].tocsr(), b[live])
            x = np.zeros(free_idx.size)
            x[live] = x_live
        else:
            x, res = _solve_spd(a_ff, b)
        u[free_idx] = x
        caps.append(form_energy(space, kernel, local, u))
        residuals.append(res)
    return caps, residuals, warns


def oracle_green_growth(space, kernel, local, f, x0, radii, center=None):
    """green_growth with its own solve, which only set aside all-zero rows."""
    center = int(x0) if center is None else center
    g = oracle_form_matrix(space, kernel, local)
    dist = space.distances_from(center)
    rhs_full = f * space.measure
    out = []
    for r in sorted(float(r) for r in radii):
        free_idx = np.flatnonzero(dist < r)
        if free_idx.size == 0:
            out.append(0.0)
            continue
        a_ff = g[free_idx][:, free_idx].tocsr()
        zero_rows = np.asarray(abs(a_ff).sum(axis=1)).reshape(-1) == 0
        u = np.zeros(space.n_points)
        if zero_rows.any():
            live = ~zero_rows
            x, _ = _solve_spd(a_ff[live][:, live].tocsr(), rhs_full[free_idx][live])
            vals = np.zeros(free_idx.size)
            vals[live] = x
        else:
            vals, _ = _solve_spd(a_ff, rhs_full[free_idx])
        u[free_idx] = vals
        out.append(float(u[x0]))
    return np.asarray(out)

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
    labels, dead = _dead_components(a_ff, g_rows, ~free)
    assert np.array_equal(dead[labels], want)


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


@pytest.mark.parametrize(
    "case,dim,radius",
    [("i", 1, 300.0), ("ii", 1, 300.0), ("i", 2, 6.0), ("ii", 2, 6.0), ("i", 3, 2.0), ("ii", 3, 2.0)],
)
def test_stable_like_kernel_matches_dense_build(monkeypatch, case, dim, radius):
    new, old = _both_builds(
        monkeypatch,
        lambda: stable_like(case=case, alpha=1.2, beta=0.7, tempering=0.8, dim=dim, spacing=0.5, truncation_radius=radius),
    )
    assert new.space.n_points > 512  # more than one row chunk
    assert_bit_identical(new.kernel.matrix, old.kernel.matrix)


@pytest.mark.parametrize("case", ["i", "ii"])
def test_gasket_kernel_matches_dense_build(monkeypatch, case):
    new, old = _both_builds(monkeypatch, lambda: stable_like(case=case, alpha=0.8, support="gasket", gasket_level=6))
    assert new.space.n_points > 512
    assert_bit_identical(new.kernel.matrix, old.kernel.matrix)


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
    assert new.space.meta["stack_flags"] == old.space.meta["stack_flags"]


@pytest.mark.filterwarnings("ignore:overflow encountered in exp")
@pytest.mark.parametrize("lam,spacing,radius", [(1.0, 0.1, 20.0), (0.3, 0.3, 12.0), (50.0, 0.05, 15.0)])
def test_weighted_line_kernel_matches_offset_loop(lam, spacing, radius):
    built = weighted_line(lam=lam, spacing=spacing, truncation_radius=radius)
    want = oracle_weighted_line_kernel(built.space, lam, spacing)
    assert_bit_identical(built.kernel.matrix, want.matrix)
    pairs = oracle_band_entries(built.space.n_points, int(math.floor(1.0 / spacing + 1e-9)))[0].size
    assert (built.kernel.matrix.nnz < 2 * pairs) == (lam == 50.0)  # far entries underflow to 0


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


# -- form matrix and the free-set solve on islands --------------------------------


def _island_instance(seed):
    """Sparse random kernel (isolated points and small islands), sometimes with a local chain."""
    rng = np.random.default_rng(seed)
    built = random_symmetric_kernel(rng, int(rng.integers(4, 40)), density=float(rng.uniform(0.01, 0.2)))
    space, local = built.space, None
    if rng.random() < 0.5:
        points = rng.choice(space.n_points, size=int(rng.integers(2, space.n_points // 2 + 2)), replace=False)
        local = local_chain(points, space.measure, float(rng.uniform(0.5, 2.0)))
    return rng, space, built.kernel, local


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_islands_form_matrix_dead_masks_and_scan_match_oracles(seed):
    rng, space, kernel, local = _island_instance(seed)
    g = form_matrix(space, kernel, local)
    want = oracle_form_matrix(space, kernel, local)
    assert_bit_identical(g, want)
    free = rng.random(space.n_points) < 0.6
    g_rows = g[np.flatnonzero(free)].tocsr()
    a_ff = g_rows[:, np.flatnonzero(free)].tocsr()
    labels, dead = _dead_components(a_ff, g_rows, ~free)
    assert np.array_equal(dead[labels], oracle_dead_components(a_ff, g_rows, ~free))
    radii = sorted(float(r) for r in rng.uniform(0.5, space.n_points, size=3))
    scan = capacity_scan(space, kernel, local, [0], radii)
    caps, residuals, warns = oracle_capacities(space, kernel, local, np.array([0]), radii)
    assert scan.capacities == caps
    assert scan.residuals == residuals
    assert scan.warnings == warns


def test_zero_conductance_edge_does_not_join_components():
    """A local edge of conductance 0 is stored as explicit zeros in G; it must not couple 2 to 1."""
    space = DiscreteMMSpace(np.ones(6), coords=np.arange(6.0)[:, None])
    local = LocalPart(np.array([[0, 1], [1, 2], [2, 3]]), np.array([1.0, 0.0, 1.0]), 1.0, np.arange(4))
    assert np.any(form_matrix(space, None, local).data == 0.0)
    solve = equilibrium_potential(space, None, local, [0], space.distances_from(0) < 3.5)
    assert solve.warnings == [
        "2 free points lie in components touching neither K nor the ball boundary; their potential is set to 0"
    ]
    assert list(solve.u) == [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]


# -- Green potentials on a disconnected ball ---------------------------------------


def _island_chain():
    """0 - 1 - 7 reaches past R = 5 from 0; 2 - 3 is an island and 4, 5, 6 are isolated inside."""
    return explicit_kernel(8, [(0, 1, 1.0), (1, 7, 1.0), (2, 3, 1.0)])


def test_green_growth_returns_on_an_island():
    built = _island_chain()
    f = np.zeros(8)
    f[0] = 1.0
    got = green_growth(built.space, built.kernel, None, f, 0, [1.5, 5.0])
    # the island's entries do not reach rows 0 and 1: without it the earlier solve returned
    bare = explicit_kernel(8, [(0, 1, 1.0), (1, 7, 1.0)])
    want = oracle_green_growth(bare.space, bare.kernel, None, f, 0, [1.5, 5.0])
    assert got.tobytes() == want.tobytes()
    assert np.all(np.isfinite(got)) and got[1] > 0


def test_green_growth_is_infinite_on_a_charged_island():
    built = _island_chain()
    f = np.zeros(8)
    f[3] = 1.0  # x0 = 2 shares the island with the mass of f
    got = green_growth(built.space, built.kernel, None, f, 2, [1.5, 5.0], center=0)
    assert got[0] == 0.0  # x0 outside B(0, 1.5)
    assert got[1] == np.inf
    f = np.zeros(8)
    f[0] = 1.0  # f has no mass on the island: nothing accumulates there
    assert list(green_growth(built.space, built.kernel, None, f, 2, [5.0], center=0)) == [0.0]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_green_growth_matches_earlier_solve_where_it_returned(seed):
    rng, space, kernel, local = _island_instance(seed)
    f = np.where(rng.random(space.n_points) < 0.5, rng.uniform(0.0, 2.0, size=space.n_points), 0.0)
    f[int(rng.integers(space.n_points))] = 1.0
    x0 = int(rng.integers(space.n_points))
    radii = sorted(float(r) for r in rng.uniform(0.5, space.n_points, size=3))
    got = green_growth(space, kernel, local, f, x0, radii)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = oracle_green_growth(space, kernel, local, f, x0, radii)
    except np.linalg.LinAlgError:
        return
    g = form_matrix(space, kernel, local)
    dist = space.distances_from(x0)
    for k, r in enumerate(radii):
        free_idx = np.flatnonzero(dist < r)
        g_rows = g[free_idx].tocsr()
        a_ff = g_rows[:, free_idx].tocsr()
        labels, dead = _dead_components(a_ff, g_rows, dist >= r)
        dead = dead[labels]
        if dead[free_idx == x0].any() or not np.isfinite(want[k]):
            continue
        if np.array_equal(dead, np.asarray(abs(a_ff).sum(axis=1)).reshape(-1) == 0):
            assert got[k] == want[k]  # the earlier solve set aside exactly the dead points
        else:
            # it factored a singular island block along with x0's; only rounding differs
            assert got[k] == pytest.approx(want[k], rel=1e-12, abs=0.0)

# -- stale supports regression ----------------------------------------------------


def test_criteria_use_the_supports_of_the_kernel_they_are_given():
    built = lattice_nn(dim=1, truncation_radius=50)
    space = built.space
    empty = truncate_kernel(built.kernel, 0.5)
    assert empty.matrix.nnz == 0
    mc = m_constants(space, empty, None)
    assert (mc.m_j, mc.argmax_j, mc.argmax_j_on_boundary) == (0.0, None, False)
    rep = recurrence_report(space, empty, None, space.origin, [2.0, 4.0, 8.0])
    assert "jump support is empty: omega is identically 0" in rep.notes
    assert rep.values == [0.0, 0.0, 0.0]
