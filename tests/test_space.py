import math
import re

import numpy as np
import pytest

from jdlab import (
    DiscreteMMSpace,
    GraphData,
    JumpKernel,
    UnsupportedOperation,
    build_graph_space,
    lattice_nn,
    metric_ball,
    shell_volume,
    support_sets,
)
from jdlab.kernels import mixed_graph, lattice2d_graph


def test_single_edge_sigma_one():
    g = GraphData(2, [[0, 1]], [1.0], np.ones(2))
    sp = build_graph_space(g)
    assert sp.d(0, 1) == 1.0


def test_path_graph_distances(path_graph_space):
    sp = path_graph_space
    # deg(b) = 2 so sigma(a,b) = 1/sqrt(2); d(a,c) = 2/sqrt(2)
    assert sp.d(0, 1) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert sp.d(0, 2) == pytest.approx(math.sqrt(2), abs=1e-15)


def test_star_graph_distances():
    # K_{1,4}: center degree 4, leaves degree 1
    edges = [[0, k] for k in range(1, 5)]
    g = GraphData(5, edges, np.ones(4), np.ones(5))
    sp = build_graph_space(g)
    assert sp.d(0, 1) == pytest.approx(0.5)
    assert sp.d(1, 2) == pytest.approx(1.0)


def test_asymmetric_weight_matrix_rejected():
    import scipy.sparse as sp_

    w = sp_.csr_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        GraphData.from_weight_matrix(w, np.ones(2))


@pytest.mark.parametrize("edges", [[[0, 1], [0, 1], [1, 2]], [[0, 1], [1, 2], [1, 0]], [[2, 1], [0, 1], [1, 2]]])
def test_repeated_edge_rejected(edges):
    # the CSR graphs would sum the copies: rho(0, 1) = 2 and d(0, 1) = 2 sigma
    with pytest.raises(ValueError, match=r"edge \([01], [12]\) is listed more than once"):
        GraphData(3, edges, np.ones(3), np.ones(3))


def test_isolated_vertex_rejected():
    g = GraphData(3, [[0, 1]], [1.0], np.ones(3))
    with pytest.raises(ValueError, match="no incident edge"):
        build_graph_space(g)


def test_disconnected_and_empty_graphs_rejected():
    g = GraphData(4, [[0, 1], [2, 3]], [1.0, 1.0], np.ones(4))
    with pytest.raises(ValueError, match="disconnected"):
        build_graph_space(g)
    with pytest.raises(ValueError, match="disconnected"):
        mixed_graph(g, subdivisions=2)
    with pytest.raises(ValueError, match="empty graph"):
        build_graph_space(GraphData(0, np.zeros((0, 2)), [], []))


def test_zero_weight_edges_get_unit_sigma():
    # deg == 0 on both endpoints: the cap at 1 defines sigma = 1
    g = GraphData(2, [[0, 1]], [0.0], np.ones(2))
    sp = build_graph_space(g)
    assert sp.d(0, 1) == 1.0


def test_nonpositive_measure_rejected():
    with pytest.raises(ValueError, match="positive"):
        DiscreteMMSpace([1.0, 0.0], coords=[[0.0], [1.0]])


def test_non_finite_measure_rejected():
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            DiscreteMMSpace([1.0, bad], coords=[[0.0], [1.0]])


def test_empty_space_rejected():
    with pytest.raises(ValueError, match="at least one point"):
        DiscreteMMSpace(np.ones(0), coords=np.zeros((0, 1)))


@pytest.mark.parametrize("origin", [-1, 3, 4])
def test_origin_outside_the_points_rejected(origin):
    # origin -1 was accepted, and the space then read the last point's row as the origin's
    with pytest.raises(ValueError, match=rf"origin {origin} is not a point id in \[0, 3\)"):
        DiscreteMMSpace(np.ones(3), coords=np.arange(3.0)[:, None], origin=origin)
    assert DiscreteMMSpace(np.ones(3), coords=np.arange(3.0)[:, None], origin=2).origin == 2


def test_one_sided_graph_rejected():
    import scipy.sparse as sp_

    one_sided = sp_.csr_matrix(([1.0], ([0], [1])), shape=(3, 3))
    with pytest.raises(ValueError, match="metric graph must be exactly symmetric"):
        DiscreteMMSpace(np.ones(3), metric_kind="graph", metric_graph=one_sided)
    path = sp_.csr_matrix(([1.0, 1.0], ([0, 1], [1, 2])), shape=(3, 3))
    path = path + path.T
    with pytest.raises(ValueError, match="rho graph must be exactly symmetric"):
        DiscreteMMSpace(np.ones(3), metric_kind="graph", metric_graph=path, rho_graph=path + one_sided)
    uneven = path.copy()
    uneven.data[0] = np.nextafter(1.0, 2.0)  # (0, 1) one ulp longer than (1, 0)
    with pytest.raises(ValueError, match="symmetric"):
        DiscreteMMSpace(np.ones(3), metric_kind="graph", metric_graph=uneven)


def test_metric_ball_trivial_and_lattice(z_line):
    sp = z_line.space
    members, vol = metric_ball(sp, sp.origin, 0.0)
    assert list(members) == [sp.origin]
    assert vol == sp.measure[sp.origin]
    members, vol = metric_ball(sp, sp.origin, 10.0)
    assert len(members) == 21
    assert vol == 21.0


def test_metric_ball_on_path_graph(path_graph_space):
    members, vol = metric_ball(path_graph_space, 0, 1 / math.sqrt(2))
    assert set(members) == {0, 1}
    assert vol == 2.0


def test_ball_monotone_and_additive(z_line):
    sp = z_line.space
    prev = -1.0
    for r in (0.0, 1.0, 2.5, 7.0, 20.0):
        members, vol = metric_ball(sp, sp.origin, r)
        assert vol == pytest.approx(sp.measure[members].sum())
        assert vol >= prev
        prev = vol


def test_shell_volume_z(z_line):
    assert shell_volume(z_line.space, z_line.space.origin, 5) == 2.0


def test_shell_volume_z2():
    b = lattice_nn(dim=2, truncation_radius=8)
    assert shell_volume(b.space, b.space.origin, 3) == 12.0


def test_shell_empty_beyond_truncation(z_line):
    assert shell_volume(z_line.space, z_line.space.origin, 5000) == 0.0


def test_shell_partial_sums_match_ball(z_line):
    sp = z_line.space
    rho0_mass = float(sp.measure[sp.rho_from(sp.origin) <= 0].sum())
    total = rho0_mass + sum(shell_volume(sp, sp.origin, k) for k in range(1, 11))
    ball_mass = float(sp.measure[sp.rho_from(sp.origin) <= 10].sum())
    assert total == pytest.approx(ball_mass)


def test_shell_requires_rho():
    sp = DiscreteMMSpace([1.0, 1.0], coords=[[0.0], [1.0]])
    with pytest.raises(UnsupportedOperation):
        shell_volume(sp, 0, 1)


@pytest.mark.parametrize("builder", ["lattice", "graph"])
def test_metric_axioms_random_triples(builder, z_line, path_graph_space):
    sp = z_line.space if builder == "lattice" else path_graph_space
    rng = np.random.default_rng(11)
    n = sp.n_points
    for _ in range(1000):
        x, y, z = rng.integers(0, n, size=3)
        dxy, dyx = sp.d(x, y), sp.d(y, x)
        assert dxy == dyx
        assert (dxy == 0.0) == (x == y)
        assert dxy <= sp.d(x, z) + sp.d(z, y) + 1e-12


@pytest.mark.parametrize("graph", [False, True])
def test_cached_rows_are_read_only(graph):
    if graph:
        sp = mixed_graph(lattice2d_graph(2), phi=1.0, subdivisions=1, origin=12).space
    else:
        sp = lattice_nn(dim=2, truncation_radius=3).space
    d, rho = sp.distances_from(sp.origin), sp.rho_from(sp.origin)
    want_d, want_rho = d.copy(), rho.copy()
    for row in (d, rho):
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 7.0
    assert np.array_equal(sp.distances_from(sp.origin), want_d)
    assert np.array_equal(sp.rho_from(sp.origin), want_rho)


def test_adapted_distance_below_graph_distance():
    b = mixed_graph(lattice2d_graph(4), phi=1.0, subdivisions=1, origin=40, truncation_radius=4.0)
    sp = b.space
    d = sp.distances_from(sp.origin)
    rho = sp.rho_from(sp.origin)
    assert np.all(d <= rho + 1e-12)


def test_support_sets_pure_jump(z_line):
    x_c, x_j = support_sets(z_line.kernel, None)
    assert len(x_c) == 0
    assert len(x_j) == z_line.space.n_points  # every lattice point has a neighbor


def test_support_sets_pure_local():
    from jdlab import local_chain

    sp = DiscreteMMSpace(np.full(5, 0.1), coords=np.arange(5)[:, None] * 0.1)
    local = local_chain(np.arange(5), 0.1)
    x_c, x_j = support_sets(JumpKernel.from_entries(sp, [], [], []), local)
    assert len(x_j) == 0
    assert list(x_c) == list(range(5))


def test_support_sets_mixed_graph():
    g = lattice2d_graph(2)
    b = mixed_graph(g, phi=1.0, subdivisions=2, origin=12, truncation_radius=2.0)
    x_c, x_j = support_sets(b.kernel, b.local)
    nv = g.n_vertices
    assert set(x_j) == set(range(nv))  # vertices carry the jumps
    assert np.all(x_c >= nv)  # edge interiors carry the local part
    assert len(x_c) == b.space.n_points - nv


def _disconnected_graph_space():
    """Two path components 0-1-2 and 3-4-5: rows across them hold inf."""
    import scipy.sparse as sp_

    half = sp_.csr_matrix(([1.0, 2.0, 0.5, 1.5], ([0, 1, 3, 4], [1, 2, 4, 5])), shape=(6, 6))
    graph = (half + half.T).tocsr()
    return DiscreteMMSpace(np.ones(6), metric_kind="graph", metric_graph=graph, rho_graph=graph)


def _row_formula(sp, x):
    """d(x, .) written out per metric kind, as the rows were computed before they had one owner."""
    from scipy.sparse.csgraph import dijkstra

    diff = sp.coords[x] - sp.coords if sp.coords is not None else None
    if sp.metric_kind == "euclidean":
        return np.sqrt((diff**2).sum(axis=-1))
    if sp.metric_kind == "l1":
        return np.abs(diff).sum(axis=-1)
    if sp.metric_kind == "stack":
        return np.sqrt((diff[..., :-1] ** 2).sum(axis=-1)) + np.abs(diff[..., -1])
    return dijkstra(sp.metric_graph, directed=True, indices=x)


def _row_spaces():
    from jdlab import stack_space

    rng = np.random.default_rng(5)
    coords = rng.standard_normal((40, 3))
    return {
        "euclidean": lattice_nn(dim=2, truncation_radius=4, spacing=0.3).space,
        "l1": DiscreteMMSpace(np.ones(40), coords=coords, metric_kind="l1"),
        "stack": stack_space(dim=2, truncation_radius=2).space,
        "graph": mixed_graph(lattice2d_graph(3), phi=1.0, subdivisions=2, origin=24).space,
        "disconnected graph": _disconnected_graph_space(),
    }


@pytest.mark.parametrize("kind", ["euclidean", "l1", "stack", "graph", "disconnected graph"])
def test_rows_equal_the_metric_formulas_bit_for_bit(kind):
    sp = _row_spaces()[kind]
    xs = sorted({0, 1, sp.origin, sp.n_points // 2, sp.n_points - 1})
    for x in xs:
        row, want = sp.distances_from(x), _row_formula(sp, x)
        assert row.dtype == want.dtype and row.tobytes() == want.tobytes(), x
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 7.0
        assert sp.distances_from(x) is row  # served from the cache
    assert sp.distance_rows(np.array(xs)).tobytes() == np.stack([_row_formula(sp, x) for x in xs]).tobytes()
    if kind == "disconnected graph":
        assert np.isinf(sp.distances_from(0)[3:]).all() and np.isinf(sp.rho_from(5)[:3]).all()


@pytest.mark.parametrize("graph", [False, True])
def test_row_caches_hold_at_most_the_limit(graph):
    from jdlab.space import ROW_CACHE_LIMIT

    sp = mixed_graph(lattice2d_graph(5), phi=1.0, subdivisions=1).space if graph else lattice_nn(dim=2, truncation_radius=6).space
    assert sp.n_points > ROW_CACHE_LIMIT + 10
    for x in range(ROW_CACHE_LIMIT + 10):
        d, rho = sp.distances_from(x), sp.rho_from(x)
        assert d.tobytes() == _row_formula(sp, x).tobytes()
        for row in (d, rho):
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 7.0
    assert len(sp._row_cache) == len(sp._rho_cache) == ROW_CACHE_LIMIT
    assert sp.distances_from(ROW_CACHE_LIMIT + 5) is not sp.distances_from(ROW_CACHE_LIMIT + 5)  # past the limit


@pytest.mark.parametrize("n, d", [(1, 1), (5, 1), (5, 2), (3, 3)])
def test_coords_and_steps_take_one_row_per_point(n, d):
    coords = np.arange(n * d, dtype=float).reshape(n, d) / 4
    steps = np.arange(n * d).reshape(n, d)
    sp = DiscreteMMSpace(np.ones(n), coords=coords.tolist(), steps=steps)
    assert sp.coords.dtype == np.float64 and np.array_equal(sp.coords, coords)
    assert sp.steps.dtype == steps.dtype and np.array_equal(sp.steps, steps)
    if d == 1:  # a flat vector is one axis
        flat = DiscreteMMSpace(np.ones(n), coords=coords[:, 0], steps=steps[:, 0])
        assert flat.coords.shape == flat.steps.shape == (n, 1)
        assert np.array_equal(flat.coords, coords) and np.array_equal(flat.steps, steps)
        assert flat.steps.dtype == steps.dtype


@pytest.mark.parametrize("field", ["coords", "steps"])
@pytest.mark.parametrize("shape", [(2, 3), (4, 2), (3, 2, 1), (1, 3), (4,)])
def test_coords_and_steps_of_another_shape_rejected(field, shape):
    # the transposed (2, 3) and (1, 3) were silently read as 3 points; (4, 2) for 3 points was an IndexError later
    good = {"coords": np.zeros((3, 2)), "steps": np.zeros((3, 2), dtype=np.int64)}
    good[field] = np.zeros(shape)
    with pytest.raises(ValueError, match=re.escape(f"{field} must have one row per point: shape {shape} for 3 points")):
        DiscreteMMSpace(np.ones(3), **good)
