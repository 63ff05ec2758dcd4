import math
import re

import numpy as np
import pytest
import scipy.sparse as sp_

from jdlab import (
    BuiltInstance,
    DiscreteMMSpace,
    GraphData,
    JumpKernel,
    ball_volumes,
    lattice_nn,
    metric_ball,
    model_manifold,
    stack_space,
    support_sets,
    weighted_line,
)
from jdlab.kernels import mixed_graph, mixed_graph_from_params, lattice2d_graph
from conftest import oracle_ball_volume


def test_the_measure_is_read_only_and_a_private_copy():
    given_measure = np.ones(3)
    space = DiscreteMMSpace(given_measure, coords=np.arange(3.0))
    with pytest.raises(ValueError, match="read-only"):
        space.measure[0] = 5.0
    given_measure[0] = 5.0  # the caller's array stays its own
    assert space.measure.tolist() == [1.0, 1.0, 1.0]


@pytest.mark.parametrize(
    "ids, message",
    [([-1], "point id -1 is not in [0, 3)"), ([0, 3], "point id 3 is not in [0, 3)"), ([1.5], "point id 1.5 is not an integer"),
     ([2**70], "point id 1180591620717411303424 is not in [0, 3)")],
)
def test_point_ids_name_the_first_that_is_not_a_point_of_the_space(ids, message):
    space = DiscreteMMSpace(np.ones(3), coords=np.arange(3.0))
    with pytest.raises(ValueError, match=re.escape(f"K: {message}")):
        space.point_ids("K", ids)
    assert space.point_ids("K", [0, 2.0]).tolist() == [0, 2]


def test_single_edge_sigma_one():
    g = GraphData(2, [[0, 1]], [1.0], np.ones(2))
    sp = mixed_graph(g, subdivisions=0).space
    assert sp.distances_from(0)[1] == 1.0


def test_path_graph_distances(path_graph_space):
    sp = path_graph_space
    # deg(b) = 2 so sigma(a,b) = 1/sqrt(2); d(a,c) = 2/sqrt(2)
    assert sp.distances_from(0)[1] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert sp.distances_from(0)[2] == pytest.approx(math.sqrt(2), abs=1e-15)


def test_star_graph_distances():
    # K_{1,4}: center degree 4, leaves degree 1
    edges = [[0, k] for k in range(1, 5)]
    g = GraphData(5, edges, np.ones(4), np.ones(5))
    sp = mixed_graph(g, subdivisions=0).space
    assert sp.distances_from(0)[1] == pytest.approx(0.5)
    assert sp.distances_from(1)[2] == pytest.approx(1.0)


@pytest.mark.parametrize("edges", [[[0, 1], [0, 1], [1, 2]], [[0, 1], [1, 2], [1, 0]], [[2, 1], [0, 1], [1, 2]]])
def test_repeated_edge_rejected(edges):
    # the CSR metric graph would sum the copies: d(0, 1) = 2 sigma
    with pytest.raises(ValueError, match=r"edge \([01], [12]\) is listed more than once"):
        GraphData(3, edges, np.ones(3), np.ones(3))


@pytest.mark.parametrize(
    "weights, measure, message",
    [
        ([1.0, np.nan], [1.0, 1.0, 1.0], "edge weights must be finite and nonnegative"),
        ([1.0, np.inf], [1.0, 1.0, 1.0], "edge weights must be finite and nonnegative"),
        ([1.0, -1.0], [1.0, 1.0, 1.0], "edge weights must be finite and nonnegative"),
        ([1.0, 1.0], [1.0, np.nan, 1.0], "vertex measure must be finite and strictly positive"),
        ([1.0, 1.0], [1.0, np.inf, 1.0], "vertex measure must be finite and strictly positive"),
        ([1.0, 1.0], [1.0, 0.0, 1.0], "vertex measure must be finite and strictly positive"),
    ],
)
def test_bad_weights_and_measure_are_named(weights, measure, message):
    # a nan weight was reported as an asymmetric metric graph, an infinite one as a disconnected graph,
    # and a nan measure as a non-finite space measure
    with pytest.raises(ValueError, match=message):
        GraphData(3, [[0, 1], [1, 2]], weights, measure)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_coordinate_is_named(bad):
    # nan coordinates wrote nan distances into the reports, and an infinite one gave a satisfied volume verdict
    coords = [[0.0, 0.0], [1.0, 0.0], [2.0, bad], [np.nan, 3.0]]
    with pytest.raises(ValueError, match=re.escape(f"coordinates must be finite: point 2 is at [2.0, {bad}]")):
        DiscreteMMSpace(np.ones(4), coords=coords)


@pytest.mark.parametrize(
    "metric_kind, coords, spans",
    [
        ("euclidean", [[0.0], [1e308], [-1e308]], "[inf]"),  # the span itself overflows
        ("euclidean", [[0.0, 0.0], [1e200, 1.0]], "[1e+200, 1.0]"),  # finite spans whose squares overflow
        ("stack", [[0.0, 0.0, 0.0], [1e200, 1.0, 2.0]], "[1e+200, 1.0, 2.0]"),
        ("l1", [[0.0, 1e308], [1e308, 0.0]], "[1e+308, 1e+308]"),  # finite per axis, not summed
    ],
)
def test_coordinates_whose_distances_overflow_are_named(metric_kind, coords, spans):
    # [[0], [1e308], [-1e308]] gave infinite distances and exited 2 with "radius grid exceeds the truncation"
    with pytest.raises(ValueError, match=re.escape(f"coordinate spans {spans} per axis overflow the {metric_kind}")):
        DiscreteMMSpace(np.ones(len(coords)), coords=coords, metric_kind=metric_kind)
    assert DiscreteMMSpace(np.ones(2), coords=[[0.0], [1e200]], metric_kind="l1").distances_from(0)[1] == 1e200


def test_isolated_vertex_rejected():
    g = GraphData(3, [[0, 1]], [1.0], np.ones(3))
    with pytest.raises(ValueError, match="no incident edge"):
        mixed_graph(g, subdivisions=0)


def test_disconnected_and_empty_graphs_rejected():
    g = GraphData(4, [[0, 1], [2, 3]], [1.0, 1.0], np.ones(4))
    with pytest.raises(ValueError, match="disconnected"):
        mixed_graph(g, subdivisions=0)
    with pytest.raises(ValueError, match="disconnected"):
        mixed_graph(g, subdivisions=2)
    with pytest.raises(ValueError, match="empty graph"):
        mixed_graph(GraphData(0, np.zeros((0, 2)), [], []), subdivisions=0)


def test_zero_weight_edges_get_unit_sigma():
    # deg == 0 on both endpoints: the cap at 1 defines sigma = 1
    g = GraphData(2, [[0, 1]], [0.0], np.ones(2))
    sp = mixed_graph(g, subdivisions=0).space
    assert sp.distances_from(0)[1] == 1.0


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
    with pytest.raises(ValueError, match=rf"origin: point id {origin} is not in \[0, 3\)"):
        DiscreteMMSpace(np.ones(3), coords=np.arange(3.0)[:, None], origin=origin)
    assert DiscreteMMSpace(np.ones(3), coords=np.arange(3.0)[:, None], origin=2).origin == 2


@pytest.mark.parametrize("origin", [1.5, True])
def test_an_origin_that_is_not_an_integer_is_named(origin):
    # int() read both as point 1
    with pytest.raises(ValueError, match=re.escape(f"origin: point id {origin!r} is not an integer")):
        DiscreteMMSpace(np.ones(3), coords=np.arange(3.0)[:, None], origin=origin)


def test_one_sided_graph_rejected():
    import scipy.sparse as sp_

    one_sided = sp_.csr_matrix(([1.0], ([0], [1])), shape=(3, 3))
    with pytest.raises(ValueError, match="metric graph must be exactly symmetric"):
        DiscreteMMSpace(np.ones(3), metric_kind="graph", metric_graph=one_sided)
    path = sp_.csr_matrix(([1.0, 1.0], ([0, 1], [1, 2])), shape=(3, 3))
    path = path + path.T
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


# -- ball volumes: one binned pass against the per-radius rescan --------------------------

# exact: every partial sum of counting or dyadic cell measure is a float; rel: any other measure
_VOLUME_CASES = {
    "Z": ("exact", lambda: lattice_nn(dim=1, truncation_radius=30)),
    "Z3": ("exact", lambda: lattice_nn(dim=3, truncation_radius=5)),
    "Z2-half-cell": ("exact", lambda: lattice_nn(dim=2, spacing=0.5, measure="cell", truncation_radius=4)),
    "mixed-graph": ("rel", lambda: mixed_graph_from_params(extent=4, subdivisions=2, phi_kind="shell_power")),
    "model-manifold": ("rel", lambda: model_manifold(dim=1, truncation_radius=6)),
    "weighted-line": ("rel", lambda: weighted_line(lam=1.0, truncation_radius=5)),
    "stack-2d": ("rel", lambda: stack_space(dim=2, layers=3, truncation_radius=3)),
}


def _assert_volumes(got, want, mode):
    assert len(got) == len(want)
    if mode == "exact":
        assert got.tolist() == want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", sorted(_VOLUME_CASES))
def test_ball_volumes_equal_the_per_radius_rescan(name):
    mode, build = _VOLUME_CASES[name]
    built = build()
    space = built.space
    x_c, x_j = support_sets(built)
    for x0 in (space.origin, space.n_points // 3):
        row = space.distances_from(x0)
        shells = np.unique(row)  # every radius at a shell distance: the closed ball holds d = r
        between = (shells[1:] + shells[:-1]) / 2
        radii = np.sort(np.concatenate([shells, between, [shells[-1] * 1.5, np.inf]]))  # and past the reach
        _assert_volumes(ball_volumes(space, x0, radii), [oracle_ball_volume(space, x0, r) for r in radii], mode)
        for support in (x_c, x_j):
            on = space.measure * np.isin(np.arange(space.n_points), support)
            want = [oracle_ball_volume(space, x0, r, support) for r in radii]
            _assert_volumes(ball_volumes(space, x0, radii, on), want, mode)
        for r in (shells[len(shells) // 2], between[0], shells[-1] + 1.0):  # one-radius grids
            _assert_volumes(ball_volumes(space, x0, [r]), [oracle_ball_volume(space, x0, r)], mode)
            members, volume = metric_ball(space, x0, r)
            assert members.tolist() == np.flatnonzero(row <= r).tolist()  # id order
            assert volume == ball_volumes(space, x0, [r])[0]


def test_points_at_infinite_distance_count_only_in_a_ball_of_infinite_radius():
    # two components, {0, 1} and {2, 3}: from 0, points 2 and 3 lie at distance inf
    edges = sp_.csr_matrix(([1.0, 1.0], ([0, 2], [1, 3])), shape=(4, 4))
    space = DiscreteMMSpace([1.0, 2.0, 3.0, 4.0], metric_kind="graph", metric_graph=edges + edges.T)
    radii = [0.0, 1.0, 1e300, np.inf]
    assert ball_volumes(space, 0, radii).tolist() == [1.0, 3.0, 3.0, 10.0]
    assert ball_volumes(space, 0, radii).tolist() == [oracle_ball_volume(space, 0, r) for r in radii]
    members, volume = metric_ball(space, 0, np.inf)
    assert members.tolist() == [0, 1, 2, 3] and volume == 10.0
    members, volume = metric_ball(space, 0, 1e300)
    assert members.tolist() == [0, 1] and volume == 3.0


def test_a_nan_radius_holds_no_point(z_line):
    # searchsorted orders nan last, so a bare binning would put every point in a ball of radius nan
    space = z_line.space
    members, volume = metric_ball(space, space.origin, float("nan"))
    assert members.size == 0 and volume == 0.0
    assert ball_volumes(space, space.origin, [2.0, float("nan")]).tolist() == [5.0, 0.0]


def test_ball_monotone_and_additive(z_line):
    sp = z_line.space
    prev = -1.0
    for r in (0.0, 1.0, 2.5, 7.0, 20.0):
        members, vol = metric_ball(sp, sp.origin, r)
        assert vol == pytest.approx(sp.measure[members].sum())
        assert vol >= prev
        prev = vol


@pytest.mark.parametrize("builder", ["lattice", "graph"])
def test_metric_axioms_random_triples(builder, z_line, path_graph_space):
    sp = z_line.space if builder == "lattice" else path_graph_space
    rng = np.random.default_rng(11)
    n = sp.n_points
    for _ in range(1000):
        x, y, z = rng.integers(0, n, size=3)
        dxy, dyx = sp.distances_from(x)[y], sp.distances_from(y)[x]
        assert dxy == dyx
        assert (dxy == 0.0) == (x == y)
        assert dxy <= sp.distances_from(x)[z] + sp.distances_from(z)[y] + 1e-12


@pytest.mark.parametrize("graph", [False, True])
def test_cached_rows_are_read_only(graph):
    if graph:
        sp = mixed_graph(lattice2d_graph(2), phi=1.0, subdivisions=1, origin=12).space
    else:
        sp = lattice_nn(dim=2, truncation_radius=3).space
    d = sp.distances_from(sp.origin)
    want_d = d.copy()
    with pytest.raises(ValueError, match="read-only"):
        d[0] = 7.0
    assert np.array_equal(sp.distances_from(sp.origin), want_d)


def test_adapted_distance_below_graph_distance():
    g = lattice2d_graph(4)
    b = mixed_graph(g, phi=1.0, subdivisions=1, origin=40, truncation_radius=4.0)
    sp = b.space
    d = sp.distances_from(sp.origin)
    # hops from the origin: |a| + |b| at vertex (a, b), which changes by 1 along every edge, so an edge's
    # midpoint sits at the mean of its ends
    a, c = np.divmod(np.arange(g.n_vertices), 9)
    hops = np.abs(a - 4) + np.abs(c - 4)
    hops = np.concatenate([hops, 0.5 * (hops[g.edges[:, 0]] + hops[g.edges[:, 1]])])
    assert len(hops) == sp.n_points
    assert np.all(d <= hops + 1e-12)


def test_support_sets_pure_jump(z_line):
    x_c, x_j = support_sets(z_line)
    assert len(x_c) == 0
    assert len(x_j) == z_line.space.n_points  # every lattice point has a neighbor


def test_support_sets_pure_local():
    from jdlab import local_chain

    sp = DiscreteMMSpace(np.full(5, 0.1), coords=np.arange(5)[:, None] * 0.1)
    local = local_chain(sp, np.arange(5), 0.1)
    x_c, x_j = support_sets(BuiltInstance(JumpKernel.from_entries(sp, [], [], []), local))
    assert len(x_j) == 0
    assert list(x_c) == list(range(5))


def test_support_sets_mixed_graph():
    g = lattice2d_graph(2)
    b = mixed_graph(g, phi=1.0, subdivisions=2, origin=12, truncation_radius=2.0)
    x_c, x_j = support_sets(b)
    nv = g.n_vertices
    assert set(x_j) == set(range(nv))  # vertices carry the jumps
    assert np.all(x_c >= nv)  # edge interiors carry the local part
    assert len(x_c) == b.space.n_points - nv


def _disconnected_graph_space():
    """Two path components 0-1-2 and 3-4-5: rows across them hold inf."""
    import scipy.sparse as sp_

    half = sp_.csr_matrix(([1.0, 2.0, 0.5, 1.5], ([0, 1, 3, 4], [1, 2, 4, 5])), shape=(6, 6))
    graph = (half + half.T).tocsr()
    return DiscreteMMSpace(np.ones(6), metric_kind="graph", metric_graph=graph)


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
        assert np.isinf(sp.distances_from(0)[3:]).all() and np.isinf(sp.distances_from(5)[:3]).all()


@pytest.mark.parametrize("graph", [False, True])
def test_row_caches_hold_at_most_the_limit(graph):
    from jdlab.space import ROW_CACHE_LIMIT

    sp = mixed_graph(lattice2d_graph(5), phi=1.0, subdivisions=1).space if graph else lattice_nn(dim=2, truncation_radius=6).space
    assert sp.n_points > ROW_CACHE_LIMIT + 10
    for x in range(ROW_CACHE_LIMIT + 10):
        d = sp.distances_from(x)
        assert d.tobytes() == _row_formula(sp, x).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            d[0] = 7.0
    assert len(sp._row_cache) == ROW_CACHE_LIMIT
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
