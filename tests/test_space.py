import math

import numpy as np
import pytest

from jdlab import (
    DiscreteMMSpace,
    GraphData,
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


def test_isolated_vertex_rejected():
    g = GraphData(3, [[0, 1]], [1.0], np.ones(3))
    with pytest.raises(ValueError, match="no incident edge"):
        build_graph_space(g)


def test_zero_weight_edges_get_unit_sigma():
    # deg == 0 on both endpoints: the cap at 1 defines sigma = 1
    g = GraphData(2, [[0, 1]], [0.0], np.ones(2))
    sp = build_graph_space(g)
    assert sp.d(0, 1) == 1.0


def test_nonpositive_measure_rejected():
    with pytest.raises(ValueError, match="positive"):
        DiscreteMMSpace([1.0, 0.0], coords=[[0.0], [1.0]])


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
    local = local_chain(np.arange(5), sp.measure, 0.1)
    x_c, x_j = support_sets(None, local)
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
