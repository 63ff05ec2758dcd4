import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jdlab import (
    DiscreteMMSpace,
    GraphData,
    build_graph_space,
    cutoff_gn,
    davies_constant,
    doubling_report,
    energy,
    lattice_nn,
    log_distance_check,
    omega,
    quadratic_shell_report,
    recurrence_report,
    theta_energy,
    theta_test_function,
    volume_growth_report,
    weighted_line,
)
from jdlab.kernels import explicit_kernel, stable_like
from conftest import random_symmetric_kernel


# -- volume growth -----------------------------------------------------------

def test_volume_growth_z_closed_form(z_line):
    sp = z_line.space
    radii = np.arange(10.0, 101.0, 10.0)
    rep = volume_growth_report(sp, sp.origin, radii)
    expected = [math.log(2 * r + 1) / (r * math.log(r)) for r in radii]
    assert rep.values == pytest.approx(expected, rel=1e-12)
    assert rep.liminf_estimate < 0.1
    assert rep.verdict == "satisfied"


def test_volume_growth_weighted_line():
    b = weighted_line(lam=1.0, spacing=0.1, truncation_radius=20)
    rep = volume_growth_report(b.space, b.space.origin, np.arange(4.0, 17.0))
    # V ~ e^{2r} so the statistic behaves like 2/ln r
    assert rep.verdict == "satisfied"
    assert rep.values[-1] == pytest.approx(2.0 / math.log(16.0), rel=0.1)


def test_volume_growth_radius_beyond_truncation(z_line):
    sp = z_line.space
    with pytest.raises(ValueError, match="max usable radius"):
        volume_growth_report(sp, sp.origin, [10.0, 10 * sp.truncation_radius])


def test_volume_growth_bad_grid(z_line):
    with pytest.raises(ValueError, match="radii"):
        volume_growth_report(z_line.space, z_line.space.origin, [0.5, 2.0])


def test_verdict_stable_under_truncation_growth():
    radii = np.arange(5.0, 26.0, 5.0)
    reports = []
    for trunc in (60, 120):
        b = lattice_nn(dim=1, truncation_radius=trunc)
        reports.append(recurrence_report(b.space, b.kernel, None, b.space.origin, radii))
    assert reports[0].values == pytest.approx(reports[1].values, rel=1e-14)
    assert reports[0].verdict == reports[1].verdict


# -- davies constant ---------------------------------------------------------

def test_davies_constant_exact_values():
    assert davies_constant(0.0) == pytest.approx(1.0 / 9.0)
    assert davies_constant(1.0) == pytest.approx(1.0 / 17.0)
    assert davies_constant(1.0 / 8.0) == pytest.approx(0.1)


def test_davies_constant_rejects_negative():
    with pytest.raises(ValueError):
        davies_constant(-0.1)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
def test_davies_constant_range(x):
    a = davies_constant(x)
    assert 0.0 < a <= 1.0 / 9.0


# -- omega -------------------------------------------------------------------

def test_omega_z_nn_closed_form(z_line):
    sp = z_line.space
    assert omega(sp, z_line.kernel, 0.5) == pytest.approx(0.5)
    assert omega(sp, z_line.kernel, 1.0) == pytest.approx(2.0)
    assert omega(sp, z_line.kernel, 7.3) == pytest.approx(2.0)


def test_omega_zero_kernel():
    b = explicit_kernel(5, [])
    assert omega(b.space, b.kernel, 3.0) == 0.0


def test_omega_layered_kernel_against_brute_sum():
    # direct summation oracle on the truncation: 2 [1 + sum_{z>=2} z^-4]
    b = stable_like(case="i", alpha=0.5, beta=3.0, dim=1, truncation_radius=200)
    extent = 200
    oracle = 2.0 * (1.0 + sum(z ** -4.0 for z in range(2, extent + 1)))
    got = omega(b.space, b.kernel, 1.0)
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got < 2.3


def test_omega_monotone_and_bounded():
    rng = np.random.default_rng(5)
    built = random_symmetric_kernel(rng, 30)
    values = [omega(built.space, built.kernel, r) for r in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(a <= b + 1e-14 for a, b in zip(values, values[1:]))
    cap = built.kernel.max_row_mass()
    for r, v in zip((0.5, 1.0, 2.0, 4.0, 8.0), values):
        assert v <= r**2 * cap + 1e-12


# -- recurrence statistic ------------------------------------------------------

def test_recurrence_z_closed_form(z_line):
    sp = z_line.space
    radii = np.arange(5.0, 51.0, 5.0)
    rep = recurrence_report(sp, z_line.kernel, None, sp.origin, radii)
    expected = [2 * (2 * r + 1) / r**2 for r in radii]
    assert rep.values == pytest.approx(expected, abs=1e-12)
    assert rep.verdict == "satisfied"


def test_recurrence_z3_inconclusive(z3_cube):
    sp = z3_cube.space
    radii = np.arange(2.0, 9.0)
    rep = recurrence_report(sp, z3_cube.kernel, None, sp.origin, radii)
    assert rep.verdict == "inconclusive"
    # t(r) grows roughly linearly
    assert rep.values[-1] > rep.values[0]


def test_statistic_times_r2_nondecreasing(z_line):
    radii = np.arange(3.0, 40.0, 4.0)
    rep = recurrence_report(z_line.space, z_line.kernel, None, z_line.space.origin, radii)
    seq = [v * r**2 for v, r in zip(rep.values, radii)]
    assert all(a <= b + 1e-12 for a, b in zip(seq, seq[1:]))


# -- theta test functions -------------------------------------------------------

def test_theta_values(z_line):
    sp = z_line.space
    th = theta_test_function(sp, sp.origin, 3.0)
    assert th[sp.origin] == 1.0
    two_away = sp.origin + 2
    assert th[two_away] == pytest.approx(0.5)
    far = np.flatnonzero(sp.distances_from(sp.origin) >= 3.0)
    assert np.all(th[far] == 0.0)


def test_theta_rejects_small_r(z_line):
    with pytest.raises(ValueError):
        theta_test_function(z_line.space, z_line.space.origin, 2.0)


def test_theta_bounds_and_lipschitz():
    b = lattice_nn(dim=1, truncation_radius=20)
    sp = b.space
    big_r = 7.0
    th = theta_test_function(sp, sp.origin, big_r)
    assert np.all((0.0 <= th) & (th <= 1.0))
    assert np.all(th[sp.distances_from(sp.origin) <= 1.0] == 1.0)
    for x in range(sp.n_points):
        dx = sp.distances_from(x)
        assert np.all(np.abs(th - th[x]) <= dx / (big_r - 1) + 1e-12)


def test_theta_energy_z_and_z3(z_line, z3_cube):
    rep = theta_energy(z_line.space, z_line.kernel, None, z_line.space.origin, [5.0, 9.0, 17.0, 33.0])
    assert rep.energies == pytest.approx([4.0 / (r - 1) for r in (5.0, 9.0, 17.0, 33.0)], rel=1e-12)
    assert rep.bounded
    rep3 = theta_energy(z3_cube.space, z3_cube.kernel, None, z3_cube.space.origin, [3.0, 5.0, 7.0, 9.0])
    assert not rep3.bounded
    assert rep3.energies[-1] > rep3.energies[0]


def test_theta_energy_zero_kernel():
    b = explicit_kernel(40, [], coords=np.arange(40.0)[:, None])
    rep = theta_energy(b.space, b.kernel, None, 0, [3.0, 5.0])
    assert rep.energies == [0.0, 0.0]
    assert rep.bounded


# -- davies cut-off ------------------------------------------------------------

def test_cutoff_gn_values():
    b = lattice_nn(dim=1, spacing=1 / 9, truncation_radius=2.0)
    sp = b.space
    g = cutoff_gn(sp, sp.origin, 3, 1 / 9)
    assert g[sp.origin] == 1.0
    three_steps = sp.origin + 3  # d = 3/9 exactly
    assert g[three_steps] == 0.0
    two_steps = sp.origin + 2  # d = (n-1) a exactly: plateau boundary
    assert g[two_steps] == 1.0


def test_cutoff_gn_rejects_bad_params(z_line):
    with pytest.raises(ValueError):
        cutoff_gn(z_line.space, z_line.space.origin, 0, 1.0)
    with pytest.raises(ValueError):
        cutoff_gn(z_line.space, z_line.space.origin, 3, 0.0)


# -- doubling ------------------------------------------------------------------

def test_doubling_z(z_line):
    radii = np.arange(2.0, 41.0, 2.0)
    rep = doubling_report(z_line.space, z_line.space.origin, radii)
    expected = [(4 * r + 1) / (2 * r + 1) for r in radii]
    assert rep.values == pytest.approx(expected)
    assert rep.verdict == "satisfied"
    assert rep.extras["kappa_fit"] == pytest.approx(1.0, abs=0.1)


def test_doubling_fails_on_exponential_measure():
    b = weighted_line(lam=1.0, spacing=0.1, truncation_radius=12)
    rep = doubling_report(b.space, b.space.origin, [1.0, 2.0, 3.0, 4.0, 5.0])
    assert rep.verdict == "inconclusive"


def test_doubling_single_point_space():
    sp = DiscreteMMSpace([1.0], coords=[[0.0]])
    rep = doubling_report(sp, 0, [1.0])
    assert rep.values == [1.0]
    assert rep.verdict == "satisfied"


# -- quadratic shells ------------------------------------------------------------

def test_shell_report_z2():
    b = lattice_nn(dim=2, truncation_radius=25)
    rep = quadratic_shell_report(b.space, b.space.origin, range(1, 21))
    assert rep.extras["C_fit"] <= 4.0 + 1e-12
    assert rep.verdict == "satisfied"


def _binary_tree(depth):
    edges = []
    for parent in range(2**depth - 1):
        for child in (2 * parent + 1, 2 * parent + 2):
            edges.append([parent, child])
    n = 2 ** (depth + 1) - 1
    return build_graph_space(GraphData(n, edges, np.ones(len(edges)), np.ones(n)))


def test_shell_report_binary_tree_inconclusive():
    sp = _binary_tree(9)
    rep = quadratic_shell_report(sp, 0, range(1, 10))
    assert rep.verdict == "inconclusive"
    assert rep.values[-1] > rep.values[0]


def test_shell_report_path_graph():
    n = 30
    g = GraphData(n, [[k, k + 1] for k in range(n - 1)], np.ones(n - 1), np.ones(n))
    sp = build_graph_space(g)
    rep = quadratic_shell_report(sp, 0, range(1, 11))
    assert rep.extras["C_fit"] <= 2.0
    assert rep.verdict == "satisfied"


# -- log distance ------------------------------------------------------------------

def test_log_distance_on_adapted_z_graph():
    # unit mu and omega on a path: d = rho / sqrt(2); min over rho >= 2 of
    # rho/ln rho sits at rho = 3 by enumeration
    n = 41
    g = GraphData(n, [[k, k + 1] for k in range(n - 1)], np.ones(n - 1), np.ones(n))
    sp = build_graph_space(g, origin=n // 2)
    rep = log_distance_check(sp, sp.origin)
    rho = sp.rho_from(sp.origin)
    d = sp.distances_from(sp.origin)
    oracle = min(d[k] / math.log(rho[k]) for k in range(n) if rho[k] >= 2)
    assert rep.delta == pytest.approx(oracle, rel=1e-12)
    assert rep.delta == pytest.approx(3.0 / (math.sqrt(2) * math.log(3.0)), rel=1e-12)
    assert np.all(d[rho >= 2] >= rep.delta * np.log(rho[rho >= 2]) - 1e-12)


def test_log_distance_identity_metric(z_line):
    # d == rho on the unit lattice; enumeration oracle gives 3/ln 3
    rep = log_distance_check(z_line.space, z_line.space.origin)
    oracle = min(r / math.log(r) for r in range(2, 121))
    assert rep.delta == pytest.approx(oracle, rel=1e-12)
    assert rep.delta == pytest.approx(3.0 / math.log(3.0), rel=1e-12)


def test_log_distance_vacuous_single_edge():
    g = GraphData(2, [[0, 1]], [1.0], np.ones(2))
    sp = build_graph_space(g)
    rep = log_distance_check(sp, 0)
    assert rep.vacuous
    assert rep.delta == float("inf")
