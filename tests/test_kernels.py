import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from jdlab import (
    GraphData,
    JumpKernel,
    energy,
    jump_rates,
    lattice_nn,
    m_constants,
    metric_ball,
    model_manifold,
    quadratic_shell_report,
    shell_volume,
    stable_like,
    stack_space,
    support_sets,
    weighted_line,
)
from jdlab.specio import build_from_spec
from jdlab.kernels import (
    KAPPA_GASKET,
    lattice2d_graph,
    mixed_graph,
    mixed_graph_from_params,
    sphere_volume,
)


def assert_symmetric(kernel):
    matrix = kernel.csr().matrix
    assert (abs(matrix - matrix.T)).nnz == 0
    assert np.all(matrix.diagonal() == 0.0)


# -- stable-like -------------------------------------------------------------

def test_stable_case_i_values():
    b = stable_like(case="i", alpha=0.5, beta=1.0, dim=1, truncation_radius=20)
    o = b.space.origin
    assert b.kernel.csr().density(o, o + 1) == pytest.approx(1.0)
    assert b.kernel.csr().density(o, o + 2) == pytest.approx(0.25)
    assert_symmetric(b.kernel)


def test_stable_case_ii_values():
    b = stable_like(case="ii", alpha=0.7, tempering=1.0, dim=1, truncation_radius=20)
    o = b.space.origin
    assert b.kernel.csr().density(o, o + 2) == pytest.approx(math.exp(-2.0) * 2 ** (-1.7))
    # short range unaffected by tempering
    assert b.kernel.csr().density(o, o + 1) == pytest.approx(1.0)


def test_stable_alpha_range_rejected():
    with pytest.raises(ValueError, match="alpha"):
        stable_like(case="i", alpha=2.0, beta=1.0)


def test_stable_lattice_kappa_set_property():
    b = stable_like(case="i", alpha=0.5, beta=1.0, dim=2, truncation_radius=20)
    for r in (2.0, 5.0, 10.0, 18.0):
        _, v = metric_ball(b.space, b.space.origin, r)
        assert 2.0 <= v / r**2 <= 4.0


def test_stable_gasket_kappa_set_property():
    b = stable_like(case="i", alpha=0.5, beta=1.0, support="gasket", gasket_level=5)
    kappa = KAPPA_GASKET
    assert kappa == pytest.approx(math.log(3) / math.log(2))
    for r in (2.0, 4.0, 8.0, 16.0, 24.0):
        _, v = metric_ball(b.space, b.space.origin, r)
        assert 1.0 <= v / r**kappa <= 3.0
    assert_symmetric(b.kernel)


# -- stack --------------------------------------------------------------------

def test_stack_distance_combines_projections():
    b = stack_space(dim=1, spacing=1.0, layers=5, alpha=0.5, beta=1.0, truncation_radius=5)
    sp = b.space
    x = np.flatnonzero((sp.coords[:, 0] == 0.0) & (sp.coords[:, 1] == 0.0))[0]
    y = np.flatnonzero((sp.coords[:, 0] == 1.0) & (sp.coords[:, 1] == 2.0))[0]
    assert sp.d(x, y) == pytest.approx(3.0)


def test_stack_kernel_value_and_measure():
    alpha = 0.8
    b = stack_space(dim=1, spacing=0.5, layers=2, alpha=alpha, beta=1.0, psi=1.0, truncation_radius=4)
    sp = b.space
    assert np.all(sp.measure == 0.5)  # Psi == 1, m = h per cell
    x = np.flatnonzero((sp.coords[:, 0] == 0.0) & (sp.coords[:, 1] == sp.coords[:, 1].min()))[0]
    y = np.flatnonzero((sp.coords[:, 0] == 0.5) & (sp.coords[:, 1] == sp.coords[:, 1].min()))[0]
    assert b.kernel.density(x, y) == pytest.approx(0.5 ** (-(1 + alpha)) / 2.0)
    assert_symmetric(b.kernel)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("alpha", -3.0, "alpha must lie in (0, 2)"),
        ("alpha", 2.0, "alpha must lie in (0, 2)"),
        ("alpha", np.nan, "alpha must lie in (0, 2)"),
        ("beta", -5.0, "beta must be positive"),
        ("beta", np.nan, "beta must be positive"),
        ("range_cutoff", -1.0, "range_cutoff must be positive"),
        ("range_cutoff", 0.0, "range_cutoff must be positive"),
    ],
)
def test_stack_rejects_parameters_outside_their_range(field, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        stack_space(dim=1, truncation_radius=4, **{field: value})


def test_stack_range_cutoff_drops_the_longer_jumps():
    kwargs = dict(dim=1, spacing=0.5, layers=2, alpha=1.0, beta=1.0, psi=1.0, truncation_radius=8)
    assert stack_space(**kwargs).kernel.pair_distances().max() > 2.0
    assert stack_space(range_cutoff=2.0, **kwargs).kernel.pair_distances().max() == 2.0


def test_stack_rejects_nonpositive_psi():
    with pytest.raises(ValueError, match="Psi"):
        stack_space(dim=1, spacing=0.5, layers=2, psi=lambda p: np.zeros(p.shape[0]), truncation_radius=4)


# -- weighted line ------------------------------------------------------------

def test_weighted_line_values():
    b = weighted_line(lam=1.0, spacing=0.1, truncation_radius=10)
    sp = b.space
    o = sp.origin
    y = o + 5  # x = 0.5
    assert b.kernel.density(o, y) == pytest.approx(math.exp(-0.5))
    far = o + 11  # |x - y| = 1.1 > 1
    assert b.kernel.density(o, far) == 0.0
    at_one = o + 10
    assert sp.measure[at_one] == pytest.approx(0.1 * math.e**2)
    assert_symmetric(b.kernel)


def test_weighted_line_rejects_bad_params():
    with pytest.raises(ValueError):
        weighted_line(lam=0.0)
    with pytest.raises(ValueError):
        weighted_line(lam=1.0, spacing=1.5)


def test_weighted_line_mj_below_analytic_bound():
    lam = 1.0
    b = weighted_line(lam=lam, spacing=0.05, truncation_radius=15)
    mc = m_constants(b.space, b.kernel, None)
    bound, _ = quad(lambda z: z**2 * math.exp(lam * abs(z)), -1, 1)
    assert mc.m_j <= bound * 1.1


# -- model manifold ------------------------------------------------------------

def test_model_manifold_constant_profile():
    b = model_manifold(dim=1, spacing=0.25, profile="constant", truncation_radius=5)
    assert np.allclose(b.space.measure, sphere_volume(1) * 0.25)
    o = 0
    assert b.kernel.density(o, o + 1) == pytest.approx(1.0)
    # d >= 1 excluded
    assert b.kernel.density(o, o + 4) == 0.0


def test_model_manifold_linear_profile_value():
    b = model_manifold(dim=1, spacing=0.5, profile="linear", truncation_radius=4)
    # r grid: 0.5, 1.0, 1.5, ...; j(1.0, 1.5) = 1/(1*1.5)
    i = np.flatnonzero(np.isclose(b.space.coords[:, 0], 1.0))[0]
    j = np.flatnonzero(np.isclose(b.space.coords[:, 0], 1.5))[0]
    assert b.kernel.density(i, j) == pytest.approx(1.0 / 1.5)


def test_model_manifold_local_part_mc():
    b = model_manifold(dim=1, spacing=0.02, profile="constant", truncation_radius=3)
    mc = m_constants(b.space, b.kernel, b.local)
    assert mc.m_c == pytest.approx(1.0, abs=0.1)


def test_model_manifold_rejects_nonpositive_sigma():
    with pytest.raises(ValueError, match="sigma"):
        model_manifold(dim=1, spacing=0.5, profile=lambda r: np.zeros_like(r), truncation_radius=3)


# -- mixed graph ---------------------------------------------------------------

def test_mixed_graph_pure_jump_two_vertices():
    g = GraphData(2, [[0, 1]], [1.0], np.ones(2))
    b = mixed_graph(g, phi=1.0, subdivisions=0)
    assert b.local is None
    assert b.kernel.density(0, 1) == pytest.approx(1.0)
    rates = jump_rates(b.kernel)
    assert rates.q[0, 1] == pytest.approx(2.0)


def test_mixed_graph_zero_weights_pure_quantum():
    g = GraphData(3, [[0, 1], [1, 2]], [0.0, 0.0], np.ones(3))
    b = mixed_graph(g, phi=1.0, subdivisions=2)
    x_c, x_j = support_sets(b.kernel, b.local)
    assert len(x_j) == 0
    assert len(x_c) == 4


def test_mixed_graph_quantum_energy_discretization():
    # single unit edge, phi = 1, linear function: E_c[u] = slope^2 / 2
    g = GraphData(2, [[0, 1]], [1.0], np.ones(2))
    b = mixed_graph(g, phi=1.0, subdivisions=9)
    sp = b.space
    rho = sp.rho_from(0)
    u = 3.0 * rho  # linear along the edge, slope 3 in the edge parameter
    got = energy(sp, JumpKernel.from_entries(sp, [], [], []), b.local, u)
    assert got == pytest.approx(0.5 * 9.0, rel=1e-12)


def test_mixed_graph_shell_mass_quadratic():
    # counting mu, |S_rho(n)| <= 4n and phi <= rho^-2 keep total shell mass quadratic
    b = mixed_graph_from_params(
        graph_kind="lattice2d", extent=12, subdivisions=2,
        phi_kind="shell_power", phi_constant=1.0, phi_power=2.0,
    )
    sp = b.space
    for n in range(2, 11):
        assert shell_volume(sp, sp.origin, n) <= 4.0 * n**2


def test_mixed_graph_rejects_asymmetric_weight_matrix():
    import scipy.sparse as sp_

    w = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 1.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        GraphData.from_weight_matrix(sp_.csr_matrix(w), np.ones(3))


# -- spec dispatch ---------------------------------------------------------------

def test_kernel_spec_dispatch():
    built = build_from_spec({"type": "lattice", "truncation_radius": 30.0, "params": {"dim": 1}})
    assert built.space.n_points == 61
    with pytest.raises(ValueError, match="family"):
        build_from_spec({"type": "lattice", "truncation_radius": 10.0, "params": {"kernel": {"family": "no_such"}}})
