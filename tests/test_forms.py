import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jdlab import (
    energy,
    derivation_residual,
    gamma_jump,
    jump_rates,
    lattice_nn,
    local_chain,
    m_constants,
    truncate_kernel,
)
from jdlab.criteria import theta_test_function
from jdlab.kernels import explicit_kernel, stable_like
from conftest import random_symmetric_kernel


def two_point(c=1.0):
    return explicit_kernel(2, [[0, 1, c]])


def test_gamma_jump_constant_is_zero(z_line):
    u = np.full(z_line.space.n_points, 3.7)
    assert np.allclose(gamma_jump(z_line.kernel, u), 0.0)


def test_gamma_jump_two_point():
    b = two_point(c=0.75)
    g = gamma_jump(b.kernel, np.array([0.0, 1.0]))
    assert g[0] == pytest.approx(0.75)
    assert g[1] == pytest.approx(0.75)


def test_gamma_jump_linear_on_z(z_line):
    sp = z_line.space
    u = sp.coords[:, 0].copy()
    g = gamma_jump(z_line.kernel, u)
    interior = np.abs(sp.coords[:, 0]) < sp.truncation_radius - 0.5
    assert np.allclose(g[interior], 2.0)


def test_energy_constant_zero(z_line):
    u = np.ones(z_line.space.n_points)
    assert energy(z_line.space, z_line.kernel, None, u) == 0.0


def test_energy_two_point_ordered_double_sum():
    b = two_point(c=0.5)
    assert energy(b.space, b.kernel, None, np.array([0.0, 1.0])) == pytest.approx(1.0)


def test_energy_of_theta_closed_form(z_line):
    # 2(R-1) unit edges with increment 1/(R-1), ordered pairs doubled: 4/(R-1)
    sp = z_line.space
    for big_r in (5.0, 11.0, 41.0):
        th = theta_test_function(sp, sp.origin, big_r)
        assert energy(sp, z_line.kernel, None, th) == pytest.approx(4.0 / (big_r - 1), rel=1e-12)


def test_truncate_noop_beyond_diameter(z_line):
    kernel = z_line.kernel
    trimmed = truncate_kernel(kernel, 2 * z_line.space.truncation_radius + 1)
    assert (trimmed.matrix != kernel.matrix).nnz == 0


def test_truncate_below_min_distance_empties(z_line):
    trimmed = truncate_kernel(z_line.kernel, 0.5)
    assert trimmed.matrix.nnz == 0


def test_truncate_layered_kernel_drops_tail():
    b = stable_like(case="i", alpha=0.5, beta=3.0, dim=1, truncation_radius=30)
    trimmed = truncate_kernel(b.kernel, 1.0)
    d = trimmed.pair_distances()
    assert trimmed.matrix.nnz > 0
    assert np.all(d <= 1.0)
    # short-range part intact
    o = b.space.origin
    assert trimmed.density(o, o + 1) == b.kernel.density(o, o + 1)


def test_m_constants_z_nn(z_line):
    mc = m_constants(z_line.space, z_line.kernel, None)
    assert mc.m_j == pytest.approx(2.0)
    assert mc.m_c == 0.0


def test_m_constants_zero_kernel():
    b = explicit_kernel(4, [])
    mc = m_constants(b.space, b.kernel, None)
    assert mc.m_j == 0.0


def test_m_constants_grid_local_part():
    from jdlab import DiscreteMMSpace

    h = 0.01
    n = 401
    sp = DiscreteMMSpace(np.full(n, h), coords=(np.arange(n) - n // 2)[:, None] * h, origin=n // 2)
    local = local_chain(np.arange(n), sp.measure, h)
    mc = m_constants(sp, None, local)
    assert mc.m_c == pytest.approx(1.0, abs=5 * h)


def test_derivation_residual_phi_one(z_line):
    rng = np.random.default_rng(3)
    u = rng.normal(size=z_line.space.n_points)
    res = derivation_residual(z_line.space, z_line.kernel, u, np.ones_like(u))
    scale = abs(energy(z_line.space, z_line.kernel, None, u, u)) + 1.0
    assert abs(res) <= 1e-10 * scale


def test_derivation_residual_two_point_hand_expansion():
    b = two_point(c=1.0)
    res = derivation_residual(b.space, b.kernel, np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    assert res == pytest.approx(0.0, abs=1e-14)


def test_jump_rates_two_point():
    b = two_point(c=0.7)
    rates = jump_rates(b.kernel)
    assert rates.q[0, 1] == pytest.approx(1.4)
    assert rates.lam[0] == pytest.approx(1.4)


def test_jump_rates_zero_kernel():
    b = explicit_kernel(3, [])
    rates = jump_rates(b.kernel)
    assert np.all(rates.lam == 0.0)


def test_jump_rates_z_nn_interior(z_line):
    rates = jump_rates(z_line.kernel)
    interior = np.abs(z_line.space.coords[:, 0]) < z_line.space.truncation_radius - 0.5
    assert np.allclose(rates.lam[interior], 4.0)


# -- property tests ----------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_energy_symmetric_and_nonnegative(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    built = random_symmetric_kernel(rng, n)
    u = rng.normal(size=n)
    v = rng.normal(size=n)
    euv = energy(built.space, built.kernel, None, u, v)
    evu = energy(built.space, built.kernel, None, v, u)
    assert euv == pytest.approx(evu, rel=1e-12, abs=1e-12)
    assert energy(built.space, built.kernel, None, u) >= -1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_truncation_monotone_in_energy(seed):
    rng = np.random.default_rng(seed)
    built = random_symmetric_kernel(rng, 25)
    u = rng.normal(size=25)
    full = energy(built.space, built.kernel, None, u)
    for a in (0.5, 2.0, 5.0):
        trimmed = truncate_kernel(built.kernel, a)
        assert energy(built.space, trimmed, None, u) <= full + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_generator_consistent_with_form(seed):
    # <-Lu, v>_m must reproduce the jump energy
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 60))
    built = random_symmetric_kernel(rng, n)
    rates = jump_rates(built.kernel)

    u = rng.normal(size=n)
    v = rng.normal(size=n)
    lu = rates.q @ u - rates.lam * u
    pairing = float(np.dot(-lu * built.space.measure, v))
    e = energy(built.space, built.kernel, None, u, v)
    assert pairing == pytest.approx(e, rel=1e-10, abs=1e-10)


def test_derivation_residual_random_graphs():
    rng = np.random.default_rng(1234)
    for _ in range(30):
        n = int(rng.integers(5, 120))
        built = random_symmetric_kernel(rng, n)
        u = rng.normal(size=n)
        phi = rng.normal(size=n)
        res = derivation_residual(built.space, built.kernel, u, phi)
        scale = abs(energy(built.space, built.kernel, None, u, u * phi)) + 1.0
        assert abs(res) <= 1e-10 * scale
