import math

import numpy as np
import pytest

from jdlab import BuiltInstance, GraphData, energy, gamma_jump, lattice_nn, mixed_graph, support_sets
from jdlab.criteria import _omega_values


@pytest.fixture(scope="session")
def z_line():
    """Z nearest-neighbor instance, counting measure, truncation 120."""
    return lattice_nn(dim=1, truncation_radius=120)


@pytest.fixture(scope="session")
def z3_cube():
    """Z^3 nearest-neighbor instance, truncation 10."""
    return lattice_nn(dim=3, truncation_radius=10)


@pytest.fixture()
def path_graph_space():
    """Path a-b-c with unit weights and measure."""
    g = GraphData(3, [[0, 1], [1, 2]], [1.0, 1.0], np.ones(3))
    return mixed_graph(g, subdivisions=0).space


def random_symmetric_kernel(rng, n, density=0.3):
    """Random symmetric sparse kernel entries on n points."""
    from jdlab.kernels import explicit_kernel

    n_pairs = max(1, int(density * n * (n - 1) / 2))
    seen = set()
    entries = []
    while len(entries) < n_pairs:
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        if key in seen:
            continue
        seen.add(key)
        entries.append([int(i), int(j), float(rng.uniform(0.1, 2.0))])
    built = explicit_kernel(n, entries, measure=rng.uniform(0.5, 2.0, size=n))
    return built


def stable_like_density(case="i", alpha=1.0, beta=1.0, tempering=1.0, kappa=1.0):
    """d -> j(d) of `stable_like`, written out again: an oracle that owes nothing to the builder's stencil."""

    def density(d):
        with np.errstate(divide="ignore", over="ignore"):
            near = np.where((d > 0) & (d <= 1), d ** (-(kappa + alpha)), 0.0)
            if case == "i":
                far = np.where(d > 1, d ** (-(kappa + beta)), 0.0)
            else:
                far = np.where(d > 1, np.exp(-tempering * d) * d ** (-(kappa + alpha)), 0.0)
        return near + far

    return density


def derivation_residual(space, kernel, u, phi):
    """E^(j)(u, u phi) - int u Gamma_j(u, phi) dm - int phi Gamma_j[u] dm.

    Identically zero for every symmetric kernel: this is the exact discrete
    integral-derivation identity in the factor-consistent normalization.
    """
    u = np.asarray(u, dtype=float)
    phi = np.asarray(phi, dtype=float)
    lhs = energy(BuiltInstance(kernel), u, u * phi)
    mixed = float(np.dot(u * gamma_jump(kernel, u, phi), space.measure))
    square = float(np.dot(phi * gamma_jump(kernel, u), space.measure))
    return lhs - mixed - square


def theta_test_function(space, x0, big_r):
    """theta_R(x) = clamp((R - d(x, x0)) / (R - 1)) to [0, 1]; requires R > 2."""
    if big_r <= 2:
        raise ValueError("R must exceed 2")
    d = space.distances_from(x0)
    return np.clip((big_r - d) / (big_r - 1.0), 0.0, 1.0)


def oracle_ball_volume(space, x0, r, support=None):
    """V(x0, r), or its part on the points of support, as one masked sum over the row: a rescan per radius."""
    ball = space.distances_from(x0) <= r
    if support is not None:
        ball &= np.isin(np.arange(space.n_points), support)
    return float(space.measure[ball].sum())


def oracle_volume_growth_values(space, x0, radii):
    """ln V(x0, r) / (r ln r) per radius of the sorted grid, each V by `oracle_ball_volume`."""
    return [math.log(oracle_ball_volume(space, x0, r)) / (r * math.log(r)) for r in np.sort(np.asarray(radii, dtype=float))]


def oracle_recurrence_values(built, x0, radii):
    """[V_c + V_j omega] / r^2 per radius of the sorted grid, V_c and V_j by `oracle_ball_volume` on X^(c) and X^(j)."""
    radii = np.sort(np.asarray(radii, dtype=float))
    x_c, x_j = support_sets(built)
    om = _omega_values(built.kernel, radii)
    volumes = [(oracle_ball_volume(built.space, x0, r, x_c), oracle_ball_volume(built.space, x0, r, x_j)) for r in radii]
    return [(v_c + v_j * om[k]) / r**2 for k, (r, (v_c, v_j)) in enumerate(zip(radii, volumes))]
