import numpy as np
import pytest

from jdlab import GraphData, build_graph_space, lattice_nn


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
    return build_graph_space(g)


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
