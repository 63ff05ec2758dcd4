"""Coordinate distances summed axis by axis, against the difference-tensor formulas they replaced.

`DiscreteMMSpace` evaluates euclidean, l1 and stack distances one coordinate
column at a time, in axis order. The oracle below is the formula it replaced:
an (..., d) difference tensor reduced over its last axis by numpy. numpy sums
a last axis shorter than 8 in order, so up to 7 axes the two agree bit for
bit; from 8 axes on numpy sums pairwise, so there the oracle is within a few
ulp and rows and pairs still agree with each other bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jdlab import DiscreteMMSpace

KINDS = ["euclidean", "l1", "stack"]


def oracle_norm(kind, diff):
    if kind == "euclidean":
        return np.sqrt((diff**2).sum(axis=-1))
    if kind == "l1":
        return np.abs(diff).sum(axis=-1)
    return np.sqrt((diff[..., :-1] ** 2).sum(axis=-1)) + np.abs(diff[..., -1])


def random_space(seed, kind, n_axes, spacing):
    """Up to 40 points: half on the lattice spacing * Z^d, half anywhere, the stack's last column a layer."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    coords = rng.integers(-30, 31, size=(n, n_axes)) * spacing
    off_lattice = rng.random(n) < 0.5
    coords[off_lattice] = rng.normal(scale=10 * spacing, size=(int(off_lattice.sum()), n_axes))
    if kind == "stack":
        coords[:, -1] = rng.integers(-3, 4, size=n)
    return DiscreteMMSpace(np.ones(n), coords=coords, metric_kind=kind), rng


def all_quantities(space, rng):
    """(oracle, got) pairs for pair_distances, distance_rows, distances_from and norm."""
    n, coords, kind = space.n_points, space.coords, space.metric_kind
    rows, cols = rng.integers(0, n, size=(2, 3 * n))
    idx = rng.permutation(n)[: max(1, n // 2)]
    diff = rng.normal(size=(4, 5, coords.shape[1])) * 3.0
    return {
        "pairs": (oracle_norm(kind, coords[rows] - coords[cols]), space.pair_distances(rows, cols)),
        "rows": (oracle_norm(kind, coords[idx][:, None, :] - coords), space.distance_rows(idx)),
        "from": (oracle_norm(kind, coords[idx[0]] - coords), space.distances_from(idx[0])),
        "norm": (oracle_norm(kind, diff), space.norm(diff)),
    }


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(KINDS),
    st.integers(1, 7),
    st.sampled_from([0.1, 1 / 3, 0.5, 1.0, 2.7]),
)
def test_up_to_seven_axes_every_distance_is_the_oracle_bit_for_bit(seed, kind, n_axes, spacing):
    space, rng = random_space(seed, kind, n_axes, spacing)
    for name, (want, got) in all_quantities(space, rng).items():
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(KINDS), st.integers(8, 9), st.sampled_from([0.1, 1 / 3, 1.0]))
def test_from_eight_axes_rows_and_pairs_agree_and_stay_within_4_ulp(seed, kind, n_axes, spacing):
    space, rng = random_space(seed, kind, n_axes, spacing)
    n = space.n_points
    rows_of_all = space.distance_rows(np.arange(n))
    rows, cols = np.divmod(np.arange(n * n), n)
    assert space.pair_distances(rows, cols).tobytes() == rows_of_all.reshape(-1).tobytes()
    assert np.array_equal(space.distances_from(n - 1), rows_of_all[n - 1])
    for name, (want, got) in all_quantities(space, rng).items():
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want)), name


def test_coords_are_read_only_and_a_private_copy():
    given_coords = np.arange(6.0).reshape(3, 2)
    space = DiscreteMMSpace(np.ones(3), coords=given_coords)
    with pytest.raises(ValueError, match="read-only"):
        space.coords[0, 0] = 5.0
    given_coords[0, 0] = 5.0  # the caller's array stays its own
    assert space.coords[0, 0] == 0.0 and space.distances_from(0)[1] == np.sqrt(8.0)


def test_a_coordinate_metric_needs_a_column():
    with pytest.raises(ValueError, match="at least one column"):
        DiscreteMMSpace(np.ones(3), coords=np.zeros((3, 0)))
    space = DiscreteMMSpace(np.ones(3), coords=np.zeros((3, 2)))
    with pytest.raises(ValueError, match="at least one axis"):
        space.norm(np.zeros((4, 0)))
