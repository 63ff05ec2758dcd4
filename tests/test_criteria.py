import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix

from jdlab import (
    BuiltInstance,
    DiscreteMMSpace,
    davies_constant,
    energy,
    lattice_nn,
    model_manifold,
    recurrence_report,
    volume_growth_report,
    weighted_line,
)
from jdlab.criteria import _omega_values
from jdlab.forms import JumpKernel, LocalPart, StencilKernel
from jdlab.kernels import explicit_kernel, stable_like
from jdlab.specio import build_from_spec
from conftest import oracle_recurrence_values, oracle_volume_growth_values, random_symmetric_kernel, theta_test_function
from test_segments import _SPECS, _spec
from test_space import _VOLUME_CASES


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
        reports.append(recurrence_report(b, b.space.origin, radii))
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
    assert _omega_values(z_line.kernel, np.array([0.5, 1.0, 7.3])) == pytest.approx([0.5, 2.0, 2.0])


def test_omega_zero_kernel():
    b = explicit_kernel(5, [])
    assert _omega_values(b.kernel, np.array([3.0])).tolist() == [0.0]


def test_omega_layered_kernel_against_brute_sum():
    # direct summation oracle on the truncation: 2 [1 + sum_{z>=2} z^-4]
    b = stable_like(case="i", alpha=0.5, beta=3.0, dim=1, truncation_radius=200)
    extent = 200
    oracle = 2.0 * (1.0 + sum(z ** -4.0 for z in range(2, extent + 1)))
    [got] = _omega_values(b.kernel, np.array([1.0]))
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got < 2.3


def test_omega_monotone_and_bounded():
    rng = np.random.default_rng(5)
    built = random_symmetric_kernel(rng, 30)
    values = _omega_values(built.kernel, np.array([0.5, 1.0, 2.0, 4.0, 8.0]))
    assert all(a <= b + 1e-14 for a, b in zip(values, values[1:]))
    cap = built.kernel.row_mass.max()
    for r, v in zip((0.5, 1.0, 2.0, 4.0, 8.0), values):
        assert v <= r**2 * cap + 1e-12


def _omega_loop(kernel, radii):
    """omega by one weighted_row_sums pass per radius, as criteria computed it before passes were shared."""
    x_j = kernel.jump_support()
    return np.array([kernel.weighted_row_sums(lambda d: np.minimum(d, r) ** 2)[x_j].max() for r in radii])


def _radii_about(longest):
    """Radii below, at and above the longest pair distance (a plain grid where there is none)."""
    if not math.isfinite(longest):
        return np.array([0.5, 1.0, 2.0, 8.0])
    return np.array([longest / 3, longest / 2, longest, longest, 1.5 * longest, 4 * longest])


def _two_component_kernel():
    """Two separate edges of a graph metric, and a kernel pairing points across them: that pair is inf apart."""
    edges = csr_matrix(([1.0, 2.0], ([0, 2], [1, 3])), shape=(4, 4))
    space = DiscreteMMSpace(np.ones(4), metric_kind="graph", metric_graph=edges + edges.T)
    return space, JumpKernel.from_entries(space, [0, 1, 0], [1, 3, 2], [1.0, 0.5, 2.0])


@pytest.mark.parametrize("name", [*sorted(_SPECS), "two-components"])
def test_omega_values_equal_the_per_radius_loop(name):
    if name == "two-components":
        _, kernel = _two_component_kernel()
    else:
        kernel = build_from_spec(_spec(name, floats=False)).kernel
    if len(kernel.jump_support()) == 0:
        assert np.array_equal(_omega_values(kernel, np.array([1.0, 2.0])), np.zeros(2))
        return
    longest = kernel.longest_pair_distance()
    if isinstance(kernel, StencilKernel) or name == "two-components":
        assert longest == math.inf  # no bound: one pass per radius
    radii = _radii_about(longest)
    assert np.array_equal(_omega_values(kernel, radii), _omega_loop(kernel, radii))


def _count_passes(monkeypatch, cls):
    calls = []
    passes = cls.weighted_row_sums

    def spy(self, g):
        calls.append(g)
        return passes(self, g)

    monkeypatch.setattr(cls, "weighted_row_sums", spy)
    return calls


@pytest.mark.parametrize("radii,n_passes", [((2, 3, 4, 5, 6, 7, 8), 1), ((0.5, 0.7, 1, 2, 4), 3)])
def test_omega_makes_one_pass_per_radius_clipped_to_the_longest_pair(monkeypatch, z3_cube, radii, n_passes):
    kernel = z3_cube.kernel
    assert kernel.longest_pair_distance() == 1.0
    want = _omega_loop(kernel, radii)
    calls = _count_passes(monkeypatch, JumpKernel)
    got = _omega_values(kernel, np.array(radii, dtype=float))
    assert len(calls) == n_passes
    assert np.array_equal(got, want)


def test_stencil_omega_makes_one_pass_per_radius(monkeypatch):
    built = stable_like(dim=1, truncation_radius=30)
    assert built.kernel.longest_pair_distance() == math.inf
    calls = _count_passes(monkeypatch, StencilKernel)
    _omega_values(built.kernel, np.array([0.5, 1.0, 2.0, 8.0, 29.0]))
    assert len(calls) == 5


def test_longest_pair_distance_of_an_empty_kernel_is_zero():
    assert explicit_kernel(5, []).kernel.longest_pair_distance() == 0.0


@pytest.mark.parametrize(
    "name", ["nn", "nn-cell", "explicit", "graph-shell_power", "stack-power", "model_manifold-sandwich", "underflow"]
)
def test_scaled_w_equals_the_broadcast_multiply(name):
    if name == "underflow":  # j m(y) = 1e-200 * 1e-200 underflows to an explicit 0 that stays stored
        built = explicit_kernel(3, [(0, 1, 1e-200), (1, 2, 1.0)], measure=[1e-200, 1e-200, 1.0])
    else:
        built = build_from_spec(_spec(name, floats=False))
    kernel = built.kernel.csr()
    want = kernel.matrix.multiply(built.space.measure[None, :]).tocsr()
    got = kernel.weighted
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr
    if name == "underflow":
        assert got.nnz == kernel.matrix.nnz and (got.data == 0).any()


# -- recurrence statistic ------------------------------------------------------

def test_an_instance_reads_its_one_space_from_its_kernel():
    # the space came as a second argument beside the kernel: the cell measure's space with the counting kernel
    # on the 41-point spacing-0.5 line silently gave [0.5625, 0.265625]
    counting = lattice_nn(dim=1, spacing=0.5, measure="counting", truncation_radius=10)
    cell = lattice_nn(dim=1, spacing=0.5, measure="cell", truncation_radius=10)
    assert counting.space is counting.kernel.space
    with pytest.raises(AttributeError):
        counting.space = cell.space
    assert recurrence_report(counting, counting.space.origin, [2, 4]).values == [1.125, 0.53125]
    assert recurrence_report(cell, cell.space.origin, [2, 4]).values == [0.28125, 0.1328125]


def test_an_instance_rejects_a_local_part_of_another_space():
    # the 10-point manifold's local part beside the 21-point Z's kernel silently reported [3.0, 1.375] for
    # [2.5, 1.125] in recurrence_report, and at spacing 0.05 ended in an IndexError
    z = lattice_nn(dim=1, truncation_radius=10)
    for spacing in (0.5, 0.05):
        mm = model_manifold(dim=1, spacing=spacing, truncation_radius=5)
        n = mm.space.n_points
        with pytest.raises(ValueError, match=re.escape(f"the local part's space ({n} points) is not the kernel's space (21 points)")):
            BuiltInstance(z.kernel, mm.local)
    one, two = (model_manifold(dim=1, spacing=0.5, truncation_radius=5) for _ in range(2))  # equal points, two spaces
    with pytest.raises(ValueError, match=re.escape("the local part's space (10 points) is not the kernel's space (10 points)")):
        BuiltInstance(one.kernel, two.local)


@pytest.mark.parametrize("x0", [50, -1])
def test_an_x0_outside_the_space_raises_naming_it_and_the_range(x0):
    # on the 21-point Z, x0 = 50 ended in an IndexError and -1 wrapped around to the last point
    b = lattice_nn(dim=1, truncation_radius=10)
    message = re.escape(f"x0: point id {x0} is not in [0, 21)")
    with pytest.raises(ValueError, match=message):
        recurrence_report(b, x0, [2.0, 4.0])
    with pytest.raises(ValueError, match=message):
        volume_growth_report(b.space, x0, [2.0, 4.0])


def test_recurrence_z_closed_form(z_line):
    sp = z_line.space
    radii = np.arange(5.0, 51.0, 5.0)
    rep = recurrence_report(z_line, sp.origin, radii)
    expected = [2 * (2 * r + 1) / r**2 for r in radii]
    assert rep.values == pytest.approx(expected, abs=1e-12)
    assert rep.verdict == "satisfied"


def test_recurrence_z3_inconclusive(z3_cube):
    sp = z3_cube.space
    radii = np.arange(2.0, 9.0)
    rep = recurrence_report(z3_cube, sp.origin, radii)
    assert rep.verdict == "inconclusive"
    # t(r) grows roughly linearly
    assert rep.values[-1] > rep.values[0]


@pytest.mark.parametrize("tau", [float("inf"), float("nan"), 0.0, -1.0])
def test_a_threshold_that_is_not_positive_and_finite_is_rejected(z3_cube, tau):
    # at tau = inf transient Z^3 read "recurrence: criterion satisfied"; at nan every verdict was inconclusive
    sp = z3_cube.space
    message = re.escape(f"threshold must be positive and finite, got {tau}")
    with pytest.raises(ValueError, match=message):
        volume_growth_report(sp, sp.origin, [2.0, 4.0, 8.0], threshold=tau)
    with pytest.raises(ValueError, match=message):
        recurrence_report(z3_cube, sp.origin, [2.0, 4.0, 8.0], threshold=tau)


@pytest.mark.parametrize("radii", [[float("nan")], [2.0, float("nan"), 8.0], [2.0, float("inf")]])
def test_a_radius_that_is_not_finite_is_named(z3_cube, radii):
    # a nan radius ended in "math domain error" (the log of an empty ball's volume)
    sp = z3_cube.space
    bad = next(r for r in radii if not math.isfinite(r))
    with pytest.raises(ValueError, match=f"radius {bad} is not a finite number"):
        volume_growth_report(sp, sp.origin, radii)
    with pytest.raises(ValueError, match=f"radius {bad} is not a finite number"):
        recurrence_report(z3_cube, sp.origin, radii)


@pytest.mark.parametrize("name", sorted(_VOLUME_CASES))
def test_both_statistics_equal_the_per_radius_rescan_over_every_shell(name):
    mode, build = _VOLUME_CASES[name]
    built = build()
    space, x0 = built.space, built.space.origin
    shells = np.unique(space.distances_from(x0))
    cases = (
        (volume_growth_report(space, x0, shells[shells > 1]).values, oracle_volume_growth_values(space, x0, shells[shells > 1])),
        (recurrence_report(built, x0, shells[shells > 0]).values, oracle_recurrence_values(built, x0, shells[shells > 0])),
    )
    for got, want in cases:
        if mode == "exact":
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_a_point_that_the_local_support_repeats_counts_once_in_v_c():
    built = model_manifold(dim=1, truncation_radius=4)
    local, origin = built.local, built.space.origin
    twice = LocalPart(local.space, local.edges, local.conductance, np.concatenate([local.support, local.support[:5]]))
    radii = [0.5, 1.5, 3.0]
    assert recurrence_report(BuiltInstance(built.kernel, twice), origin, radii).values == recurrence_report(built, origin, radii).values


@pytest.mark.parametrize("radii", [[2.0, 2.0, 2.0, 8.0], [8.0, 2.0, 4.0, 2.0], [2.0, 8.0, 8.0]])
def test_a_repeated_radius_is_named(z3_cube, radii):
    # repeats filled the top window: on Z^3 --radii 2,2,2,8 --tau 100 read "recurrence: criterion satisfied"
    # by r = 2's value 49.5, where 2,8 reads "inconclusive" by 197.7
    sp = z3_cube.space
    repeated = min(r for r in radii if radii.count(r) > 1)
    with pytest.raises(ValueError, match=f"radius {repeated} is repeated"):
        volume_growth_report(sp, sp.origin, radii, threshold=100.0)
    with pytest.raises(ValueError, match=f"radius {repeated} is repeated"):
        recurrence_report(z3_cube, sp.origin, radii, threshold=100.0)


def test_statistic_times_r2_nondecreasing(z_line):
    radii = np.arange(3.0, 40.0, 4.0)
    rep = recurrence_report(z_line, z_line.space.origin, radii)
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


def _theta_energies(built, x0, r_grid):
    return [energy(built, theta_test_function(built.space, x0, r)) for r in r_grid]


def test_theta_energy_z_and_z3(z_line, z3_cube):
    # on Z they decay like 4 / (R - 1); on Z^3 the surface of the ball makes them grow
    energies = _theta_energies(z_line, z_line.space.origin, [5.0, 9.0, 17.0, 33.0])
    assert energies == pytest.approx([4.0 / (r - 1) for r in (5.0, 9.0, 17.0, 33.0)], rel=1e-12)
    energies3 = _theta_energies(z3_cube, z3_cube.space.origin, [3.0, 5.0, 7.0, 9.0])
    assert all(a < b for a, b in zip(energies3, energies3[1:]))


def test_theta_energy_zero_kernel():
    b = explicit_kernel(40, [], coords=np.arange(40.0)[:, None])
    assert _theta_energies(b, 0, [3.0, 5.0]) == [0.0, 0.0]
