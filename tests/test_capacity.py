import re
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from jdlab import (
    capacity_scan,
    energy,
    equilibrium_potential,
    green_growth,
    lattice_nn,
    model_manifold,
    theta_test_function,
    volume_growth_report,
)
from jdlab.forms import form_matrix
from jdlab.kernels import explicit_kernel
from jdlab.space import boundary_notes, open_ball_mask
from jdlab.specio import round_floats
from conftest import random_symmetric_kernel


def test_cap_z_closed_form(z_line):
    sp = z_line.space
    for big_r in (4.0, 10.0):
        mask = open_ball_mask(sp, sp.origin, big_r)
        solve = equilibrium_potential(sp, z_line.kernel, None, [sp.origin], mask)
        assert solve.energy == pytest.approx(4.0 / big_r, abs=1e-9)
        # piecewise linear equilibrium profile
        d = sp.distances_from(sp.origin)
        inside = d < big_r
        assert solve.u[inside] == pytest.approx(1.0 - d[inside] / big_r, abs=1e-9)


def test_cap_one_step_drop_closed_form(z_line):
    # K = B minus its outermost shell: one free point per side, minimized at 1/2
    sp = z_line.space
    big_r = 7.0
    d = sp.distances_from(sp.origin)
    mask = d < big_r
    inner = np.flatnonzero(d <= big_r - 2)
    solve = equilibrium_potential(sp, z_line.kernel, None, inner, mask)
    assert solve.energy == pytest.approx(2.0, abs=1e-9)
    assert np.all(solve.u[inner] == 1.0)


def test_zero_kernel_capacity():
    b = explicit_kernel(9, [], coords=np.arange(9.0)[:, None])
    mask = open_ball_mask(b.space, 0, 5.0)
    solve = equilibrium_potential(b.space, b.kernel, None, [0], mask)
    assert solve.energy == 0.0
    assert solve.u[0] == 1.0
    assert np.all(solve.u[1:] == 0.0)  # feasible indicator reported
    assert solve.warnings


def test_maximum_principle_random_kernels():
    rng = np.random.default_rng(77)
    for _ in range(15):
        built = random_symmetric_kernel(rng, int(rng.integers(8, 40)))
        sp = built.space
        mask = open_ball_mask(sp, 0, float(sp.n_points // 2))
        solve = equilibrium_potential(sp, built.kernel, None, [0], mask)
        assert np.all(solve.u >= -1e-9)
        assert np.all(solve.u <= 1.0 + 1e-9)
        assert solve.residual <= 1e-8


def test_capacity_monotone_in_radius_and_inner_set(z_line):
    sp = z_line.space
    rep = capacity_scan(sp, z_line.kernel, None, [sp.origin], [5.0, 10.0, 20.0, 40.0])
    assert all(a >= b - 1e-12 for a, b in zip(rep.capacities, rep.capacities[1:]))
    # larger K -> larger capacity
    small = equilibrium_potential(sp, z_line.kernel, None, [sp.origin], open_ball_mask(sp, sp.origin, 20.0))
    big_k = np.flatnonzero(sp.distances_from(sp.origin) <= 2.0)
    large = equilibrium_potential(sp, z_line.kernel, None, big_k, open_ball_mask(sp, sp.origin, 20.0))
    assert large.energy >= small.energy - 1e-12


def test_variational_consistency(z_line):
    sp = z_line.space
    mask = open_ball_mask(sp, sp.origin, 15.0)
    solve = equilibrium_potential(sp, z_line.kernel, None, [sp.origin], mask)
    g = form_matrix(sp, z_line.kernel, None)
    quadratic = float(solve.u @ (g @ solve.u))
    assert solve.energy == pytest.approx(quadratic, rel=1e-8)


def test_capacity_below_theta_energy(z_line):
    sp = z_line.space
    for big_r in (5.0, 9.0, 21.0):
        mask = sp.distances_from(sp.origin) < big_r
        unit_ball = np.flatnonzero(sp.distances_from(sp.origin) <= 1.0)
        solve = equilibrium_potential(sp, z_line.kernel, None, unit_ball, mask)
        theta = theta_test_function(sp, sp.origin, big_r)
        e_theta = energy(sp, z_line.kernel, None, theta)
        assert solve.energy <= e_theta + 1e-12


def test_disconnected_component_zeroed_with_warning():
    # points 0-1-2 chained; 3-4 isolated pair inside B
    entries = [[0, 1, 1.0], [1, 2, 1.0], [3, 4, 1.0]]
    b = explicit_kernel(6, entries, coords=np.arange(6.0)[:, None])
    mask = b.space.distances_from(0) < 5.0  # contains 0..4, excludes 5
    solve = equilibrium_potential(b.space, b.kernel, None, [0], mask)
    assert any("components" in w for w in solve.warnings)
    assert solve.u[3] == 0.0 and solve.u[4] == 0.0


def test_non_finite_capacity_is_reported():
    # m spans 0.05 to 1e95 on this profile: the free block over the whole truncation is singular
    b = model_manifold(dim=1, spacing=0.05, profile="sandwich", truncation_radius=55)
    sp, o = b.space, b.space.origin
    big_r = 1.01 * sp.max_distance_from(o)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a singular direct solve may warn, as SuperLU's MatrixRankWarning does
        rep = capacity_scan(sp, b.kernel, b.local, [o], [0.5 * big_r, big_r])
        solve = equilibrium_potential(sp, b.kernel, b.local, [o], sp.distances_from(o) < big_r)
    assert np.isfinite(rep.capacities[0]) and np.isnan(rep.capacities[1])
    n_free = sp.n_points - 1
    assert rep.warnings == [
        f"capacity nan with residual nan on the ball of radius {big_r:.6g}: the solve over {n_free} free "
        "unknowns gave no finite answer (singular or overflowing system)",
        "boundary contamination: largest balls touch the truncation edge; "
        "statistics there under-count the intended infinite space",
        f"the ball of radius {big_r:.6g} holds every point, so its capacity is 0 on any space: no certificate",
    ]
    assert np.isnan(solve.energy) and solve.warnings == [
        f"capacity nan with residual nan on the ball: the solve over {n_free} free "
        "unknowns gave no finite answer (singular or overflowing system)"
    ]


def test_boundary_note_when_the_largest_ball_nears_the_truncation(z_line):
    sp, o = z_line.space, z_line.space.origin  # reach 120: the note starts at 0.95 * 120 = 114
    note = volume_growth_report(sp, o, [2.0, 114.0]).notes
    assert len(note) == 1 and note[0].startswith("boundary contamination")
    assert capacity_scan(sp, z_line.kernel, None, [o], [10.0, 113.0]).warnings == []
    assert capacity_scan(sp, z_line.kernel, None, [o], [10.0, 114.0]).warnings == note
    # unlike the criteria, a scan may go past the reach: its last ball is the whole truncation
    whole = "the ball of radius 130 holds every point, so its capacity is 0 on any space: no certificate"
    assert capacity_scan(sp, z_line.kernel, None, [o], [10.0, 130.0]).warnings == note + [whole]


def test_capacity_scan_z3_transient_no_certificate(z3_cube):
    sp = z3_cube.space
    rep = capacity_scan(sp, z3_cube.kernel, None, [sp.origin], [3.0, 5.0, 7.0, 9.0])
    assert not rep.certificate
    # transient walk: capacities settle toward a positive limit
    assert rep.capacities[-1] > 0.5 * rep.capacities[0]


@pytest.mark.parametrize("last", [100.0, 17.33, np.inf])  # the box's corners lie at sqrt(300) = 17.3205
def test_no_certificate_from_a_ball_that_holds_every_point(z3_cube, last):
    # its capacity, 1.3e-20, decays past any ratio: the transient Z^3 scan printed certificate=True
    sp = z3_cube.space
    rep = capacity_scan(sp, z3_cube.kernel, None, [sp.origin], [2.0, 4.0, last])
    assert rep.capacities[-1] < 1e-15 and not rep.certificate
    assert f"the ball of radius {last:g} holds every point, so its capacity is 0 on any space: no certificate" in rep.warnings


def test_a_ball_short_of_the_corners_scans_as_before(z3_cube):
    sp = z3_cube.space
    rep = capacity_scan(sp, z3_cube.kernel, None, [sp.origin], [2.0, 4.0, 17.3])
    assert round_floats(rep.capacities) == [9.27272727273, 8.54636837326, 6.10934493457]
    assert (rep.unknowns, rep.iterations, rep.certificate) == ([26, 250, 9252], [0, 0, 80], False)
    assert rep.warnings == boundary_notes(sp.max_distance_from(sp.origin), 17.3)


def test_a_decay_ratio_outside_the_unit_interval_is_rejected(z3_cube):
    # at ratio 2 the transient Z^3 scan (capacities 9.27, 8.55, 8.33, 8.23) printed certificate=True
    sp = z3_cube.space
    radii = [2.0, 4.0, 6.0, 8.0]
    rep = capacity_scan(sp, z3_cube.kernel, None, [sp.origin], radii)
    assert np.allclose(rep.capacities, [9.27273, 8.54637, 8.33035, 8.22683], rtol=1e-5)
    assert not rep.certificate
    for ratio in (2.0, 1.0, 0.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=re.escape(f"decay_ratio must lie in (0, 1), got {ratio}")):
            capacity_scan(sp, z3_cube.kernel, None, [sp.origin], radii, decay_ratio=ratio)


def test_k_not_inside_ball_raises(z_line):
    sp = z_line.space
    with pytest.raises(ValueError, match="K"):
        capacity_scan(sp, z_line.kernel, None, [sp.origin, sp.origin + 8], [5.0, 10.0])


def test_an_empty_radius_list_raises(z_line):
    # it returned an empty scan with certificate False, as if a scan had run and failed
    sp = z_line.space
    with pytest.raises(ValueError, match="a capacity scan needs at least one radius"):
        capacity_scan(sp, z_line.kernel, None, [sp.origin], [])


def test_k_checked_once_against_the_smallest_radius(z_line, monkeypatch):
    import jdlab.capacity

    sp = z_line.space
    calls = []
    monkeypatch.setattr(jdlab.capacity, "form_matrix", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="K is not inside the open ball of radius 5.0"):
        capacity_scan(sp, z_line.kernel, None, [sp.origin, sp.origin + 8], [20.0, 5.0, 10.0])
    assert calls == []  # rejected before the form matrix is assembled


def test_solver_failure_names_size_iterations_and_residual(monkeypatch):
    import jdlab.capacity

    # 3,404 unknowns of a 2-D lattice take the CG path (their band is far wider than their rows);
    # a tolerance CG cannot reach runs it to maxiter = 50 sqrt(n) + 1000
    built = lattice_nn(dim=2, truncation_radius=40)
    monkeypatch.setattr(jdlab.capacity, "CG_TOL", 1e-300)
    with pytest.raises(jdlab.capacity.SolverFailure) as exc:
        capacity_scan(built.space, built.kernel, None, [built.space.origin], [33.0])
    message = str(exc.value)
    assert "on 3404 unknowns after 3917 iterations" in message
    assert re.search(r"final relative residual \d", message)


def test_report_gives_unknowns_and_cg_iterations_per_radius():
    built = lattice_nn(dim=2, truncation_radius=40)
    origin = built.space.origin
    report = capacity_scan(built.space, built.kernel, None, [origin], [5.0, 33.0])
    assert report.unknowns == [68, 3404]  # the second ball takes the CG path
    assert report.iterations[0] == 0 and report.iterations[1] > 0
    assert report.to_dict()["iterations"] == report.iterations
    again = capacity_scan(built.space, built.kernel, None, [origin], [5.0, 33.0])
    assert again.to_dict() == report.to_dict()


def test_full_band_chains_above_the_limit_solve_directly():
    # the oracle's tridiagonal ball: 2,998 unknowns above DIRECT_LIMIT, yet n (bandwidth + 1) <= nnz
    built = lattice_nn(dim=1, truncation_radius=1600)
    report = capacity_scan(built.space, built.kernel, None, [built.space.origin], [100.0, 1500.0])
    assert report.unknowns == [198, 2998] and report.iterations == [0, 0]
    assert report.capacities == pytest.approx([4.0 / 100.0, 4.0 / 1500.0], rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=400))
def test_direct_route_on_full_band_systems_matches_cg(seed, extra):
    # a 1-D chain with conductances c and a killing rate k per point, both in [0.1, 10]: diagonally
    # dominant by at least 0.1, so CG to 1e-13 pins x to within 1e-10
    import jdlab.capacity

    rng = np.random.default_rng(seed)
    n = jdlab.capacity.DIRECT_LIMIT + extra
    c = rng.uniform(0.1, 10.0, n - 1)
    diag = rng.uniform(0.1, 10.0, n) + np.concatenate([c, [0.0]]) + np.concatenate([[0.0], c])
    a = sp.diags([-c, diag, -c], [-1, 0, 1], format="csr")
    b = rng.normal(size=n)
    x, res, iterations = jdlab.capacity._solve_spd(a, b)
    assert iterations == 0 and res <= 1e-12
    operator = spla.aslinearoperator(a)  # the same matrix behind an operator takes the CG route
    operator.precond = spla.LinearOperator(a.shape, matvec=lambda v: v / diag)
    with mock.patch.object(jdlab.capacity, "CG_TOL", 1e-13):
        x_cg, _, cg_iterations = jdlab.capacity._solve_spd(operator, b)
    assert cg_iterations > 0
    assert np.linalg.norm(x - x_cg) <= 1e-10 * np.linalg.norm(x)


def test_green_growth_z_matches_tridiagonal_oracle(z_line):
    sp = z_line.space
    f = np.zeros(sp.n_points)
    f[sp.origin] = 1.0
    radii = [5.0, 10.0, 20.0, 40.0]
    got = green_growth(sp, z_line.kernel, None, f, sp.origin, radii)
    for r, u0 in zip(radii, got):
        # independent oracle: tridiagonal system with literal entries 4 / -2
        n_free = 2 * int(r) - 1
        a = 4.0 * np.eye(n_free) - 2.0 * (np.eye(n_free, k=1) + np.eye(n_free, k=-1))
        rhs = np.zeros(n_free)
        rhs[n_free // 2] = 1.0
        oracle = np.linalg.solve(a, rhs)[n_free // 2]
        assert u0 == pytest.approx(oracle, rel=1e-9)
    # unbounded growth along R: recurrence evidence
    diffs = np.diff(got)
    assert np.all(diffs > 0)
    assert got[-1] == pytest.approx(40.0 / 4.0, rel=1e-6)


def test_green_growth_z3_converges(z3_cube):
    sp = z3_cube.space
    f = np.zeros(sp.n_points)
    f[sp.origin] = 1.0
    got = green_growth(sp, z3_cube.kernel, None, f, sp.origin, [3.0, 5.0, 7.0, 9.0])
    diffs = np.diff(got)
    assert np.all(diffs > 0)  # monotone in R
    assert diffs[-1] < diffs[0] / 3  # increments collapse: transience evidence


def test_green_rejects_bad_f(z_line):
    sp = z_line.space
    with pytest.raises(ValueError):
        green_growth(sp, z_line.kernel, None, np.zeros(sp.n_points), sp.origin, [5.0])


def test_green_f_outside_ball_gives_zero(z_line):
    sp = z_line.space
    f = np.zeros(sp.n_points)
    f[sp.origin + 30] = 1.0
    got = green_growth(sp, z_line.kernel, None, f, sp.origin, [5.0], center=sp.origin)
    assert got[0] == 0.0
