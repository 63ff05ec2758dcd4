"""Stencil kernels (FFT matvecs and row sums, CSR gathered from the stencil) against the code paths they replace.

`capacity_scan`, `equilibrium_potential` and `energy` run once on the stencil
kernel (circulant-preconditioned CG on ball-sized FFT matvecs) and once
on its CSR twin with the assembled form matrix G, which is full-band and
so solved directly. They also run against `JacobiFullBox`, the stencil
solve that circulant preconditioning replaced: Jacobi-CG on FFT matvecs
over the whole box. The CSR itself is checked against `_pairwise_kernel`,
which builds it from distances and the model's density written out in
the tests. Energies are compared within 1e-12 relative, except on the
tempered case ii kernel: there they are compared within twice the
rounding scale of the stencil energy's Gamma sum (eps times the sum of its
terms' magnitudes), since near the truncation that sum cancels by 1e4 and
sits ~1e-12 from the exact value (the CSR sums per entry, which does not
cancel).
Criteria (weighted row sums, omega, M_j, recurrence reports) are compared
with the gathered CSR within 1e-12 relative, the CSR's per-entry jump
energy with a long-double sum within 1e-14.
"""

import contextlib
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from conftest import derivation_residual, stable_like_density, theta_test_function

import jdlab.capacity
import jdlab.forms
from jdlab import (
    DiscreteMMSpace,
    JumpKernel,
    StencilKernel,
    capacity_scan,
    energy,
    equilibrium_potential,
    jump_rates,
    m_constants,
    recurrence_report,
    stable_like,
    support_sets,
    weighted_line,
)
from jdlab.capacity import _form, _potential
from jdlab.forms import BuiltInstance, _FreeOperator, form_matrix, local_chain
from jdlab.kernels import KAPPA_GASKET, _pairwise_kernel

REL = 1e-12
EPS = np.finfo(float).eps


def energy_tol(name, space, kernel, u, value):
    """Allowed |difference| of two evaluations of energy(u): 1e-12 relative, or 2 eps sum |Gamma terms| m on case ii."""
    if name != "case-ii":
        return REL * abs(value)
    w, m = kernel.matvec, space.measure  # W >= 0, so |W| u = W u
    terms = np.sum(m * (u * u * kernel.row_mass + 2 * np.abs(u * w(u)) + w(u * u)))
    return max(REL * abs(value), 2 * EPS * terms)


def solve_tol(name, stencil, free):
    """Allowed relative difference of two solves on the free points: 1e-12, or on case ii 2 eps cond(A_ff) (infinity norm).

    Two backward-stable solves of A_ff x = b, each exact for A_ff perturbed by
    about eps |A_ff|, differ by up to about that much; near case ii's
    truncation cond(A_ff) reaches 3e4, so FFT matvecs that round differently
    move the solution by more than 1e-12 there (either side is as far from a
    direct solve on the CSR twin).
    """
    if name != "case-ii":
        return REL
    a_ff = _FreeOperator(stencil, free) @ np.eye(free.size)
    cond = np.abs(a_ff).sum(axis=1).max() * np.abs(np.linalg.inv(a_ff)).sum(axis=1).max()
    return max(REL, 2 * EPS * cond)


def pairwise_oracle(space, case="i", alpha=1.0, beta=1.0, tempering=1.0, dim=1, **_):
    """The CSR `_pairwise_kernel` builds on space from distances, for `stable_like` on a lattice with these parameters."""
    return pairwise_oracle_from(space, stable_like_density(case, alpha, beta, tempering, kappa=float(dim)))


def pairwise_oracle_from(space, density):
    """The CSR `_pairwise_kernel` builds on space from distances, for the density d -> j(d)."""
    return _pairwise_kernel(space, lambda idx, d: density(d))


@contextlib.contextmanager
def no_gather():
    """Fails the test if `StencilKernel.csr` is called inside the block, whatever the caller does with the result."""
    calls = []
    gather = StencilKernel.csr

    def spy(self):
        calls.append(self)
        return gather(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StencilKernel, "csr", spy)
        yield
    assert not calls, f"StencilKernel.csr was called {len(calls)} times"


def assert_bit_identical(a, b):
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def assert_reports_match(got, want):
    """Recurrence reports agree: radii, verdict and notes equal, the statistic and omega within 1e-12 relative."""
    assert (got.radii, got.verdict, got.notes) == (want.radii, want.verdict, want.notes)
    np.testing.assert_allclose(got.values, want.values, rtol=REL, atol=0)
    assert got.liminf_estimate == pytest.approx(want.liminf_estimate, rel=REL, abs=0)
    np.testing.assert_allclose(got.extras["omega"], want.extras["omega"], rtol=REL, atol=0)


def _offsets(space, point):
    """Index of the lattice point with the given integer steps."""
    return int(np.flatnonzero((space.steps == np.asarray(point)).all(axis=1))[0])


# name -> (stable_like kwargs, K as step vectors (None: the origin), radii, center steps (None: first K point))
CASES = {
    "stable-1d": (dict(alpha=1.0, beta=1.0, dim=1, truncation_radius=1200), None, [10.0, 40.0, 160.0, 640.0, 1100.0], None),
    "criterion-3-alpha-0.5": (dict(alpha=0.5, beta=0.5, dim=1, truncation_radius=2000), None, [10.0, 40.0, 160.0, 640.0], None),
    "criterion-3-alpha-1.0": (dict(alpha=1.0, beta=1.0, dim=1, truncation_radius=2000), None, [10.0, 40.0, 160.0, 640.0], None),
    "criterion-3-alpha-1.5": (dict(alpha=1.5, beta=1.5, dim=1, truncation_radius=2000), None, [10.0, 40.0, 160.0, 640.0], None),
    "dim-2-spacing-0.5": (dict(alpha=1.2, beta=0.7, dim=2, spacing=0.5, truncation_radius=8), None, [2.0, 4.0, 6.0, 7.5], None),
    "dim-3": (dict(alpha=0.8, beta=1.5, dim=3, truncation_radius=5), None, [2.0, 3.0, 4.5], None),
    "case-ii": (dict(case="ii", alpha=1.0, tempering=0.8, dim=1, truncation_radius=300), None, [5.0, 50.0, 200.0, 290.0], None),
    "spacing-0.1": (dict(alpha=1.5, beta=0.5, dim=1, spacing=0.1, truncation_radius=30), None, [1.0, 5.0, 20.0, 29.0], None),
    "several-K-off-centre": (
        dict(alpha=1.0, beta=1.0, dim=1, truncation_radius=400), [[-3], [0], [2], [7]], [20.0, 100.0, 300.0], [5],
    ),
    "dim-2-spacing-0.1-several-K-off-centre": (
        dict(alpha=0.7, beta=1.4, dim=2, spacing=0.1, truncation_radius=2),
        [[3, -2], [3, -1], [4, -2]], [0.5, 1.0, 1.6], [4, -1],
    ),
}


def _case(name):
    """The stencil instance of a case, its K, radii and ball centre."""
    kwargs, k_steps, radii, center_steps = CASES[name]
    built = stable_like(**kwargs)
    space = built.space
    assert isinstance(built.kernel, StencilKernel)
    inner = [space.origin] if k_steps is None else [_offsets(space, p) for p in k_steps]
    center = inner[0] if center_steps is None else _offsets(space, center_steps)
    return space, built.kernel, inner, radii, center


def _scan_both(name):
    """The stencil kernel's capacity scan, its CSR twin, and the twin's potentials from one assembled G."""
    space, stencil, inner, radii, center = _case(name)
    with no_gather():  # the stencil path never gathers the CSR
        got = capacity_scan(BuiltInstance(stencil), inner, radii, center=center)
    csr = stencil.csr()
    form = _form(BuiltInstance(csr))
    dist = space.distances_from(center)
    want = [_potential(BuiltInstance(csr), form, inner, dist < r, radius=r) for r in radii]
    return space, stencil, csr, got, want


@pytest.mark.parametrize("name", sorted(CASES))
def test_stencil_capacities_match_the_csr_path(name):
    space, stencil, csr, got, want = _scan_both(name)
    assert got.unknowns == [w.unknowns for w in want]
    assert all(it > 0 for it in got.iterations)  # every stencil solve is CG, whatever its size
    solve_warnings = [w for solve in want for w in solve.warnings]
    assert got.warnings[: len(solve_warnings)] == solve_warnings
    assert max(got.residuals) <= 1e-8
    for r, cap, solve in zip(got.radii, got.capacities, want):
        assert abs(cap - solve.energy) <= energy_tol(name, space, csr, solve.u, solve.energy), r
        # one function's energy through the FFT and through the CSR
        e_fft = energy(BuiltInstance(stencil), solve.u)
        assert abs(e_fft - solve.energy) <= energy_tol(name, space, csr, solve.u, solve.energy), r
    if name == "stable-1d":  # the last ball is above DIRECT_LIMIT, but the dense CSR twin is full-band
        assert got.unknowns == [18, 78, 318, 1278, 2198]
        assert np.abs(np.subtract(got.iterations, [7, 9, 10, 11, 12])).max() <= 2
        assert [w.iterations for w in want] == [0] * 5


@pytest.mark.parametrize("name", sorted(CASES))
def test_stencil_potentials_score_the_direct_energy_on_the_csr_twin(name):
    # one evaluator, the CSR twin's per-entry sum, scores both potentials, so the gap is the solves' alone: the
    # stencil Gamma formula's rounding, which the 1e-12 bounds above must absorb, is left out
    space, stencil, inner, radii, center = _case(name)
    dist = space.distances_from(center)
    with no_gather():
        form = _form(BuiltInstance(stencil))
        got = [_potential(BuiltInstance(stencil), form, inner, dist < r, radius=r) for r in radii]
    csr = stencil.csr()
    csr_form = _form(BuiltInstance(csr))
    for r, solve in zip(radii, got):
        assert solve.iterations > 0, r
        want = _potential(BuiltInstance(csr), csr_form, inner, dist < r, radius=r).energy
        assert abs(csr.jump_energy(solve.u, solve.u) - want) <= 1e-13 * want, r


@pytest.mark.parametrize("name", sorted(CASES))
def test_row_sums_omega_and_m_j_match_the_gathered_csr(name):
    _, stencil, _, radii, center = _case(name)
    with no_gather():  # criteria read the operator, never the CSR
        got_report = recurrence_report(BuiltInstance(stencil), center, radii)
        got_mc = m_constants(BuiltInstance(stencil))
    csr = stencil.csr()
    assert np.array_equal(stencil.jump_support(), csr.jump_support())
    truncated = [lambda d, r=r: np.minimum(d, r) ** 2 for r in radii]
    for g in truncated + [lambda d: np.minimum(1.0, d**2)]:
        np.testing.assert_allclose(stencil.weighted_row_sums(g), csr.weighted_row_sums(g), rtol=REL, atol=0)
    assert_reports_match(got_report, recurrence_report(BuiltInstance(csr), center, radii))
    want_mc = m_constants(BuiltInstance(csr))
    assert got_mc.m_j == pytest.approx(want_mc.m_j, rel=REL, abs=0)
    # equal up to ties: case ii's rows tie at rounding level, so the stencil may pick another row attaining the maximum
    sums = csr.weighted_row_sums(lambda d: np.minimum(1.0, d**2))
    assert got_mc.argmax_j == want_mc.argmax_j or sums[got_mc.argmax_j] == pytest.approx(want_mc.m_j, rel=REL, abs=0)


ROW_SUM_KERNELS = pytest.mark.parametrize(
    "kwargs",
    [
        dict(dim=1, truncation_radius=20),
        dict(case="ii", tempering=0.8, dim=1, truncation_radius=20),
        dict(dim=2, spacing=0.5, truncation_radius=4),
        dict(dim=3, truncation_radius=3),
        dict(support="gasket", gasket_level=4),
    ],
    ids=["1d", "case-ii", "2d", "3d", "gasket"],
)


@ROW_SUM_KERNELS
def test_row_sums_of_a_g_infinite_at_0_match_the_gathered_csr(kwargs):
    # g was evaluated at the unstored centre d = 0 too, and 0 * inf = nan spread to every row (41 of 41 on 1-D T = 20)
    stencil = stable_like(alpha=1.0, **kwargs).kernel
    g = lambda d: 1 / d
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # g never sees d = 0
        got = stencil.weighted_row_sums(g)
    np.testing.assert_allclose(got, stencil.csr().weighted_row_sums(g), rtol=REL, atol=0)


@ROW_SUM_KERNELS
def test_row_sums_of_a_finite_g_are_the_whole_stencil_convolution_bit_for_bit(kwargs):
    # weighting only the stored offsets leaves every finite g's sums as they were when g weighted the whole stencil
    stencil = stable_like(alpha=1.0, **kwargs).kernel
    n = stencil.space.n_points
    for g in (lambda d: np.minimum(d, 2.0) ** 2, lambda d: np.minimum(1.0, d**2), np.sqrt):
        whole = jdlab.forms._Convolution(stencil.stencil * g(stencil._offset_distances) * stencil._mass, stencil.space.steps)
        assert stencil.weighted_row_sums(g).tobytes() == whole(np.ones(n)).tobytes()


@ROW_SUM_KERNELS
def test_offset_distances_are_computed_once_per_kernel(monkeypatch, kwargs):
    # weighted_row_sums recomputed |k B| on every call, once per radius of omega(r)
    stencil = stable_like(alpha=1.0, **kwargs).kernel
    calls = []
    norm = stencil.space.axis_norm
    monkeypatch.setattr(stencil.space, "axis_norm", lambda *args: calls.append(args) or norm(*args))
    g = lambda d: np.minimum(1.0, d**2)
    first = stencil.weighted_row_sums(g)
    assert stencil.weighted_row_sums(g).tobytes() == first.tobytes() and calls == []


@pytest.mark.parametrize("tempering", [0.3, 0.8])
def test_csr_jump_energy_is_the_per_entry_sum_to_rounding(tempering):
    # the potentials of case ii near the truncation, where the Gamma formula cancels ~1e4-fold
    built = stable_like(case="ii", alpha=1.0, tempering=tempering, dim=1, truncation_radius=300)
    space, csr = built.space, built.kernel.csr()
    m = csr.matrix
    x, y = np.repeat(np.arange(space.n_points), np.diff(m.indptr)), m.indices
    mass = space.measure.astype(np.longdouble)
    dist = space.distances_from(space.origin)
    for r in (200.0, 230.0, 260.0, 290.0):
        u = equilibrium_potential(BuiltInstance(csr), [space.origin], dist < r).u
        du = u.astype(np.longdouble)[x] - u.astype(np.longdouble)[y]
        want = float(np.sum(m.data.astype(np.longdouble) * mass[x] * mass[y] * du * du))
        assert abs(energy(BuiltInstance(csr), u) - want) <= 1e-14 * want, r


@pytest.mark.parametrize("name", ["dim-2-spacing-0.5", "dim-3", "spacing-0.1", "dim-2-spacing-0.1-several-K-off-centre"])
def test_cg_on_fft_matvecs_matches_the_csr_path(monkeypatch, name):
    # the stencil side is CG at any size; above DIRECT_LIMIT = 40 the dense CSR twin is full-band, so still direct
    monkeypatch.setattr(jdlab.capacity, "DIRECT_LIMIT", 40)
    space, stencil, _, got, want = _scan_both(name)
    assert all(it > 0 for it in got.iterations) and all(solve.iterations == 0 for solve in want)
    assert any(solve.unknowns >= 40 for solve in want)
    assert max(got.residuals) <= 1e-8
    for cap, solve in zip(got.capacities, want):
        assert cap == pytest.approx(solve.energy, rel=REL)


class JacobiFullBox(spla.LinearOperator):
    """The stencil solve that circulant preconditioning replaced: FFT matvecs over the whole box, Jacobi preconditioner."""

    def __init__(self, kernel, free_idx):
        super().__init__(float, (free_idx.size, free_idx.size))
        self.kernel, self.free_idx = kernel, free_idx
        self._measure = kernel.space.measure[free_idx]
        self._diag = kernel.diag()[free_idx]
        self.precond = spla.LinearOperator(self.shape, matvec=lambda v: np.reshape(v, -1) / self._diag, dtype=float)

    def _matvec(self, x):
        x = np.reshape(x, -1)
        v = np.zeros(self.kernel.space.n_points)
        v[self.free_idx] = x
        return self._diag * x - 2.0 * self._measure * self.kernel.matvec(v)[self.free_idx]


@pytest.mark.parametrize("name", sorted(CASES))
def test_circulant_cg_matches_jacobi_cg_on_the_whole_box(monkeypatch, name):
    space, stencil, inner, radii, center = _case(name)
    dist = space.distances_from(center)

    def solves():
        """The capacity scan at the shipped CG_TOL; potentials at 1e-13, to compare them to 1e-12."""
        scan = capacity_scan(BuiltInstance(stencil), inner, radii, center=center)
        with monkeypatch.context() as tight:
            tight.setattr(jdlab.capacity, "CG_TOL", 1e-13)
            form = _form(BuiltInstance(stencil))
            potentials = [_potential(BuiltInstance(stencil), form, inner, dist < r).u for r in radii]
        return scan, potentials

    with no_gather():
        got, got_u = solves()
        with monkeypatch.context() as oracle:
            oracle.setattr(jdlab.forms, "_FreeOperator", JacobiFullBox)
            want, want_u = solves()
    assert got.unknowns == want.unknowns and got.warnings == want.warnings
    assert all(it > 0 for it in got.iterations) and max(got.residuals) <= 1e-8
    for r, cap, expected, u in zip(radii, got.capacities, want.capacities, want_u):
        assert abs(cap - expected) <= energy_tol(name, space, stencil, u, expected), r
    for r, u, expected in zip(radii, got_u, want_u):
        ball = np.flatnonzero(dist < r)
        assert np.abs(u - expected).max() <= solve_tol(name, stencil, np.setdiff1d(ball, inner)), r  # max u = 1


def _box_edge_and_point_sets(space, inner, center):
    """Free sets for the preconditioner: the ball reaching the box's faces, the ball holding the whole box, one point."""
    reach = float(np.abs(space.coords - space.coords[center]).max())
    dist = space.distances_from(center)
    for ball in (dist < 1.0001 * reach, np.ones(space.n_points, dtype=bool)):
        free = ball.copy()
        free[inner] = False
        yield np.flatnonzero(free)
    for x in (0, space.origin, space.n_points - 1):
        yield np.array([x])


@pytest.mark.parametrize("name", sorted(CASES))
def test_circulant_eigenvalues_are_positive(name):
    space, stencil, inner, radii, center = _case(name)
    dist = space.distances_from(center)
    free_sets = [np.setdiff1d(np.flatnonzero(dist < r), inner) for r in radii]
    for free_idx in free_sets + list(_box_edge_and_point_sets(space, inner, center)):
        op = _FreeOperator(stencil, free_idx)
        assert op.eigenvalues.min() > 0, free_idx.size
        if free_idx.size == 1:  # the circulant of one point is its diagonal entry
            assert op.eigenvalues.ravel().tolist() == [stencil.diag()[free_idx[0]]]
            assert op.precond @ np.array([3.0]) == pytest.approx(3.0 / stencil.diag()[free_idx])


@pytest.mark.parametrize(
    "name,radius", [("stable-1d", 10.0), ("dim-2-spacing-0.5", 2.0), ("dim-3", 2.0), ("several-K-off-centre", 20.0)]
)
def test_circulant_eigenvalues_are_rayleigh_quotients_of_the_extended_matrix(name, radius):
    # lambda(theta) = f* A_ext f for the padded box's Fourier vector f(x) = exp(i theta.x) / sqrt(N), A_ext = A_ff (+) 0
    space, stencil, inner, _, center = _case(name)
    free_idx = np.setdiff1d(np.flatnonzero(space.distances_from(center) < radius), inner)
    op = _FreeOperator(stencil, free_idx)
    a_ff = op @ np.eye(free_idx.size)
    box = op.box
    assert all(p >= n for p, n in zip(box, op._conv.box))
    at = np.ravel_multi_index(op._conv.at, box)  # the free points keep their places at the padded box's corner
    n = int(np.prod(box))
    a_ext = np.zeros((n, n))
    a_ext[np.ix_(at, at)] = a_ff
    x = np.stack(np.unravel_index(np.arange(n), box), axis=1)  # box points, row-major
    theta = 2 * np.pi * x / np.asarray(box)  # the frequencies, in the same order
    fourier = np.exp(1j * theta @ x.T).T / np.sqrt(n)  # column j is f_j
    rayleigh = np.einsum("xj,xy,yj->j", fourier.conj(), a_ext, fourier).real.reshape(box)
    want = rayleigh[..., : box[-1] // 2 + 1]  # the rfftn half
    np.testing.assert_allclose(op.eigenvalues, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_stable_1d_scan_takes_at_most_15_iterations_per_radius():
    _, stencil, inner, radii, _ = _case("stable-1d")
    first = capacity_scan(BuiltInstance(stencil), inner, radii)
    assert max(first.iterations) <= 15
    assert capacity_scan(BuiltInstance(stencil), inner, radii).iterations == first.iterations


@pytest.mark.parametrize("alpha,ceiling", [(1.8, 40), (0.8, 25)])
def test_masked_box_scan_on_the_level_7_gasket_takes_few_iterations(alpha, ceiling):
    # the circulant extended by the mean diagonal took 111 (alpha 1.8) and 46 (alpha 0.8) iterations at R = 100:
    # the filler added (1 - n / N) mean(diag) to each eigenvalue, for n free points of the box's N
    built = stable_like(alpha=alpha, beta=alpha, support="gasket", gasket_level=7)
    scan = capacity_scan(built, [0], [4.0, 32.0, 100.0])
    assert scan.iterations[-1] <= ceiling


def test_potentials_match_the_csr_path(monkeypatch):
    # energies are stationary at the potential, so they miss a right-hand side off by a factor; the
    # CSR side is a direct solve, and CG on the stencil runs to 1e-13 to hold both to 1e-12 absolute
    monkeypatch.setattr(jdlab.capacity, "CG_TOL", 1e-13)
    built = stable_like(alpha=1.0, beta=1.0, dim=1, truncation_radius=300)
    space, stencil = built.space, built.kernel
    dist = space.distances_from(space.origin)
    for r in (50.0, 250.0):
        got = equilibrium_potential(BuiltInstance(stencil), [space.origin], dist < r)
        want = equilibrium_potential(BuiltInstance(stencil.csr()), [space.origin], dist < r)
        assert got.iterations > 0 and want.iterations == 0
        np.testing.assert_allclose(got.u, want.u, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kwargs", [dict(dim=1, truncation_radius=200), dict(dim=2, spacing=0.5, truncation_radius=6)])
def test_derivation_residual_vanishes_on_stencil_kernels(kwargs):
    built = stable_like(alpha=1.3, beta=0.9, **kwargs)
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = rng.normal(size=built.space.n_points)
        phi = rng.normal(size=built.space.n_points)
        with no_gather():
            res = derivation_residual(built.space, built.kernel, u, phi)
            scale = abs(energy(built, u, u * phi)) + 1.0
        assert abs(res) <= 1e-10 * scale


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dim=1, truncation_radius=300),
        dict(case="ii", tempering=0.5, dim=1, spacing=0.5, truncation_radius=50),
        dict(case="ii", tempering=0.5, dim=2, spacing=3.0, truncation_radius=20),
        dict(dim=2, spacing=0.5, truncation_radius=6),
        dict(dim=3, truncation_radius=3),
        dict(dim=2, spacing=0.1, truncation_radius=1),
    ],
)
def test_operator_parts_match_the_csr_kernel(kwargs):
    built = stable_like(alpha=1.1, beta=0.8, **kwargs)
    space, stencil = built.space, built.kernel
    csr = pairwise_oracle(space, alpha=1.1, beta=0.8, **kwargs)
    np.testing.assert_allclose(stencil.row_mass, csr.row_mass, rtol=1e-14, atol=0)
    np.testing.assert_allclose(stencil.diag(), csr.diag(), rtol=1e-14, atol=0)
    v = np.random.default_rng(3).normal(size=space.n_points)
    assert np.all(np.abs(stencil.matvec(v) - csr.matvec(v)) <= 1e-13 * (abs(csr.weighted) @ np.abs(v)))


@pytest.mark.parametrize("spacing", [1.0, 0.5, 3.0])
@pytest.mark.parametrize("dim,extent", [(1, 300), (2, 12), (3, 4)])
@pytest.mark.parametrize("case", ["i", "ii"])
def test_gathered_csr_is_the_pairwise_build_where_offsets_are_exact(case, dim, extent, spacing):
    kwargs = dict(case=case, alpha=1.2, beta=0.7, tempering=0.8)
    built = stable_like(dim=dim, spacing=spacing, truncation_radius=extent * spacing, **kwargs)
    assert isinstance(built.kernel, StencilKernel) and built.space.n_points > 512  # more than one run of rows
    assert_bit_identical(built.kernel.csr().matrix, pairwise_oracle(built.space, dim=dim, **kwargs).matrix)


@pytest.mark.parametrize(
    "kwargs",
    [CASES["spacing-0.1"][0], CASES["dim-2-spacing-0.1-several-K-off-centre"][0], dict(dim=3, spacing=0.1, truncation_radius=0.5)],
)
def test_gathered_csr_is_the_pairwise_build_to_rounding_at_spacing_0_1(kwargs):
    # the pairwise build takes d from coordinates k * 0.1, each rounded, so it carries the rounding
    built = stable_like(**kwargs)
    got, want = built.kernel.csr().matrix, pairwise_oracle(built.space, **kwargs).matrix
    assert built.space.n_points > 512
    assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
    np.testing.assert_allclose(got.data, want.data, rtol=1e-13, atol=0)


def test_scans_potentials_and_energies_leave_the_csr_unbuilt():
    built = stable_like(alpha=1.0, dim=1, truncation_radius=200)
    space, kernel = built.space, built.kernel
    with no_gather():
        capacity_scan(BuiltInstance(kernel), [space.origin], [10.0, 150.0])
        equilibrium_potential(BuiltInstance(kernel), [space.origin], space.distances_from(space.origin) < 50)
        energy(BuiltInstance(kernel), theta_test_function(space, space.origin, 50.0))
        recurrence_report(BuiltInstance(kernel), space.origin, [10.0, 150.0])
        m_constants(BuiltInstance(kernel))
        support_sets(BuiltInstance(kernel))
    assert kernel.csr().matrix.nnz == space.n_points * (space.n_points - 1)


def test_the_stencil_keeps_no_gathered_csr():
    built = stable_like(alpha=1.0, dim=1, truncation_radius=200)
    space, kernel = built.space, built.kernel
    before = dict(vars(kernel))
    gathered = kernel.csr()
    assert kernel.csr() is not gathered  # each call gathers afresh
    jump_rates(kernel)
    form_matrix(BuiltInstance(kernel, local_chain(space, np.arange(space.n_points), 1.0)))  # stable_like's default spacing
    held = vars(kernel)
    assert held.keys() == before.keys() and all(held[k] is before[k] for k in held)
    assert not any(sp.issparse(v) or isinstance(v, JumpKernel) for v in held.values())


def test_reports_and_rates_see_the_pairwise_csr():
    built = stable_like(alpha=1.0, beta=1.0, dim=1, truncation_radius=150)
    space, stencil = built.space, built.kernel
    fresh = pairwise_oracle(space, alpha=1.0, beta=1.0)
    assert_bit_identical(stencil.csr().matrix, fresh.matrix)
    radii = [2.0, 10.0, 50.0, 100.0]
    assert_reports_match(
        recurrence_report(BuiltInstance(stencil), space.origin, radii),
        recurrence_report(BuiltInstance(fresh), space.origin, radii),
    )
    got_q, want_q = jump_rates(stencil).q, jump_rates(fresh).q
    assert got_q.data.tobytes() == want_q.data.tobytes() and got_q.indices.tobytes() == want_q.indices.tobytes()


def test_csr_kept_where_a_unit_offset_underflows_and_on_the_gasket():
    # exp(-400 * 2) underflows, so j vanishes at every offset and the box is not connected
    built = stable_like(case="ii", tempering=400.0, spacing=2.0, dim=1, truncation_radius=20)
    assert type(built.kernel) is JumpKernel and built.kernel.matrix.nnz == 0
    assert type(stable_like(support="gasket", gasket_level=3).kernel) is StencilKernel
    assert type(stable_like(case="ii", tempering=1.0, spacing=2.0, dim=1, truncation_radius=20).kernel) is StencilKernel


def test_an_underflowing_kernel_is_empty_without_a_pairwise_build():
    # f(h) = exp(-800) / 8 underflows, so every entry of the 14,641-point box is 0
    built = stable_like(case="ii", tempering=400.0, spacing=2.0, dim=2, truncation_radius=120)
    assert type(built.kernel) is JumpKernel and built.space.n_points == 14_641 and built.kernel.matrix.nnz == 0


def test_a_kernel_overflowing_at_the_spacing_is_named():
    # f(h) = h^-2.9 = 1e464 overflows; the pairwise build failed on inf - inf as an asymmetric density
    with pytest.raises(ValueError, match=r"the kernel overflows at d = h = 1e-160"):
        stable_like(alpha=1.9, spacing=1e-160, truncation_radius=3e-160)


@pytest.mark.parametrize("spacing, radius", [(1e160, 3e160), (1e153, 4e154)])
def test_a_spacing_whose_square_overflows_is_named_without_a_warning(spacing, radius):
    # at 1e160 the unit offset overflows; at 1e153 only the offsets |k| >= 14 do, which built a stencil
    # silently cut to 0 beyond them; either way the square printed a RuntimeWarning before the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"lattice spacing h = {spacing:g}")):
            stable_like(alpha=0.1, beta=0.01, spacing=spacing, truncation_radius=radius)


@pytest.mark.parametrize("spacing", [1e-160, 1e-170])
def test_a_spacing_whose_square_underflows_is_named(spacing):
    # (k h)^2 underflows: at 1e-160 the unit-offset distance was 9.99994e-161, so j(0, 1) sat 6.1e-6
    # off f(h) silently; at 1e-170 it rounded to 0 and the build blamed the unit-offset entry
    with pytest.raises(ValueError, match=rf"lattice spacing h = {spacing:g}"):
        stable_like(alpha=0.1, spacing=spacing, truncation_radius=3 * spacing)


def test_a_spacing_whose_square_is_normal_builds_exact_distances():
    h = 1e-154
    built = stable_like(alpha=0.1, spacing=h, truncation_radius=3 * h)
    assert type(built.kernel) is StencilKernel
    assert built.kernel.stencil[7] == stable_like_density("i", 0.1, 1.0)(np.array(h))  # offset +1 of [-6, 6]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("spacing", [1.0, 0.5, 0.1, 3.0])
def test_offset_distances_are_the_space_norm_of_k_h(dim, spacing):
    # |k| h was written out as sqrt(sum((k_a h)^2)) over the axes; it is now the space's norm, to the bit
    kernel = stable_like(alpha=0.5, dim=dim, spacing=spacing, truncation_radius=(3 if dim < 3 else 2) * spacing).kernel
    reach = kernel._box[0] - 1
    axes = np.meshgrid(*[np.arange(-reach, reach + 1)] * dim, indexing="ij")
    want = np.sqrt(sum((a * spacing) ** 2 for a in axes))
    got = kernel._offset_distances
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "kwargs",
    [
        *({"dim": dim, "spacing": h, "truncation_radius": 4 * h} for dim in (1, 2, 3) for h in (0.1, 1 / 3, 1.0, 2.7)),
        *({"support": "gasket", "gasket_level": level} for level in (2, 5, 7)),
    ],
)
def test_offset_distances_per_axis_are_the_norm_of_the_offset_tensor(kwargs):
    # the (box, d) integer offsets k times B, normed over their last axis: the construction the per-axis sum replaced
    kernel = stable_like(alpha=0.5, **kwargs).kernel
    reach = np.subtract(kernel._box, 1)
    offsets = np.moveaxis(np.indices(2 * reach + 1), 0, -1) - reach
    want = np.sqrt((np.dot(offsets, kernel._basis) ** 2).sum(axis=-1))
    assert want.tobytes() == kernel.space.norm(np.dot(offsets, kernel._basis)).tobytes()
    got = kernel._offset_distances
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _box_space(steps, coords, measure=None):
    return DiscreteMMSpace(np.ones(len(steps)) if measure is None else measure, coords=coords, steps=steps)


_BOX = np.indices((5, 5)).reshape(2, -1).T - 2  # the row-major box {-2..2}^2
_POWER = stable_like_density("i", 1.0, 1.0, 1.0, kappa=2.0)
_SHORT = stable_like_density("ii", 1.0, tempering=800.0, kappa=2.0)  # positive up to d = 1; exp(-800 d) underflows beyond
_TWO_CLUSTERS = np.array([[0, 0], [1, 0], [0, 1], [3, 3], [3, 2]])  # the clusters lie sqrt(2) apart at spacing 0.5


@pytest.mark.parametrize(
    "space,f,message",
    [
        (_box_space(np.array([[0], [1], [1], [2]]), np.array([[0.0], [1.0], [1.0], [2.0]])), _POWER, "distinct steps"),
        (_box_space(_BOX, np.roll(_BOX, 1, axis=0) * 0.5), _POWER, "coordinates equal to steps @ B"),
        (_box_space(_TWO_CLUSTERS, _TWO_CLUSTERS * 0.5), _SHORT, "connected through unit steps"),
        (DiscreteMMSpace(np.ones(3), coords=np.arange(3.0)[:, None]), _POWER, "integer steps"),
        (_box_space(_BOX, _BOX**3 * 0.5), _POWER, "coordinates equal to steps @ B"),
        (_box_space(_BOX, _BOX * 0.5 + 1e-9), _POWER, "coordinates equal to steps @ B"),
        (_box_space(_BOX, _BOX * 0.5, np.linspace(1.0, 2.0, 25)), _POWER, "uniform measure"),
        (weighted_line(lam=0.5, spacing=0.5, truncation_radius=5).space, _POWER, "uniform measure"),
        (_box_space(_BOX, _BOX * 0.5), lambda d: np.where(d > 0.6, d, 0.0), "unit-offset entry must be positive"),
        (_box_space(_BOX, _BOX * 0.5), lambda d: np.where(d > 2.5, np.inf, 1.0), "must be finite"),
        (_box_space(np.array([[0], [2], [3]]), np.array([[0.0], [2.0], [3.0]])), _POWER, "points at the unit steps"),
    ],
)
def test_stencil_kernel_rejects_a_space_or_density_outside_its_contract(space, f, message):
    # unchecked, a weighted line's stencil matvec weighted every point by measure[0], so it disagreed with its own CSR
    with pytest.raises(ValueError, match=message):
        StencilKernel(space, f)


@pytest.mark.parametrize(
    "steps",
    [_BOX[::-1], _BOX[:-1], np.arange(5)[:, None], _TWO_CLUSTERS[:3], np.delete(_BOX, [0, 6, 12, 18], axis=0)],
    ids=["reversed-box", "box-missing-a-corner", "box-0-4", "one-triangle", "box-missing-a-diagonal"],
)
def test_stencil_kernel_takes_points_in_any_order_and_a_proper_mask(steps):
    space = _box_space(steps, steps * 0.5)
    kernel = StencilKernel(space, _POWER)
    want = pairwise_oracle_from(space, _POWER)
    assert_bit_identical(kernel.csr().matrix, want.matrix)  # k * 0.5 is exact, so the offsets are coordinate differences
    v = np.random.default_rng(5).normal(size=space.n_points)
    np.testing.assert_allclose(kernel.matvec(v), want.matvec(v), rtol=0, atol=1e-13 * (want.weighted @ np.abs(v)).max())
    np.testing.assert_allclose(kernel.row_mass, want.row_mass, rtol=1e-14, atol=0)
    g = lambda d: np.minimum(1.0, d**2)
    np.testing.assert_allclose(kernel.weighted_row_sums(g), want.weighted_row_sums(g), rtol=1e-14, atol=0)
    assert np.array_equal(kernel.jump_support(), np.arange(space.n_points))


def test_stencil_kernel_reads_h_off_the_coordinates_and_clears_the_diagonal():
    space = _box_space(_BOX, _BOX * 0.5)
    kernel = StencilKernel(space, lambda d: np.ones_like(d))  # f(0) = 1 is not a jump
    assert np.array_equal(kernel._basis, 0.5 * np.eye(2)) and kernel.stencil[4, 4] == 0.0
    assert np.array_equal(kernel.row_mass, kernel.csr().row_mass)
    assert np.array_equal(kernel.csr().matrix.toarray(), 1.0 - np.eye(25))


def test_case_ii_at_spacing_0_1_is_a_translation_invariant_stencil():
    """j(x, x + 10) is one value for every x, although 10 * 0.1 sits on case ii's jump from 1 to exp(-2)."""
    built = stable_like(case="ii", tempering=2.0, dim=1, spacing=0.1, truncation_radius=30)
    assert type(built.kernel) is StencilKernel
    m = built.kernel.csr().matrix
    rows = np.arange(built.space.n_points - 10)
    at_ten = np.asarray(m[rows, rows + 10]).reshape(-1)
    assert np.all(at_ten == at_ten[0]) and at_ten[0] == built.kernel.stencil[2 * 300 + 10] == 1.0  # d = 10 * 0.1 = 1 exactly


# -- the gasket: a masked stencil against the pairwise CSR -------------------------------------------------------


def gasket_oracle(space, case, alpha):
    """The CSR `_pairwise_kernel` builds on a gasket space, with d from the integer steps.

    |a e1 + b e2|^2 = a^2 + a b + b^2 on the triangular lattice, so d is one
    rounding of a square root. From float coordinate differences, pairs
    exactly 1 apart land on either side of case ii's jump at d = 1.
    """
    density = stable_like_density(case, alpha, kappa=KAPPA_GASKET)

    def value(idx, _):
        a, b = np.moveaxis(space.steps[idx][:, None, :] - space.steps[None, :, :], -1, 0)
        return density(np.sqrt(a * a + a * b + b * b))

    return _pairwise_kernel(space, value)


def _old_gasket_coords(level):
    """The gasket's vertex coordinates as a union of Python sets of (a, b) steps."""
    verts = {(0, 0), (1, 0), (0, 1)}
    for l in range(level):
        s = 2**l
        verts = verts | {(a + s, b) for a, b in verts} | {(a, b + s) for a, b in verts}
    return np.array([(a + b / 2.0, b * np.sqrt(3) / 2.0) for a, b in sorted(verts)])


@pytest.mark.parametrize("level", range(7))
def test_gasket_steps_are_the_set_construction(level):
    space = stable_like(support="gasket", gasket_level=level).space
    want = _old_gasket_coords(level)
    assert space.coords.shape == want.shape and space.coords.tobytes() == want.tobytes()
    assert space.steps.dtype.kind == "i" and len(np.unique(space.steps, axis=0)) == space.n_points


@pytest.mark.parametrize("case", ["i", "ii"])
@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_gasket_stencil_matches_the_pairwise_csr(case, level):
    built = stable_like(case=case, alpha=0.8, support="gasket", gasket_level=level)
    space, stencil = built.space, built.kernel
    assert type(stencil) is StencilKernel
    csr = gasket_oracle(space, case, 0.8)
    v = np.random.default_rng(level).normal(size=space.n_points)
    assert np.all(np.abs(stencil.matvec(v) - csr.matvec(v)) <= REL * (csr.weighted @ np.abs(v)))
    np.testing.assert_allclose(stencil.row_mass, csr.row_mass, rtol=REL, atol=0)
    reach = 2.0**level
    radii = sorted({2.0, reach / 4, reach / 2, 0.9 * reach})  # a grid lists each radius once; at level 3, reach / 4 is 2
    for g in [lambda d, r=r: np.minimum(d, r) ** 2 for r in radii] + [lambda d: np.minimum(1.0, d**2)]:
        np.testing.assert_allclose(stencil.weighted_row_sums(g), csr.weighted_row_sums(g), rtol=REL, atol=0)
    with no_gather():
        got_report = recurrence_report(BuiltInstance(stencil), space.origin, radii)
        got_mc = m_constants(BuiltInstance(stencil))
        got = capacity_scan(BuiltInstance(stencil), [space.origin], radii)
    assert_reports_match(got_report, recurrence_report(BuiltInstance(csr), space.origin, radii))
    assert got_mc.m_j == pytest.approx(m_constants(BuiltInstance(csr)).m_j, rel=REL, abs=0)
    want = capacity_scan(BuiltInstance(csr), [space.origin], radii)
    assert got.unknowns == want.unknowns and got.warnings == want.warnings
    assert all(it > 0 for it in got.iterations) and max(got.residuals) <= 1e-8
    np.testing.assert_allclose(got.capacities, want.capacities, rtol=REL, atol=0)


@contextlib.contextmanager
def no_allocation():
    """Fails the test if the block builds gasket points or allocates 1 MB or more in Python or numpy."""
    import tracemalloc

    import jdlab.kernels

    def fail(level):
        raise AssertionError(f"gasket points of level {level} were built")

    tracemalloc.start()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(jdlab.kernels, "_gasket_points", fail)
            yield
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak allocation {peak} bytes"


@pytest.mark.parametrize("level", [29, 2000])
def test_a_gasket_level_whose_offset_box_cannot_be_addressed_is_rejected_unbuilt(level):
    # (2^(L+1) + 1)^2 floats exceed np.iinfo(np.intp).max bytes from L = 29 on; L = 2000 overflowed float(2^L)
    with no_allocation(), pytest.raises(ValueError, match=f"gasket_level {level} is too deep"):
        stable_like(support="gasket", gasket_level=level)


@pytest.mark.parametrize("level", [12, 13, 20, 28])
def test_a_gasket_level_over_the_size_budget_is_rejected_before_its_points_are_built(level):
    # levels 13-28 could be addressed, so they went on to build (3^(L+1) + 3) / 2 points and their offset box
    with no_allocation(), pytest.raises(ValueError, match=f"gasket_level {level} is too deep: .* bytes, over the"):
        stable_like(support="gasket", gasket_level=level)


def test_the_deepest_gasket_level_under_the_size_budget_goes_on_to_build_its_points():
    with pytest.raises(AssertionError, match="gasket points of level 11 were built"), no_allocation():
        stable_like(support="gasket", gasket_level=11)


def test_gasket_circulant_eigenvalues_are_positive_on_masked_free_sets():
    built = stable_like(alpha=0.8, support="gasket", gasket_level=5)
    space, stencil = built.space, built.kernel
    dist = space.distances_from(space.origin)
    for r in (2.0, 8.0, 16.0, 31.0, 100.0):
        free_idx = np.setdiff1d(np.flatnonzero(dist < r), [space.origin])
        assert _FreeOperator(stencil, free_idx).eigenvalues.min() > 0, r
