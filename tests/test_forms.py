import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jdlab import (
    energy,
    gamma_jump,
    jump_rates,
    lattice_nn,
    local_chain,
    m_constants,
    model_manifold,
)
import scipy.sparse as sp

from jdlab.forms import BuiltInstance, JumpKernel, LocalPart, RateTable
from jdlab.kernels import explicit_kernel, stable_like
from conftest import derivation_residual, random_symmetric_kernel, theta_test_function


def two_point(c=1.0):
    return explicit_kernel(2, [[0, 1, c]])


@pytest.mark.parametrize(
    "entries, message",
    [
        ([(0, 1, 1.0), (1, 0, float(np.nextafter(1.0, 2.0)))], "exactly symmetric"),  # one ulp apart
        ([(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)], "exactly symmetric"),  # (1, 0) missing
        ([(0, 1, np.nan), (1, 0, np.nan)], r"must be finite: j\(0, 1\) = nan"),  # named before the symmetry check
    ],
    ids=["one-ulp", "missing-mirror", "nan"],
)
def test_asymmetric_kernel_rejected(entries, message):
    space = explicit_kernel(3, []).space
    rows, cols, vals = zip(*entries)
    with pytest.raises(ValueError, match=message):
        JumpKernel(space, sp.csr_matrix((vals, (rows, cols)), shape=(3, 3)))


@pytest.mark.parametrize(
    "given",
    [
        sp.csr_matrix(np.array([[5.0, 1, 0], [1, 5, 2], [0, 2, 5]])),  # a stored diagonal
        sp.csr_matrix(np.array([[0.0, 1, 0], [1, 0, 2], [0, 2, 0]]), dtype=np.float32),  # shares only its indices
        sp.csr_matrix(([1.0, 0.0, 0.5, 0.5, 2.0, 2.0, 3.0], [1, 2, 0, 0, 2, 1, 2], [0, 2, 5, 7]), shape=(3, 3)),  # a repeat, a 0
    ],
    ids=["diagonal", "float32", "duplicate"],
)
def test_a_kernel_leaves_the_matrix_it_is_given_unchanged(given):
    # the constructor cleared the diagonal of the caller's float CSR in place: it read [[0,1,0],[1,0,2],[0,2,0]], nnz 4
    space = explicit_kernel(3, []).space
    before = [a.copy() for a in (given.data, given.indices, given.indptr)]
    got = JumpKernel(space, given).matrix
    for a, b in zip((given.data, given.indices, given.indptr), before):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    want = JumpKernel(space, given.toarray()).matrix  # a dense matrix is never shared
    for name in ("data", "indices", "indptr"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert want.toarray().tolist() == [[0, 1, 0], [1, 0, 2], [0, 2, 0]]


def test_a_kernel_keeps_a_matrix_that_needs_no_change_without_a_copy():
    space = explicit_kernel(3, []).space
    given = sp.csr_matrix(np.array([[0.0, 1, 0], [1, 0, 2], [0, 2, 0]]))
    got = JumpKernel(space, given).matrix
    assert all(np.shares_memory(getattr(got, name), getattr(given, name)) for name in ("data", "indices", "indptr"))


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


def test_gamma_jump_applies_w_to_u_once_when_v_is_u():
    built = stable_like(alpha=1.2, beta=0.8, dim=2, spacing=0.5, truncation_radius=6)
    kernel, calls = built.kernel, []
    u = np.random.default_rng(5).normal(size=built.space.n_points)
    w = kernel.matvec
    kernel.row_mass  # cached before counting
    kernel.matvec = lambda x: calls.append(1) or w(x)
    got = gamma_jump(kernel, u)
    assert len(calls) == 2  # W u and W (u u)
    want = u * u * kernel.row_mass - u * w(u) - u * w(u) + w(u * u)  # the formula with v = u written out
    assert got.tobytes() == want.tobytes()
    calls.clear()
    gamma_jump(kernel, u, u.copy())
    assert len(calls) == 3


def test_energy_constant_zero(z_line):
    u = np.ones(z_line.space.n_points)
    assert energy(z_line, u) == 0.0


def test_energy_two_point_ordered_double_sum():
    b = two_point(c=0.5)
    assert energy(b, np.array([0.0, 1.0])) == pytest.approx(1.0)


def test_energy_of_theta_closed_form(z_line):
    # 2(R-1) unit edges with increment 1/(R-1), ordered pairs doubled: 4/(R-1)
    sp = z_line.space
    for big_r in (5.0, 11.0, 41.0):
        th = theta_test_function(sp, sp.origin, big_r)
        assert energy(z_line, th) == pytest.approx(4.0 / (big_r - 1), rel=1e-12)


def test_m_constants_z_nn(z_line):
    mc = m_constants(z_line)
    assert mc.m_j == pytest.approx(2.0)
    assert mc.m_c == 0.0


def test_m_constants_zero_kernel():
    b = explicit_kernel(4, [])
    mc = m_constants(b)
    assert mc.m_j == 0.0


def test_m_constants_grid_local_part():
    from jdlab import DiscreteMMSpace

    h = 0.01
    n = 401
    sp = DiscreteMMSpace(np.full(n, h), coords=(np.arange(n) - n // 2)[:, None] * h, origin=n // 2)
    local = local_chain(sp, np.arange(n), h)
    mc = m_constants(BuiltInstance(JumpKernel.from_entries(sp, [], [], []), local))
    assert mc.m_c == pytest.approx(1.0, abs=5 * h)


@pytest.mark.parametrize(
    "edges, support, message",
    [
        ([[0, 1], [3, 10]], [0, 1], "each point id of the local edges: point id 10 is not in [0, 10)"),
        ([[0, 1], [3, -1]], [0, 1], "each point id of the local edges: point id -1 is not in [0, 10)"),
        ([[0, 1], [3, 4]], [0, 12], "each point id of the local support: point id 12 is not in [0, 10)"),
    ],
)
def test_a_local_part_checks_its_ids_against_its_space(edges, support, message):
    space = model_manifold(dim=1, spacing=0.5, truncation_radius=5).space
    with pytest.raises(ValueError, match=re.escape(message)):
        LocalPart(space, edges, [1.0, 1.0], support)


@pytest.mark.parametrize("conductance", [[2.0], [1.0, 1.0, 1.0]], ids=["one", "three"])
def test_a_local_part_takes_one_conductance_per_edge(conductance):
    # one value was broadcast to both edges, and three died in numpy's bare "operands could not be broadcast together"
    space = model_manifold(dim=1, spacing=0.5, truncation_radius=1.5).space  # the radii 0.5, 1 and 1.5
    message = f"conductance gives {len(conductance)} values for 2 local edges: one per edge"
    with pytest.raises(ValueError, match=re.escape(message)):
        LocalPart(space, [[0, 1], [1, 2]], conductance, [0, 1, 2])


def test_derivation_residual_phi_one(z_line):
    rng = np.random.default_rng(3)
    u = rng.normal(size=z_line.space.n_points)
    res = derivation_residual(z_line.space, z_line.kernel, u, np.ones_like(u))
    scale = abs(energy(z_line, u, u)) + 1.0
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
    euv = energy(built, u, v)
    evu = energy(built, v, u)
    assert euv == pytest.approx(evu, rel=1e-12, abs=1e-12)
    assert energy(built, u) >= -1e-12


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
    e = energy(built, u, v)
    assert pairing == pytest.approx(e, rel=1e-10, abs=1e-10)


def test_derivation_residual_random_graphs():
    rng = np.random.default_rng(1234)
    for _ in range(30):
        n = int(rng.integers(5, 120))
        built = random_symmetric_kernel(rng, n)
        u = rng.normal(size=n)
        phi = rng.normal(size=n)
        res = derivation_residual(built.space, built.kernel, u, phi)
        scale = abs(energy(built, u, u * phi)) + 1.0
        assert abs(res) <= 1e-10 * scale


def cumulative_rows_loop(q: sp.csr_matrix) -> np.ndarray:
    """The per-row loop that RateTable.cumulative_rows replaced, kept as its oracle."""
    cum = q.data.copy()
    for x in range(q.shape[0]):
        lo, hi = q.indptr[x], q.indptr[x + 1]
        if hi > lo:
            cum[lo:hi] = np.cumsum(cum[lo:hi])
    return cum


@settings(max_examples=120, deadline=None)
@given(
    lengths=st.one_of(
        st.lists(st.integers(0, 6), max_size=25),  # empty rows, length-1 rows and short runs
        st.tuples(st.integers(0, 20), st.integers(0, 9)).map(lambda nl: [nl[1]] * nl[0]),  # one run over every row
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_cumulative_rows_match_the_row_loop_bit_for_bit(lengths, seed):
    rng = np.random.default_rng(seed)
    width = max(lengths, default=0) + 1
    indptr = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))).astype(np.int32)
    indices = np.concatenate([np.sort(rng.choice(width, m, replace=False)) for m in lengths] or [[]]).astype(np.int32)
    data = rng.uniform(0.0, 1.0, len(indices)) * 10.0 ** rng.integers(-8, 9, len(indices))
    q = sp.csr_matrix((data, indices, indptr), shape=(len(lengths), width))
    rates = RateTable(None, q, np.asarray(q.sum(axis=1)).reshape(-1))
    got = rates.cumulative_rows()
    assert got.view(np.uint64).tolist() == cumulative_rows_loop(q).view(np.uint64).tolist()
    assert np.array_equal(q.data, data)  # the table's own rates are left alone


@pytest.mark.parametrize("shape", [(0, 3), (4, 4)])
def test_cumulative_rows_of_a_table_without_entries(shape):
    rates = RateTable(None, sp.csr_matrix(shape), np.zeros(shape[0]))
    assert rates.cumulative_rows().shape == (0,)
