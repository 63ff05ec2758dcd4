"""Equilibrium potentials, capacities, and truncated Green functions.

cap(K, B) is the minimum of the energy form over functions that are 1 on K
and 0 outside the open ball B; its decay along an exhausting sequence of
balls is the computable recurrence certificate. Systems are graph-Laplacian
like. The assembled form matrix G is solved directly below DIRECT_LIMIT
unknowns, and at any size when its band is no larger than its stored
entries (a chain, say); otherwise by Jacobi-preconditioned conjugate
gradients. A stencil kernel with no local part is never assembled: every
solve is CG on its `free_operator`, the jump form on the free points,
which brings its own FFT matvecs and circulant preconditioner; this
module knows nothing of the stencil's layout.

Both the potentials and the Green functions go through the one free-set
solver that `_form` picks. The state space may be disconnected, so part of
a ball can have no coupling (jump or local edge) to the clamped points:
such a dead component gets potential 0 in a capacity, and Green potential
inf where f has mass on it and 0 elsewhere.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .forms import KernelOperator, LocalPart, StencilKernel, energy as form_energy, form_matrix
from .space import DiscreteMMSpace, boundary_notes, open_ball_mask

DIRECT_LIMIT = 2000
CG_TOL = 1e-10
DEFAULT_DECAY_RATIO = 0.05


class SolverFailure(RuntimeError):
    """Iterative solve did not reach the requested residual."""


@dataclass
class PotentialSolve:
    """Equilibrium potential u for (K, B) with its energy and solve residual."""

    inner: np.ndarray  # K point indices
    ball: np.ndarray  # boolean mask of the open ball B
    u: np.ndarray
    energy: float
    residual: float
    warnings: list[str] = field(default_factory=list)
    unknowns: int = 0  # size of the linear system solved
    iterations: int = 0  # CG iterations, 0 for a direct solve


def _solve_direct(a: sp.csr_matrix, b: np.ndarray) -> Optional[np.ndarray]:
    """x with a x = b by a direct solve, or None when a is left to CG.

    a is solved directly below DIRECT_LIMIT unknowns, and at any size when
    its band holds no more entries than it stores: with the bandwidth
    max |i - j| over the stored entries, in the given order, that is
    n (bandwidth + 1) <= nnz, so the band's Cholesky factor needs no more
    room than a. x is nan where that factorization finds a not positive
    definite, as a singular SuperLU solve leaves it.
    """
    n = a.shape[0]
    offsets = a.indices - np.repeat(np.arange(n), np.diff(a.indptr))  # j - i per stored entry
    bandwidth = int(np.abs(offsets).max(initial=0))
    full_band = n * (bandwidth + 1) <= a.nnz
    if not (n < DIRECT_LIMIT or full_band):
        return None
    if a.nnz / (n * n) > 0.25:
        return np.linalg.solve(a.toarray(), b)
    if not full_band:
        return spla.spsolve(a.tocsc(), b)
    from scipy.linalg import solveh_banded

    upper = offsets >= 0
    band = np.zeros((bandwidth + 1, n))  # solveh_banded's upper form: a[i, j] at band[bandwidth + i - j, j]
    np.add.at(band, (bandwidth - offsets[upper], a.indices[upper]), a.data[upper])
    try:
        return solveh_banded(band, b)
    except np.linalg.LinAlgError:
        return np.full(n, np.nan)


def _solve_spd(a, b: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Solve a x = b for a symmetric positive definite sparse matrix or `StencilKernel.free_operator`.

    A sparse matrix is solved directly where `_solve_direct` takes it, else
    by Jacobi-preconditioned CG; an operator always by CG with its own
    preconditioner `precond`.
    Returns x, the relative residual and the number of CG iterations (0 for a direct solve).
    """
    n = a.shape[0]
    if n == 0:
        return np.zeros(0), 0.0, 0
    info, steps = 0, []  # only CG reports a failure code and iterations
    x = _solve_direct(a, b) if sp.issparse(a) else None
    if x is None:
        if sp.issparse(a):
            diag = a.diagonal()
            inv = np.where(diag > 0, 1.0 / diag, 1.0)
            precond = spla.LinearOperator(a.shape, matvec=lambda v: inv * v)
        else:
            precond = a.precond
        maxiter = int(50 * np.sqrt(n) + 1000)
        x, info = spla.cg(a, b, rtol=CG_TOL, atol=0.0, maxiter=maxiter, M=precond, callback=lambda _: steps.append(1))
    res = float(np.linalg.norm(a @ x - b) / (np.linalg.norm(b) + 1e-300))
    if info != 0:
        raise SolverFailure(
            f"conjugate gradients stopped with info={info} on {n} unknowns after {len(steps)} iterations,"
            f" final relative residual {res:.3g}"
        )
    return x, res, len(steps)


def _dead_components(a_ff: sp.csr_matrix, g_rows: sp.csr_matrix, clamped: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Component labels of the free nodes and, per component, whether it has no coupling to clamped data.

    g_rows are the free rows of the form matrix; a free node couples when
    its row has a nonzero entry in a clamped column. a_ff must store no
    zeros, since connected_components takes every stored entry for an edge
    (its diagonal only adds self-loops).
    """
    hits = clamped[g_rows.indices] & (g_rows.data != 0)
    nonempty = np.flatnonzero(np.diff(g_rows.indptr))
    coupled = np.zeros(a_ff.shape[0], dtype=bool)
    coupled[nonempty] = np.logical_or.reduceat(hits, g_rows.indptr[nonempty])
    n_comp, labels = connected_components(a_ff, directed=False)
    dead = np.ones(n_comp, dtype=bool)
    dead[labels[coupled]] = False
    return labels, dead


class _AssembledForm:
    """Free-set solves on the assembled form matrix G: CSR kernels and local parts.

    A dead component (free points with no coupling to a clamped point) has
    a singular block, since nothing drains it: x is 0 there, or +inf where
    b carries positive mass on it.
    """

    def __init__(self, g: sp.csr_matrix):
        self.g = g

    def rhs(self, inner: np.ndarray, free_idx: np.ndarray) -> np.ndarray:
        """-G[free, K] 1: the data of a potential clamped to 1 on K."""
        return -np.asarray(self.g[:, inner][free_idx].sum(axis=1)).reshape(-1)

    def solve(self, free: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float, int, int]:
        """x with G[free, free] x = b; the residual of the live solve, the number of dead points, CG iterations."""
        free_idx = np.flatnonzero(free)
        rows = self.g[free_idx].tocsr()
        a_ff = rows[:, free_idx].tocsr()
        a_ff.eliminate_zeros()
        labels, dead_comp = _dead_components(a_ff, rows, ~free)
        dead = dead_comp[labels]
        live = ~dead
        if dead.any():
            a_ff = a_ff[live][:, live].tocsr()
        x = np.zeros(free_idx.size)
        x[live], res, iterations = _solve_spd(a_ff, b[live])
        mass = np.bincount(labels[dead], weights=b[dead], minlength=dead_comp.size)
        x[dead & (mass[labels] > 0)] = np.inf
        return x, res, int(dead.sum()), iterations


class _StencilForm:
    """Free-set solves on the jump form 2 (diag(m row_mass) - m W) of a stencil kernel with no local part.

    A stencil kernel's points are connected through its positive unit-offset
    entries, so the free set has a dead component only when no point is
    clamped, and then it is every point.
    """

    def __init__(self, kernel: StencilKernel):
        self.kernel = kernel

    def rhs(self, inner: np.ndarray, free_idx: np.ndarray) -> np.ndarray:
        """-A[free, K] 1 = 2 m (W 1_K) on the free points."""
        u = np.zeros(self.kernel.space.n_points)
        u[inner] = 1.0
        return 2.0 * self.kernel.space.measure[free_idx] * self.kernel.matvec(u)[free_idx]

    def solve(self, free: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float, int, int]:
        """As `_AssembledForm.solve`, through the kernel's `free_operator`."""
        if free.all():
            return np.full(b.size, np.inf if (b > 0).any() else 0.0), 0.0, b.size, 0
        if not free.any():  # a ball of radius 0: no bounding box to build the operator on
            return np.zeros(0), 0.0, 0, 0
        x, res, iterations = _solve_spd(self.kernel.free_operator(np.flatnonzero(free)), b)
        return x, res, 0, iterations


def _form(space: DiscreteMMSpace, kernel: KernelOperator, local: Optional[LocalPart]):
    """The free-set solver: FFT matvecs for a stencil kernel alone, else the assembled form matrix G."""
    if isinstance(kernel, StencilKernel) and local is None:
        return _StencilForm(kernel)
    return _AssembledForm(form_matrix(space, kernel, local))


def equilibrium_potential(
    space: DiscreteMMSpace,
    kernel: KernelOperator,
    local: Optional[LocalPart],
    inner: Sequence[int],
    ball_mask: np.ndarray,
) -> PotentialSolve:
    """Minimize E[v] over {v : v = 1 on K, v = 0 outside the open ball B}.

    Equivalent to the discrete Dirichlet problem on B \\ K; the minimum is
    cap(K, B), evaluated independently through the energy form.
    """
    return _potential(space, kernel, local, _form(space, kernel, local), inner, ball_mask)


def _potential(space, kernel, local, form, inner, ball_mask, radius: Optional[float] = None) -> PotentialSolve:
    """`equilibrium_potential` with its `_form` already built; radius names the ball in warnings."""
    inner = np.asarray(inner, dtype=np.int64)
    ball_mask = np.asarray(ball_mask, dtype=bool)
    if inner.size == 0:
        raise ValueError("inner set K must be nonempty")
    if not ball_mask[inner].all():
        raise ValueError("K must be contained in B")
    free = ball_mask.copy()
    free[inner] = False
    warnings: list[str] = []
    n = space.n_points
    u = np.zeros(n)
    u[inner] = 1.0
    free_idx = np.flatnonzero(free)
    if free_idx.size == 0:
        warnings.append("B \\ K is empty: potential is the indicator of K")
        e = form_energy(space, kernel, local, u)
        return PotentialSolve(inner, ball_mask, u, e, 0.0, warnings)

    x, res, n_dead, iterations = form.solve(free, form.rhs(inner, free_idx))
    if n_dead:
        warnings.append(
            f"{n_dead} free points lie in components touching neither K nor the "
            "ball boundary; their potential is set to 0"
        )
    u[free_idx] = x
    e = form_energy(space, kernel, local, u)
    if not (np.isfinite(e) and np.isfinite(res)):
        ball = "the ball" if radius is None else f"the ball of radius {radius:.6g}"
        warnings.append(
            f"capacity {e} with residual {res} on {ball}: the solve over {free_idx.size} free "
            "unknowns gave no finite answer (singular or overflowing system)"
        )
    return PotentialSolve(inner, ball_mask, u, e, res, warnings, free_idx.size - n_dead, iterations)


@dataclass
class CapacityReport:
    """Capacities per radius, with the size of each linear solve and its CG iterations (0 if direct)."""

    radii: list[float]
    capacities: list[float]
    certificate: bool
    decay_ratio: float
    residuals: list[float]
    unknowns: list[int]
    iterations: list[int]
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def capacity_scan(
    space: DiscreteMMSpace,
    kernel: KernelOperator,
    local: Optional[LocalPart],
    inner: Sequence[int],
    radii: Sequence[float],
    center: Optional[int] = None,
    decay_ratio: float = DEFAULT_DECAY_RATIO,
) -> CapacityReport:
    """cap(K, B(center, R)) over increasing R; raises the recurrence
    certificate when the tail has decayed below ``decay_ratio`` times the
    first value and is still decreasing; ``decay_ratio`` lies in (0, 1).

    Truncation drops the jumps out of each ball to points beyond the
    truncation, so near its edge the capacities under-count; the report
    then carries the criteria's boundary note (radii beyond the reach are
    allowed here). A last ball that holds every point clamps nothing to 0,
    so its capacity is 0 on any space: it raises no certificate.
    """
    if not 0 < decay_ratio < 1:  # a ratio >= 1 certifies any decreasing scan; nan fails too
        raise ValueError(f"decay_ratio must lie in (0, 1), got {decay_ratio}")
    inner = np.asarray(inner, dtype=np.int64)
    radii = sorted(float(r) for r in radii)
    if np.isnan(radii).any():  # an infinite radius is allowed: its ball holds every point
        raise ValueError("radius nan is not a number")
    if not radii:  # an empty scan would read as a certificate that failed
        raise ValueError("a capacity scan needs at least one radius")
    if center is None:
        center = int(inner[0])
    if not open_ball_mask(space, center, radii[0])[inner].all():  # then K lies inside every ball
        raise ValueError(f"K is not inside the open ball of radius {radii[0]}")
    form = _form(space, kernel, local)
    solves = [_potential(space, kernel, local, form, inner, open_ball_mask(space, center, r), radius=r) for r in radii]
    caps = [s.energy for s in solves]
    warnings = [w for s in solves for w in s.warnings]
    warnings.extend(boundary_notes(space.max_distance_from(center), radii[-1]))
    certificate = False
    if solves[-1].ball.all():
        warnings.append(f"the ball of radius {radii[-1]:.6g} holds every point, so its capacity is 0 on any space: no certificate")
    elif len(caps) >= 2 and caps[0] > 0:
        decayed = caps[-1] <= decay_ratio * caps[0]
        decreasing = caps[-1] < caps[-2] * (1 - 1e-9) or caps[-1] == 0.0
        certificate = bool(decayed and decreasing)
    return CapacityReport(
        [float(r) for r in radii], caps, certificate, decay_ratio,
        [s.residual for s in solves], [s.unknowns for s in solves], [s.iterations for s in solves], warnings,
    )


def green_growth(
    space: DiscreteMMSpace,
    kernel: KernelOperator,
    local: Optional[LocalPart],
    f: np.ndarray,
    x0: int,
    radii: Sequence[float],
    center: Optional[int] = None,
) -> np.ndarray:
    """Truncated Green potentials u_R(x0) with L u = -f on B(center, R), u = 0 outside.

    Divergence of the sequence is evidence of recurrence, boundedness of
    transience. u_R(x0) is inf when x0 lies in a dead component of the ball
    (no jump or local edge leads from it to the outside) on which f > 0
    somewhere, since the process then never leaves the ball.
    """
    f = np.asarray(f, dtype=float)
    if np.any(f < 0) or not np.any(f > 0):
        raise ValueError("f must be nonnegative and not identically zero")
    if center is None:
        center = int(x0)
    form = _form(space, kernel, local)
    rhs = f * space.measure
    out = []
    for r in sorted(float(r) for r in radii):
        free = open_ball_mask(space, center, r)
        u = np.zeros(space.n_points)
        u[free] = form.solve(free, rhs[free])[0]
        out.append(float(u[x0]))
    return np.asarray(out)
