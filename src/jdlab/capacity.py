"""Equilibrium potentials, capacities, and truncated Green functions.

cap(K, B) is the minimum of the energy form over functions that are 1 on K
and 0 outside the open ball B; its decay along an exhausting sequence of
balls is the computable recurrence certificate. Systems are graph-Laplacian
like: solved directly below DIRECT_LIMIT unknowns, otherwise by
Jacobi-preconditioned conjugate gradients.

Both the potentials and the Green functions go through one free-set solve,
`_solve_free`. The state space may be disconnected, so part of a ball can
have no coupling (jump or local edge) to the clamped points: such a dead
component gets potential 0 in a capacity, and Green potential inf where f
has mass on it and 0 elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .forms import JumpKernel, LocalPart, energy as form_energy, form_matrix
from .space import DiscreteMMSpace

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


def _solve_spd(a: sp.csr_matrix, b: np.ndarray) -> tuple[np.ndarray, float]:
    n = a.shape[0]
    if n == 0:
        return np.zeros(0), 0.0
    if n < DIRECT_LIMIT:
        dense_frac = a.nnz / max(n * n, 1)
        if dense_frac > 0.25:
            x = np.linalg.solve(a.toarray(), b)
        else:
            x = spla.spsolve(a.tocsc(), b)
    else:
        diag = a.diagonal()
        inv = np.where(diag > 0, 1.0 / diag, 1.0)
        precond = spla.LinearOperator(a.shape, matvec=lambda v: inv * v)
        maxiter = int(50 * np.sqrt(n) + 1000)
        x, info = spla.cg(a, b, rtol=CG_TOL, atol=0.0, maxiter=maxiter, M=precond)
        if info != 0:
            raise SolverFailure(f"conjugate gradients stopped with info={info} at size {n}")
    res = float(np.linalg.norm(a @ x - b) / (np.linalg.norm(b) + 1e-300))
    return x, res


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


def _solve_free(g_rows: sp.csr_matrix, free: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Solve g[free, free] x = b, where g_rows = g[free] and b already holds the clamped data.

    A dead component (free points with no coupling to a clamped point) has
    a singular block, since nothing drains it: x is 0 there, or +inf where
    b carries positive mass on it. Returns x, the residual of the live
    solve, and the number of dead points.
    """
    free_idx = np.flatnonzero(free)
    a_ff = g_rows[:, free_idx].tocsr()
    a_ff.eliminate_zeros()
    labels, dead_comp = _dead_components(a_ff, g_rows, ~free)
    dead = dead_comp[labels]
    live = ~dead
    if dead.any():
        a_ff = a_ff[live][:, live].tocsr()
    x = np.zeros(free_idx.size)
    x[live], res = _solve_spd(a_ff, b[live])
    mass = np.bincount(labels[dead], weights=b[dead], minlength=dead_comp.size)
    x[dead & (mass[labels] > 0)] = np.inf
    return x, res, int(dead.sum())


def equilibrium_potential(
    space: DiscreteMMSpace,
    kernel: Optional[JumpKernel],
    local: Optional[LocalPart],
    inner: Sequence[int],
    ball_mask: np.ndarray,
) -> PotentialSolve:
    """Minimize E[v] over {v : v = 1 on K, v = 0 outside the open ball B}.

    Equivalent to the discrete Dirichlet problem on B \\ K; the minimum is
    cap(K, B), evaluated independently through the energy form.
    """
    return _potential(space, kernel, local, form_matrix(space, kernel, local), inner, ball_mask)


def _potential(space, kernel, local, g, inner, ball_mask) -> PotentialSolve:
    """`equilibrium_potential` with the form matrix g already assembled."""
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

    g_rows = g[free_idx].tocsr()
    b = -np.asarray(g_rows[:, inner].sum(axis=1)).reshape(-1)
    x, res, n_dead = _solve_free(g_rows, free, b)
    if n_dead:
        warnings.append(
            f"{n_dead} free points lie in components touching neither K nor the "
            "ball boundary; their potential is set to 0"
        )
    u[free_idx] = x
    e = form_energy(space, kernel, local, u)
    return PotentialSolve(inner, ball_mask, u, e, res, warnings)


@dataclass
class CapacityReport:
    radii: list[float]
    capacities: list[float]
    certificate: bool
    decay_ratio: float
    residuals: list[float]
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "radii": self.radii,
            "capacities": self.capacities,
            "certificate": self.certificate,
            "decay_ratio": self.decay_ratio,
            "residuals": self.residuals,
            "warnings": self.warnings,
        }


def capacity_scan(
    space: DiscreteMMSpace,
    kernel: Optional[JumpKernel],
    local: Optional[LocalPart],
    inner: Sequence[int],
    radii: Sequence[float],
    center: Optional[int] = None,
    decay_ratio: float = DEFAULT_DECAY_RATIO,
) -> CapacityReport:
    """cap(K, B(center, R)) over increasing R; raises the recurrence
    certificate when the tail has decayed below ``decay_ratio`` times the
    first value and is still decreasing.
    """
    inner = np.asarray(inner, dtype=np.int64)
    radii = sorted(float(r) for r in radii)
    if center is None:
        center = int(inner[0])
    dist = space.distances_from(center)
    g = form_matrix(space, kernel, local)
    caps, residuals, warnings = [], [], []
    for r in radii:
        mask = dist < r
        if not mask[inner].all():
            raise ValueError(f"K is not inside the open ball of radius {r}")
        solve = _potential(space, kernel, local, g, inner, mask)
        caps.append(solve.energy)
        residuals.append(solve.residual)
        warnings.extend(solve.warnings)
    certificate = False
    if len(caps) >= 2 and caps[0] > 0:
        decayed = caps[-1] <= decay_ratio * caps[0]
        decreasing = caps[-1] < caps[-2] * (1 - 1e-9) or caps[-1] == 0.0
        certificate = bool(decayed and decreasing)
    return CapacityReport([float(r) for r in radii], caps, certificate, decay_ratio, residuals, warnings)


def green_growth(
    space: DiscreteMMSpace,
    kernel: Optional[JumpKernel],
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
    g = form_matrix(space, kernel, local)
    dist = space.distances_from(center)
    rhs = f * space.measure
    out = []
    for r in sorted(float(r) for r in radii):
        free = dist < r
        u = np.zeros(space.n_points)
        u[free], _, _ = _solve_free(g[free].tocsr(), free, rhs[free])
        out.append(float(u[x0]))
    return np.asarray(out)
