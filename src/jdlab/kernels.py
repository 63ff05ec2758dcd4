"""Builders for the example space/kernel families.

Every builder returns a BuiltInstance (space, kernel, optional local part)
over a finite truncation whose radius is recorded on the space. Kernels
stated in the literature only up to two-sided comparison are implemented
with comparison constant 1 (the criteria evaluated downstream are invariant
under such constants).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .forms import JumpKernel, LocalPart, local_chain
from .space import DiscreteMMSpace, GraphData, build_graph_space

KAPPA_GASKET = math.log(3) / math.log(2)


@dataclass
class BuiltInstance:
    """A constructed example: space, jump kernel, and optional local part."""

    space: DiscreteMMSpace
    kernel: Optional[JumpKernel]
    local: Optional[LocalPart] = None


@dataclass
class KernelSpec:
    """Family tag + parameters + truncation radius; dispatches to a builder."""

    family: str
    truncation_radius: float
    params: dict = field(default_factory=dict)

    def build(self) -> BuiltInstance:
        builders: dict[str, Callable[..., BuiltInstance]] = {
            "lattice_nn": lattice_nn,
            "stable_like": stable_like,
            "stack": stack_space,
            "weighted_line": weighted_line,
            "model_manifold": model_manifold,
            "mixed_graph": mixed_graph_from_params,
            "explicit": explicit_kernel,
        }
        if self.family not in builders:
            raise ValueError(f"unknown kernel family {self.family!r}")
        return builders[self.family](truncation_radius=self.truncation_radius, **self.params)


# -- lattice scaffolding ---------------------------------------------------


def _lattice_points(dim: int, truncation_radius: float, spacing: float) -> np.ndarray:
    extent = int(math.floor(truncation_radius / spacing + 1e-9))
    if extent < 1:
        raise ValueError("truncation radius too small for the lattice spacing")
    axis = np.arange(-extent, extent + 1)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def _lattice_space(dim, truncation_radius, spacing, measure_per_point) -> DiscreteMMSpace:
    steps = _lattice_points(dim, truncation_radius, spacing)
    coords = steps * spacing
    origin = int(np.flatnonzero((steps == 0).all(axis=1))[0])
    return DiscreteMMSpace(
        np.full(len(steps), measure_per_point),
        coords=coords,
        metric_kind="euclidean",
        steps=steps,
        origin=origin,
        truncation_radius=truncation_radius,
        meta={"kind": "lattice", "dim": dim, "spacing": spacing},
    )


def _neighbor_entries(dim: int, side: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, j), i<j, one step apart in the row-major box of side^dim points; by i, then axis."""
    k = np.arange(side**dim, dtype=np.int64)
    strides = side ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    has_next = (k[:, None] // strides) % side < side - 1
    rows = np.broadcast_to(k[:, None], has_next.shape)[has_next]
    return rows, (k[:, None] + strides)[has_next]


def _band_entries(n: int, band: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, i + k) of points 0..n-1 with 1 <= k <= band; by k, then i."""
    i = np.arange(n, dtype=np.int64)
    cols = i + np.arange(1, band + 1, dtype=np.int64)[:, None]
    inside = cols < n
    return np.broadcast_to(i, cols.shape)[inside], cols[inside]


def lattice_nn(
    dim: int = 1,
    spacing: float = 1.0,
    density: float = 1.0,
    measure: str = "counting",
    truncation_radius: float = 100.0,
) -> BuiltInstance:
    """Nearest-neighbor lattice kernel j = density * 1_{|x-y| = spacing} on hZ^n."""
    per_point = 1.0 if measure == "counting" else spacing**dim
    space = _lattice_space(dim, truncation_radius, spacing, per_point)
    rows, cols = _neighbor_entries(dim, 2 * int(space.steps.max()) + 1)
    kernel = JumpKernel.from_entries(space, rows, cols, np.full(len(rows), float(density)))
    return BuiltInstance(space, kernel)


# -- Example family: stable-like kernels on kappa-sets ----------------------


def _gasket_graph(level: int) -> tuple[np.ndarray, set[tuple[int, int]]]:
    """Sierpinski-gasket graph in integer triangular-lattice coordinates."""
    verts = {(0, 0), (1, 0), (0, 1)}
    edges = {((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (0, 1))}
    for l in range(level):
        s = 2**l
        new_verts = set(verts)
        new_edges = set(edges)
        for da, db in ((s, 0), (0, s)):
            new_verts |= {(a + da, b + db) for a, b in verts}
            new_edges |= {((a1 + da, b1 + db), (a2 + da, b2 + db)) for (a1, b1), (a2, b2) in edges}
        verts, edges = new_verts, new_edges
    order = sorted(verts)
    idx = {v: k for k, v in enumerate(order)}
    coords = np.array([(a + b / 2.0, b * math.sqrt(3) / 2.0) for a, b in order])
    pair_idx = {(idx[u], idx[v]) for u, v in edges}
    return coords, pair_idx


def _pairwise_kernel(space: DiscreteMMSpace, value) -> JumpKernel:
    """Kernel j(x, y) = value(rows, d(rows, .)) on every pair, built one CSR chunk of rows at a time.

    JumpKernel clears the diagonal, so value need not zero it.
    """
    chunks = space.distances_chunked(np.arange(space.n_points), chunk=512)
    # the chunk list dies with the vstack call, before the kernel's own checks allocate
    return JumpKernel(space, sp.vstack([sp.csr_matrix(value(idx, d)) for idx, d in chunks], format="csr"))


def stable_like(
    case: str = "i",
    alpha: float = 1.0,
    beta: float = 1.0,
    tempering: float = 1.0,
    dim: int = 1,
    spacing: float = 1.0,
    support: str = "lattice",
    gasket_level: int = 5,
    truncation_radius: float = 100.0,
) -> BuiltInstance:
    """Layered (case i) or tempered (case ii) stable-like kernel on a kappa-set.

    Supports: hZ^n lattice (kappa = n) or the level-L Sierpinski-gasket
    graph (kappa = ln 3 / ln 2), both with Euclidean distance. Case (i):
    j = d^-(kappa+alpha) for d <= 1, d^-(kappa+beta) beyond; case (ii)
    replaces the long tail with exp(-c d) d^-(kappa+alpha).
    """
    if not 0 < alpha < 2:
        raise ValueError("alpha must lie in (0, 2)")
    if case == "i" and beta <= 0:
        raise ValueError("beta must be positive")
    if case == "ii" and tempering <= 0:
        raise ValueError("tempering constant must be positive")
    if support == "lattice":
        kappa = float(dim)
        space = _lattice_space(dim, truncation_radius, spacing, spacing**dim)
    elif support == "gasket":
        kappa = KAPPA_GASKET
        coords, _ = _gasket_graph(gasket_level)
        space = DiscreteMMSpace(
            np.ones(len(coords)),
            coords=coords,
            metric_kind="euclidean",
            origin=0,
            truncation_radius=float(2**gasket_level),
            meta={"kind": "gasket", "level": gasket_level},
        )
    else:
        raise ValueError(f"unknown support {support!r}")

    short_exp = kappa + alpha

    def f(d: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", over="ignore"):
            short = np.where((d > 0) & (d <= 1), d ** (-short_exp), 0.0)
            if case == "i":
                tail = np.where(d > 1, d ** (-(kappa + beta)), 0.0)
            elif case == "ii":
                tail = np.where(d > 1, np.exp(-tempering * d) * d ** (-short_exp), 0.0)
            else:
                raise ValueError(f"unknown case {case!r}")
        return short + tail

    kernel = _pairwise_kernel(space, lambda idx, d: f(d))
    space.meta.update({"family": "stable_like", "kappa": kappa, "case": case})
    return BuiltInstance(space, kernel)


# -- Example family: disconnected stack of lattice sheets --------------------


def stack_space(
    dim: int = 1,
    spacing: float = 0.5,
    layers: int = 2,
    alpha: float = 1.0,
    beta: float = 1.0,
    psi: Callable[[np.ndarray], np.ndarray] | float = 1.0,
    range_cutoff: Optional[float] = None,
    truncation_radius: float = 10.0,
) -> BuiltInstance:
    """Stack of lattice sheets R^n x {i}, d = |p(x)-p(y)| + |q(x)-q(y)|.

    The measure weights each cell by Psi(p) h^n and the kernel is the layered
    power law divided by Psi(p(x)) + Psi(p(y)). `range_cutoff` optionally
    removes jumps longer than c0 (the compact-range recurrence variant).
    Diagnostic flags for the Psi growth conditions are stored under
    space.meta["stack_flags"].
    """
    if layers < 2:
        raise ValueError("need at least two layers")
    psi_fn = (lambda p, c=float(psi): np.full(p.shape[0], c)) if np.isscalar(psi) else psi
    sheet_steps = _lattice_points(dim, truncation_radius, spacing)
    sheet_coords = sheet_steps * spacing
    psi_vals = np.asarray(psi_fn(sheet_coords), dtype=float)
    if np.any(psi_vals <= 0):
        raise ValueError("Psi must be strictly positive")
    half = layers // 2
    layer_ids = np.arange(layers) - half
    n_sheet = len(sheet_coords)
    coords = np.concatenate(
        [np.column_stack([sheet_coords, np.full(n_sheet, float(q))]) for q in layer_ids]
    )
    measure = np.tile(psi_vals * spacing**dim, layers)
    origin_sheet = int(np.flatnonzero((sheet_steps == 0).all(axis=1))[0])
    origin = int(np.flatnonzero(layer_ids == 0)[0]) * n_sheet + origin_sheet
    space = DiscreteMMSpace(
        measure,
        coords=coords,
        metric_kind="stack",
        origin=origin,
        truncation_radius=truncation_radius,
        meta={"kind": "stack", "dim": dim, "spacing": spacing, "layers": layers},
    )

    psi_all = np.tile(psi_vals, layers)

    def f_rows(idx: np.ndarray, d: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            num = np.where((d > 0) & (d < 1), d ** (-(dim + alpha)), 0.0)
            num += np.where(d >= 1, d ** (-(dim + beta + 1)), 0.0)
        if range_cutoff is not None:
            num = np.where(d <= range_cutoff, num, 0.0)
        return num / (psi_all[idx][:, None] + psi_all[None, :])

    kernel = _pairwise_kernel(space, f_rows)
    space.meta["stack_flags"] = _stack_flags(
        kernel, sheet_coords, psi_vals, spacing, dim, alpha, range_cutoff, truncation_radius
    )
    return BuiltInstance(space, kernel)


def _stack_flags(kernel, sheet_coords, psi_vals, spacing, dim, alpha, range_cutoff, radius):
    flags: dict = {}
    # compact-range domination j <= 1_{d <= c0} d^{-(1+alpha)}
    if range_cutoff is None:
        flags["compact_range"] = {"holds": False, "c0": None}
    else:
        d = kernel.pair_distances()
        vals = kernel.matrix.data
        with np.errstate(divide="ignore"):
            bound = d ** (-(1.0 + alpha))
        flags["compact_range"] = {
            "holds": bool(np.all(vals <= bound * (1 + 1e-9))),
            "c0": float(range_cutoff),
        }
    # Psi(x) <= c1 |x|^{1-n} for large |x|: compare outer fit against mid fit
    r = np.sqrt((sheet_coords**2).sum(axis=1))
    outer = r >= radius / 2
    mid = (r >= radius / 4) & (r < radius / 2)
    if outer.any() and mid.any():
        fit_outer = float(np.max(psi_vals[outer] * r[outer] ** (dim - 1)))
        fit_mid = float(np.max(psi_vals[mid] * r[mid] ** (dim - 1)))
        flags["psi_decay"] = {"holds": fit_outer <= fit_mid * 1.1, "c1": fit_outer}
    else:
        flags["psi_decay"] = {"holds": False, "c1": None}
    # layered volume bound S(r) <= r^{c r}
    grid = np.linspace(2.0, radius, 8)
    s_vals = []
    for rv in grid:
        top = int(math.ceil(rv))
        total = 0.0
        for k in range(top + 1):
            mask = r <= top - k
            total += float(np.sum(psi_vals[mask]) * spacing**dim)
        s_vals.append(total)
    s_vals = np.asarray(s_vals)
    with np.errstate(divide="ignore"):
        c_fit = np.where(s_vals > 0, np.log(np.maximum(s_vals, 1e-300)) / (grid * np.log(grid)), 0.0)
    half = len(grid) // 2
    stable = float(np.max(c_fit[half:])) <= max(float(np.max(c_fit[:half])), 0.0) * 1.25 + 0.1
    flags["volume_bound"] = {"holds": bool(stable), "c": float(np.max(c_fit))}
    return flags


# -- Example family: weighted line ------------------------------------------


def weighted_line(lam: float = 1.0, spacing: float = 0.1, truncation_radius: float = 20.0) -> BuiltInstance:
    """Weighted Euclidean line: m = h e^{2 lam |x|}, j = e^{-lam(|x|+|y|)} 1_{|x-y|<=1}."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if not 0 < spacing < 1:
        raise ValueError("spacing must lie in (0, 1)")
    steps = _lattice_points(1, truncation_radius, spacing)
    xs = steps[:, 0] * spacing
    measure = spacing * np.exp(2 * lam * np.abs(xs))
    origin = int(np.flatnonzero(steps[:, 0] == 0)[0])
    space = DiscreteMMSpace(
        measure,
        coords=xs[:, None],
        metric_kind="euclidean",
        steps=steps,
        origin=origin,
        truncation_radius=truncation_radius,
        meta={"kind": "weighted_line", "lam": lam, "spacing": spacing},
    )
    rows, cols = _band_entries(len(xs), int(math.floor(1.0 / spacing + 1e-9)))
    kernel = JumpKernel.from_entries(space, rows, cols, np.exp(-lam * (np.abs(xs[rows]) + np.abs(xs[cols]))))
    return BuiltInstance(space, kernel)


# -- Example family: model manifolds ----------------------------------------


def sphere_volume(n: int) -> float:
    """Riemannian volume of the unit n-sphere."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def sandwich_profile(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """Warping with radial density omega_n sigma^n(r) = max(r^r (1 + ln r), 1).

    The constant inside the defining comparison is chosen so the continuum
    volume is exactly r^r for r >= 1.
    """
    w = sphere_volume(n)

    def sigma(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        with np.errstate(invalid="ignore"):
            dens = np.where(r > 0, np.exp(r * np.log(np.maximum(r, 1e-300))) * (1 + np.log(np.maximum(r, 1e-300))), 0.0)
        return (np.maximum(dens, 1.0) / w) ** (1.0 / n)

    return sigma


def model_manifold(
    dim: int = 1,
    spacing: float = 0.05,
    profile: Callable[[np.ndarray], np.ndarray] | str = "sandwich",
    truncation_radius: float = 55.0,
    profile_constant: float = 1.0,
) -> BuiltInstance:
    """Radial discretization of a warped product (0, inf) x S^n.

    Angular variables are integrated out: point k sits at radius r = k h,
    carries mass omega_n sigma^n(r) h, a radial finite-difference local part,
    and the kernel j(x,y) = [1_{d<1} / (sigma(r_x) sigma(r_y))]^n. Exact for
    radial test functions; the grid starts at r = h so sigma(0) = 0 never
    enters.
    """
    if isinstance(profile, str):
        if profile == "sandwich":
            sigma = sandwich_profile(dim)
        elif profile == "constant":
            sigma = lambda r: np.full_like(np.asarray(r, dtype=float), profile_constant)
        elif profile == "linear":
            sigma = lambda r: profile_constant * np.asarray(r, dtype=float)
        else:
            raise ValueError(f"unknown profile {profile!r}")
    else:
        sigma = profile
    k_max = int(math.floor(truncation_radius / spacing + 1e-9))
    radii = spacing * np.arange(1, k_max + 1)
    sig = np.asarray(sigma(radii), dtype=float)
    if np.any(sig <= 0):
        raise ValueError("sigma must be positive on the radial grid")
    w = sphere_volume(dim)
    measure = w * sig**dim * spacing
    space = DiscreteMMSpace(
        measure,
        coords=radii[:, None],
        metric_kind="euclidean",
        steps=np.arange(1, k_max + 1)[:, None],
        origin=0,
        truncation_radius=truncation_radius,
        meta={"kind": "model_manifold", "dim": dim, "spacing": spacing},
    )
    # the largest k with k h < 1 (|r_x - r_y| < 1 strictly): k < fl(1/h) forces fl(k h) < 1
    rows, cols = _band_entries(k_max, int(math.ceil(1.0 / spacing)) - 1)
    sig_n = sig**dim
    kernel = JumpKernel.from_entries(space, rows, cols, 1.0 / (sig_n[rows] * sig_n[cols]))
    local = local_chain(np.arange(k_max), measure, spacing)
    return BuiltInstance(space, kernel, local)


# -- Example family: mixed physical + quantum Laplacian on a graph -----------


def mixed_graph(
    graph: GraphData,
    phi=1.0,
    subdivisions: int = 1,
    origin: int = 0,
    truncation_radius: float = float("inf"),
) -> BuiltInstance:
    """Graph with vertex jump kernel omega/(mu mu) plus edge-interior diffusion.

    Each edge is isometric to a unit interval carrying measure phi dx and is
    discretized by `subdivisions` interior points; the adapted distance and
    rho are interpolated linearly along edges. With subdivisions = 0 the
    result is the pure physical Laplacian (no local part).
    """
    if subdivisions < 0:
        raise ValueError("subdivisions must be >= 0")
    base = build_graph_space(graph, origin=origin, truncation_radius=truncation_radius)
    sigma = base.meta["sigma"]
    edges = graph.edges
    nv = graph.n_vertices
    k = int(subdivisions)
    h = 1.0 / (k + 1)

    if np.isscalar(phi):
        phi_e = np.full(len(edges), float(phi))
    else:
        phi_e = np.asarray(phi, dtype=float).reshape(-1)
        if len(phi_e) != len(edges):
            raise ValueError("phi must give one value per edge")
    if np.any(phi_e <= 0):
        raise ValueError("edge density phi must be positive")

    n_total = nv + k * len(edges)
    measure = np.empty(n_total)
    measure[:nv] = graph.vertex_measure
    d_rows, d_cols, d_len = [], [], []
    r_len = []
    local_edges = []
    interior = []
    for e, (u, v) in enumerate(edges):
        chain = [u] + [nv + e * k + t for t in range(k)] + [v]
        interior.extend(chain[1:-1])
        for t in range(k):
            measure[chain[1 + t]] = phi_e[e] * h
        for a, b in zip(chain[:-1], chain[1:]):
            d_rows.append(a)
            d_cols.append(b)
            d_len.append(sigma[e] * h)
            r_len.append(h)
            local_edges.append((a, b))
    # conductance per segment so the bilinear-form weight c (m_a + m_b)/2
    # comes out as phi/(2h): half the quantum Dirichlet integral, matching
    # the global 1/2 convention on the local part
    local_cond = [
        phi_e[s // (k + 1)] / (h * (measure[a] + measure[b]))
        for s, (a, b) in enumerate(local_edges)
    ]

    d_rows = np.array(d_rows, dtype=np.int64)
    d_cols = np.array(d_cols, dtype=np.int64)
    metric_graph = sp.csr_matrix((np.array(d_len), (d_rows, d_cols)), shape=(n_total, n_total))
    metric_graph = metric_graph + metric_graph.T
    rho_graph = sp.csr_matrix((np.array(r_len), (d_rows, d_cols)), shape=(n_total, n_total))
    rho_graph = rho_graph + rho_graph.T
    space = DiscreteMMSpace(
        measure,
        metric_kind="graph",
        metric_graph=metric_graph,
        rho_graph=rho_graph,
        origin=origin,
        truncation_radius=truncation_radius,
        meta={"kind": "mixed_graph", "n_vertices": nv, "subdivisions": k},
    )

    pos = graph.weights > 0
    i, j = edges[pos, 0], edges[pos, 1]
    jvals = graph.weights[pos] / (graph.vertex_measure[i] * graph.vertex_measure[j])
    kernel = JumpKernel.from_entries(space, i, j, jvals)

    local = None
    if k > 0:
        local = LocalPart(
            np.array(local_edges, dtype=np.int64),
            np.array(local_cond),
            h,
            np.array(sorted(set(interior)), dtype=np.int64),
        )
    return BuiltInstance(space, kernel, local)


def lattice2d_graph(extent: int) -> GraphData:
    """Z^2 box |k|_inf <= extent with unit edge weights and counting measure."""
    if extent < 0:
        raise ValueError("extent must be nonnegative")
    side = 2 * extent + 1
    edges = np.column_stack(_neighbor_entries(2, side))
    return GraphData(side**2, edges, np.ones(len(edges)), np.ones(side**2))


def mixed_graph_from_params(
    graph_kind: str = "lattice2d",
    extent: int = 20,
    subdivisions: int = 1,
    phi_kind: str = "constant",
    phi_constant: float = 1.0,
    phi_power: float = 2.0,
    edges=None,
    weights=None,
    vertex_measure=None,
    n_vertices: Optional[int] = None,
    truncation_radius: float = float("inf"),
) -> BuiltInstance:
    """JSON-facing wrapper assembling GraphData and per-edge phi values."""
    if graph_kind == "lattice2d":
        g = lattice2d_graph(int(extent))
        origin = (2 * extent + 1) * extent + extent  # row-major index of (0, 0)
        truncation_radius = float(extent)
    elif graph_kind == "explicit":
        if edges is None or n_vertices is None:
            raise ValueError("explicit graphs need n_vertices and edges")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        w = np.ones(len(edges)) if weights is None else np.asarray(weights, dtype=float)
        mu = np.ones(int(n_vertices)) if vertex_measure is None else np.asarray(vertex_measure, dtype=float)
        g = GraphData(int(n_vertices), edges, w, mu)
        origin = 0
    else:
        raise ValueError(f"unknown graph kind {graph_kind!r}")

    if phi_kind == "constant":
        phi = float(phi_constant)
    elif phi_kind == "shell_power":
        # phi(edge) = c * max(1, mean endpoint rho)^-p, the quadratic-shell regime
        base = build_graph_space(g, origin=origin)
        rho = base.rho_from(origin)
        mid = 0.5 * (rho[g.edges[:, 0]] + rho[g.edges[:, 1]])
        phi = phi_constant * np.maximum(1.0, mid) ** (-phi_power)
    else:
        raise ValueError(f"unknown phi kind {phi_kind!r}")
    return mixed_graph(g, phi=phi, subdivisions=subdivisions, origin=origin, truncation_radius=truncation_radius)


def explicit_kernel(
    n_points: int,
    entries,
    measure=None,
    coords=None,
    metric_kind: str = "euclidean",
    truncation_radius: float = float("inf"),
) -> BuiltInstance:
    """Space + kernel from explicit (i, j, value) entries; symmetry enforced."""
    n = int(n_points)
    m = np.ones(n) if measure is None else np.asarray(measure, dtype=float)
    c = np.arange(n, dtype=float)[:, None] if coords is None else np.asarray(coords, dtype=float)
    space = DiscreteMMSpace(
        m,
        coords=c,
        metric_kind=metric_kind,
        origin=0,
        truncation_radius=truncation_radius,
        meta={"kind": "explicit"},
    )
    entries = np.asarray(entries, dtype=float)
    if entries.size == 0:
        return BuiltInstance(space, JumpKernel(space, sp.csr_matrix((n, n))))
    kernel = JumpKernel.from_entries(
        space, entries[:, 0].astype(np.int64), entries[:, 1].astype(np.int64), entries[:, 2]
    )
    return BuiltInstance(space, kernel)
