"""Builders for the example space/kernel families.

Every builder returns a BuiltInstance (space, kernel, optional local part)
over a finite truncation whose radius is recorded on the space. Kernels
stated in the literature only up to two-sided comparison are implemented
with comparison constant 1 (the criteria evaluated downstream are invariant
under such constants).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

from .forms import JumpKernel, KernelOperator, LocalPart, StencilKernel, local_chain
from .space import DiscreteMMSpace, GraphData

KAPPA_GASKET = math.log(3) / math.log(2)


@dataclass
class BuiltInstance:
    """A constructed example: space, jump kernel, and optional local part."""

    space: DiscreteMMSpace
    kernel: KernelOperator
    local: Optional[LocalPart] = None


# -- lattice scaffolding ---------------------------------------------------


def _check_int(name: str, value, minimum: int = 1):
    """value as an int, or an array of them as int64; anything but integers >= minimum is rejected, naming the field.

    An integral float passes; a bool, a string, nan and inf do not.
    """
    a = np.asarray(value)
    ok = np.isfinite(a) & (a >= minimum) & (a == np.floor(a)) if a.dtype.kind in "iuf" else np.zeros(a.shape, bool)
    if not ok.all():
        what = "a positive integer" if minimum == 1 else f"an integer >= {minimum}"
        raise ValueError(f"{name} must be {what}, got {value if a.ndim == 0 else a[~ok][0].item()!r}")
    return int(a) if a.ndim == 0 else a.astype(np.int64)


def _check_addressable(count: float, spacing: float, truncation_radius: float) -> None:
    """Reject a grid of `count` points before it is built if an array of one float per point cannot be addressed."""
    if count * 8 > np.iinfo(np.intp).max:
        raise ValueError(f"spacing {spacing:g} on truncation radius {truncation_radius:g} gives {count:.3g} points: too many to address")


def _lattice_points(dim: int, truncation_radius: float, spacing: float) -> np.ndarray:
    dim = _check_int("dim", dim)
    if not spacing > 0:
        raise ValueError("spacing must be positive")
    extent = np.floor(truncation_radius / spacing + 1e-9)  # a float: inf where the ratio overflows
    if extent < 1:
        raise ValueError("truncation radius too small for the lattice spacing")
    with np.errstate(over="ignore"):
        _check_addressable((2 * extent + 1) ** dim, spacing, truncation_radius)
    axis = np.arange(-int(extent), int(extent) + 1)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def _lattice_space(dim, truncation_radius, spacing, measure_per_point) -> DiscreteMMSpace:
    steps = _lattice_points(dim, truncation_radius, spacing)
    coords = steps * spacing
    origin = int(np.flatnonzero((steps == 0).all(axis=1))[0])
    try:
        return DiscreteMMSpace(
            np.full(len(steps), measure_per_point),
            coords=coords,
            metric_kind="euclidean",
            steps=steps,
            origin=origin,
            truncation_radius=truncation_radius,
        )
    except ValueError as err:  # the spacing sets both coordinates and measure, so it is the field to name
        raise ValueError(f"lattice spacing h = {spacing:g}: {err}") from None


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
    dim, spacing = _check_int("dim", dim), float(spacing)
    if measure not in ("counting", "cell"):
        raise ValueError(f"unknown measure {measure!r} (use 'counting' or 'cell')")
    per_point = 1.0 if measure == "counting" else spacing**dim
    space = _lattice_space(dim, truncation_radius, spacing, per_point)
    rows, cols = _neighbor_entries(dim, 2 * int(space.steps.max()) + 1)
    kernel = JumpKernel.from_entries(space, rows, cols, np.full(len(rows), float(density)))
    return BuiltInstance(space, kernel)


# -- Example family: stable-like kernels on kappa-sets ----------------------


_GASKET_BASIS = np.array([[1.0, 0.0], [0.5, math.sqrt(3) / 2]])  # step (a, b) sits at a (1, 0) + b (1/2, sqrt(3)/2)


def _gasket_points(level: int) -> np.ndarray:
    """Steps (a, b) of the level-L Sierpinski-gasket graph's vertices on the triangular lattice, sorted."""
    side = 2**level + 1
    flat = np.array([0, 1, side])  # (0, 0), (0, 1) and (1, 0), as a side + b
    for l in range(level):  # three copies of level l, shifted by 2^l along each lattice axis
        flat = np.unique(np.concatenate([flat, flat + 2**l * side, flat + 2**l]))
    return np.stack(np.divmod(flat, side), axis=1)


def _pairwise_kernel(space: DiscreteMMSpace, value) -> JumpKernel:
    """Kernel j(x, y) = value(rows, d(rows, .)) on every pair, gathered from dense rows of distances."""
    return JumpKernel.from_dense_rows(space, lambda idx: value(idx, space.distance_rows(idx)))


def stable_like(
    case: str = "i",
    alpha: float = 1.0,
    beta: float = 1.0,
    tempering: float = 1.0,
    dim: int = 1,
    spacing: float = 1.0,
    support: str = "lattice",
    gasket_level: int = 5,
    truncation_radius: Optional[float] = None,
) -> BuiltInstance:
    """Layered (case i) or tempered (case ii) stable-like kernel on a kappa-set.

    Supports: hZ^n lattice (kappa = n) or the level-L Sierpinski-gasket
    graph (kappa = ln 3 / ln 2) on the unit triangular lattice, both with
    Euclidean distance. Case (i):
    j = d^-(kappa+alpha) for d <= 1, d^-(kappa+beta) beyond; case (ii)
    replaces the long tail with exp(-c d) d^-(kappa+alpha). The lattice's
    truncation radius defaults to 100; the gasket's is 2^L, and it takes
    no dim, spacing or truncation radius but its own. A level whose offset
    box of (2^(L+1) + 1)^2 floats exceeds np.iinfo(np.intp).max bytes (L > 28
    on a 64-bit build) cannot be addressed and is rejected unbuilt.
    """
    dim, spacing, gasket_level = _check_int("dim", dim), float(spacing), _check_int("gasket_level", gasket_level, 0)
    if not 0 < alpha < 2:
        raise ValueError("alpha must lie in (0, 2)")
    if case == "i" and not beta > 0:
        raise ValueError("beta must be positive")
    if case == "ii" and not tempering > 0:
        raise ValueError("tempering constant must be positive")
    if support not in ("lattice", "gasket"):
        raise ValueError(f"unknown support {support!r}")
    kappa = float(dim) if support == "lattice" else KAPPA_GASKET
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

    if support == "gasket":
        if (2 ** min(gasket_level + 1, 64) + 1) ** 2 * 8 > np.iinfo(np.intp).max:  # capped: 2^64 floats never fit
            raise ValueError(f"gasket_level {gasket_level} is too deep: its offset box of (2^(L+1) + 1)^2 floats cannot be addressed")
        reach = float(2**gasket_level)
        for name, value, own in (("dim", dim, 1), ("spacing", spacing, 1.0), ("truncation_radius", truncation_radius, reach)):
            if value not in (None, own):
                raise ValueError(f"{name} {value:g} differs from the level-{gasket_level} gasket's {own:g}")
        steps = _gasket_points(gasket_level)  # on the unit triangular lattice: no two points are nearer than 1
        space = DiscreteMMSpace(
            np.ones(len(steps)),
            coords=np.dot(steps, _GASKET_BASIS),
            steps=steps,
            truncation_radius=reach,
        )
    else:
        radius = 100.0 if truncation_radius is None else truncation_radius
        space = _lattice_space(dim, radius, spacing, spacing**dim)
    # f is non-increasing and h is the shortest distance between points: where f(h) underflows every entry
    # is 0, and where it overflows the kernel is infinite between neighbours
    nearest = float(f(np.array(spacing)))
    if nearest == 0.0:
        return BuiltInstance(space, JumpKernel(space, sp.csr_matrix((space.n_points,) * 2)))
    if not math.isfinite(nearest):
        raise ValueError(f"the kernel overflows at d = h = {spacing:g}, the lattice spacing")
    return BuiltInstance(space, StencilKernel(space, f))


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
    power law divided by Psi(p(x)) + Psi(p(y)), with alpha in (0, 2) and
    beta > 0. `range_cutoff` > 0 optionally removes jumps longer than c0 (the
    compact-range recurrence variant).
    """
    dim, layers = _check_int("dim", dim), _check_int("layers", layers, 2)
    if not 0 < alpha < 2:
        raise ValueError("alpha must lie in (0, 2)")
    if not beta > 0:
        raise ValueError("beta must be positive")
    if range_cutoff is not None and not range_cutoff > 0:
        raise ValueError("range_cutoff must be positive")
    psi_fn = (lambda p, c=float(psi): np.full(p.shape[0], c)) if np.isscalar(psi) else psi
    sheet_steps = _lattice_points(dim, truncation_radius, spacing)
    sheet_coords = sheet_steps * spacing
    psi_vals = np.asarray(psi_fn(sheet_coords), dtype=float)
    if not np.all(psi_vals > 0):
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
    )

    psi_all = np.tile(psi_vals, layers)

    def f_rows(idx: np.ndarray, d: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            num = np.where((d > 0) & (d < 1), d ** (-(dim + alpha)), 0.0)
            num += np.where(d >= 1, d ** (-(dim + beta + 1)), 0.0)
        if range_cutoff is not None:
            num = np.where(d <= range_cutoff, num, 0.0)
        return num / (psi_all[idx][:, None] + psi_all[None, :])

    return BuiltInstance(space, _pairwise_kernel(space, f_rows))


# -- Example family: weighted line ------------------------------------------


def weighted_line(lam: float = 1.0, spacing: float = 0.1, truncation_radius: float = 20.0) -> BuiltInstance:
    """Weighted Euclidean line: m = h e^{2 lam |x|}, j = e^{-lam(|x|+|y|)} 1_{|x-y|<=1}."""
    if not lam > 0:
        raise ValueError("lambda must be positive")
    if not 0 < spacing < 1:
        raise ValueError("spacing must lie in (0, 1)")
    steps = _lattice_points(1, truncation_radius, spacing)
    xs = steps[:, 0] * spacing
    exponent, cap = 2 * lam * np.abs(xs), math.log(np.finfo(float).max)
    if exponent.max() > cap:
        raise ValueError(
            f"lam {lam:g} overflows the measure h e^(2 lam |x|) on truncation radius {truncation_radius:g}: "
            f"it is finite only while 2 lam |x| <= {cap:.1f}"
        )
    measure = spacing * np.exp(exponent)
    origin = int(np.flatnonzero(steps[:, 0] == 0)[0])
    space = DiscreteMMSpace(
        measure,
        coords=xs[:, None],
        metric_kind="euclidean",
        steps=steps,
        origin=origin,
        truncation_radius=truncation_radius,
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
    dim = _check_int("dim", dim)
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
    if not spacing > 0:
        raise ValueError("spacing must be positive")
    k_max = np.floor(truncation_radius / spacing + 1e-9)
    _check_addressable(k_max, spacing, truncation_radius)
    k_max = int(k_max)
    radii = spacing * np.arange(1, k_max + 1)
    with np.errstate(over="ignore"):
        sig = np.asarray(sigma(radii), dtype=float)
    if np.isinf(sig).any():
        raise ValueError(
            f"profile {profile!r} overflows on truncation radius {truncation_radius:g}: "
            f"sigma is infinite from r = {radii[np.isinf(sig)][0]:g}"
        )
    if not np.all(sig > 0):
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
    )
    # the largest k with k h < 1 (|r_x - r_y| < 1 strictly): k < fl(1/h) forces fl(k h) < 1
    rows, cols = _band_entries(k_max, int(math.ceil(1.0 / spacing)) - 1)
    sig_n = sig**dim
    kernel = JumpKernel.from_entries(space, rows, cols, 1.0 / (sig_n[rows] * sig_n[cols]))
    local = local_chain(np.arange(k_max), spacing)
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
    discretized by `subdivisions` interior points; the adapted distance is
    interpolated linearly along edges. With subdivisions = 0 the result is
    the pure physical Laplacian (no local part).
    """
    k = _check_int("subdivisions", subdivisions, 0)
    sigma = graph.adapted_lengths()
    edges = graph.edges
    nv = graph.n_vertices
    h = 1.0 / (k + 1)

    n_e = len(edges)
    n_total = nv + k * n_e
    # edge e is the chain u, nv + e k, ..., nv + e k + k - 1, v of k + 1 segments
    chains = np.empty((n_e, k + 2), dtype=np.int64)
    chains[:, 0], chains[:, -1] = edges[:, 0], edges[:, 1]
    chains[:, 1:-1] = nv + k * np.arange(n_e)[:, None] + np.arange(k)
    d_rows, d_cols = chains[:, :-1].reshape(-1), chains[:, 1:].reshape(-1)
    d_len = np.repeat(sigma * h, k + 1)
    metric_graph = sp.csr_matrix((d_len, (d_rows, d_cols)), shape=(n_total, n_total))
    metric_graph = metric_graph + metric_graph.T
    if connected_components(metric_graph, directed=False)[0] > 1:
        raise ValueError("graph is disconnected: some points are unreachable from the origin")
    if np.isscalar(phi):
        phi_e = np.full(n_e, float(phi))
    else:
        phi_e = np.asarray(phi, dtype=float).reshape(-1)
        if len(phi_e) != n_e:
            raise ValueError("phi must give one value per edge")
    if not np.all(phi_e > 0):
        raise ValueError("edge density phi must be positive")
    measure = np.empty(n_total)
    measure[:nv] = graph.vertex_measure
    measure[nv:] = np.repeat(phi_e * h, k)
    # conductance per segment so the bilinear-form weight c (m_a + m_b)/2
    # comes out as phi/(2h): half the quantum Dirichlet integral, matching
    # the global 1/2 convention on the local part
    local_cond = np.repeat(phi_e, k + 1) / (h * (measure[d_rows] + measure[d_cols]))
    space = DiscreteMMSpace(
        measure,
        metric_kind="graph",
        metric_graph=metric_graph,
        origin=origin,
        truncation_radius=truncation_radius,
    )

    pos = graph.weights > 0
    i, j = edges[pos, 0], edges[pos, 1]
    jvals = graph.weights[pos] / (graph.vertex_measure[i] * graph.vertex_measure[j])
    kernel = JumpKernel.from_entries(space, i, j, jvals)

    local = None
    if k > 0:
        local = LocalPart(np.column_stack([d_rows, d_cols]), local_cond, np.arange(nv, n_total, dtype=np.int64))
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
        extent = _check_int("extent", extent, 0)
        g = lattice2d_graph(extent)
        origin = (2 * extent + 1) * extent + extent  # row-major index of (0, 0)
        if math.isfinite(truncation_radius) and truncation_radius != extent:
            raise ValueError(f"truncation_radius {truncation_radius:g} differs from the lattice2d extent {extent}")
        truncation_radius = float(extent)
    elif graph_kind == "explicit":
        if edges is None or n_vertices is None:
            raise ValueError("explicit graphs need n_vertices and edges")
        n_vertices = _check_int("n_vertices", n_vertices, 0)
        edges = np.reshape(_check_int("each point id of edges", edges, 0), (-1, 2))
        w = np.ones(len(edges)) if weights is None else np.asarray(weights, dtype=float)
        mu = np.ones(n_vertices) if vertex_measure is None else np.asarray(vertex_measure, dtype=float)
        g = GraphData(n_vertices, edges, w, mu)
        origin = 0
    else:
        raise ValueError(f"unknown graph kind {graph_kind!r}")

    if phi_kind == "constant":
        phi = float(phi_constant)
    elif phi_kind == "shell_power":
        # phi(edge) = c * max(1, mean hop count of its ends from the origin)^-p, the quadratic-shell regime
        i, j = g.edges.T
        adjacency = sp.csr_matrix((np.ones(len(i)), (i, j)), shape=(g.n_vertices,) * 2)
        hops = dijkstra(adjacency, directed=False, indices=origin)
        phi = phi_constant * np.maximum(1.0, 0.5 * (hops[i] + hops[j])) ** (-phi_power)
    else:
        raise ValueError(f"unknown phi kind {phi_kind!r}")
    return mixed_graph(g, phi=phi, subdivisions=subdivisions, origin=origin, truncation_radius=truncation_radius)


def explicit_kernel(
    n_points: int,
    entries=(),
    measure=None,
    coords=None,
    metric_kind: str = "euclidean",
    truncation_radius: float = float("inf"),
) -> BuiltInstance:
    """Space + kernel from (i, j, value) entries, each unordered pair once or repeated with an equal value."""
    n = _check_int("n_points", n_points, 0)
    m = np.ones(n) if measure is None else np.asarray(measure, dtype=float)
    c = np.arange(n, dtype=float)[:, None] if coords is None else np.asarray(coords, dtype=float)
    space = DiscreteMMSpace(
        m,
        coords=c,
        metric_kind=metric_kind,
        origin=0,
        truncation_radius=truncation_radius,
    )
    entries = np.asarray(entries, dtype=float)
    if entries.size and entries.shape[1:] != (3,):
        raise ValueError("kernel entries must be [i, j, value] triples")
    rows, cols, vals = entries.reshape(-1, 3).T
    kernel = JumpKernel.from_entries(space, *_check_int("each point id of entries", [rows, cols], 0), vals)
    return BuiltInstance(space, kernel)
