"""Builders for the example space/kernel families.

Every builder returns a BuiltInstance (kernel, optional local part) over a
finite truncation whose radius is recorded on the kernel's space, which
the local part shares. Kernels stated in the literature only up to
two-sided comparison are implemented with comparison constant 1 (the
criteria evaluated downstream are invariant under such constants).
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

from .forms import BuiltInstance, JumpKernel, LocalPart, StencilKernel, _check_size, local_chain
from .space import DiscreteMMSpace, GraphData

KAPPA_GASKET = math.log(3) / math.log(2)


# -- field table and size gate ------------------------------------------------


def _positive(x: float) -> bool:
    return x > 0


# The domain of each builder field by parameter name: an int k is an integer in [k, 2^63), names are the choices,
# and (domain, message) is a real number. Values reached only through arithmetic (phi, sigma, Psi, the measure, the
# kernel) are checked where computed. lattice_nn's measure names are not here: explicit_kernel's measure shares it.
_FIELDS = {
    "dim": 1,
    "layers": 2,
    **dict.fromkeys(["gasket_level", "extent", "subdivisions", "n_vertices", "n_points"], 0),
    "case": ("i", "ii"),
    "support": ("lattice", "gasket"),
    "profile": ("sandwich", "constant", "linear"),
    "graph_kind": ("lattice2d", "explicit"),
    "phi_kind": ("constant", "shell_power"),
    "spacing": (_positive, "spacing must be positive"),
    "truncation_radius": (_positive, "truncation_radius must be positive"),
    "alpha": (lambda x: 0 < x < 2, "alpha must lie in (0, 2)"),
    "beta": (_positive, "beta must be positive"),
    "tempering": (_positive, "tempering constant must be positive"),
    "lam": (_positive, "lambda must be positive"),
    "range_cutoff": (_positive, "range_cutoff must be positive"),
    "phi_constant": (_positive, "edge density phi must be positive"),
    **dict.fromkeys(["density", "phi_power", "profile_constant", "psi"], (lambda x: True, "")),
}
_ABSENT_OK, _CALLABLE_OK = ("truncation_radius", "range_cutoff"), ("psi", "profile")


def _check_field(name: str, value):
    """value by the rule of _FIELDS[name], as an int or float where a number (a bool or a string is not)."""
    rule = _FIELDS[name]
    if value is None and name in _ABSENT_OK or callable(value) and name in _CALLABLE_OK:
        return value
    if isinstance(rule, tuple) and isinstance(rule[0], str):
        if isinstance(value, str) and value in rule:
            return value
        raise ValueError(f"unknown {name.replace('_', ' ')} {value!r}")
    value = value.item() if isinstance(value, (np.generic, np.ndarray)) and np.ndim(value) == 0 else value
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if isinstance(rule, int):
        whole = real and (isinstance(value, int) or float(value).is_integer())
        if whole and rule <= value < 2**63:
            return int(value)
        what = "a positive integer" if rule == 1 else f"an integer >= {rule}"
        raise ValueError(f"{name} must be {what}{' below 2^63' if whole and value >= 2**63 else ''}, got {value!r}")
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int that no float holds
        x = math.inf if value > 0 else -math.inf
    if not (real and rule[0](x)):
        raise ValueError(rule[1] or f"{name} must be a real number, got {value!r}")
    return x


def _checked(builder):
    """The builder, with each argument it is given that _FIELDS names replaced by its checked value before it runs."""
    sig = inspect.signature(builder)

    @functools.wraps(builder)
    def checked(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        for name, value in bound.arguments.items():
            if name in _FIELDS:
                bound.arguments[name] = _check_field(name, value)
        return builder(*bound.args, **bound.kwargs)

    return checked


def _power(base: float, exponent: int) -> float:
    """base ** exponent as a float, inf where it overflows (a count that no float holds is over any budget)."""
    with np.errstate(over="ignore"):
        return float(np.float64(base) ** exponent)


# -- lattice scaffolding ---------------------------------------------------


def _grid_size(spacing: float, truncation_radius: float, dim: int = 1) -> tuple[float, float, str]:
    """floor(R / h) and the box's (2 floor(R / h) + 1)^dim points as floats (inf past any float), and a phrase naming them."""
    extent = float(np.floor(truncation_radius / spacing + 1e-9))
    if not extent >= 1:
        raise ValueError("truncation radius too small for the lattice spacing")
    n = _power(2 * extent + 1, dim)
    fields = f"spacing {spacing:g} on truncation radius {truncation_radius:g} gives {n:.3g} points"
    return extent, n, fields + (f" in dim {dim}" if dim > 1 else "")


def _lattice_points(dim: int, truncation_radius: float, spacing: float) -> np.ndarray:
    extent = int(np.floor(truncation_radius / spacing + 1e-9))
    axis = np.arange(-extent, extent + 1)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def _lattice_space(dim, truncation_radius, spacing, measure) -> DiscreteMMSpace:
    """The lattice box of hZ^dim within the truncation, each point of `measure` (one value, or one per point)."""
    steps = _lattice_points(dim, truncation_radius, spacing)
    origin = int(np.flatnonzero((steps == 0).all(axis=1))[0])
    try:
        measure = np.full(len(steps), measure)
        return DiscreteMMSpace(measure, coords=steps * spacing, steps=steps, origin=origin, truncation_radius=truncation_radius)
    except ValueError as err:  # the spacing sets both coordinates and measure, so it is the field to name
        raise ValueError(f"lattice spacing h = {spacing:g}: {err}") from None


def _neighbors(steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour ids of each point of the row-major box of lattice `steps`, and which of them lie inside it.

    Row x holds x + o for the 2 dim offsets o = -s_0 < ... < -s_{dim-1} < s_{dim-1} < ... < s_0, where s_a is the
    stride of axis a, so the ids inside the box are a CSR row's sorted column indices.
    """
    n, dim = steps.shape
    extent = int(steps.max())
    strides = (2 * extent + 1) ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    ids = np.arange(n, dtype=np.int64)[:, None] + np.concatenate([-strides, strides[::-1]])
    return ids, np.concatenate([steps > -extent, steps[:, ::-1] < extent], axis=1)


def _band_entries(n: int, band: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, i + k) of points 0..n-1 with 1 <= k <= band; by k, then i."""
    i = np.arange(n, dtype=np.int64)
    cols = i + np.arange(1, band + 1, dtype=np.int64)[:, None]
    inside = cols < n
    return np.broadcast_to(i, cols.shape)[inside], cols[inside]


@_checked
def lattice_nn(
    dim: int = 1,
    spacing: float = 1.0,
    density: float = 1.0,
    measure: str = "counting",
    truncation_radius: float = 100.0,
) -> BuiltInstance:
    """Nearest-neighbor lattice kernel j = density * 1_{|x-y| = spacing} on hZ^n."""
    if not (isinstance(measure, str) and measure in ("counting", "cell")):
        raise ValueError(f"unknown measure {measure!r} (use 'counting' or 'cell')")
    _, n, grid = _grid_size(spacing, truncation_radius, dim)
    _check_size(f"{grid}, and {2 * dim * n:.3g} kernel entries", n * (1 + 2 * dim))
    per_point = 1.0 if measure == "counting" else _power(spacing, dim)
    space = _lattice_space(dim, truncation_radius, spacing, per_point)
    ids, inside = _neighbors(space.steps)
    indptr, indices = np.concatenate([[0], np.cumsum(np.count_nonzero(inside, axis=1))]), ids[inside]
    return BuiltInstance(JumpKernel(space, sp.csr_matrix((np.full(len(indices), float(density)), indices, indptr))))


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


@_checked
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
    no dim, spacing or truncation radius but its own. The size gate counts
    the points and the stencil's offset box of (2 side - 1)^dim entries.
    """
    kappa = float(dim) if support == "lattice" else KAPPA_GASKET
    short_exp = kappa + alpha

    def f(d: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # an infinite tempering times d = 0
            short = np.where((d > 0) & (d <= 1), d ** (-short_exp), 0.0)
            if case == "i":
                tail = np.where(d > 1, d ** (-(kappa + beta)), 0.0)
            else:
                tail = np.where(d > 1, np.exp(-tempering * d) * d ** (-short_exp), 0.0)
        return short + tail

    if support == "gasket":
        points, offsets = (_power(3, gasket_level + 1) + 3) / 2, _power(_power(2, gasket_level + 1) + 1, 2)
        fields = f"gasket_level {gasket_level} is too deep: {points:.3g} points and {offsets:.3g} stencil offsets"
        _check_size(fields, points + offsets)
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
        extent, n, grid = _grid_size(spacing, radius, dim)
        offsets = _power(4 * extent + 1, dim)  # 2 side - 1 per axis
        _check_size(f"{grid}, and {offsets:.3g} stencil offsets", n + offsets)
        space = _lattice_space(dim, radius, spacing, _power(spacing, dim))
    # f is non-increasing and h is the shortest distance between points: where f(h) underflows every entry
    # is 0, and where it overflows the kernel is infinite between neighbours
    nearest = float(f(np.array(spacing)))
    if nearest == 0.0:
        return BuiltInstance(JumpKernel(space, sp.csr_matrix((space.n_points,) * 2)))
    if not math.isfinite(nearest):
        raise ValueError(f"the kernel overflows at d = h = {spacing:g}, the lattice spacing")
    return BuiltInstance(StencilKernel(space, f))


# -- Example family: disconnected stack of lattice sheets --------------------


@_checked
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
    _, n_sheet, grid = _grid_size(spacing, truncation_radius, dim)
    n = n_sheet * layers
    _check_size(f"{grid} per sheet, {n:.3g} on layers {layers}, and {n * n:.3g} pair entries", n + n * n)
    sheet_steps = _lattice_points(dim, truncation_radius, spacing)
    sheet_coords, n_sheet = sheet_steps * spacing, len(sheet_steps)
    psi_vals = np.asarray(psi(sheet_coords) if callable(psi) else np.full(n_sheet, psi), dtype=float)
    if not np.all(psi_vals > 0):
        raise ValueError("Psi must be strictly positive")
    layer_ids = np.arange(layers) - layers // 2
    coords = np.concatenate(
        [np.column_stack([sheet_coords, np.full(n_sheet, float(q))]) for q in layer_ids]
    )
    with np.errstate(over="ignore"):  # the space names an infinite measure
        measure = np.tile(psi_vals * _power(spacing, dim), layers)
    origin = int(np.flatnonzero(layer_ids == 0)[0]) * n_sheet + int(np.flatnonzero((sheet_steps == 0).all(axis=1))[0])
    try:
        space = DiscreteMMSpace(measure, coords=coords, metric_kind="stack", origin=origin, truncation_radius=truncation_radius)
    except ValueError as err:  # the spacing sets the coordinates, and with Psi the measure
        raise ValueError(f"spacing h = {spacing:g} and Psi: {err}") from None
    psi_all = np.tile(psi_vals, layers)

    def f_rows(idx: np.ndarray, d: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", over="ignore"):  # the kernel names an infinite entry
            num = np.where((d > 0) & (d < 1), d ** (-(dim + alpha)), 0.0)
            num += np.where(d >= 1, d ** (-(dim + beta + 1)), 0.0)
            if range_cutoff is not None:
                num = np.where(d <= range_cutoff, num, 0.0)
            return num / (psi_all[idx][:, None] + psi_all[None, :])

    return BuiltInstance(_pairwise_kernel(space, f_rows))


# -- Example family: weighted line ------------------------------------------


@_checked
def weighted_line(lam: float = 1.0, spacing: float = 0.1, truncation_radius: float = 20.0) -> BuiltInstance:
    """Weighted Euclidean line: m = h e^{2 lam |x|}, j = e^{-lam(|x|+|y|)} 1_{|x-y|<=1}."""
    if not spacing < 1:
        raise ValueError("spacing must lie in (0, 1)")
    _, n, grid = _grid_size(spacing, truncation_radius)
    band = float(np.floor(1.0 / spacing + 1e-9))  # inf where 1 / h overflows
    _check_size(f"{grid}, and {2 * n * band:.3g} band entries", n * (1 + 2 * band))
    xs = _lattice_points(1, truncation_radius, spacing)[:, 0] * spacing
    cap = math.log(np.finfo(float).max)
    if not 2 * lam * xs.max() <= cap:  # at the largest |x|, never 0: an infinite lam times 0 is nan
        raise ValueError(
            f"lam {lam:g} overflows the measure h e^(2 lam |x|) on truncation radius {truncation_radius:g}: "
            f"it is finite only while 2 lam |x| <= {cap:.1f}"
        )
    space = _lattice_space(1, truncation_radius, spacing, spacing * np.exp(2 * lam * np.abs(xs)))
    rows, cols = _band_entries(len(xs), int(band))
    kernel = JumpKernel.from_entries(space, rows, cols, np.exp(-lam * (np.abs(xs[rows]) + np.abs(xs[cols]))))
    return BuiltInstance(kernel)


# -- Example family: model manifolds ----------------------------------------


def sphere_volume(n: int) -> float:
    """Riemannian volume of the unit n-sphere (0 where Gamma((n + 1) / 2) overflows: it is below the smallest float)."""
    try:
        return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)
    except OverflowError:
        return 0.0


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


@_checked
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
    sigma = profile if callable(profile) else {
        "sandwich": sandwich_profile(dim),
        "constant": lambda r: np.full_like(np.asarray(r, dtype=float), profile_constant),
        "linear": lambda r: profile_constant * np.asarray(r, dtype=float),
    }[profile]
    k_max = _grid_size(spacing, truncation_radius)[0]  # the radii k h, 1 <= k <= k_max
    band = float(np.ceil(1.0 / spacing)) - 1  # the largest k with k h < 1 (|r_x - r_y| < 1 strictly): k < fl(1/h) forces fl(k h) < 1
    fields = f"spacing {spacing:g} on truncation radius {truncation_radius:g} gives {k_max:.3g} points"
    _check_size(f"{fields}, and {2 * k_max * band:.3g} band entries", k_max * (1 + 2 * band))
    k_max, w = int(k_max), sphere_volume(dim)
    if not w > 0:
        raise ValueError(f"dim {dim} is too large: the volume of the unit {dim}-sphere underflows")
    radii = spacing * np.arange(1, k_max + 1)
    rows, cols = _band_entries(k_max, int(band))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # each overflow is named below
        sig = np.asarray(sigma(radii), dtype=float)
        sig_n = sig**dim
        measure = w * sig_n * spacing
        values = 1.0 / (sig_n[rows] * sig_n[cols])  # a product past the largest float is a kernel entry of 0
    if np.isinf(sig).any():
        raise ValueError(
            f"profile {profile!r} overflows on truncation radius {truncation_radius:g}: "
            f"sigma is infinite from r = {radii[np.isinf(sig)][0]:g}"
        )
    if not np.all(sig > 0):
        raise ValueError("sigma must be positive on the radial grid")
    if not np.all((measure > 0) & (measure < np.inf)) or np.isinf(values).any():
        raise ValueError(f"profile {profile!r} in dim {dim} at spacing {spacing:g} leaves the float range in its measure or kernel")
    space = DiscreteMMSpace(
        measure,
        coords=radii[:, None],
        metric_kind="euclidean",
        steps=np.arange(1, k_max + 1)[:, None],
        origin=0,
        truncation_radius=truncation_radius,
    )
    kernel = JumpKernel.from_entries(space, rows, cols, values)
    local = local_chain(space, np.arange(k_max), spacing)
    return BuiltInstance(kernel, local)


# -- Example family: mixed physical + quantum Laplacian on a graph -----------


@_checked
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
    k, edges, nv = subdivisions, graph.edges, graph.n_vertices
    n_e = len(edges)
    n_total = nv + k * n_e
    entries = 2 * (k + 2) * n_e  # the metric graph's 2 (k + 1) per edge and the kernel's 2
    _check_size(f"subdivisions {k} on {n_e} edges give {n_total:.3g} points and {entries:.3g} entries", n_total + entries)
    sigma = graph.adapted_lengths()
    h = 1.0 / (k + 1)

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
    if np.isinf(phi_e).any():
        raise ValueError("edge density phi must be finite")
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

    if k == 0:
        return BuiltInstance(kernel)
    return BuiltInstance(kernel, LocalPart(space, np.column_stack([d_rows, d_cols]), local_cond, np.arange(nv, n_total)))


@_checked
def lattice2d_graph(extent: int) -> GraphData:
    """Z^2 box |k|_inf <= extent with unit edge weights and counting measure."""
    side = 2 * extent + 1
    n_edges = 2 * side * (side - 1)
    _check_size(f"extent {extent} gives {side**2:.3g} vertices and {n_edges:.3g} edges", side**2 + n_edges)
    ids, inside = _neighbors(_lattice_points(2, extent, 1.0))
    points, axes = np.nonzero(inside[:, :1:-1])  # the +s_0 and +s_1 neighbours inside the box, by point, then axis
    edges = np.column_stack([points, ids[:, :1:-1][points, axes]])
    return GraphData(side**2, edges, np.ones(len(edges)), np.ones(side**2))


@_checked
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
        g = lattice2d_graph(extent)
        origin = (2 * extent + 1) * extent + extent  # row-major index of (0, 0)
        if math.isfinite(truncation_radius) and truncation_radius != extent:
            raise ValueError(f"truncation_radius {truncation_radius:g} differs from the lattice2d extent {extent}")
        truncation_radius = float(extent)
    elif graph_kind == "explicit":
        if edges is None or n_vertices is None:
            raise ValueError("explicit graphs need n_vertices and edges")
        n_edges = np.size(edges) // 2  # GraphData checks the ids and reads them as pairs
        _check_size(f"n_vertices {n_vertices} gives {n_vertices:.3g} vertices", n_vertices + n_edges)
        w = np.ones(n_edges) if weights is None else np.asarray(weights, dtype=float)
        mu = np.ones(n_vertices) if vertex_measure is None else np.asarray(vertex_measure, dtype=float)
        g = GraphData(n_vertices, edges, w, mu)
        origin = 0

    if phi_kind == "constant":
        phi = phi_constant
    elif phi_kind == "shell_power":
        # phi(edge) = c * max(1, mean hop count of its ends from the origin)^-p, the quadratic-shell regime
        i, j = g.edges.T
        adjacency = sp.csr_matrix((np.ones(len(i)), (i, j)), shape=(g.n_vertices,) * 2)
        hops = dijkstra(adjacency, directed=False, indices=origin)
        with np.errstate(over="ignore", invalid="ignore"):  # mixed_graph names an infinite or nan phi
            phi = phi_constant * np.maximum(1.0, 0.5 * (hops[i] + hops[j])) ** (-phi_power)
    return mixed_graph(g, phi=phi, subdivisions=subdivisions, origin=origin, truncation_radius=truncation_radius)


@_checked
def explicit_kernel(
    n_points: Optional[int] = None,
    entries=(),
    measure=None,
    coords=None,
    metric_kind: str = "euclidean",
    truncation_radius: float = float("inf"),
    dim: int = 1,
    spacing: float = 1.0,
) -> BuiltInstance:
    """Space + kernel from (i, j, value) entries, each unordered pair once or repeated with an equal value.

    Without n_points, the points are those of the lattice box of dim, spacing
    and the truncation radius, which set nothing else.
    """
    if n_points is None:
        n, fields = _grid_size(spacing, truncation_radius, dim)[1:]
    else:
        n, fields = n_points, f"n_points {n_points} gives {n_points:.3g} points"
    if n == 0:
        raise ValueError("n_points 0: a space needs at least one point")
    _check_size(fields, n)
    n = int(n)
    m = np.ones(n) if measure is None else np.asarray(measure, dtype=float)
    c = np.arange(n, dtype=float)[:, None] if coords is None else np.asarray(coords, dtype=float)
    space = DiscreteMMSpace(
        m,
        coords=c,
        metric_kind=metric_kind,
        origin=0,
        truncation_radius=truncation_radius,
    )
    entries = entries if isinstance(entries, np.ndarray) else np.array(entries, dtype=object)  # ids judged as given
    if entries.size and entries.shape[1:] != (3,):
        raise ValueError("kernel entries must be [i, j, value] triples")
    entries = entries.reshape(-1, 3)
    rows, cols = space.point_ids("each point id of entries", entries[:, :2].T)
    kernel = JumpKernel.from_entries(space, rows, cols, entries[:, 2].astype(float))
    return BuiltInstance(kernel)
