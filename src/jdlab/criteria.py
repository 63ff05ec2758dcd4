"""Sufficient-condition evaluators for conservativeness and recurrence.

All verdicts are one-sided: "satisfied" asserts the sufficient condition
holds numerically on the truncation, "inconclusive" never asserts failure
of the underlying property. The liminf over r -> infinity is estimated by
the minimum of the statistic over the top window of the radius grid, a
deliberate over-estimate with explicit provenance; reports carry the raw
sequences so asymptotics can be judged directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from typing import Optional, Sequence

import numpy as np

from .forms import KernelOperator, LocalPart, energy as form_energy
from .space import DiscreteMMSpace, UnsupportedOperation, boundary_notes, metric_ball, shell_volume, support_sets

DEFAULT_THRESHOLD = 10.0
TOP_WINDOW_FRACTION = 0.5


@dataclass
class CriterionReport:
    """Radius-indexed statistic with a one-sided verdict."""

    statistic_name: str
    radii: list[float]
    values: list[float]
    liminf_estimate: float
    verdict: str  # "satisfied" | "inconclusive"
    threshold: float
    truncation_radius: float
    notes: list[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _top_window_min(values: np.ndarray, fraction: float = TOP_WINDOW_FRACTION) -> float:
    start = int(math.floor(len(values) * (1.0 - fraction)))
    start = min(start, len(values) - 1)
    return float(np.min(values[start:]))


def _radius_grid(radii: Sequence[float]) -> np.ndarray:
    """The radii, sorted; a ValueError names the first that is not a finite number."""
    radii = np.asarray(radii, dtype=float)
    bad = radii[~np.isfinite(radii)]
    if len(bad):
        raise ValueError(f"radius {bad[0]} is not a finite number")
    return np.sort(radii)


def _check_threshold(threshold: float) -> None:
    if not 0 < threshold < math.inf:  # an infinite threshold satisfies every criterion; nan fails here
        raise ValueError(f"threshold must be positive and finite, got {threshold}")


def _check_radii(space: DiscreteMMSpace, x0: int, radii: np.ndarray) -> list[str]:
    reach = space.max_distance_from(x0)
    if np.any(radii > reach):
        raise ValueError(
            f"radius grid exceeds the truncation: max usable radius from point {x0} is {reach:.6g}"
        )
    return boundary_notes(reach, radii.max())


def volume_growth_report(
    space: DiscreteMMSpace,
    x0: int,
    radii: Sequence[float],
    threshold: float = DEFAULT_THRESHOLD,
) -> CriterionReport:
    """Volume test statistic s(r) = ln V(x0, r) / (r ln r).

    A finite liminf is sufficient for conservativeness; the verdict is
    "satisfied" when the top-window minimum stays below the threshold.
    """
    radii = _radius_grid(radii)
    if radii.size == 0 or radii[0] <= 1.0:
        raise ValueError("radii must be an increasing grid inside (1, truncation]")
    _check_threshold(threshold)
    notes = _check_radii(space, x0, radii)
    values = np.asarray([math.log(metric_ball(space, x0, r)[1]) / (r * math.log(r)) for r in radii])
    liminf = _top_window_min(values)
    return CriterionReport(
        statistic_name="log-volume over r log r",
        radii=radii.tolist(),
        values=values.tolist(),
        liminf_estimate=liminf,
        verdict="satisfied" if liminf <= threshold else "inconclusive",
        threshold=threshold,
        truncation_radius=space.truncation_radius,
        notes=notes,
    )


def davies_constant(liminf_estimate: float) -> float:
    """Truncation range a = 1 / (8 * liminf + 9), always in (0, 1/9]."""
    if liminf_estimate < 0:
        raise ValueError("liminf estimate must be nonnegative")
    return 1.0 / (8.0 * liminf_estimate + 9.0)


def _omega_values(
    space: DiscreteMMSpace, kernel: KernelOperator, radii: np.ndarray
) -> np.ndarray:
    """omega(r) = max over X^(j) of sum_y (d(x,y) ^ r)^2 j(x,y) m(y), per r.

    One pass per distinct min(r, longest pair distance): past it, d ^ r = d
    on every stored pair, so those radii share one value bit for bit.
    """
    x_j = kernel.jump_support()
    if len(x_j) == 0:
        return np.zeros(len(radii))
    clipped = np.minimum(radii, kernel.longest_pair_distance())
    keys, slot = np.unique(clipped, return_inverse=True)
    values = [kernel.weighted_row_sums(lambda d: np.minimum(d, r) ** 2)[x_j].max() for r in keys]
    return np.array(values)[slot]


def omega(space: DiscreteMMSpace, kernel: KernelOperator, r: float) -> float:
    """Truncated second jump moment, sup over the jump support."""
    if r <= 0:
        raise ValueError("r must be positive")
    return float(_omega_values(space, kernel, np.array([float(r)]))[0])


def recurrence_report(
    space: DiscreteMMSpace,
    kernel: KernelOperator,
    local: Optional[LocalPart],
    x0: int,
    radii: Sequence[float],
    threshold: float = DEFAULT_THRESHOLD,
) -> CriterionReport:
    """Recurrence test statistic t(r) = [V_c(x0,r) + V_j(x0,r) omega(r)] / r^2."""
    radii = _radius_grid(radii)
    if radii.size == 0 or radii[0] <= 0:
        raise ValueError("radii must be positive and increasing")
    _check_threshold(threshold)
    notes = _check_radii(space, x0, radii)
    x_c, x_j = support_sets(kernel, local)
    if len(x_j) == 0:
        notes.append("jump support is empty: omega is identically 0")
    dist = space.distances_from(x0)
    om = _omega_values(space, kernel, radii)
    c_mask = np.zeros(space.n_points, dtype=bool)
    c_mask[x_c] = True
    j_mask = np.zeros(space.n_points, dtype=bool)
    j_mask[x_j] = True
    values = []
    for k, r in enumerate(radii):
        ball = dist <= r
        v_c = float(space.measure[ball & c_mask].sum())
        v_j = float(space.measure[ball & j_mask].sum())
        values.append((v_c + v_j * om[k]) / r**2)
    values = np.asarray(values)
    liminf = _top_window_min(values)
    return CriterionReport(
        statistic_name="(V_c + V_j omega) over r^2",
        radii=radii.tolist(),
        values=values.tolist(),
        liminf_estimate=liminf,
        verdict="satisfied" if liminf <= threshold else "inconclusive",
        threshold=threshold,
        truncation_radius=space.truncation_radius,
        notes=notes,
        extras={"omega": om.tolist()},
    )


def theta_test_function(space: DiscreteMMSpace, x0: int, big_r: float) -> np.ndarray:
    """theta_R(x) = clamp((R - d(x, x0)) / (R - 1)) to [0, 1]; requires R > 2."""
    if big_r <= 2:
        raise ValueError("R must exceed 2")
    d = space.distances_from(x0)
    return np.clip((big_r - d) / (big_r - 1.0), 0.0, 1.0)


@dataclass
class ThetaEnergyReport:
    r_values: list[float]
    energies: list[float]
    bounded: bool


def theta_energy(
    space: DiscreteMMSpace,
    kernel: KernelOperator,
    local: Optional[LocalPart],
    x0: int,
    r_grid: Sequence[float],
) -> ThetaEnergyReport:
    """Energies of the recurrence test functions theta_R over a grid of R.

    Bounded (non-growing) energies with theta_R -> 1 certify recurrence;
    the flag compares top- and bottom-half medians of the sequence.
    """
    r_grid = sorted(float(r) for r in r_grid)
    energies = [form_energy(space, kernel, local, theta_test_function(space, x0, r)) for r in r_grid]
    half = max(len(energies) // 2, 1)
    bounded = bool(np.median(energies[-half:]) <= np.median(energies[:half]) * 1.1 + 1e-30)
    return ThetaEnergyReport(list(r_grid), energies, bounded)


def cutoff_gn(space: DiscreteMMSpace, x0: int, n: int, a: float) -> np.ndarray:
    """Davies cut-off g_n = ((n - d(., x0)/a) ^ 1)_+."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if a <= 0:
        raise ValueError("a must be positive")
    d = space.distances_from(x0)
    return np.clip(n - d / a, 0.0, 1.0)


def doubling_report(space: DiscreteMMSpace, x0: int, radii: Sequence[float], ratio_bound: float = 16.0) -> CriterionReport:
    """Volume doubling ratios V(x0, 2r) / V(x0, r) with a power-law fit."""
    radii = _radius_grid(radii)
    if radii.size == 0 or radii[0] <= 0:
        raise ValueError("radii must be positive")
    if 2 * radii.max() > space.truncation_radius:
        raise ValueError(
            f"2 * max radius exceeds the truncation radius {space.truncation_radius:.6g}"
        )
    vols = np.array([metric_ball(space, x0, r)[1] for r in radii])
    vols2 = np.array([metric_ball(space, x0, 2 * r)[1] for r in radii])
    ratios = vols2 / vols
    doubling = bool(ratios.max() <= ratio_bound)
    extras: dict = {"doubling": doubling, "ratio_bound": ratio_bound}
    if doubling and len(radii) > 1 and np.all(vols > 0):
        slope = np.polyfit(np.log(radii), np.log(vols), 1)[0]
        kappa = float(slope)
        c_fit = float(np.max(vols / radii**kappa))
        extras.update({"kappa_fit": kappa, "volume_constant": c_fit})
    return CriterionReport(
        statistic_name="doubling ratio V(2r)/V(r)",
        radii=radii.tolist(),
        values=ratios.tolist(),
        liminf_estimate=_top_window_min(ratios),
        verdict="satisfied" if doubling else "inconclusive",
        threshold=ratio_bound,
        truncation_radius=space.truncation_radius,
        extras=extras,
    )


def quadratic_shell_report(space: DiscreteMMSpace, x0: int, n_grid: Sequence[int]) -> CriterionReport:
    """Shell-growth fit m(S_rho(x0, n)) / n^2; quadratic growth is the sharp rate.

    Verdict "satisfied" when the fitted constant is finite and the top
    window of ratios does not exceed the bottom window (stable fit); then
    conservativeness follows for counting vertex measure.
    """
    if not space.has_graph_distance:
        raise UnsupportedOperation("quadratic shell test needs the graph distance rho")
    n_grid = sorted(int(n) for n in n_grid)
    if not n_grid or n_grid[0] < 1:
        raise ValueError("shell indices must be positive integers")
    ratios = np.asarray([shell_volume(space, x0, n) / n**2 for n in n_grid])
    c_fit = float(ratios.max())
    half = max(len(ratios) // 2, 1)
    stable = bool(np.max(ratios[-half:]) <= np.max(ratios[:half]) * 1.05 + 1e-30)
    return CriterionReport(
        statistic_name="shell mass over n^2",
        radii=[float(n) for n in n_grid],
        values=ratios.tolist(),
        liminf_estimate=_top_window_min(ratios),
        verdict="satisfied" if (stable and np.isfinite(c_fit)) else "inconclusive",
        threshold=float("inf"),
        truncation_radius=space.truncation_radius,
        extras={"C_fit": c_fit, "stable": stable},
    )


@dataclass
class LogDistanceReport:
    """Largest delta with d(x0, x) >= delta * log rho(x0, x) on the truncation."""

    delta: float
    argmin_point: Optional[int]
    vacuous: bool

    def to_dict(self) -> dict:
        return asdict(self)


def log_distance_check(space: DiscreteMMSpace, x0: int) -> LogDistanceReport:
    """Adapted-vs-graph distance comparison over all points with rho >= 2."""
    if not space.has_graph_distance:
        raise UnsupportedOperation("log-distance check needs the graph distance rho")
    rho = space.rho_from(x0)
    d = space.distances_from(x0)
    eligible = np.flatnonzero(rho >= 2)
    if len(eligible) == 0:
        return LogDistanceReport(float("inf"), None, True)
    quotients = d[eligible] / np.log(rho[eligible])
    k = int(np.argmin(quotients))
    return LogDistanceReport(float(quotients[k]), int(eligible[k]), False)
