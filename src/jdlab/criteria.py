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
from typing import Sequence

import numpy as np

from .forms import BuiltInstance, KernelOperator, support_sets
from .space import DiscreteMMSpace, ball_volumes, boundary_notes, check_distinct_radii

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


def _grid(space: DiscreteMMSpace, x0: int, radii, threshold: float, low: float, rule: str) -> tuple[np.ndarray, list[str]]:
    """The radii, sorted, and their boundary notes about x0.

    A ValueError names the first radius that is not a finite number, or the
    first repeated; a grid that is empty or not above low (by rule); a
    threshold outside (0, inf); an x0 that is not a point id; or the reach.
    """
    radii = np.asarray(radii, dtype=float)
    bad = radii[~np.isfinite(radii)]
    if len(bad):
        raise ValueError(f"radius {bad[0]} is not a finite number")
    radii = np.sort(radii)
    check_distinct_radii(radii)
    if radii.size == 0 or radii[0] <= low:
        raise ValueError(rule)
    if not 0 < threshold < math.inf:  # an infinite threshold satisfies every criterion; nan fails here
        raise ValueError(f"threshold must be positive and finite, got {threshold}")
    space.point_ids("x0", [x0])
    reach = space.max_distance_from(x0)
    if np.any(radii > reach):
        raise ValueError(f"radius grid exceeds the truncation: max usable radius from point {x0} is {reach:.6g}")
    return radii, boundary_notes(reach, radii.max())


def _report(name: str, space: DiscreteMMSpace, radii: np.ndarray, values: list, threshold: float, notes, **extras):
    """The statistic's report; its liminf is estimated by the minimum over the top window of the grid."""
    start = min(int(math.floor(len(values) * (1.0 - TOP_WINDOW_FRACTION))), len(values) - 1)
    liminf = float(np.min(values[start:]))
    return CriterionReport(
        statistic_name=name,
        radii=radii.tolist(),
        values=np.asarray(values).tolist(),
        liminf_estimate=liminf,
        verdict="satisfied" if liminf <= threshold else "inconclusive",
        threshold=threshold,
        truncation_radius=space.truncation_radius,
        notes=notes,
        extras=extras,
    )


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
    radii, notes = _grid(space, x0, radii, threshold, 1.0, "radii must be an increasing grid inside (1, truncation]")
    values = [math.log(v) / (r * math.log(r)) for r, v in zip(radii, ball_volumes(space, x0, radii).tolist())]
    return _report("log-volume over r log r", space, radii, values, threshold, notes)


def davies_constant(liminf_estimate: float) -> float:
    """Truncation range a = 1 / (8 * liminf + 9), always in (0, 1/9]."""
    if liminf_estimate < 0:
        raise ValueError("liminf estimate must be nonnegative")
    return 1.0 / (8.0 * liminf_estimate + 9.0)


def _omega_values(kernel: KernelOperator, radii: np.ndarray) -> np.ndarray:
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


def recurrence_report(
    built: BuiltInstance,
    x0: int,
    radii: Sequence[float],
    threshold: float = DEFAULT_THRESHOLD,
) -> CriterionReport:
    """Recurrence test statistic t(r) = [V_c(x0,r) + V_j(x0,r) omega(r)] / r^2 on the instance's space."""
    space = built.space
    radii, notes = _grid(space, x0, radii, threshold, 0.0, "radii must be positive and increasing")
    x_c, x_j = support_sets(built)
    if len(x_j) == 0:
        notes.append("jump support is empty: omega is identically 0")
    om = _omega_values(built.kernel, radii)
    # V_c and V_j weigh the ball by m 1_S on S = X^(c) and X^(j); a point that S repeats counts once
    on = [space.measure * (np.bincount(s, minlength=space.n_points) > 0) for s in (x_c, x_j)]
    v_c, v_j = (ball_volumes(space, x0, radii, weights).tolist() for weights in on)
    values = [(c + j * omega) / r**2 for r, c, j, omega in zip(radii, v_c, v_j, om)]
    return _report("(V_c + V_j omega) over r^2", space, radii, values, threshold, notes, omega=om.tolist())
