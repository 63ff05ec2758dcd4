"""The benchmark's workloads: instance specs, CLI commands and report checks.

Each workload is a short list of `jdlab` CLI commands run on fixed JSON
specs. Only the `simulate` workload uses the benchmark seed (it becomes the
CLI's `--seed`); the other workloads are deterministic. Every command has a
check that reads the report JSON the CLI wrote and returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_PATH = Path(__file__).with_name("reference.json")

SPECS = {
    # Z^3 nearest neighbour: 9,261 points, kernel nnz 52,920
    "z3": {"type": "lattice", "truncation_radius": 10, "params": {"dim": 3}},
    # mixed physical/quantum graph on a 2-D lattice: 12,801 points with a local part
    "mixed-graph": {
        "type": "graph",
        "truncation_radius": 25,
        "params": {
            "graph_kind": "lattice2d",
            "extent": 25,
            "subdivisions": 2,
            "phi_kind": "shell_power",
            "phi_constant": 1.0,
            "phi_power": 2.0,
        },
    },
    # 1-D stable-like case i, alpha = beta = 1: 2,401 points, dense kernel
    "stable-1d": {
        "type": "lattice",
        "truncation_radius": 1200,
        "params": {"dim": 1, "kernel": {"family": "stable_i", "alpha": 1.0, "beta": 1.0}},
    },
    # Z nearest neighbour for the cap({0}, B(0, R)) = 4/R oracle: 3,201 points
    "z-1600": {"type": "lattice", "truncation_radius": 1600, "params": {"dim": 1}},
    # explosive chain j(k, k+1) = (k+1)^3 on 1,501 points
    "cubic-chain": {
        "type": "lattice",
        "truncation_radius": 1500,
        "params": {
            "dim": 1,
            "kernel": {
                "family": "explicit",
                "n_points": 1501,
                "entries": [[k, k + 1, float((k + 1) ** 3)] for k in range(1500)],
            },
        },
    },
    # Z nearest neighbour for gambler's ruin: 401 points
    "z-200": {"type": "lattice", "truncation_radius": 200, "params": {"dim": 1}},
}

LATTICE_RADII = [float(r) for r in range(2, 9)]
STABLE_RADII = [10.0, 40.0, 160.0, 640.0, 1100.0]
ORACLE_RADII = [100.0, 1500.0]
RUIN_P = 0.75  # (R - 1) / R for R = 4, started one step from the target
RUIN_SIGMAS = 5.0


@dataclass(frozen=True)
class Command:
    """One CLI command: subcommand, spec name, extra arguments and its check."""

    label: str
    subcommand: str
    spec: str
    args: tuple[str, ...]
    check: Callable[[Path, str], list[str]]

    def argv(self, spec_path: Path, out_dir: Path) -> list[str]:
        return [
            self.subcommand,
            "--spec", str(spec_path),
            *self.args,
            "--out-dir", str(out_dir),
            "--prefix", self.label,
        ]


# -- helpers ------------------------------------------------------------------


def _load(out_dir: Path, name: str) -> dict:
    return json.loads((Path(out_dir) / name).read_text())


def _round12(x: float) -> float:
    """The CLI writes floats with 12 significant digits."""
    return float(f"{x:.12g}")


def _rel_err(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _compare_numbers(actual, expected, rel: float, where: str) -> list[str]:
    """Every number in `expected` must appear in `actual` within `rel`."""
    if isinstance(expected, bool) or isinstance(expected, str) or expected is None:
        return []
    if isinstance(expected, (int, float)):
        if isinstance(actual, bool) or not isinstance(actual, (int, float)):
            return [f"{where}: expected a number, got {actual!r}"]
        if not _rel_err(float(actual), float(expected)) <= rel:
            return [f"{where}: {actual!r} differs from reference {expected!r} by more than {rel:g} relative"]
        return []
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: expected a list of {len(expected)}, got {actual!r}"]
        out = []
        for k, (a, e) in enumerate(zip(actual, expected)):
            out += _compare_numbers(a, e, rel, f"{where}[{k}]")
        return out
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected an object, got {actual!r}"]
        out = []
        for key, e in expected.items():
            out += _compare_numbers(actual.get(key), e, rel, f"{where}.{key}")
        return out
    return [f"{where}: unsupported reference value {expected!r}"]


def reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def lattice_ball_volume(r: float, dim: int = 3, extent: int = 10) -> int:
    """#{z in Z^dim : |z|_inf <= extent, |z|_2 <= r}, counted from coordinates."""
    axis = range(-extent, extent + 1)
    squares = [a * a for a in axis]
    counts = {0: 1}  # sum of squares -> number of partial coordinate tuples
    for _ in range(dim):
        nxt: dict[int, int] = {}
        for s, c in counts.items():
            for q in squares:
                nxt[s + q] = nxt.get(s + q, 0) + c
        counts = nxt
    return sum(c for s, c in counts.items() if s <= r * r)


# -- checks -------------------------------------------------------------------


def check_criteria_lattice(out_dir: Path, prefix: str) -> list[str]:
    cons = _load(out_dir, f"{prefix}.conservativeness.json")
    rec = _load(out_dir, f"{prefix}.recurrence.json")
    problems = []
    if cons.get("verdict") != "satisfied":
        problems.append(f"conservativeness verdict {cons.get('verdict')!r}, expected 'satisfied'")
    if rec.get("verdict") != "inconclusive":
        problems.append(f"recurrence verdict {rec.get('verdict')!r}, expected 'inconclusive'")
    if rec.get("radii") != LATTICE_RADII:
        problems.append(f"recurrence radii {rec.get('radii')!r}, expected {LATTICE_RADII}")
        return problems
    omega = rec.get("extras", {}).get("omega")
    if omega != [6.0] * len(LATTICE_RADII):
        problems.append(f"omega {omega!r}, expected 6.0 (= 2 dim) at every radius")
    values = rec.get("values") or []
    if len(values) != len(LATTICE_RADII):
        problems.append(f"expected {len(LATTICE_RADII)} recurrence values, got {len(values)}")
        return problems
    for r, v in zip(LATTICE_RADII, values):
        expected = _round12(6.0 * lattice_ball_volume(r) / r**2)
        if not _rel_err(v, expected) <= 1e-12:
            problems.append(f"recurrence value at r={r:g} is {v!r}, expected 6 V(r)/r^2 = {expected!r}")
    return problems


def check_criteria_graph(out_dir: Path, prefix: str) -> list[str]:
    ref = reference()["criteria-graph"]
    problems = []
    for name in ("conservativeness", "recurrence"):
        report = _load(out_dir, f"{prefix}.{name}.json")
        if report.get("verdict") != "satisfied":
            problems.append(f"{name} verdict {report.get('verdict')!r}, expected 'satisfied'")
        problems += _compare_numbers(report, ref[name], 1e-9, name)
    return problems


def check_capacity_stable(out_dir: Path, prefix: str) -> list[str]:
    report = _load(out_dir, f"{prefix}.json")
    caps = report.get("capacities") or []
    problems = []
    if report.get("certificate") is not True:
        problems.append("capacity certificate not raised")
    if report.get("radii") != STABLE_RADII or len(caps) != len(STABLE_RADII):
        problems.append(f"radii {report.get('radii')!r} / {len(caps)} capacities, expected {STABLE_RADII}")
        return problems
    if not all(b < a for a, b in zip(caps, caps[1:])):
        problems.append(f"capacities do not strictly decrease: {caps}")
    residuals = report.get("residuals") or []
    if len(residuals) != len(caps) or not all(res <= 1e-8 for res in residuals):
        problems.append(f"solve residuals {residuals} exceed 1e-8")
    problems += _compare_numbers(caps, reference()["capacity-stable"]["capacities"], 1e-6, "capacities")
    return problems


def check_capacity_oracle(out_dir: Path, prefix: str) -> list[str]:
    report = _load(out_dir, f"{prefix}.json")
    caps = report.get("capacities") or []
    if report.get("radii") != ORACLE_RADII or len(caps) != len(ORACLE_RADII):
        return [f"radii {report.get('radii')!r} / {len(caps)} capacities, expected {ORACLE_RADII}"]
    return [
        f"cap at R={r:g} is {c!r}, expected 4/R = {4.0 / r!r}"
        for r, c in zip(ORACLE_RADII, caps)
        if not _rel_err(c, 4.0 / r) <= 1e-9
    ]


def check_simulate_explosive(out_dir: Path, prefix: str) -> list[str]:
    explosion = _load(out_dir, f"{prefix}.json").get("explosion", {})
    problems = []
    if explosion.get("explosion_suspected") is not True:
        problems.append("explosion not flagged on the cubic-rate chain")
    if explosion.get("truncation_too_small") is not False:
        problems.append("cubic-rate chain flagged as truncation too small")
    return problems


def check_simulate_ruin(out_dir: Path, prefix: str) -> list[str]:
    summary = _load(out_dir, f"{prefix}.json")
    ret = summary.get("return", {})
    n = ret.get("n_trials") or 0
    value = ret.get("value")
    problems = []
    if n < 1 or not isinstance(value, (int, float)):
        return [f"no return estimate in the summary: {ret!r}"]
    # the bound uses the exact p, never the sampled value, so it holds for any RNG stream
    tol = RUIN_SIGMAS * math.sqrt(RUIN_P * (1 - RUIN_P) / n)
    if abs(value - RUIN_P) > tol:
        problems.append(f"return estimate {value} is more than {RUIN_SIGMAS:g} SE ({tol:.4g}) from {RUIN_P}")
    absorbed = summary.get("explosion", {}).get("absorbed_fraction")
    if absorbed != 1.0:
        problems.append(f"absorbed fraction {absorbed!r}, expected 1")
    return problems


# -- workloads ----------------------------------------------------------------


def commands(workload: str, seed: int) -> list[Command]:
    """The CLI commands of one workload; `seed` only reaches `simulate`."""
    if workload == "criteria-lattice":
        return [Command("z3", "criteria", "z3", ("--radii", "2:8:1"), check_criteria_lattice)]
    if workload == "criteria-graph":
        return [Command("graph", "criteria", "mixed-graph", ("--radii", "2:12:1"), check_criteria_graph)]
    if workload == "capacity-stable":
        return [
            Command(
                "stable", "capacity", "stable-1d",
                ("--K", "ids:1200", "--radii", ",".join(f"{r:g}" for r in STABLE_RADII),
                 "--decay-ratio", "0.6"),
                check_capacity_stable,
            ),
            Command(
                "oracle", "capacity", "z-1600",
                ("--K", "ids:1600", "--radii", ",".join(f"{r:g}" for r in ORACLE_RADII)),
                check_capacity_oracle,
            ),
        ]
    if workload == "simulate":
        s = str(int(seed))
        return [
            Command(
                "explosive", "simulate", "cubic-chain",
                ("--x0", "5", "--horizon", "1", "--trials", "150", "--max-jumps", "4000", "--seed", s),
                check_simulate_explosive,
            ),
            Command(
                "ruin", "simulate", "z-200",
                ("--x0", "201", "--target", "ids:200", "--outer", "4", "--horizon", "1e9",
                 "--trials", "20000", "--seed", s),
                check_simulate_ruin,
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("criteria-lattice", "criteria-graph", "capacity-stable", "simulate")
