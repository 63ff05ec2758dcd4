"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest benchmark

A tampered report must fail its workload's check, and a traced boundary
that the program no longer has must be reported as absent without breaking
the traced run.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def _write(out_dir: Path, reports: dict[str, dict]) -> Path:
    for name, payload in reports.items():
        (out_dir / name).write_text(json.dumps(payload))
    return out_dir


def _good_lattice() -> dict[str, dict]:
    radii = workloads.LATTICE_RADII
    values = [6.0 * workloads.lattice_ball_volume(r) / r**2 for r in radii]
    return {
        "z3.conservativeness.json": {"verdict": "satisfied", "radii": radii},
        "z3.recurrence.json": {
            "verdict": "inconclusive",
            "radii": radii,
            "values": [float(f"{v:.12g}") for v in values],
            "extras": {"omega": [6.0] * len(radii)},
        },
    }


def _good_graph() -> dict[str, dict]:
    ref = workloads.reference()["criteria-graph"]
    return {f"graph.{name}.json": copy.deepcopy(ref[name]) for name in ("conservativeness", "recurrence")}


def _good_stable() -> dict[str, dict]:
    caps = workloads.reference()["capacity-stable"]["capacities"]
    return {
        "stable.json": {
            "radii": workloads.STABLE_RADII,
            "capacities": list(caps),
            "certificate": True,
            "residuals": [1e-15] * len(caps),
        }
    }


def _good_oracle() -> dict[str, dict]:
    radii = workloads.ORACLE_RADII
    return {"oracle.json": {"radii": radii, "capacities": [4.0 / r for r in radii], "certificate": False}}


def _good_explosive() -> dict[str, dict]:
    return {"explosive.json": {"explosion": {"explosion_suspected": True, "truncation_too_small": False}}}


def _good_ruin() -> dict[str, dict]:
    return {
        "ruin.json": {
            "return": {"value": 0.7512, "n_trials": 20000},
            "explosion": {"absorbed_fraction": 1.0},
        }
    }


CASES = {
    "z3": (workloads.check_criteria_lattice, _good_lattice),
    "graph": (workloads.check_criteria_graph, _good_graph),
    "stable": (workloads.check_capacity_stable, _good_stable),
    "oracle": (workloads.check_capacity_oracle, _good_oracle),
    "explosive": (workloads.check_simulate_explosive, _good_explosive),
    "ruin": (workloads.check_simulate_ruin, _good_ruin),
}


def _set(path: list, value):
    def tamper(reports: dict[str, dict]) -> None:
        node = reports
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value

    return tamper


TAMPERS = [
    ("z3", "recurrence verdict flipped", _set(["z3.recurrence.json", "verdict"], "satisfied")),
    ("z3", "conservativeness verdict flipped", _set(["z3.conservativeness.json", "verdict"], "inconclusive")),
    ("z3", "omega off", _set(["z3.recurrence.json", "extras", "omega", 3], 6.000001)),
    ("z3", "value off", _set(["z3.recurrence.json", "values", 4], lambda v: v * (1 + 1e-9))),
    ("z3", "radius dropped", _set(["z3.recurrence.json", "radii"], lambda r: r[:-1])),
    ("graph", "verdict flipped", _set(["graph.recurrence.json", "verdict"], "inconclusive")),
    ("graph", "value off", _set(["graph.recurrence.json", "values", 0], lambda v: v * (1 + 1e-8))),
    ("graph", "omega off", _set(["graph.recurrence.json", "extras", "omega", 2], 1.001)),
    ("graph", "liminf off", _set(["graph.conservativeness.json", "liminf_estimate"], lambda v: v * 1.001)),
    ("stable", "capacity off by 1e-3", _set(["stable.json", "capacities", 2], lambda v: v * (1 + 1e-3))),
    ("stable", "certificate dropped", _set(["stable.json", "certificate"], False)),
    ("stable", "not decreasing", _set(["stable.json", "capacities"], lambda c: c[:3] + [c[2], c[4]])),
    ("stable", "residual too large", _set(["stable.json", "residuals", 4], 1e-6)),
    ("oracle", "cap off", _set(["oracle.json", "capacities", 1], lambda v: v * (1 + 1e-8))),
    ("explosive", "explosion not flagged", _set(["explosive.json", "explosion", "explosion_suspected"], False)),
    ("explosive", "truncation flagged", _set(["explosive.json", "explosion", "truncation_too_small"], True)),
    ("ruin", "ruin estimate 0.70", _set(["ruin.json", "return", "value"], 0.70)),
    ("ruin", "absorbed fraction below 1", _set(["ruin.json", "explosion", "absorbed_fraction"], 0.99)),
]


@pytest.mark.parametrize("label", sorted(CASES))
def test_good_report_passes(tmp_path, label):
    check, good = CASES[label]
    assert check(_write(tmp_path, good()), label) == []


@pytest.mark.parametrize("label,what,tamper", TAMPERS, ids=[f"{t[0]}: {t[1]}" for t in TAMPERS])
def test_tampered_report_fails(tmp_path, label, what, tamper):
    check, good = CASES[label]
    reports = good()
    tamper(reports)
    assert check(_write(tmp_path, reports), label), what


def test_ruin_bound_is_five_standard_errors_of_the_exact_value(tmp_path):
    se = math.sqrt(0.75 * 0.25 / 20000)
    for value, ok in ((0.75 + 4.9 * se, True), (0.75 - 4.9 * se, True), (0.75 + 5.1 * se, False)):
        reports = _good_ruin()
        reports["ruin.json"]["return"]["value"] = value
        assert (workloads.check_simulate_ruin(_write(tmp_path, reports), "ruin") == []) is ok


def test_lattice_volume_counts_points():
    assert workloads.lattice_ball_volume(1.0) == 7
    assert workloads.lattice_ball_volume(2.0) == 33
    assert workloads.lattice_ball_volume(30.0) == 21**3


def test_spans_nest_and_self_time_excludes_children():
    class Owner:
        @staticmethod
        def outer(n):
            return sum(Owner.inner(k) for k in range(n))

        @staticmethod
        def inner(k):
            return k

        @staticmethod
        def rows(n):
            yield from range(n)

    tracer = spans.Tracer()
    tracer.wrap(Owner, "outer", "outer")
    tracer.wrap(Owner, "inner", "inner")
    tracer.wrap_generator(Owner, "rows", "rows")
    try:
        assert Owner.outer(5) == 10
        assert list(Owner.rows(3)) == [0, 1, 2]
    finally:
        tracer.uninstall()
    raw = tracer.harvest()
    assert raw["n:outer"] == 1 and raw["n:inner"] == 5
    assert raw["n:rows"] == 4  # three items and the final, exhausting next
    assert raw["self:outer"] == pytest.approx(raw["t:outer"] - raw["t:inner"], abs=1e-12)
    assert 0.0 <= raw["self:outer"] <= raw["t:outer"]
    assert not hasattr(Owner.outer, "__wrapped__")


def _traced_capacity(tmp_path):
    import jdlab.cli

    spec = tmp_path / "z.json"
    spec.write_text(json.dumps({"type": "lattice", "truncation_radius": 40, "params": {"dim": 1}}))
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        with tracer.span("cli.command"):
            code = jdlab.cli.main(
                ["capacity", "--spec", str(spec), "--K", "ids:40", "--radii", "5,10,20",
                 "--out-dir", str(tmp_path / "out"), "--prefix", "z"]
            )
    finally:
        tracer.uninstall()
    assert code == 0
    return tracer, spans.layer_metrics(tracer.harvest())


def test_traced_command_reports_layer_counters(tmp_path):
    tracer, metrics = _traced_capacity(tmp_path)
    assert tracer.absent == []
    assert metrics["forms.form_matrix_calls"] == 3
    assert metrics["capacity.solves"] == 3
    assert metrics["capacity.cg_solves"] == 0
    assert metrics["capacity.unknowns_max"] == 38  # open ball of radius 20 minus K
    assert metrics["kernels.n_points"] == 81
    assert metrics["cli.command_s"] >= metrics["capacity.scan_s"] > 0


def test_missing_boundary_is_reported_absent(tmp_path, monkeypatch):
    import jdlab.forms
    import jdlab.simulate
    import jdlab.space

    monkeypatch.delattr(jdlab.simulate, "run_batch")
    monkeypatch.delattr(jdlab.forms, "RateTable")
    monkeypatch.delattr(jdlab.space.DiscreteMMSpace, "distances_chunked")
    tracer, metrics = _traced_capacity(tmp_path)
    assert set(tracer.absent) == {
        "jdlab.simulate.run_batch",
        "jdlab.forms.RateTable.cumulative_rows",
        "jdlab.space.DiscreteMMSpace.distances_chunked",
    }
    assert metrics["simulate.run_batch_s"] == 0.0
    assert metrics["forms.form_matrix_calls"] == 3
