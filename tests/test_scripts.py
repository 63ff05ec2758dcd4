"""Smoke tests: each experiment script's main() runs end to end on tiny arguments, and so does the README's library tour."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(name, args, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [name, *args])
    module.main()
    return capsys.readouterr().out


def test_verdict_matrix(monkeypatch, capsys):
    out = run_script("run_verdict_matrix", ["--truncation", "60", "--rmax", "30"], monkeypatch, capsys)
    rows = out.strip().splitlines()
    assert rows[0].split() == ["alpha", "case", "beta", "conservative", "recurrent", "t-liminf"]
    assert len(rows) == 1 + 3 * 5
    assert all(row.split()[3] == "satisfied" for row in rows[1:])
    # at spacing 1 every case-i row repeated across alpha: the short-range law was only evaluated at d = 1
    liminf = {}
    for row in rows[1:]:
        alpha, case, beta, *_, value = row.split()
        if case == "i":
            liminf.setdefault(beta, []).append(float(value))
    assert len(liminf) == 4 and all(len(set(values)) == 3 for values in liminf.values())
    assert liminf["1.0"] == pytest.approx([5.9815, 6.0125, 6.065], abs=1e-3)  # printed to 4 digits


def test_capacity_scan(monkeypatch, capsys):
    out = run_script(
        "run_capacity_scan", ["--truncation", "100", "--radii", "5,10,20,40"], monkeypatch, capsys
    )
    rows = out.strip().splitlines()
    assert [row.split(":")[0] for row in rows] == ["alpha=0.5", "alpha=1.0", "alpha=1.5"]
    assert all("certificate=" in row for row in rows)


def test_explosion_demo(monkeypatch, capsys):
    out = run_script("run_explosion_demo", ["--trials", "50"], monkeypatch, capsys)
    assert "summable -> explosive" in out
    assert "explosion_suspected=True" in out.splitlines()[1]
    assert "explosion_suspected=False" in out.splitlines()[2]


def test_readme_library_tour_runs(capsys):
    # the first python block under "## Library tour", run as written, so the documented API follows the code
    tour = (ROOT / "README.md").read_text().split("## Library tour", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    survival, ret = (float(v) for v in lines[2].split()[:2])
    assert 0.0 <= survival <= 1.0 and 0.0 < ret < 1.0
