"""Acceptance suite: one test per criterion, printed as PASS lines.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion lines
with wall times; `pytest -v` alone already yields one pass/fail line per
criterion through the test names.
"""

import json
import math
import time

import numpy as np
import pytest

import jdlab.cli as cli
from jdlab import (
    SimConfig,
    capacity_scan,
    davies_constant,
    derivation_residual,
    energy,
    equilibrium_potential,
    lattice_nn,
    metric_ball,
    omega,
    quadratic_shell_report,
    recurrence_report,
    sample_estimates,
    stable_like,
    theta_test_function,
    volume_growth_report,
)
from jdlab.criteria import log_distance_check
from jdlab.forms import jump_rates
from jdlab.kernels import explicit_kernel, mixed_graph_from_params, model_manifold
from jdlab.simulate import explosion_diagnostic
from jdlab.space import open_ball_mask
from conftest import random_symmetric_kernel


def _report(number: int, message: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number}: {message} [{elapsed:.1f}s] PASS")
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget ({elapsed:.1f}s)"


def test_criterion_01_derivation_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 201))
        built = random_symmetric_kernel(rng, n, density=0.2)
        u = rng.normal(size=n)
        phi = rng.normal(size=n)
        res = derivation_residual(built.space, built.kernel, u, phi)
        scale = abs(energy(built.space, built.kernel, None, u, u * phi)) + 1.0
        worst = max(worst, abs(res) / scale)
        assert abs(res) <= 1e-10 * scale
    _report(1, f"derivation identity, worst relative residual {worst:.2e}", started, 10.0)


def test_criterion_02_example_verdict_matrix():
    started = time.perf_counter()
    radii = list(np.arange(10.0, 201.0, 10.0))
    cells = []
    for alpha in (0.5, 1.5):
        for case, beta in (("i", 0.5), ("i", 1.5), ("i", 3.0), ("ii", None)):
            built = stable_like(
                case=case, alpha=alpha, beta=beta if beta is not None else 1.0,
                tempering=1.0, dim=1, truncation_radius=400,
            )
            vol = volume_growth_report(built.space, built.space.origin, radii)
            rec = recurrence_report(built.space, built.kernel, None, built.space.origin, radii)
            assert vol.verdict == "satisfied"
            kappa = 1.0
            if case == "i":
                expect_recurrent = kappa <= min(beta, 2.0)
            else:
                expect_recurrent = kappa <= 2.0
            expected = "satisfied" if expect_recurrent else "inconclusive"
            assert rec.verdict == expected, (alpha, case, beta, rec.liminf_estimate)
            cells.append((alpha, case, beta, rec.verdict))
    _report(2, f"verdict matrix over {len(cells)} cells matches kappa <= beta ^ 2", started, 60.0)


def test_criterion_03_capacity_certificate_stable_recurrence():
    started = time.perf_counter()
    radii = [10.0, 40.0, 160.0, 640.0]
    ratio_threshold = 0.6  # configured separation; see ledger calibration
    fired = {}
    for alpha in (0.5, 1.0, 1.5):
        built = stable_like(case="i", alpha=alpha, beta=alpha, dim=1, truncation_radius=2000)
        rep = capacity_scan(
            built.space, built.kernel, None, [built.space.origin], radii,
            decay_ratio=ratio_threshold,
        )
        fired[alpha] = rep.certificate
        del built, rep
    assert fired == {0.5: False, 1.0: True, 1.5: True}
    _report(3, "capacity certificate fires iff alpha >= 1 (1-D stable recurrence)", started, 120.0)


def test_criterion_04_gamblers_ruin_oracle():
    started = time.perf_counter()
    built = lattice_nn(dim=1, truncation_radius=200)
    rates = jump_rates(built.kernel)
    origin = built.space.origin
    config = SimConfig(horizon=1e12, trials=10**4, seed=42, max_jumps=10**6, outer_radius=10.0)
    _, (est, _) = sample_estimates(rates, origin + 1, config, [origin])[0]
    se = math.sqrt(0.9 * 0.1 / config.trials)
    assert abs(est.value - 0.9) <= 3 * se
    _report(4, f"gambler's ruin {est.value:.4f} within 3 SE of 0.9", started, 30.0)


def test_criterion_05_capacity_closed_form():
    started = time.perf_counter()
    built = lattice_nn(dim=1, truncation_radius=110)
    sp = built.space
    for big_r in (4.0, 10.0, 40.0, 100.0):
        mask = open_ball_mask(sp, sp.origin, big_r)
        solve = equilibrium_potential(sp, built.kernel, None, [sp.origin], mask)
        assert solve.energy == pytest.approx(4.0 / big_r, abs=1e-6)
        theta = theta_test_function(sp, sp.origin, big_r) if big_r > 2 else None
        e_theta = energy(sp, built.kernel, None, theta)
        assert e_theta == pytest.approx(4.0 / (big_r - 1.0), rel=1e-12)
        assert solve.energy <= e_theta + 1e-12
    _report(5, "cap({0}, B(0,R)) = 4/R and cap <= E[theta_R] = 4/(R-1)", started, 10.0)


def test_criterion_06_omega_and_statistic_closed_forms():
    started = time.perf_counter()
    z1 = lattice_nn(dim=1, truncation_radius=120)
    for r in (1.0, 2.0, 5.0, 50.0):
        assert abs(omega(z1.space, z1.kernel, r) - 2.0) <= 1e-12
    radii = np.arange(5.0, 56.0, 5.0)
    rep = recurrence_report(z1.space, z1.kernel, None, z1.space.origin, radii)
    expected = [2.0 * (2 * r + 1) / r**2 for r in radii]
    assert np.max(np.abs(np.asarray(rep.values) - expected)) <= 1e-12
    assert rep.verdict == "satisfied"

    z3 = lattice_nn(dim=3, truncation_radius=10)
    radii3 = np.arange(2.0, 9.0)
    rep3 = recurrence_report(z3.space, z3.kernel, None, z3.space.origin, radii3)
    assert rep3.verdict == "inconclusive"
    growth = rep3.values[-1] / rep3.values[len(radii3) // 2 - 1]
    ratio_r = radii3[-1] / radii3[len(radii3) // 2 - 1]
    assert 0.5 * ratio_r <= growth <= 1.5 * ratio_r  # t(r) grows about linearly
    _report(6, "omega = 2, t(r) = 2(2r+1)/r^2 exact; Z^3 grows linearly, inconclusive", started, 10.0)


def test_criterion_07_quadratic_shell_pipeline_and_explosion_control():
    started = time.perf_counter()
    built = mixed_graph_from_params(
        graph_kind="lattice2d", extent=25, subdivisions=2,
        phi_kind="shell_power", phi_constant=1.0, phi_power=2.0,
    )
    sp = built.space
    shells = quadratic_shell_report(sp, sp.origin, range(2, 21))
    assert shells.extras["C_fit"] <= 4.0
    assert shells.verdict == "satisfied"
    logd = log_distance_check(sp, sp.origin)
    assert logd.delta > 0
    vol = volume_growth_report(sp, sp.origin, list(np.arange(2.0, 13.0)))
    assert vol.verdict == "satisfied"

    # explosive control: rates ~ x^3, sum 1/lambda < infinity
    chain = explicit_kernel(1500 + 1, [[k, k + 1, float((k + 1) ** 3)] for k in range(1500)])
    rates = jump_rates(chain.kernel)
    assert np.sum(1.0 / rates.lam[1:]) < np.inf
    config = SimConfig(horizon=1.0, trials=10**3, seed=7, max_jumps=4000)
    [(_, batch)], _ = sample_estimates(rates, 5, config)
    diag = explosion_diagnostic(batch)
    assert diag.explosion_suspected
    assert not diag.truncation_too_small
    _report(
        7,
        f"shell fit C={shells.extras['C_fit']:.3f} <= 4, delta={logd.delta:.3f} > 0, "
        f"volume satisfied; explosion flag raised (median capped {diag.median_elapsed_capped:.3f})",
        started,
        60.0,
    )


def test_criterion_08_davies_constant_exact():
    started = time.perf_counter()
    assert davies_constant(0.0) == 1.0 / 9.0
    assert davies_constant(1.0) == 1.0 / 17.0
    _report(8, "davies constant 1/9 and 1/17 exact", started, 10.0)


def test_criterion_09_model_manifold_sandwich():
    started = time.perf_counter()
    built = model_manifold(dim=1, spacing=0.05, profile="sandwich", truncation_radius=55.0)
    sp = built.space
    grid = np.arange(5.0, 51.0)
    for r in grid:
        _, vol = metric_ball(sp, sp.origin, float(r))
        assert r ** (r / 2.0) < vol < 2.0 * r**r, (r, vol)
    rep = volume_growth_report(sp, sp.origin, grid)
    assert max(rep.values) <= 1.2
    _report(9, f"volume sandwich holds on [5, 50]; statistic max {max(rep.values):.4f} <= 1.2", started, 30.0)


def test_criterion_10_simulation_determinism(tmp_path):
    started = time.perf_counter()
    spec = tmp_path / "znn.json"
    spec.write_text(json.dumps({"type": "lattice", "truncation_radius": 200, "params": {"dim": 1}}))
    args = [
        "simulate", "--spec", str(spec), "--x0", "201", "--horizon", "1e9",
        "--trials", "10000", "--seed", "42", "--max-jumps", "1000000",
        "--outer", "10", "--target", "ids:200", "--prefix", "det",
    ]
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(args + ["--out-dir", str(d1)]) == 0
    assert cli.main(args + ["--out-dir", str(d2)]) == 0
    b1 = (d1 / "det.json").read_bytes()
    b2 = (d2 / "det.json").read_bytes()
    assert b1 == b2
    _report(10, "identical seeds give byte-identical summaries", started, 60.0)
