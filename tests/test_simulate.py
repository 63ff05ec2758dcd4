import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from jdlab import (
    SimConfig,
    equilibrium_potential,
    explosion_diagnostic,
    lattice_nn,
    sample_estimates,
)
from jdlab import cli, simulate
from jdlab.forms import jump_rates
from jdlab.kernels import explicit_kernel
from jdlab.simulate import wilson_interval
from jdlab.space import metric_ball, open_ball_mask
from conftest import random_symmetric_kernel
from test_lockstep import one_batch, oracle_batch, same_bits


def birth_chain(length=400, scale=1.0):
    entries = [[k, k + 1, scale * float((k + 1) ** 3)] for k in range(length)]
    return explicit_kernel(length + 1, entries)


@pytest.fixture(scope="module")
def z_rates(z_line):
    return jump_rates(z_line.kernel)


def test_isolated_state_stays_alive():
    silent = explicit_kernel(1, [])
    r0 = jump_rates(silent.kernel)
    [(est, batch)], _ = sample_estimates(r0, 0, SimConfig(horizon=2.0, trials=1, seed=0))
    assert est.value == 1.0
    assert (batch.status[0], batch.n_jumps[0], batch.final_state[0], batch.elapsed[0]) == (0, 0, 0, 2.0)


def test_two_state_mean_holding_time():
    # q = 2 both ways: holds are Exp(2) with mean 1/2 (exponential-law oracle)
    b = explicit_kernel(2, [[0, 1, 1.0]])
    rates = jump_rates(b.kernel)
    [(_, batch)], _ = sample_estimates(rates, 0, SimConfig(horizon=1e18, trials=1, seed=123, max_jumps=100_000))
    # the trial is capped: its elapsed time is the sum of its 100,000 holds
    assert batch.status[0] == 2 and batch.n_jumps[0] == 100_000
    assert batch.elapsed[0] / batch.n_jumps[0] == pytest.approx(0.5, abs=0.01)


def test_absorption_matches_matrix_exponential_oracle(z_rates, z_line):
    sp = z_line.space
    o = sp.origin
    interior = np.flatnonzero(sp.distances_from(o) < 5.0)
    pos = {s: k for k, s in enumerate(interior)}
    gen = np.zeros((len(interior), len(interior)))
    q = z_rates.q
    for k, s in enumerate(interior):
        lo, hi = q.indptr[s], q.indptr[s + 1]
        for c, v in zip(q.indices[lo:hi], q.data[lo:hi]):
            if c in pos:
                gen[k, pos[c]] += v
        gen[k, k] -= z_rates.lam[s]
    oracle = (expm(gen * 1.5) @ np.ones(len(interior)))[pos[o]]
    cfg = SimConfig(horizon=1.5, trials=3000, seed=5, outer_radius=5.0)
    [(est, _)], _ = sample_estimates(z_rates, o, cfg)
    se = np.sqrt(oracle * (1 - oracle) / cfg.trials)
    assert abs(est.value - oracle) <= 3 * se


def test_survival_one_for_bounded_rates(z_rates, z_line):
    cfg = SimConfig(horizon=10.0, trials=2000, seed=42, outer_radius=100.0)
    [(est, batch)], _ = sample_estimates(z_rates, z_line.space.origin, cfg)
    assert est.value == 1.0
    assert np.all(batch.status == 0)


def test_single_trial_interval_is_wide():
    lo, hi = wilson_interval(1, 1)
    assert hi - lo > 0.5


@pytest.mark.parametrize("n", [1, 150, 20000])
def test_wilson_endpoints_are_exact_at_0_and_n_successes(n):
    # the score formula left 1.73e-18 at 0 of 150 and 0.9999999999999999 at 20000 of 20000
    assert wilson_interval(0, n)[0] == 0.0 and wilson_interval(0, n)[1] < 1.0
    assert wilson_interval(n, n)[1] == 1.0 and wilson_interval(n, n)[0] > 0.0
    if n > 1:
        lo, hi = wilson_interval(1, n)
        assert 0.0 < lo < 1 / n < hi < 1.0


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(horizon=float("nan")), "horizon"),
        (dict(horizon=float("inf")), "horizon"),
        (dict(horizon=0.0), "horizon"),
        (dict(horizon=-1.0), "horizon"),
        (dict(horizon=1.0, outer_radius=float("nan")), "outer radius"),
        (dict(horizon=1.0, outer_radius=-1.0), "outer radius"),
        (dict(horizon=1.0, outer_radius=0.0), "outer radius"),
    ],
)
def test_config_rejects_horizons_and_radii_that_answer_wrongly(kwargs, message):
    # a nan horizon ran every trial to the jump cap, an inf one flagged explosion on a bounded walk,
    # a nan radius was dropped and a negative one absorbed every trial at step 0
    with pytest.raises(ValueError, match=message):
        SimConfig(**kwargs)


@pytest.mark.parametrize(
    "x0, target, name, bad",
    [(-1, None, "x0", -1), (3, None, "x0", 3), (1, [-1], "target", -1), (1, [0, 10**6], "target", 10**6)],
)
def test_sampler_rejects_point_ids_outside_the_space(x0, target, name, bad):
    # x0 = -1 sampled from the last point and recorded final_state -1, target [-1] meant the last
    # point, and target [10**6] raised a bare IndexError
    rates = jump_rates(explicit_kernel(3, [[0, 1, 1.0], [1, 2, 1.0]]).kernel)
    config = SimConfig(horizon=1.0, trials=5, seed=1)
    with pytest.raises(ValueError, match=rf"^{name}: point id {bad} is not in \[0, 3\)$"):
        sample_estimates(rates, x0, config, target)


def test_sampler_rejects_an_empty_target():
    # with K empty, d(., K) is inf everywhere: every trial left the ball at jump 0 and the estimate read 0.0
    rates = jump_rates(explicit_kernel(3, [[0, 1, 1.0], [1, 2, 1.0]]).kernel)
    with pytest.raises(ValueError, match=r"^target set K is empty$"):
        sample_estimates(rates, 1, SimConfig(horizon=1.0, trials=5, seed=1), [])


@pytest.mark.parametrize("x0, target, name, bad", [(5, [6.7], "target", 6.7), (5, [4, 6.5], "target", 6.5), (5.5, None, "x0", 5.5)])
def test_sampler_rejects_point_ids_that_are_not_integers(x0, target, name, bad):
    # target [6.7] was cast to point 6 and sampled a return there
    rates = jump_rates(lattice_nn(dim=1, truncation_radius=5).kernel)
    with pytest.raises(ValueError, match=rf"^{name}: point id {bad} is not an integer$"):
        sample_estimates(rates, x0, SimConfig(horizon=1.0, trials=5, seed=1), target)
    assert sample_estimates(rates, 5, SimConfig(horizon=1.0, trials=5, seed=1), [6.0])[0][1][0].n_trials == 5  # an integral float is an id


def test_explosive_birth_chain_flag():
    b = birth_chain(length=800)
    rates = jump_rates(b.kernel)
    cfg = SimConfig(horizon=1.0, trials=300, seed=7, max_jumps=3000)
    [(_, batch)], _ = sample_estimates(rates, 5, cfg)
    diag = explosion_diagnostic(batch)
    assert diag.explosion_suspected
    assert not diag.truncation_too_small
    assert diag.median_elapsed_capped < 0.1


def test_truncation_artifact_flagged_separately(z_rates, z_line):
    # bounded-rate walk absorbed by a tiny ball: truncation flag, not explosion
    cfg = SimConfig(horizon=50.0, trials=400, seed=11, outer_radius=3.0)
    [(_, batch)], _ = sample_estimates(z_rates, z_line.space.origin, cfg)
    diag = explosion_diagnostic(batch)
    assert diag.truncation_too_small
    assert not diag.explosion_suspected
    # enlarging the outer radius shrinks the absorbed fraction
    wide = SimConfig(horizon=50.0, trials=400, seed=11, outer_radius=40.0)
    [(_, wide_batch)], _ = sample_estimates(z_rates, z_line.space.origin, wide)
    diag_wide = explosion_diagnostic(wide_batch)
    assert diag_wide.absorbed_fraction < diag.absorbed_fraction


def test_gamblers_ruin_closed_form(z_rates, z_line):
    o = z_line.space.origin
    cfg = SimConfig(horizon=1e12, trials=2000, seed=21, max_jumps=10**6, outer_radius=10.0)
    _, (est, _) = sample_estimates(z_rates, o + 1, cfg, [o])[0]
    se = np.sqrt(0.9 * 0.1 / cfg.trials)
    assert abs(est.value - 0.9) <= 3 * se


def test_adjacent_target_hits_immediately():
    # x0 adjacent to K with no other transitions: the only move is into K
    b = explicit_kernel(2, [[0, 1, 1.0]])
    rates = jump_rates(b.kernel)
    # the survival trials share the pass and hold no exit: the cap ends them (the hits stop at jump 1)
    cfg = SimConfig(horizon=1e12, trials=200, seed=3, max_jumps=10, outer_radius=50.0)
    _, (est, _) = sample_estimates(rates, 1, cfg, [0])[0]
    assert est.value == 1.0


def test_unreachable_target_warns():
    b = explicit_kernel(3, [[0, 1, 1.0]])  # state 2 disconnected
    rates = jump_rates(b.kernel)
    _, (est, _) = sample_estimates(rates, 2, SimConfig(horizon=5.0, trials=50, seed=1, outer_radius=10.0), [0])[0]
    assert est.value == 0.0
    assert any("unreachable" in n for n in est.notes)


def test_z3_return_plateaus_below_one(z3_cube):
    sp = z3_cube.space
    rates = jump_rates(z3_cube.kernel)
    o = sp.origin
    start = o + 1  # one lattice step away
    values = {}
    for r in (4.0, 8.0):
        mask = open_ball_mask(sp, o, r)
        solve = equilibrium_potential(z3_cube, [o], mask)
        oracle = solve.u[start]
        cfg = SimConfig(horizon=1e12, trials=1500, seed=17, max_jumps=10**6, outer_radius=r)
        _, (est, _) = sample_estimates(rates, start, cfg, [o])[0]
        se = max(np.sqrt(oracle * (1 - oracle) / cfg.trials), 1e-3)
        assert abs(est.value - oracle) <= 3 * se
        values[r] = oracle
    # transient walk: the hitting probability stays bounded away from 1
    assert values[8.0] < 0.75
    assert values[8.0] - values[4.0] < 0.15


def assert_same_batch(a, b):
    for name in ("status", "elapsed", "n_jumps", "final_state", "hit"):
        assert same_bits(getattr(a, name), getattr(b, name)), name


def test_batch_splitting_invariance(z_rates, z_line, monkeypatch):
    # draws are keyed by (seed, trial, jump), so neither reruns nor the
    # trial-chunk size may change any result
    o = z_line.space.origin
    target = np.zeros(z_line.space.n_points, dtype=bool)
    target[o + 3] = True
    cfg = SimConfig(horizon=2.0, trials=200, seed=99, outer_radius=5.0)
    b1 = one_batch(z_rates, o, cfg, target)
    b2 = one_batch(z_rates, o, cfg, target)
    monkeypatch.setattr(simulate, "_DRAW_BUDGET", 7)
    b3 = one_batch(z_rates, o, cfg, target)
    assert_same_batch(b1, b2)
    assert_same_batch(b1, b3)
    assert b1.hit.any() and (b1.status == 1).any() and (b1.elapsed == 2.0).any()


@pytest.mark.parametrize(
    "key, ctr, expected",
    [
        ((0, 0), (0, 0, 0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
        ((0xFFFFFFFF,) * 2, (0xFFFFFFFF,) * 4, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
        (
            (0xA4093822, 0x299F31D0),
            (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
            (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
        ),
    ],
)
def test_philox_known_answers(key, ctr, expected):
    # Random123 known-answer vectors for philox4x32-10
    assert tuple(int(w) for w in simulate.philox4x32(key, ctr)) == expected


def test_draws_are_a_function_of_seed_trial_jump():
    trials = np.array([0, 1, 5, 2**32 + 3])
    u1, u2 = simulate.uniform_pairs(2**40 + 17, trials, 0, 40)
    v1, v2 = simulate.uniform_pairs(2**40 + 17, trials, 13, 27)
    assert np.array_equal(u1[13:], v1) and np.array_equal(u2[13:], v2)
    w1, w2 = simulate.uniform_pairs(2**40 + 17, trials[[2, 0]], 13, 1)
    assert np.array_equal(w1[0], u1[13, [2, 0]]) and np.array_equal(w2[0], u2[13, [2, 0]])
    for u in (u1, u2):
        assert u.min() >= 0.0 and u.max() < 1.0
    assert not np.array_equal(u1, simulate.uniform_pairs(2**40 + 18, trials, 0, 40)[0])


def oracle_next_entry(cum, indptr, state, v):
    """The scalar rule the lockstep search replaces: row searchsorted, clamped to the row."""
    out = np.empty(len(state), dtype=np.int64)
    for k, (x, val) in enumerate(zip(state, v)):
        lo, hi = indptr[x], indptr[x + 1]
        pos = int(np.searchsorted(cum[lo:hi], val, side="right"))
        out[k] = lo + min(pos, hi - lo - 1)
    return out


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 24),
    density=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**31),
    lam_scale=st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-12, 2.0]),
)
def test_row_search_matches_searchsorted(n, density, seed, lam_scale):
    rng = np.random.default_rng(seed)
    rates = jump_rates(random_symmetric_kernel(rng, n, density).kernel)
    indptr, cum = rates.q.indptr, rates.cumulative_rows()
    state = np.repeat(np.flatnonzero(np.diff(indptr) > 0), 6)
    lam = rates.lam * lam_scale  # scaled total rates put u * lam below, at and above the row's last value
    # random uniforms, the ratios of the row's exact breakpoints to lam, and uniforms next to 0 and 1
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = cum[rng.integers(indptr[state], indptr[state + 1])] / lam[state]
    u = np.concatenate([rng.random(len(state)), np.nan_to_num(ratio, nan=0.5, posinf=0.5) % 1.0])
    u = np.concatenate([u, np.zeros(len(state)), np.full(len(state), 1 - 2.0**-53)])
    state = np.tile(state, len(u) // len(state))
    got = simulate._RowSearch(indptr, cum, lam, np.arange(len(cum) + 1))(state, u, np.empty(len(state), dtype=np.int64))
    assert np.array_equal(got, oracle_next_entry(cum, indptr, state, u * lam[state]))


def test_ball_target_exit_mask_matches_stacked_rows(z3_cube):
    # the running minimum over chunked rows gives the stacked-rows exit ball bit for bit
    sp = z3_cube.space
    rates = jump_rates(z3_cube.kernel)
    members, _ = metric_ball(sp, sp.origin, 1.0)
    dist_to_k = np.min(np.stack([sp.distances_from(int(k)) for k in members]), axis=0)
    target = np.zeros(sp.n_points, dtype=bool)
    target[members] = True
    cfg = SimConfig(horizon=1e12, trials=300, seed=3, outer_radius=4.0)
    _, (_, batch) = sample_estimates(rates, sp.origin + 2, cfg, members)[0]
    assert_same_batch(batch, simulate._run(rates, sp.origin + 2, cfg, [(target, dist_to_k >= 4.0)])[0][0])
    assert batch.hit.any() and (batch.status == 1).any()


def test_occupation_converges_to_symmetrizing_measure():
    # q(x, y) = 2 j(x, y) m(y) is reversible with respect to m, so the law at a horizon far past
    # the mixing time is m / m(X); Pearson's statistic over the 5 states is chi^2 with 4 degrees
    # of freedom, and 18.47 is its 0.1% upper quantile
    rng = np.random.default_rng(0)
    entries = [[i, j, float(rng.uniform(0.2, 2.0))] for i in range(5) for j in range(i + 1, 5)]
    built = explicit_kernel(5, entries, measure=rng.uniform(0.5, 2.0, 5))
    rates = jump_rates(built.kernel)
    pi = built.space.measure / built.space.measure.sum()
    cfg = SimConfig(horizon=50.0, trials=20_000, seed=2)
    [(_, batch)], _ = sample_estimates(rates, 0, cfg)
    assert np.all(batch.status == 0)
    counts = np.bincount(batch.final_state, minlength=5)
    expected = cfg.trials * pi
    assert float(np.sum((counts - expected) ** 2 / expected)) < 18.47


def test_survival_monotone_in_horizon():
    b = birth_chain(length=800)
    rates = jump_rates(b.kernel)
    estimates = {}
    for horizon in (0.05, 1.0):
        cfg = SimConfig(horizon=horizon, trials=400, seed=31, max_jumps=3000)
        [(est, _)], _ = sample_estimates(rates, 5, cfg)
        estimates[horizon] = est
    e_short, e_long = estimates[0.05], estimates[1.0]
    ci = e_long.ci_high - e_long.ci_low
    assert e_short.value >= e_long.value - 2 * ci


def test_trajectory_invariants(z_rates, z_line):
    o = z_line.space.origin
    cfg = SimConfig(horizon=4.0, trials=25, seed=13, outer_radius=6.0)
    [(_, batch)], _ = sample_estimates(z_rates, o, cfg)
    alive, absorbed = batch.status == 0, batch.status == 1
    assert np.all(alive | absorbed) and alive.any() and absorbed.any()
    assert np.all(batch.elapsed[alive] == 4.0)
    assert np.all((batch.elapsed[absorbed] > 0) & (batch.elapsed[absorbed] < 4.0))
    # unit steps on Z: a trial ends at most n_jumps from o, at the same parity, and is absorbed at distance 6
    steps = np.abs(batch.final_state - o)
    assert np.all(steps <= batch.n_jumps) and np.all((batch.n_jumps - steps) % 2 == 0)
    assert np.all(steps[absorbed] == 6) and np.all(steps[alive] < 6)


def test_reflect_policy_keeps_paths_inside(z_rates, z_line):
    sp = z_line.space
    o = sp.origin
    cfg = SimConfig(horizon=5.0, trials=50, seed=4, outer_radius=4.0, policy="reflect")
    [(_, batch)], _ = sample_estimates(z_rates, o, cfg)
    assert np.all(batch.status == 0)  # nothing absorbed under reflection
    d = sp.distances_from(o)
    assert np.all(d[batch.final_state] < 4.0)


def test_draw_block_invariance(z_rates, z_line, monkeypatch):
    # every draw is keyed by (seed, trial, jump), so block boundaries, including
    # length-1 blocks and boundaries in the middle of trials, change no bit
    o = z_line.space.origin
    target = np.zeros(z_line.space.n_points, dtype=bool)
    target[o + 3] = True
    cases = [
        (SimConfig(horizon=2.0, trials=200, seed=99, outer_radius=5.0, max_jumps=9), target),
        (SimConfig(horizon=6.0, trials=120, seed=5, outer_radius=4.0, max_jumps=40, policy="reflect"), None),
    ]
    want = [one_batch(z_rates, o, cfg, t) for cfg, t in cases]
    statuses = {(cfg.policy, int(s), bool(h)) for (cfg, _), b in zip(cases, want) for s, h in zip(b.status, b.hit)}
    assert {("absorb", 0, True), ("absorb", 1, False), ("absorb", 2, False), ("reflect", 0, False)} <= statuses
    for blocks in (1, 3, 64):
        monkeypatch.setattr(simulate, "_DRAW_BUDGET", blocks)
        for (cfg, t), batch in zip(cases, want):
            assert_same_batch(one_batch(z_rates, o, cfg, t), batch)


@pytest.mark.parametrize(
    "spec, args",
    [
        # the explosive chain j(k, k + 1) = (k + 1)^3: 150 long trials in blocks of 54 jumps (27 at 4,096)
        (
            {"type": "lattice", "truncation_radius": 1500, "params": {"dim": 1, "kernel": {
                "family": "explicit", "n_points": 1501, "entries": [[k, k + 1, float((k + 1) ** 3)] for k in range(1500)]}}},
            ["--x0", "5", "--horizon", "1", "--trials", "150", "--max-jumps", "4000"],
        ),
        # gambler's ruin: 9,000 short trials in two chunks (three at 4,096); the first chunk's first
        # block is one jump of 8,192 trials
        (
            {"type": "lattice", "truncation_radius": 200, "params": {"dim": 1}},
            ["--x0", "201", "--target", "ids:200", "--outer", "4", "--horizon", "1e9", "--trials", "9000"],
        ),
    ],
    ids=["cubic-chain", "ruin"],
)
def test_the_draw_budget_changes_no_output(tmp_path, monkeypatch, spec, args):
    # the budget against 4,096, the size of both the trial chunks and the draw blocks it replaced
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    calls = []
    philox = simulate.uniform_pairs
    monkeypatch.setattr(simulate, "uniform_pairs", lambda *a: calls.append(a) or philox(*a))
    runs = []
    for budget in (4096, simulate._DRAW_BUDGET):
        monkeypatch.setattr(simulate, "_DRAW_BUDGET", budget)
        out = tmp_path / str(budget)
        calls.clear()
        argv = ["simulate", "--spec", str(path), *args, "--seed", "1", "--trajectories", "s.csv", "--prefix", "s"]
        assert cli.main(argv + ["--out-dir", str(out)]) == 0
        manifest = json.loads((out / "s.manifest.json").read_text())
        runs.append(((out / "s.json").read_bytes(), (out / "s.csv").read_bytes(), manifest, len(calls)))
    (report, paths, manifest, blocks), (want_report, want_paths, want_manifest, want_blocks) = runs[1], runs[0]
    assert report == want_report and paths == want_paths
    assert (manifest["trials"], manifest["jumps"]) == (want_manifest["trials"], want_manifest["jumps"])
    assert manifest["draws"] >= want_manifest["draws"] and blocks < 0.6 * want_blocks


@pytest.mark.parametrize(
    "n, entries, x0",
    [
        (2, [], 0),  # no stored entries at all: the chain searches an empty q
        (2, [], 1),
        (4, [[0, 1, 1.0]], 3),  # the trailing state has zero rate: its row starts at the end of q
        (4, [[0, 1, 1.0]], 2),
    ],
)
@pytest.mark.parametrize("max_jumps", [1, 5])
def test_a_trial_stopped_on_an_empty_row_steps_its_chain_safely(n, entries, x0, max_jumps):
    # a stopped trial's chain steps on to the end of its block, here on a row with
    # no entries that ends past the last stored entry of q
    rates = jump_rates(explicit_kernel(n, entries).kernel)
    assert rates.lam[x0] == 0
    for trials in (1, 3):
        cfg = SimConfig(horizon=2.0, trials=trials, max_jumps=max_jumps, seed=11)
        [(_, batch)], _ = sample_estimates(rates, x0, cfg)
        assert_same_batch(batch, oracle_batch(rates, x0, cfg))
        assert np.all(batch.status == 0) and np.all(batch.elapsed == 2.0) and np.all(batch.n_jumps == 0)


def test_trials_stopped_mid_block_match_the_oracle():
    # blocks start at jumps 0, 1, 2, 4, 8, ...: trials that hit the target, leave the
    # ball or pass the horizon in between are recorded at their own jump while their
    # chains run on
    rates = jump_rates(explicit_kernel(9, [[k, k + 1, 1.0 + k] for k in range(7)]).kernel)
    assert rates.lam[8] == 0  # a zero-rate trailing state, its row at the end of q
    target = np.zeros(9, dtype=bool)
    target[6] = True
    stopped = set()
    for policy, max_jumps in (("absorb", 200), ("reflect", 200), ("absorb", 7)):
        cfg = SimConfig(horizon=5.0, trials=300, max_jumps=max_jumps, seed=2, outer_radius=3.0, policy=policy)
        got = one_batch(rates, 3, cfg, target)
        assert_same_batch(got, oracle_batch(rates, 3, cfg, target=target))
        stopped |= set(got.n_jumps[got.status != 2].tolist())
    assert {3, 5, 7, 9, 11, 13} <= stopped and max(stopped) > 16
