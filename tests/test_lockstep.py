"""The lockstep simulator against the two-site loop it replaced, kept as an oracle.

The oracle checks its stop codes (target, absorbing outside, zero rate),
then the horizon, then the jump cap, with a record-and-compact block for
each. It steps its chain with the binary-lifting row search the simulator
used before its first level was tabulated, kept verbatim. The
simulator applies one stop rule per step; every output must match the
oracle's bit for bit.
"""

from typing import Optional

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from jdlab import simulate, space
from jdlab.forms import RateTable, jump_rates
from jdlab.kernels import explicit_kernel
from jdlab.simulate import (
    _ABSORB,
    _DRAW_BUDGET,
    _GO,
    _HIT,
    BatchResult,
    SimConfig,
    _record,
    _RowSearch,
    sample_estimates,
    uniform_pairs,
)

_DEAD = 3


def _row_search(cum: np.ndarray, lo: np.ndarray, last: np.ndarray, v: np.ndarray, steps: int) -> np.ndarray:
    """Row-clamped searchsorted: the first entry of cum[lo..last] above v, else last.

    Equals lo + min(searchsorted(cum[lo:last+1], v, "right"), last - lo) on
    nondecreasing rows, by binary lifting; steps >= bit_length(longest row - 1).
    """
    pos = lo
    for k in reversed(range(steps)):
        cand = pos + (1 << k)
        ok = (cand <= last) & (cum.take(cand - 1, mode="clip") <= v)
        pos = np.where(ok, cand, pos)
    return pos


def _stop_codes(lam: np.ndarray, outside: Optional[np.ndarray], target: Optional[np.ndarray], reflect: bool) -> np.ndarray:
    """Stop code per state: target hit, then absorbing outside, then zero total rate."""
    code = np.where(lam <= 0.0, _DEAD, _GO).astype(np.int8)
    if outside is not None and not reflect:
        code[outside] = _ABSORB
    if target is not None:
        code[target] = _HIT
    return code


def _lockstep(
    rates: RateTable,
    x0: int,
    config: SimConfig,
    stop: np.ndarray,
    outside: Optional[np.ndarray],
    out: BatchResult,
    slots: np.ndarray,
) -> None:
    """Run trials `slots` to their stopping events; row slots[i] of `out` gets trial slots[i].

    Every live trial sits at jump index `step`, and each numpy step checks,
    in order: stop code (target hit, absorbing outside, zero rate), horizon,
    jump, jump cap. Status codes: 0 alive-at-T (also on a target hit),
    1 absorbed-at-boundary, 2 jump-cap-hit.
    """
    lam, indices, indptr = rates.lam, rates.q.indices, rates.q.indptr
    cum = rates.cumulative_rows()
    starts, lasts = indptr[:-1], indptr[1:] - 1
    steps = int(np.diff(indptr).max(initial=1) - 1).bit_length()
    reflect = outside if config.policy == "reflect" else None
    horizon, max_jumps = config.horizon, config.max_jumps

    state = np.full(len(slots), x0, dtype=np.int64)
    t = np.zeros(len(slots))
    exp_draws = unit_draws = np.empty((0, len(slots)))
    j = 0  # next row of the draw buffers
    step = 0
    while True:
        code = stop[state]
        if code.any():
            done = code != _GO
            c = code[done]
            _record(out, slots[done], state[done], step, np.where(c == _ABSORB, 1, 0),
                    np.where(c == _DEAD, horizon, t[done]), c == _HIT)
            keep = ~done
            if not keep.any():
                return
            slots, state, t = slots[keep], state[keep], t[keep]
            exp_draws, unit_draws, j = exp_draws[j:, keep], unit_draws[j:, keep], 0
        if j == len(exp_draws):
            count = min(max(1, _DRAW_BUDGET // len(slots)), max_jumps - step)
            u1, unit_draws = uniform_pairs(config.seed, slots, step, count)
            exp_draws, j = -np.log1p(-u1), 0
        rate = lam[state]
        hold = exp_draws[j] / rate
        u = unit_draws[j]
        j += 1
        t_next = t + hold
        over = t_next >= horizon
        if over.any():
            _record(out, slots[over], state[over], step, 0, horizon)
            keep = ~over
            if not keep.any():
                return
            slots, state, t_next, hold, rate, u = (a[keep] for a in (slots, state, t_next, hold, rate, u))
            exp_draws, unit_draws, j = exp_draws[j:, keep], unit_draws[j:, keep], 0
        nxt = indices[_row_search(cum, starts[state], lasts[state], u * rate, steps)]
        if reflect is not None:
            nxt = np.where(reflect[nxt], state, nxt)  # censored jump: the walker stays put
        state, t = nxt, t_next
        step += 1
        if step >= max_jumps:
            _record(out, slots, state, step, 2, t)
            return


def one_batch(rates, x0, config, target=None):
    """The simulator's batch for one target sampled alone, absorbing (or reflecting) at d(., x0) >= config.outer_radius."""
    return simulate._run(rates, x0, config, [(target, simulate._outside_mask(rates.space, x0, config))])[0][0]


def oracle_batch(rates, x0, config, target=None, outside=None):
    if outside is None:
        outside = simulate._outside_mask(rates.space, x0, config)
    stop = _stop_codes(rates.lam, outside, target, config.policy == "reflect")
    n = config.trials
    out = simulate._empty_batch(n, config.horizon)
    for first in range(0, n, simulate._DRAW_BUDGET):
        _lockstep(rates, x0, config, stop, outside, out, np.arange(first, min(first + simulate._DRAW_BUDGET, n)))
    return out


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_rates(rng, n, density, dead_fraction):
    """A random symmetric rate table on the line 0..n-1 whose `dead` states have zero total rate."""
    dead = rng.random(n) < dead_fraction
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if not (dead[i] or dead[j]) and rng.random() < density]
    entries = [[i, j, float(rng.uniform(0.1, 3.0))] for i, j in pairs]
    return jump_rates(explicit_kernel(n, entries, measure=rng.uniform(0.5, 2.0, size=n)).kernel)


horizons = st.one_of(st.floats(1e-3, 0.5), st.floats(1e3, 1e12))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 14),
    density=st.floats(0.05, 1.0),
    dead_fraction=st.sampled_from([0.0, 0.2, 0.6, 1.0]),
    table_seed=st.integers(0, 2**32 - 1),
    x0_frac=st.floats(0.0, 1.0, exclude_max=True),
    trials=st.integers(1, 40),
    max_jumps=st.integers(1, 60),
    horizon=horizons,
    seed=st.integers(0, 2**64 - 1),
    policy=st.sampled_from(["absorb", "reflect"]),
    outer=st.sampled_from([float("inf"), 0.5, 1.0, 2.5, 6.0]),
    target_fraction=st.sampled_from([None, 0.1, 0.3]),
)
def test_lockstep_matches_the_two_site_oracle(
    n, density, dead_fraction, table_seed, x0_frac, trials, max_jumps, horizon, seed, policy, outer, target_fraction
):
    rng = np.random.default_rng(table_seed)
    rates = random_rates(rng, n, density, dead_fraction)
    x0 = int(x0_frac * n)
    config = SimConfig(horizon=horizon, trials=trials, max_jumps=max_jumps, seed=seed, policy=policy, outer_radius=outer)
    target = None if target_fraction is None else rng.random(n) < target_fraction
    got, want = one_batch(rates, x0, config, target), oracle_batch(rates, x0, config, target=target)
    for name in ("status", "elapsed", "n_jumps", "final_state", "hit"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    assert got.horizon == want.horizon


def test_the_oracle_covers_every_stop_rule():
    # zero-rate starts and islands, targets, absorbing outside, horizon and cap on one table
    rng = np.random.default_rng(4)
    rates = random_rates(rng, 12, 0.4, 0.2)
    assert (rates.lam == 0).any() and (rates.lam > 0).any()
    target = np.zeros(12, dtype=bool)
    target[[3, 9]] = True
    seen = set()
    for x0 in range(12):
        for max_jumps in (1, 3, 40):
            config = SimConfig(horizon=1.5, trials=60, max_jumps=max_jumps, seed=x0, outer_radius=4.0)
            got, want = one_batch(rates, x0, config, target), oracle_batch(rates, x0, config, target=target)
            for name in ("status", "elapsed", "n_jumps", "final_state", "hit"):
                assert same_bits(getattr(got, name), getattr(want, name)), name
            seen |= {(int(s), bool(h)) for s, h in zip(got.status, got.hit)}
            seen |= {"horizon"} if (got.elapsed == 1.5).any() else set()
    assert seen >= {(0, False), (0, True), (1, False), (2, False), "horizon"}


def breakpoint_uniforms(cum: np.ndarray, lam: float) -> list[float]:
    """Uniforms at and within two ulps of the ratios cum / lam, where the answer may change, kept in [0, 1)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        at = cum / lam
    below, above = np.nextafter(at, 0), np.nextafter(at, 2)
    u = np.concatenate([np.nextafter(below, 0), below, at, above, np.nextafter(above, 2)])
    return list(u[np.isfinite(u) & (u >= 0) & (u < 1)])


@settings(max_examples=200, deadline=None)
@given(
    lengths=st.lists(st.sampled_from([0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17]), min_size=1, max_size=10),
    zero_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    lam_scale=st.sampled_from([1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53, 0.5, 3.0, 0.0, float("inf")]),
    seed=st.integers(0, 2**32 - 1),
)
def test_tabulated_row_search_matches_the_lifting_oracle(lengths, zero_fraction, lam_scale, seed):
    # empty rows, one entry, 2^k and 2^k + 1 entries, zero entries and zero-rate rows; total rates at,
    # just off, below and above the row sums, zero and infinite; uniforms at and next to every
    # breakpoint cum / lam, where the tabulated first level and the product u * lam must agree
    rng = np.random.default_rng(seed)
    indptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int32)
    rates = np.where(rng.random(indptr[-1]) < zero_fraction, 0.0, rng.uniform(0.1, 3.0, indptr[-1]))
    cum = np.concatenate([np.cumsum(rates[a:b]) for a, b in zip(indptr[:-1], indptr[1:])])
    lam = np.array([(cum[b - 1] if b > a else 0.0) for a, b in zip(indptr[:-1], indptr[1:])])
    with np.errstate(invalid="ignore"):  # 0 * inf
        lam = np.where(rng.random(len(lam)) < 0.5, lam * lam_scale, lam)
    rows, u = [], []
    for x, (a, b) in enumerate(zip(indptr[:-1], indptr[1:])):
        values = [0.0, 0.5, 1 - 2.0**-53, *rng.random(3), *breakpoint_uniforms(cum[a:b], lam[x])]
        rows += [x] * len(values)
        u += values
    rows, u = np.asarray(rows, dtype=np.intp), np.asarray(u)
    steps = int(np.diff(indptr).max(initial=1) - 1).bit_length()
    with np.errstate(invalid="ignore"):  # 0 * inf
        want = _row_search(cum, indptr[rows], indptr[rows + 1] - 1, u * lam[rows], steps)
        got = _RowSearch(indptr, cum, lam, np.arange(len(cum) + 1))(rows, u, np.empty(len(rows), dtype=np.int64))
    assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 60),
    longest=st.sampled_from([1, 2, 3, 40]),
    empty_fraction=st.sampled_from([0.0, 0.3]),
    zero_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    wall_fraction=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    block=st.sampled_from([7, space._BLOCK_NNZ]),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_censored_table_is_the_plain_search_then_a_reflection(
    n, longest, empty_fraction, zero_fraction, wall_fraction, block, seed
):
    # rows of up to 2 entries (the first level is the whole search) and of up to 40 (binary lifting), empty and
    # zero-rate rows, entry runs cut into blocks of 7; uniforms at and next to each row's u* and breakpoints
    rng = np.random.default_rng(seed)
    lengths = np.where(rng.random(n) < empty_fraction, 0, rng.integers(1, min(longest, n) + 1, n))
    indptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int32)
    indices = np.concatenate([np.sort(rng.choice(n, size=k, replace=False)) for k in lengths]).astype(np.int32)
    data = np.where(rng.random(len(indices)) < zero_fraction, 0.0, rng.uniform(0.1, 3.0, len(indices)))
    q = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    rates = RateTable(None, q, np.asarray(q.sum(axis=1)).reshape(-1))
    walls = rng.random(n) < wall_fraction
    plain = simulate._jumps(rates)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(space, "_BLOCK_NNZ", block)
        censored = simulate._jumps(rates, walls)
    cum = rates.cumulative_rows()
    rows, u = [], []
    for x in np.flatnonzero(lengths):
        star = plain.ustar[x]
        values = [0.0, 0.5, 1 - 2.0**-53, *rng.random(3), np.nextafter(star, 0), star, np.nextafter(star, 1)]
        values += breakpoint_uniforms(cum[indptr[x] : indptr[x + 1]], rates.lam[x])
        values = [v for v in values if 0 <= v < 1]
        rows += [x] * len(values)
        u += values
    rows, u = np.asarray(rows, dtype=np.intp), np.asarray(u)
    nxt = plain(rows, u, np.empty(len(rows), dtype=np.intp))
    got = censored(rows, u, np.empty(len(rows), dtype=np.intp))
    assert same_bits(got, np.where(walls[nxt], rows, nxt))


@settings(max_examples=300, deadline=None)
@given(
    thr=st.floats(min_value=0.0, allow_infinity=True) | st.sampled_from([0.0, 5e-324, 1e-310, float("nan")]),
    lam=st.floats(min_value=0.0, allow_infinity=True) | st.sampled_from([0.0, 5e-324, 1e-310, float("nan")]),
)
def test_least_passing_is_the_threshold_of_the_product_test(thr, lam):
    # with thr <= u * lam monotone in u, passing at u and failing one ulp below pins u down
    u = simulate._least_passing(np.array([thr]), np.array([lam]))[0]
    with np.errstate(over="ignore", invalid="ignore"):
        assert 0.0 <= u <= 1.0
        assert u == 1.0 or thr <= u * lam
        assert u == 0.0 or not thr <= np.nextafter(u, 0.0) * lam


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(2, 14),
    density=st.floats(0.05, 1.0),
    dead_fraction=st.sampled_from([0.0, 0.2, 0.6]),
    table_seed=st.integers(0, 2**32 - 1),
    x0_frac=st.floats(0.0, 1.0, exclude_max=True),
    trials=st.integers(1, 40),
    max_jumps=st.integers(1, 60),
    horizon=horizons,
    seed=st.integers(0, 2**64 - 1),
    policy=st.sampled_from(["absorb", "reflect"]),
    outer=st.sampled_from([float("inf"), 0.5, 1.0, 2.5, 6.0]),
    target_size=st.integers(1, 3),
    chunk=st.sampled_from([simulate._DRAW_BUDGET, 7]),
)
def test_one_sampling_pass_matches_a_batch_per_estimate(
    n, density, dead_fraction, table_seed, x0_frac, trials, max_jumps, horizon, seed, policy, outer, target_size, chunk
):
    rng = np.random.default_rng(table_seed)
    rates = random_rates(rng, n, density, dead_fraction)
    x0 = int(x0_frac * n)
    target = [int(k) for k in rng.permutation(n) if k != x0][:target_size]
    config = SimConfig(horizon=horizon, trials=trials, max_jumps=max_jumps, seed=seed, policy=policy, outer_radius=outer)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_DRAW_BUDGET", chunk)  # 7: several trial chunks
        estimates, (draws, _) = sample_estimates(rates, x0, config, target)
        # one _run call per (target, outside) set: the survival set, then the return set
        sets = [(None, simulate._outside_mask(rates.space, x0, config)), simulate._return_sets(rates, x0, target, outer)]
        survival, returned = (simulate._run(rates, x0, config, [s])[0][0] for s in sets)
    want = [(simulate._survival(survival, config), survival), (simulate._returned(returned, rates, x0, config), returned)]
    assert len(estimates) == 2 and draws >= trials
    for (got_est, got), (want_est, batch) in zip(estimates, want):
        for name in ("status", "elapsed", "n_jumps", "final_state", "hit"):
            assert same_bits(getattr(got, name), getattr(batch, name)), name
        assert got.horizon == batch.horizon and got_est.to_dict() == want_est.to_dict()
