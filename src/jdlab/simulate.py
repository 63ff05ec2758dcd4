"""Monte-Carlo simulation of the pure-jump process defined by a rate table.

Trials advance in lockstep, one draw block at a time. Within a block only
the jump chain is sequential: one numpy step moves every live trial by one
jump. The holding times, elapsed times and stop tests of the whole block
are then computed from the visited states at once, and trials that stopped
are recorded and compacted out of the live set. Randomness
comes from a counter-based Philox4x32-10 generator (Salmon et al., SC'11,
"Parallel random numbers: as easy as 1, 2, 3"): jump k of trial i under
seed s uses the block philox(key=s, counter=(k, i)), so every draw is a
pure function of (seed, trial, jump) and a batch is reproducible bit for
bit however its trials are grouped. Explosion cannot be observed directly
on a finite truncation: it is inferred from jump-cap hits with stalled
elapsed time, and separated from plain truncation artifacts (boundary
absorption).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .forms import RateTable
from .space import DiscreteMMSpace, open_ball_mask

STATUS_ALIVE = "alive-at-T"
STATUS_ABSORBED = "absorbed-at-boundary"
STATUS_CAPPED = "jump-cap-hit"
_STATUS_BY_CODE = (STATUS_ALIVE, STATUS_ABSORBED, STATUS_CAPPED)
RNG_CONTRACT = "philox4x32-10/1"  # bump whenever (seed, trial, jump) -> draws changes
_TRIAL_CHUNK = 4096  # consecutive trials advanced together
_DRAW_BLOCKS = 1 << 12  # Philox blocks generated per refill (bounds temporaries)

# Philox4x32 multipliers and Weyl key increments (Random123)
_PHILOX_M = (np.uint64(0xD2511F53), np.uint64(0xCD9E8D57))
_PHILOX_W = (np.uint64(0x9E3779B9), np.uint64(0xBB67AE85))
_MASK32 = np.uint64(0xFFFFFFFF)

# per-state stop codes; a target takes precedence over the absorbing outside set
_GO, _HIT, _ABSORB = 0, 1, 2


@dataclass
class SimConfig:
    """Batch configuration; trials are independent given (seed, trial_index)."""

    horizon: float
    trials: int = 1000
    max_jumps: int = 1_000_000
    seed: int = 0
    policy: str = "absorb"  # "absorb" | "reflect": handling of the outer radius
    outer_radius: float = float("inf")

    def __post_init__(self) -> None:
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not self.outer_radius > 0:
            raise ValueError(f"outer radius must be positive (inf for none), got {self.outer_radius}")
        if self.trials < 1 or self.max_jumps < 1:
            raise ValueError("trials and max_jumps must be at least 1")
        if self.policy not in ("absorb", "reflect"):
            raise ValueError("policy must be 'absorb' or 'reflect'")


@dataclass
class Trajectory:
    """Sampled path: visited states with holding times and the exit status.

    holding_times[i] is the time spent at states[i]. Paths alive at the
    horizon carry one hold per state (the last one truncated at T); absorbed
    and jump-capped paths occupy their terminal state for zero time, so the
    holding list is one entry shorter than the state list.
    """

    states: np.ndarray
    holding_times: np.ndarray
    status: str
    elapsed: float


@dataclass
class BatchResult:
    """Per-trial outcome arrays (order-independent aggregation)."""

    status: np.ndarray  # int8 codes
    elapsed: np.ndarray
    n_jumps: np.ndarray
    final_state: np.ndarray
    hit: np.ndarray
    horizon: float


def philox4x32(key, ctr) -> tuple[np.ndarray, ...]:
    """Philox4x32-10 on 32-bit words held in uint64 arrays.

    key is two words, ctr four words; the words broadcast against each other
    and the four output words come back with the broadcast shape.
    """
    k0, k1 = (np.uint64(k) for k in key)
    c0, c1, c2, c3 = (np.asarray(c, dtype=np.uint64) for c in ctr)
    for r in range(10):
        if r:
            k0, k1 = (k0 + _PHILOX_W[0]) & _MASK32, (k1 + _PHILOX_W[1]) & _MASK32
        p0, p1 = c0 * _PHILOX_M[0], c2 * _PHILOX_M[1]
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & _MASK32, (p0 >> 32) ^ c3 ^ k1, p0 & _MASK32
    return c0, c1, c2, c3


def _unit(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """53-bit uniforms on [0, 1) from two 32-bit words."""
    return (((a >> 5) << 26) | (b >> 6)).astype(np.float64) * 2.0**-53


def uniform_pairs(seed: int, trials: np.ndarray, first_jump: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniforms (u1, u2) of shape (count, len(trials)) for jumps first_jump.. of each trial.

    Key = seed as two words, counter = (jump lo, jump hi, trial lo, trial hi);
    u1 comes from output words 0-1 and u2 from words 2-3.
    """
    s = int(seed) % 2**64
    jump = np.arange(first_jump, first_jump + count, dtype=np.uint64)[:, None]
    trial = np.asarray(trials, dtype=np.uint64)[None, :]
    a, b, c, d = philox4x32((s & 0xFFFFFFFF, s >> 32), (jump & _MASK32, jump >> 32, trial & _MASK32, trial >> 32))
    return _unit(a, b), _unit(c, d)


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


def _stop_codes(n: int, outside: Optional[np.ndarray], target: Optional[np.ndarray], reflect: bool) -> np.ndarray:
    """Stop code per state: target hit over absorbing outside."""
    code = np.full(n, _GO, dtype=np.int8)
    if outside is not None and not reflect:
        code[outside] = _ABSORB
    if target is not None:
        code[target] = _HIT
    return code


def _empty_batch(n: int, horizon: float) -> BatchResult:
    return BatchResult(
        np.empty(n, dtype=np.int8),
        np.empty(n),
        np.empty(n, dtype=np.int64),
        np.empty(n, dtype=np.int64),
        np.zeros(n, dtype=bool),
        horizon,
    )


def _record(out: BatchResult, rows, state, jumps: int, status, elapsed, hit=False) -> None:
    out.status[rows] = status
    out.elapsed[rows] = elapsed
    out.n_jumps[rows] = jumps
    out.final_state[rows] = state
    out.hit[rows] = hit


def _lockstep(
    rates: RateTable,
    x0: int,
    config: SimConfig,
    stop: np.ndarray,
    outside: Optional[np.ndarray],
    out: BatchResult,
    slots: np.ndarray,
    offset: int = 0,
    path: Optional[tuple[list, list]] = None,
) -> None:
    """Run trials slots + offset to their stopping events; row slots[i] of `out` gets trial slots[i] + offset.

    Trials advance in draw blocks of `count` jumps. Only the next state
    depends on the previous step, so one numpy step per jump moves every
    live trial's jump chain and stores the visited states. Once per block,
    the visited states give the holds Exp(1) / rate (inf on a zero rate,
    nan on a zero draw too) and the stop rule for all rows at once, with
    one add per row for the running time: a trial goes on unless its state
    is a target (status 0, hit) or absorbing outside (status 1), or
    t + hold < T fails (status 0, elapsed T). A stopped trial is recorded
    at its first stopping row; its chain steps on to the block's end and
    is ignored. max_jumps bounds the jumps; the trials left are capped
    (status 2). With `path` (one trial only) arrays of visited states and
    holding times are appended to (states, holds).
    """
    lam, indptr = rates.lam, rates.q.indptr
    cum = rates.cumulative_rows()
    # the state each stored entry jumps to, plus one pad entry: a stopped trial may sit
    # on an empty row, whose search ends at indptr[-1]
    dest = np.append(rates.q.indices, 0).astype(np.intp)
    starts, lasts = indptr[:-1], indptr[1:] - 1
    steps = int(np.diff(indptr).max(initial=1) - 1).bit_length()
    reflect = outside if config.policy == "reflect" else None
    horizon, max_jumps = config.horizon, config.max_jumps
    limit = np.where(stop == _GO, horizon, -np.inf)  # a trial goes on while its next time is below limit[state]

    state = np.full(len(slots), x0, dtype=np.intp)
    t = np.zeros(len(slots))
    step = 0
    with np.errstate(divide="ignore", invalid="ignore"):  # entered once, not per block: it is not free
        while step < max_jumps:
            width = len(slots)
            # blocks grow with the trials' age, so short trials do not step long blocks
            count = min(max(1, _DRAW_BLOCKS // width), max_jumps - step, max(1, step))
            u1, u2 = uniform_pairs(config.seed, slots + offset, step, count)
            chain = np.empty((count + 1, width), dtype=np.intp)
            chain[0] = state
            for k in range(count):
                x = chain[k]
                nxt = dest.take(_row_search(cum, starts[x], lasts[x], u2[k] * lam[x], steps), out=chain[k + 1])
                if reflect is not None:
                    np.copyto(nxt, x, where=reflect[nxt])  # censored jump: the walker stays put
            visited = chain[:-1]
            times = np.empty((count + 1, width))
            times[0] = t
            # a division: a product with 1 / rate rounds differently
            holds = np.divide(-np.log1p(-u1), lam[visited], out=times[1:])
            if path is not None:
                holds = holds[:, 0].copy()  # the running sum below overwrites them
            for k in range(count):  # t + hold summed in jump order; row adds beat an axis-0 cumsum
                np.add(times[k], times[k + 1], out=times[k + 1])
            go = times[1:] < limit[visited]
            if path is not None:  # one trial: its states and holds up to its stopping row
                ran = count if go.all() else int(go[:, 0].argmin())
                path[0].append(chain[1 : ran + 1, 0])
                path[1].append(holds[:ran])
                if ran < count and stop[chain[ran, 0]] == _GO:
                    path[1].append(horizon - times[ran : ran + 1, 0])
            if go.all():
                state, t = chain[-1], times[-1]
            else:
                done = ~go.all(axis=0)
                cols = np.flatnonzero(done)
                k = go[:, cols].argmin(axis=0)  # first stopping row
                last = chain[k, cols]
                c = stop[last]
                _record(out, slots[cols], last, step + k, np.where(c == _ABSORB, 1, 0),
                        np.where(c == _GO, horizon, times[k, cols]), c == _HIT)
                keep = ~done
                if not keep.any():
                    return
                slots, state, t = slots[keep], chain[-1, keep], times[-1, keep]
            step += count
    _record(out, slots, state, step, 2, t)


def gillespie_path(rates: RateTable, x0: int, config: SimConfig, trial_index: int = 0) -> Trajectory:
    """Sample one path; it is trial `trial_index` of run_batch with the same config."""
    outside = _outside_mask(rates.space, x0, config)
    stop = _stop_codes(len(rates.lam), outside, None, config.policy == "reflect")
    out = _empty_batch(1, config.horizon)
    states, holds = [np.full(1, x0, dtype=np.intp)], [np.empty(0)]
    _lockstep(rates, x0, config, stop, outside, out, np.zeros(1, dtype=np.int64), trial_index, (states, holds))
    return Trajectory(
        np.concatenate(states), np.concatenate(holds), _STATUS_BY_CODE[out.status[0]], float(out.elapsed[0])
    )


def _outside_mask(space: DiscreteMMSpace, x0: int, config: SimConfig) -> Optional[np.ndarray]:
    if not np.isfinite(config.outer_radius):
        return None
    return ~open_ball_mask(space, x0, config.outer_radius)


def run_batch(
    rates: RateTable,
    x0: int,
    config: SimConfig,
    target: Optional[np.ndarray] = None,
    outside: Optional[np.ndarray] = None,
) -> BatchResult:
    """Run config.trials independent paths and collect light per-trial records."""
    if outside is None:
        outside = _outside_mask(rates.space, x0, config)
    stop = _stop_codes(len(rates.lam), outside, target, config.policy == "reflect")
    n = config.trials
    out = _empty_batch(n, config.horizon)
    for first in range(0, n, _TRIAL_CHUNK):
        _lockstep(rates, x0, config, stop, outside, out, np.arange(first, min(first + _TRIAL_CHUNK, n)))
    return out


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% binomial score interval; exactly 0 at 0 successes and exactly 1 at n."""
    if n == 0:
        return 0.0, 1.0
    p = successes / n
    denom = 1 + z**2 / n
    center = (p + z**2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / denom
    return (max(0.0, center - half) if successes else 0.0), (min(1.0, center + half) if successes < n else 1.0)


@dataclass
class Estimate:
    value: float
    ci_low: float
    ci_high: float
    n_trials: int
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "ci95": [self.ci_low, self.ci_high],
            "n_trials": self.n_trials,
            "notes": self.notes,
        }


def survival_estimate(rates: RateTable, x0: int, config: SimConfig) -> tuple[Estimate, BatchResult]:
    """Fraction of paths alive at the horizon (conservativeness proxy)."""
    batch = run_batch(rates, x0, config)
    alive = int(np.sum(batch.status == 0))
    lo, hi = wilson_interval(alive, config.trials)
    return Estimate(alive / config.trials, lo, hi, config.trials), batch


def return_probability(
    rates: RateTable,
    x0: int,
    target: Sequence[int],
    outer_radius: float,
    config: SimConfig,
) -> tuple[Estimate, BatchResult]:
    """P[hit the target set before exiting the open ball B(target, R)].

    The exit ball is centered on the target set (gambler's-ruin convention:
    the trial fails once d(., K) >= R). Estimates are monotone nondecreasing
    in R in expectation; censored trials (horizon or jump cap first) count
    as misses and are flagged.
    """
    if not outer_radius > 0:
        raise ValueError(f"outer radius must be positive (inf for none), got {outer_radius}")
    space = rates.space
    target = np.asarray(target, dtype=np.int64)
    if np.isin(x0, target):
        raise ValueError("x0 must lie outside the target set")
    target_mask = np.zeros(space.n_points, dtype=bool)
    target_mask[target] = True
    dist_to_k = np.full(space.n_points, np.inf)
    for _, rows in space.distances_chunked(target, chunk=16):
        np.minimum(dist_to_k, rows.min(axis=0), out=dist_to_k)
    outside = dist_to_k >= outer_radius
    notes = []
    reachable = rates.lam[x0] > 0
    batch = run_batch(rates, x0, config, target=target_mask, outside=outside)
    hits = int(np.sum(batch.hit))
    censored = int(np.sum((~batch.hit) & (batch.status != 1)))
    if censored:
        notes.append(f"{censored} trials censored by horizon/jump cap before hitting or exiting")
    if not reachable and hits == 0:
        notes.append("target unreachable from x0 (zero total rate)")
    lo, hi = wilson_interval(hits, config.trials)
    return Estimate(hits / config.trials, lo, hi, config.trials, notes), batch


@dataclass
class ExplosionSummary:
    capped_fraction: float
    absorbed_fraction: float
    alive_fraction: float
    median_elapsed_capped: Optional[float]
    elapsed_quantiles: dict
    explosion_suspected: bool
    truncation_too_small: bool

    def to_dict(self) -> dict:
        return asdict(self)


def explosion_diagnostic(batch: BatchResult) -> ExplosionSummary:
    """Separate 'explosion suspected' from 'truncation too small'.

    Explosion is flagged when a substantial share of paths hit the jump cap
    with elapsed time far below the horizon (holding times accumulating);
    dominant boundary absorption points at the truncation instead.
    """
    if len(batch.status) == 0:
        raise ValueError("empty trajectory batch")
    capped = batch.status == 2
    absorbed = batch.status == 1
    alive = batch.status == 0
    med_capped = float(np.median(batch.elapsed[capped])) if capped.any() else None
    quantiles = {
        q: float(np.quantile(batch.elapsed, q)) for q in (0.1, 0.5, 0.9)
    }
    explosion = bool(capped.mean() >= 0.2 and med_capped is not None and med_capped < batch.horizon / 10)
    truncation = bool(absorbed.mean() >= 0.5)
    return ExplosionSummary(
        float(capped.mean()),
        float(absorbed.mean()),
        float(alive.mean()),
        med_capped,
        quantiles,
        explosion,
        truncation,
    )


def occupation_measure(traj: Trajectory, n_points: int) -> np.ndarray:
    """Time-weighted empirical occupation distribution of one path."""
    occ = np.zeros(n_points)
    np.add.at(occ, traj.states[: len(traj.holding_times)], traj.holding_times)
    total = occ.sum()
    return occ / total if total > 0 else occ
