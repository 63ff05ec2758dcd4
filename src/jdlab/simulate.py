"""Monte-Carlo simulation of the pure-jump process defined by a rate table.

`sample_estimates` samples the batches and estimates: survival to the
horizon (the conservativeness proxy) and, given a target set, return to it
before leaving a ball about it (the recurrence proxy), from one sampler
core. Trials advance in lockstep, one draw block at a time. Within a block
only the jump chain is sequential: one numpy step moves every live trial
by one jump, with a row search whose first binary-lifting level is a
lookup in per-state tables. The holding times, elapsed times and stop
tests of the whole block are then computed from the visited states at
once, and trials that stopped are recorded and compacted out of the live
set. A reflecting outer set is part of the jump
table: a jump onto it points back to its own row. Stop rules never change
a jump, so estimates whose walkers reflect off the same set (the survival
and return estimates under absorb) share one sampling pass, each rule
recording its own batch. Randomness comes from a counter-based
Philox4x32-10 generator (Salmon et al., SC'11, "Parallel random numbers:
as easy as 1, 2, 3"): jump k of trial i under seed s uses the block
philox(key=s, counter=(k, i)), so every draw is a pure function of (seed,
trial, jump) and a batch is reproducible bit for bit however its trials
are grouped.
Explosion cannot be observed directly on a finite truncation: it is
inferred from jump-cap hits with stalled elapsed time, and separated from
plain truncation artifacts (boundary absorption).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .forms import RateTable
from .space import DiscreteMMSpace, open_ball_mask, row_blocks

RNG_CONTRACT = "philox4x32-10/1"  # bump whenever (seed, trial, jump) -> draws changes
# Philox blocks per refill (count x width) and trials per chunk, so that a chunk's
# first, one-jump block fits too. A call costs ~90 us plus ~35 ns per block up to
# this size and ~60 ns per block beyond it (2-core x86 VM): the per-call cost rules.
_DRAW_BUDGET = 1 << 13

# Philox4x32 multipliers and Weyl key increments (Random123)
_PHILOX_M = (np.uint64(0xD2511F53), np.uint64(0xCD9E8D57))
_PHILOX_W = (np.uint64(0x9E3779B9), np.uint64(0xBB67AE85))
_MASK32 = np.uint64(0xFFFFFFFF)

# per-state stop codes; a target takes precedence over the absorbing outside set
_GO, _HIT, _ABSORB = 0, 1, 2


@dataclass
class SimConfig:
    """Batch configuration; trials are independent given (seed, trial)."""

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
        # the Philox key holds two 32-bit words: any other seed would sample the trials of another
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")


class Work(NamedTuple):
    """The work of a sampling run: Philox blocks drawn and chain jumps, each shared chain counted once."""

    draws: int
    jumps: int


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
    s = int(seed)  # in [0, 2^64), as SimConfig checks
    jump = np.arange(first_jump, first_jump + count, dtype=np.uint64)[:, None]
    trial = np.asarray(trials, dtype=np.uint64)[None, :]
    a, b, c, d = philox4x32((s & 0xFFFFFFFF, s >> 32), (jump & _MASK32, jump >> 32, trial & _MASK32, trial >> 32))
    return _unit(a, b), _unit(c, d)


def _least_passing(thr: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Per state, the least double u in [0, 1] with thr <= u * lam, or 1 if no u < 1 passes.

    A product rounds monotonically in u (an infinite lam gives nan at
    u = 0, which fails), so for u in [0, 1) the test passes exactly when
    u >= the result. Bisection on the bit patterns of [0, 1], which order
    like the doubles, starting from a bracket of a few ulps about thr / lam
    and widened to [0, 1] where that bracket misses.
    """
    one = np.float64(1.0).view(np.int64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):

        def passes(bits: np.ndarray) -> np.ndarray:
            return thr <= bits.view(np.float64) * lam

        guess = np.clip(np.nan_to_num(thr / lam, nan=0.0, posinf=1.0), 0.0, 1.0).view(np.int64)
        lo, hi = np.maximum(guess - 4, 0), np.minimum(guess + 4, one)
        miss = ~((hi == one) | passes(hi)) | ((lo > 0) & passes(lo - 1))
        lo[miss], hi[miss] = 0, one
        while (active := lo < hi).any():
            mid = (lo + hi) >> 1
            ok = passes(mid)
            hi = np.where(active & ok, mid, hi)
            lo = np.where(active & ~ok, mid + 1, lo)
    return hi.view(np.float64)


class _RowSearch:
    """Row-clamped searchsorted over a CSR table of cumulative rates, driven by uniforms.

    search(x, u, out) writes values[p] for each row x and u in [0, 1), where
    p = lo + min(searchsorted(cum[lo:last+1], u * lam[x], "right"), last - lo)
    is the entry a walker at x jumps along for the uniform u (rows
    nondecreasing; p = lo on an empty row) and `values` holds one value per
    entry plus one for p = nnz. The search is binary lifting. Its first
    level tests cum[top - 1] <= u * lam[x] with top = min(lo + 2^(levels-1),
    end) and end = max(last, lo); the test holds exactly when
    u >= ustar[x] (see _least_passing), and a table holds the level's two
    outcomes side by side: positions, or values when the first level is the
    only one. Each later level clamps its candidate to the row's end rather
    than testing it. Positions are kept as q = p - 1, so a level reads cum
    at its candidate directly.
    """

    def __init__(self, indptr: np.ndarray, cum: np.ndarray, lam: np.ndarray, values: np.ndarray) -> None:
        lo = indptr[:-1]
        end = np.maximum(indptr[1:] - 1, lo)
        self.levels = int(np.diff(indptr).max(initial=1) - 1).bit_length()
        top = np.minimum(lo + (1 << self.levels >> 1), end) - 1
        # rows of at most one entry need no level; their answer is the value at lo
        self.ustar = _least_passing(cum.take(top) if self.levels else np.zeros(len(lo)), lam)
        self.values = np.roll(values, -1)  # values[q + 1] at q; q = -1 wraps to values[0]
        self.first = np.concatenate((lo - 1, top))  # [x]: the first level fails at row x; [x + n]: it passes
        if self.levels <= 1:
            self.first = self.values.take(self.first)
        self.n, self.lam, self.cum, self.end = len(lo), lam, cum, end - 1

    def __call__(self, x: np.ndarray, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        first = x + self.n * (u >= self.ustar.take(x))
        if self.levels <= 1:
            return self.first.take(first, out=out)
        q = self.first.take(first)
        v = u * self.lam.take(x)
        end = self.end.take(x)
        for k in reversed(range(self.levels - 1)):
            cand = np.minimum(q + (1 << k), end)
            q = np.where(self.cum.take(cand) <= v, cand, q)
        return self.values.take(q, out=out)


def _jumps(rates: RateTable, walls: Optional[np.ndarray] = None) -> _RowSearch:
    """The search from a uniform to the state a walker jumps to; a pad serves a trial on an empty trailing row.

    A jump onto `walls` is censored: its entry points back to its own row.
    """
    dest = np.append(rates.q.indices, 0).astype(np.intp)
    if walls is not None:
        counts = np.diff(rates.q.indptr)
        for rows, lo, hi in row_blocks(rates.q.indptr):
            dest[lo:hi] = np.where(walls[dest[lo:hi]], np.repeat(rows, counts[rows]), dest[lo:hi])
    return _RowSearch(rates.q.indptr, rates.cumulative_rows(), rates.lam, dest)


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
    search: _RowSearch,
    x0: int,
    config: SimConfig,
    rules: Sequence[tuple[np.ndarray, BatchResult]],
    slots: np.ndarray,
) -> int:
    """Run trials `slots` until every rule has stopped them; batch row slots[i] is trial slots[i].

    The rules are (stop codes, batch) pairs that share one jump chain.
    Trials advance in draw blocks of `count` >= 1 jumps, with count x width
    within _DRAW_BUDGET. Only the next state depends on the previous step,
    so one `search` call per jump moves every live trial's jump chain and
    stores the visited states. Once per block, the visited states give the
    holds Exp(1) / rate (inf on a zero rate, nan on a zero draw too) and,
    for every rule, the stop test of all rows at once, with one add per row
    for the running time: under a rule a trial goes on unless its state is
    a target (status 0, hit) or absorbing outside (status 1), or
    t + hold < T fails (status 0, elapsed T). Each rule records a trial at
    its own first stopping row and is tested only on the trials it has not
    stopped; a trial's chain steps on while any rule is pending and is
    compacted out once none is. max_jumps bounds the jumps; the rules still
    pending are capped (status 2). Returns the number of Philox blocks
    drawn.
    """
    lam, horizon, max_jumps = search.lam, config.horizon, config.max_jumps
    # per rule, a trial goes on while its next time is below limit[state]
    limits = [np.where(stop == _GO, horizon, -np.inf) for stop, _ in rules]
    state = np.full(len(slots), x0, dtype=np.intp)
    t = np.zeros(len(slots))
    # rule r is bit r: pend[i] holds the rules that have not stopped trial slots[i] yet,
    # and left[r] counts the trials rule r has not stopped
    pend = np.full(len(slots), (1 << len(rules)) - 1, dtype=np.int64)
    left = [len(slots)] * len(rules)
    step = draws = 0
    with np.errstate(divide="ignore", invalid="ignore"):  # entered once, not per block: it is not free
        while step < max_jumps:
            width = len(slots)
            # blocks grow with the trials' age, so short trials do not step long blocks
            count = min(max(1, _DRAW_BUDGET // width), max_jumps - step, max(1, step))
            u1, u2 = uniform_pairs(config.seed, slots, step, count)
            draws += u1.size
            chain = np.empty((count + 1, width), dtype=np.intp)
            chain[0] = state
            for k in range(count):
                search(chain[k], u2[k], chain[k + 1])
            visited = chain[:-1]
            times = np.empty((count + 1, width))
            times[0] = t
            # a division: a product with 1 / rate rounds differently
            np.divide(-np.log1p(-u1), lam[visited], out=times[1:])
            for k in range(count):  # t + hold summed in jump order; row adds beat an axis-0 cumsum
                np.add(times[k], times[k + 1], out=times[k + 1])
            ended = False
            for r, ((stop, out), limit) in enumerate(zip(rules, limits)):
                if left[r] == width:
                    lanes, go = None, times[1:] < limit[visited]
                elif left[r]:
                    lanes = np.flatnonzero(pend & (1 << r))
                    go = times[1:].take(lanes, axis=1) < limit[visited.take(lanes, axis=1)]
                else:
                    continue
                stopped = np.flatnonzero(~go.all(axis=0))
                if len(stopped):
                    k = go.take(stopped, axis=1).argmin(axis=0)  # first stopping row
                    cols = stopped if lanes is None else lanes[stopped]
                    last = chain[k, cols]
                    c = stop[last]
                    _record(out, slots[cols], last, step + k, np.where(c == _ABSORB, 1, 0),
                            np.where(c == _GO, horizon, times[k, cols]), c == _HIT)
                    pend[cols] ^= 1 << r
                    left[r] -= len(cols)
                    ended = True
            if ended:
                keep = pend != 0
                if not keep.any():
                    return draws
                # 1-D masks: a mask beside an integer index, as in chain[-1, keep], is several times slower
                slots, pend, state, t = slots[keep], pend[keep], chain[-1][keep], times[-1][keep]
            else:
                state, t = chain[-1], times[-1]
            step += count
    for r, (_, out) in enumerate(rules):
        live = (pend & (1 << r)) != 0
        _record(out, slots[live], state[live], step, 2, t[live])
    return draws


def _outside_mask(space: DiscreteMMSpace, x0: int, config: SimConfig) -> Optional[np.ndarray]:
    if not np.isfinite(config.outer_radius):
        return None
    return ~open_ball_mask(space, x0, config.outer_radius)


def _walls(outside: Optional[np.ndarray], config: SimConfig) -> Optional[np.ndarray]:
    """The states a walker reflects off: the outside set under reflect, if it holds any state."""
    return outside if config.policy == "reflect" and outside is not None and outside.any() else None


def _run(
    rates: RateTable, x0: int, config: SimConfig, sets: Sequence[tuple[Optional[np.ndarray], Optional[np.ndarray]]]
) -> tuple[list[BatchResult], Work]:
    """One batch per (target, outside) pair, and the sampling work.

    The outside set only stops trials unless the policy reflects off it, so
    estimates whose walkers reflect off the same set follow the same chains
    and share one sampling pass: one search with those walls, and one
    _lockstep call per trial chunk. A trial's chain in a pass is as long as
    the most jumps any of the pass's batches records for it.
    """
    reflect = config.policy == "reflect"
    batches = []
    passes: dict[Optional[bytes], tuple[Optional[np.ndarray], list]] = {}
    for target, outside in sets:
        out = _empty_batch(config.trials, config.horizon)
        batches.append(out)
        walls = _walls(outside, config)
        key = None if walls is None else walls.tobytes()
        passes.setdefault(key, (walls, []))[1].append((_stop_codes(len(rates.lam), outside, target, reflect), out))
    draws = jumps = 0
    for walls, rules in passes.values():
        search = _jumps(rates, walls)
        for first in range(0, config.trials, _DRAW_BUDGET):
            slots = np.arange(first, min(first + _DRAW_BUDGET, config.trials))
            draws += _lockstep(search, x0, config, rules, slots)
        jumps += int(np.max([out.n_jumps for _, out in rules], axis=0).sum())
    return batches, Work(draws, jumps)


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


def _survival(batch: BatchResult, config: SimConfig) -> Estimate:
    alive = int(np.sum(batch.status == 0))
    lo, hi = wilson_interval(alive, config.trials)
    return Estimate(alive / config.trials, lo, hi, config.trials)


def _return_sets(
    rates: RateTable, x0: int, target: Sequence[int], outer_radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """Target mask and exit set d(., K) >= R of a return estimate."""
    space = rates.space
    if len(target) == 0:
        raise ValueError("target set K is empty")
    target = space.point_ids("target", target)
    if np.isin(x0, target):
        raise ValueError("x0 must lie outside the target set")
    target_mask = np.zeros(space.n_points, dtype=bool)
    target_mask[target] = True
    dist_to_k = np.full(space.n_points, np.inf)
    for _, rows in space.distances_chunked(target):
        np.minimum(dist_to_k, rows.min(axis=0), out=dist_to_k)
    return target_mask, dist_to_k >= outer_radius


def _returned(batch: BatchResult, rates: RateTable, x0: int, config: SimConfig) -> Estimate:
    notes = []
    hits = int(np.sum(batch.hit))
    censored = int(np.sum((~batch.hit) & (batch.status != 1)))
    if censored:
        notes.append(f"{censored} trials censored by horizon/jump cap before hitting or exiting")
    if not rates.lam[x0] > 0 and hits == 0:
        notes.append("target unreachable from x0 (zero total rate)")
    lo, hi = wilson_interval(hits, config.trials)
    return Estimate(hits / config.trials, lo, hi, config.trials, notes)


def sample_estimates(
    rates: RateTable, x0: int, config: SimConfig, target: Optional[Sequence[int]] = None
) -> tuple[list[tuple[Estimate, BatchResult]], Work]:
    """The survival estimate, then the return estimate given a target set K; and the sampling work.

    Survival is the fraction of trials alive at the horizon (the
    conservativeness proxy); the outside set is d(., x0) >= R, with
    R = config.outer_radius. The return estimate is P[hit K before exiting
    the open ball B(K, R)]: the exit ball is centred on K (gambler's-ruin
    convention: a trial fails once d(., K) >= R), the estimate is monotone
    nondecreasing in R in expectation, and censored trials (horizon or jump
    cap first) count as misses and are flagged in its notes. The two
    estimates share one sampling pass whenever their walkers reflect off
    the same set, which is always the case under absorb. x0 and the ids of
    K are integer point ids in [0, n), K is not empty, and x0 lies outside
    K; anything else is a ValueError.
    """
    rates.space.point_ids("x0", [x0])
    sets = [(None, _outside_mask(rates.space, x0, config))]
    if target is not None:
        sets.append(_return_sets(rates, x0, target, config.outer_radius))
    batches, work = _run(rates, x0, config, sets)
    estimates = [(_survival(batches[0], config), batches[0])]
    if target is not None:
        estimates.append((_returned(batches[1], rates, x0, config), batches[1]))
    return estimates, work


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

