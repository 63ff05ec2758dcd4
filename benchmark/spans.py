"""Outside-in tracing: spans around jdlab's public functions, and layer metrics.

`install(tracer)` replaces each public function at the attribute where the
calling layer looks it up (for example `jdlab.cli.capacity_scan`, or
`jdlab.capacity.form_matrix`, which `equilibrium_potential` reads from its
own module) with a wrapper that records a span. No file of the program is
changed. A boundary that a later version of the program no longer has is
listed in `tracer.absent`, and the metrics that depend on it read 0.

Spans nest: each one records its parent, and a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

# Mean jumps per trial at or above which a batch counts as long-trial work
# (us per jump) rather than short-trial work (us per trial).
LONG_TRIAL_JUMPS = 100

MAX_KEYS = ("unknowns_max", "max_residual")


def _accumulate(totals: dict[str, float], key: str, value: float) -> None:
    """Add `value` to `totals[key]`, or keep the maximum for MAX_KEYS."""
    if key in MAX_KEYS:
        totals[key] = max(totals.get(key, value), value)
    else:
        totals[key] = totals.get(key, 0.0) + value


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> float:
        span = self.spans[sid]
        span[2] = perf_counter()
        self._stack.pop()
        return span[2] - span[1]

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def add(self, key: str, value: float) -> None:
        _accumulate(self.counters, key, value)

    def _count(self, hook, *args) -> None:
        """Run a counter hook; a return value it cannot read marks it absent."""
        try:
            hook(self, *args)
        except (AttributeError, TypeError, ValueError, IndexError) as exc:
            label = f"{hook.__name__}: {type(exc).__name__}"
            if label not in self.absent:
                self.absent.append(label)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span named `name` around every call of `owner.attr`."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self._close(sid)
            if on_result is not None:
                self._count(on_result, result, seconds)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def wrap_generator(self, owner, attr: str, name: str, on_item=None) -> None:
        """Record one span per `next` of the generator that `owner.attr` returns."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(sid)
                if on_item is not None:
                    self._count(on_item, item)
                yield item

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def harvest(self) -> dict[str, float]:
        """Raw per-name totals, self times and call counts, then reset.

        A span nested in a span of the same name (a builder calling another
        wrapped builder) adds to the call count but not to the total.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        raw = dict(self.counters)
        for sid, (name, start, end, parent) in enumerate(spans):
            _accumulate(raw, f"n:{name}", 1)
            _accumulate(raw, f"self:{name}", (end - start) - child[sid])
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                _accumulate(raw, f"t:{name}", end - start)
        self.spans.clear()
        self.counters.clear()
        return raw


def combine(raws: list[dict[str, float]]) -> dict[str, float]:
    """Sum raw records of several commands (maxima for MAX_KEYS)."""
    out: dict[str, float] = {}
    for raw in raws:
        for key, value in raw.items():
            _accumulate(out, key, value)
    return out


# -- counters read from return values -----------------------------------------


def _csr_bytes(matrix) -> int:
    return int(matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)


def _on_load(tracer: Tracer, built, _seconds: float) -> None:
    tracer.add("n_points", built.space.n_points)
    if built.kernel is not None:
        tracer.add("kernel_nnz", built.kernel.matrix.nnz)
        tracer.add("kernel_bytes", _csr_bytes(built.kernel.matrix))


def _on_rows(tracer: Tracer, item) -> None:
    idx, rows = item
    tracer.add("distance_rows", len(idx))
    tracer.add("distance_row_bytes", rows.shape[0] * rows.shape[-1] * 8)


def _on_pair_distances(tracer: Tracer, dist, _seconds: float) -> None:
    tracer.add("pair_distances_nnz", len(dist))


def _on_recurrence(tracer: Tracer, report, _seconds: float) -> None:
    tracer.add("radii", len(report.radii))


def _on_potential(tracer: Tracer, solve, _seconds: float) -> None:
    """Unknowns from the ball mask; direct versus CG by the public DIRECT_LIMIT."""
    free = solve.ball.copy()
    free[solve.inner] = False
    unknowns = int(free.sum())
    tracer.add("solves", 1 if unknowns else 0)
    direct_limit = getattr(sys.modules.get("jdlab.capacity"), "DIRECT_LIMIT", None)
    if direct_limit is not None and unknowns >= direct_limit:
        tracer.add("cg_solves", 1)
    tracer.add("unknowns_max", unknowns)
    tracer.add("max_residual", float(solve.residual))


def _on_batch(tracer: Tracer, batch, seconds: float) -> None:
    trials = len(batch.status)
    jumps = int(batch.n_jumps.sum())
    tracer.add("trials", trials)
    tracer.add("jumps", jumps)
    if jumps >= LONG_TRIAL_JUMPS * trials:
        tracer.add("long_batch_s", seconds)
        tracer.add("long_jumps", jumps)
    else:
        tracer.add("short_batch_s", seconds)
        tracer.add("short_trials", trials)


KERNEL_BUILDERS = (
    "lattice_nn",
    "stable_like",
    "stack_space",
    "weighted_line",
    "model_manifold",
    "mixed_graph_from_params",
    "explicit_kernel",
)

# (module, attribute path, span name, result hook): each function is wrapped
# where its caller looks it up. The builders are read by specio through
# `kmod`, i.e. from jdlab.kernels.
BOUNDARIES = [
    ("jdlab.cli", "load_spec_or_built", "specio.load", _on_load),
    ("jdlab.cli", "split_supports", "criteria.split_supports", None),
    ("jdlab.cli", "volume_growth_report", "criteria.volume", None),
    ("jdlab.cli", "recurrence_report", "criteria.recurrence", _on_recurrence),
    ("jdlab.cli", "capacity_scan", "capacity.scan", None),
    ("jdlab.cli", "jump_rates", "forms.jump_rates", None),
    ("jdlab.cli", "survival_estimate", "simulate.survival", None),
    ("jdlab.cli", "return_probability", "simulate.return", None),
    ("jdlab.cli", "write_json", "cli.write", None),
    *[("jdlab.kernels", b, "kernels.build", None) for b in KERNEL_BUILDERS],
    ("jdlab.capacity", "equilibrium_potential", "capacity.potential", _on_potential),
    ("jdlab.capacity", "form_matrix", "forms.form_matrix", None),
    ("jdlab.capacity", "form_energy", "forms.energy", None),
    ("jdlab.simulate", "run_batch", "simulate.run_batch", _on_batch),
    ("jdlab.forms", "JumpKernel.pair_distances", "forms.pair_distances", _on_pair_distances),
    ("jdlab.forms", "RateTable.cumulative_rows", "forms.cumulative_rows", None),
]
GENERATOR_BOUNDARIES = [
    ("jdlab.space", "DiscreteMMSpace.distances_chunked", "space.distance_rows", _on_rows),
]


def _resolve(module_name: str, path: str):
    """(owner, attribute) for a dotted path, or None if any part is missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary of the importable jdlab package.

    A boundary that cannot be found is recorded in `tracer.absent`.
    """
    if _resolve("jdlab.capacity", "DIRECT_LIMIT") is None:
        tracer.absent.append("jdlab.capacity.DIRECT_LIMIT")
    for generator, table in ((False, BOUNDARIES), (True, GENERATOR_BOUNDARIES)):
        for module_name, path, name, hook in table:
            found = _resolve(module_name, path)
            if found is None:
                tracer.absent.append(f"{module_name}.{path}")
                continue
            wrap = tracer.wrap_generator if generator else tracer.wrap
            wrap(*found, name, hook)


# -- layer metrics --------------------------------------------------------------


def _ratio(num: float, den: float, scale: float) -> float:
    return scale * num / den if den else 0.0


# name -> (unit, value from a combined raw record)
LAYER_METRICS = {
    "kernels.build_s": ("s", lambda r: r.get("t:kernels.build", 0.0)),
    "kernels.n_points": ("count", lambda r: r.get("n_points", 0)),
    "kernels.kernel_nnz": ("count", lambda r: r.get("kernel_nnz", 0)),
    "kernels.kernel_mb": ("MB", lambda r: r.get("kernel_bytes", 0) / 1e6),
    "specio.load_s": ("s", lambda r: r.get("t:specio.load", 0.0)),
    "specio.self_s": ("s", lambda r: r.get("self:specio.load", 0.0)),
    "space.distance_rows_s": ("s", lambda r: r.get("t:space.distance_rows", 0.0)),
    "space.distance_rows": ("count", lambda r: r.get("distance_rows", 0)),
    "space.distance_row_mb": ("MB", lambda r: r.get("distance_row_bytes", 0) / 1e6),
    "forms.pair_distances_s": ("s", lambda r: r.get("t:forms.pair_distances", 0.0)),
    "forms.pair_distances_self_s": ("s", lambda r: r.get("self:forms.pair_distances", 0.0)),
    "forms.pair_distances_nnz": ("count", lambda r: r.get("pair_distances_nnz", 0)),
    "forms.form_matrix_s": ("s", lambda r: r.get("t:forms.form_matrix", 0.0)),
    "forms.form_matrix_calls": ("count", lambda r: r.get("n:forms.form_matrix", 0)),
    "forms.energy_s": ("s", lambda r: r.get("t:forms.energy", 0.0)),
    "forms.energy_calls": ("count", lambda r: r.get("n:forms.energy", 0)),
    "forms.jump_rates_s": ("s", lambda r: r.get("t:forms.jump_rates", 0.0)),
    "forms.cumulative_rows_s": ("s", lambda r: r.get("t:forms.cumulative_rows", 0.0)),
    "forms.cumulative_rows_calls": ("count", lambda r: r.get("n:forms.cumulative_rows", 0)),
    "criteria.volume_s": ("s", lambda r: r.get("t:criteria.volume", 0.0)),
    "criteria.recurrence_s": ("s", lambda r: r.get("t:criteria.recurrence", 0.0)),
    "criteria.recurrence_self_s": ("s", lambda r: r.get("self:criteria.recurrence", 0.0)),
    "criteria.radii": ("count", lambda r: r.get("radii", 0)),
    "capacity.scan_s": ("s", lambda r: r.get("t:capacity.scan", 0.0)),
    "capacity.potential_s": ("s", lambda r: r.get("t:capacity.potential", 0.0)),
    "capacity.potential_self_s": ("s", lambda r: r.get("self:capacity.potential", 0.0)),
    "capacity.solves": ("count", lambda r: r.get("solves", 0)),
    "capacity.cg_solves": ("count", lambda r: r.get("cg_solves", 0)),
    "capacity.unknowns_max": ("count", lambda r: r.get("unknowns_max", 0)),
    "capacity.max_residual": ("1", lambda r: r.get("max_residual", 0.0)),
    "simulate.run_batch_s": ("s", lambda r: r.get("t:simulate.run_batch", 0.0)),
    "simulate.batches": ("count", lambda r: r.get("n:simulate.run_batch", 0)),
    "simulate.trials": ("count", lambda r: r.get("trials", 0)),
    "simulate.jumps": ("count", lambda r: r.get("jumps", 0)),
    "simulate.us_per_jump_long": ("us", lambda r: _ratio(r.get("long_batch_s", 0.0), r.get("long_jumps", 0), 1e6)),
    "simulate.us_per_trial_short": ("us", lambda r: _ratio(r.get("short_batch_s", 0.0), r.get("short_trials", 0), 1e6)),
    "cli.write_s": ("s", lambda r: r.get("t:cli.write", 0.0)),
    "cli.self_s": ("s", lambda r: r.get("self:cli.command", 0.0)),
    "cli.command_s": ("s", lambda r: r.get("t:cli.command", 0.0)),
}


def layer_metrics(raw: dict[str, float]) -> dict[str, float]:
    return {name: float(fn(raw)) for name, (_unit, fn) in LAYER_METRICS.items()}
