"""One repetition of a workload, in a fresh process.

    python3 benchmark/child.py WORKLOAD SEED TRACE WORKDIR

WORKDIR must be a new, empty directory. The child writes the workload's
specs there, times `jdlab.specio.load_spec_or_built` on each spec (each
instance is freed before the next step), times `jdlab.cli.main` for each
command with its own output directory, checks each report, and prints one
JSON line. With TRACE=1 the jdlab boundaries are wrapped for the commands
only, and the line carries one raw span record per command.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import jdlab.cli  # noqa: E402
import jdlab.specio  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Cheap set-ups are repeated, half before and half after the commands, until
# they add up to SETUP_BUDGET_S; the run reports the median of all of them.
# Spreading them over the repetition keeps a short slow phase of the host
# from deciding a run's set-up time.
SETUP_BUDGET_S = 0.5
SETUP_MAX_REPEATS = 24


def time_setups(spec_paths, samples: list[float], until_s: float, max_samples: int) -> None:
    """Append set-up times (all specs built once, then freed) until they add
    up to `until_s` or number `max_samples`."""
    while sum(samples) < until_s and len(samples) < max_samples:
        seconds = 0.0
        for path in spec_paths:
            t0 = perf_counter()
            built = jdlab.specio.load_spec_or_built(str(path))
            seconds += perf_counter() - t0
            del built
            gc.collect()
        samples.append(seconds)


def run(workload: str, seed: int, trace: bool, workdir: Path) -> dict:
    cmds = workloads.commands(workload, seed)
    spec_paths = {}
    for name in sorted({c.spec for c in cmds}):
        spec_paths[name] = workdir / f"{name}.json"
        spec_paths[name].write_text(json.dumps(workloads.SPECS[name]))

    setups: list[float] = []
    time_setups(spec_paths.values(), setups, SETUP_BUDGET_S / 2, SETUP_MAX_REPEATS // 2)

    tracer = None
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer)

    results = []
    for cmd in cmds:
        out_dir = workdir / f"out-{cmd.label}"
        argv = cmd.argv(spec_paths[cmd.spec], out_dir)
        problems: list[str] = []
        t0 = perf_counter()
        try:
            with tracer.span("cli.command") if tracer else nullcontext():
                code = jdlab.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception:  # any crash is a failed operation, not a failed benchmark
            code = None
            problems.append(traceback.format_exc(limit=4))
        seconds = perf_counter() - t0
        if code != 0 and not problems:
            problems.append(f"exit code {code}")
        if not problems:
            try:
                problems = cmd.check(out_dir, cmd.label)
            except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
                problems = [f"report unreadable: {exc!r}"]
        record = {"label": cmd.label, "seconds": seconds, "problems": problems}
        if tracer is not None:
            record["raw"] = tracer.harvest()
        results.append(record)
    if tracer is not None:
        tracer.uninstall()

    time_setups(spec_paths.values(), setups, SETUP_BUDGET_S, SETUP_MAX_REPEATS)
    return {
        "setup_samples": setups,
        "command_s": sum(r["seconds"] for r in results),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "commands": results,
        "absent": tracer.absent if tracer else [],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }


if __name__ == "__main__":
    workload, seed, trace, workdir = sys.argv[1:5]
    print(json.dumps(run(workload, int(seed), trace == "1", Path(workdir))))
