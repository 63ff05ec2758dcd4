"""jdlab benchmark: CLI time-to-verdict, build cost, memory and per-layer spans.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
`src/`). The run repeats the workload, each repetition in a fresh child
process with a fresh output directory, until the next repetition would end
after S seconds (at least one repetition). It prints one line of run details
(environment, per-repetition samples, failures) and, last, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Each metric is the median over the repetitions. `--trace 0` reports the
end-to-end metrics; `--trace 1` wraps jdlab's public functions from outside
and reports the per-layer metrics (see README.md in this directory).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".bench_work"
RUN_LIMIT_S = 170.0  # no repetition starts that could end after this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = "1"  # every workload is single-threaded; at most nproc


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("JDLAB_THREADS", None)
    env.update({var: THREADS for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(workload: str, seed: int, trace: bool, workdir: Path, timeout: float) -> tuple[dict | None, str]:
    """One repetition; returns (parsed result or None, error text)."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), "1" if trace else "0", str(workdir)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"repetition killed after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1]), ""
        except json.JSONDecodeError:
            pass
    return None, f"child exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"


def end_to_end(reps: list[dict], attempted: int, failed: int) -> dict[str, tuple[float, str]]:
    return {
        "command_s": (statistics.median(r["command_s"] for r in reps), "s"),
        "setup_s": (statistics.median(t for r in reps for t in r["setup_samples"]), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        # 1 - fail_rate: an end-to-end metric may not read 0 on a healthy run
        "pass_rate": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(reps: list[dict]) -> tuple[dict[str, tuple[float, str]], dict[str, dict[str, float]]]:
    """Workload layer metrics and, for the details line, per-command ones."""
    per_rep = [spans.layer_metrics(spans.combine([c["raw"] for c in r["commands"]])) for r in reps]
    metrics = {
        name: (statistics.median(m[name] for m in per_rep), unit)
        for name, (unit, _fn) in spans.LAYER_METRICS.items()
    }
    labels = [c["label"] for c in reps[0]["commands"]]
    by_command = {}
    for k, label in enumerate(labels):
        cmd_metrics = [spans.layer_metrics(r["commands"][k]["raw"]) for r in reps]
        by_command[label] = {
            name: statistics.median(m[name] for m in cmd_metrics)
            for name in spans.LAYER_METRICS
            if any(m[name] for m in cmd_metrics)
        }
    return metrics, by_command


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "jdlab" / "cli.py").is_file():
        print(f"error: no jdlab source tree at {ROOT / 'src'}; run from a jdlab checkout", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    n_commands = len(workloads.commands(args.workload, args.seed))
    started = time.monotonic()
    reps, walls, errors = [], [], []
    attempted = failed = 0
    WORK_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        while True:
            elapsed = time.monotonic() - started
            if walls:
                expected = statistics.median(walls)
                if elapsed + expected > args.seconds or elapsed + expected > RUN_LIMIT_S:
                    break
            workdir = run_dir / f"rep{len(walls)}"
            workdir.mkdir()
            t0 = time.monotonic()
            result, error = run_child(args.workload, args.seed, trace, workdir, RUN_LIMIT_S - elapsed)
            walls.append(time.monotonic() - t0)
            shutil.rmtree(workdir, ignore_errors=True)
            attempted += n_commands
            if result is None:
                failed += n_commands
                errors.append(error)
                continue
            reps.append(result)
            for c in result["commands"]:
                if c["problems"]:
                    failed += 1
                    errors.append(f"{c['label']}: " + "; ".join(c["problems"]))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    if not reps:
        print("error: no repetition completed\n" + "\n".join(errors), file=sys.stderr)
        return 1

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": len(reps),
        "environment": {**reps[0]["versions"], "nproc": len(os.sched_getaffinity(0)), **{v: THREADS for v in THREAD_VARS}},
        "samples": {k: [r[k] for r in reps] for k in ("command_s", "setup_samples", "peak_rss_mb")},
        "errors": errors,
    }
    if trace:
        metrics, details["layers_by_command"] = per_layer(reps)
        details["absent"] = sorted({a for r in reps for a in r["absent"]})
    else:
        metrics = end_to_end(reps, attempted, failed)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
