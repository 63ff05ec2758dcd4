"""Command-line orchestration: build, criteria, simulate, capacity, report.

Exit codes: 0 success (regardless of verdict), 2 user error (bad spec,
missing fields, infeasible K), 3 numerical failure (solver breakdown).
Every command writes a run manifest next to its outputs; output files
reference the manifest by name, and reruns with identical inputs and seeds
reproduce outputs byte for byte (wall time lives only in the manifest).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .capacity import SolverFailure, capacity_scan
from .criteria import (
    davies_constant,
    recurrence_report,
    volume_growth_report,
)
from .forms import jump_rates
from .simulate import RNG_CONTRACT, SimConfig, explosion_diagnostic, return_probability, survival_estimate
from .space import metric_ball
from .specio import SpecError, load_spec_or_built, round_floats, save_built, sha256_of, write_json


def _parse_radii(text: str) -> list[float]:
    text = text.strip()
    if ":" in text:
        parts = [float(p) for p in text.split(":")]
        if len(parts) != 3:
            raise SpecError("radius ranges use start:stop:step")
        start, stop, step = parts
        if step <= 0:
            raise SpecError("radius step must be positive")
        return list(np.arange(start, stop + 1e-9, step))
    return [float(p) for p in text.split(",") if p]


def _parse_target(text: str, built) -> list[int]:
    if text.startswith("ids:"):
        return [int(p) for p in text[4:].split(",") if p]
    if text.startswith("ball:"):
        try:
            _, x0, r = text.split(":")
            members, _ = metric_ball(built.space, int(x0), float(r))
            return [int(i) for i in members]
        except ValueError as exc:
            raise SpecError(f"cannot parse target spec {text!r}: {exc}") from exc
    raise SpecError("targets are written ball:x0:radius or ids:1,2,3")


def _default_radii(built, x0: int) -> list[float]:
    reach = built.space.max_distance_from(x0)
    hi = 0.8 * reach
    if hi <= 2.0:
        raise SpecError("space too small for a default radius grid; pass --radii")
    return list(np.unique(np.geomspace(2.0, hi, 10)))


class _Manifest:
    def __init__(self, command: str, args: argparse.Namespace):
        self.started = time.perf_counter()
        self.data = {
            "tool_version": __version__,
            "command": command,
            "parameters": {
                k: v for k, v in sorted(vars(args).items()) if k not in ("func",) and v is not None
            },
            "outputs": [],
        }
        spec = getattr(args, "spec", None)
        if spec and Path(spec).exists():
            self.data["spec_sha256"] = sha256_of(spec)

    def add_output(self, path: Path) -> None:
        self.data["outputs"].append(path.name)

    def write(self, directory: Path, stem: str) -> Path:
        self.data["wall_time_s"] = time.perf_counter() - self.started
        path = directory / f"{stem}.manifest.json"
        write_json(path, self.data)
        return path


def _out_dir(args) -> Path:
    d = Path(args.out_dir)
    d.mkdir(parents=True, exist_ok=True)
    return d


def cmd_build(args) -> int:
    built = load_spec_or_built(args.spec)
    out = Path(args.out) if args.out else _out_dir(args) / (Path(args.spec).stem + ".pkl")
    manifest = _Manifest("build", args)
    save_built(out, built)
    manifest.add_output(out)
    manifest.write(out.parent, out.stem)
    print(f"built {built.space.n_points} points -> {out}")
    return 0


def cmd_criteria(args) -> int:
    built = load_spec_or_built(args.spec)
    x0 = built.space.origin if args.x0 is None else args.x0
    radii = _parse_radii(args.radii) if args.radii else _default_radii(built, x0)
    vol = volume_growth_report(built.space, x0, radii, threshold=args.tau)
    vol.extras["davies_a"] = davies_constant(max(vol.liminf_estimate, 0.0))
    rec = recurrence_report(built.space, built.kernel, built.local, x0, radii, threshold=args.tau)
    out_dir = _out_dir(args)
    stem = args.prefix or (Path(args.spec).stem + ".criteria")
    manifest = _Manifest("criteria", args)
    outputs = []
    for name, report in (("conservativeness", vol), ("recurrence", rec)):
        jpath = out_dir / f"{stem}.{name}.json"
        payload = report.to_dict()
        payload["manifest"] = f"{stem}.manifest.json"
        write_json(jpath, payload)
        cpath = out_dir / f"{stem}.{name}.csv"
        report.write_csv(cpath)
        outputs.extend([jpath, cpath])
    for o in outputs:
        manifest.add_output(o)
    manifest.write(out_dir, stem)
    print(f"conservativeness: criterion {vol.verdict}" + (" (sufficient condition)" if vol.verdict == "satisfied" else ""))
    print(f"recurrence: criterion {rec.verdict}" + (" (sufficient condition)" if rec.verdict == "satisfied" else ""))
    return 0


def cmd_simulate(args) -> int:
    built = load_spec_or_built(args.spec)
    if built.kernel is None or built.kernel.matrix.nnz == 0:
        raise SpecError("simulation needs a nonzero jump kernel")
    x0 = built.space.origin if args.x0 is None else args.x0
    rates = jump_rates(built.kernel)
    config = SimConfig(
        horizon=args.horizon,
        trials=args.trials,
        max_jumps=args.max_jumps,
        seed=args.seed,
        policy=args.policy,
        outer_radius=args.outer,
    )
    started = time.perf_counter()
    survival, batch = survival_estimate(rates, x0, config)
    batches = [batch]
    summary = {
        "x0": int(x0),
        "seed": int(args.seed),
        "horizon": args.horizon,
        "trials": args.trials,
        "policy": args.policy,
        "outer_radius": args.outer,
        "survival": survival.to_dict(),
        "explosion": explosion_diagnostic(batch).to_dict(),
    }
    if args.target:
        targets = _parse_target(args.target, built)
        est, ret_batch = return_probability(rates, x0, targets, args.outer, config)
        batches.append(ret_batch)
        summary["return"] = est.to_dict()
        summary["return_target"] = targets
    sampling_s = time.perf_counter() - started
    out_dir = _out_dir(args)
    stem = args.prefix or (Path(args.spec).stem + ".simulate")
    summary["manifest"] = f"{stem}.manifest.json"
    manifest = _Manifest("simulate", args)
    jumps = sum(int(b.n_jumps.sum()) for b in batches)
    manifest.data.update(
        rng_contract=RNG_CONTRACT,
        trials=sum(len(b.status) for b in batches),
        jumps=jumps,
        jumps_per_s=jumps / sampling_s,
    )
    jpath = out_dir / f"{stem}.json"
    write_json(jpath, summary)
    manifest.add_output(jpath)
    if args.trajectories:
        tpath = out_dir / args.trajectories
        with open(tpath, "w") as fh:
            fh.write("trial,status,elapsed,n_jumps,final_state,hit\n")
            for t in range(len(batch.status)):
                fh.write(
                    f"{t},{int(batch.status[t])},{batch.elapsed[t]:.12g},"
                    f"{int(batch.n_jumps[t])},{int(batch.final_state[t])},{int(batch.hit[t])}\n"
                )
        manifest.add_output(tpath)
    manifest.write(out_dir, stem)
    print(f"survival {survival.value:.6g} ci [{survival.ci_low:.6g}, {survival.ci_high:.6g}] -> {jpath}")
    return 0


def cmd_capacity(args) -> int:
    built = load_spec_or_built(args.spec)
    inner = _parse_target(args.K, built)
    if not inner:
        raise SpecError("K is empty")
    radii = _parse_radii(args.radii)
    dist = built.space.distances_from(args.center if args.center is not None else inner[0])
    if np.any(dist[inner] >= min(radii)):
        raise SpecError("K does not fit inside the smallest scan radius")
    report = capacity_scan(
        built.space,
        built.kernel,
        built.local,
        inner,
        radii,
        center=args.center,
        decay_ratio=args.decay_ratio,
    )
    out_dir = _out_dir(args)
    stem = args.prefix or (Path(args.spec).stem + ".capacity")
    payload = report.to_dict()
    payload["manifest"] = f"{stem}.manifest.json"
    manifest = _Manifest("capacity", args)
    jpath = out_dir / f"{stem}.json"
    write_json(jpath, payload)
    manifest.add_output(jpath)
    manifest.write(out_dir, stem)
    print(f"capacities {['%.6g' % c for c in report.capacities]} certificate={report.certificate}")
    return 0


def cmd_report(args) -> int:
    path = Path(args.input)
    if not path.exists():
        raise SpecError(f"no such report: {path}")
    data = json.loads(path.read_text())
    if args.format == "csv":
        radii = data.get("radii")
        values = data.get("values", data.get("capacities"))
        if radii is None or values is None:
            raise SpecError("report has no radius-indexed sequence to export")
        out = Path(args.out) if args.out else path.with_suffix(".csv")
        with open(out, "w") as fh:
            fh.write("radius,value\n")
            for r, v in zip(radii, values):
                fh.write(f"{r:.12g},{v:.12g}\n")
        print(f"wrote {out}")
        return 0
    for key in ("statistic_name", "verdict", "liminf_estimate", "certificate", "survival"):
        if key in data:
            print(f"{key}: {json.dumps(round_floats(data[key]))}")
    if "radii" in data:
        seq = data.get("values", data.get("capacities"))
        for r, v in zip(data["radii"], seq):
            print(f"  r={r:.6g}  {v:.12g}")
    return 0


def _add_common(parser: argparse.ArgumentParser, prefix: bool = True) -> None:
    parser.add_argument("--spec", "--space", dest="spec", required=True, help="JSON spec or built .pkl")
    parser.add_argument("--out-dir", default=".", help="directory for outputs")
    if prefix:
        parser.add_argument("--prefix", default=None, help="output filename stem")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jdlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a space/kernel instance and serialize it")
    _add_common(p, prefix=False)
    p.add_argument("--out", default=None, help="output pickle path")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("criteria", help="evaluate conservativeness and recurrence tests")
    _add_common(p)
    p.add_argument("--x0", type=int, default=None, help="reference point id (default: origin)")
    p.add_argument("--radii", default=None, help="comma list or start:stop:step")
    p.add_argument("--tau", type=float, default=10.0, help="finiteness threshold")
    p.set_defaults(func=cmd_criteria)

    p = sub.add_parser("simulate", help="Monte-Carlo survival / return probabilities")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0, help="keys the (seed, trial, jump) Philox streams")
    p.add_argument("--x0", type=int, default=None)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--max-jumps", type=int, default=1_000_000)
    p.add_argument("--outer", type=float, default=float("inf"), help="outer radius")
    p.add_argument("--policy", choices=("absorb", "reflect"), default="absorb")
    p.add_argument("--target", default=None, help="return target: ball:x0:r or ids:..")
    p.add_argument("--trajectories", default=None, help="also write per-trial CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("capacity", help="equilibrium-potential capacity scan")
    _add_common(p)
    p.add_argument("--K", required=True, help="inner set: ball:x0:r or ids:..")
    p.add_argument("--radii", required=True, help="comma list or start:stop:step")
    p.add_argument("--center", type=int, default=None, help="ball center (default: first K point)")
    p.add_argument("--decay-ratio", type=float, default=0.05)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("report", help="pretty-print or convert a JSON report")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
