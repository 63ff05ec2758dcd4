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
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .capacity import DEFAULT_DECAY_RATIO, SolverFailure, capacity_scan
from .criteria import DEFAULT_THRESHOLD, davies_constant, recurrence_report, volume_growth_report
from .forms import jump_rates
from .simulate import RNG_CONTRACT, SimConfig, explosion_diagnostic, sample_estimates
from .space import metric_ball
from .specio import SpecError, load_spec, load_spec_or_built, round_floats, sha256_of, write_csv, write_json


_MAX_RADII = 10_000


def _parse_radii(text: str) -> list[float]:
    text = text.strip()
    if ":" in text:
        parts = [float(p) for p in text.split(":")]
        if len(parts) != 3:
            raise SpecError("radius ranges use start:stop:step")
        start, stop, step = parts
        for name, bound in (("start", start), ("stop", stop), ("step", step)):
            if not np.isfinite(bound):
                raise SpecError(f"radius range {name} {bound} is not a finite number")
        if step <= 0:
            raise SpecError("radius step must be positive")
        count = np.ceil((stop + 1e-9 - start) / step)  # the length np.arange would allocate
        if count > _MAX_RADII:
            raise SpecError(f"radius range {text} holds {count:.6g} radii, more than {_MAX_RADII:,}")
        return list(np.arange(start, stop + 1e-9, step))
    return [float(p) for p in text.split(",") if p]


def _point(x: int, built, flag: str) -> int:
    """x, checked to be a point id of the built space; the ValueError names the flag that gave it."""
    built.space.point_ids(flag, [x])
    return x


def _parse_target(text: str, built, flag: str) -> list[int]:
    if text.startswith("ids:"):
        ids = [_point(int(p), built, flag) for p in text[4:].split(",") if p]
    elif text.startswith("ball:"):
        try:
            _, x0, r = text.split(":")
            x0, r = int(x0), float(r)
        except ValueError as exc:
            raise SpecError(f"cannot parse target spec {text!r}: {exc}") from exc
        members, _ = metric_ball(built.space, _point(x0, built, flag), r)
        ids = [int(i) for i in members]
    else:
        raise SpecError("targets are written ball:x0:radius or ids:1,2,3")
    if not ids:  # a ball of nan radius holds no point
        raise SpecError(f"{flag}: target set K is empty")
    return ids


def _default_radii(built, x0: int) -> list[float]:
    reach = built.space.max_distance_from(x0)
    hi = 0.8 * reach
    if hi <= 2.0:
        raise SpecError("space too small for a default radius grid; pass --radii")
    return list(np.unique(np.geomspace(2.0, hi, 10)))


def _stem(args) -> str:
    """--prefix, or the spec's stem and the command; a built file `x.built.json` names its outputs as `x.json` does."""
    return args.prefix or f"{Path(args.spec).stem.removesuffix('.built')}.{args.command}"


def _write_run(args, started: float, stem: str, outputs, directory=None, **extras) -> None:
    """Write each (name, payload) into the output directory, then `<stem>.manifest.json`.

    A dict payload is written as JSON with a "manifest" back-reference, any
    other payload is called with its path. `main` reads `started` before
    dispatch, so the manifest's wall_time_s covers load, compute and write.
    """
    directory = Path(args.out_dir if directory is None else directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest_name = f"{stem}.manifest.json"
    for name, payload in outputs:
        if callable(payload):
            payload(directory / name)
        else:
            write_json(directory / name, {**payload, "manifest": manifest_name})
    manifest = {
        "tool_version": __version__,
        "command": args.command,
        "parameters": {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None},
        "outputs": [name for name, _ in outputs],
        **extras,
    }
    if Path(args.spec).exists():
        manifest["spec_sha256"] = sha256_of(args.spec)
    manifest["wall_time_s"] = time.perf_counter() - started
    write_json(directory / manifest_name, manifest)


def cmd_build(args, started: float) -> int:
    out = Path(args.out) if args.out else Path(args.out_dir) / (Path(args.spec).stem + ".built.json")
    if out.suffix == ".pkl":
        raise SpecError(f"--out {out}: a built file is its JSON spec, not a pickle")
    built = load_spec_or_built(args.spec)  # building checks the spec
    text = json.dumps(load_spec(args.spec), sort_keys=True, indent=2) + "\n"  # every digit kept, so it reads back as the spec
    _write_run(args, started, out.stem, [(out.name, lambda path: path.write_text(text))], out.parent)
    print(f"built {built.space.n_points} points -> {out}")
    return 0


def cmd_criteria(args, started: float) -> int:
    built = load_spec_or_built(args.spec)
    x0 = built.space.origin if args.x0 is None else _point(args.x0, built, "--x0")
    radii = _parse_radii(args.radii) if args.radii else _default_radii(built, x0)
    vol = volume_growth_report(built.space, x0, radii, threshold=args.tau)
    vol.extras["davies_a"] = davies_constant(max(vol.liminf_estimate, 0.0))
    rec = recurrence_report(built, x0, radii, threshold=args.tau)
    stem = _stem(args)
    reports = (("conservativeness", vol), ("recurrence", rec))
    outputs = []
    for name, report in reports:
        csv = partial(write_csv, header=f"radius,{report.statistic_name}", rows=list(zip(report.radii, report.values)))
        outputs += [(f"{stem}.{name}.json", report.to_dict()), (f"{stem}.{name}.csv", csv)]
    _write_run(args, started, stem, outputs)
    for name, report in reports:
        print(f"{name}: criterion {report.verdict}" + (" (sufficient condition)" if report.verdict == "satisfied" else ""))
    return 0


def cmd_simulate(args, started: float) -> int:
    built = load_spec_or_built(args.spec)
    if len(built.kernel.jump_support()) == 0:
        raise SpecError("simulation needs a nonzero jump kernel")
    x0 = built.space.origin if args.x0 is None else _point(args.x0, built, "--x0")
    targets = _parse_target(args.target, built, "--target") if args.target else None
    rates = jump_rates(built.kernel)
    config = SimConfig(
        horizon=args.horizon,
        trials=args.trials,
        max_jumps=args.max_jumps,
        seed=args.seed,
        policy=args.policy,
        outer_radius=args.outer,
    )
    sampling_started = time.perf_counter()
    estimates, work = sample_estimates(rates, x0, config, targets)
    sampling_s = time.perf_counter() - sampling_started
    survival, batch = estimates[0]
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
    if targets is not None:
        summary["return"] = estimates[1][0].to_dict()
        summary["return_target"] = targets
    stem = _stem(args)
    outputs = [(f"{stem}.json", summary)]
    if args.trajectories:
        columns = [np.arange(len(batch.status)), batch.status, batch.elapsed, batch.n_jumps, batch.final_state, batch.hit]
        header = "trial,status,elapsed,n_jumps,final_state,hit"
        outputs.append((args.trajectories, lambda path: np.savetxt(
            path, np.column_stack(columns), "%d,%d,%.12g,%d,%d,%d", header=header, comments="")))
    _write_run(
        args, started, stem, outputs,
        rng_contract=RNG_CONTRACT,
        trials=sum(len(b.status) for _, b in estimates),
        jumps=work.jumps,
        draws=work.draws,
        jumps_per_s=work.jumps / sampling_s,
    )
    print(f"survival {survival.value:.6g} ci [{survival.ci_low:.6g}, {survival.ci_high:.6g}] -> {Path(args.out_dir) / stem}.json")
    return 0


def cmd_capacity(args, started: float) -> int:
    built = load_spec_or_built(args.spec)
    inner = _parse_target(args.K, built, "--K")
    radii = _parse_radii(args.radii)
    center = None if args.center is None else _point(args.center, built, "--center")
    report = capacity_scan(built, inner, radii, center=center, decay_ratio=args.decay_ratio)
    stem = _stem(args)
    _write_run(args, started, stem, [(f"{stem}.json", report.to_dict())])
    print(f"capacities {['%.6g' % c for c in report.capacities]} certificate={report.certificate}")
    return 0


def cmd_report(args, started: float) -> int:
    path = Path(args.input)
    if not path.exists():
        raise SpecError(f"no such report: {path}")
    if path.is_dir():
        raise SpecError(f"report path is a directory: {path}")
    data = json.loads(path.read_text())
    if not isinstance(data, dict):
        raise SpecError(f"a report is a JSON object, not a {type(data).__name__}")
    radii = data.get("radii")
    values = data.get("values", data.get("capacities"))
    for name, seq in (("radii", radii), ("values", values)):
        if seq is not None and not (isinstance(seq, list) and all(isinstance(v, (int, float)) for v in seq)):
            raise SpecError(f"report {name} must be a list of numbers")
    sequence = None if radii is None or values is None else list(zip(radii, values))
    if args.format == "csv":
        if sequence is None:
            raise SpecError("report has no radius-indexed sequence to export")
        out = Path(args.out) if args.out else path.with_suffix(".csv")
        if out.is_dir():
            raise SpecError(f"--out names a directory: {out}")
        write_csv(out, "radius,value", sequence)
        print(f"wrote {out}")
        return 0
    for key in ("statistic_name", "verdict", "liminf_estimate", "certificate", "survival"):
        if key in data:
            print(f"{key}: {json.dumps(round_floats(data[key]))}")
    for r, v in sequence or ():
        print(f"  r={r:.6g}  {v:.12g}")
    return 0


def _add_common(parser: argparse.ArgumentParser, prefix: bool = True) -> None:
    parser.add_argument("--spec", required=True, help="JSON spec or built file")
    parser.add_argument("--out-dir", default=".", help="directory for outputs")
    if prefix:
        parser.add_argument("--prefix", default=None, help="output filename stem")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jdlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a spec to check it and write it back as the built file")
    _add_common(p, prefix=False)
    p.add_argument("--out", default=None, help="built file path (default: <out-dir>/<spec stem>.built.json)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("criteria", help="evaluate conservativeness and recurrence tests")
    _add_common(p)
    p.add_argument("--x0", type=int, default=None, help="reference point id (default: origin)")
    p.add_argument("--radii", default=None, help="comma list or start:stop:step")
    p.add_argument("--tau", type=float, default=DEFAULT_THRESHOLD, help="finiteness threshold")
    p.set_defaults(func=cmd_criteria)

    p = sub.add_parser("simulate", help="Monte-Carlo survival / return probabilities")
    _add_common(p)
    p.add_argument("--seed", type=int, default=SimConfig.seed, help="keys the (seed, trial, jump) Philox streams")
    p.add_argument("--x0", type=int, default=None)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--trials", type=int, default=SimConfig.trials)
    p.add_argument("--max-jumps", type=int, default=SimConfig.max_jumps)
    p.add_argument("--outer", type=float, default=SimConfig.outer_radius, help="outer radius")
    p.add_argument("--policy", choices=("absorb", "reflect"), default=SimConfig.policy)
    p.add_argument("--target", default=None, help="return target: ball:x0:r or ids:..")
    p.add_argument("--trajectories", default=None, help="also write per-trial CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("capacity", help="equilibrium-potential capacity scan")
    _add_common(p)
    p.add_argument("--K", required=True, help="inner set: ball:x0:r or ids:..")
    p.add_argument("--radii", required=True, help="comma list or start:stop:step")
    p.add_argument("--center", type=int, default=None, help="ball center (default: first K point)")
    p.add_argument("--decay-ratio", type=float, default=DEFAULT_DECAY_RATIO)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("report", help="pretty-print or convert a JSON report")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, started)
    except (ValueError, FileNotFoundError) as exc:  # SpecError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
