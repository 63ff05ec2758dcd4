"""JSON space/kernel specs, serialization of built instances, stable output.

Top-level spec schema:

    {"type": "lattice" | "graph" | "stack" | "weighted_line" | "model_manifold",
     "truncation_radius": R,
     "params": {...}}

Lattice specs carry a kernel subdict {"family": "nn" | "stable_i" |
"stable_ii" | "explicit", ...} whose keys join the params, which bind to
the builder's signature (see BUILDERS). All floats in written reports are
rounded to 12 significant digits so reruns diff cleanly.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import pickle
import sys
from pathlib import Path
from typing import Any

import numpy as np

from . import kernels as kmod
from .kernels import BuiltInstance

# Each spec type, and each lattice kernel family, names its `jdlab.kernels` builder (looked up
# at call time) and the arguments it fixes; params bind to the builder's own signature.
BUILDERS = {
    ("lattice", "nn"): ("lattice_nn", {}),
    ("lattice", "stable_i"): ("stable_like", {"case": "i"}),
    ("lattice", "stable_ii"): ("stable_like", {"case": "ii"}),
    ("lattice", "explicit"): ("explicit_kernel", {}),
    ("graph", None): ("mixed_graph_from_params", {}),
    ("stack", None): ("stack_space", {}),
    ("weighted_line", None): ("weighted_line", {}),
    ("model_manifold", None): ("model_manifold", {}),
}
SPEC_TYPES = tuple(dict.fromkeys(kind for kind, _ in BUILDERS))


class SpecError(ValueError):
    """Malformed spec file; the message names the offending field."""


def round_sig(x: float, sig: int = 12) -> float:
    if not math.isfinite(x) or x == 0.0:
        return x
    return float(f"{x:.{sig}g}")


def round_floats(obj: Any, sig: int = 12) -> Any:
    if isinstance(obj, float):
        return round_sig(obj, sig)
    if isinstance(obj, dict):
        return {k: round_floats(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v, sig) for v in obj]
    if isinstance(obj, np.floating):
        return round_sig(float(obj), sig)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return round_floats(obj.tolist(), sig)
    return obj


def write_json(path, obj: Any) -> None:
    payload = json.dumps(round_floats(obj), sort_keys=True, indent=2) + "\n"
    Path(path).write_text(payload)


def write_csv(path, header: str, rows) -> None:
    """Rows of numbers under a header line, comma separated, each number to 12 significant digits as in `write_json`."""
    lines = [header, *(",".join(f"{v:.12g}" for v in row) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n")


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_spec(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SpecError(f"spec is not valid JSON: {exc}") from exc
    validate_spec(raw)
    return raw


def validate_spec(raw: dict) -> None:
    if not isinstance(raw, dict):
        raise SpecError("spec must be a JSON object")
    if "type" not in raw:
        raise SpecError("missing required field 'type'")
    if raw["type"] not in SPEC_TYPES:
        raise SpecError(f"field 'type' must be one of {SPEC_TYPES}, got {raw['type']!r}")
    if "truncation_radius" not in raw:
        raise SpecError("missing required field 'truncation_radius'")
    tr = raw["truncation_radius"]
    # JSON true is an int, NaN fails every comparison, and an int past the largest float overflows later
    if isinstance(tr, bool) or not isinstance(tr, (int, float)) or not 0 < tr <= sys.float_info.max:
        raise SpecError(f"field 'truncation_radius' must be a finite positive number, got {tr!r}")
    if "params" in raw and not isinstance(raw["params"], dict):
        raise SpecError("field 'params' must be an object")


def _call(label: str, fn, params: dict, fixed: dict):
    """fn(**params, **fixed); a SpecError names a key fn does not take or fixed sets, or carries fn's ValueError."""
    sig = inspect.signature(fn)
    try:
        bound = sig.bind(**params, **fixed)
    except TypeError as exc:
        names = ", ".join(k for k in sig.parameters if k not in fixed)
        raise SpecError(f"{label}: {exc} (it takes {names})") from None
    try:
        return fn(*bound.args, **bound.kwargs)
    except ValueError as exc:
        raise SpecError(f"{label}: {exc}") from exc


# A stack's psi object {"kind": ..., **keys}: the keys bind to its kind's function, which returns Psi.
PSI_KINDS = {
    "constant": lambda value=1.0: value,
    "power": lambda a=1.0, p=0.0: lambda pts: (a + np.sqrt((pts**2).sum(axis=1))) ** p,
}


def build_from_spec(raw: dict) -> BuiltInstance:
    """Construct the described space/kernel/local triple."""
    validate_spec(raw)
    kind = raw["type"]
    radius = raw["truncation_radius"]
    params = dict(raw.get("params", {}))
    family = None
    if kind == "lattice":
        kspec = params.pop("kernel", {})
        if not isinstance(kspec, dict):
            raise SpecError("field 'kernel' must be an object")
        family = kspec.get("family", "nn")
        if (kind, family) not in BUILDERS:
            raise SpecError(f"unknown kernel family {family!r}")
        both = sorted(params.keys() & kspec.keys())
        if both:
            raise SpecError(f"parameter {both[0]!r} is given both in params and in the kernel")
        params.update((k, v) for k, v in kspec.items() if k != "family")
    label = f"spec type {kind!r}" if family is None else f"kernel family {family!r}"
    if family == "explicit":
        # dim and spacing only size the default point set, the lattice box of the truncation
        box = {"dim": params.pop("dim", 1), "spacing": float(params.pop("spacing", 1.0))}
        if "n_points" not in params:
            params["n_points"] = len(_call(label, kmod._lattice_points, box, {"truncation_radius": radius}))
    if kind == "stack" and isinstance(params.get("psi"), dict):
        psi = dict(params["psi"])
        psi_kind = psi.pop("kind", None)
        if psi_kind not in PSI_KINDS:
            raise SpecError(f"unknown psi kind {psi_kind!r}")
        params["psi"] = _call(f"psi kind {psi_kind!r}", PSI_KINDS[psi_kind], psi, {})
    name, fixed = BUILDERS[kind, family]
    return _call(label, getattr(kmod, name), params, {**fixed, "truncation_radius": radius})


def save_built(path, built: BuiltInstance) -> None:
    """Pickle the instance as it is; a stencil kernel keeps its stencil."""
    with open(path, "wb") as fh:
        pickle.dump(built, fh, protocol=pickle.HIGHEST_PROTOCOL)


def load_built(path) -> BuiltInstance:
    with open(path, "rb") as fh:
        built = pickle.load(fh)
    if not isinstance(built, BuiltInstance):
        raise SpecError("file does not contain a built instance")
    return built


def load_spec_or_built(path) -> BuiltInstance:
    """Accept either a JSON spec or a previously serialized instance."""
    p = Path(path)
    if not p.exists():
        raise SpecError(f"no such spec file: {path}")
    if p.is_dir():
        raise SpecError(f"spec path is a directory: {path}")
    if p.suffix == ".pkl":
        return load_built(p)
    return build_from_spec(load_spec(p))
