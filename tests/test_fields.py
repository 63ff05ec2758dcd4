"""The builders' field table and size gate: every field checked where it is given, every size counted before allocation."""

import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import jdlab
import jdlab.cli as cli
import jdlab.forms as fmod
import jdlab.kernels as kmod
from jdlab.kernels import lattice_nn, stable_like, stack_space
from jdlab.specio import SpecError, build_from_spec


def peak_allocation(fn) -> tuple[object, int]:
    """fn()'s result, or the exception it raised, and the peak bytes it allocated in Python and numpy."""
    tracemalloc.start()
    try:
        try:
            out = fn()
        except Exception as exc:  # the caller asserts on it
            out = exc
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"type": "stack", "params": {"dim": 1, "layers": 10**20}}, "layers must be an integer >= 2 below 2^63, got 100000000000000000000"),
        ({"type": "lattice", "params": {"dim": 10**30}}, f"dim must be a positive integer below 2^63, got {10**30}"),
        ({"type": "lattice", "params": {"dim": 2.0**63}}, "dim must be a positive integer below 2^63, got 9.223372036854776e+18"),
    ],
    ids=["layers-1e20", "dim-1e30", "dim-float-2^63"],
)
def test_an_integer_field_outside_its_range_is_named_with_the_range(spec, message):
    # a Python int past int64 was called "not an integer": numpy holds it as an object
    with pytest.raises(SpecError) as exc:
        build_from_spec({**spec, "truncation_radius": 3})
    assert str(exc.value).endswith(": " + message)


def test_the_largest_int64_layers_passes_the_table_and_is_stopped_by_the_size_gate():
    with pytest.raises(ValueError, match=f"on layers {2**63 - 1}, .* bytes, over the"):
        stack_space(dim=1, layers=2**63 - 1, truncation_radius=3)


def test_a_stack_of_a_trillion_layers_exits_2_naming_layers_without_allocating(tmp_path, capsys):
    # the stack bounded its sheet, not its layers: 1.3e13 points went on to np.arange
    spec = {"type": "stack", "truncation_radius": 3, "params": {"dim": 1, "layers": 1000000000000}}
    exc, peak = peak_allocation(lambda: build_from_spec(spec))
    assert isinstance(exc, SpecError) and "on layers 1000000000000" in str(exc)
    assert peak < 1 << 20, f"peak allocation {peak} bytes"
    path = tmp_path / "layers.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["criteria", "--spec", str(path), "--radii", "2", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "layers 1000000000000" in err and "bytes, over the" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "builder, kwargs, message",
    [
        (stable_like, {"case": "ii", "beta": -1.0}, "beta must be positive"),
        (stable_like, {"case": "i", "tempering": math.nan}, "tempering constant must be positive"),
        (lattice_nn, {"spacing": True}, "spacing must be positive"),
        (lattice_nn, {"truncation_radius": -1}, "truncation_radius must be positive"),
    ],
    ids=["beta-under-case-ii", "tempering-under-case-i", "bool-spacing", "negative-radius"],
)
def test_a_field_is_checked_wherever_it_is_given(builder, kwargs, message):
    # beta was read only under case i and tempering only under case ii; float(True) built Z, and a negative
    # radius was "too small for the lattice spacing"
    with pytest.raises(ValueError, match="^" + message):
        builder(**kwargs)


def test_the_size_gate_counts_items_at_a_fixed_rate_against_one_budget(monkeypatch):
    lattice_nn(dim=1, truncation_radius=100)  # 201 points and 402 entries
    monkeypatch.setattr(fmod, "_SIZE_BUDGET", 603 * fmod._ITEM_BYTES)
    lattice_nn(dim=1, truncation_radius=100)
    monkeypatch.setattr(fmod, "_SIZE_BUDGET", 603 * fmod._ITEM_BYTES - 1)
    with pytest.raises(ValueError, match=r"^spacing 1 on truncation radius 100 gives 201 points, and 402 kernel entries: about 3.86e\+04 bytes"):
        lattice_nn(dim=1, truncation_radius=100)


# -- property: every family, extreme values --------------------------------------------------------------------

EXTREMES = [
    *(0, -1, 1, 2, 3, 0.5, 2.5, math.inf, -math.inf, math.nan),
    *(1e300, -1e300, 1e308, 1e-300, 1e-310, 1e-12, 1e-200),  # the largest and smallest floats, subnormals, tiny spacings
    *(2**63, 2**63 - 1, 10**12, 10**20, 10**400),  # counts past int64, and an int that no float holds
]

# (spec type, fixed params, drawn fields, words that name a field in a message). The messages that tests elsewhere
# pin name a field through the quantity it sets: phi for phi_constant and phi_power, sigma for profile_constant,
# and the jump density j(x, y) that a subnormal psi overflows.
FAMILIES = {
    "nn": ("lattice", {}, ("dim", "spacing", "density"), ("dim", "spacing", "density")),
    "stable_i": (
        "lattice", {"kernel": {"family": "stable_i"}}, ("dim", "spacing", "alpha", "beta"), ("dim", "spacing", "alpha", "beta")
    ),
    "stable_ii": (
        "lattice", {"kernel": {"family": "stable_ii"}}, ("dim", "spacing", "alpha", "tempering"), ("dim", "spacing", "alpha", "tempering")
    ),
    "gasket": (
        "lattice", {"kernel": {"family": "stable_i", "support": "gasket"}}, ("gasket_level", "alpha", "beta"), ("gasket_level", "alpha", "beta")
    ),
    "explicit": ("lattice", {"kernel": {"family": "explicit"}}, ("n_points", "dim", "spacing"), ("n_points", "dim", "spacing")),
    "graph": (
        "graph", {"phi_kind": "shell_power"}, ("extent", "subdivisions", "phi_constant", "phi_power"), ("extent", "subdivisions", "phi")
    ),
    "explicit_graph": (
        "graph", {"graph_kind": "explicit", "edges": [[0, 1], [1, 2]]}, ("n_vertices", "subdivisions", "phi_constant"),
        ("n_vertices", "subdivisions", "phi"),
    ),
    "stack": (
        "stack", {}, ("dim", "spacing", "layers", "alpha", "beta", "psi", "range_cutoff"),
        ("dim", "spacing", "layers", "alpha", "beta", "psi", "range_cutoff", "jump density must be finite: j("),
    ),
    "weighted_line": ("weighted_line", {}, ("lam", "spacing"), ("lam", "spacing")),
    "model_manifold": (
        "model_manifold", {"profile": "constant"}, ("dim", "spacing", "profile_constant"), ("dim", "spacing", "profile", "sigma")
    ),
    "sandwich": ("model_manifold", {}, ("dim", "spacing"), ("dim", "spacing", "profile")),
}


@st.composite
def extreme_specs(draw):
    name = draw(st.sampled_from(sorted(FAMILIES)))
    kind, fixed, fields, _ = FAMILIES[name]
    drawn = draw(st.dictionaries(st.sampled_from(fields), st.sampled_from(EXTREMES), max_size=len(fields)))
    params = json.loads(json.dumps(fixed))
    (params["kernel"] if "kernel" in params else params).update(drawn)
    return name, {"type": kind, "truncation_radius": draw(st.sampled_from(EXTREMES)), "params": params}


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(extreme_specs())
def test_a_spec_of_extreme_values_builds_or_is_rejected_naming_a_field(case):
    name, spec = case
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("error", RuntimeWarning)
        patch.setattr(fmod, "_SIZE_BUDGET", 1 << 20)
        out, peak = peak_allocation(lambda: build_from_spec(spec))
    if isinstance(out, kmod.BuiltInstance):
        return
    assert isinstance(out, SpecError), f"{spec} raised {out!r}"
    words = (*FAMILIES[name][3], "truncation")
    assert any(word in str(out).lower() for word in words), f"{spec}: {out}"
    assert peak < 1 << 20, f"{spec} allocated {peak} bytes before its rejection: {out}"


# -- the reproductions, each in a child under an address-space limit -------------------------------------------

REPRODUCTIONS = {
    "stack-layers": ({"type": "stack", "truncation_radius": 3, "params": {"dim": 1, "layers": 10**12}}, "layers 1000000000000"),
    "gasket-level-15": (
        {"type": "lattice", "truncation_radius": 2**15, "params": {"kernel": {"family": "stable_i", "support": "gasket", "gasket_level": 15}}},
        "gasket_level 15 is too deep",
    ),
    "lattice2d-extent": (
        {"type": "graph", "truncation_radius": 10**6, "params": {"graph_kind": "lattice2d", "extent": 10**6}}, "extent 1000000"
    ),
    "explicit-n_points": (
        {"type": "lattice", "truncation_radius": 3, "params": {"kernel": {"family": "explicit", "n_points": 10**12}}},
        "n_points 1000000000000",
    ),
    "weighted_line-spacing": ({"type": "weighted_line", "truncation_radius": 20, "params": {"spacing": 1e-12}}, "spacing 1e-12"),
    "lattice-spacing": ({"type": "lattice", "truncation_radius": 3, "params": {"dim": 1, "spacing": 1e-7}}, "spacing 1e-07"),
}


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))  # 1.5 GB


@pytest.mark.parametrize("name", sorted(REPRODUCTIONS))
def test_a_spec_too_large_for_memory_exits_2_naming_its_field_under_an_address_space_limit(tmp_path, name):
    # each ended in an _ArrayMemoryError traceback (exit 1) under `ulimit -v 2000000`, or was OOM-killed without one
    spec, field = REPRODUCTIONS[name]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec))
    src = str(Path(jdlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), "OPENBLAS_NUM_THREADS": "1"}
    argv = [sys.executable, "-m", "jdlab.cli", "criteria", "--spec", str(path), "--radii", "2", "--out-dir", str(tmp_path)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert field in proc.stderr and "bytes, over the" in proc.stderr and "Traceback" not in proc.stderr
