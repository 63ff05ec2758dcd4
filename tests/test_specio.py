import json
import re
from pathlib import Path

import numpy as np
import pytest

import jdlab.cli as cli
from jdlab.specio import (
    SpecError,
    build_from_spec,
    load_spec,
    round_floats,
    round_sig,
    validate_spec,
)


def test_validate_rejects_missing_fields():
    with pytest.raises(SpecError, match="type"):
        validate_spec({"truncation_radius": 5})
    with pytest.raises(SpecError, match="truncation_radius"):
        validate_spec({"type": "lattice"})
    with pytest.raises(SpecError, match="positive"):
        validate_spec({"type": "lattice", "truncation_radius": -1})


def test_load_spec_reports_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(SpecError, match="JSON"):
        load_spec(p)


@pytest.mark.parametrize(
    "payload, n_expected",
    [
        ({"type": "lattice", "truncation_radius": 10, "params": {"dim": 1}}, 21),
        (
            {"type": "weighted_line", "truncation_radius": 5, "params": {"lam": 1.0, "spacing": 0.5}},
            21,
        ),
        (
            {"type": "model_manifold", "truncation_radius": 4,
             "params": {"dim": 1, "spacing": 0.5, "profile": "constant"}},
            8,
        ),
        (
            {"type": "stack", "truncation_radius": 3,
             "params": {"dim": 1, "spacing": 1.0, "layers": 2, "alpha": 1.0, "beta": 1.0,
                        "psi": {"kind": "power", "a": 1.0, "p": 0.0}}},
            14,
        ),
        (
            {"type": "graph", "truncation_radius": 2,
             "params": {"graph_kind": "lattice2d", "extent": 2, "subdivisions": 1}},
            25 + 40,
        ),
        # the explicit family's default point set is the lattice box nn builds: floor(0.3 / 0.1) = 2 in floats
        (
            {"type": "lattice", "truncation_radius": 0.3, "params": {"spacing": 0.1, "kernel": {"family": "explicit"}}},
            7,
        ),
    ],
)
def test_build_each_spec_type(payload, n_expected):
    built = build_from_spec(payload)
    assert built.space.n_points == n_expected
    if built.kernel is not None and built.kernel.matrix.nnz:
        assert (abs(built.kernel.matrix - built.kernel.matrix.T)).nnz == 0


def test_explicit_kernel_spec_roundtrip():
    payload = {
        "type": "lattice",
        "truncation_radius": 3,
        "params": {"dim": 1, "kernel": {"family": "explicit", "n_points": 4,
                                        "entries": [[0, 1, 2.0], [2, 1, 0.5]]}},
    }
    built = build_from_spec(payload)
    assert built.kernel.density(1, 0) == 2.0
    assert built.kernel.density(1, 2) == 0.5


def test_explicit_entries_conflicting_symmetry_rejected():
    payload = {
        "type": "lattice",
        "truncation_radius": 3,
        "params": {"dim": 1, "kernel": {"family": "explicit", "n_points": 3,
                                        "entries": [[0, 1, 2.0], [1, 0, 3.0]]}},
    }
    with pytest.raises(SpecError, match="conflicting"):
        build_from_spec(payload)


def test_explicit_entries_diagonal_rejected():
    payload = {
        "type": "lattice",
        "truncation_radius": 3,
        "params": {"dim": 1, "kernel": {"family": "explicit", "n_points": 3,
                                        "entries": [[1, 1, 2.0]]}},
    }
    with pytest.raises(SpecError, match="off-diagonal"):
        build_from_spec(payload)


def test_round_sig_and_floats():
    assert round_sig(1.0 / 3.0) == pytest.approx(0.333333333333, abs=1e-15)
    assert round_sig(0.0) == 0.0
    nested = round_floats({"a": [np.float64(1 / 7), {"b": np.int64(3)}]})
    assert isinstance(nested["a"][1]["b"], int)
    assert json.dumps(nested)  # json-serializable after conversion


def _lattice(params, radius=3):
    return {"type": "lattice", "truncation_radius": radius, "params": params}


def _explicit(entries, n_points=3):
    return _lattice({"kernel": {"family": "explicit", "n_points": n_points, "entries": entries}})


# (spec, text the error must contain): each names the key or the entry at fault
BAD_SPECS = {
    # the hand-copied dispatch read only "dim" and built Z, whose recurrence verdict is wrong for Z^3
    "dimension-on-lattice": (_lattice({"dimension": 3}, radius=5), "'dimension' (it takes dim, spacing, density, measure)"),
    "lamda-on-weighted_line": (
        {"type": "weighted_line", "truncation_radius": 5, "params": {"lamda": 1.0, "spacing": 0.5}}, "'lamda'"
    ),
    "measure-on-stable_i": (_lattice({"measure": "cell", "kernel": {"family": "stable_i"}}), "'measure'"),
    "support-on-nn": (_lattice({"support": "gasket", "kernel": {"family": "nn"}}), "'support'"),
    "truncation_radius-in-params": (
        {"type": "graph", "truncation_radius": 3, "params": {"extent": 2, "truncation_radius": 3}}, "'truncation_radius'"
    ),
    "case-on-stable_ii": (_lattice({"kernel": {"family": "stable_ii", "case": "i"}}), "'case'"),
    "conflicting-mirrored-entry": (_explicit([[0, 1, 2.0], [1, 0, 3.0]]), "conflicting values for symmetric pair (0, 1)"),
    "negative-entry": (_explicit([[0, 1, -2.0]]), "nonnegative"),
    "diagonal-entry": (_explicit([[1, 1, 2.0]]), "off-diagonal"),
    "entry-not-a-triple": (_explicit([[0, 1]]), "triples"),
    "repeated-graph-edge": (
        {"type": "graph", "truncation_radius": 3,
         "params": {"graph_kind": "explicit", "n_vertices": 3, "edges": [[0, 1], [1, 2], [1, 0]]}},
        "edge (0, 1) is listed more than once",
    ),
    "unknown-psi-key": (
        {"type": "stack", "truncation_radius": 3, "params": {"psi": {"kind": "power", "q": 2.0}}}, "'q'"
    ),
    "alpha-out-of-range": (_lattice({"kernel": {"family": "stable_i", "alpha": 2.5}}), "kernel family 'stable_i': alpha"),
    "key-in-params-and-kernel": (
        _lattice({"alpha": 1.0, "kernel": {"family": "stable_i", "alpha": 1.5}}), "'alpha' is given both"
    ),
    # a zero spacing divided the truncation radius and ended in a ZeroDivisionError traceback
    "zero-spacing-on-nn": (_lattice({"spacing": 0}), "kernel family 'nn': spacing must be positive"),
    "zero-spacing-on-stable_i": (
        _lattice({"spacing": 0, "kernel": {"family": "stable_i"}}), "kernel family 'stable_i': spacing must be positive"
    ),
    "zero-spacing-on-explicit": (
        _lattice({"spacing": 0, "kernel": {"family": "explicit"}}), "kernel family 'explicit': spacing must be positive"
    ),
    "zero-spacing-on-stack": (
        {"type": "stack", "truncation_radius": 3, "params": {"spacing": 0}}, "spec type 'stack': spacing must be positive"
    ),
    "zero-spacing-on-model_manifold": (
        {"type": "model_manifold", "truncation_radius": 3, "params": {"spacing": 0}},
        "spec type 'model_manifold': spacing must be positive",
    ),
    # any other string used to build the cell measure
    "misspelt-measure": (_lattice({"measure": "countng", "spacing": 0.5}), "unknown measure 'countng'"),
    "truncation-differs-from-extent": (
        {"type": "graph", "truncation_radius": 2, "params": {"graph_kind": "lattice2d", "extent": 6}},
        "truncation_radius 2 differs from the lattice2d extent 6",
    ),
    # int() made dim 1.5 build Z silently; stack multiplied a list by it (TypeError); dim 0 stacked no arrays
    "non-integer-dim-on-nn": (_lattice({"dim": 1.5}), "kernel family 'nn': dim must be a positive integer, got 1.5"),
    "zero-dim-on-nn": (_lattice({"dim": 0}), "kernel family 'nn': dim must be a positive integer, got 0"),
    "string-dim-on-nn": (_lattice({"dim": "2"}), "dim must be a positive integer, got '2'"),
    "non-integer-dim-on-stable_i": (
        _lattice({"dim": 2.5, "kernel": {"family": "stable_i"}}), "kernel family 'stable_i': dim must be a positive integer"
    ),
    "zero-dim-on-explicit": (
        _lattice({"dim": 0, "kernel": {"family": "explicit"}}), "kernel family 'explicit': dim must be a positive integer"
    ),
    "non-integer-dim-on-stack": (
        {"type": "stack", "truncation_radius": 3, "params": {"dim": 1.5}},
        "spec type 'stack': dim must be a positive integer, got 1.5",
    ),
    "zero-dim-on-stack": (
        {"type": "stack", "truncation_radius": 3, "params": {"dim": 0}}, "spec type 'stack': dim must be a positive integer"
    ),
    # model_manifold divided by dim 0 (ZeroDivisionError) and raised TypeError on "2"; stack raised TypeError on
    # layers 2.5 and "3"; int() truncated the rest, so an extent-2.5 graph had its origin at point 17 of 25
    "zero-dim-on-model_manifold": (
        {"type": "model_manifold", "truncation_radius": 3, "params": {"dim": 0}},
        "spec type 'model_manifold': dim must be a positive integer, got 0",
    ),
    "string-dim-on-model_manifold": (
        {"type": "model_manifold", "truncation_radius": 3, "params": {"dim": "2"}}, "dim must be a positive integer, got '2'"
    ),
    "non-integer-dim-on-model_manifold": (
        {"type": "model_manifold", "truncation_radius": 3, "params": {"dim": 2.5}}, "dim must be a positive integer, got 2.5"
    ),
    "non-integer-layers-on-stack": (
        {"type": "stack", "truncation_radius": 3, "params": {"layers": 2.5}},
        "spec type 'stack': layers must be an integer >= 2, got 2.5",
    ),
    "string-layers-on-stack": (
        {"type": "stack", "truncation_radius": 3, "params": {"layers": "3"}}, "layers must be an integer >= 2, got '3'"
    ),
    "non-integer-extent-on-graph": (
        {"type": "graph", "truncation_radius": 2, "params": {"extent": 2.5}}, "extent must be an integer >= 0, got 2.5"
    ),
    "non-integer-subdivisions-on-graph": (
        {"type": "graph", "truncation_radius": 2, "params": {"extent": 2, "subdivisions": 1.5}},
        "subdivisions must be an integer >= 0, got 1.5",
    ),
    "non-integer-n_vertices-on-graph": (
        {"type": "graph", "truncation_radius": 2, "params": {"graph_kind": "explicit", "n_vertices": 2.5, "edges": [[0, 1]]}},
        "n_vertices must be an integer >= 0, got 2.5",
    ),
    "non-integer-edge-on-graph": (
        {"type": "graph", "truncation_radius": 2, "params": {"graph_kind": "explicit", "n_vertices": 3, "edges": [[0, 1.5]]}},
        "each point id of edges must be an integer >= 0, got 1.5",
    ),
    "non-integer-gasket_level": (
        _lattice({"support": "gasket", "gasket_level": 2.5, "kernel": {"family": "stable_i"}}, radius=4),
        "kernel family 'stable_i': gasket_level must be an integer >= 0, got 2.5",
    ),
    "non-integer-n_points-on-explicit": (_explicit([], n_points=2.5), "n_points must be an integer >= 0, got 2.5"),
    "non-integer-entry-on-explicit": (_explicit([[0, 1.5, 1.0]]), "each point id of entries must be an integer >= 0, got 1.5"),
    # the gasket built its own truncation 2^L, spacing 1 and plane whatever the spec said
    "truncation-differs-from-gasket": (
        _lattice({"support": "gasket", "gasket_level": 3, "kernel": {"family": "stable_i"}}),
        "kernel family 'stable_i': truncation_radius 3 differs from the level-3 gasket's 8",
    ),
    "spacing-on-gasket": (
        _lattice({"support": "gasket", "gasket_level": 3, "spacing": 0.5, "kernel": {"family": "stable_i"}}, radius=8),
        "spacing 0.5 differs from the level-3 gasket's 1",
    ),
    "dim-on-gasket": (
        _lattice({"support": "gasket", "gasket_level": 3, "dim": 3, "kernel": {"family": "stable_i"}}, radius=8),
        "dim 3 differs from the level-3 gasket's 1",
    ),
    # JSON true passed as 1 and NaN passed validation; an infinite radius overflowed in the lattice box
    "bool-truncation_radius": (
        _lattice({}, radius=True), "field 'truncation_radius' must be a finite positive number, got True"
    ),
    "nan-truncation_radius": (
        _lattice({}, radius=float("nan")), "field 'truncation_radius' must be a finite positive number, got nan"
    ),
    "infinite-truncation_radius-on-stable_i": (
        _lattice({"kernel": {"family": "stable_i"}}, radius=float("inf")),
        "field 'truncation_radius' must be a finite positive number, got inf",
    ),
    "infinite-truncation_radius-on-graph": (
        {"type": "graph", "truncation_radius": float("inf"), "params": {"extent": 2}},
        "field 'truncation_radius' must be a finite positive number, got inf",
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_SPECS))
def test_bad_spec_raises_spec_error_naming_the_fault(name):
    spec, text = BAD_SPECS[name]
    with pytest.raises(SpecError) as exc:
        build_from_spec(spec)
    assert text in str(exc.value)


@pytest.mark.parametrize("name", sorted(BAD_SPECS))
def test_bad_spec_exits_2_through_the_cli(tmp_path, capsys, name):
    spec, text = BAD_SPECS[name]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["criteria", "--spec", str(path), "--radii", "1.5", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and text in err and "Traceback" not in err


@pytest.mark.parametrize("radius", ["1e400", "1" + "0" * 400])
def test_truncation_radius_past_the_largest_float_exits_2(tmp_path, capsys, radius):
    # json reads 1e400 as inf and a 401-digit integer as an int that no float holds: both overflowed
    path = tmp_path / "big.json"
    path.write_text('{"type": "lattice", "truncation_radius": ' + radius + ', "params": {"kernel": {"family": "stable_i"}}}')
    assert cli.main(["criteria", "--spec", str(path), "--radii", "1.5", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "field 'truncation_radius' must be a finite positive number" in err and "Traceback" not in err


def test_integral_float_dim_builds_that_lattice():
    built = build_from_spec(_lattice({"dim": 2.0}, radius=2))
    assert built.space.steps.shape == (25, 2) and built.space.steps.dtype.kind == "i"


def test_repeated_equal_entries_give_one_entry():
    built = build_from_spec(_explicit([[0, 1, 2.0], [0, 1, 2.0], [1, 0, 2.0]]))
    assert built.kernel.density(0, 1) == built.kernel.density(1, 0) == 2.0
    assert built.kernel.matrix.nnz == 2


def test_every_json_block_in_the_readme_builds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert blocks
    for block in blocks:
        built = build_from_spec(json.loads(block))
        assert built.space.n_points > 0
