import json
import pickle
import re
import time
import warnings

import numpy as np
import pytest

import jdlab.cli as cli
import jdlab.forms as fmod
from jdlab import simulate
from jdlab.capacity import SolverFailure
from jdlab.forms import JumpKernel, StencilKernel, jump_rates
from jdlab.simulate import SimConfig, sample_estimates
from jdlab.specio import load_spec_or_built
from test_segments import _SPECS, _spec
from test_stencil import no_gather


def write_spec(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def z_spec(tmp_path):
    return write_spec(tmp_path / "znn.json", {"type": "lattice", "truncation_radius": 60, "params": {"dim": 1}})


def test_build_roundtrip_and_criteria_identical(tmp_path, z_spec):
    out = tmp_path / "built.json"
    assert cli.main(["build", "--spec", z_spec, "--out", str(out), "--out-dir", str(tmp_path)]) == 0
    assert json.loads(out.read_text()) == json.loads(open(z_spec).read())

    d1, d2 = tmp_path / "a", tmp_path / "b"
    args = ["criteria", "--radii", "5,10,20,40", "--prefix", "case"]
    assert cli.main(args + ["--spec", z_spec, "--out-dir", str(d1)]) == 0
    assert cli.main(args + ["--spec", str(out), "--out-dir", str(d2)]) == 0
    for name in ("case.conservativeness.json", "case.recurrence.json", "case.conservativeness.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


# 1/3 needs 16 digits: a built file written at the reports' 12 would be another spec
_DIGITS = {"type": "weighted_line", "truncation_radius": 2.5, "params": {"lam": 1 / 3, "spacing": 0.1}}


@pytest.mark.parametrize("name", [*sorted(_SPECS), "digits"])
def test_a_built_file_is_its_spec_and_reports_as_it_does(tmp_path, name):
    spec = _DIGITS if name == "digits" else _spec(name, floats=False)
    source = write_spec(tmp_path / f"{name}.json", spec)
    assert cli.main(["build", "--spec", source, "--out-dir", str(tmp_path)]) == 0
    built = tmp_path / f"{name}.built.json"
    assert json.loads(built.read_text()) == spec
    space = load_spec_or_built(source).space
    reach = space.max_distance_from(space.origin)
    radii = ",".join(repr(r) for r in (1 + (reach - 1) / 3, 1 + (reach - 1) * 2 / 3, reach))  # criteria take (1, reach]
    runs = {}
    for path, out in ((source, "spec"), (built, "built")):
        for argv in (["criteria", "--radii", radii], ["capacity", "--K", f"ids:{space.origin}", "--radii", radii]):
            assert cli.main([*argv, "--spec", str(path), "--out-dir", str(tmp_path / out)]) == 0
        runs[out] = {p.name: p.read_bytes() for p in (tmp_path / out).iterdir() if "manifest" not in p.name}
    assert runs["spec"] == runs["built"]  # reports named for the spec, byte for byte
    assert {f"{name}.criteria.recurrence.json", f"{name}.capacity.json"} <= runs["spec"].keys()


@pytest.mark.parametrize(
    "radius, params",
    [(1200, {"dim": 1, "kernel": {"family": "stable_i"}}), (64, {"support": "gasket", "gasket_level": 6, "kernel": {"family": "stable_ii"}})],
    ids=["stable-1d", "gasket"],
)
def test_loading_a_built_stencil_spec_gathers_no_csr(tmp_path, radius, params):
    spec = write_spec(tmp_path / "s.json", {"type": "lattice", "truncation_radius": radius, "params": params})
    assert cli.main(["build", "--spec", spec, "--out-dir", str(tmp_path)]) == 0
    with no_gather():
        built = load_spec_or_built(tmp_path / "s.built.json")
    assert type(built.kernel) is StencilKernel


def test_build_never_writes_over_its_spec(tmp_path):
    source = write_spec(tmp_path / "z.built.json", {"type": "lattice", "truncation_radius": 3, "params": {}})
    before = open(source, "rb").read()
    assert cli.main(["build", "--spec", source, "--out-dir", str(tmp_path)]) == 0
    assert open(source, "rb").read() == before
    assert json.loads((tmp_path / "z.built.built.json").read_text()) == json.loads(before)


class _Touch:
    """Unpickling it creates the file at `path`: a payload that shows whether a loader ran it."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return open, (self.path, "w")


def test_a_pkl_spec_exits_2_and_is_never_unpickled(tmp_path, capsys):
    # load_built ran pickle.load on any .pkl and only then rejected what it held
    marker, evil = tmp_path / "marker", tmp_path / "evil.pkl"
    evil.write_bytes(pickle.dumps(_Touch(str(marker))))
    for argv in (["build"], ["criteria", "--radii", "2"], ["capacity", "--K", "ids:0", "--radii", "2"], ["simulate", "--horizon", "1"]):
        assert cli.main([*argv, "--spec", str(evil), "--out-dir", str(tmp_path / "out")]) == 2
        assert "built files are JSON specs" in capsys.readouterr().err
    assert not marker.exists() and not (tmp_path / "out").exists()
    pickle.loads(evil.read_bytes()).close()  # the payload is live
    assert marker.exists()


def test_build_writes_no_pickle(tmp_path, z_spec, capsys):
    out = tmp_path / "out"
    assert cli.main(["build", "--spec", z_spec, "--out", str(out / "z.pkl"), "--out-dir", str(out)]) == 2
    assert "not a pickle" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [str(2**70), "-1"])
def test_a_seed_outside_the_philox_key_exits_2(tmp_path, z_spec, capsys, seed):
    # 2^70 sampled seed 0's trials and -1 those of 2^64 - 1, each report recording the seed it was given
    argv = ["simulate", "--spec", z_spec, "--horizon", "1", "--trials", "5", f"--seed={seed}", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 2
    assert f"seed must be an integer in [0, 2^64), got {seed}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.manifest.json"))


def test_criteria_verdicts_z_and_z3(tmp_path, z_spec, capsys):
    assert cli.main(["criteria", "--spec", z_spec, "--radii", "5,10,20,40", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "conservativeness: criterion satisfied" in out
    assert "recurrence: criterion satisfied" in out

    z3 = write_spec(tmp_path / "z3.json", {"type": "lattice", "truncation_radius": 8, "params": {"dim": 3}})
    assert cli.main(["criteria", "--spec", z3, "--radii", "2,3,4,5,6", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "conservativeness: criterion satisfied" in out
    assert "recurrence: criterion inconclusive" in out
    rec = json.loads((tmp_path / "z3.criteria.recurrence.json").read_text())
    assert rec["verdict"] == "inconclusive"


def test_criteria_stable_like_verdicts(tmp_path, capsys):
    spec = write_spec(
        tmp_path / "stable.json",
        {
            "type": "lattice",
            "truncation_radius": 120,
            "params": {"dim": 1, "kernel": {"family": "stable_i", "alpha": 1.5, "beta": 1.5}},
        },
    )
    assert cli.main(["criteria", "--spec", spec, "--radii", "10,20,40,60", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("satisfied") == 2


def test_missing_truncation_radius_exits_2(tmp_path, capsys):
    bad = write_spec(tmp_path / "bad.json", {"type": "lattice", "params": {"dim": 1}})
    assert cli.main(["criteria", "--spec", bad, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "truncation_radius" in err


def test_kernel_overflowing_at_the_spacing_exits_2_naming_it(tmp_path, capsys):
    kernel = {"family": "stable_i", "alpha": 1.9}
    spec = {"type": "lattice", "truncation_radius": 3e-160, "params": {"dim": 1, "spacing": 1e-160, "kernel": kernel}}
    bad = write_spec(tmp_path / "overflow.json", spec)
    assert cli.main(["criteria", "--spec", bad, "--out-dir", str(tmp_path)]) == 2
    assert "the kernel overflows at d = h = 1e-160" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--horizon", "nan"], "horizon"),
        (["--horizon", "inf", "--max-jumps", "100"], "horizon"),
        (["--horizon", "1", "--outer", "nan"], "outer radius"),
        (["--horizon", "1", "--outer", "-1"], "outer radius"),
    ],
)
def test_simulate_horizons_and_radii_that_answer_wrongly_exit_2(tmp_path, capsys, flags, message):
    # on z-200 these ran to the jump cap, flagged explosion on a bounded walk, or absorbed at step 0, all exit 0
    spec = write_spec(tmp_path / "z.json", {"type": "lattice", "truncation_radius": 200, "params": {"dim": 1}})
    argv = ["simulate", "--spec", spec, "--x0", "200", "--trials", "5", "--seed", "1", "--out-dir", str(tmp_path)]
    assert cli.main(argv + flags) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*.manifest.json"))


def test_an_empty_explicit_space_exits_2(tmp_path, capsys):
    # zero points died with an IndexError traceback, exit 1
    kernel = {"family": "explicit", "n_points": 0}
    bad = write_spec(tmp_path / "empty.json", {"type": "lattice", "truncation_radius": 1, "params": {"kernel": kernel}})
    assert cli.main(["criteria", "--spec", bad, "--radii", "2", "--out-dir", str(tmp_path)]) == 2
    assert "at least one point" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.manifest.json"))


def test_a_gasket_level_too_deep_to_address_exits_2(tmp_path, capsys):
    # level 2000 died with an OverflowError traceback at float(2**gasket_level), exit 1
    kernel = {"family": "stable_i", "support": "gasket", "gasket_level": 2000}
    bad = write_spec(tmp_path / "deep.json", {"type": "lattice", "truncation_radius": 8, "params": {"kernel": kernel}})
    assert cli.main(["criteria", "--spec", bad, "--radii", "2", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "gasket_level 2000 is too deep" in err and "Traceback" not in err
    assert not list(tmp_path.glob("*.manifest.json"))


def test_a_model_manifold_whose_profile_overflows_exits_2_naming_it(tmp_path, capsys):
    # r^r overflows past r = 143: two RuntimeWarnings, then "measure must be finite", naming no profile or radius
    spec = {"type": "model_manifold", "truncation_radius": 200, "params": {"dim": 1, "spacing": 1.0}}
    bad = write_spec(tmp_path / "mm.json", spec)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["criteria", "--spec", bad, "--radii", "2", "--out-dir", str(tmp_path)]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "profile 'sandwich' overflows on truncation radius 200: sigma is infinite from r = 143" in err
    assert not list(tmp_path.glob("*.manifest.json"))


@pytest.mark.parametrize(
    "spec, label",
    [
        ({"type": "lattice", "params": {"dim": 1, "spacing": 1e-200}}, "kernel family 'nn'"),
        ({"type": "stack", "params": {"dim": 1, "spacing": 1e-200}}, "spec type 'stack'"),
        ({"type": "lattice", "params": {"kernel": {"family": "explicit", "spacing": 1e-200}}}, "kernel family 'explicit'"),
        ({"type": "model_manifold", "params": {"dim": 1, "spacing": 1e-200}}, "spec type 'model_manifold'"),
    ],
    ids=["lattice", "stack", "explicit", "model_manifold"],
)
def test_a_grid_too_large_to_address_exits_2_naming_the_spacing(tmp_path, capsys, spec, label):
    # each exited 2 with numpy's "Maximum allowed size exceeded", naming neither the spacing nor the radius
    bad = write_spec(tmp_path / "fine.json", {**spec, "truncation_radius": 3})
    assert cli.main(["criteria", "--spec", bad, "--radii", "2", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    count = "3e+200" if spec["type"] == "model_manifold" else "6e+200"  # k_max radii, or 2 extent + 1 per axis
    assert f"{label}: spacing 1e-200 on truncation radius 3 gives {count} points" in err
    assert not list(tmp_path.glob("*.manifest.json"))


def test_coords_with_a_row_too_many_exit_2(tmp_path, capsys):
    # 4 coordinate rows for 3 points died with an IndexError traceback, exit 1
    kernel = {"family": "explicit", "n_points": 3, "coords": [[0, 0], [1, 0], [2, 0], [3, 0]]}
    bad = write_spec(tmp_path / "rows.json", {"type": "lattice", "truncation_radius": 1, "params": {"kernel": kernel}})
    assert cli.main(["criteria", "--spec", bad, "--radii", "2", "--out-dir", str(tmp_path)]) == 2
    assert "coords must have one row per point: shape (4, 2) for 3 points" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.manifest.json"))


@pytest.mark.filterwarnings("ignore:overflow encountered in divide")
@pytest.mark.parametrize(
    "kind, params, message",
    [
        ("lattice", {"kernel": {"family": "explicit", "n_points": 3, "entries": [[0, 1, 1.0], [2, 1, float("inf")]]}},
         "kernel family 'explicit': jump density must be finite: j(1, 2) = inf"),
        ("stack", {"dim": 1, "psi": 1e-310}, "spec type 'stack': jump density must be finite: j(0, 1) = inf"),
        ("stack", {"dim": 1, "alpha": float("nan")}, "spec type 'stack': alpha must lie in (0, 2)"),
        ("stack", {"dim": 1, "alpha": 1e308}, "spec type 'stack': alpha must lie in (0, 2)"),
    ],
    ids=["explicit-infinity", "stack-psi-underflow", "stack-alpha-nan", "stack-alpha-1e308"],
)
def test_non_finite_kernel_entries_exit_2_naming_them(tmp_path, capsys, kind, params, message):
    # each exited 2 with "jump density must be exactly symmetric"; json writes inf and nan as Infinity and NaN
    bad = write_spec(tmp_path / "bad.json", {"type": kind, "truncation_radius": 2, "params": params})
    assert cli.main(["criteria", "--spec", bad, "--radii", "1.5", "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "density, message",
    [(float("nan"), "jump density must be finite: j(0, 1) = nan"), (float("inf"), "jump density must be finite: j(0, 1) = inf"),
     (-1.0, "jump density must be nonnegative")],
    ids=["nan", "infinity", "negative"],
)
def test_nn_density_outside_the_kernel_range_exits_2_naming_it(tmp_path, capsys, density, message):
    params = {"dim": 2, "kernel": {"family": "nn", "density": density}}
    bad = write_spec(tmp_path / "bad.json", {"type": "lattice", "truncation_radius": 3, "params": params})
    assert cli.main(["criteria", "--spec", bad, "--radii", "2", "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: kernel family 'nn': {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, params, message",
    [
        ("lattice", {"dim": 1, "kernel": {"family": "stable_i", "beta": float("nan")}},
         "kernel family 'stable_i': beta must be positive"),
        ("lattice", {"dim": 1, "kernel": {"family": "stable_ii", "tempering": float("nan")}},
         "kernel family 'stable_ii': tempering constant must be positive"),
        ("stack", {"dim": 1, "psi": float("nan")}, "spec type 'stack': Psi must be strictly positive"),
        ("weighted_line", {"lam": float("nan")}, "spec type 'weighted_line': lambda must be positive"),
        ("model_manifold", {"profile": "constant", "profile_constant": float("nan")},
         "spec type 'model_manifold': sigma must be positive on the radial grid"),
        ("graph", {"graph_kind": "lattice2d", "extent": 4, "phi_constant": float("nan")},
         "spec type 'graph': edge density phi must be positive"),
        ("graph", {"graph_kind": "lattice2d", "extent": 4, "phi_kind": "shell_power", "phi_power": float("nan")},
         "spec type 'graph': edge density phi must be positive"),
        ("graph", {"graph_kind": "explicit", "n_vertices": 3, "edges": [[0, 1], [1, 2]], "weights": [1.0, float("nan")]},
         "spec type 'graph': edge weights must be finite and nonnegative"),
        ("graph", {"graph_kind": "explicit", "n_vertices": 3, "edges": [[0, 1], [1, 2]], "weights": [1.0, float("inf")]},
         "spec type 'graph': edge weights must be finite and nonnegative"),
        ("graph", {"graph_kind": "explicit", "n_vertices": 3, "edges": [[0, 1], [1, 2]], "vertex_measure": [1.0, float("nan"), 1.0]},
         "spec type 'graph': vertex measure must be finite and strictly positive"),
        ("lattice", {"kernel": {"family": "explicit", "n_points": 3, "coords": [[0], [float("nan")], [2]]}},
         "kernel family 'explicit': coordinates must be finite: point 1 is at [nan]"),
        ("lattice", {"kernel": {"family": "explicit", "n_points": 3, "coords": [[0], [float("inf")], [2]]}},
         "kernel family 'explicit': coordinates must be finite: point 1 is at [inf]"),
        ("weighted_line", {"lam": 1000},
         "spec type 'weighted_line': lam 1000 overflows the measure h e^(2 lam |x|) on truncation radius 4: "
         "it is finite only while 2 lam |x| <= 709.8"),
        ("lattice", {"kernel": {"family": "explicit", "n_points": 3, "coords": [[0], [1e308], [-1e308]]}},
         "kernel family 'explicit': coordinate spans [inf] per axis overflow the euclidean metric"),
    ],
    ids=[
        "stable_i-beta", "stable_ii-tempering", "stack-psi", "weighted_line-lam", "model_manifold-profile_constant",
        "graph-phi_constant", "graph-phi_power", "graph-weight-nan", "graph-weight-inf", "graph-vertex_measure-nan",
        "explicit-coords-nan", "explicit-coords-inf", "weighted_line-lam-overflow", "explicit-coords-span-overflow",
    ],
)
def test_nan_parameters_exit_2_naming_the_field(tmp_path, capsys, kind, params, message):
    # each exited 2 with a message about kernel entries, the measure, symmetry or connectivity, or exited 0
    bad = write_spec(tmp_path / "bad.json", {"type": kind, "truncation_radius": 4, "params": params})
    assert cli.main(["criteria", "--spec", bad, "--radii", "1.5", "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_the_space_alias_is_gone(tmp_path, z_spec, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["criteria", "--space", z_spec, "--radii", "5", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "--spec" in capsys.readouterr().err


def test_a_bin_path_is_read_as_a_json_spec(tmp_path, z_spec):
    # .bin was handed to pickle.load like .pkl
    spec = tmp_path / "spec.bin"
    spec.write_bytes(open(z_spec, "rb").read())
    assert cli.main(["criteria", "--spec", str(spec), "--radii", "5", "--out-dir", str(tmp_path)]) == 0


def test_criteria_csv_rows_are_the_json_sequence(tmp_path, capsys):
    # the csv module wrote full repr floats (2.5221970596792267) where the JSON has 12 digits
    spec = write_spec(tmp_path / "s.json", {"type": "lattice", "truncation_radius": 40, "params": {"dim": 1, "kernel": {"family": "stable_i"}}})
    assert cli.main(["criteria", "--spec", spec, "--radii", "3,7.5,11,30", "--out-dir", str(tmp_path), "--prefix", "c"]) == 0
    for name in ("conservativeness", "recurrence"):
        report = json.loads((tmp_path / f"c.{name}.json").read_text())
        header, *lines = (tmp_path / f"c.{name}.csv").read_text().splitlines()
        assert header == f"radius,{report['statistic_name']}"
        rows = [tuple(float(v) for v in line.split(",")) for line in lines]
        assert rows == list(zip(report["radii"], report["values"]))


def test_unknown_type_exits_2(tmp_path, capsys):
    bad = write_spec(tmp_path / "bad2.json", {"type": "torus", "truncation_radius": 5})
    assert cli.main(["criteria", "--spec", bad, "--out-dir", str(tmp_path)]) == 2
    assert "type" in capsys.readouterr().err


def test_simulate_gambler_and_byte_identical_reruns(tmp_path, z_spec):
    d1, d2 = tmp_path / "s1", tmp_path / "s2"
    args = [
        "simulate", "--spec", z_spec, "--x0", "61", "--horizon", "1e9",
        "--trials", "2000", "--seed", "42", "--max-jumps", "100000",
        "--outer", "10", "--target", "ids:60", "--prefix", "run",
    ]
    assert cli.main(args + ["--out-dir", str(d1)]) == 0
    assert cli.main(args + ["--out-dir", str(d2)]) == 0
    s1 = (d1 / "run.json").read_bytes()
    s2 = (d2 / "run.json").read_bytes()
    assert s1 == s2
    summary = json.loads(s1)
    assert abs(summary["return"]["value"] - 0.9) < 0.03
    assert summary["survival"]["value"] <= 1.0


def test_simulate_trajectory_csv(tmp_path, z_spec):
    args = [
        "simulate", "--spec", z_spec, "--horizon", "2.0", "--trials", "10",
        "--seed", "1", "--trajectories", "paths.csv", "--out-dir", str(tmp_path),
    ]
    assert cli.main(args) == 0
    lines = (tmp_path / "paths.csv").read_text().strip().splitlines()
    assert lines[0] == "trial,status,elapsed,n_jumps,final_state,hit"
    assert len(lines) == 11


def test_trajectory_csv_matches_per_trial_format(tmp_path, z_spec):
    # alive, absorbed and jump-capped trials all appear at this horizon, jump cap and outer radius
    args = [
        "simulate", "--spec", z_spec, "--horizon", "10", "--trials", "200", "--seed", "3",
        "--max-jumps", "40", "--outer", "8", "--trajectories", "paths.csv", "--out-dir", str(tmp_path),
    ]
    assert cli.main(args) == 0
    built = load_spec_or_built(z_spec)
    config = SimConfig(horizon=10.0, trials=200, max_jumps=40, seed=3, outer_radius=8.0)
    [(_, batch)], _ = sample_estimates(jump_rates(built.kernel), built.space.origin, config)
    assert set(batch.status.tolist()) == {0, 1, 2}
    expected = "trial,status,elapsed,n_jumps,final_state,hit\n" + "".join(
        f"{t},{int(batch.status[t])},{batch.elapsed[t]:.12g},"
        f"{int(batch.n_jumps[t])},{int(batch.final_state[t])},{int(batch.hit[t])}\n"
        for t in range(len(batch.status))
    )
    assert (tmp_path / "paths.csv").read_text() == expected


def test_capacity_closed_form_and_infeasible_k(tmp_path, z_spec, capsys):
    assert cli.main([
        "capacity", "--spec", z_spec, "--K", "ball:60:0", "--radii", "10,20,40",
        "--out-dir", str(tmp_path), "--prefix", "cap",
    ]) == 0
    data = json.loads((tmp_path / "cap.json").read_text())
    assert data["capacities"] == pytest.approx([0.4, 0.2, 0.1], abs=1e-6)

    assert cli.main([
        "capacity", "--spec", z_spec, "--K", "ball:60:5", "--radii", "3,10",
        "--out-dir", str(tmp_path),
    ]) == 2
    assert "radius" in capsys.readouterr().err


def test_stencil_capacity_repeats_and_criteria_read_the_same_csr_from_spec_and_built_file(tmp_path):
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps(
        {"type": "lattice", "truncation_radius": 100, "params": {"dim": 1, "kernel": {"family": "stable_i"}}}
    ))
    assert cli.main(["build", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
    runs = {}
    for name, source in (("a", spec), ("b", spec), ("built", tmp_path / "s.built.json")):
        out = tmp_path / name
        assert cli.main(["criteria", "--spec", str(source), "--radii", "5,20,90", "--out-dir", str(out), "--prefix", "cr"]) == 0
        assert cli.main(["capacity", "--spec", str(source), "--K", "ids:100", "--radii", "5,20,90",
                         "--out-dir", str(out), "--prefix", "cap"]) == 0
        runs[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if "manifest" not in p.name}
    assert runs["a"] == runs["b"] == runs["built"]  # the built file builds the same stencil, so the same solves
    capacity = json.loads(runs["a"]["cap.json"])
    assert capacity["unknowns"] == [8, 38, 178] and min(capacity["iterations"]) > 0


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["capacity", "--K", "ids:99", "--radii", "5"], "--K"),
        (["capacity", "--K", "ids:-1", "--radii", "5"], "--K"),
        (["capacity", "--K", "ball:99:1", "--radii", "5"], "--K"),
        (["capacity", "--K", "ids:10", "--radii", "5", "--center", "50"], "--center"),
        (["capacity", "--K", "ids:10", "--radii", "5", "--center", "-1"], "--center"),
        (["criteria", "--x0", "99", "--radii", "2,4"], "--x0"),
        (["criteria", "--x0", "-3", "--radii", "2,4"], "--x0"),
        (["simulate", "--x0", "99", "--horizon", "1"], "--x0"),
        (["simulate", "--x0", "-3", "--horizon", "1"], "--x0"),
        (["simulate", "--horizon", "1", "--target", "ids:50"], "--target"),
        (["simulate", "--horizon", "1", "--target", "ball:-2:1"], "--target"),
    ],
)
def test_point_ids_outside_the_space_exit_2_naming_the_flag(tmp_path, capsys, argv, flag):
    # a 21-point Z: ids past the end raised IndexError, negative ids wrapped around to the other end
    spec = write_spec(tmp_path / "z.json", {"type": "lattice", "truncation_radius": 10, "params": {"dim": 1}})
    assert cli.main(argv + ["--spec", spec, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: point id ") and "not in [0, 21)" in err
    assert not list(tmp_path.glob("*.manifest.json"))


def test_simulate_charges_the_stencil_csr_to_the_size_budget_before_it_gathers(tmp_path, capsys, monkeypatch):
    # the 40,401 points of a 2-D stable-like lattice at T = 100 died gathering the n^2 entries of the rate table:
    # an _ArrayMemoryError traceback, exit 1; here the budget is cut to the 21 points' 420 entries
    kernel = {"family": "stable_i"}
    spec = write_spec(tmp_path / "s.json", {"type": "lattice", "truncation_radius": 10, "params": {"dim": 1, "kernel": kernel}})
    argv = ["simulate", "--spec", spec, "--horizon", "1", "--trials", "5", "--out-dir", str(tmp_path)]
    monkeypatch.setattr(fmod, "_SIZE_BUDGET", 420 * fmod._ITEM_BYTES)
    assert cli.main(argv) == 0
    monkeypatch.setattr(fmod, "_SIZE_BUDGET", 420 * fmod._ITEM_BYTES - 1)
    gathers = []
    monkeypatch.setattr(JumpKernel, "from_dense_rows", lambda *args: gathers.append(args))
    assert cli.main(argv + ["--prefix", "over"]) == 2
    err = capsys.readouterr().err
    assert "the CSR of a stencil kernel on 21 points holds 420 entries: about 2.69e+04 bytes, over the" in err
    assert not gathers and not list(tmp_path.glob("over.*"))


@pytest.mark.parametrize(
    "argv,message",
    [
        (["criteria", "--radii", "2:nan:1"], "radius range stop nan is not a finite number"),
        (["criteria", "--radii", "2:inf:1"], "radius range stop inf is not a finite number"),
        (["criteria", "--radii", "nan:5:1"], "radius range start nan is not a finite number"),
        (["capacity", "--K", "ids:10", "--radii", "2:5:nan"], "radius range step nan is not a finite number"),
        (["capacity", "--K", "ids:10", "--radii", ","], "a capacity scan needs at least one radius"),
        (["capacity", "--K", "ids:10", "--radii", "2,nan"], "radius nan is not a number"),
        (["capacity", "--K", "ids:10", "--radii", "nan,2"], "radius nan is not a number"),
    ],
)
def test_radius_lists_that_name_no_finite_radius_exit_2(tmp_path, capsys, argv, message):
    # on the 21-point Z, nan and inf bounds failed inside np.arange, an empty capacity scan exited 0, and a nan
    # capacity radius, sorted anywhere, exited with "K must be contained in B"
    spec = write_spec(tmp_path / "z.json", {"type": "lattice", "truncation_radius": 10, "params": {"dim": 1}})
    assert cli.main(argv + ["--spec", spec, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.glob("*.manifest.json"))


@pytest.mark.parametrize(
    "radii, count",
    [("2:1e9:1e-9", "1e+18"), ("2:1e300:1", "1e+300"), ("0:1e308:1e-320", "inf"), ("1:10001:1", "10001")],
)
def test_a_radius_range_of_more_than_10000_radii_exits_2(tmp_path, capsys, radii, count):
    # 2:1e9:1e-9 ended in a numpy _ArrayMemoryError traceback from np.arange
    spec = write_spec(tmp_path / "z.json", {"type": "lattice", "truncation_radius": 10, "params": {"dim": 1}})
    assert cli.main(["criteria", "--radii", radii, "--spec", spec, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: radius range {radii} holds {count} radii, more than 10,000\n"
    assert len(cli._parse_radii("1:10000:1")) == 10_000


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["simulate", "--horizon", "1", "--target", "ids:"], "--target"),
        (["simulate", "--horizon", "1", "--target", "ids:,"], "--target"),
        (["capacity", "--K", "ids:", "--radii", "5"], "--K"),
        (["simulate", "--horizon", "1", "--target", "ball:10:nan"], "--target"),
        (["capacity", "--K", "ball:10:nan", "--radii", "5"], "--K"),
    ],
)
def test_an_empty_target_exits_2(tmp_path, capsys, argv, flag):
    # simulate wrote a return estimate of 0.0 with no note: with K empty every trial left the ball at jump 0;
    # capacity on an empty ball: set ended in an IndexError traceback
    spec = write_spec(tmp_path / "z.json", {"type": "lattice", "truncation_radius": 10, "params": {"dim": 1}})
    assert cli.main(argv + ["--spec", spec, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {flag}: target set K is empty\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["criteria", "--radii", "2,4,8", "--tau", "inf"], "threshold must be positive and finite, got inf"),
        (["criteria", "--radii", "2,4,8", "--tau", "nan"], "threshold must be positive and finite, got nan"),
        (["criteria", "--radii", "2,4,8", "--tau", "-1"], "threshold must be positive and finite, got -1.0"),
        (["criteria", "--radii", "nan"], "radius nan is not a finite number"),
        (["capacity", "--K", "ids:4630", "--radii", "2,4,6,8", "--decay-ratio", "2"],
         "decay_ratio must lie in (0, 1), got 2.0"),
        (["capacity", "--K", "ids:4630", "--radii", "2,4,6,8", "--decay-ratio", "nan"],
         "decay_ratio must lie in (0, 1), got nan"),
    ],
)
def test_thresholds_and_radii_that_answer_wrongly_exit_2(tmp_path, capsys, argv, message):
    # on transient Z^3, --tau inf printed "recurrence: criterion satisfied", --tau nan exited 0, --radii nan
    # printed "math domain error" and --decay-ratio 2 printed certificate=True
    spec = write_spec(tmp_path / "z3.json", {"type": "lattice", "truncation_radius": 10, "params": {"dim": 3}})
    assert cli.main(argv + ["--spec", spec, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "dim, argv, repeated, verdict",
    [
        (3, ["criteria", "--radii", "2,2,2,8", "--tau", "100"], "2.0", "recurrence: criterion inconclusive"),
        (1, ["capacity", "--K", "ids:10", "--radii", "2,4,8,8", "--decay-ratio", "0.6"], "8.0", "certificate=True"),
    ],
)
def test_a_repeated_radius_exits_2_naming_it(tmp_path, capsys, dim, argv, repeated, verdict):
    # repeats changed verdicts: on Z^3 2,2,2,8 read "recurrence: criterion satisfied" where 2,8 is inconclusive,
    # and on Z 2,4,8,8 gave no certificate where 2,4,8 gives one
    spec = write_spec(tmp_path / "z.json", {"type": "lattice", "truncation_radius": 10, "params": {"dim": dim}})
    assert cli.main(argv + ["--spec", spec, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: radius {repeated} is repeated: a radius grid lists each radius once\n"
    assert not (tmp_path / "out").exists()
    at = argv.index("--radii") + 1
    distinct = [*argv[:at], ",".join(dict.fromkeys(argv[at].split(","))), *argv[at + 1 :]]
    assert cli.main(distinct + ["--spec", spec, "--out-dir", str(tmp_path / "out")]) == 0
    assert verdict in capsys.readouterr().out


def test_a_csv_report_into_a_directory_exits_2(tmp_path, z_spec, capsys):
    # write_csv on the directory ended in an IsADirectoryError traceback, exit 1
    assert cli.main(["criteria", "--spec", z_spec, "--radii", "5,10,20", "--out-dir", str(tmp_path), "--prefix", "r"]) == 0
    capsys.readouterr()
    jpath = tmp_path / "r.conservativeness.json"
    assert cli.main(["report", "--input", str(jpath), "--format", "csv", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: --out names a directory: {tmp_path}\n"


def test_report_pretty_and_csv(tmp_path, z_spec, capsys):
    assert cli.main(["criteria", "--spec", z_spec, "--radii", "5,10,20", "--out-dir", str(tmp_path), "--prefix", "r"]) == 0
    capsys.readouterr()
    jpath = tmp_path / "r.conservativeness.json"
    assert cli.main(["report", "--input", str(jpath)]) == 0
    out = capsys.readouterr().out
    assert "verdict" in out
    assert cli.main(["report", "--input", str(jpath), "--format", "csv", "--out", str(tmp_path / "r.csv")]) == 0
    report = json.loads(jpath.read_text())
    expected = "radius,value\n" + "".join(f"{r:.12g},{v:.12g}\n" for r, v in zip(report["radii"], report["values"]))
    assert (tmp_path / "r.csv").read_text() == expected


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "payload, message",
    [
        ([1.0, 2.0], "a report is a JSON object, not a list"),
        ({"radii": [1.0, 2.0], "values": [1, None]}, "report values must be a list of numbers"),
        ({"radii": 3.0, "values": [1.0]}, "report radii must be a list of numbers"),
    ],
)
def test_malformed_reports_exit_2(tmp_path, capsys, payload, message, fmt):
    # a JSON array raised AttributeError and a null value TypeError: exit 1 with a traceback
    path = tmp_path / "r.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["report", "--input", str(path), "--format", fmt, "--out", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("name", ["d.json", "d.pkl"])
@pytest.mark.parametrize(
    "argv, what",
    [
        (["report", "--input", "{}"], "report"),
        (["criteria", "--radii", "2", "--spec", "{}"], "spec"),
        (["build", "--spec", "{}"], "spec"),
        (["simulate", "--horizon", "1", "--spec", "{}"], "spec"),
    ],
)
def test_a_directory_for_a_file_exits_2(tmp_path, capsys, name, argv, what):
    # reading a directory raised IsADirectoryError: exit 1 with a traceback
    directory = tmp_path / name
    directory.mkdir()
    argv = [a.format(directory) for a in argv] + ([] if argv[0] == "report" else ["--out-dir", str(tmp_path)])
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {what} path is a directory: {directory}\n"


def test_numerical_failure_exits_3(tmp_path, z_spec, monkeypatch):
    def boom(*args, **kwargs):
        raise SolverFailure("synthetic breakdown")

    monkeypatch.setattr(cli, "capacity_scan", boom)
    code = cli.main([
        "capacity", "--spec", z_spec, "--K", "ball:60:0", "--radii", "10",
        "--out-dir", str(tmp_path),
    ])
    assert code == 3


def test_simulate_manifest_records_rng_contract_and_work(tmp_path, z_spec):
    args = [
        "simulate", "--spec", z_spec, "--x0", "61", "--horizon", "1e9", "--trials", "300",
        "--seed", "5", "--outer", "6", "--target", "ids:60", "--prefix", "w", "--out-dir", str(tmp_path),
    ]
    assert cli.main(args) == 0
    manifest = json.loads((tmp_path / "w.manifest.json").read_text())
    assert manifest["rng_contract"] == "philox4x32-10/1"
    assert manifest["trials"] == 600  # survival and return batches
    assert manifest["jumps"] == 11074  # the two batches share one chain per trial, counted once
    assert manifest["jumps_per_s"] > 0
    assert manifest["draws"] > 0
    summary = json.loads((tmp_path / "w.json").read_text())
    assert "rng_contract" not in summary and "jumps_per_s" not in summary
    # gambler's ruin with 20,000 trials: counting each batch's jumps wrote 383,364 jumps from 381,436 draws
    ruin = write_spec(tmp_path / "z200.json", {"type": "lattice", "truncation_radius": 200, "params": {"dim": 1}})
    assert cli.main([
        "simulate", "--spec", ruin, "--x0", "201", "--target", "ids:200", "--outer", "4", "--horizon", "1e9",
        "--trials", "20000", "--seed", "1", "--prefix", "r", "--out-dir", str(tmp_path),
    ]) == 0
    manifest = json.loads((tmp_path / "r.manifest.json").read_text())
    assert manifest["jumps"] <= manifest["draws"]


def test_simulate_manifest_counts_the_philox_blocks_drawn(tmp_path, z_spec):
    # no target, outer radius or reachable horizon: every trial makes exactly --max-jumps jumps,
    # each from one Philox block
    args = [
        "simulate", "--spec", z_spec, "--x0", "61", "--horizon", "1e9", "--trials", "50", "--max-jumps", "10",
        "--seed", "5", "--prefix", "d", "--out-dir", str(tmp_path),
    ]
    assert cli.main(args) == 0
    manifest = json.loads((tmp_path / "d.manifest.json").read_text())
    assert manifest["trials"] == 50 and manifest["jumps"] == 500 and manifest["draws"] == 500


@pytest.mark.parametrize("policy, passes", [("absorb", 1), ("reflect", 2)])
def test_simulate_samples_each_trial_chunk_once_per_reflecting_set(tmp_path, z_spec, monkeypatch, policy, passes):
    # under absorb the outer sets only stop trials, so survival and return share one pass; under
    # reflect the walkers reflect off different balls (about x0 and about the target)
    calls = []
    lockstep = simulate._lockstep
    monkeypatch.setattr(simulate, "_lockstep", lambda *args, **kw: calls.append(args[4]) or lockstep(*args, **kw))
    monkeypatch.setattr(simulate, "_DRAW_BUDGET", 100)
    args = [
        "simulate", "--spec", z_spec, "--x0", "61", "--target", "ids:60", "--outer", "6", "--horizon", "5",
        "--trials", "150", "--seed", "5", "--policy", policy, "--out-dir", str(tmp_path),
    ]
    assert cli.main(args) == 0
    assert len(calls) == 2 * passes  # two trial chunks per pass
    assert sorted(len(slots) for slots in calls) == sorted([100, 50] * passes)


@pytest.mark.parametrize(
    "argv",
    [
        ["criteria", "--seed", "3"],
        ["criteria", "--threads", "2"],
        ["capacity", "--K", "ids:60", "--radii", "10", "--format", "csv"],
        ["simulate", "--horizon", "1", "--threads", "2"],
        ["simulate", "--horizon", "1", "--format", "csv"],
        ["build", "--prefix", "p"],
    ],
)
def test_ignored_flags_are_rejected(tmp_path, z_spec, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--spec", z_spec, "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--seed", "--out-dir", "--prefix"])
def test_report_rejects_ignored_flags(tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--input", str(tmp_path / "r.json"), flag, "x"])
    assert exc.value.code == 2


def test_floats_rounded_to_12_digits(tmp_path, z_spec):
    assert cli.main(["criteria", "--spec", z_spec, "--radii", "7,13,29", "--out-dir", str(tmp_path), "--prefix", "f"]) == 0
    text = (tmp_path / "f.conservativeness.json").read_text()
    for token in re.findall(r"-?\d+\.\d+(?:e-?\d+)?", text):
        digits = re.sub(r"[^0-9]", "", token.split("e")[0]).lstrip("0")
        assert len(digits) <= 12


def test_manifest_written_and_referenced(tmp_path, z_spec):
    assert cli.main(["criteria", "--spec", z_spec, "--radii", "5,10,20", "--out-dir", str(tmp_path), "--prefix", "m"]) == 0
    manifest = json.loads((tmp_path / "m.manifest.json").read_text())
    assert manifest["command"] == "criteria"
    assert "spec_sha256" in manifest
    assert "m.conservativeness.json" in manifest["outputs"]
    report = json.loads((tmp_path / "m.conservativeness.json").read_text())
    assert report["manifest"] == "m.manifest.json"


def test_manifest_wall_time_covers_load_and_compute(tmp_path, z_spec, monkeypatch):
    def slow(fn):
        def wrapped(*args, **kwargs):
            time.sleep(0.1)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli, "load_spec_or_built", slow(cli.load_spec_or_built))
    monkeypatch.setattr(cli, "capacity_scan", slow(cli.capacity_scan))
    assert cli.main([
        "capacity", "--spec", z_spec, "--K", "ball:60:0", "--radii", "10",
        "--out-dir", str(tmp_path), "--prefix", "t",
    ]) == 0
    assert json.loads((tmp_path / "t.manifest.json").read_text())["wall_time_s"] >= 0.2
