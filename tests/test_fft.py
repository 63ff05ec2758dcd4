"""The stencil FFTs on numpy.fft against scipy.fft, the transforms they replace.

`_rfftn` and `_irfftn` run numpy's one-axis transforms in scipy's axis order
and scale once, as scipy's pocketfft does, so they give scipy.fft's bits;
np.fft.rfftn and irfftn do not (other axis order, per-axis scaling). The
end-to-end tests build each kernel twice, once on the helpers and once with
the helpers patched back to scipy.fft, and compare every result byte for
byte. No command imports scipy.fft, which a fresh interpreter checks.
"""

import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import jdlab
import jdlab.forms
from jdlab import BuiltInstance, capacity_scan, stable_like
from jdlab.forms import _fast_len, _irfftn, _rfftn

SHAPES = [(n,) for n in (1, 2, 3, 7, 16, 45, 97, 318, 2731)] + [
    (1, 5), (4, 4), (5, 9), (12, 7), (25, 25), (33, 17), (2, 3, 4), (5, 5, 5), (7, 3, 6), (9, 11, 4),
]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("padded", [False, True], ids=["unpadded", "padded"])
def test_the_helpers_are_scipy_fft_bit_for_bit(shape, padded):
    x = np.random.default_rng(sum(shape)).normal(size=shape)
    s = tuple(_fast_len(2 * n - 1) for n in shape) if padded else shape
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no DeprecationWarning, nor any other
        got = _rfftn(x, s if padded else None)
        back = _irfftn(got * got.conj(), s)
    want = scipy.fft.rfftn(x, s=s)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    want_back = scipy.fft.irfftn(want * want.conj(), s=s)
    assert back.dtype == want_back.dtype and back.tobytes() == want_back.tobytes()


def test_fast_len_is_scipy_next_fast_len():
    n = np.arange(1, 20001)
    assert [_fast_len(int(k)) for k in n] == [scipy.fft.next_fast_len(int(k), real=True) for k in n]
    for k in (2**20 + 1, 10**9 + 7, 3**20 - 1, 5**15 + 3, 2**40 + 1):
        assert _fast_len(k) == scipy.fft.next_fast_len(k, real=True), k


def _scipy_rfftn(x, shape=None):
    return scipy.fft.rfftn(x, s=shape)


def _scipy_irfftn(y, shape):
    return scipy.fft.irfftn(y, s=shape)


INSTANCES = {
    "1d": (dict(alpha=1.0, beta=1.0, dim=1, truncation_radius=300), [10.0, 40.0, 160.0, 290.0]),
    "1d-case-ii": (dict(case="ii", alpha=1.0, tempering=0.8, dim=1, truncation_radius=200), [5.0, 50.0, 190.0]),
    "2d": (dict(alpha=1.2, beta=0.7, dim=2, spacing=0.5, truncation_radius=8), [2.0, 4.0, 7.5]),
    "3d": (dict(alpha=0.8, beta=1.5, dim=3, truncation_radius=5), [2.0, 3.0, 4.5]),
    "gasket": (dict(alpha=0.8, support="gasket", gasket_level=5), [2.0, 8.0, 28.0]),
}


def _results(kwargs, radii):
    """Every FFT result of one stencil instance, as bytes: matvec, row_mass, weighted_row_sums, capacity_scan."""
    built = stable_like(**kwargs)
    kernel, space = built.kernel, built.space
    v = np.random.default_rng(3).normal(size=space.n_points)
    scan = capacity_scan(BuiltInstance(kernel), [space.origin], radii)
    sums = [kernel.weighted_row_sums(lambda d, r=r: np.minimum(d, r) ** 2) for r in radii]
    arrays = [kernel.matvec(v), kernel.row_mass, *sums, kernel.weighted_row_sums(lambda d: 1 / d)]
    arrays += [np.array(scan.capacities), np.array(scan.residuals), np.array(scan.iterations), np.array(scan.unknowns)]
    return [a.tobytes() for a in arrays], scan.iterations


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_stencil_results_are_byte_identical_to_the_scipy_fft_path(monkeypatch, name):
    kwargs, radii = INSTANCES[name]
    got = _results(kwargs, radii)
    monkeypatch.setattr(jdlab.forms, "_rfftn", _scipy_rfftn)
    monkeypatch.setattr(jdlab.forms, "_irfftn", _scipy_irfftn)
    monkeypatch.setattr(jdlab.forms, "_fast_len", lambda n: scipy.fft.next_fast_len(n, real=True))
    want = _results(kwargs, radii)
    assert got[0] == want[0]
    assert all(it > 0 for it in got[1])  # every solve ran the preconditioned CG, so the preconditioner FFTs ran


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_every_fft_of_a_capacity_scan_has_5_smooth_lengths(monkeypatch, name):
    # the preconditioner transformed at the free set's unpadded box: at a prime length, a Bluestein plan on every call
    kwargs, radii = INSTANCES[name]
    built = stable_like(**kwargs)
    shapes = []
    rfftn, irfftn = jdlab.forms._rfftn, jdlab.forms._irfftn
    monkeypatch.setattr(jdlab.forms, "_rfftn", lambda x, shape=None: shapes.append(shape or x.shape) or rfftn(x, shape))
    monkeypatch.setattr(jdlab.forms, "_irfftn", lambda y, shape: shapes.append(shape) or irfftn(y, shape))
    assert all(it > 0 for it in capacity_scan(built, [built.space.origin], radii).iterations)
    assert shapes and all(_fast_len(n) == n for shape in shapes for n in shape)


def test_no_command_imports_scipy_fft(tmp_path):
    # a fresh interpreter: this one imports scipy.fft as the oracle above
    spec = tmp_path / "stable.json"
    spec.write_text(json.dumps({
        "type": "lattice", "truncation_radius": 30, "params": {"dim": 1, "kernel": {"family": "stable_i", "alpha": 1.0, "beta": 1.0}},
    }))
    out = tmp_path / "out"
    script = textwrap.dedent(f"""
        import sys
        from jdlab.cli import main
        spec, out = {str(spec)!r}, {str(out)!r}
        for argv in (
            ["build"],
            ["criteria", "--radii", "2,8,20"],
            ["capacity", "--K", "ids:30", "--radii", "2,8,20"],
            ["simulate", "--horizon", "1", "--trials", "20", "--seed", "1"],
        ):
            assert main([*argv, "--spec", spec, "--out-dir", out]) == 0, argv
        print(sorted(m for m in sys.modules if m.startswith("scipy.fft")))
    """)
    src = str(Path(jdlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert {p.name for p in out.iterdir()} >= {"stable.built.json", "stable.capacity.json"}
