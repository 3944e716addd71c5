"""Binding of the private numpy and scipy entry points (`nlconfirm._native`)."""

import importlib
import importlib.machinery
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.signal  # noqa: F401  the public filter wrapper's package, which a fallback binding imports

import nlconfirm


def fresh_native():
    """A new copy of `nlconfirm._native`, bound from what numpy and scipy provide now."""
    spec = importlib.util.find_spec("nlconfirm._native")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attribute, public", [
    ("numpy.linalg._umath_linalg", "eigvals", {"eigvals"}),
    ("numpy.fft._pocketfft_umath", "rfft_n_even", {"rfft", "irfft"}),
    ("numpy.fft._pocketfft_umath", "irfft", {"rfft", "irfft"}),
    ("scipy.signal._sigtools", "_linear_filter", {"linear_filter"}),
    ("numpy.linalg._umath_linalg", None, {"eigvals"}),  # None: the module does not import
    ("scipy.signal._sigtools", None, {"linear_filter"}),
])
def test_a_missing_entry_point_binds_its_public_wrapper(monkeypatch, module, attribute, public):
    if attribute is None:
        monkeypatch.setitem(sys.modules, module, None)
    else:
        monkeypatch.delattr(importlib.import_module(module), attribute)
    native = fresh_native()
    native.bind_scipy()
    assert native.BINDINGS == {name: "public" if name in public else "private"
                               for name in ("eigvals", "rfft", "irfft", "linear_filter")}
    for name, wrapper in native.PUBLIC.items():
        assert (getattr(native, name) is wrapper) == (name in public)


@pytest.mark.parametrize("extension", ["missing", "not loadable"])
def test_a_filter_extension_that_does_not_load_binds_the_public_wrapper(monkeypatch, tmp_path,
                                                                        extension):
    # a scipy installed in tmp_path, whose signal/ holds no extension or a junk one
    (tmp_path / "signal").mkdir()
    if extension == "not loadable":
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        (tmp_path / "signal" / f"_sigtools{suffix}").write_bytes(b"not a shared object")
    scipy = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    scipy.submodule_search_locations = [str(tmp_path)]
    native = fresh_native()
    monkeypatch.delitem(sys.modules, "scipy.signal._sigtools", raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", {"scipy": scipy}.get)
    native.bind_scipy()
    assert native.BINDINGS["linear_filter"] == "public"
    assert native.linear_filter is native.PUBLIC["linear_filter"]
    assert "scipy.signal._sigtools" not in sys.modules


def run_fresh(probe: str) -> list[str]:
    """The lines that `probe` prints in a fresh interpreter importing this nlconfirm."""
    env = {**os.environ, "PYTHONPATH": str(Path(nlconfirm.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True)
    return result.stdout.splitlines()


def test_synth_import_loads_the_filter_extension_alone():
    # no scipy package, so none of scipy.signal, stats, linalg or special; a
    # later scipy.signal shares the extension and gives the same bytes
    probe = """if True:
        import sys
        import numpy as np
        import nlconfirm.synth
        from nlconfirm import _native
        print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), _native.BINDINGS['linear_filter'])
        import scipy.signal
        print(sys.modules['scipy.signal._sigtools'] is _native._sigtools)
        x = np.random.default_rng(0).normal(size=1000)
        a, zi = np.array([1.0, -1.5, 0.95]), np.array([0.25, -0.5])
        ours = _native.linear_filter(np.ones(1), a, x, zi)
        theirs = scipy.signal.lfilter(np.ones(1), a, x, zi=zi)
        print([o.tobytes() == t.tobytes() for o, t in zip(ours, theirs)])
    """
    assert run_fresh(probe) == ["['scipy.signal._sigtools'] private", "True", "[True, True]"]


def test_a_loaded_filter_extension_is_reused():
    probe = """if True:
        import sys
        import scipy.signal
        loaded = sys.modules['scipy.signal._sigtools']
        import nlconfirm.synth
        from nlconfirm import _native
        print(_native._sigtools is loaded, _native.BINDINGS['linear_filter'])
    """
    assert run_fresh(probe) == ["True private"]
