"""Binding of the private numpy and scipy entry points (`nlconfirm._native`)."""

import importlib
import importlib.util
import sys

import pytest


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
