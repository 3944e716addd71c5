"""Package exports: every listed name resolves, and deleted names stay deleted."""

import importlib

import pytest

# (module, name) pairs that were deleted; a stale export or re-definition fails here
DELETED = [
    ("nlconfirm.dsp.windows", "WindowFunction"),
    ("nlconfirm.dsp.spectral", "mel_log_energies"),
    ("nlconfirm.dsp.spectral", "mfcc_from_log_energies"),
    ("nlconfirm.learn.svm", "decision_value"),
    ("nlconfirm.learn.cv_core", "PCA_EPSILON"),
]


@pytest.mark.parametrize("package", ["nlconfirm.dsp", "nlconfirm.learn"])
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("module_name, name", DELETED)
def test_deleted_names_are_gone(module_name, name):
    package = importlib.import_module(module_name.rsplit(".", 1)[0])
    assert not hasattr(importlib.import_module(module_name), name)
    assert not hasattr(package, name)
    assert name not in package.__all__
