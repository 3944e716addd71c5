"""The private numpy and scipy entry points of per-frame work, each with a public fallback.

Each name calls the C entry point of its public wrapper with the arguments
the wrapper would pass: the wrapper's bits, without its checks, which cost
about as much as one frame's work. Where numpy or scipy lacks one, the name
binds to the wrapper in `PUBLIC`, slower. `BINDINGS` names what each took,
for run_metadata.json. `linear_filter` needs scipy, so only `synth` binds it;
it loads scipy's C filter extension alone, not the `scipy.signal` package,
whose import loads some 530 scipy modules and a second BLAS.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import sys

import numpy as np

from .errors import ConfigError


def _module(name: str, *attributes: str):
    """The module `name` if it imports and has every one of `attributes`, else None."""
    try:
        module = importlib.import_module(name)
    except ImportError:
        return None
    return module if all(hasattr(module, a) for a in attributes) else None


_umath_linalg = _module("numpy.linalg._umath_linalg", "eigvals")
_pocketfft_umath = _module("numpy.fft._pocketfft_umath", "rfft_n_even", "rfft_n_odd", "irfft")


def _eigvals(matrices: np.ndarray) -> np.ndarray:
    """Complex128 eigenvalues of a real (n, n) matrix or of each matrix of a (k, n, n) stack."""
    with np.errstate(over="ignore", divide="ignore", under="ignore", invalid="raise"):
        try:
            return _umath_linalg.eigvals(matrices, signature="d->D")
        except FloatingPointError:  # NaN and the invalid flag: no convergence, as numpy reads it
            raise np.linalg.LinAlgError("Eigenvalues did not converge") from None


def _rfft(x: np.ndarray, n_fft: int) -> np.ndarray:
    """`np.fft.rfft(x, n_fft)` on the last axis of float64 `x`, 1 <= x.shape[-1] <= n_fft."""
    transform = _pocketfft_umath.rfft_n_even if n_fft % 2 == 0 else _pocketfft_umath.rfft_n_odd
    return transform(x, 1, out=np.empty(x.shape[:-1] + (n_fft // 2 + 1,), dtype=np.complex128))


def _irfft(spectrum: np.ndarray) -> np.ndarray:
    """`np.fft.irfft(spectrum)` on the last axis, which holds at least 2 bins."""
    n = 2 * (spectrum.shape[-1] - 1)
    return _pocketfft_umath.irfft(spectrum, 1 / n, out=np.empty(spectrum.shape[:-1] + (n,)))


def _linear_filter(b: np.ndarray, a: np.ndarray, x: np.ndarray, zi: np.ndarray):
    """`scipy.signal.lfilter(b, a, x, zi=zi)` on the last axis, for a denominator of 2+ terms."""
    return _sigtools._linear_filter(b, a, x, -1, zi)


PUBLIC = {
    "eigvals": lambda matrices: np.linalg.eigvals(matrices).astype(np.complex128),
    "rfft": np.fft.rfft,
    "irfft": np.fft.irfft,
    "linear_filter": lambda b, a, x, zi: importlib.import_module("scipy.signal").lfilter(b, a, x, zi=zi),
}

eigvals = _eigvals if _umath_linalg else PUBLIC["eigvals"]
rfft = _rfft if _pocketfft_umath else PUBLIC["rfft"]
irfft = _irfft if _pocketfft_umath else PUBLIC["irfft"]
BINDINGS = {name: "public" if globals()[name] is PUBLIC[name] else "private"
            for name in ("eigvals", "rfft", "irfft")}


def _extension(name: str, directory: str):
    """The C extension module `name` loaded from `directory` alone, put in sys.modules; None if it does not load."""
    loaders = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    spec = importlib.machinery.FileFinder(directory, loaders).find_spec(name)
    if spec is None:
        return None
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:
        return None
    sys.modules[name] = module  # a later `import scipy.signal` shares it
    return module


def bind_scipy() -> None:
    """Bind `linear_filter` (ConfigError without scipy); `synth` calls this at import.

    It loads scipy's `signal/_sigtools` C extension without importing scipy or
    its `signal` package, or reuses it if it is loaded. Where that extension
    does not load or lacks the filter (a None entry in sys.modules, a blocked
    import, counts as not loading), it binds the public wrapper, importing
    `scipy.signal` now (ConfigError if that fails too).
    """
    global _sigtools, linear_filter
    scipy = importlib.util.find_spec("scipy")  # finds scipy without importing it
    if scipy is None:
        raise ConfigError("synth-corpus needs scipy: install the 'synth' extra")
    name = "scipy.signal._sigtools"
    if name in sys.modules:
        _sigtools = sys.modules[name]
    else:
        _sigtools = _extension(name, f"{scipy.submodule_search_locations[0]}/signal")
    _sigtools = _sigtools if hasattr(_sigtools, "_linear_filter") else None
    if _sigtools is None and _module("scipy.signal", "lfilter") is None:
        raise ConfigError("synth-corpus needs scipy.signal: install the 'synth' extra")
    linear_filter = _linear_filter if _sigtools else PUBLIC["linear_filter"]
    BINDINGS["linear_filter"] = "private" if _sigtools else "public"
