"""Span recording around nlconfirm's public functions, from outside the program.

A Tracer replaces each traced function at every module attribute (or class
attribute, for methods) through which nlconfirm code looks it up, so a
call made by the program itself is seen exactly as a call made by the
benchmark. Each wrapped call appends one span to an in-memory list:

    [name, start_ns, end_ns, parent_index, run_id, value, error]

`value` is an optional integer noted from the call (frames returned,
SMO iterations, ...) and `error` the exception class name if the call
raised. Nothing is written until `write_csv`, after measuring. `uninstall`
puts back every attribute it replaced.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable

NAME, START, END, PARENT, RUN, VALUE, ERROR = range(7)


@dataclass(frozen=True)
class Target:
    """One traced callable: `attr` is a function name or `Class.method` in `module`."""

    span: str
    module: str
    attr: str
    note: Callable | None = None  # (args, result) -> int stored as the span value


def _rows(args, result) -> int:
    return len(result)


TARGETS: tuple[Target, ...] = (
    Target("cli.main", "nlconfirm.cli", "main"),
    Target("synth.generate_corpus", "nlconfirm.synth", "generate_corpus"),
    Target("corpus.load_wav", "nlconfirm.corpus", "load_wav"),
    Target("corpus.load_segments", "nlconfirm.corpus", "load_segments", _rows),
    Target("corpus.vad_segments", "nlconfirm.corpus", "vad_segments", _rows),
    Target("corpus.frame_stream", "nlconfirm.corpus", "frame_stream", _rows),
    Target("dsp.apply_window", "nlconfirm.dsp.windows", "apply_window"),
    Target("dsp.mfcc", "nlconfirm.dsp.spectral", "mfcc"),
    Target("dsp.lpc", "nlconfirm.dsp.lpc", "lpc"),
    Target("dsp.lpc_polynomial", "nlconfirm.dsp.lpc", "lpc_polynomial"),
    Target("dsp.polynomial_roots", "nlconfirm.dsp.lpc", "polynomial_roots"),
    Target("dsp.fix_roots", "nlconfirm.dsp.lpc", "fix_roots"),
    Target("dsp.formants", "nlconfirm.dsp.lpc", "formants"),
    Target("dsp.pitch_yin_fft", "nlconfirm.dsp.pitch", "pitch_yin_fft"),
    Target("dsp.sg_at", "nlconfirm.dsp.savgol", "sg_at"),
    Target("featset.extract", "nlconfirm.featset", "extract"),
    Target("featset.push", "nlconfirm.featset", "StreamingExtractor.push",
           lambda args, result: args[1].index),
    Target("featset.finish", "nlconfirm.featset", "StreamingExtractor.finish"),
    Target("learn.grid_search", "nlconfirm.learn.search", "grid_search"),
    Target("learn.run_louo_folds", "nlconfirm.learn.cv_core", "run_louo_folds"),
    Target("learn.fit_pca", "nlconfirm.learn.pca", "fit_pca"),
    Target("learn.train_svm", "nlconfirm.learn.svm", "train_svm",
           lambda args, result: result.support_vectors.shape[0]),
    Target("learn.rbf_kernel", "nlconfirm.learn.svm", "rbf_kernel"),
    Target("learn.smo_solve", "nlconfirm.learn.svm", "smo_solve",
           lambda args, result: result[2]),
    Target("learn.load_model", "nlconfirm.learn.model_io", "load_model"),
    Target("learn.decide", "nlconfirm.learn.model_io", "ModelBundle.decide"),
    Target("learn.decide_many", "nlconfirm.learn.model_io", "ModelBundle.decide_many",
           lambda args, result: len(result)),
    Target("pipeline.push_frame", "nlconfirm.pipeline", "OnlineClassifier.push_frame",
           lambda args, result: int(result is not None)),
    Target("pipeline.finish_segment", "nlconfirm.pipeline", "OnlineClassifier.finish_segment",
           lambda args, result: int(result is not None)),
    Target("evaluate.speaker_frames", "nlconfirm.evaluate", "speaker_frames"),
    Target("evaluate.roc_auc", "nlconfirm.evaluate", "roc_auc"),
)


def _program_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "nlconfirm" or name.startswith("nlconfirm."))]


def call_sites(target: Target) -> list[tuple[object, str]]:
    """Every (namespace, attribute) through which the program reaches the target."""
    owner = importlib.import_module(target.module)
    if "." in target.attr:
        cls_name, method = target.attr.split(".")
        return [(getattr(owner, cls_name), method)]
    original = getattr(owner, target.attr)
    return [(module, key) for module in _program_modules()
            for key, value in list(vars(module).items()) if value is original]


class Tracer:
    """Records spans while installed; not thread-safe (one benchmark thread)."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = "setup"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def _wrap(self, fn, name: str, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1, tracer.run_id, None, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[ERROR] = type(exc).__name__
                raise
            finally:
                record[END] = clock()
                stack.pop()
            if note is not None:
                record[VALUE] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for target in TARGETS:
            sites = call_sites(target)
            namespace, key = sites[0]
            original = vars(namespace)[key]
            wrapper = self._wrap(original, target.span, target.note)
            for namespace, key in sites:
                self._patched.append((namespace, key, vars(namespace)[key]))
                setattr(namespace, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            namespace, key, original = self._patched.pop()
            setattr(namespace, key, original)
        self._stack.clear()

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_ns", "end_ns", "parent", "run_id",
                             "value", "error"])
            for index, span in enumerate(self.spans):
                writer.writerow([index, *span])


def self_times(spans: list[list]) -> list[int]:
    """Duration of each span minus the part of its interval its children cover."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0
        cursor = start
        for child in sorted(children.get(index, ()), key=lambda c: spans[c][START]):
            lo = max(spans[child][START], cursor)
            hi = min(spans[child][END], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out
