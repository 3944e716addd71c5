"""Tracer tests: self-time arithmetic and clean uninstall."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import nlconfirm.cli  # noqa: E402,F401  (load every module the tracer patches)
from spans import TARGETS, Tracer, call_sites, self_times  # noqa: E402


def _span(name, start, end, parent=-1):
    return [name, start, end, parent, "run", None, None]


def test_self_time_subtracts_children_once():
    spans = [
        _span("root", 0, 100),
        _span("a", 10, 30, 0),
        _span("b", 25, 50, 0),       # overlaps a: 10..50 covered once = 40
        _span("a.leaf", 12, 20, 1),
        _span("c", 90, 120, 0),      # runs past the parent's end: 90..100 counts
        _span("orphan", 200, 230),
    ]
    assert self_times(spans) == [100 - 40 - 10, 20 - 8, 25, 8, 30, 30]


def test_self_time_of_nested_chain():
    spans = [_span("p", 0, 1000), _span("c", 100, 900, 0), _span("g", 200, 300, 1)]
    assert self_times(spans) == [200, 700, 100]


def _snapshot():
    state = {}
    for target in TARGETS:
        for namespace, key in call_sites(target):
            state[(id(namespace), key)] = (namespace, vars(namespace)[key])
    return state


def test_uninstall_restores_every_patched_attribute():
    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        patched = {site for site, (namespace, key_value) in before.items()
                   if vars(namespace)[site[1]] is not key_value}
        assert patched == set(before)  # every call site was replaced
    finally:
        tracer.uninstall()
    for (_, key), (namespace, original) in before.items():
        assert vars(namespace)[key] is original
    assert not tracer.installed


def test_wrappers_record_parents_values_and_errors():
    import importlib

    import numpy as np
    from nlconfirm import corpus, featset

    lpc_module = importlib.import_module("nlconfirm.dsp.lpc")  # the package attribute is the function

    samples = np.sin(np.arange(800) * 0.3) * 0.1
    segment = corpus.AudioSegment("a.wav", "s", 0, 50, corpus.AudioBuffer(samples))
    extractor = featset.StreamingExtractor(featset.FeatureSetConfig(
        featset.FeatureKind.STACKED_FORMANTS))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.run_id = "pass0.op0"
        frames = corpus.frame_stream(segment)
        extractor.push(frames[1])
        try:
            lpc_module.lpc(np.zeros(400))
        except Exception as exc:
            error = type(exc).__name__
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    push = names.index("featset.push")
    assert tracer.spans[names.index("corpus.frame_stream")][5] == len(frames)
    assert tracer.spans[push][5] == 1  # the frame index
    assert tracer.spans[names.index("dsp.polynomial_roots")][3] == push
    assert tracer.spans[-1][0] == "dsp.lpc" and tracer.spans[-1][6] == error == "DegenerateFrame"
    assert all(span[4] == "pass0.op0" for span in tracer.spans)
