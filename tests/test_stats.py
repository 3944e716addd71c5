"""Which Stats receives a run's numbers: the one collecting, for its own scope."""

import json
import sys
import threading

import numpy as np
import pytest

from nlconfirm import stats
from nlconfirm.cli import main
from nlconfirm.corpus import FRAME_LEN, HOP_LEN, frame_stream, load_segments
from nlconfirm.featset import FeatureKind, FeatureSetConfig, extract_matrix
from nlconfirm.stats import Stats
from nlconfirm.synth import SynthConfig, generate_corpus

from .conftest import make_segment


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    return generate_corpus(tmp_path_factory.mktemp("stats_corpus"), SynthConfig(
        speakers=2, segments_per_speaker=4, confirmation_rate=0.5, seed=3))


def counters(out) -> dict[str, int]:
    return json.loads((out / "run_metadata.json").read_text())["counters"]


def test_two_runs_in_one_process_count_apart(manifest, tmp_path):
    frames = sum((len(s.samples) - FRAME_LEN) // HOP_LEN + 1 for s in load_segments(manifest))
    commands = {kind: ["extract", "--manifest", str(manifest), "--features", kind]
                for kind in ("stacked_formants", "formant_sd", "mfcc")}  # more threads than cores
    alone = {}
    for kind, argv in commands.items():
        assert main([*argv, "--out", str(tmp_path / "alone" / kind)]) == 0
        alone[kind] = counters(tmp_path / "alone" / kind)
    assert alone["mfcc"] == {"frames": frames, "vectors": frames}
    assert alone["stacked_formants"]["frames"] == frames
    assert set(alone["stacked_formants"]) == {
        "frames", "vectors", "formant_silent", "formant_root_failures", "formant_no_candidate"}
    assert alone["formant_sd"] == alone["stacked_formants"]  # the same formant chain and context

    codes = {}

    def run(kind):
        codes[kind] = main([*commands[kind], "--out", str(tmp_path / "together" / kind)])

    threads = [threading.Thread(target=run, args=(kind,)) for kind in commands]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-count
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert codes == {kind: 0 for kind in commands}
    for kind in commands:
        assert counters(tmp_path / "together" / kind) == alone[kind], kind


def test_a_command_that_exits_3_leaves_no_stats_collecting(manifest, tmp_path):
    broken = tmp_path / "manifest.csv"
    rows = manifest.read_text().splitlines()
    broken.write_text("\n".join([rows[0], rows[1].replace("spk00.wav", "missing.wav")]) + "\n")
    argv = ["extract", "--manifest", str(broken), "--features", "mfcc", "--out", str(tmp_path / "o")]
    assert main(argv) == 3
    assert stats._COLLECTING.get() is None
    with Stats().collecting() as outer:
        assert main(argv) == 3
        assert stats._COLLECTING.get() is outer
    assert outer == Stats()


def test_extract_matrix_outside_any_scope_runs_and_records_nothing():
    # silent frames, then noise: the unscoped call reaches the zero-pair counts
    samples = np.concatenate([np.zeros(FRAME_LEN + 15 * HOP_LEN),
                              np.random.default_rng(4).uniform(-0.3, 0.3, 10 * HOP_LEN)])
    frames = frame_stream(make_segment(samples))
    config = FeatureSetConfig(FeatureKind.STACKED_FORMANTS)
    with Stats().collecting() as closed:
        pass
    assert stats._COLLECTING.get() is None
    indices, rows = extract_matrix(frames, config)
    assert closed == Stats()
    with Stats().collecting() as scoped:
        want_indices, want_rows = extract_matrix(frames, config)
    assert indices == want_indices
    assert rows.tobytes() == want_rows.tobytes()
    assert scoped.counters["formant_silent"] == 16


@pytest.mark.parametrize("raises", [False, True])
def test_a_nested_scope_restores_the_outer_stats(raises):
    outer, inner = Stats(), Stats()
    with outer.collecting():
        stats.count("a")
        try:
            with inner.collecting():
                stats.count("a", 2)
                with stats.stage("inner"):
                    if raises:
                        raise RuntimeError
        except RuntimeError:
            pass
        assert stats._COLLECTING.get() is outer
        stats.count("b")
        with stats.stage("outer"):
            pass
    assert stats._COLLECTING.get() is None
    assert outer.counters == {"a": 1, "b": 1}
    assert inner.counters == {"a": 2}
    assert set(outer.stages) == {"outer"}
    assert set(inner.stages) == {"inner"}
