"""Command-line interface: artifacts, defaults, parity and exit codes."""

import ast
import csv
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlconfirm
from nlconfirm import _native, cli
from nlconfirm.cli import main
from nlconfirm.corpus import (
    AudioBuffer,
    frame_stream,
    load_segments,
    load_wav,
    parse_manifest,
    write_wav,
)
from nlconfirm.dsp import (
    WindowKind,
    apply_window,
    fix_roots,
    formants,
    lpc,
    lpc_polynomial,
    make_window,
    polynomial_roots,
)
from nlconfirm.errors import ConfigError, DegenerateFrame, NumericalFailure
from nlconfirm.evaluate import CvReport, frame_metrics, speaker_frames
from nlconfirm.featset import FeatureKind, FeatureSetConfig, extract_matrix
from nlconfirm.learn import SvmHyperParams, load_model
from nlconfirm.learn.cv_core import run_louo_folds
from nlconfirm.pipeline import classify_segment
from nlconfirm.synth import SynthConfig, generate_corpus

FAST_SVM = ["--svm-c", "1", "--svm-eps", "0.1", "--svm-gamma", "0.05"]


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_corpus")
    code = run("synth-corpus", "--out", out, "--speakers", 3,
               "--segments-per-speaker", 6, "--confirmation-rate", 0.34, "--seed", 5)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("cli_model")
    code = run("train", "--manifest", corpus_dir / "manifest.csv",
               "--features", "stacked_formants", "--out", out, "--seed", 1)
    assert code == 0
    return out


def test_synth_corpus_artifacts(corpus_dir):
    assert (corpus_dir / "manifest.csv").exists()
    assert (corpus_dir / "meta.json").exists()
    assert (corpus_dir / "run_metadata.json").exists()
    assert len(parse_manifest(corpus_dir / "manifest.csv")) == 18


def test_extract_writes_matrices(corpus_dir, tmp_path):
    out = tmp_path / "feats"
    assert run("extract", "--manifest", corpus_dir / "manifest.csv",
               "--features", "mfcc", "--out", out) == 0
    sidecar = json.loads((out / "features.json").read_text())
    assert sidecar["config"]["kind"] == "mfcc"
    assert sidecar["config"]["raw_dimension"] == 13
    first = sidecar["segments"][0]
    with (out / first["file"]).open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [f"f{i}" for i in range(13)]
    assert len(rows) - 1 == first["rows"]
    segment = load_segments(corpus_dir / "manifest.csv")[0]
    assert segment.segment_id == first["segment_id"]
    _, matrix = extract_matrix(frame_stream(segment), FeatureSetConfig(FeatureKind.MFCC))
    assert rows[1:] == [[f"{v:.12g}" for v in row] for row in matrix]


def test_train_records_shipped_defaults(model_dir):
    bundle = load_model(model_dir / "model.nlcm")
    assert bundle.feature_config.kind.value == "stacked_formants"
    assert bundle.hyperparams.C == 1.0
    assert bundle.hyperparams.eps == 0.5
    assert bundle.hyperparams.gamma == 0.05
    assert (model_dir / "model.nlcm.json").exists()


def test_grid_search_scores_sixteen_points(corpus_dir, tmp_path):
    out = tmp_path / "grid"
    assert run("grid-search", "--manifest", corpus_dir / "manifest.csv",
               "--features", "formant_sd", "--out", out, "--seed", 2) == 0
    table = json.loads((out / "grid_formant_sd.json").read_text())
    assert len(table["points"]) == 16
    combos = {(p["params"]["C"], p["params"]["eps"], p["params"]["gamma"])
              for p in table["points"]}
    assert len(combos) == 16
    assert table["best"]["C"] in (1.0, 5.0)


def test_evaluate_writes_reports(corpus_dir, tmp_path):
    out = tmp_path / "eval"
    code = run("evaluate", "--manifest", corpus_dir / "manifest.csv",
               "--features", "stacked_formants", "--train-fraction", 0.6,
               "--seed", 3, "--out", out, *FAST_SVM)
    assert code == 0
    report = json.loads((out / "eval_stacked_formants.json").read_text())
    assert report["raw_dimension"] == 30
    assert 0.0 <= report["roc_auc"] <= 1.0
    roc_rows = (out / "roc_stacked_formants.csv").read_text().strip().splitlines()
    assert roc_rows[0] == "fpr,tpr"
    assert roc_rows[1] == "0,0"
    assert roc_rows[-1] == "1,1"


def test_run_metadata_records_stages_and_counters(corpus_dir, model_dir, tmp_path, monkeypatch):
    manifest = corpus_dir / "manifest.csv"
    wav = corpus_dir / "wavs" / "spk00.wav"
    segments = load_segments(manifest)
    frames = sum((len(s.samples) - 400) // 160 + 1 for s in segments)
    # listen streams the manifest's spans of the one WAV it is given
    listened = sum((len(s.samples) - 400) // 160 + 1 for s in segments
                   if Path(s.source_id).name == wav.name)
    model = model_dir / "model.nlcm"
    commands = {
        "extract": (("--features", "stacked_mfcc"), {"load", "extract"}, frames),
        "train": (("--features", "mfcc", *FAST_SVM), {"load", "extract", "fit"}, frames),
        "classify": (("--model", model), {"load", "classify"}, frames),
        # evaluate extracts the same manifest twice: training frames, then test frames
        "evaluate": (("--features", "mfcc", "--test-manifest", manifest, *FAST_SVM),
                     {"load", "extract", "search", "fit", "classify"}, 2 * frames),
        "listen": (("--wav", wav, "--model", model), {"load", "classify"}, listened),
    }
    for command, (flags, stages, expected_frames) in commands.items():
        out = tmp_path / command
        assert run(command, "--manifest", manifest, *flags, "--out", out) == 0
        meta = json.loads((out / "run_metadata.json").read_text())
        assert set(meta["stages"]) == stages, command
        assert all(seconds >= 0.0 for seconds in meta["stages"].values())
        assert sum(meta["stages"].values()) <= meta["duration_s"] + 1e-3
        assert meta["counters"]["frames"] == expected_frames, command
        assert 0 < meta["counters"]["vectors"] <= meta["counters"]["frames"]
        assert meta["bindings"] == _native.BINDINGS, command
        assert {"eigvals", "rfft", "irfft"} <= set(meta["bindings"]), command
        assert set(meta["bindings"].values()) <= {"private", "public"}, command
    # synth-corpus counts its rows, the samples of its WAVs and its filter calls
    calls = []
    linear_filter = _native.linear_filter
    monkeypatch.setattr(_native, "linear_filter", lambda *a: calls.append(1) or linear_filter(*a))
    out = tmp_path / "synth-corpus"
    assert run("synth-corpus", "--out", out, "--speakers", 3, "--segments-per-speaker", 6,
               "--confirmation-rate", 0.34, "--seed", 5) == 0
    meta = json.loads((out / "run_metadata.json").read_text())
    assert set(meta["stages"]) == {"synthesize"}
    assert meta["stages"]["synthesize"] <= meta["duration_s"] + 1e-3
    assert meta["counters"] == {
        "segments": 18,
        "samples": sum(len(load_wav(wav)) for wav in (out / "wavs").glob("*.wav")),
        "filter_calls": len(calls),
    }
    assert meta["bindings"] == _native.BINDINGS
    assert set(meta["bindings"]) == {"eigvals", "rfft", "irfft", "linear_filter"}
    assert set(meta["bindings"].values()) <= {"private", "public"}


def test_evaluate_scores_equal_streamed_scores(corpus_dir, tmp_path, monkeypatch):
    # evaluate scores its test frames as classify and listen do, bit for bit;
    # pitch has many identical inputs (unvoiced frames), which batch scoring
    # can give different scores
    manifest = corpus_dir / "manifest.csv"
    flags = ("--manifest", manifest, "--features", "pitch", "--seed", 2, *FAST_SVM)
    assert run("train", *flags, "--out", tmp_path / "model") == 0
    evaluated = []
    monkeypatch.setattr(cli, "frame_metrics",
                        lambda scores, labels: evaluated.append(scores) or frame_metrics(scores, labels))
    assert run("evaluate", *flags, "--test-manifest", manifest, "--out", tmp_path / "eval") == 0
    bundle = load_model(tmp_path / "model" / "model.nlcm")
    streamed = np.concatenate([classify_segment(segment, bundle).frame_scores
                               for segment in load_segments(manifest)])
    assert np.array_equal(evaluated[0], streamed)


def test_readme_library_example_runs(corpus_dir, model_dir, tmp_path, monkeypatch, capsys):
    # the README's python blocks, run where they expect corpus/ and model/
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    library_use = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    code, counting = (block.split("```", 1)[0] for block in library_use.split("```python\n")[1:])
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    shutil.copytree(model_dir, tmp_path / "model")
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    bundle = load_model(model_dir / "model.nlcm")
    segments = load_segments(corpus_dir / "manifest.csv")
    expected = []
    for segment in segments:
        trigger = classify_segment(segment, bundle).trigger
        if trigger is not None:
            expected.append(f"{segment.segment_id} confirmation at vote frame {trigger.frame_index}")
    assert expected and printed == expected
    # the second block reads the counters of an offline classification
    exec(compile(counting, "README.md", "exec"), {})
    counters = ast.literal_eval(capsys.readouterr().out)
    assert counters["frames"] == sum((len(s.samples) - 400) // 160 + 1 for s in segments)
    assert {"vectors", "formant_silent", "formant_root_failures", "formant_no_candidate"} < set(counters)


def test_grid_searched_cv_report_equals_folds_at_best_point(corpus_dir, tmp_path):
    # the report takes the winning point's folds from the search itself
    manifest = corpus_dir / "manifest.csv"
    assert run("evaluate", "--manifest", manifest, "--test-manifest", manifest,
               "--features", "mfcc", "--grid-search", "--seed", 6, "--out", tmp_path) == 0
    report = json.loads((tmp_path / "eval_mfcc.json").read_text())
    config = FeatureSetConfig(FeatureKind.MFCC)
    folds, = run_louo_folds(speaker_frames(load_segments(manifest), config), config,
                            [SvmHyperParams.from_dict(report["params"])], seed=6)
    assert report["cv"] == CvReport(folds=folds).to_dict()


@pytest.mark.parametrize("svm_flags", [
    ("--svm-c", "nan", "--svm-eps", "0.1", "--svm-gamma", "0.05"),
    ("--svm-c", "1", "--svm-eps", "inf", "--svm-gamma", "0.05"),
])
def test_exit_code_non_finite_svm_flag(corpus_dir, tmp_path, svm_flags):
    assert run("train", "--manifest", corpus_dir / "manifest.csv", "--features", "mfcc",
               *svm_flags, "--out", tmp_path / "o") == 2


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_incomplete_svm_flags_fail_before_extraction(corpus_dir, tmp_path, monkeypatch, command):
    monkeypatch.setattr(cli, "speaker_frames", lambda *a: pytest.fail("extracted features"))
    assert run(command, "--manifest", corpus_dir / "manifest.csv", "--features", "mfcc",
               "--svm-c", "1", "--out", tmp_path / "o") == 2


@pytest.mark.parametrize("command, flags", [
    ("evaluate", ("--train-fraction", "1.5")),
    ("evaluate", ("--train-fraction", "0")),
    ("evaluate", ("--train-fraction", "nan")),
    ("evaluate", ("--majority-threshold", "nan")),
    ("evaluate", ("--majority-threshold", "1")),
    ("evaluate", ("--majority-threshold", "-1.5")),
    ("classify", ("--majority-threshold", "nan")),
    ("classify", ("--majority-threshold", "2")),
    ("listen", ("--hangover-ms", "-50")),
    ("listen", ("--vad-threshold", "nan")),
    ("listen", ("--vad-threshold", "-1")),
])
def test_exit_code_numeric_flag_out_of_range(corpus_dir, model_dir, tmp_path, command, flags):
    inputs = {
        "evaluate": ("--manifest", corpus_dir / "manifest.csv", "--features", "mfcc_delta",
                     *FAST_SVM),
        "classify": ("--manifest", corpus_dir / "manifest.csv", "--model",
                     model_dir / "model.nlcm"),
        "listen": ("--wav", corpus_dir / "wavs" / "spk00.wav", "--model",
                   model_dir / "model.nlcm"),
    }
    assert run(command, *inputs[command], *flags, "--out", tmp_path / "o") == 2


@pytest.mark.parametrize("flags", [
    ("--speakers", "0"),
    ("--segments-per-speaker", "1"),
    ("--confirmation-rate", "nan"),
    ("--confirmation-rate", "2"),
    ("--confirmation-rate", "-0.1"),
])
def test_synth_corpus_flag_out_of_range(tmp_path, capsys, flags):
    out = tmp_path / "corpus"
    assert run("synth-corpus", "--out", out, "--speakers", 1, "--segments-per-speaker", 2,
               *flags) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {flags[0]} must be")
    assert not (out / "manifest.csv").exists()


@pytest.mark.parametrize("command, flags", [
    ("grid-search", ("--svm-c", "5")),  # the search never read the --svm-* flags
    ("evaluate", ("--pca-epsilon", "0.9")),  # PCA keeps a fixed 95 % of the variance
    ("train", ("--model-name", "m.nlcm")),  # the model is always model.nlcm
])
def test_removed_flags_rejected(corpus_dir, tmp_path, command, flags):
    with pytest.raises(SystemExit) as exc:
        run(command, "--manifest", corpus_dir / "manifest.csv", "--features", "mfcc",
            *flags, "--out", tmp_path / "o")
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["classify", "extract"])
def test_segment_shorter_than_context_exits_3_naming_it(corpus_dir, model_dir, tmp_path,
                                                         capsys, command):
    # a 100 ms span gives 8 frames, fewer than the 15 a stacked_formants vector needs
    manifest = tmp_path / "short.csv"
    manifest.write_text("wav_path,speaker_id,start_ms,end_ms,label\n"
                        f"{corpus_dir / 'wavs' / 'spk00.wav'},spk00,316,416,other\n")
    segment_id = load_segments(manifest)[0].segment_id
    flags = {"classify": ("--model", model_dir / "model.nlcm"),
             "extract": ("--features", "stacked_formants")}[command]
    assert run(command, "--manifest", manifest, *flags, "--out", tmp_path / "o") == 3
    assert f"{segment_id}: 8 frames < required context 15" in capsys.readouterr().err


def test_cli_import_leaves_scipy_unloaded():
    # only synth-corpus needs scipy; every other command starts without it,
    # and without scipy's filter bound
    env = {**os.environ, "PYTHONPATH": str(Path(nlconfirm.__file__).parents[1])}
    probe = ("import sys, nlconfirm.cli; "
             "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')], "
             "sorted(nlconfirm._native.BINDINGS))")
    result = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True)
    assert result.stdout.strip() == "[] ['eigvals', 'irfft', 'rfft']"


def test_synth_corpus_without_scipy_exits_2_naming_the_extra(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(nlconfirm.__file__).parents[1])}
    out = tmp_path / "corpus"
    argv = ["synth-corpus", "--out", str(out), "--speakers", "1", "--segments-per-speaker", "2"]
    probe = f"import sys; sys.modules['scipy'] = None; import nlconfirm.cli; sys.exit(nlconfirm.cli.main({argv!r}))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert result.returncode == 2, result.stderr
    assert "'synth' extra" in result.stderr
    assert "Traceback" not in result.stderr
    assert not list(out.rglob("*.wav"))


def test_synth_corpus_with_its_filter_extension_blocked_exits_2(tmp_path):
    # no private filter and no scipy.signal for the public one: fail before writing
    env = {**os.environ, "PYTHONPATH": str(Path(nlconfirm.__file__).parents[1])}
    out = tmp_path / "corpus"
    argv = ["synth-corpus", "--out", str(out), "--speakers", "1", "--segments-per-speaker", "2"]
    probe = ("import sys; sys.modules['scipy.signal._sigtools'] = None; import nlconfirm.cli; "
             f"sys.exit(nlconfirm.cli.main({argv!r}))")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert result.returncode == 2, result.stderr
    assert "'synth' extra" in result.stderr
    assert "Traceback" not in result.stderr
    assert not list(out.rglob("*.wav"))


def test_out_of_range_value_from_config_file(corpus_dir, model_dir, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("majority_threshold = 1\n")
    assert run("classify", "--manifest", corpus_dir / "manifest.csv", "--model",
               model_dir / "model.nlcm", "--config", config, "--out", tmp_path / "o") == 2


def test_classify_then_listen_parity(corpus_dir, model_dir, tmp_path):
    classify_out = tmp_path / "cls"
    assert run("classify", "--manifest", corpus_dir / "manifest.csv",
               "--model", model_dir / "model.nlcm", "--out", classify_out) == 0
    with (classify_out / "segment_decisions.csv").open() as fh:
        decisions = {row["segment_id"]: row for row in csv.DictReader(fh)}
    assert decisions

    listen_out = tmp_path / "lst"
    wav = corpus_dir / "wavs" / "spk00.wav"
    assert run("listen", "--wav", wav, "--model", model_dir / "model.nlcm",
               "--manifest", corpus_dir / "manifest.csv", "--out", listen_out) == 0
    triggered = set()
    with (listen_out / "triggers.ndjson").open() as fh:
        for line in fh:
            triggered.add(json.loads(line)["segment_id"])
    for segment_id, row in decisions.items():
        if segment_id.startswith("spk00"):
            assert (row["decided_label"] == "confirmation") == (segment_id in triggered)

    meta = json.loads((listen_out / "run_metadata.json").read_text())
    assert meta["real_time_factor"] < 1.0


def test_listen_with_vad(corpus_dir, model_dir, tmp_path):
    out = tmp_path / "vad_listen"
    wav = corpus_dir / "wavs" / "spk01.wav"
    assert run("listen", "--wav", wav, "--model", model_dir / "model.nlcm",
               "--out", out) == 0
    assert (out / "triggers.ndjson").exists()


def test_listen_manifest_reads_only_the_listened_wav(corpus_dir, model_dir, tmp_path):
    # a missing WAV of another speaker leaves the triggers byte for byte as they were
    root = tmp_path / "corpus"
    shutil.copytree(corpus_dir, root)

    def listen(out):
        assert run("listen", "--wav", root / "wavs" / "spk00.wav", "--model",
                   model_dir / "model.nlcm", "--manifest", root / "manifest.csv",
                   "--out", out) == 0
        return (out / "triggers.ndjson").read_bytes()

    present = listen(tmp_path / "present")
    assert present  # spk00 has confirmations that trigger
    (root / "wavs" / "spk02.wav").unlink()
    assert listen(tmp_path / "missing") == present


def test_listen_manifest_skips_rows_of_a_same_named_wav_elsewhere(corpus_dir, model_dir, tmp_path):
    # rows of b/spk00.wav (another speaker's audio) are not rows of wavs/spk00.wav
    root = tmp_path / "corpus"
    shutil.copytree(corpus_dir, root)
    (root / "b").mkdir()
    shutil.copy(root / "wavs" / "spk01.wav", root / "b" / "spk00.wav")
    rows = (root / "manifest.csv").read_text().splitlines()
    foreign = [row.replace("wavs/spk01.wav", "b/spk00.wav")
               for row in rows if "wavs/spk01.wav" in row]
    assert foreign
    (root / "mixed.csv").write_text("\n".join(rows + foreign) + "\n")

    def listen(manifest, out):
        assert run("listen", "--wav", root / "wavs" / "spk00.wav", "--model",
                   model_dir / "model.nlcm", "--manifest", manifest, "--out", out) == 0
        frames = json.loads((out / "run_metadata.json").read_text())["counters"]["frames"]
        return (out / "triggers.ndjson").read_bytes(), frames

    assert listen(root / "mixed.csv", tmp_path / "mixed") == listen(root / "manifest.csv",
                                                                    tmp_path / "clean")


def test_exit_code_data_error(tmp_path):
    manifest = tmp_path / "bad.csv"
    manifest.write_text("wav_path,speaker_id,start_ms,end_ms,label\nx.wav,s,0,500,yes\n")
    assert run("train", "--manifest", manifest, "--features", "mfcc",
               "--out", tmp_path / "o") == 3


def test_exit_code_config_error(corpus_dir, tmp_path):
    assert run("train", "--manifest", corpus_dir / "manifest.csv",
               "--features", "cepstrum", "--out", tmp_path / "o") == 2


def test_exit_code_missing_file(tmp_path):
    assert run("classify", "--manifest", tmp_path / "nope.csv",
               "--model", tmp_path / "nope.nlcm", "--out", tmp_path / "o") == 3


def test_config_file_defaults_and_override(corpus_dir, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("features = mfcc\nseed = 9  # comment\n")
    out = tmp_path / "feats"
    assert run("extract", "--manifest", corpus_dir / "manifest.csv",
               "--features", "pitch", "--config", config, "--out", out) == 0
    sidecar = json.loads((out / "features.json").read_text())
    assert sidecar["config"]["kind"] == "pitch"  # flag wins over file
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["config"]["seed"] == 9  # file fills the unset default


def test_flag_at_its_default_beats_config_file(corpus_dir, tmp_path):
    # --seed 0 is also the parser default; given on the command line it still wins
    config = tmp_path / "run.conf"
    config.write_text("seed = 9\n")
    out = tmp_path / "feats"
    assert run("extract", "--manifest", corpus_dir / "manifest.csv", "--features", "pitch",
               "--seed", 0, "--config", config, "--out", out) == 0
    assert json.loads((out / "run_metadata.json").read_text())["config"]["seed"] == 0


def test_config_file_not_utf8(corpus_dir, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_bytes(b"seed = 9\nfeatures = \xff\n")
    assert run("extract", "--manifest", corpus_dir / "manifest.csv", "--features", "pitch",
               "--config", config, "--out", tmp_path / "o") == 2
    assert "run.conf:2: not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [("listen", "manifest"), ("evaluate", "test-manifest")])
def test_config_file_nul_in_a_path_value(corpus_dir, model_dir, tmp_path, capsys, command, key):
    config = tmp_path / "run.conf"
    config.write_bytes(b"seed = 3\n" + key.encode() + b" = c0/man\x00ifest.csv\n")
    if command == "listen":
        flags = ("--wav", corpus_dir / "wavs" / "spk00.wav", "--model", model_dir / "model.nlcm")
    else:
        flags = ("--manifest", corpus_dir / "manifest.csv", "--features", "mfcc", *FAST_SVM)
    code = run(command, *flags, "--config", config, "--out", tmp_path / "o")
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err and err.strip().splitlines() == [
        f"configuration error: {config}:2: NUL byte"]


# one byte of each class the config reader tells apart: NUL, line breaks and
# blanks, comment and key-value separators, quotes, signs, digits, letters, path
# characters, and bytes that break UTF-8
_CONFIG_SCAN_BYTES = b"\x00\t\n\r #=\"'-_.,/09Anz\\\x7f\x80\xc3\xff"


def test_config_overwrite_and_truncation_apply_or_raise_typed(tmp_path):
    """Every single-byte overwrite and every truncation of a small config file.

    `_apply_config_file` either makes the values the parser's defaults,
    none of them holding a NUL, or raises ConfigError.
    """
    text = (b"# evaluate settings\n"
            b"seed = 3\n"
            b"test-manifest = c0/manifest.csv\n"
            b"majority_threshold = 0.2\n"
            b"grid-search = yes\n")
    cases = [text[:length] for length in range(len(text))]
    cases += [text[:pos] + bytes([b]) + text[pos + 1:]
              for pos in range(len(text)) for b in _CONFIG_SCAN_BYTES if b != text[pos]]
    parser = cli._build_parser()[1]["evaluate"]
    defaults = {action: action.default for action in parser._actions}
    config = tmp_path / "run.conf"
    outcomes = set()
    for blob in cases:
        config.write_bytes(blob)
        try:
            cli._apply_config_file("evaluate", parser, str(config))
            outcomes.add("applied")
            assert not any("\0" in str(action.default) for action in parser._actions), blob
        except ConfigError:
            outcomes.add("ConfigError")
        for action, default in defaults.items():  # the next case starts from a fresh parser
            action.default = default
        parser._defaults.clear()
    assert outcomes == {"applied", "ConfigError"}


def test_config_key_model_name_rejected(corpus_dir, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("model_name = m.nlcm\n")
    assert run("train", "--manifest", corpus_dir / "manifest.csv", "--features", "mfcc",
               *FAST_SVM, "--config", config, "--out", tmp_path / "o") == 2


def test_config_file_unknown_key(corpus_dir, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("armchair = 3\n")
    assert run("extract", "--manifest", corpus_dir / "manifest.csv",
               "--features", "pitch", "--config", config, "--out", tmp_path / "o") == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0


def test_evaluate_with_test_manifest_and_segment_roc(corpus_dir, tmp_path):
    out = tmp_path / "eval2"
    code = run("evaluate", "--manifest", corpus_dir / "manifest.csv",
               "--test-manifest", corpus_dir / "manifest.csv",
               "--features", "formant_sd", "--segment-roc",
               "--seed", 4, "--out", out, *FAST_SVM)
    assert code == 0
    report = json.loads((out / "eval_formant_sd.json").read_text())
    assert report["segment_roc_auc"] is not None
    assert 0.0 <= report["segment_roc_auc"] <= 1.0


def test_exit_code_directory_as_manifest(tmp_path):
    # IsADirectoryError (an OSError, not a FileNotFoundError) is a data error too
    assert run("evaluate", "--manifest", tmp_path, "--features", "mfcc",
               "--out", tmp_path / "o") == 3


@pytest.mark.parametrize("row, message", [
    (b"{wav},spk00\xff,316,816,other", "row 2: not UTF-8"),
    (b"{wav}\x00,spk00,316,816,other", "row 2: wav_path contains a NUL"),
])
def test_classify_unreadable_manifest_row_exits_3(corpus_dir, model_dir, tmp_path, capsys,
                                                  row, message):
    manifest = tmp_path / "bad.csv"
    wav = str(corpus_dir / "wavs" / "spk00.wav").encode()
    manifest.write_bytes(b"wav_path,speaker_id,start_ms,end_ms,label\n"
                         + row.replace(b"{wav}", wav) + b"\n")
    assert run("classify", "--manifest", manifest, "--model", model_dir / "model.nlcm",
               "--out", tmp_path / "o") == 3
    assert message in capsys.readouterr().err


def test_listen_fmt_chunk_past_the_end_exits_3(model_dir, tmp_path):
    wav = tmp_path / "broken.wav"
    write_wav(wav, AudioBuffer(np.zeros(16000)))
    blob = bytearray(wav.read_bytes())
    blob[16:20] = struct.pack("<I", 0x7FFFFFFF)  # the fmt chunk's size
    wav.write_bytes(bytes(blob))
    assert run("listen", "--wav", wav, "--model", model_dir / "model.nlcm",
               "--out", tmp_path / "o") == 3


def _formant_zero_pairs(segments) -> dict[str, int]:
    """Recount the formant zero-pair causes, one frame at a time."""
    window = make_window(WindowKind.HANN, 400)
    counts = dict.fromkeys(("formant_silent", "formant_root_failures", "formant_no_candidate"), 0)
    for segment in segments:
        for frame in frame_stream(segment):
            try:
                roots = polynomial_roots(lpc_polynomial(lpc(apply_window(frame.samples, window))))
            except DegenerateFrame:
                counts["formant_silent"] += 1
                continue
            except NumericalFailure:
                counts["formant_root_failures"] += 1
                continue
            if formants(fix_roots(roots))[0] == 0.0:
                counts["formant_no_candidate"] += 1
    return counts


def test_run_metadata_counts_formant_zero_pairs(tmp_path):
    # at -15 dB the noise floor widens many LPC poles past the bandwidth bound
    manifest = generate_corpus(tmp_path / "noisy", SynthConfig(
        speakers=3, segments_per_speaker=6, confirmation_rate=0.34, seed=5, noise_db=-15.0))
    segments = load_segments(manifest)
    everything = _formant_zero_pairs(segments)
    assert everything["formant_no_candidate"] > 0
    wav = manifest.parent / "wavs" / "spk00.wav"
    model = tmp_path / "model"
    commands = {
        "extract": (("--manifest", manifest), everything),
        "train": (("--manifest", manifest, *FAST_SVM), everything),
        "classify": (("--manifest", manifest, "--model", model / "model.nlcm"), everything),
        "evaluate": (("--manifest", manifest, "--test-manifest", manifest, *FAST_SVM),
                     {name: 2 * n for name, n in everything.items()}),
        "listen": (("--wav", wav, "--manifest", manifest, "--model", model / "model.nlcm"),
                   _formant_zero_pairs([s for s in segments if s.speaker_id == "spk00"])),
    }
    for command, (flags, want) in commands.items():
        out = model if command == "train" else tmp_path / command
        features = () if "--model" in flags else ("--features", "stacked_formants")
        assert run(command, *flags, *features, "--out", out) == 0
        counters = json.loads((out / "run_metadata.json").read_text())["counters"]
        assert {name: counters[name] for name in want} == want, command


def _corrupt_inputs(corpus_dir: Path, tmp_path: Path) -> dict[str, tuple[Path, Path, Path]]:
    """(wav, manifest, config) per corruption: exactly one of the three is broken."""
    good_wav = corpus_dir / "wavs" / "spk00.wav"
    header = b"wav_path,speaker_id,start_ms,end_ms,label\n"

    def manifest(name: str, row: bytes) -> Path:
        path = tmp_path / name
        path.write_bytes(header + row + b"\n")
        return path

    broken_wav = tmp_path / "broken.wav"
    blob = bytearray(good_wav.read_bytes())
    blob[16:20] = struct.pack("<I", 0x7FFFFFFF)  # the fmt chunk's size, past the end
    broken_wav.write_bytes(bytes(blob))
    good_manifest = manifest("good.csv", str(good_wav).encode() + b",spk00,0,900,other")
    config = tmp_path / "run.conf"
    config.write_text("seed = 3\n")
    bad_config = tmp_path / "bad.conf"
    bad_config.write_bytes(b"seed = 3\nfeatures = \xff\n")
    return {
        "wav": (broken_wav, manifest("wav.csv", str(broken_wav).encode() + b",spk00,0,900,other"),
                config),
        "manifest": (good_wav, manifest("bytes.csv", str(good_wav).encode() + b",spk\xff,0,900,x"),
                     config),
        "config": (good_wav, good_manifest, bad_config),
    }


@pytest.mark.parametrize("broken", ["wav", "manifest", "config"])
@pytest.mark.parametrize("command", ["extract", "train", "grid-search", "evaluate", "classify",
                                     "listen"])
def test_corrupt_input_exits_typed_without_traceback(corpus_dir, model_dir, tmp_path, capsys,
                                                    command, broken):
    # a typed error ends the command with its exit code and a one-line message;
    # an untyped one would escape main() and fail this test with its traceback
    wav, manifest, config = _corrupt_inputs(corpus_dir, tmp_path)[broken]
    if command == "listen":
        flags = ("--wav", wav, "--manifest", manifest, "--model", model_dir / "model.nlcm")
    elif command == "classify":
        flags = ("--manifest", manifest, "--model", model_dir / "model.nlcm")
    else:
        flags = ("--manifest", manifest, "--features", "stacked_formants")
    code = run(command, *flags, "--config", config, "--out", tmp_path / "o")
    err = capsys.readouterr().err
    assert code == (2 if broken == "config" else 3), err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
