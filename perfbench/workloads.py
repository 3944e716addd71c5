"""The benchmark's three workloads and their output checks.

Every workload builds its inputs with `synth.generate_corpus` from seeds
derived from the run seed, then runs one operation per input item in a
closed loop (the next operation starts when the previous one returns):

* `offline_fit`: item = one synthetic corpus; operation = the CLI command
  `evaluate --features stacked_mfcc --grid-search` on it, in-process.
* `stream_formants`: item = one manifest span of a held-out speaker;
  operation = streaming it frame by frame through an `OnlineClassifier`
  backed by a `stacked_formants` model trained on other speakers.
* `stream_long`: item = the one VAD segment of a held-out speaker's first
  `long_seconds` of audio (the VAD hangover outlasts every silence gap);
  operation = streaming it through an `mfcc_delta` model.

Program functions are always reached through module attributes (for
example `corpus.frame_stream(...)`), so the tracer sees the benchmark's
calls the same way it sees the program's own.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nlconfirm import cli, corpus, evaluate, featset, learn, pipeline, synth
from nlconfirm.featset import FeatureKind

AUC_FLOOR = 0.9          # offline_fit: frame-level ROC AUC on a default-rate corpus
SEG_ACC_FLOOR = 0.7      # offline_fit: segment accuracy on a default-rate corpus
SCORE_TOLERANCE = 1e-9   # streamed vs batch decision values
HARD_NOISE_DB = -10.0    # quality-only condition
LONG_HANGOVER_MS = 1000  # longer than the synthetic corpus's 600 ms maximum silence gap


@dataclass(frozen=True)
class Size:
    """Input sizes; `FULL` is what the benchmark measures, `TINY` is for its tests."""

    fit_corpora: int
    fit_speakers: int
    fit_segments: int
    stream_speakers: int     # speakers in a stream corpus ...
    train_speakers: int      # ... of which the first ones train the model
    formant_segments: int
    formant_train_others: int
    long_segments: int
    long_train_others: int
    long_seconds: float
    hard_speakers: int
    hard_segments: int
    setup_repeats: int


FULL = Size(fit_corpora=2, fit_speakers=12, fit_segments=6,
            stream_speakers=4, train_speakers=2,
            formant_segments=16, formant_train_others=3,
            long_segments=40, long_train_others=8, long_seconds=60.0,
            hard_speakers=3, hard_segments=8, setup_repeats=3)
TINY = Size(fit_corpora=1, fit_speakers=3, fit_segments=4,
            stream_speakers=2, train_speakers=1,
            formant_segments=4, formant_train_others=1,
            long_segments=8, long_train_others=2, long_seconds=6.0,
            hard_speakers=3, hard_segments=4, setup_repeats=2)
SIZES = {"full": FULL, "tiny": TINY}


def sub_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def run_cli(*argv) -> int:
    """Run one nlconfirm command in-process; its console table is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def span_seconds(descriptors) -> float:
    return sum(d.end_ms - d.start_ms for d in descriptors) / 1000.0


def span_frames(descriptors) -> int:
    frames = 0
    for d in descriptors:
        samples = (d.end_ms - d.start_ms) * corpus.SAMPLE_RATE // 1000
        frames += max(0, (samples - corpus.FRAME_LEN) // corpus.HOP_LEN + 1)
    return frames


def read_eval(path: Path) -> tuple[dict, bytes]:
    raw = path.read_bytes()
    return json.loads(raw), raw


def featset_peak_kib(segment: corpus.AudioSegment, config: featset.FeatureSetConfig) -> float:
    """Peak Python heap while one StreamingExtractor consumes a whole segment."""
    frames = corpus.frame_stream(segment)
    extractor = featset.StreamingExtractor(config)
    gc.collect()
    tracemalloc.start()
    try:
        for frame in frames:
            extractor.push(frame)
        extractor.finish()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1024.0


class OfflineFit:
    name = "offline_fit"
    kind = FeatureKind.STACKED_MFCC
    memory_bound = True  # kernel matrices of ~1300^2 doubles live in L3

    def __init__(self, seed: int, size: Size):
        self.seed, self.size = seed, size

    def setup(self, workdir: Path) -> None:
        self.items = []
        for k in range(self.size.fit_corpora):
            config = synth.SynthConfig(speakers=self.size.fit_speakers,
                                       segments_per_speaker=self.size.fit_segments,
                                       seed=sub_seed(self.seed, 1, k))
            manifest = synth.generate_corpus(workdir / f"corpus{k}", config)
            descriptors = corpus.parse_manifest(manifest)
            self.items.append({"manifest": manifest, "audio_s": span_seconds(descriptors),
                               "frames": span_frames(descriptors)})

    def warm_up(self) -> None:
        pass  # every evaluate run starts cold, as from the command line

    def run_op(self, item: int, frames, probe) -> dict:
        manifest = self.items[item]["manifest"]
        out = manifest.parent / "eval"
        rc = run_cli("evaluate", "--manifest", manifest, "--out", out,
                     "--features", self.kind.value, "--grid-search")
        if rc != 0:
            raise RuntimeError(f"evaluate exited with {rc}")
        report, raw = read_eval(out / f"eval_{self.kind.value}.json")
        return {"report": report, "raw": raw}

    def check(self, ops) -> list[str]:
        problems = []
        first_raw: dict[int, bytes] = {}
        for op in ops:
            if op.error:
                continue
            report = op.result["report"]
            values = [report["roc_auc"], report["cv"]["weighted_accuracy"],
                      *report["frame"].values(), *report["segment"].values()]
            if not all(math.isfinite(v) for v in values):
                problems.append(f"item {op.item}: non-finite report field")
            if report["roc_auc"] < AUC_FLOOR:
                problems.append(f"item {op.item}: auc {report['roc_auc']} < {AUC_FLOOR}")
            if report["segment"]["accuracy"] < SEG_ACC_FLOOR:
                problems.append(f"item {op.item}: seg acc {report['segment']['accuracy']} "
                                f"< {SEG_ACC_FLOOR}")
            first = first_raw.setdefault(op.item, op.result["raw"])
            if op.result["raw"] != first:
                problems.append(f"item {op.item}: repeated evaluate differs")
        return problems

    def quality(self, ops) -> dict:
        reports = [op.result["report"] for op in ops if not op.error]
        return {
            "auc": [r["roc_auc"] for r in reports],
            "cv_acc": [r["cv"]["weighted_accuracy"] for r in reports],
            "seg_acc": [r["segment"]["accuracy"] for r in reports],
            "triggers": [r["segment"]["tp"] + r["segment"]["fp"] for r in reports],
            "trigger_delays_ms": [],
        }

    def longest_segment(self):
        segments = corpus.load_segments(self.items[0]["manifest"])
        return max(segments, key=lambda s: len(s.samples)), featset.FeatureSetConfig(self.kind)

    def support_vectors(self) -> int | None:
        return None  # taken from the models the traced run trains


class StreamWorkload:
    """Trains a model on some speakers of one corpus, streams the others."""

    name: str
    kind: FeatureKind
    memory_bound = False  # per-frame arrays stay in cache
    check_segments: int   # segments re-run through the batch path after the timed loop
    corpus_path: int
    segments_per_speaker: int
    train_others: int

    def __init__(self, seed: int, size: Size):
        self.seed, self.size = seed, size

    def setup(self, workdir: Path) -> None:
        config = synth.SynthConfig(speakers=self.size.stream_speakers,
                                   segments_per_speaker=self.segments_per_speaker,
                                   seed=sub_seed(self.seed, self.corpus_path))
        manifest = synth.generate_corpus(workdir / "corpus", config)
        descriptors = corpus.parse_manifest(manifest)
        speakers = sorted({d.speaker_id for d in descriptors})
        train_ids = set(speakers[: self.size.train_speakers])
        train, others_taken = [], {}
        for d in descriptors:
            if d.speaker_id not in train_ids:
                continue
            if d.label is corpus.Label.OTHER:
                others_taken[d.speaker_id] = others_taken.get(d.speaker_id, 0) + 1
                if others_taken[d.speaker_id] > self.train_others:
                    continue
            train.append(d)
        corpus.write_manifest(train, workdir / "corpus" / "train.csv")
        rc = run_cli("train", "--manifest", workdir / "corpus" / "train.csv",
                     "--features", self.kind.value, "--out", workdir / "model")
        if rc != 0:
            raise RuntimeError(f"train exited with {rc}")
        self.bundle = learn.load_model(workdir / "model" / "model.nlcm")
        streamed = [d for d in descriptors if d.speaker_id not in train_ids]
        self.segments = self.stream_segments(manifest, streamed)
        self.classifier = pipeline.OnlineClassifier(self.bundle)
        self.items = [{"audio_s": len(s.samples) / corpus.SAMPLE_RATE,
                       "frames": len(corpus.frame_stream(s))} for s in self.segments]
        self.conf_spans = {}
        for d in streamed:
            if d.label is corpus.Label.CONFIRMATION:
                self.conf_spans.setdefault(d.speaker_id, []).append((d.start_ms, d.end_ms))

    def stream_segments(self, manifest: Path, streamed) -> list[corpus.AudioSegment]:
        raise NotImplementedError

    def frame_labels(self, segment: corpus.AudioSegment, frame_indices: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def warm_up(self) -> None:
        self.classifier.reset_segment()
        for frame in corpus.frame_stream(self.segments[0])[:30]:
            self.classifier.push_frame(frame)
        self.classifier.reset_segment()

    def run_op(self, item: int, frames, probe):
        """Stream one segment, logging each push_frame call's start and duration."""
        probe_times = probe.busy
        classifier = self.classifier
        classifier.reset_segment()
        clock = time.perf_counter
        for frame in corpus.frame_stream(self.segments[item]):
            mark = len(probe_times)
            start = clock()
            classifier.push_frame(frame)
            elapsed = clock() - start
            if len(probe_times) != mark:
                elapsed -= sum(probe_times[mark:])
            frames.add(start, elapsed)
        classifier.finish_segment()
        return classifier.decision()

    def _check_sample(self, ops) -> list:
        """A few streamed segments: one that latched, one that did not, the longest."""
        latest = {op.item: op for op in ops if not op.error}
        chosen = []
        for predicate in (lambda op: op.result.trigger_frame is not None,
                          lambda op: op.result.trigger_frame is None):
            match = next((op for op in latest.values() if predicate(op)), None)
            if match is not None and match not in chosen:
                chosen.append(match)
        longest = max(latest.values(), key=lambda op: self.items[op.item]["frames"], default=None)
        if longest is not None and longest not in chosen:
            chosen.append(longest)
        return chosen[: self.check_segments]

    def check(self, ops) -> list[str]:
        problems = []
        for op in ops:
            if not op.error and not np.isfinite(op.result.frame_scores).all():
                problems.append(f"segment {op.item}: non-finite streamed score")
        for op in self._check_sample(ops):
            segment, streamed = self.segments[op.item], op.result
            try:
                vectors = featset.extract(corpus.frame_stream(segment),
                                          self.bundle.feature_config)
                batch = self.bundle.decide_many(featset.feature_matrix(vectors))
            except Exception as exc:  # reported as a failed check, not a crash
                problems.append(f"segment {op.item}: batch path failed: {exc!r}")
                continue
            indices = np.array([v.frame_index for v in vectors])
            if not np.array_equal(indices, streamed.frame_indices):
                problems.append(f"segment {op.item}: batch and stream frame indices differ")
            elif np.max(np.abs(batch - streamed.frame_scores), initial=0.0) > SCORE_TOLERANCE:
                problems.append(f"segment {op.item}: batch and stream scores differ by > "
                                f"{SCORE_TOLERANCE}")
            replay = pipeline.decision_from_scores(streamed.segment_ref, streamed.frame_indices,
                                                   streamed.frame_scores)
            if (replay.decided_label, replay.trigger_frame) != (streamed.decided_label,
                                                                streamed.trigger_frame):
                problems.append(f"segment {op.item}: latched decision differs from replay")
        return problems

    def quality(self, ops) -> dict:
        latest = {op.item: op.result for op in ops if not op.error}
        scores, labels, delays, correct = [], [], [], []
        for item, decision in sorted(latest.items()):
            segment = self.segments[item]
            scores.append(decision.frame_scores)
            labels.append(self.frame_labels(segment, decision.frame_indices))
            if decision.trigger_frame is not None:
                delays.append(pipeline.trigger_time_ms(segment, decision.trigger_frame)
                              - segment.start_ms)
            if segment.label is not None:
                correct.append(decision.decided_label is segment.label)
        scores, labels = np.concatenate(scores), np.concatenate(labels)
        auc = (evaluate.roc_auc(scores, labels).auc
               if (labels > 0).any() and (labels < 0).any() else None)
        return {
            "auc": [auc] if auc is not None else [],
            "cv_acc": [],
            "seg_acc": [float(np.mean(correct))] if correct else [],
            "triggers": [len(delays)],
            "trigger_delays_ms": delays,
        }

    def longest_segment(self):
        return max(self.segments, key=lambda s: len(s.samples)), self.bundle.feature_config

    def support_vectors(self) -> int | None:
        return int(self.bundle.svm.support_vectors.shape[0])


class StreamFormants(StreamWorkload):
    name = "stream_formants"
    kind = FeatureKind.STACKED_FORMANTS
    check_segments = 3
    corpus_path = 2

    def __init__(self, seed: int, size: Size):
        super().__init__(seed, size)
        self.segments_per_speaker = size.formant_segments
        self.train_others = size.formant_train_others

    def stream_segments(self, manifest: Path, streamed) -> list[corpus.AudioSegment]:
        stream_manifest = manifest.parent / "stream.csv"
        corpus.write_manifest(streamed, stream_manifest)
        return corpus.load_segments(stream_manifest)

    def frame_labels(self, segment, frame_indices):
        sign = 1 if segment.label is corpus.Label.CONFIRMATION else -1
        return np.full(len(frame_indices), sign)


class StreamLong(StreamWorkload):
    name = "stream_long"
    kind = FeatureKind.MFCC_DELTA
    check_segments = 1  # a batch pass over a 60 s segment costs as much as streaming it
    corpus_path = 3

    def __init__(self, seed: int, size: Size):
        super().__init__(seed, size)
        self.segments_per_speaker = size.long_segments
        self.train_others = size.long_train_others

    def stream_segments(self, manifest: Path, streamed) -> list[corpus.AudioSegment]:
        segments = []
        keep = int(self.size.long_seconds * corpus.SAMPLE_RATE)
        for wav_path, speaker_id in sorted({(d.wav_path, d.speaker_id) for d in streamed}):
            audio = corpus.load_wav(manifest.parent / wav_path)
            head = corpus.AudioBuffer(audio.samples[:keep], audio.sample_rate)
            segments += corpus.vad_segments(head, corpus.VadConfig(hangover_ms=LONG_HANGOVER_MS),
                                            source_id=wav_path, speaker_id=speaker_id)
        return segments

    def frame_labels(self, segment, frame_indices):
        centers = (segment.start_ms + np.asarray(frame_indices) * corpus.HOP_MS
                   + corpus.FRAME_MS / 2.0)
        labels = np.full(len(centers), -1)
        for start, end in self.conf_spans.get(segment.speaker_id, []):
            labels[(centers >= start) & (centers < end)] = 1
        return labels


WORKLOADS = {w.name: w for w in (OfflineFit, StreamFormants, StreamLong)}


def hard_quality(seed: int, size: Size, workdir: Path) -> dict:
    """Both user paths, shipped defaults, on a noisier corpus where detection is not saturated.

    `evaluate` scores stacked_mfcc and stacked_formants; `train` + `listen`
    (VAD mode) stream one speaker's WAV through a stacked_mfcc model.
    """
    config = synth.SynthConfig(speakers=size.hard_speakers,
                               segments_per_speaker=size.hard_segments,
                               noise_db=HARD_NOISE_DB, seed=sub_seed(seed, 4))
    hard = workdir / "hard"
    manifest = synth.generate_corpus(hard, config)
    kinds = (FeatureKind.STACKED_MFCC, FeatureKind.STACKED_FORMANTS)
    commands = (
        ("evaluate", "--manifest", manifest, "--out", hard / "eval",
         "--features", ",".join(k.value for k in kinds)),
        ("train", "--manifest", manifest, "--out", hard / "model",
         "--features", FeatureKind.STACKED_MFCC.value),
        ("listen", "--wav", hard / "wavs" / "spk00.wav", "--model", hard / "model" / "model.nlcm",
         "--out", hard / "listen"),
    )
    for command in commands:
        rc = run_cli(*command)
        if rc != 0:
            raise RuntimeError(f"{command[0]} on the noisy corpus exited with {rc}")
    out = {"listen_triggers_hard": len((hard / "listen" / "triggers.ndjson").read_text().splitlines())}
    for kind in kinds:
        report, _ = read_eval(hard / "eval" / f"eval_{kind.value}.json")
        out[kind.value] = {"auc_hard": report["roc_auc"],
                           "seg_acc_hard": report["segment"]["accuracy"]}
    return out
