"""Command-line interface.

Commands: synth-corpus, extract, train, grid-search, evaluate, classify,
listen. `main` runs each one in a RunContext: it creates --out, and writes
run_metadata.json from the metadata the command returns plus the
configuration, the seed and timings: the run's duration and per-stage
seconds and counters (see `stats`). --config values become the command's
defaults, so any flag given on the command line wins.

Exit codes: 0 success, 2 configuration error, 3 data error (including any
OSError on an input or output path), 4 numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (
    AudioSegment,
    Label,
    VadConfig,
    frame_stream,
    load_segments,
    load_wav,
    split_corpus,
    vad_segments,
)
from .errors import ConfigError, DataError, DetectorError, NumericalError
from .evaluate import (
    CvReport,
    EvalReport,
    frame_metrics,
    label_sign,
    roc_auc,
    segment_metrics,
    speaker_frames,
)
from .featset import FeatureKind, FeatureSetConfig, extract_matrix
from .learn import (
    DEFAULT_SVM_PARAMS,
    GridSearchResult,
    SvmHyperParams,
    grid_search,
    load_model,
    save_model,
    save_model_json,
)
from .learn.cv_core import SpeakerFrames, fit_bundle, run_louo_folds
from .pipeline import classify_offline, classify_segment, segment_score, trigger_time_ms
from .stats import Stats


@dataclass
class RunContext:
    out_dir: Path
    args: dict
    started: float = field(default_factory=time.perf_counter)
    stats: Stats = field(default_factory=Stats)

    def finish(self, extra: dict) -> None:
        meta = {
            "version": __version__,
            "command": self.args.get("command"),
            "config": {k: v for k, v in self.args.items() if k != "command"},
            "duration_s": round(time.perf_counter() - self.started, 3),
            **self.stats.to_dict(),
            **extra,
        }
        (self.out_dir / "run_metadata.json").write_text(json.dumps(meta, indent=2, default=str))


def _feature_kinds(spec_str: str) -> list[FeatureKind]:
    if spec_str.strip().lower() == "all":
        return list(FeatureKind)
    kinds = []
    for part in spec_str.split(","):
        part = part.strip().lower()
        try:
            kinds.append(FeatureKind(part))
        except ValueError:
            valid = ", ".join(k.value for k in FeatureKind)
            raise ConfigError(f"unknown feature set {part!r}; expected one of: {valid}, all")
    return kinds


def _single_kind(spec_str: str) -> FeatureKind:
    kinds = _feature_kinds(spec_str)
    if len(kinds) != 1:
        raise ConfigError("this command takes exactly one feature set")
    return kinds[0]


def _explicit_params(args: argparse.Namespace) -> SvmHyperParams | None:
    given = [args.svm_c, args.svm_eps, args.svm_gamma]
    if all(v is None for v in given):
        return None
    if any(v is None for v in given):
        raise ConfigError("--svm-c, --svm-eps and --svm-gamma must be given together")
    try:
        return SvmHyperParams(C=args.svm_c, eps=args.svm_eps, gamma=args.svm_gamma)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _choose_params(
    speakers: list[SpeakerFrames],
    config: FeatureSetConfig,
    args: argparse.Namespace,
    stats: Stats,
) -> tuple[SvmHyperParams, GridSearchResult | None]:
    """The explicit --svm-* values, else the grid winner under --grid-search, else the default.

    Returns the search result too when the grid was searched.
    """
    params = _explicit_params(args)
    if params is not None:
        return params, None
    if args.grid_search:
        with stats.stage("search"):
            result = grid_search(speakers, config, seed=args.seed)
        return result.best, result
    return DEFAULT_SVM_PARAMS[config.kind], None


# --- commands -----------------------------------------------------------------


def _load_speakers(args: argparse.Namespace,
                   stats: Stats) -> tuple[FeatureSetConfig, list[SpeakerFrames]]:
    """The one --features set, extracted per speaker from --manifest."""
    config = FeatureSetConfig(_single_kind(args.features))
    with stats.stage("load"):
        segments = load_segments(args.manifest)
    with stats.stage("extract"):
        speakers = speaker_frames(segments, config, stats)
    return config, speakers


def cmd_synth_corpus(args: argparse.Namespace, ctx: RunContext) -> dict:
    from .synth import SynthConfig, generate_corpus  # the one command that needs scipy

    config = SynthConfig(
        speakers=args.speakers,
        segments_per_speaker=args.segments_per_speaker,
        confirmation_rate=args.confirmation_rate,
        seed=args.seed,
    )
    manifest = generate_corpus(ctx.out_dir, config)
    print(f"wrote {manifest}")
    return {"manifest": str(manifest)}


def cmd_extract(args: argparse.Namespace, ctx: RunContext) -> dict:
    config = FeatureSetConfig(_single_kind(args.features))
    stats = ctx.stats
    with stats.stage("load"):
        segments = load_segments(args.manifest)
    feature_dir = ctx.out_dir / "features"
    feature_dir.mkdir(parents=True, exist_ok=True)
    index = []
    for seg in segments:
        with stats.stage("extract"):
            indices, matrix = extract_matrix(frame_stream(seg), config, stats)
        name = f"{seg.segment_id}.csv"
        with (feature_dir / name).open("w") as fh:
            np.savetxt(fh, matrix, fmt="%.12g", delimiter=",", comments="",
                       header=",".join(f"f{i}" for i in range(matrix.shape[1])))
        index.append({
            "segment_id": seg.segment_id,
            "file": f"features/{name}",
            "speaker_id": seg.speaker_id,
            "label": seg.label.value if seg.label else None,
            "rows": int(matrix.shape[0]),
            "first_frame_index": indices[0],
        })
    sidecar = {"config": config.to_dict(), "segments": index}
    (ctx.out_dir / "features.json").write_text(json.dumps(sidecar, indent=2))
    print(f"extracted {len(index)} segments -> {feature_dir}")
    return {"segments": len(index)}


def cmd_train(args: argparse.Namespace, ctx: RunContext) -> dict:
    config, speakers = _load_speakers(args, ctx.stats)
    params, searched = _choose_params(speakers, config, args, ctx.stats)
    with ctx.stats.stage("fit"):
        bundle = fit_bundle(speakers, config, params, seed=args.seed)
    model_path = ctx.out_dir / "model.nlcm"
    save_model(bundle, model_path)
    save_model_json(bundle, ctx.out_dir / "model.nlcm.json")
    print(f"trained {config.kind.value} (C={params.C}, eps={params.eps}, gamma={params.gamma}) "
          f"with {bundle.svm.alphas_signed.size} support vectors -> {model_path}")
    return {
        "model": str(model_path),
        "params": params.to_dict(),
        "grid_searched": searched is not None,
    }


def cmd_grid_search(args: argparse.Namespace, ctx: RunContext) -> dict:
    config, speakers = _load_speakers(args, ctx.stats)
    with ctx.stats.stage("search"):
        result = grid_search(speakers, config, seed=args.seed)
    rows = []
    print(f"{'C':>6} {'eps':>7} {'gamma':>7} {'weighted CV accuracy':>22}")
    for point in result.points:
        p = point.params
        print(f"{p.C:>6g} {p.eps:>7g} {p.gamma:>7g} {point.weighted_accuracy:>22.4f}")
        rows.append({"params": p.to_dict(), "weighted_accuracy": point.weighted_accuracy})
    best = result.best
    print(f"best: C={best.C} eps={best.eps} gamma={best.gamma}")
    (ctx.out_dir / f"grid_{config.kind.value}.json").write_text(json.dumps({
        "feature_kind": config.kind.value, "best": best.to_dict(), "points": rows,
    }, indent=2))
    return {"best": best.to_dict(), "points": len(rows)}


def _evaluate_kind(
    kind: FeatureKind,
    train_segments: list[AudioSegment],
    test_segments: list[AudioSegment],
    args: argparse.Namespace,
    stats: Stats,
) -> EvalReport:
    config = FeatureSetConfig(kind)
    with stats.stage("extract"):
        speakers = speaker_frames(train_segments, config, stats)
    params, searched = _choose_params(speakers, config, args, stats)
    if searched is not None:
        folds = searched.best_point.folds
    else:
        with stats.stage("search"):  # cross-validation at the chosen point
            folds = run_louo_folds(speakers, config, [params], seed=args.seed)[0]
    cv = CvReport(folds=folds)
    with stats.stage("fit"):
        bundle = fit_bundle(speakers, config, params, seed=args.seed)

    with stats.stage("classify"):
        decisions = classify_offline(test_segments, bundle, args.majority_threshold, stats)
    truth = [seg.label for seg in test_segments]
    scores = np.concatenate([d.frame_scores for d in decisions])
    labels = np.concatenate([np.full(d.frame_scores.size, label_sign(t))
                             for d, t in zip(decisions, truth)])
    seg_roc = None
    if args.segment_roc:
        seg_scores = np.array([segment_score(d) for d in decisions])
        seg_labels = np.array([label_sign(t) for t in truth])
        seg_roc = roc_auc(seg_scores, seg_labels)
    return EvalReport(
        feature_kind=kind.value,
        raw_dimension=config.raw_dimension,
        model_dimension=bundle.svm.dimension,
        params=params,
        cv=cv,
        frame_confusion=frame_metrics(scores, labels),
        roc=roc_auc(scores, labels),
        segment_confusion=segment_metrics(decisions, truth),
        segment_roc=seg_roc,
    )


def cmd_evaluate(args: argparse.Namespace, ctx: RunContext) -> dict:
    kinds = _feature_kinds(args.features)
    with ctx.stats.stage("load"):
        if args.test_manifest:
            train_segments = load_segments(args.manifest)
            test_segments = load_segments(args.test_manifest)
        else:
            segments = load_segments(args.manifest)
            split = split_corpus(segments, args.train_fraction, args.seed)
            train_segments, test_segments = split.train, split.test
    header = (f"{'feature set':<18} {'dim':>9} {'cv accuracy':>15} "
              f"{'TPR%':>6} {'FPR%':>6} {'AUC':>6} {'seg acc':>8}")
    print(header)
    print("-" * len(header))
    summary = []
    for kind in kinds:
        report = _evaluate_kind(kind, train_segments, test_segments, args, ctx.stats)
        dim = (f"{report.raw_dimension}->{report.model_dimension}"
               if report.model_dimension != report.raw_dimension else f"{report.raw_dimension}")
        cv_range = f"{report.cv.min_accuracy * 100:.1f}-{report.cv.max_accuracy * 100:.1f}"
        print(f"{report.feature_kind:<18} {dim:>9} {cv_range:>15} "
              f"{report.frame_confusion.tpr * 100:>6.1f} {report.frame_confusion.fpr * 100:>6.1f} "
              f"{report.roc.auc:>6.2f} {report.segment_confusion.accuracy:>8.2f}")
        report.save_json(ctx.out_dir / f"eval_{kind.value}.json")
        report.save_roc_csv(ctx.out_dir / f"roc_{kind.value}.csv")
        summary.append({"feature_kind": kind.value, "auc": report.roc.auc,
                        "segment_accuracy": report.segment_confusion.accuracy})
    return {"results": summary,
            "train_segments": len(train_segments), "test_segments": len(test_segments)}


def cmd_classify(args: argparse.Namespace, ctx: RunContext) -> dict:
    stats = ctx.stats
    with stats.stage("load"):
        bundle = load_model(args.model)
        segments = load_segments(args.manifest)
    with stats.stage("classify"):
        decisions = classify_offline(segments, bundle, args.majority_threshold, stats)
    frame_dir = ctx.out_dir / "frames"
    frame_dir.mkdir(parents=True, exist_ok=True)
    rows = list(zip(segments, decisions))
    for segment, decision in rows:
        with (frame_dir / f"{segment.segment_id}.csv").open("w") as fh:
            fh.write("frame_index,decision_value,prediction\n")
            for idx, score in zip(decision.frame_indices, decision.frame_scores):
                label = Label.CONFIRMATION if score > 0 else Label.OTHER
                fh.write(f"{idx},{score:.12g},{label.value}\n")
    with (ctx.out_dir / "segment_decisions.csv").open("w") as fh:
        fh.write("segment_id,decided_label,trigger_frame,true_label\n")
        for segment, decision in rows:
            trigger = "" if decision.trigger_frame is None else decision.trigger_frame
            true = segment.label.value if segment.label else ""
            fh.write(f"{segment.segment_id},{decision.decided_label.value},{trigger},{true}\n")
    n_conf = sum(1 for _, d in rows if d.decided_label is Label.CONFIRMATION)
    print(f"classified {len(rows)} segments ({n_conf} confirmations) -> {ctx.out_dir}")
    return {"segments": len(rows), "confirmations": n_conf}


def cmd_listen(args: argparse.Namespace, ctx: RunContext) -> dict:
    stats = ctx.stats
    with stats.stage("load"):
        bundle = load_model(args.model)
        audio = load_wav(args.wav)
        if args.manifest:
            segments = [s for s in load_segments(args.manifest)
                        if Path(s.source_id).name == Path(args.wav).name]
            if not segments:
                raise DataError(f"manifest has no segments for {args.wav}")
        else:
            segments = vad_segments(
                audio, VadConfig(threshold=args.vad_threshold, hangover_ms=args.hangover_ms),
                source_id=Path(args.wav).name,
            )
    events = []
    audio_seconds = sum(len(s.samples) for s in segments) / audio.sample_rate
    with stats.stage("classify"):
        for segment in segments:
            decision = classify_segment(segment, bundle, args.majority_threshold, stats)
            stats.count("vectors", decision.frame_scores.size)
            trigger = decision.trigger
            if trigger is not None:
                events.append({
                    "segment_id": segment.segment_id,
                    "trigger_time_ms": trigger_time_ms(segment, trigger.frame_index),
                    "rolling_mean": trigger.rolling_mean,
                })
    wall = stats.stages["classify"]
    rtf = wall / audio_seconds if audio_seconds else 0.0
    with (ctx.out_dir / "triggers.ndjson").open("w") as fh:
        for event in events:
            fh.write(json.dumps(event) + "\n")
    print(f"listened to {audio_seconds:.1f} s in {wall:.2f} s "
          f"(real-time factor {rtf:.3f}); {len(events)} triggers")
    return {"triggers": len(events), "audio_seconds": audio_seconds,
            "wall_seconds": wall, "real_time_factor": rtf}


# --- argument plumbing ----------------------------------------------------------


def _load_config_file(path: str) -> dict:
    """key = value lines of UTF-8 text; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line_no = exc.object[: exc.start].count(b"\n") + 1
        raise ConfigError(f"{path}:{line_no}: not UTF-8 text ({exc.reason})") from None
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


def _coerce(raw: str, action: argparse.Action) -> object:
    if isinstance(action, argparse._StoreTrueAction):
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"expected a boolean for {action.dest}, got {raw!r}")
    if action.type is not None:
        try:
            return action.type(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {action.dest}: {raw!r}") from exc
    return raw


def _apply_config_file(command: str, parser: argparse.ArgumentParser, path: str) -> None:
    """Make the config file's values the defaults of the command's parser.

    Parsing the command line again then lets every flag given there win,
    whatever its value.
    """
    actions = {a.dest: a for a in parser._actions if a.dest != "help"}
    for key, raw in _load_config_file(path).items():
        if key not in actions:
            raise ConfigError(f"unknown config key {key!r} for command {command}")
        parser.set_defaults(**{key: _coerce(raw, actions[key])})


# numeric flags whose bad values would otherwise fail deep inside a command
# or run to no effect: dest -> (accepts, expected range)
_RANGES = {
    "train_fraction": (lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    # a segment latches when the mean of 5 votes of +-1 exceeds the threshold
    "majority_threshold": (lambda v: -1.0 <= v < 1.0, "in [-1, 1)"),
    "vad_threshold": (lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
    "hangover_ms": (lambda v: v >= 0, ">= 0"),
}


def _check_ranges(args: argparse.Namespace) -> None:
    for dest, (accepts, expected) in _RANGES.items():
        value = getattr(args, dest, None)
        if value is not None and not accepts(value):
            raise ConfigError(f"--{dest.replace('_', '-')} must be {expected}, got {value}")
    if hasattr(args, "svm_c"):
        _explicit_params(args)  # incomplete or invalid --svm-* values fail before extraction


def _add_common(parser: argparse.ArgumentParser, *, manifest: bool = True) -> None:
    parser.add_argument("--out", required=True, help="output directory for artifacts")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", help="key = value config file; flags override it")
    if manifest:
        parser.add_argument("--manifest", required=True, help="segment manifest CSV")


def _add_svm_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--svm-c", type=float, default=None, help="SVM C (with --svm-eps/--svm-gamma)")
    parser.add_argument("--svm-eps", type=float, default=None, help="SMO stopping tolerance")
    parser.add_argument("--svm-gamma", type=float, default=None, help="RBF width")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="nlconfirm",
        description="Detect non-lexical confirmations (mhm-style backchannels) in speech audio.",
    )
    parser.add_argument("--version", action="version", version=f"nlconfirm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-corpus", help="generate the synthetic test corpus")
    _add_common(p, manifest=False)
    p.add_argument("--speakers", type=int, default=10)
    p.add_argument("--segments-per-speaker", type=int, default=40)
    p.add_argument("--confirmation-rate", type=float, default=0.08)

    p = sub.add_parser("extract", help="dump per-segment feature matrices")
    _add_common(p)
    p.add_argument("--features", required=True, help="one feature set name")

    p = sub.add_parser("train", help="train a model on a manifest")
    _add_common(p)
    p.add_argument("--features", required=True)
    p.add_argument("--grid-search", action="store_true",
                   help="pick SVM parameters by grid search instead of the shipped defaults")
    _add_svm_flags(p)

    p = sub.add_parser("grid-search", help="score the SVM parameter grid by cross-validation")
    _add_common(p)
    p.add_argument("--features", required=True)

    p = sub.add_parser("evaluate", help="cross-validate, train and score on a test split")
    _add_common(p)
    p.add_argument("--features", default="all", help="comma list of feature sets, or 'all'")
    p.add_argument("--test-manifest", default=None,
                   help="separate test manifest (otherwise --train-fraction split)")
    p.add_argument("--train-fraction", type=float, default=0.7)
    p.add_argument("--grid-search", action="store_true")
    p.add_argument("--majority-threshold", type=float, default=0.0)
    p.add_argument("--segment-roc", action="store_true",
                   help="also report segment-level ROC (score = max rolling vote mean)")
    _add_svm_flags(p)

    p = sub.add_parser("classify", help="offline per-frame classification of a manifest")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--majority-threshold", type=float, default=0.0)

    p = sub.add_parser("listen", help="stream a WAV through the online classifier")
    _add_common(p, manifest=False)
    p.add_argument("--wav", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", default=None,
                   help="use these segment spans instead of running VAD")
    p.add_argument("--vad-threshold", type=float, default=0.01)
    p.add_argument("--hangover-ms", type=int, default=200)
    p.add_argument("--majority-threshold", type=float, default=0.0)
    return parser, sub.choices


_COMMANDS = {
    "synth-corpus": cmd_synth_corpus,
    "extract": cmd_extract,
    "train": cmd_train,
    "grid-search": cmd_grid_search,
    "evaluate": cmd_evaluate,
    "classify": cmd_classify,
    "listen": cmd_listen,
}


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config_file(args.command, commands[args.command], args.config)
            args = parser.parse_args(argv)
        _check_ranges(args)
        ctx = RunContext(out_dir=Path(args.out), args=vars(args).copy())
        ctx.out_dir.mkdir(parents=True, exist_ok=True)
        ctx.finish(_COMMANDS[args.command](args, ctx))
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except DetectorError as exc:  # pragma: no cover - base-class fallback
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # missing, unreadable or not-a-file paths
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
