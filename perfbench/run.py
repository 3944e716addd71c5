"""nlconfirm benchmark: offline fit, short-segment formant streaming, long-segment streaming.

Usage, from the repository root:

    python3 perfbench/run.py --workload stream_formants --seed 0 --seconds 20 --trace 0

`--seconds` defaults to `run_seconds` of BENCHMARK.json. `--trace 0`
measures the end-to-end metrics with no wrapper installed and the host-speed
probe running (probe.py). `--trace 1` runs each item untraced and then
traced, without the probe, and derives
per-layer metrics from the spans (spans.py). Both modes print a readable
report, write it as JSON under `--out`, and end with one JSON line
{"correct", "attempted", "failed", "metrics"}. The program under test is
imported from `src/` beside this directory; without it the benchmark exits
with status 2.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"  # one BLAS thread: steadier timings on a shared 2-core host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402  (the BLAS setting must precede numpy's import)
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from probe import HostProbe, Stopwatch  # noqa: E402
from spans import END, ERROR, NAME, PARENT, RUN, START, VALUE, Tracer, self_times  # noqa: E402

WORKLOAD_NAMES = ("offline_fit", "stream_formants", "stream_long")
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

# Gated metrics (BENCHMARK.json "end_to_end"): defined and never zero on every workload.
END_TO_END = {"setup_s": "s", "rtf": "s/s", "peak_rss_mib": "MiB"}

PER_LAYER = {
    "dsp.polynomial_roots.us_per_call": "us",
    "dsp.lpc.us_per_call": "us",
    "dsp.formants.us_per_call": "us",
    "dsp.apply_window.us_per_call": "us",
    "dsp.mfcc.us_per_call": "us",
    "dsp.degenerate_frames": "count",
    "featset.push.self_us_per_frame": "us",
    "featset.self_us_late_over_early": "ratio",
    "featset.peak_kib": "KiB",
    "learn.kernel_build.ms": "ms",
    "learn.kernel_build.calls": "count",
    "learn.smo_solve.ms": "ms",
    "learn.smo_solve.calls": "count",
    "learn.smo_solve.iterations": "count",
    "learn.smo_solve.convergence_failures": "count",
    "learn.fit_pca.ms": "ms",
    "learn.train_svm.calls_per_model": "count",
    "learn.decide.us_per_call": "us",
    "learn.support_vectors": "count",
    "learn.decide_many.us_per_row": "us",
    "learn.load_model.ms": "ms",
    "pipeline.push_frame.self_us": "us",
    "pipeline.votes": "count",
    "pipeline.triggers": "count",
    "evaluate.speaker_frames.s": "s",
    "evaluate.roc_auc.ms": "ms",
    "corpus.load_segments.ms": "ms",
    "corpus.frame_stream.us_per_frame": "us",
    "corpus.vad_segments.ms": "ms",
    "synth.generate_corpus.s": "s",
    "cli.main.s": "s",
    "trace.overhead_frac": "ratio",
}

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


@dataclass
class Op:
    item: int
    wall_s: float        # wall time minus probe time
    normalized_s: float  # the same at the probe's nominal host speed
    result: object
    error: str | None


@dataclass
class FrameLog:
    """Start time and duration (seconds, probe time excluded) of each push_frame call."""

    starts: list[float] = field(default_factory=list)
    raw: list[float] = field(default_factory=list)

    def add(self, start: float, elapsed: float) -> None:
        self.starts.append(start)
        self.raw.append(elapsed)

    def normalized(self, probe: HostProbe) -> np.ndarray:
        raw = np.asarray(self.raw)
        return raw / probe.factors(np.asarray(self.starts) + raw / 2.0)


def run_one(workload, item: int, probe: HostProbe, frames: FrameLog) -> Op:
    with Stopwatch(probe) as watch:
        try:
            result, error = workload.run_op(item, frames, probe), None
        except Exception as exc:  # a failed operation is counted, never fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
    return Op(item, watch.wall, watch.normalized, result, error)


def run_loop(workload, seconds: float, probe: HostProbe, frames: FrameLog) -> list[Op]:
    """Closed loop over the items until `seconds` have passed and each item ran once."""
    ops: list[Op] = []
    start = time.perf_counter()
    n_items = len(workload.items)
    while len(ops) < n_items or time.perf_counter() - start < seconds:
        ops.append(run_one(workload, len(ops) % n_items, probe, frames))
    return ops


def timing(samples, raw_samples, unit: str, scale: float = 1.0) -> dict:
    """Median plus the highest percentile that still has >= 10 samples beyond it."""
    values = np.asarray(samples, dtype=float) * scale
    entry = {"value": float(np.median(values)) if values.size else None, "unit": unit,
             "n": int(values.size), "tail_pct": None, "tail": None,
             "raw": float(np.median(np.asarray(raw_samples) * scale)) if values.size else None}
    tail = next((p for p in TAIL_LADDER if values.size * (1 - p / 100) >= 10), None)
    if tail is not None:
        entry["tail_pct"], entry["tail"] = tail, float(np.percentile(values, tail))
    return entry


def scalar(value, unit: str, n: int = 1, note: str | None = None, raw=None) -> dict:
    return {"value": value, "unit": unit, "n": n if value is not None else 0,
            "note": note, "raw": raw}


def real_time_factor(workload, ops: list[Op], normalized: bool) -> float | None:
    """Sum over items of each item's median time, over the items' audio seconds."""
    times: dict[int, list[float]] = {}
    for op in ops:
        if not op.error:
            times.setdefault(op.item, []).append(op.normalized_s if normalized else op.wall_s)
    if not times:
        return None
    audio = sum(workload.items[i]["audio_s"] for i in times)
    return sum(statistics.median(t) for t in times.values()) / audio


def _median_entry(values, unit: str, note: str | None = None) -> dict:
    values = [v for v in values if v is not None]
    if not values:
        return scalar(None, unit, note=note)
    return scalar(float(statistics.median(values)), unit, len(values))


def end_to_end(workload, ops, frames: FrameLog, probe: HostProbe, setups: list[Stopwatch],
               peak_rss_mib) -> dict:
    quality = workload.quality(ops)
    frame_times = frames.normalized(probe)
    done = [op for op in ops if not op.error]
    offline = workload.name == "offline_fit"
    no_frames = "offline_fit makes no per-frame call"
    p99 = (lambda values: float(np.percentile(np.asarray(values) * 1e6, 99)))
    return {
        "setup_s": timing([s.normalized for s in setups], [s.wall for s in setups], "s"),
        "wall_s": (timing([op.normalized_s for op in done], [op.wall_s for op in done], "s")
                   if offline else scalar(None, "s", note="offline_fit only; streams report rtf")),
        "rtf": scalar(real_time_factor(workload, ops, True), "s/s", len(done),
                      "evaluate time per second of corpus audio" if offline else
                      "streamed time per streamed audio second",
                      raw=real_time_factor(workload, ops, False)),
        "frame_p50_us": (scalar(None, "us", note=no_frames) if offline else
                         timing(frame_times, frames.raw, "us", 1e6)),
        "frame_p99_us": (scalar(None, "us", note=no_frames) if offline else
                         scalar(p99(frame_times), "us", len(frames.raw),
                                raw=p99(frames.raw))),
        "peak_rss_mib": scalar(peak_rss_mib, "MiB"),
        "auc": _median_entry(quality["auc"], "ratio", "one class only"),
        "cv_acc": _median_entry(quality["cv_acc"], "ratio",
                                "no cross-validation in a stream workload"),
        "seg_acc": _median_entry(quality["seg_acc"], "ratio", "VAD segments carry no label"),
        "triggers": _median_entry(quality["triggers"], "count"),
        "trigger_delay_ms_p50": (timing(quality["trigger_delays_ms"],
                                        quality["trigger_delays_ms"], "ms")
                                 if quality["trigger_delays_ms"] else
                                 scalar(None, "ms", note="evaluate reports no trigger times"
                                        if offline else "no segment latched")),
        "failed_frac": scalar((len(ops) - len(done)) / len(ops), "ratio", len(ops)),
    }


def phase(run_id: str) -> str:
    """'setup', 'quality' or 'pass' (run ids of traced passes are 'pass<p>.op<i>')."""
    return "pass" if run_id.startswith("pass") else run_id


def layer_metrics(spans, passes: int, extra: dict) -> tuple[dict, dict, dict]:
    """(shares, per-layer metrics, sources) from the spans of a traced run.

    Counts and ratios come from the traced passes. A per-call time comes
    from the passes too, or, when the workload's passes never make that
    call, from the run's other traced phases (set-up, then the quality-only
    condition; set-up layers look at set-up first); `sources` names the
    phase each time came from.
    """
    selfs = self_times(spans)
    by_phase: dict[str, dict[str, list[int]]] = {"pass": {}, "setup": {}, "quality": {}}
    for index, span in enumerate(spans):
        by_phase[phase(span[RUN])].setdefault(span[NAME], []).append(index)
    in_run = by_phase["pass"]
    run_first, setup_first = ("pass", "setup", "quality"), ("setup", "pass", "quality")
    sources: dict[str, str] = {}

    def pick(name, order, where=lambda i: True):
        for source in order:
            chosen = [i for i in by_phase[source].get(name, ()) if where(i)]
            if chosen:
                sources[name] = source
                return chosen
        sources[name] = "none"
        return []

    def mean(name, scale, order=run_first, use_self=False, where=lambda i: True):
        picked = pick(name, order, where)
        total = sum(selfs[i] if use_self else spans[i][END] - spans[i][START] for i in picked)
        return total * scale / len(picked) if picked else 0.0

    def count(name, where=lambda i: True):
        return sum(1 for i in in_run.get(name, ()) if where(i)) / passes

    def under(*parents):
        return lambda i: spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] in parents

    def raised(error):
        return lambda i: spans[i][ERROR] == error

    def value_sum(*names):
        return sum(spans[i][VALUE] or 0 for n in names for i in in_run.get(n, ())) / passes

    def per_unit(name, scale, order=run_first):
        picked = pick(name, order)
        units = sum(spans[i][VALUE] or 0 for i in picked)
        total = sum(spans[i][END] - spans[i][START] for i in picked)
        return total * scale / units if units else 0.0

    def total(name, use_self=False, where=lambda i: True):
        return sum(selfs[i] if use_self else spans[i][END] - spans[i][START]
                   for i in in_run.get(name, ()) if where(i))

    def share(part, whole):
        return part / whole if whole else 0.0

    trained = [spans[i][VALUE] for i in in_run.get("learn.train_svm", ())]
    models = len(in_run.get("cli.main", ()))  # one evaluate = one final model
    support = extra["support_vectors"]
    if support is None:
        support = statistics.mean(trained) if trained else 0.0
    kernel = under("learn.train_svm")
    scorer = under("pipeline.push_frame", "pipeline.finish_segment")
    pushes = total("pipeline.push_frame")
    shares = {  # where the time of each workload's blocking call went
        "roots_and_lpc_of_push_frame": share(total("dsp.polynomial_roots") + total("dsp.lpc"),
                                             pushes),
        "featset_self_of_push_frame": share(total("featset.push", use_self=True), pushes),
        "kernel_and_smo_of_evaluate": share(total("learn.rbf_kernel", where=kernel)
                                            + total("learn.smo_solve"), total("cli.main")),
    }
    return shares, sources, {
        "dsp.polynomial_roots.us_per_call": mean("dsp.polynomial_roots", 1e-3),
        "dsp.lpc.us_per_call": mean("dsp.lpc", 1e-3),
        "dsp.formants.us_per_call": mean("dsp.formants", 1e-3),
        "dsp.apply_window.us_per_call": mean("dsp.apply_window", 1e-3),
        "dsp.mfcc.us_per_call": mean("dsp.mfcc", 1e-3),
        "dsp.degenerate_frames": count("dsp.lpc", raised("DegenerateFrame")),
        "featset.push.self_us_per_frame": mean("featset.push", 1e-3, use_self=True),
        "featset.self_us_late_over_early": late_over_early(spans, selfs,
                                                           in_run.get("featset.push", [])),
        "featset.peak_kib": extra["featset_peak_kib"],
        "learn.kernel_build.ms": mean("learn.rbf_kernel", 1e-6, where=kernel),
        "learn.kernel_build.calls": count("learn.rbf_kernel", kernel),
        "learn.smo_solve.ms": mean("learn.smo_solve", 1e-6),
        "learn.smo_solve.calls": count("learn.smo_solve"),
        "learn.smo_solve.iterations": value_sum("learn.smo_solve"),
        "learn.smo_solve.convergence_failures": count("learn.smo_solve",
                                                      raised("ConvergenceFailure")),
        "learn.fit_pca.ms": mean("learn.fit_pca", 1e-6),
        "learn.train_svm.calls_per_model": len(trained) / models if models else 0.0,
        "learn.decide.us_per_call": mean("learn.decide", 1e-3),
        "learn.support_vectors": float(support),
        "learn.decide_many.us_per_row": per_unit("learn.decide_many", 1e-3),
        "learn.load_model.ms": mean("learn.load_model", 1e-6, setup_first),
        "pipeline.push_frame.self_us": mean("pipeline.push_frame", 1e-3, use_self=True),
        "pipeline.votes": count("learn.decide", scorer),
        "pipeline.triggers": value_sum("pipeline.push_frame", "pipeline.finish_segment"),
        "evaluate.speaker_frames.s": mean("evaluate.speaker_frames", 1e-9),
        "evaluate.roc_auc.ms": mean("evaluate.roc_auc", 1e-6),
        "corpus.load_segments.ms": mean("corpus.load_segments", 1e-6, setup_first),
        "corpus.frame_stream.us_per_frame": per_unit("corpus.frame_stream", 1e-3, setup_first),
        "corpus.vad_segments.ms": mean("corpus.vad_segments", 1e-6, setup_first),
        "synth.generate_corpus.s": mean("synth.generate_corpus", 1e-9, setup_first),
        "cli.main.s": mean("cli.main", 1e-9),
        "trace.overhead_frac": extra["trace_overhead_frac"],
    }


def late_over_early(spans, selfs, pushes: list[int]) -> float:
    """Mean self time over the last tenth of each segment's frames, over the first tenth.

    A segment starts at each push of frame index 0; segments shorter than
    20 frames are left out.
    """
    segments: list[list[int]] = []
    for i in pushes:
        if spans[i][VALUE] == 0 or not segments:
            segments.append([])
        segments[-1].append(i)
    early, late = [], []
    for segment in segments:
        k = len(segment) // 10
        if k >= 2:
            early += [selfs[i] for i in segment[:k]]
            late += [selfs[i] for i in segment[-k:]]
    return statistics.mean(late) / statistics.mean(early) if early else 0.0


def environment(seed: int, workload) -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(),
        "seed": seed,
        "workload": workload.name,
        "items": len(workload.items),
        "frames": sum(item["frames"] for item in workload.items),
        "audio_s": round(sum(item["audio_s"] for item in workload.items), 3),
    }


def item_info(item: dict) -> dict:
    return {"audio_s": item["audio_s"], "frames": item["frames"]}


def untraced_run(workload, args, size, workdir: Path, run_quality) -> dict:
    probe = HostProbe(memory=workload.memory_bound)
    probe.start()
    try:
        setups = []
        for rep in range(size.setup_repeats):
            shutil.rmtree(workdir / f"setup{rep - 1}", ignore_errors=True)
            with Stopwatch(probe) as watch:
                workload.setup(workdir / f"setup{rep}")
            setups.append(watch)
        gc.collect()
        workload.warm_up()
        frames = FrameLog()
        ops = run_loop(workload, args.seconds, probe, frames)
    finally:
        probe.stop()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = workload.check(ops)
    return {
        "mode": "untraced",
        "probe": {"samples": len(probe.durations),
                  "median_ms": statistics.median(probe.durations) * 1e3},
        "ops": ops,
        "problems": problems,
        "quality_hard": run_quality(problems),
        "end_to_end": end_to_end(workload, ops, frames, probe, setups, peak_rss_mib),
        "per_item": [{**item_info(item), "normalized_s": [op.normalized_s for op in ops if op.item == i],
                      "wall_s": [op.wall_s for op in ops if op.item == i]}
                     for i, item in enumerate(workload.items)],
    }


def traced_run(workload, args, size, workdir: Path, run_quality) -> dict:
    import workloads

    idle = HostProbe()  # never started: times are plain wall times
    tracer = Tracer()
    tracer.install()
    try:
        workload.setup(workdir / "setup0")
    finally:
        tracer.uninstall()
    gc.collect()
    workload.warm_up()
    untraced_ops, traced_ops = [], []
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < args.seconds:
        for item in range(len(workload.items)):  # each item untraced, then traced
            untraced_ops.append(run_one(workload, item, idle, FrameLog()))
            tracer.run_id = f"pass{passes}.op{item}"
            tracer.install()
            try:
                traced_ops.append(run_one(workload, item, idle, FrameLog()))
            finally:
                tracer.uninstall()
        passes += 1
    segment, config = workload.longest_segment()
    traced = real_time_factor(workload, traced_ops, False)
    untraced = real_time_factor(workload, untraced_ops, False)
    extra = {
        "featset_peak_kib": workloads.featset_peak_kib(segment, config),
        "trace_overhead_frac": traced / untraced - 1.0 if traced and untraced else 0.0,
        "support_vectors": workload.support_vectors(),
    }
    ops = untraced_ops + traced_ops
    problems = workload.check(ops)
    tracer.run_id = "quality"
    tracer.install()
    try:
        quality = run_quality(problems)
    finally:
        tracer.uninstall()
    shares, sources, per_layer = layer_metrics(tracer.spans, passes, extra)
    tracer.write_csv(args.out / f"spans-{workload.name}.csv")
    return {
        "mode": "traced",
        "passes": passes,
        "spans": len(tracer.spans),
        "trace_overhead_pairs": len(traced_ops),
        "ops": ops,
        "problems": problems,
        "quality_hard": quality,
        "per_layer": per_layer,
        "per_layer_sources": sources,
        "shares": shares,
    }


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"workload {env['workload']}  seed {env['seed']}  mode {report['mode']}")
    print("environment: " + "  ".join(f"{k} {v}" for k, v in env.items()
                                      if k not in ("workload", "seed")))
    if "end_to_end" in report:
        print("  (times at the probe's nominal host speed; 'raw' = wall clock)")
        for name, entry in report["end_to_end"].items():
            if entry["value"] is None:
                print(f"  {name:<22} n/a {entry['unit']:<6} ({entry['note']})")
                continue
            line = f"  {name:<22} {entry['value']:<12.6g} {entry['unit']:<6} n={entry['n']}"
            if entry.get("tail_pct") is not None:
                line += f"  p{entry['tail_pct']:g} {entry['tail']:.6g}"
            if entry.get("raw") is not None:
                line += f"  raw {entry['raw']:.6g}"
            if entry.get("note"):
                line += f"  ({entry['note']})"
            print(line)
    for name, value in report.get("per_layer", {}).items():
        print(f"  {name:<40} {value:<12.6g} {PER_LAYER[name]}")
    if "trace_overhead_pairs" in report:
        print(f"  (trace.overhead_frac from {report['trace_overhead_pairs']} untraced/traced "
              f"pairs of operations)")
    for name, value in report.get("shares", {}).items():
        print(f"  share {name:<34} {value:<12.4g} ratio")
    quality = dict(report["quality_hard"])
    if "listen_triggers_hard" in quality:
        print(f"  quality, noisy corpus, listen       triggers "
              f"{quality.pop('listen_triggers_hard')} count")
    for kind, values in quality.items():
        print(f"  quality, noisy corpus, {kind:<16} auc_hard {values['auc_hard']:.6g} ratio  "
              f"seg_acc_hard {values['seg_acc_hard']:.6g} ratio")
    print(f"attempted {report['attempted']}  failed {report['failed']}  "
          f"checks {'ok' if not report['problems'] else report['problems']}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' exists for the benchmark's own tests")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for reports, spans and generated inputs")
    return parser.parse_args(argv)


def import_program() -> bool:
    """Put this checkout's src/ first on the path; False when it is missing."""
    if not (SRC / "nlconfirm" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import nlconfirm

    return Path(nlconfirm.__file__).resolve().is_relative_to(SRC)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_program():
        print(f"perfbench: nlconfirm sources not found under {SRC}", file=sys.stderr)
        return 2
    import workloads

    size = workloads.SIZES[args.size]
    workload = workloads.WORKLOADS[args.workload](args.seed, size)
    args.out.mkdir(parents=True, exist_ok=True)
    workdir = args.out / f"work-{args.workload}-{os.getpid()}"
    def run_quality(problems: list[str]) -> dict:
        try:
            return workloads.hard_quality(args.seed, size, workdir)
        except Exception as exc:  # reported as a failed check, not a crash
            problems.append(f"quality-only condition failed: {exc!r}")
            return {}

    try:
        run = traced_run if args.trace else untraced_run
        report = run(workload, args, size, workdir, run_quality)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = report.pop("ops")
    report["environment"] = environment(args.seed, workload)
    report["attempted"] = len(ops)
    report["failed"] = sum(1 for op in ops if op.error)
    report["errors"] = sorted({op.error for op in ops if op.error})
    report["correct"] = not report["problems"] and report["failed"] == 0
    path = args.out / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2))
    print_report(report)
    print(f"report: {path}")
    if args.trace:
        metrics = {name: {"value": report["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": report["end_to_end"][name]["value"], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
