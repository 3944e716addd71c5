"""Every workload, at tiny size, emits every named metric with its unit and sample count."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# every end-to-end metric the report prints, gated or not
REPORTED = {"setup_s": "s", "wall_s": "s", "rtf": "s/s", "frame_p50_us": "us",
            "frame_p99_us": "us", "peak_rss_mib": "MiB", "auc": "ratio", "cv_acc": "ratio",
            "seg_acc": "ratio", "triggers": "count", "trigger_delay_ms_p50": "ms",
            "failed_frac": "ratio"}
APPLIES = {  # metrics without a meaning on a workload are reported as n/a with a note
    "offline_fit": set(REPORTED) - {"frame_p50_us", "frame_p99_us", "trigger_delay_ms_p50"},
    "stream_formants": set(REPORTED) - {"wall_s", "cv_acc"},
    "stream_long": set(REPORTED) - {"wall_s", "cv_acc", "seg_acc"},
}


def test_benchmark_json_names_match_the_runner():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_reports_every_metric(workload, trace, tmp_path, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace",
                     str(trace), "--size", "tiny", "--out", str(tmp_path)])
    assert code == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    gated = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in last["metrics"].items()} == gated
    assert all(isinstance(m["value"], float) for m in last["metrics"].values())

    report = json.loads((tmp_path / f"report-{workload}-seed3-trace{trace}.json").read_text())
    env = report["environment"]
    assert env["frames"] > 0 and env["audio_s"] > 0 and env["blas_threads"] <= env["nproc"]
    for kind in ("stacked_mfcc", "stacked_formants"):
        assert set(report["quality_hard"][kind]) == {"auc_hard", "seg_acc_hard"}
    assert report["quality_hard"]["listen_triggers_hard"] >= 0
    if trace:
        assert report["per_layer"]["trace.overhead_frac"] > -1.0
        for name, unit in run.PER_LAYER.items():  # every per-call time is measured somewhere
            if unit in ("s", "ms", "us"):
                assert report["per_layer"][name] > 0, name
        return
    assert {name: e["unit"] for name, e in report["end_to_end"].items()} == REPORTED
    for name, entry in report["end_to_end"].items():
        if name in APPLIES[workload]:
            assert entry["value"] is not None and entry["n"] >= 1, name
        else:
            assert entry["value"] is None and entry["note"], name
    for name in END_TO_END_NONZERO:
        assert report["end_to_end"][name]["value"] > 0


END_TO_END_NONZERO = tuple(run.END_TO_END)
