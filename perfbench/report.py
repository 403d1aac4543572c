"""Metric definitions and their computation from worker results and spans.

``END_TO_END`` and ``PER_LAYER`` are the metrics listed in BENCHMARK.json
(every per-layer metric is better lower); ``test_perfbench.py`` keeps the two
in step.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracing import AUTODIFF_OPS, self_times

MIB = 1024 * 1024

# (name, unit, better, bound). A bound is the share of the parent commit's
# median by which a metric may worsen, and must also cover the metric's spread
# across seeds. Fleet size differs between seeds, so the bounds are wide;
# README.md lists the spreads measured over ten seeds.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("train_s", "s", "lower", 0.25),
    ("train_windows_per_s", "windows/s", "higher", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.2),
    ("artifact_mib", "MiB", "lower", 0.2),
)

# Printed by every untraced run but not gated: their spread across seeds is
# wider than the largest bound allowed (0.25), or, for failed_stage_ratio,
# they are 0 on a healthy run; see README.md.
UNGATED = (
    ("pipeline_s", "s"),
    ("library_predict_s", "s"),
    ("rmse", "cycles"),
    ("phm08_score", "1"),
    ("failed_stage_ratio", "failed/attempted"),
)

STAGES = ("preprocess", "train", "build-library", "predict", "evaluate")

# autodiff primitives with a forward and a backward total each; the pipeline
# never calls neg.
OPS = tuple(op for op in AUTODIFF_OPS if op != "neg")

PER_LAYER = (
    [(f"cli.{s.replace('-', '_')}_s", "s") for s in STAGES]
    + [
        ("ingest.parse_s", "s"), ("ingest.records", "count"),
        ("ingest.build_dataset_s", "s"), ("ingest.windows", "count"),
        ("ingest.save_s", "s"), ("ingest.load_s", "s"), ("ingest.load_calls", "count"),
        ("ingest.bytes_written", "bytes"),
        ("model.train_steps", "count"), ("model.step_ms", "ms"),
        ("model.forward_ms", "ms"), ("model.backward_ms", "ms"),
        ("model.encode_windows", "count"), ("model.encode_s", "s"),
        ("model.save_s", "s"), ("model.load_s", "s"),
        ("autodiff.adam_step_ms", "ms"), ("autodiff.nodes_per_step", "count"),
        ("autodiff.matmul_calls_per_step", "count"),
    ]
    + [(f"autodiff.{op}.{d}_s", "s") for op in OPS for d in ("fwd", "bwd")]
    + [
        ("nn.multi_head_attention_s", "s"), ("nn.layer_norm_s", "s"),
        ("nn.feed_forward_s", "s"),
        ("vq.nearest_indices_s", "s"), ("vq.nearest_indices_calls", "count"),
        ("priors.steady_states", "count"), ("priors.steady_state_us", "us"),
        ("priors.estimate_transition_us", "us"), ("priors.power_iterations", "count"),
        ("priors.solve_fallback_ratio", "ratio"), ("priors.fold_s", "s"),
        ("priors.fold_us_per_state", "us"),
        ("similarity.queries", "count"), ("similarity.query_ms", "ms"),
        ("similarity.library_entries", "count"), ("similarity.library_add_s", "s"),
        ("similarity.library_save_s", "s"), ("similarity.library_load_s", "s"),
        ("metrics.report_s", "s"),
        ("trace.overhead_s", "s"), ("trace.spans", "count"),
    ]
)


def summary(values) -> dict:
    """Median, the highest of p90/p99/p99.9 that has at least ten samples
    beyond it (None below 100 samples), and the sample count."""
    values = sorted(values)
    n = len(values)
    out = {"value": statistics.median(values) if values else 0.0, "n": n, "pct": None}
    for pct in (99.9, 99.0, 90.0):
        rank = math.ceil(round(n * pct / 100, 9))    # nearest-rank percentile
        if n - rank >= 10:
            out["pct"] = (pct, values[rank - 1])
            break
    return out


def total(values) -> dict:
    return {"value": float(sum(values)), "n": len(values), "pct": None}


def count(value) -> dict:
    return {"value": value, "n": 1, "pct": None}


def pipeline_s(result) -> float:
    return sum(result["stage_s"].values())


def end_to_end(results: list) -> dict:
    """End-to-end metrics of untraced pipelines, one per fleet: for each
    metric the mean over fleets, and n, the number of pipelines; ``setup_s``
    is the median over pipelines."""
    def fleets(fn):
        return {"value": statistics.fmean(fn(r) for r in results), "n": len(results),
                "pct": None}

    def accuracy(key):
        return fleets(lambda r: r[key] if r[key] is not None else float("nan"))

    attempted = len(STAGES) * len(results)
    failed = sum(len(r["failures"]) for r in results)
    return {
        "setup_s": summary([r["setup_s"] for r in results]),
        "train_s": fleets(lambda r: r["stage_s"]["train"]),
        "train_windows_per_s": fleets(
            lambda r: r["train_windows"] * r["epochs"] / r["stage_s"]["train"]),
        "peak_rss_mib": fleets(lambda r: r["peak_rss_kib"] / 1024),
        "artifact_mib": fleets(lambda r: r["artifact_bytes"] / MIB),
        "pipeline_s": fleets(pipeline_s),
        "library_predict_s": fleets(
            lambda r: r["stage_s"]["build-library"] + r["stage_s"]["predict"]),
        "rmse": accuracy("rmse"),
        "phm08_score": accuracy("phm08_score"),
        "failed_stage_ratio": {"value": failed / attempted, "n": attempted, "pct": None},
    }


def per_layer(spans: list, counts: dict) -> dict:
    """Per-layer metrics of one traced pipeline run."""
    durations = defaultdict(list)
    selfs = defaultdict(list)
    starts = defaultdict(list)
    ends = defaultdict(list)
    in_forward = [False] * len(spans)
    op_calls_in_forward = defaultdict(int)
    for i, ((name, start, end, parent), own) in enumerate(zip(spans, self_times(spans))):
        durations[name].append(end - start)
        selfs[name].append(own)
        starts[name].append(start)
        ends[name].append(end)
        in_forward[i] = name == "model.forward_loss" or (parent >= 0 and in_forward[parent])
        if in_forward[i] and name.startswith("autodiff.") and name.endswith(".fwd"):
            op_calls_in_forward[name] += 1

    def ms(name):
        return summary([d * 1e3 for d in durations[name]])

    def us(name):
        return summary([d * 1e6 for d in durations[name]])

    steps = len(durations["model.forward_loss"])
    step_ms = [(end - start) * 1e3 for start, end in zip(
        starts["model.forward_loss"], ends["autodiff.Adam.step"])]
    steady_states = len(durations["priors.steady_state"])
    out = {f"cli.{s.replace('-', '_')}_s": total(durations[f"cli.{s}"]) for s in STAGES}
    out.update({
        "ingest.parse_s": total(durations["ingest.parse_cmapss"]),
        "ingest.records": count(counts.get("ingest.records", 0)),
        "ingest.build_dataset_s": total(durations["ingest.build_dataset"]),
        "ingest.windows": count(counts.get("ingest.windows", 0)),
        "ingest.save_s": total(durations["ingest.save_dataset"]),
        "ingest.load_s": total(durations["ingest.load_dataset"]),
        "ingest.load_calls": count(counts.get("ingest.load_calls", 0)),
        "ingest.bytes_written": count(counts.get("ingest.bytes_written", 0)),
        "model.train_steps": count(steps),
        "model.step_ms": summary(step_ms),
        "model.forward_ms": ms("model.forward_loss"),
        "model.backward_ms": ms("autodiff.Tensor.backward"),
        "model.encode_windows": count(counts.get("model.encode_windows", 0)),
        "model.encode_s": total(durations["model.encode_batch"]),
        "model.save_s": total(durations["model.save"]),
        "model.load_s": total(durations["model.load"]),
        "autodiff.adam_step_ms": ms("autodiff.Adam.step"),
        "autodiff.nodes_per_step": count(
            sum(op_calls_in_forward.values()) / steps if steps else 0.0),
        "autodiff.matmul_calls_per_step": count(
            op_calls_in_forward["autodiff.matmul.fwd"] / steps if steps else 0.0),
    })
    for op in OPS:
        for d in ("fwd", "bwd"):
            out[f"autodiff.{op}.{d}_s"] = total(selfs[f"autodiff.{op}.{d}"])
    out.update({
        "nn.multi_head_attention_s": total(selfs["nn.multi_head_attention"]),
        "nn.layer_norm_s": total(selfs["nn.layer_norm"]),
        "nn.feed_forward_s": total(selfs["nn.feed_forward"]),
        "vq.nearest_indices_s": total(durations["vq.nearest_indices"]),
        "vq.nearest_indices_calls": count(len(durations["vq.nearest_indices"])),
        "priors.steady_states": count(steady_states),
        "priors.steady_state_us": us("priors.steady_state"),
        "priors.estimate_transition_us": us("priors.estimate_transition"),
        "priors.power_iterations": count(counts.get("priors.power_iterations", 0)),
        "priors.solve_fallback_ratio": count(
            len(durations["priors.solve_stationary"]) / steady_states if steady_states else 0.0),
        "priors.fold_s": total(durations["priors.fold_priors"]),
        "priors.fold_us_per_state": count(
            sum(durations["priors.fold_priors"]) * 1e6 / steady_states if steady_states else 0.0),
        "similarity.queries": count(len(durations["similarity.nearest"])),
        "similarity.query_ms": ms("similarity.nearest"),
        "similarity.library_entries": count(counts.get("similarity.library_entries", 0)),
        "similarity.library_add_s": total(durations["similarity.PriorLibrary.add"]),
        "similarity.library_save_s": total(durations["similarity.PriorLibrary.save"]),
        "similarity.library_load_s": total(durations["similarity.PriorLibrary.load"]),
        "metrics.report_s": total(durations["metrics.EvaluationReport.build"]),
        "trace.spans": count(len(spans)),
    })
    return out
