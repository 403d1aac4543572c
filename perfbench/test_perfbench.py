"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import report  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from synthetic_fleet import generate_fleet  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_are_byte_deterministic_per_seed(tmp_path, name):
    workload = workloads.WORKLOADS[name]

    def files(directory, seed):
        directory.mkdir()
        paths = workloads.fleet_files(generate_fleet, workload, seed, directory)
        return {key: path.read_bytes() for key, path in paths.items()}

    first, again = files(tmp_path / "a", 3), files(tmp_path / "b", 3)
    assert first == again
    assert files(tmp_path / "c", 4)["train"] != first["train"]


def test_expected_counts_match_the_generated_fleet():
    train, test, rul = generate_fleet(0)
    expected = workloads.expected_counts(train, test, rul)
    # Acceptance fleet at seed 0: 40 training units giving 4,200 windows.
    assert expected["train_units"] == 40 and expected["train_windows"] == 4200
    assert expected["test_units"] == len(expected["truths"]) == 10


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.x", 1.5, 2.0, 1],
        ["a.y", 2.5, 3.5, 1],
        ["b", 6.0, 9.0, 0],
        ["b.x", 5.0, 7.0, 4],      # starts before its parent: only 6..7 counts
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.5, 0.5, 1.0, 2.0, 2.0])


def test_summary_reports_the_highest_percentile_with_ten_samples_beyond():
    assert report.summary(list(range(99)))["pct"] is None
    s = report.summary([float(i) for i in range(1000)])
    assert s["value"] == 499.5 and s["n"] == 1000
    assert s["pct"] == (99.0, 989.0)
    assert report.summary(list(range(100)))["pct"] == (90.0, 89)


def test_tracer_restores_every_patched_name():
    from latentrul import autodiff, model, nn, vq

    before = {m: dict(vars(m)) for m in (autodiff, model, nn, vq)}
    classes = {c: dict(vars(c)) for c in (autodiff.Tensor, autodiff.Adam, model.TrainedModel)}
    tracer = tracing.Tracer("t")
    tracer.install()
    assert nn.matmul is not before[nn]["matmul"]
    tracer.uninstall()
    for m, names in before.items():
        assert all(vars(m)[k] is v for k, v in names.items())
    for c, names in classes.items():
        assert all(vars(c)[k] is v for k, v in names.items())


def test_traced_ops_give_identical_values_and_gradients():
    import numpy as np
    from latentrul import autodiff

    def run():
        rng = np.random.default_rng(0)
        w = autodiff.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        x = autodiff.Tensor(rng.normal(size=(2, 4)))
        loss = autodiff.tmean(autodiff.square(autodiff.softmax(x @ w) - 0.5))
        loss.backward()
        return loss.data.copy(), w.grad.copy()

    plain = run()
    tracer = tracing.Tracer("t")
    tracer.install()
    try:
        traced = run()
    finally:
        tracer.uninstall()
    assert plain[0].tobytes() == traced[0].tobytes()
    assert plain[1].tobytes() == traced[1].tobytes()
    names = set(tracer.names)
    assert {"autodiff.matmul.fwd", "autodiff.matmul.bwd", "autodiff.Tensor.backward"} <= names


def test_metric_names_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["perfbench"]
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        tuple(m) for m in report.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, "lower") for name, unit in report.PER_LAYER]


def test_reports_compute_every_listed_metric():
    def result(seed, train_s):
        return {
            "seed": seed, "setup_s": train_s / 10,
            "stage_s": dict(dict.fromkeys(report.STAGES, 1.0), train=train_s),
            "failures": {}, "train_windows": 10, "epochs": 2, "peak_rss_kib": 2048,
            "artifact_bytes": report.MIB, "rmse": 5.0, "phm08_score": 3.0,
        }

    e2e = report.end_to_end([result(1, 1.0), result(2, 4.0), result(3, 4.0)])
    assert set(e2e) == {m[0] for m in report.END_TO_END + report.UNGATED}
    assert e2e["train_s"]["value"] == 3.0 and e2e["train_s"]["n"] == 3
    assert e2e["train_windows_per_s"]["value"] == pytest.approx((20 + 5 + 5) / 3)
    assert e2e["setup_s"]["value"] == 0.4
    assert e2e["failed_stage_ratio"]["value"] == 0.0

    layers = report.per_layer([["cli.train", 0.0, 1.0, -1]], {})
    # run.py adds the overhead from the untraced and traced pipeline times.
    assert set(layers) | {"trace.overhead_s"} == {m[0] for m in report.PER_LAYER}


def test_run_checks_compare_repeats_and_apply_criterion_5_to_five_fleets():
    import run

    def result(seed, rmse, digest="a"):
        return {"seed": seed, "traced": False, "failures": {}, "hashes": {"model.json": digest},
                "rmse": rmse, "baseline_rmse": 20.0}

    small, shape = workloads.WORKLOADS["fleet-small"], workloads.WORKLOADS["fd001-shape"]
    fleets = [result(seed, 5.0) for seed in range(1, 5)]
    # Four of five fleets at or below 0.8 x baseline meet criterion 5.
    assert run.check_runs(small, fleets + [result(5, 76.7)]) == []
    assert run.check_runs(small, fleets + [result(5, 16.0)]) == []
    problems = run.check_runs(small, fleets[:3] + [result(4, 16.5), result(5, 76.7)])
    assert problems == ["criterion 5: 3 of 5 fleets at rmse <= 0.8 x baseline, fewer than 4; "
                        "misses: fleet 4 (rmse 16.5000, baseline 20.0000), "
                        "fleet 5 (rmse 76.7000, baseline 20.0000)"]
    problems = run.check_runs(shape, [result(1, 25.0), result(2, 30.0), result(1, 25.0, "b")])
    assert problems == ["pipeline 3 artifacts differ from pipeline 1 of the same seed: "
                        "['model.json']"]
    assert run.check_runs(shape, [result(1, 25.0), result(2, 30.0)]) == []


def test_tracer_counts_power_iterations_and_solve_fallbacks():
    import numpy as np
    from latentrul import priors

    fast = np.array([[0.5, 0.5], [0.5, 0.5]])
    slow = np.array([[1 - 1e-6, 1e-6], [2e-6, 1 - 2e-6]])   # spectral gap 3e-6
    tracer = tracing.Tracer("t")
    tracer.install()
    try:
        results = [priors.steady_state(fast), priors.steady_state(slow)]
    finally:
        tracer.uninstall()
    layers = report.per_layer(list(zip(tracer.names, tracer.starts, tracer.ends, tracer.parents)),
                              tracer.counts)
    assert layers["priors.steady_states"]["value"] == 2
    assert layers["priors.power_iterations"]["value"] == sum(r.iterations for r in results)
    assert layers["priors.solve_fallback_ratio"]["value"] == 0.5
