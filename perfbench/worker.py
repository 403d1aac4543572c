"""One pipeline run in a fresh process: set up, run the five stages through
``latentrul.cli.main``, check each stage's outputs, and write a result file.

    python3 perfbench/worker.py --workload NAME --seed N --dir DIR [--trace]

Set-up (``setup_s``) covers importing latentrul, generating the fleet's raw
files and making ``--out``. The result JSON goes to ``DIR/result.json``; with
``--trace`` the spans go to ``DIR/trace.json``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# Recomputed here rather than taken from latentrul.metrics, so that the check
# of evaluation.json is independent of the code it checks.
def _phm08(h: float) -> float:
    return math.expm1(-h / 13.0) if h < 0 else math.expm1(h / 10.0)


def _csv_rows(path: Path, header: str) -> list:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


class StageChecks:
    """Output checks per stage, against counts derived from the raw files."""

    def __init__(self, workload, expected: dict, out: Path):
        self.workload = workload
        self.expected = expected
        self.out = out

    def preprocess(self, stdout: str):
        e = self.expected
        if f"train: {e['train_units']} units, {e['train_windows']} windows" not in stdout:
            raise ValueError(f"preprocess reported {stdout!r}, expected {e['train_windows']} train windows")
        if f"test: {e['test_units']} units, {e['test_windows']} windows" not in stdout:
            raise ValueError(f"preprocess reported {stdout!r}, expected {e['test_windows']} test windows")

    def train(self, stdout: str):
        rows = _csv_rows(self.out / "training_log.csv", "epoch,loss,task,codebook,commitment")
        if len(rows) != self.expected["epochs"]:
            raise ValueError(f"training log has {len(rows)} epochs, expected {self.expected['epochs']}")
        if not all(math.isfinite(float(v)) for row in rows for v in row):
            raise ValueError("training log holds a non-finite loss")
        if not (self.out / "model.json").is_file():
            raise ValueError("model.json missing")

    def build_library(self, stdout: str):
        m = re.search(r"library written: (\d+) entries", stdout)
        if not m or int(m.group(1)) != self.expected["train_windows"]:
            raise ValueError(f"library reported {stdout!r}, expected {self.expected['train_windows']} entries")

    def predict(self, stdout: str):
        rows = _csv_rows(self.out / "predictions.csv", "unit_id,predicted_rul")
        preds = [float(p) for _, p in rows]
        if len(preds) != self.expected["test_units"]:
            raise ValueError(f"{len(preds)} predictions, expected {self.expected['test_units']}")
        if not all(0.0 <= p <= self.expected["cap"] for p in preds):
            raise ValueError("a prediction lies outside [0, cap]")
        if self.workload.trajectories:
            rows = _csv_rows(self.out / "trajectories.csv", "unit_id,window_id,predicted_rul")
            if len(rows) != self.expected["test_windows"]:
                raise ValueError(f"{len(rows)} trajectory rows, expected {self.expected['test_windows']}")

    def evaluate(self, stdout: str):
        doc = json.loads((self.out / "evaluation.json").read_text())
        rows = _csv_rows(self.out / "predictions.csv", "unit_id,predicted_rul")
        truths = self.expected["truths"]
        errors = [float(p) - truths[int(u) - 1] for u, p in rows]
        rmse = math.sqrt(sum(h * h for h in errors) / len(errors))
        score = sum(_phm08(h) for h in errors)
        if doc["n_units"] != len(errors):
            raise ValueError(f"evaluation covers {doc['n_units']} units, expected {len(errors)}")
        if not (math.isclose(doc["rmse"], rmse, rel_tol=1e-9)
                and math.isclose(doc["score"], score, rel_tol=1e-9)):
            raise ValueError(f"evaluation rmse/score {doc['rmse']}/{doc['score']} "
                             f"differ from recomputed {rmse}/{score}")


def artifact_hashes(out: Path) -> dict:
    hashes = {}
    for path in sorted(out.iterdir()):
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        hashes[path.name] = (digest.hexdigest(), path.stat().st_size)
    return hashes


def blas_metadata() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    from latentrul import cli
    from synthetic_fleet import generate_fleet

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs, out = args.dir / "inputs", args.dir / "out"
    inputs.mkdir(parents=True)
    paths = workloads.fleet_files(generate_fleet, workload, args.seed, inputs)
    out.mkdir()
    setup_s = time.perf_counter() - _T0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(run_id=f"{args.workload}-seed{args.seed}")
        tracer.install()

    stage_s, codes = {}, {}
    for stage, stage_args in workloads.stage_argv(workload, args.seed, paths, out):
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    codes[stage] = cli.main(stage_args)
                else:
                    codes[stage] = tracer.span(f"cli.{stage}", cli.main, stage_args)
        except Exception:  # an uncaught error is a failed stage, not a crashed benchmark
            traceback.print_exc()
            codes[stage] = "exception"
        stage_s[stage] = time.perf_counter() - start
        (args.dir / f"{stage}.log").write_text(buf.getvalue())
    if tracer is not None:
        tracer.uninstall()

    expected = workloads.expected_counts(
        paths["train"].read_text(), paths["test"].read_text(), paths["rul"].read_text()
    )
    config = workload.config or {}
    expected["epochs"] = workload.epochs or config.get("epochs")
    expected["cap"] = workloads.CAP
    checks = StageChecks(workload, expected, out)
    failures = {}
    for stage, code in codes.items():
        if code != 0:
            failures[stage] = f"exit code {code}"
            continue
        try:
            getattr(checks, stage.replace("-", "_"))((args.dir / f"{stage}.log").read_text())
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failures[stage] = f"output check failed: {exc}"

    evaluation = {}
    if "evaluate" not in failures:
        evaluation = json.loads((out / "evaluation.json").read_text())
    truths = expected["truths"]
    baseline_rmse = math.sqrt(
        sum((expected["baseline"] - t) ** 2 for t in truths) / len(truths))
    hashes = artifact_hashes(out)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "setup_s": setup_s,
        "stage_s": stage_s,
        "failures": failures,
        "train_windows": expected["train_windows"],
        "epochs": expected["epochs"],
        "rmse": evaluation.get("rmse"),
        "phm08_score": evaluation.get("score"),
        "baseline_rmse": baseline_rmse,
        "artifact_bytes": sum(size for _, size in hashes.values()),
        "hashes": {name: digest for name, (digest, _) in hashes.items()},
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "meta": blas_metadata(),
    }
    if tracer is not None:
        tracer.dump(args.dir / "trace.json")
    (args.dir / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
