"""latentrul's benchmark: the five-stage pipeline on seeded synthetic fleets.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run is a closed loop with one client: pipelines run back to back, each in a
fresh process (perfbench/worker.py). An untraced run measures each of the
workload's fleets once (five on ``fleet-small``, three on the others); their
seeds derive from ``--seed``, the first is ``--seed`` itself. Those pipelines
are the whole run whatever ``--seconds`` says. Each end-to-end metric is the
mean over fleets; ``setup_s`` is the median of the pipelines' set-ups. With
``--trace 1`` the run makes one untraced and one traced pipeline of the first
fleet, compares their artifacts byte for byte (the bit-reproducibility
contract, and proof that tracing is transparent) and reports the per-layer
metrics of the traced one.

The last line of standard output is one JSON object: correct, attempted and
failed (pipeline stages) and metrics. Working files go to ``.perfbench_work/``
in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import report  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FLEET_SEED_STRIDE = 100_000  # fleet j of seed n has seed n + j * stride
WORKER_TIMEOUT_S = 32      # five pipelines end within the 180 s a run may take
BLAS_THREADS = "1"         # one BLAS thread: same train time as two, half the CPU
# Criterion 5 (tests/test_acceptance.py): of five fleets, at least four have
# rmse at most 0.8 x the constant-mean baseline's rmse.
CRITERION_5_FLEETS, CRITERION_5_WINS, BASELINE_RATIO = 5, 4, 0.8


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("PYTHONPATH", None)
    return env


def run_worker(workload: str, seed: int, directory: Path, trace=False) -> dict:
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--dir", str(directory)]
    argv += ["--trace"] * trace
    with open(directory / "worker.log", "w") as log:
        proc = subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT, env=worker_env(),
                              timeout=WORKER_TIMEOUT_S, check=False)
    result_path = directory / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        tail = (directory / "worker.log").read_text()[-2000:]
        raise RuntimeError(f"worker exited {proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text())
    shutil.rmtree(directory / "out", ignore_errors=True)
    shutil.rmtree(directory / "inputs", ignore_errors=True)
    return result


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(seed: int, worker_meta: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        **worker_meta,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def check_runs(workload, results: list) -> list:
    """Problems across the pipelines of one run; none means correct."""
    problems = []
    for i, r in enumerate(results):
        for stage, why in r["failures"].items():
            problems.append(f"pipeline {i + 1} ({'traced' if r['traced'] else 'untraced'}): "
                            f"{stage}: {why}")
    first = {}
    for i, r in enumerate(results, start=1):
        reference = first.setdefault(r["seed"], (i, r["hashes"]))
        if r["hashes"] != reference[1]:
            differ = sorted(n for n in set(reference[1]) | set(r["hashes"])
                            if reference[1].get(n) != r["hashes"].get(n))
            problems.append(f"pipeline {i} artifacts differ from pipeline {reference[0]} "
                            f"of the same seed: {differ}")
    for r in results:
        if r["rmse"] is not None and not math.isfinite(r["rmse"]):
            problems.append(f"rmse is {r['rmse']}")
    fleets = {r["seed"]: r for r in results if r["rmse"] is not None}
    if workload.beat_baseline and len(fleets) >= CRITERION_5_FLEETS:
        misses = [f"fleet {seed} (rmse {r['rmse']:.4f}, baseline {r['baseline_rmse']:.4f})"
                  for seed, r in fleets.items()
                  if not r["rmse"] <= BASELINE_RATIO * r["baseline_rmse"]]
        if len(fleets) - len(misses) < CRITERION_5_WINS:
            problems.append(f"criterion 5: {len(fleets) - len(misses)} of {len(fleets)} fleets "
                            f"at rmse <= {BASELINE_RATIO} x baseline, fewer than "
                            f"{CRITERION_5_WINS}; misses: {', '.join(misses)}")
    return problems


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_table(title: str, metrics: dict, units: dict):
    print(f"{title}:")
    print(f"  {'metric':34} {'value':>14} {'unit':16} {'n':>7}  tail")
    for name, m in metrics.items():
        tail = f"p{m['pct'][0]:g}={fmt(m['pct'][1])}" if m["pct"] else ""
        print(f"  {name:34} {fmt(m['value']):>14} {units[name]:16} {m['n']:>7}  {tail}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through subprocess.run, which then kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in ("src/latentrul/cli.py", "tests/synthetic_fleet.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a latentrul checkout, missing {missing}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    seeds = [args.seed + j * FLEET_SEED_STRIDE for j in range(workload.fleets)]
    results = []
    try:
        if args.trace:
            results.append(run_worker(args.workload, args.seed, run_dir / "untraced"))
            results.append(run_worker(args.workload, args.seed, run_dir / "traced", trace=True))
        else:
            for seed in seeds:
                results.append(run_worker(args.workload, seed,
                                          run_dir / f"pipeline{len(results) + 1}"))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    problems = check_runs(workload, results)
    attempted = len(report.STAGES) * len(results)
    failed = sum(len(r["failures"]) for r in results)
    meta = metadata(args.seed, results[0]["meta"])
    print(f"workload {args.workload}: {workload.why}")
    print("meta " + json.dumps(meta, sort_keys=True))

    if args.trace:
        _, spans, counts = tracing.load(run_dir / "traced" / "trace.json")
        metrics = report.per_layer(spans, counts)
        overhead = report.pipeline_s(results[1]) - report.pipeline_s(results[0])
        metrics["trace.overhead_s"] = report.count(overhead)
        units = dict(report.PER_LAYER)
        print_table("per-layer metrics (one traced pipeline)", metrics, units)
        print(f"tracing overhead: pipeline_s {report.pipeline_s(results[1]):.3f} s traced vs "
              f"{report.pipeline_s(results[0]):.3f} s untraced ({overhead:+.3f} s)")
        listed = [name for name, _ in report.PER_LAYER]
    else:
        metrics = report.end_to_end(results)
        units = {name: unit for name, unit, *_ in report.END_TO_END + report.UNGATED}
        print_table(f"end-to-end metrics ({len(results)} pipelines on {len(seeds)} fleets, "
                    f"seeds {seeds})", metrics, units)
        listed = [name for name, *_ in report.END_TO_END]

    for r in {r["seed"]: r for r in results}.values():
        if r["rmse"] is not None:
            print(f"fleet {r['seed']}: rmse {r['rmse']:.4f}, constant-mean baseline "
                  f"{r['baseline_rmse']:.4f}, ratio {r['rmse'] / r['baseline_rmse']:.3f}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print("correctness: " + ("all checks passed" if not problems else f"{len(problems)} failed"))
    (run_dir / "summary.json").write_text(json.dumps(
        {"meta": meta, "metrics": metrics, "problems": problems,
         "pipelines": results}, indent=1))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": units[name]}
                    for name in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
