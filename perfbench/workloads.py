"""The benchmark's workloads: a seeded synthetic fleet plus the CLI arguments
of the five pipeline stages.

Every fleet comes from ``tests/synthetic_fleet.py``; C-MAPSS itself cannot be
fetched where this benchmark runs. The program under test receives only the
files written here: the raw train/test/RUL text and, where the model geometry
is not a preset, one JSON config file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

WINDOW = 20
CAP = 125.0

# Criterion 5's acceptance-fleet model (tests/test_acceptance.py, FLEET_MODEL),
# with its feature spec and prior settings, as a CLI config file.
FLEET_CONFIG = {
    "window_length": WINDOW, "latent_len": 8, "latent_dim": 8, "codebook_size": 16,
    "model_dim": 24, "enc_layers": 1, "enc_heads": 3, "dec_layers": 1, "dec_heads": 3,
    "epochs": 20, "batch_size": 64, "learning_rate": 1e-3,
    "sensor_indices": [1, 2, 3], "include_settings": 0,
    "ema_lambda": 0.9, "epsilon": 1e-6, "k": 30,
}

# FD001's lifetimes (128-362 cycles). The fleets have fewer units than FD001's
# 100 so that a run covers its fleets in 20-50 s; see README.md.
FD001_LIVES = (128, 362)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fleet: dict                       # keyword arguments of generate_fleet
    config: dict | None = None        # written to config.json and passed to every stage
    preset: str | None = None         # --dataset for every stage after preprocess
    epochs: int | None = None         # --epochs for train
    trajectories: bool = False        # predict --intermediate-predictions
    fleets: int = 3                   # fleets (seeds) per untraced run
    beat_baseline: bool = False       # criterion 5 over the run's fleets


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fleet-small",
            why="acceptance fleet, 20 epochs of FLEET_MODEL: training bound by per-graph-node overhead",
            fleet={},
            config=FLEET_CONFIG,
            trajectories=True,
            fleets=5,
            beat_baseline=True,
        ),
        Workload(
            name="fd001-shape",
            why="FD001 lifetimes and preset geometry, 1 epoch: GEMM-bound steps, 20 MiB of window JSON per fleet, priors fold on write",
            fleet={"n_train": 25, "n_test": 25, "life_range": FD001_LIVES},
            preset="FD001",
            epochs=1,
        ),
        Workload(
            name="fd001-trajectories",
            why="FD001 lifetimes, 1 epoch of FLEET_MODEL, every test window queried: the kNN read side, training bypassed",
            fleet={"n_train": 25, "n_test": 10, "life_range": FD001_LIVES},
            config=dict(FLEET_CONFIG, epochs=1),
            trajectories=True,
        ),
    )
}


def fleet_files(generate_fleet, workload: Workload, seed: int, directory: Path) -> dict:
    """Write the workload's raw input files for ``seed``; returns their paths."""
    train_text, test_text, rul_text = generate_fleet(seed, **workload.fleet)
    paths = {
        "train": directory / "train_SYN.txt",
        "test": directory / "test_SYN.txt",
        "rul": directory / "RUL_SYN.txt",
    }
    paths["train"].write_text(train_text)
    paths["test"].write_text(test_text)
    paths["rul"].write_text(rul_text)
    if workload.config is not None:
        paths["config"] = directory / "config.json"
        paths["config"].write_text(json.dumps(workload.config, sort_keys=True))
    return paths


def stage_argv(workload: Workload, seed: int, paths: dict, out: Path) -> list:
    """(stage, argv) for the five stages, in pipeline order.

    ``preprocess`` takes explicit files and ``--window`` and never ``--dataset``:
    ``preprocess --dataset FD001`` does not apply the preset's window length and
    exits 2, and ``--dataset`` would override ``--train-file``.
    """
    common = ["--out", str(out)]
    if workload.config is not None:
        common += ["--config", str(paths["config"])]
    preset = ["--dataset", workload.preset] if workload.preset else []
    epochs = ["--epochs", str(workload.epochs)] if workload.epochs is not None else []
    trajectories = ["--intermediate-predictions"] if workload.trajectories else []
    return [
        ("preprocess", ["preprocess", "--train-file", str(paths["train"]),
                        "--test-file", str(paths["test"]), "--rul-file", str(paths["rul"]),
                        "--window", str(WINDOW), "--seed", str(seed)] + common),
        ("train", ["train", "--seed", str(seed)] + preset + epochs + common),
        ("build-library", ["build-library"] + preset + common),
        ("predict", ["predict"] + preset + trajectories + common),
        ("evaluate", ["evaluate"] + common),
    ]


def expected_counts(train_text: str, test_text: str, rul_text: str) -> dict:
    """Window counts, true RULs and the constant-mean baseline, derived from
    the raw text alone, so the program's outputs can be checked against them."""
    def lives(text):
        per_unit: dict = {}
        for line in text.splitlines():
            if line.strip():
                unit = int(line.split(None, 1)[0])
                per_unit[unit] = per_unit.get(unit, 0) + 1
        return [per_unit[u] for u in sorted(per_unit)]

    train_lives = lives(train_text)
    test_lengths = lives(test_text)
    truths = [float(v) for v in rul_text.split()]
    targets = [
        min(CAP, life - end) for life in train_lives for end in range(WINDOW, life + 1)
    ]
    return {
        "train_windows": len(targets),
        "test_windows": sum(max(n - WINDOW + 1, 1) for n in test_lengths),
        "train_units": len(train_lives),
        "test_units": len(test_lengths),
        "truths": truths,
        "baseline": sum(targets) / len(targets),
    }
