"""Workload definitions: one riskbench CLI command and its run config per workload.

Every input derives from the workload seed, which becomes both the run's
`seed` and `data.synthetic.seed`. Search-grid dimensions that change how much
work a fit does (batch size, depth, width, DeepHit's ranking term) are pinned
to one value, and early stopping is switched off where training should
dominate, so that two seeds do the same amount of work and only the data and
the learning-rate draws differ. `toy=True` shrinks every size so that the
self-test can run all four workloads in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# The README cohort: two Weibull risks, each driven by one covariate.
README_SPEC = {"d": 6, "shapes": [1.6, 1.6], "scales": [6.0, 6.0],
               "betas": [[1.3, 0, 0, 0, 0, 0], [0, 1.3, 0, 0, 0, 0]],
               "horizon": 15.0}

# Fixed architecture for every search trial; only the learning rate is
# drawn from the grid.
PINNED_GRID = {"batch_range": [256, 256], "layers_range": [2, 2],
               "nodes_choices": [64], "dropout_choices": [0.0]}

# Seed offset of the held-out cohort that scores the train-dsm checkpoint.
HOLDOUT_SEED_OFFSET = 1_000_003


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # riskbench subcommand
    why: str
    build: Callable[[int, str, bool], dict]  # (seed, out_dir, toy) -> config

    def argv(self, config_path: str) -> list[str]:
        argv = [self.command, "--config", config_path]
        if self.command == "cv":
            argv += ["--workers", "1"]
        return argv


def _synthetic(spec: dict, n: int, seed: int) -> dict:
    return {"synthetic": {"n": n, **spec, "seed": seed}}


def _cv_fit(seed: int, out: str, toy: bool) -> dict:
    n, trials, epochs = (120, 1, 2) if toy else (800, 2, 15)
    return {
        "seed": seed,
        "data": _synthetic(README_SPEC, n, seed),
        "model": {"kind": "deephit", "extras": {}},
        "grid": {**PINNED_GRID, "nodes_choices": [128], "deephit_alpha_choices": [0.1]},
        "cv": {"k": 3, "preset": "desk", "n_iter": trials, "max_epochs": epochs,
               "patience": epochs, "modality": "synthetic"},
        "output": {"dir": out},
    }


def _train_dsm(seed: int, out: str, toy: bool) -> dict:
    n, warmup, epochs = (120, 20, 1) if toy else (1000, 1000, 5)
    return {
        "seed": seed,
        "data": _synthetic(README_SPEC, n, seed),
        "model": {"kind": "dsm", "extras": {"warmup_iters": warmup,
                                            "max_epochs": epochs,
                                            "patience": epochs}},
        "output": {"dir": out},
    }


def score_spec(d: int = 24) -> dict:
    """Wide cohort for cv-score: only x1 and x2 carry effects."""
    betas = [[1.3 if j == r else 0.0 for j in range(d)] for r in range(2)]
    return {"d": d, "shapes": [1.6, 1.6], "scales": [6.0, 6.0], "betas": betas,
            "horizon": 15.0}


def _cv_score(seed: int, out: str, toy: bool) -> dict:
    n = 150 if toy else 2000
    return {
        "seed": seed,
        "data": _synthetic(score_spec(), n, seed),
        "model": {"kind": "nfg", "extras": {}},
        "features": {"standardize": True, "pca_components": 8},
        "grid": PINNED_GRID,
        "cv": {"k": 3, "preset": "desk", "n_iter": 1, "max_epochs": 3,
               "patience": 1, "modality": "synthetic"},
        "output": {"dir": out},
    }


def _mae_train(seed: int, out: str, toy: bool) -> dict:
    phantoms, dims, epochs = (3, [30, 20, 20, 2], 1) if toy else (40, [60, 40, 40, 2], 5)
    return {
        "seed": seed,
        "mae": {"n_phantoms": phantoms, "dims": dims, "embed_dim": 64,
                "enc_layers": 2, "dec_layers": 1, "epochs": epochs},
        "output": {"dir": out},
    }


WORKLOADS = {w.name: w for w in [
    Workload("cv-fit", "cv",
             "DeepHit nested CV on the README cohort, n=800: the training loop "
             "(gradcore backward + Adam) dominates and peak RSS is largest",
             _cv_fit),
    Workload("train-dsm", "train",
             "one DSM fit, n=1000: the covariate-free warm-up dominates, "
             "standing in for the desk DSM CV that is too long to repeat",
             _train_dsm),
    Workload("cv-score", "cv",
             "NFG nested CV, n=2000, d=24, PCA to 8, 3 epochs: C^td scoring "
             "and the O(n^2) fold set-up dominate, training is small",
             _cv_score),
    Workload("mae-train", "mae-train",
             "masked autoencoder on 40 phantoms for 200 steps: few large "
             "matmul nodes on the tape instead of many tiny ones",
             _mae_train),
]}
