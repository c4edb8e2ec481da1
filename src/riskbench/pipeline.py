"""Evaluation protocol: nested stratified k-fold CV with random search.

Outer folds estimate generalization; per fold, a stratified 10% holdout
of the training data drives a random hyperparameter search, the winner is
refit on the training fold (early-stopped on a second stratified 10% holdout
that the refit does not train on), and per-risk time-dependent concordance
is scored on the untouched test fold. Aggregates carry t-score 95%
confidence intervals. Fold jobs derive child seeds from (seed, fold,
iteration), so results do not depend on worker scheduling.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .cohort import Cohort, holdout_split, stratified_kfold
from .errors import DataError, NumericError
from .features import pca_apply, pca_fit, standardize_fit_apply
from .metrics import NoComparablePairs, ctd_index
from .models import MODEL_KINDS, build_model
from .pipeline_audit import LeakageAudit, record_fit
from .seeds import child_seed, rng_stream


# ---------------------------------------------------------------------------
# hyperparameter grid
# ---------------------------------------------------------------------------


def _bounded(default: tuple, item: dict, pair: bool = False):
    """A grid field whose items each meet `item` (a bound as in `BaseConfig`); a
    pair is a range (lo, hi) with lo <= hi."""
    shape = {"len": 2, "ordered": True} if pair else {}
    return field(default=default, metadata={"items": item, **shape})


@dataclass
class HParamGrid:
    # lr is drawn log-uniform; batch size and layers uniform on their inclusive ranges
    lr_range: tuple = _bounded((1e-4, 1e-2), {"type": "float", "positive": True}, pair=True)
    batch_range: tuple = _bounded((100, 1000), {"type": "int", "min": 1}, pair=True)
    dropout_choices: tuple = _bounded((0.0, 0.25, 0.5, 0.75),
                                      {"type": "float", "min": 0, "below": 1})
    layers_range: tuple = _bounded((1, 4), {"type": "int", "min": 0}, pair=True)
    nodes_choices: tuple = _bounded((32, 64, 128, 256, 512), {"type": "int", "min": 1})
    dsm_distribution_choices: tuple = _bounded(
        ("weibull", "lognormal"), {"type": "str", "choices": ("weibull", "lognormal")})
    dsm_k_choices: tuple = _bounded((2, 3, 4, 6), {"type": "int", "min": 1})
    deephit_alpha_choices: tuple = _bounded((0.0, 0.1, 0.5, 1.0), {"type": "float", "min": 0})

    def sample(self, rng: np.random.Generator, model_kind: str) -> dict:
        out = {
            "lr": float(np.exp(rng.uniform(np.log(self.lr_range[0]),
                                           np.log(self.lr_range[1])))),
            "batch_size": int(rng.integers(self.batch_range[0], self.batch_range[1] + 1)),
            "dropout": float(rng.choice(self.dropout_choices)),
            "layers": int(rng.integers(self.layers_range[0], self.layers_range[1] + 1)),
            "nodes": int(rng.choice(self.nodes_choices)),
        }
        if model_kind == "dsm":
            out["distribution"] = str(rng.choice(self.dsm_distribution_choices))
            out["k"] = int(rng.choice(self.dsm_k_choices))
        elif model_kind == "deephit":
            out["alpha"] = float(rng.choice(self.deephit_alpha_choices))
        return out

# ---------------------------------------------------------------------------
# random search
# ---------------------------------------------------------------------------


def _mean_valid_ctd(model, valid: Cohort) -> float:
    """Mean per-risk concordance on the validation split.

    Risks with no comparable pairs are skipped; raises if none is
    scoreable. Any other error of a risk's query propagates.
    """
    values = []
    for r in range(1, valid.n_risks + 1):
        try:
            values.append(ctd_index(valid, model, r=r).value)
        except NoComparablePairs:
            continue
    if not values:
        raise ValueError("no risk had comparable validation pairs")
    return float(np.mean(values))


def random_search(grid: HParamGrid, n_iter: int, train: Cohort, valid: Cohort,
                  model_kind: str, seed: int, shared_fields: dict | None = None):
    """Sample n_iter configurations and pick the best by validation C^td.

    `shared_fields` (epoch budget, patience, model extras) are laid over
    every sampled configuration. The sampled sequence is a pure function
    of the seed. Failed configurations (non-finite losses, unscoreable
    validation) are logged and skipped; if every configuration fails, the
    failure log is raised. Ties keep the earliest iteration.
    """
    rng = rng_stream(seed, 0xC0FFEE)
    best_score, best_config, best_iter = -np.inf, None, -1
    log = []
    for it in range(n_iter):
        fields = {**grid.sample(rng, model_kind), **(shared_fields or {})}
        try:
            model = build_model(model_kind, **fields)
            model.fit(train, seed=child_seed(seed, it), valid=valid)
            score = _mean_valid_ctd(model, valid)
        except (NumericError, DataError, ValueError, FloatingPointError) as exc:
            log.append({"iteration": it, "config": fields, "error": str(exc)})
            continue
        log.append({"iteration": it, "config": fields, "score": score})
        if score > best_score:
            best_score, best_config, best_iter = score, fields, it
    if best_config is None:
        raise NumericError("random search: every configuration failed",
                           {"log": log})
    return best_config, {"best_iteration": best_iter, "best_score": best_score,
                         "trials": log}


# ---------------------------------------------------------------------------
# nested cross-validation
# ---------------------------------------------------------------------------


@dataclass
class FoldResult:
    fold: int
    chosen: dict
    ctd: dict[str, float]
    pairs: dict[str, int]
    best_epoch: int


@dataclass
class CVReport:
    model_kind: str
    modality: str
    risk_names: list[str]
    k: int
    seed: int
    folds: list[FoldResult]
    aggregate: dict[str, dict]
    audit: dict = field(default_factory=dict)


def _t_coverage(theta: float, df: int) -> float:
    """P(|T| <= sqrt(df) tan(theta)) for Student's t with integer df >= 1.

    Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even df): a finite
    series in powers of cos(theta).
    """
    s, c = math.sin(theta), math.cos(theta)
    odd = df % 2
    term, total = (c if odd else 1.0), 0.0
    for j in range(1, df // 2 + 1):
        total += term
        term *= (2 * j - 1 + odd) / (2 * j + odd) * c * c
    return 2.0 / math.pi * (theta + s * total) if odd else s * total


def t_quantile(df: int, level: float) -> float:
    """The t with P(|T| <= t) = level, T Student's t with integer df >= 1.

    Bisects theta = atan(t / sqrt(df)) on [0, pi/2] until the bracket stops
    shrinking. Within 3e-14 relative of `scipy.special.stdtrit(df, (1 +
    level) / 2)` over df 1-60 at levels 0.8-0.99; the worst case, df=1 at
    0.99, is where tan magnifies the rounding of theta near pi/2.
    """
    if df < 1 or not 0.0 < level < 1.0:
        raise ValueError(f"need integer df >= 1 and level in (0, 1), got {df}, {level}")
    lo, hi = 0.0, math.pi / 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return math.sqrt(df) * math.tan(mid)
        if _t_coverage(mid, df) < level:
            lo = mid
        else:
            hi = mid


def t_confidence_interval(values: list[float], level: float = 0.95) -> dict:
    """mean +- t_{(1+level)/2, k-1} * sd / sqrt(k).

    The quantile is `t_quantile`: the exact integer-df t distribution
    (Abramowitz & Stegun 26.7.3-4) inverted by bisection, in plain `math`.
    scipy's `stdtrit` inverts the incomplete beta function and rounds
    differently, so `lo` and `hi` can differ from a stdtrit-based interval
    in the last few bits.
    """
    arr = np.asarray(values, dtype=np.float64)
    k = len(arr)
    mean = float(arr.mean())
    if k < 2:
        return {"mean": mean, "lo": mean, "hi": mean, "sd": 0.0}
    sd = float(arr.std(ddof=1))
    mult = t_quantile(k - 1, level)
    half = mult * sd / np.sqrt(k)
    return {"mean": mean, "lo": float(mean - half), "hi": float(mean + half),
            "sd": sd}


# `cv.preset`: the fold count and search budget of each preset, which the
# `cv` section's keys override; CvSettings' defaults are the full preset's
CV_PRESETS = {"full": {"k": 5, "n_iter": 100, "max_epochs": 1000},
              "desk": {"k": 3, "n_iter": 10, "max_epochs": 100}}


@dataclass
class CvSettings:
    """One nested-CV run's settings. Each field but the run-time ones
    (`categories`, `extra_fields`, `checkpoint_dir`) is a key of the run
    config's `cv` section, or of the section its "section" metadata names,
    and its bounds live in its field metadata (`riskbench.config`)."""

    n_iter: int = field(default=CV_PRESETS["full"]["n_iter"], metadata={"min": 1})
    max_epochs: int = field(default=CV_PRESETS["full"]["max_epochs"], metadata={"min": 1})
    patience: float = field(default=10, metadata={"min": 0})
    standardize: bool = field(default=True, metadata={"section": "features"})
    # 0 disables per-fold PCA
    pca_components: int = field(default=0, metadata={"section": "features", "min": 0})
    categories: list[str] | None = None
    extra_fields: dict | None = None
    modality: str = "features"
    checkpoint_dir: str | None = None


def _fold_features(train: Cohort, test: Cohort, settings: CvSettings):
    """Per-fold feature fits (standardize, optional PCA), train rows only."""
    tr, te, names = train.features, test.features, train.feature_names
    if settings.standardize:
        record_fit("standardize.fit", train.ids)
        tr, te = standardize_fit_apply(tr, te)
    if settings.pca_components > 0:
        record_fit("pca.fit", train.ids)
        model = pca_fit(tr, settings.pca_components, settings.categories)
        (tr, names), (te, _) = pca_apply(model, tr), pca_apply(model, te)
    return train.with_features(tr, names), test.with_features(te, names)


def run_fold(payload: tuple) -> tuple[FoldResult, int, list]:
    """One outer fold: inner search, refit, test scoring. Pickle-friendly.
    Returns the fold's result and its leakage audit's fit count and leaks."""
    cohort, fold_ids, model_kind, grid, settings, seed, fold_idx = payload
    fold_id_set = frozenset(fold_ids)
    in_test = np.array([sid in fold_id_set for sid in cohort.ids], dtype=bool)
    test = cohort.subset(np.flatnonzero(in_test))
    train_full = cohort.subset(np.flatnonzero(~in_test))
    audit = LeakageAudit(fold_id_set, tag=f"fold{fold_idx}")
    with audit.active():
        train_t, test_t = _fold_features(train_full, test, settings)
        inner_train, inner_valid = holdout_split(
            train_t, 0.10, seed=child_seed(seed, fold_idx, 1))
        shared = {"max_epochs": settings.max_epochs, "patience": settings.patience,
                  **(settings.extra_fields or {})}
        best, _info = random_search(
            grid, settings.n_iter, inner_train, inner_valid, model_kind,
            seed=child_seed(seed, fold_idx, 2), shared_fields=shared)
        refit_train, refit_valid = holdout_split(
            train_t, 0.10, seed=child_seed(seed, fold_idx, 4))
        model = build_model(model_kind, **best)
        history = model.fit(refit_train, seed=child_seed(seed, fold_idx, 3), valid=refit_valid)
    if settings.checkpoint_dir is not None:
        model.save(os.path.join(settings.checkpoint_dir, f"fold{fold_idx}.rbck"))
    ctd, pairs = {}, {}
    for r, name in enumerate(cohort.risk_names, start=1):
        res = ctd_index(test_t, model, r=r)
        ctd[name] = res.value
        pairs[name] = res.pairs
    return FoldResult(fold_idx, best, ctd, pairs, history.best_epoch), audit.fits, audit.leaks


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pool_map(fn, items: list, workers: int) -> list:
    """`[fn(x) for x in items]` on `workers` spawned processes that share
    this process's CPUs: each BLAS thread variable the user has not set
    reads max(1, CPUs // workers) in the children, which load numpy after
    it is set. This process's environment is restored afterwards."""
    # imported here so that serial runs load neither concurrent.futures
    # nor multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    unset = [var for var in _BLAS_THREAD_VARS if var not in os.environ]
    share = str(max(1, len(os.sched_getaffinity(0)) // workers))
    os.environ.update(dict.fromkeys(unset, share))
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(fn, items))
    finally:
        for var in unset:
            del os.environ[var]


def nested_cv(cohort: Cohort, model_kind: str, grid: HParamGrid | None = None,
              k: int = 5, seed: int = 0, settings: CvSettings | None = None,
              workers: int = 1) -> CVReport:
    """Disease-stratified nested k-fold cross-validation."""
    if model_kind not in MODEL_KINDS:
        raise DataError(f"unknown model kind {model_kind!r}")
    if len(set(cohort.ids)) != cohort.n:
        raise DataError("nested_cv requires unique subject ids")
    grid = grid or HParamGrid()
    settings = settings or CvSettings()
    for r in range(1, cohort.n_risks + 1):
        if cohort.event_count(r) == 0:
            raise DataError(f"cohort has no events for risk {r}")
    folds = stratified_kfold(cohort, k, seed=child_seed(seed, 0xF01D))
    payloads = [(cohort, folds[f].ids, model_kind, grid, settings, seed, f)
                for f in range(k)]
    if workers > 1:
        results = _pool_map(run_fold, payloads, workers)
    else:
        results = [run_fold(p) for p in payloads]
    fold_results, fits, fold_leaks = zip(*results)
    leaks = [leak for some in fold_leaks for leak in some]
    if leaks:
        raise RuntimeError(f"leakage audit failed: test ids reached fits {leaks}")
    aggregate = {
        name: t_confidence_interval([f.ctd[name] for f in fold_results])
        for name in cohort.risk_names
    }
    return CVReport(model_kind, settings.modality, list(cohort.risk_names),
                    k, seed, list(fold_results), aggregate, {"fits": int(sum(fits)), "leaks": 0})


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def emit_report(reports: list[CVReport]) -> tuple[str, dict]:
    """Markdown + JSON tables: rows modality x model, columns risks,
    cells "mean (lo, hi)", best value per column flagged."""
    if not reports:
        raise DataError("emit_report needs at least one CVReport")
    risk_names = reports[0].risk_names
    for rep in reports:
        if rep.risk_names != risk_names:
            raise DataError("reports disagree on risk names")
    rows = []
    for rep in sorted(reports, key=lambda r: (r.modality, r.model_kind)):
        cells = {}
        for name in risk_names:
            agg = rep.aggregate[name]
            cells[name] = {
                "mean": agg["mean"], "lo": agg["lo"], "hi": agg["hi"],
                "text": f"{agg['mean']:.3f} ({agg['lo']:.3f}, {agg['hi']:.3f})",
            }
        rows.append({"modality": rep.modality, "model": rep.model_kind,
                     "cells": cells})
    for name in risk_names:
        best = max(range(len(rows)), key=lambda i: rows[i]["cells"][name]["mean"])
        rows[best]["cells"][name]["best"] = True
    header = "| Modality | Model | " + " | ".join(risk_names) + " |"
    sep = "|" + "---|" * (2 + len(risk_names))
    lines = [header, sep]
    for row in rows:
        cells = []
        for name in risk_names:
            cell = row["cells"][name]
            text = cell["text"]
            cells.append(f"**{text}**" if cell.get("best") else text)
        lines.append(f"| {row['modality']} | {row['model']} | " + " | ".join(cells) + " |")
    markdown = "\n".join(lines) + "\n"
    doc = {"columns": risk_names, "rows": rows}
    return markdown, doc
