"""Trace parser: spans of one traced run -> per-layer metrics.

A span's self time is its duration minus the time its child spans cover.
A layer's time is the summed duration of its spans; no wrapped layer calls
itself, so none is counted twice. Layers a workload never enters read 0.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "cli.main_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s",
    "cohort.load_s": "s", "cohort.split_s": "s", "cohort.subset_s": "s",
    "cohort.subset_calls": "count", "cohort.ids_calls": "count",
    "features.standardize_s": "s", "features.pca_fit_s": "s", "features.pca_apply_s": "s",
    "models.fit_calls": "count", "models.fit_s": "s", "models.warmup_s": "s",
    "models.epoch_loop_s": "s", "models.loss_s": "s",
    "models.epochs_run": "count", "models.epoch_budget": "count",
    "models.fits_truncated": "count", "models.clamped_terms": "count",
    "models.cif_calls": "count", "models.cif_rows": "count", "models.cif_s": "s",
    "metrics.ctd_calls": "count", "metrics.ctd_s": "s", "metrics.score_matrix_s": "s",
    "metrics.pairs": "count",
    "pipeline.folds": "count", "pipeline.fold_s": "s", "pipeline.fold_self_s": "s",
    "pipeline.search_s": "s", "pipeline.trials": "count", "pipeline.trials_failed": "count",
    "gradcore.nodes": "count", "gradcore.backward_calls": "count",
    "gradcore.backward_s": "s", "gradcore.adam_calls": "count", "gradcore.adam_s": "s",
    "gradcore.gc_collected": "count", "gradcore.gc_s": "s",
    "mae.phantoms_s": "s", "mae.patchify_s": "s", "mae.steps": "count",
    "mae.forward_s": "s", "mae.step_s": "s",
    "share.gradcore_train": "ratio", "share.models_warmup": "ratio",
    "share.metrics_ctd": "ratio", "share.mae_gradcore_forward": "ratio",
    "quality.ctd_mean": "1", "quality.mae_final_loss": "MSE",
}


def load_spans(path: Path) -> tuple[dict, list[dict]]:
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    return header["counters"], spans


def self_times(spans: list[dict]) -> dict[int, float]:
    """Duration minus the union of the child spans' intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


def _step_times(spans: list[dict]) -> list[float]:
    """MAE training steps: start of each forward to the end of the Adam
    step that follows it."""
    train = {s["id"] for s in spans if s["name"] == "mae.train"}
    events = sorted((s["start"], s["name"], s["end"]) for s in spans
                    if s["name"] in ("mae.forward", "gradcore.adam")
                    and (s["name"] == "gradcore.adam" or s["parent"] in train))
    steps, started = [], None
    for start, name, end in events:
        if name == "mae.forward":
            started = start
        elif started is not None:
            steps.append(end - started)
            started = None
    return steps


def layer_metrics(counters: dict, spans: list[dict], untraced_wall: float,
                  quality: dict) -> dict[str, float]:
    """Every per-layer metric of one traced run."""
    selfs = self_times(spans)

    def total(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    def attr_sum(name, key):
        return sum((s["attrs"] or {}).get(key, 0) for s in spans if s["name"] == name)

    fits = [s["attrs"] or {} for s in spans if s["name"] == "models.fit"]
    trials = [t for s in spans if s["name"] == "pipeline.search"
              for t in (s["attrs"] or {}).get("trials", [])]
    root = next(s for s in spans if s["name"] == "cli.main")
    wall = root["end"] - root["start"]
    steps = _step_times(spans)
    m = {
        "cli.main_s": wall,
        "cli.self_s": selfs[root["id"]],
        "trace.overhead_s": wall - untraced_wall,
        "cohort.load_s": total("cohort.load"),
        "cohort.split_s": total("cohort.split"),
        "cohort.subset_s": total("cohort.subset"),
        "cohort.subset_calls": calls("cohort.subset"),
        "cohort.ids_calls": counters.get("cohort.ids_calls", 0),
        "features.standardize_s": total("features.standardize"),
        "features.pca_fit_s": total("features.pca_fit"),
        "features.pca_apply_s": total("features.pca_apply"),
        "models.fit_calls": len(fits),
        "models.fit_s": total("models.fit"),
        "models.warmup_s": total("models.warmup"),
        "models.epoch_loop_s": total("models.epoch_loop"),
        "models.loss_s": total("models.loss"),
        "models.epochs_run": sum(f.get("epochs_run", 0) for f in fits),
        "models.epoch_budget": sum(f.get("max_epochs", 0) for f in fits),
        "models.fits_truncated": sum(1 for f in fits if "best_epoch" in f
                                     and f["best_epoch"] == f["max_epochs"] - 1),
        "models.clamped_terms": sum(f.get("clamped_terms", 0) for f in fits),
        "models.cif_calls": calls("models.cif"),
        "models.cif_rows": attr_sum("models.cif", "rows"),
        "models.cif_s": total("models.cif"),
        "metrics.ctd_calls": calls("metrics.ctd"),
        "metrics.ctd_s": total("metrics.ctd"),
        "metrics.score_matrix_s": total("metrics.score_matrix"),
        "metrics.pairs": attr_sum("metrics.ctd", "pairs"),
        "pipeline.folds": calls("pipeline.fold"),
        "pipeline.fold_s": total("pipeline.fold"),
        "pipeline.fold_self_s": sum(selfs[s["id"]] for s in spans
                                    if s["name"] == "pipeline.fold"),
        "pipeline.search_s": total("pipeline.search"),
        "pipeline.trials": len(trials),
        "pipeline.trials_failed": sum(1 for t in trials if "error" in t),
        "gradcore.nodes": counters.get("gradcore.nodes", 0),
        "gradcore.backward_calls": calls("gradcore.backward"),
        "gradcore.backward_s": total("gradcore.backward"),
        "gradcore.adam_calls": calls("gradcore.adam"),
        "gradcore.adam_s": total("gradcore.adam"),
        "gradcore.gc_collected": counters.get("gradcore.gc_collected", 0),
        "gradcore.gc_s": counters.get("gradcore.gc_s", 0.0),
        "mae.phantoms_s": total("mae.phantoms"),
        "mae.patchify_s": total("mae.patchify"),
        "mae.steps": len(steps),
        "mae.forward_s": total("mae.forward"),
        "mae.step_s": statistics.median(steps) if steps else 0.0,
        "quality.ctd_mean": quality.get("ctd_mean", 0.0),
        "quality.mae_final_loss": quality.get("mae_final_loss", 0.0),
    }
    train = m["gradcore.backward_s"] + m["gradcore.adam_s"]
    m["share.gradcore_train"] = train / wall
    m["share.models_warmup"] = m["models.warmup_s"] / wall
    m["share.metrics_ctd"] = m["metrics.ctd_s"] / wall
    m["share.mae_gradcore_forward"] = (train + m["mae.forward_s"]) / wall
    return {name: m[name] for name in PER_LAYER_UNITS}


def dominance(workload: str, m: dict[str, float]) -> tuple[bool, str]:
    """Does the traced run show the workload's stated dominant layer?"""
    wall = m["cli.main_s"]
    if workload == "train-dsm":
        share = m["models.warmup_s"] / wall
        return share > 0.5, f"models.warmup_s is {share:.1%} of wall_s (needs > 50%)"
    if workload == "cv-score":
        share = m["metrics.ctd_s"] / wall
        return share > 0.5, f"metrics.ctd_s is {share:.1%} of wall_s (needs > 50%)"
    train = m["gradcore.backward_s"] + m["gradcore.adam_s"]
    if workload == "cv-fit":
        claimed = ("gradcore.backward_s+adam_s", train)
        rivals = {"models.loss_s": m["models.loss_s"], "metrics.ctd_s": m["metrics.ctd_s"],
                  "pipeline.fold_self_s": m["pipeline.fold_self_s"],
                  "cohort.split_s+subset_s": m["cohort.split_s"] + m["cohort.subset_s"],
                  "cli.self_s": m["cli.self_s"]}
    elif workload == "mae-train":
        claimed = ("gradcore.backward_s+adam_s+mae.forward_s", train + m["mae.forward_s"])
        rivals = {"mae.phantoms_s": m["mae.phantoms_s"], "mae.patchify_s": m["mae.patchify_s"],
                  "cli.self_s": m["cli.self_s"]}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    top = max(rivals, key=rivals.get)
    ok = claimed[1] > rivals[top]
    return ok, (f"{claimed[0]} is {claimed[1] / wall:.1%} of wall_s; "
                f"largest rival {top} is {rivals[top] / wall:.1%}")
