"""Span tracer for one benchmark child process.

`install()` wraps the public functions of each riskbench layer, and the
documented `CifModel` hooks, from outside the package: nothing under `src/`
is edited. A wrapped call records a span (id, parent id, name, start, end,
attributes); high-frequency entry points (tape node creation, `Cohort.ids`)
only bump a counter. Spans stay in memory and `Tracer.write` dumps them as
JSON lines when the run ends. Every span of a run carries the run id.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import time
from pathlib import Path

clock = time.perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [id, parent, name, start, end, attrs]
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._gc_started = 0.0

    # -- recording -------------------------------------------------------------

    def begin(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        rec = [len(self.spans), parent, name, clock(), None, None]
        self.spans.append(rec)
        self.stack.append(rec[0])
        return rec

    def end(self, rec: list) -> None:
        rec[4] = clock()
        self.stack.pop()

    def spanned(self, name: str, fn, attrs=None):
        """`fn` wrapped in a span; `attrs(args, kwargs, result)` annotates it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = {"error": type(exc).__name__}
                if attrs is not None:
                    rec[5].update(attrs(args, kwargs, exc) or {})
                raise
            finally:
                tracer.end(rec)
            if attrs is not None:
                rec[5] = attrs(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] = counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = clock()
            return
        c = self.counters
        c["gradcore.gc_s"] = c.get("gradcore.gc_s", 0.0) + clock() - self._gc_started
        c["gradcore.gc_collected"] = c.get("gradcore.gc_collected", 0) + info["collected"]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "counters": self.counters}) + "\n")
            for sid, parent, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end,
                                     "attrs": attrs}) + "\n")


# -- span attributes -------------------------------------------------------------


def _fit_attrs(args, kwargs, result):
    """Per-fit record: kind, epochs run against the budget, best epoch, clamps."""
    model = args[0]
    rec = {"kind": model.kind,
           "max_epochs": kwargs.get("max_epochs") or model.config.max_epochs}
    if isinstance(result, BaseException):
        return rec
    return {**rec, "epochs_run": len(result.epochs), "best_epoch": result.best_epoch,
            "clamped_terms": result.clamped_terms}


def _search_attrs(args, kwargs, result):
    """Every trial of one random search, failed ones included."""
    if isinstance(result, BaseException):
        return {"trials": getattr(result, "diagnostics", {}).get("log", []),
                "best_iteration": -1}
    _best, info = result
    return {"trials": info["trials"], "best_iteration": info["best_iteration"]}


def _ctd_attrs(args, kwargs, result):
    if isinstance(result, BaseException):
        return {}
    return {"pairs": result.pairs, "risk": result.risk}


def _cif_attrs(args, kwargs, result):
    if isinstance(result, BaseException):
        return {}
    x = args[1]
    return {"rows": 1 if getattr(x, "ndim", 1) == 1 else int(x.shape[0])}


# -- installation ----------------------------------------------------------------


def _replace_everywhere(original, replacement) -> None:
    """Rebind every riskbench module attribute that names `original`."""
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("riskbench"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def _wrap_function(tracer: Tracer, module, attr: str, name: str, attrs=None) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, tracer.spanned(name, original, attrs))


def _wrap_method(tracer: Tracer, cls, attr: str, name: str, attrs=None) -> None:
    setattr(cls, attr, tracer.spanned(name, cls.__dict__[attr], attrs))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from riskbench import cohort, features, metrics, pipeline
    from riskbench.gradcore import optim, tensor
    from riskbench.mae import model as mae_model
    from riskbench.mae import patches, volume
    from riskbench.models import MODEL_KINDS
    from riskbench.models.base import CifModel

    # cohort
    _wrap_function(tracer, cohort, "generate_synthetic", "cohort.load")
    _wrap_function(tracer, cohort, "cohort_from_csv", "cohort.load")
    _wrap_function(tracer, cohort, "stratified_kfold", "cohort.split")
    _wrap_function(tracer, cohort, "holdout_split", "cohort.split")
    _wrap_method(tracer, cohort.Cohort, "subset", "cohort.subset")
    ids = cohort.Cohort.__dict__["ids"]
    cohort.Cohort.ids = property(tracer.counted("cohort.ids_calls", ids.fget))

    # features
    _wrap_function(tracer, features, "standardize_fit_apply", "features.standardize")
    _wrap_function(tracer, features, "pca_fit", "features.pca_fit")
    _wrap_function(tracer, features, "pca_apply", "features.pca_apply")

    # models: public surface plus the documented subclass hooks
    _wrap_method(tracer, CifModel, "fit", "models.fit", _fit_attrs)
    _wrap_method(tracer, CifModel, "_fit_loop", "models.epoch_loop")
    _wrap_method(tracer, CifModel, "cif", "models.cif", _cif_attrs)
    _wrap_method(tracer, CifModel, "_pre_fit", "models.warmup")
    for model_cls, _config_cls in MODEL_KINDS.values():
        if "_pre_fit" in model_cls.__dict__:
            _wrap_method(tracer, model_cls, "_pre_fit", "models.warmup")
        _wrap_method(tracer, model_cls, "_loss", "models.loss")

    # metrics
    _wrap_function(tracer, metrics, "ctd_index", "metrics.ctd", _ctd_attrs)
    _wrap_function(tracer, metrics, "cif_score_matrix", "metrics.score_matrix")

    # pipeline
    _wrap_function(tracer, pipeline, "nested_cv", "pipeline.nested_cv")
    _wrap_function(tracer, pipeline, "run_fold", "pipeline.fold")
    _wrap_function(tracer, pipeline, "random_search", "pipeline.search", _search_attrs)

    # gradcore
    _wrap_method(tracer, tensor.Tensor, "backward", "gradcore.backward")
    _wrap_function(tracer, optim, "adam_step", "gradcore.adam")
    tensor.Tensor.__init__ = tracer.counted("gradcore.nodes", tensor.Tensor.__init__)
    gc.callbacks.append(tracer._on_gc)

    # mae
    _wrap_function(tracer, volume, "make_phantoms", "mae.phantoms")
    _wrap_function(tracer, patches, "patchify", "mae.patchify")
    _wrap_method(tracer, mae_model.MaeModel, "forward", "mae.forward")
    _wrap_function(tracer, mae_model, "train_mae", "mae.train")
