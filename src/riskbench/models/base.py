"""Shared contract for the competing-risk models.

Every model fits on a cohort and afterwards answers F_r(t|x), the
probability of event r occurring by time t, through one batched query:
`cif_pairs(x, times, r)` runs the covariate path once, without a tape, and
returns an evaluator of chosen (time, subject) pairs: plain numpy that
computes only F_r, in place on one working array per chunk of pairs, with
no Tensor; `cif_curves` evaluates it over the full grid. Training is
mini-batch Adam with early stopping on a validation likelihood; time
inputs are rescaled by the training-set maximum so exponentials stay tame
(queries rescale consistently, leaving CIF values unchanged).

`_build` makes every model's ReLU encoder before its `_build_heads`, and
`_nll` assembles the competing-risk likelihood, clamped at PROB_FLOOR, from
the terms each model's `_loss` supplies. `load` builds a model from its
sidecar (`_from_sidecar`) through `gradcore.checkpoint.load_model_files`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..cohort import Cohort, holdout_split
from ..config import build_config
from ..errors import DataError, NumericError
from ..gradcore import MLP, AdamState, ParamGraph, Tensor, adam_step, clamp_min, mul, tlog, tsum
from ..gradcore import add as tadd
from ..gradcore.checkpoint import load_model_files, save_model_files
from ..pipeline_audit import record_fit
from ..seeds import rng_stream

PROB_FLOOR = 1e-12
# (time, subject) pairs evaluated per step of a CIF query. This bounds the
# query's memory whatever the number of times and subjects. At 2,048 pairs a
# 32-wide float64 activation block is 512 KB and stays in a 2 MB L2 cache; on
# such a Xeon, 8,192 pairs per step ran the NFG time path about half as fast.
# The value must stay: OpenBLAS rounds a product with few output columns,
# such as NFG's (k, w) @ (w, 1) output layer, differently by a row's
# position in its chunk. Other chunk boundaries would move CIF values in
# the last bit, and C^td and `report.json` with them.
CHUNK_ROWS = 2048


@dataclass
class BaseConfig:
    """Training settings; each field's metadata bounds it (`riskbench.config`)."""

    lr: float = field(default=1e-3, metadata={"positive": True})
    batch_size: int = field(default=256, metadata={"min": 1})
    dropout: float = field(default=0.0, metadata={"min": 0, "below": 1})
    layers: int = field(default=2, metadata={"min": 0})
    nodes: int = field(default=32, metadata={"min": 1})
    weight_decay: float = field(default=0.0, metadata={"min": 0})
    patience: float = field(default=10, metadata={"min": 0})
    max_epochs: int = field(default=1000, metadata={"min": 1})


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    valid_loss: float


@dataclass
class TrainHistory:
    """One fit's record. `warmup_iters` counts the iterations of the model's
    warm-up solve; `warmup_stop` says why it ended: "gtol" (converged),
    "valid" (no validation gain), "cap" (iteration cap) or "none" (no
    warm-up ran)."""

    epochs: list[EpochRecord]
    best_epoch: int
    best_valid: float
    clamped_terms: int = 0
    warmup_iters: int = 0
    warmup_stop: str = "none"


def evaluate_pairs(fn, ti: np.ndarray, ri: np.ndarray) -> np.ndarray:
    """fn over the pairs (ti[k], ri[k]), in order, one value per pair.

    `fn` sees at most CHUNK_ROWS pairs per call, as two index arrays of
    equal length, and returns one value per pair.
    """
    out = np.empty(ti.size)
    for lo in range(0, ti.size, CHUNK_ROWS):
        out[lo : lo + CHUNK_ROWS] = fn(ti[lo : lo + CHUNK_ROWS], ri[lo : lo + CHUNK_ROWS])
    return out


class CifModel:
    """Base class: fit(cohort, seed), then cif_pairs, cif_curves or cif."""

    kind = "abstract"
    config_class = BaseConfig

    def __init__(self, config: BaseConfig | None = None):
        self.config = config if config is not None else self.config_class()
        self.graph: ParamGraph | None = None
        self.n_risks = 0
        self.d = 0
        self.t_scale = 1.0
        self.clamp_count = 0
        self._fitted = False

    # subclass hooks -----------------------------------------------------

    def _prepare(self, train: Cohort) -> None:
        """Record training-derived constants (time scale, bins, ...)."""
        self.t_scale = max(float(train.times.max()), 1e-12)

    def _build_heads(self, rng: np.random.Generator, width: int) -> None:
        """Add the model's own parameters on top of a `width`-wide encoder."""
        raise NotImplementedError

    def _loss(self, x: np.ndarray, t: np.ndarray, e: np.ndarray,
              rng: np.random.Generator | None, training: bool):
        raise NotImplementedError

    def _cif_pairs(self, x: np.ndarray, times: np.ndarray, r: int):
        """Covariate path of x (n, d) once; returns at(ti, ri), the risk-r
        incidences F_r(times[ti] | x[ri]) of those index pairs, for finite
        non-negative times. Runs under `no_grad`; `at` runs outside it and
        makes no Tensor: plain numpy on its chunk of pairs."""
        raise NotImplementedError

    def _pre_fit(self, train: Cohort, valid: Cohort) -> tuple[int, str]:
        """Optional warm-up before the main loop; returns its iterations and
        stop reason, as `TrainHistory` records them."""
        return 0, "none"

    def _extra_state(self) -> dict:
        return {}

    def _load_extra_state(self, doc: dict) -> None:
        pass

    # shared skeleton ------------------------------------------------------

    def _build(self, rng: np.random.Generator) -> None:
        """Parameter graph and encoder, then the model's heads, in that RNG
        order; packs the graph last, so fitted and loaded models share one
        layout."""
        cfg = self.config
        self.graph = ParamGraph()
        sizes = [self.d] + [cfg.nodes] * cfg.layers
        self.encoder = MLP(self.graph, "enc", sizes, rng, activation="relu",
                           drop=cfg.dropout)
        self._build_heads(rng, sizes[-1])
        self.graph.flat()

    def _clamped_log_sum(self, p: Tensor, rows: np.ndarray, training: bool) -> Tensor:
        """Sum of log(max(p, PROB_FLOOR)) over `rows`; counts their clamps while training."""
        if training:
            self.clamp_count += int(np.sum(rows & (p.data < PROB_FLOOR)))
        return tsum(mul(Tensor(rows.astype(np.float64)), tlog(clamp_min(p, PROB_FLOOR))))

    def _nll(self, event_ll: Tensor, surv: Tensor, e: np.ndarray, training: bool) -> Tensor:
        """-(event_ll + sum of clamped log `surv` over censored rows) / len(e)."""
        cens_ll = self._clamped_log_sum(surv, e == 0, training)
        return mul(tadd(event_ll, cens_ll), -1.0 / len(e))

    # public surface ------------------------------------------------------

    def cif_pairs(self, x: np.ndarray, times, r: int):
        """Evaluator at(ti, ri) of F_r(times[ti] | x[ri]), one value per pair.

        The covariate path runs here, once for all rows of x (n, d) and
        without a tape; each call of `at` then evaluates only its (time, row)
        index pairs, in numpy. Times must be finite and non-negative, else
        ValueError; F_r(0|x) = 0, set per pair only if some time is 0.
        """
        if not self._fitted:
            raise RuntimeError(f"{self.kind}: predict before fit")
        times = np.ravel(np.asarray(times, dtype=np.float64))
        if not np.all(np.isfinite(times)):
            raise ValueError(f"time must be finite, got {times[~np.isfinite(times)][0]}")
        if np.any(times < 0):
            raise ValueError(f"time must be non-negative, got {times[times < 0][0]}")
        if not 1 <= r <= self.n_risks:
            raise ValueError(f"risk {r} outside 1..{self.n_risks}")
        with self.graph.no_grad():
            at = self._cif_pairs(np.asarray(x, dtype=np.float64), times, r)
        zero = times == 0.0
        if not zero.any():
            return at
        return lambda ti, ri: np.where(zero[ti], 0.0, at(ti, ri))

    def cif_curves(self, x: np.ndarray, times, r: int) -> np.ndarray:
        """F_r(times[i] | x[j]) as a (len(times), n) array; x is (n, d).

        `cif_pairs` evaluated over the full grid, time-major.
        """
        at = self.cif_pairs(x, times, r)
        n_times, n = np.size(times), np.shape(x)[0]
        ti, ri = np.divmod(np.arange(n_times * n), n)
        return evaluate_pairs(at, ti, ri).reshape(n_times, n)

    def cif(self, x: np.ndarray, t: float, r: int) -> np.ndarray | float:
        """F_r(t|x) for one time: a float for one subject, else one per row."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        out = self.cif_curves(x[None, :] if single else x, [t], r)[0]
        return float(out[0]) if single else out

    def fit(self, train: Cohort, seed: int, valid: Cohort | None = None) -> TrainHistory:
        """Mini-batch Adam with early stopping; restores the best epoch.

        The epoch budget and patience are `config.max_epochs` and
        `config.patience`. When no validation cohort is supplied, a
        stratified 10% of `train` is carved out for the early-stopping
        criterion. Either must not be empty.
        """
        if valid is not None and valid.n == 0:
            raise DataError("early stopping needs a non-empty validation split")
        for r in range(1, train.n_risks + 1):
            if train.event_count(r) == 0:
                raise DataError(f"{self.kind}: no events for risk {r} in training data")
        record_fit(f"{self.kind}.fit", train.ids + (valid.ids if valid else []))
        if valid is None:
            train, valid = holdout_split(train, 0.10, seed=int(seed) ^ 0x5F5E5F)
            if valid.n == 0:
                raise DataError(f"early stopping needs a non-empty validation split; "
                                f"10% of {train.n} subjects rounds to none")
        self.clamp_count = 0
        self.n_risks = train.n_risks
        self.d = train.d
        self._prepare(train)
        self._build(rng_stream(seed, 0))
        warmup_iters, warmup_stop = self._pre_fit(train, valid)
        history = self._fit_loop(train, valid, seed)
        history.warmup_iters, history.warmup_stop = warmup_iters, warmup_stop
        self._fitted = True
        return history

    def _fit_loop(self, train: Cohort, valid: Cohort, seed: int) -> TrainHistory:
        xt, tt, et = train.features, train.times, train.events
        xv, tv, ev = valid.features, valid.times, valid.events
        n = train.n
        batch = max(1, min(self.config.batch_size, n))
        adam = AdamState(lr=self.config.lr, weight_decay=self.config.weight_decay)
        shuffle_rng = rng_stream(seed, 2)
        drop_rng = rng_stream(seed, 3)
        best_valid = math.inf
        best_epoch = -1
        params = self.graph.flat()[0]
        best = params.copy()
        since_best = 0
        records: list[EpochRecord] = []
        for epoch in range(self.config.max_epochs):
            order = shuffle_rng.permutation(n)
            losses = []
            for lo in range(0, n, batch):
                idx = order[lo : lo + batch]
                loss = self._loss(xt[idx], tt[idx], et[idx], drop_rng, training=True)
                value = loss.item()
                if not np.isfinite(value):
                    raise NumericError(
                        f"{self.kind}: non-finite training loss at epoch {epoch}",
                        {"epoch": epoch, "batch_start": lo, "loss": value})
                loss.backward()
                adam_step(adam, self.graph)
                losses.append(value)
            with self.graph.no_grad():
                valid_loss = self._loss(xv, tv, ev, None, training=False).item()
            if not np.isfinite(valid_loss):
                raise NumericError(f"{self.kind}: non-finite validation loss",
                                   {"epoch": epoch})
            records.append(EpochRecord(epoch, float(np.mean(losses)), valid_loss))
            if valid_loss < best_valid:
                best_valid = valid_loss
                best_epoch = epoch
                best[...] = params
                since_best = 0
            else:
                since_best += 1
                if since_best >= self.config.patience:
                    break
        params[...] = best
        return TrainHistory(records, best_epoch, best_valid, self.clamp_count)

    # checkpointing --------------------------------------------------------

    def save(self, path: str | Path) -> None:
        save_model_files(path, self.graph, {
            "kind": self.kind,
            "n_risks": self.n_risks,
            "d": self.d,
            "t_scale": self.t_scale,
            "config": asdict(self.config),
            **self._extra_state(),
        })

    @classmethod
    def load(cls, path: str | Path) -> "CifModel":
        return load_model_files(path, cls._from_sidecar)

    @classmethod
    def _from_sidecar(cls, sidecar: dict) -> "CifModel":
        """The model a checkpoint sidecar describes, its parameters not yet loaded."""
        if sidecar.get("kind") != cls.kind:
            raise DataError(f"checkpoint is a {sidecar.get('kind')!r} model, not {cls.kind!r}")
        model = cls(build_config(cls.config_class, sidecar["config"], "config", complete=True))
        model.n_risks = sidecar["n_risks"]
        model.d = sidecar["d"]
        model.t_scale = sidecar["t_scale"]
        model._load_extra_state(sidecar)
        model._build(rng_stream(0, 0))
        model._fitted = True
        return model
