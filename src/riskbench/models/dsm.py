"""Mixture-of-primitives survival model.

Each risk's cumulative incidence is a softmax-gated mixture of k Weibull
or log-normal CDFs. Every component owns covariate-free base shape/scale
parameters; an encoder MLP adds per-subject shifts and produces the gate
logits. Training runs in two phases: a covariate-free warm-up that fits
the base parameters by maximum likelihood (uniform gates, no shifts),
then the full likelihood with Adam and early stopping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from ..gradcore import (
    MLP,
    AdamState,
    ParamGraph,
    Tensor,
    adam_step,
    clamp_min,
    logsumexp,
    mul,
    relu,
    softmax,
    softplus,
    terf,
    texp,
    tlog,
    tsum,
    xavier_uniform,
)
from ..gradcore import add as tadd
from ..gradcore import sub as tsub
from .base import PROB_FLOOR, BaseConfig, CifModel, evaluate_pairs

LOG_2PI = float(np.log(2.0 * np.pi))


def inv_softplus(y: float) -> float:
    return float(np.log(np.expm1(y)))


@dataclass
class DsmConfig(BaseConfig):
    k: int = 3
    distribution: str = "weibull"  # or "lognormal"
    warmup_iters: int = 10_000
    warmup_lr: float = 1e-2
    # Per-risk mixtures each saturate at 1, so nothing structural stops the
    # summed incidence from crossing 1 between censored observations. A
    # hinge on the total just past the training horizon keeps fitted models
    # valid; it vanishes wherever the model already satisfies the bound.
    budget_weight: float = 2000.0
    budget_margin: float = 0.003
    budget_horizon: float = 1.05  # in rescaled time units


class DsmModel(CifModel):
    kind = "dsm"
    config_class = DsmConfig

    def __init__(self, config: DsmConfig | None = None):
        super().__init__(config or DsmConfig())
        if self.config.distribution not in ("weibull", "lognormal"):
            raise DataError(f"unknown primitive distribution {self.config.distribution!r}")

    # -- construction -------------------------------------------------------

    def _build(self, rng: np.random.Generator) -> None:
        cfg = self.config
        self.graph = ParamGraph()
        sizes = [self.d] + [cfg.nodes] * cfg.layers
        self.encoder = MLP(self.graph, "enc", sizes, rng, activation="relu",
                           drop=cfg.dropout)
        h = sizes[-1]
        weibull = cfg.distribution == "weibull"
        # Base parameters start the mixture wide: scale near R+1 in rescaled
        # time keeps the summed incidence safely below one at init.
        if weibull:
            a0 = inv_softplus(1.0)
            b0 = inv_softplus(float(self.n_risks + 1))
        else:
            a0 = 1.0 + 0.25 * self.n_risks  # log-normal location (raw)
            b0 = inv_softplus(1.0)
        self.base_a, self.base_b, self.head_a, self.head_b = [], [], [], []
        self.gate_w, self.gate_b = [], []
        for r in range(self.n_risks):
            jitter = rng.normal(0.0, 0.05, size=cfg.k)
            self.base_a.append(self.graph.parameter(f"risk{r}.base_a", a0 + jitter))
            jitter = rng.normal(0.0, 0.05, size=cfg.k)
            self.base_b.append(self.graph.parameter(f"risk{r}.base_b", b0 + jitter))
            # shift heads start small so phase 2 begins near the warm-up fit
            self.head_a.append(self.graph.parameter(
                f"risk{r}.head_a", 0.1 * xavier_uniform(rng, h, cfg.k, (h, cfg.k))))
            self.head_b.append(self.graph.parameter(
                f"risk{r}.head_b", 0.1 * xavier_uniform(rng, h, cfg.k, (h, cfg.k))))
            self.gate_w.append(self.graph.parameter(
                f"risk{r}.gate_w", xavier_uniform(rng, h, cfg.k, (h, cfg.k))))
            self.gate_b.append(self.graph.parameter(f"risk{r}.gate_b", np.zeros(cfg.k)))

    # -- mixture pieces ------------------------------------------------------

    def _component_params(self, r: int, h: Tensor | None):
        """(a, b) tensors of shape (nb, k) or (1, k) when covariate-free."""
        a = self.base_a[r].reshape(1, self.config.k)
        b = self.base_b[r].reshape(1, self.config.k)
        if h is not None:
            a = tadd(a, h @ self.head_a[r])
            b = tadd(b, h @ self.head_b[r])
        return a, b

    def _log_pdf_and_cdf(self, u_col: Tensor, a: Tensor, b: Tensor):
        """Per-component log density and CDF at rescaled times u (nb, 1)."""
        log_u = tlog(u_col)
        if self.config.distribution == "weibull":
            shape = softplus(a)
            log_scale = tlog(softplus(b))
            w = mul(shape, tsub(log_u, log_scale))  # shape * log(u/scale)
            z = texp(w)  # (u/scale)^shape
            # log[(s/u) * (u/c)^s * e^-z] after cancelling the scale terms
            log_pdf = tlog(shape) + w - log_u - z
            cdf = tsub(1.0, texp(-z))
        else:
            mu = a
            sigma = softplus(b)
            zz = mul(tsub(log_u, mu), 1.0 / sigma)
            log_pdf = -log_u - tlog(sigma) - 0.5 * LOG_2PI - mul(mul(zz, zz), 0.5)
            cdf = mul(tadd(1.0, terf(mul(zz, 1.0 / np.sqrt(2.0)))), 0.5)
        return log_pdf, cdf

    def _gate_logits(self, r: int, h: Tensor) -> Tensor:
        return tadd(h @ self.gate_w[r], self.gate_b[r].reshape(1, self.config.k))

    def _risk_terms(self, r: int, u_col: Tensor, h: Tensor | None):
        """Mixture log-density (nb,) and CIF (nb,) for one risk."""
        k = self.config.k
        a, b = self._component_params(r, h)
        log_pdf, cdf = self._log_pdf_and_cdf(u_col, a, b)
        if h is None:
            log_gates = Tensor(np.full((1, k), -np.log(k)))
            gates = Tensor(np.full((1, k), 1.0 / k))
        else:
            logits = self._gate_logits(r, h)
            log_gates = tsub(logits, logsumexp(logits, axis=-1, keepdims=True))
            gates = softmax(logits, axis=-1)
        log_f = logsumexp(tadd(log_gates, log_pdf), axis=-1)
        cif = tsum(mul(gates, cdf), axis=-1)
        return log_f, cif

    # -- likelihood -----------------------------------------------------------

    def _neg_log_likelihood(self, x, t, e, rng, training, covariate_free=False):
        nb = len(t)
        u = np.maximum(t / self.t_scale, 1e-10)[:, None]
        u_col = Tensor(u)
        h = None
        if not covariate_free:
            h = self.encoder(Tensor(x), rng=rng, training=training)
        total_cif = None
        loglik = None
        for r in range(self.n_risks):
            log_f, cif = self._risk_terms(r, u_col, h)
            mask = Tensor((e == r + 1).astype(np.float64))
            term = tsum(mul(mask, log_f))
            loglik = term if loglik is None else tadd(loglik, term)
            total_cif = cif if total_cif is None else tadd(total_cif, cif)
        surv = tsub(1.0, total_cif)
        cens_mask = e == 0
        if training:
            self.clamp_count += int(np.sum(cens_mask & (surv.data < PROB_FLOOR)))
        cens = tsum(mul(Tensor(cens_mask.astype(np.float64)),
                        tlog(clamp_min(surv, PROB_FLOOR))))
        loss = mul(tadd(loglik, cens), -1.0 / nb)
        return tadd(loss, self._budget_penalty(h, nb))

    def _budget_penalty(self, h: Tensor | None, nb: int):
        """Hinge^2 on the summed incidence just past the training horizon."""
        cfg = self.config
        u_pen = Tensor(np.full((nb if h is not None else 1, 1), cfg.budget_horizon))
        total = None
        for r in range(self.n_risks):
            _, cif = self._risk_terms(r, u_pen, h)
            total = cif if total is None else tadd(total, cif)
        excess = relu(tsub(total, 1.0 - cfg.budget_margin))
        return mul(tsum(mul(excess, excess)),
                   cfg.budget_weight / max(1, u_pen.shape[0]))

    def _loss(self, x, t, e, rng, training):
        return self._neg_log_likelihood(x, t, e, rng, training)

    def _pre_fit(self, train, rng: np.random.Generator) -> None:
        """Covariate-free maximum likelihood over the base parameters."""
        if self.config.warmup_iters <= 0:
            return
        xt, tt, et = train.features, train.times, train.events
        warm = AdamState(lr=self.config.warmup_lr, weight_decay=0.0)
        for _ in range(self.config.warmup_iters):
            loss = self._neg_log_likelihood(xt, tt, et, None, training=False,
                                            covariate_free=True)
            loss.backward()
            adam_step(warm, self.graph)

    # -- prediction -------------------------------------------------------------

    def _cif_curves(self, x: np.ndarray, times: np.ndarray, r: int) -> np.ndarray:
        """Encoder, gates and component (a, b) once; the CDFs per pair."""
        h = self.encoder(Tensor(x))
        a, b = (p.data for p in self._component_params(r - 1, h))
        gates = softmax(self._gate_logits(r - 1, h), axis=-1).data
        u = np.maximum(times / self.t_scale, 1e-300)

        def at(ti, ri):
            _, cdf = self._log_pdf_and_cdf(Tensor(u[ti, None]), Tensor(a[ri]), Tensor(b[ri]))
            return tsum(mul(Tensor(gates[ri]), cdf), axis=-1).data

        return evaluate_pairs(times.size, x.shape[0], at)

    def gate_weights(self, x: np.ndarray, r: int) -> np.ndarray:
        """Mixture gates pi_{r,j}(x); rows sum to one."""
        h = self.encoder(Tensor(np.atleast_2d(x)))
        return softmax(self._gate_logits(r - 1, h), axis=-1).data.copy()
