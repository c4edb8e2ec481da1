"""Mixture-of-primitives survival model.

Each risk's cumulative incidence is a softmax-gated mixture of k Weibull
or log-normal CDFs. Every component owns covariate-free base shape/scale
parameters; the shared encoder of `CifModel._build` feeds heads that add
per-subject shifts and produce the gate logits. Training runs in two
phases: a covariate-free warm-up that fits the base parameters by maximum
likelihood (uniform gates, no shifts), then the full likelihood with Adam
and early stopping. The warm-up takes plain Adam steps on a closed-form
numpy NLL and gradient over the 2*R base tensors (`_covariate_free_nll`).
The tape likelihood, `_loss`, passes the mixture log densities and overall
survival to the shared `CifModel._nll` and adds the budget hinge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf, expit

from ..errors import DataError
from ..gradcore import (
    AdamState,
    ParamGraph,
    Tensor,
    adam_step,
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
    # The bound holds only up to budget_horizon x the largest training time:
    # later the per-risk mixtures keep rising towards 1 each, and the sum
    # exceeds 1 (1.27 at 2x on a two-risk test cohort).
    budget_weight: float = 2000.0
    budget_margin: float = 0.003
    budget_horizon: float = 1.05  # in rescaled time units


class DsmModel(CifModel):
    """Deep Survival Machines: per risk, a gated mixture of k primitives.

    The summed incidence over risks stays at most 1 only up to
    `budget_horizon` x the largest training time, where the budget hinge
    acts. Each per-risk mixture tends to 1 as t grows, so queries past that
    horizon can return incidences that sum to more than 1.
    """

    kind = "dsm"
    config_class = DsmConfig

    def __init__(self, config: DsmConfig | None = None):
        super().__init__(config)
        if self.config.distribution not in ("weibull", "lognormal"):
            raise DataError(f"unknown primitive distribution {self.config.distribution!r}")

    # -- construction -------------------------------------------------------

    def _build_heads(self, rng: np.random.Generator, width: int) -> None:
        cfg = self.config
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
                f"risk{r}.head_a", 0.1 * xavier_uniform(rng, width, cfg.k, (width, cfg.k))))
            self.head_b.append(self.graph.parameter(
                f"risk{r}.head_b", 0.1 * xavier_uniform(rng, width, cfg.k, (width, cfg.k))))
            self.gate_w.append(self.graph.parameter(
                f"risk{r}.gate_w", xavier_uniform(rng, width, cfg.k, (width, cfg.k))))
            self.gate_b.append(self.graph.parameter(f"risk{r}.gate_b", np.zeros(cfg.k)))

    # -- mixture pieces ------------------------------------------------------

    def _component_params(self, r: int, h: Tensor):
        """(a, b) tensors of shape (nb, k): base plus encoder shifts."""
        k = self.config.k
        return (tadd(self.base_a[r].reshape(1, k), h @ self.head_a[r]),
                tadd(self.base_b[r].reshape(1, k), h @ self.head_b[r]))

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

    def _risk_terms(self, r: int, u_col: Tensor, h: Tensor):
        """Mixture log-density (nb,) and CIF (nb,) for one risk."""
        a, b = self._component_params(r, h)
        log_pdf, cdf = self._log_pdf_and_cdf(u_col, a, b)
        logits = self._gate_logits(r, h)
        log_gates = tsub(logits, logsumexp(logits, axis=-1, keepdims=True))
        gates = softmax(logits, axis=-1)
        log_f = logsumexp(tadd(log_gates, log_pdf), axis=-1)
        cif = tsum(mul(gates, cdf), axis=-1)
        return log_f, cif

    # -- likelihood -----------------------------------------------------------

    def _loss(self, x, t, e, rng, training):
        u_col = Tensor(np.maximum(t / self.t_scale, 1e-10)[:, None])
        h = self.encoder(Tensor(x), rng=rng, training=training)
        total_cif = None
        loglik = None
        for r in range(self.n_risks):
            log_f, cif = self._risk_terms(r, u_col, h)
            term = tsum(mul(Tensor((e == r + 1).astype(np.float64)), log_f))
            loglik = term if loglik is None else tadd(loglik, term)
            total_cif = cif if total_cif is None else tadd(total_cif, cif)
        loss = self._nll(loglik, tsub(1.0, total_cif), e, training)
        return tadd(loss, self._budget_penalty(h, len(t)))

    def _budget_penalty(self, h: Tensor, nb: int):
        """Hinge^2 on the summed incidence just past the training horizon."""
        cfg = self.config
        u_pen = Tensor(np.full((nb, 1), cfg.budget_horizon))
        total = None
        for r in range(self.n_risks):
            _, cif = self._risk_terms(r, u_pen, h)
            total = cif if total is None else tadd(total, cif)
        excess = relu(tsub(total, 1.0 - cfg.budget_margin))
        return mul(tsum(mul(excess, excess)), cfg.budget_weight / max(1, nb))

    def _pre_fit(self, train, rng: np.random.Generator) -> None:
        """Covariate-free maximum likelihood over the base parameters.

        Full-batch Adam on `_covariate_free_nll`; only the 2*R base tensors
        take steps, every other parameter is left as built.
        """
        cfg = self.config
        if cfg.warmup_iters <= 0:
            return
        # rows split by event once: event rows of risk r need log densities,
        # censored rows and the budget row need CDFs
        log_u = np.log(np.maximum(train.times / self.t_scale, 1e-10))
        events = train.events
        is_event = events > 0
        member = (events[is_event] == np.arange(1, self.n_risks + 1)[:, None]).astype(float)
        log_u_event = log_u[None, is_event]
        log_u_cens = np.append(log_u[~is_event], np.log(cfg.budget_horizon))[None, :]
        base = ParamGraph()
        for r in range(self.n_risks):
            base.params[f"risk{r}.base_a"] = self.base_a[r]
            base.params[f"risk{r}.base_b"] = self.base_b[r]
        warm = AdamState(lr=cfg.warmup_lr, weight_decay=0.0)
        for _ in range(cfg.warmup_iters):
            _, grad_a, grad_b = _covariate_free_nll(
                cfg, np.array([p.data for p in self.base_a]),
                np.array([p.data for p in self.base_b]),
                log_u_event, member, log_u_cens)
            for r in range(self.n_risks):
                self.base_a[r].grad[...] = grad_a[r]
                self.base_b[r].grad[...] = grad_b[r]
            adam_step(warm, base)

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


def _covariate_free_nll(cfg: DsmConfig, base_a, base_b, log_u_event, member, log_u_cens):
    """Covariate-free mixture NLL and its gradient in the base parameters.

    The value is the tape likelihood's with zero shift heads and uniform
    gates: the event term, the censored term clamped at PROB_FLOOR (no
    gradient at or below the floor, as `clamp_min`) and the budget hinge.
    `base_a` and `base_b` stack the risks' base tensors as (R, k) arrays.
    `log_u_event` is the (1, n_e) row of log rescaled event times and
    `member` the (R, n_e) one-hot of their risks; `log_u_cens` is the row
    of the censored subjects' log times with log(budget_horizon) appended.
    Returns (nll, grad_a, grad_b), the gradients as (R, k) arrays.

    Arrays run components down and subjects across, because numpy reduces
    a short trailing axis an order of magnitude slower than a leading one.
    Per-subject parameters are gathered, and per-risk sums scattered, by
    products with the one-hot `member`, which are exact for finite values.
    """
    k = cfg.k
    n_risks = base_a.shape[0]
    n = log_u_event.shape[1] + log_u_cens.shape[1] - 1
    lu, luc = log_u_event, log_u_cens

    def per_event(values):  # (R, k) -> (k, n_e), each subject its risk's row
        return values.T @ member

    def per_censored(values):  # (R, k) -> (R * k, 1)
        return values.reshape(-1, 1)

    # Each branch gives, for the event subjects, the log density plus log(1/k)
    # and its derivatives in two primitive parameters (p1, p2); for the
    # censored subjects and the budget point, the CDF of every risk's
    # components and its derivatives in the same two; and dp1/da, dp2/db.
    if cfg.distribution == "weibull":  # p1 = shape, p2 = log scale
        shape = np.logaddexp(0.0, base_a)
        scale = np.logaddexp(0.0, base_b)
        log_scale = np.log(scale)
        dp1, dp2 = expit(base_a), expit(base_b) / scale
        shape_e = per_event(shape)
        dist = lu - per_event(log_scale)  # log(u / scale)
        w = shape_e * dist
        z = np.exp(w)
        log_pdf = per_event(np.log(shape) - np.log(k)) + w - lu - z
        dlp1 = per_event(1.0 / shape) + dist * (1.0 - z)
        dlp2 = shape_e * (z - 1.0)
        dist = luc - per_censored(log_scale)
        zc = np.exp(per_censored(shape) * dist)
        surv = np.exp(-zc)
        cdf = 1.0 - surv
        dcdf1 = surv * zc
        dcdf2 = dcdf1 * -per_censored(shape)
        dcdf1 *= dist
    else:  # p1 = mu, p2 = sigma
        sigma = np.logaddexp(0.0, base_b)
        inv_sigma = 1.0 / sigma
        dp1, dp2 = 1.0, expit(base_b)
        inv_sigma_e = per_event(inv_sigma)
        zz = (lu - per_event(base_a)) * inv_sigma_e
        log_pdf = per_event(-np.log(sigma) - 0.5 * LOG_2PI - np.log(k)) - lu - 0.5 * zz * zz
        dlp1 = zz * inv_sigma_e
        dlp2 = (zz * zz - 1.0) * inv_sigma_e
        zz = (luc - per_censored(base_a)) * per_censored(inv_sigma)
        cdf = 0.5 * (1.0 + erf(zz * (1.0 / np.sqrt(2.0))))
        dcdf1 = np.exp(-0.5 * (zz * zz + LOG_2PI)) * -per_censored(inv_sigma)
        dcdf2 = dcdf1 * zz
    # log-sum-exp over components by hand: scipy.special.logsumexp's call
    # overhead would outweigh the rest of the step on arrays this small
    top = log_pdf.max(axis=0)
    ex = np.exp(log_pdf - top)
    total_ex = ex.sum(axis=0)
    loglik = float((top + np.log(total_ex)).sum())
    resp = ex / total_ex
    total = cdf.sum(axis=0) / k
    surv = 1.0 - total[:-1]
    cens = float(np.log(np.maximum(surv, PROB_FLOOR)).sum())
    excess = max(float(total[-1]) - (1.0 - cfg.budget_margin), 0.0)
    weights = np.append((surv > PROB_FLOOR) / np.maximum(surv, PROB_FLOOR) / (n * k),
                        2.0 * cfg.budget_weight * excess / k)
    grads = [dp * ((dc @ weights).reshape(n_risks, k) - ((resp * dl) @ member.T).T / n)
             for dp, dc, dl in ((dp1, dcdf1, dlp1), (dp2, dcdf2, dlp2))]
    nll = -(loglik + cens) / n + cfg.budget_weight * excess * excess
    return nll, grads[0], grads[1]
