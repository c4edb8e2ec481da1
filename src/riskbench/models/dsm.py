"""Mixture-of-primitives survival model.

All R*k components, k Weibull or log-normal CDFs per risk, share one
softmax gate: F_r(t|x) = sum_{j in r} pi_j(x) Phi_j(t|x), where the gates
pi_j(x) of all components sum to one. The incidences therefore sum to at
most 1 at every time, by construction. This is the risk-balance
construction of Neural Fine-Gray (`nfg.py`), B_r(x) * G_r(t|x), written as
one softmax. Every component owns covariate-free base shape/scale
parameters; the shared encoder of `CifModel._build` feeds heads that add
per-subject shifts and produce the gate logits. Each role is one stacked
parameter whose columns run risk-major (risk 1's k components, then risk
2's, ...): `base_a`, `base_b` and `gate_b` (R*k,), `head_a`, `head_b` and
`gate_w` (width, R*k).

Training runs in two phases. The warm-up fits the base parameters and the
gate biases by covariate-free maximum likelihood (no shifts, no gate
weights): a BFGS solve (`_bfgs`) of the closed-form numpy NLL and gradient
(`_covariate_free_nll`). It stops once the NLL of the validation rows stops
improving and keeps the best-validation point, because the mixture
likelihood is unbounded: left to converge, a component collapses onto a
few event times. Then the full likelihood trains with Adam and early
stopping. The tape likelihood, `_loss`, passes the mixture log densities
and overall survival to the shared `CifModel._nll`.

A CIF query takes each subject's gates and CDF parameters (softplus shape
and log scale, or 1/sigma) once, then computes only risk r's gated CDFs per
(time, subject) pair in plain numpy, with the operations of
`_log_pdf_and_cdf`'s CDF in its order, so its values are bit-equal to the
tape's. Only the log-normal query imports `scipy.special.erf`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError
from ..gradcore import (
    Tensor,
    logsumexp,
    mul,
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
from ..gradcore.tensor import logistic
from .base import PROB_FLOOR, BaseConfig, CifModel

LOG_2PI = float(np.log(2.0 * np.pi))

# Warm-up solve. GTOL bounds the largest gradient entry at convergence.
# MAX_STEP caps the move of any coordinate in one step, so that `exp` stays
# finite at trial points. A step halves at most MAX_HALVINGS times to meet
# the Armijo condition with constant ARMIJO. VALID_PATIENCE iterations
# without a lower validation NLL end the solve.
GTOL = 1e-6
MAX_STEP = 2.0
MAX_HALVINGS = 40
ARMIJO = 1e-4
VALID_PATIENCE = 10


def inv_softplus(y: float) -> float:
    return float(np.log(np.expm1(y)))


@dataclass
class DsmConfig(BaseConfig):
    k: int = field(default=3, metadata={"min": 1})
    distribution: str = field(default="weibull", metadata={"choices": ("weibull", "lognormal")})
    warmup_iters: int = field(default=10_000, metadata={"min": 0})  # BFGS iteration cap


class DsmModel(CifModel):
    """Deep Survival Machines with one gate softmax over every risk's components.

    Risk r's incidence is the gated sum of its k components' CDFs. The
    gates of all R*k components sum to one, so the summed incidence over
    risks is at most 1 at any time, also past the training horizon.
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
        # Base parameters start wide: scale near R+1 in rescaled time.
        if cfg.distribution == "weibull":
            a0 = inv_softplus(1.0)
            b0 = inv_softplus(float(self.n_risks + 1))
        else:
            a0 = 1.0 + 0.25 * self.n_risks  # log-normal location (raw)
            b0 = inv_softplus(1.0)
        # risk by risk: base jitters, then shift heads, which start small so
        # phase 2 begins near the warm-up fit; then laid side by side
        draws = [(a0 + rng.normal(0.0, 0.05, size=cfg.k), b0 + rng.normal(0.0, 0.05, size=cfg.k),
                  0.1 * xavier_uniform(rng, width, cfg.k, (width, cfg.k)),
                  0.1 * xavier_uniform(rng, width, cfg.k, (width, cfg.k)))
                 for _ in range(self.n_risks)]
        self.base_a, self.base_b, self.head_a, self.head_b = (
            self.graph.parameter(name, np.concatenate(arrays, axis=-1))
            for name, arrays in zip(("base_a", "base_b", "head_a", "head_b"), zip(*draws)))
        n_comp = self.n_risks * cfg.k
        self.gate_w = self.graph.parameter(
            "gate_w", xavier_uniform(rng, width, n_comp, (width, n_comp)))
        self.gate_b = self.graph.parameter("gate_b", np.zeros(n_comp))

    # -- mixture pieces ------------------------------------------------------

    def _components(self, h: Tensor):
        """(a, b) tensors of shape (nb, R*k), risk-major: base plus encoder shifts."""
        return tadd(self.base_a, h @ self.head_a), tadd(self.base_b, h @ self.head_b)

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

    def _gate_logits(self, h: Tensor) -> Tensor:
        return tadd(h @ self.gate_w, self.gate_b)

    def _mixture(self, u_col: Tensor, h: Tensor):
        """Log gates, component log densities and component CDFs, each (nb, R*k)."""
        log_pdf, cdf = self._log_pdf_and_cdf(u_col, *self._components(h))
        logits = self._gate_logits(h)
        return tsub(logits, logsumexp(logits, axis=-1, keepdims=True)), log_pdf, cdf

    # -- likelihood -----------------------------------------------------------

    def _loss(self, x, t, e, rng, training):
        u_col = Tensor(np.maximum(t / self.t_scale, 1e-10)[:, None])
        h = self.encoder(Tensor(x), rng=rng, training=training)
        log_gates, log_pdf, cdf = self._mixture(u_col, h)
        # every row's log density of every risk, (nb, R): its components' gated sum
        joint = tadd(log_gates, log_pdf).reshape(len(t), self.n_risks, self.config.k)
        log_f = logsumexp(joint, axis=-1)
        is_risk = Tensor((e[:, None] == np.arange(1, self.n_risks + 1)).astype(np.float64))
        surv = tsub(1.0, tsum(mul(texp(log_gates), cdf), axis=-1))
        return self._nll(tsum(mul(is_risk, log_f)), surv, e, training)

    def _covariate_free_rows(self, cohort):
        """A cohort as `_covariate_free_nll` takes it: the event rows' log
        rescaled times (1, n_e), their risks one-hot (R, n_e), and the
        censored rows' log times (1, n_c)."""
        log_u = np.log(np.maximum(cohort.times / self.t_scale, 1e-10))
        is_event = cohort.events > 0
        member = (cohort.events[is_event] == np.arange(1, self.n_risks + 1)[:, None]).astype(float)
        return log_u[None, is_event], member, log_u[None, ~is_event]

    def _pre_fit(self, train, valid):
        """Covariate-free maximum likelihood over the base parameters and gate biases.

        BFGS on `_covariate_free_nll` of the training rows, stopped on the
        same NLL of the validation rows; only base_a, base_b and gate_b
        move, to the best-validation iterate. Returns (iterations, stop).
        """
        cfg = self.config
        if cfg.warmup_iters <= 0:
            return 0, "none"
        shape = (3, self.n_risks, cfg.k)
        fit_rows = self._covariate_free_rows(train)
        valid_rows = self._covariate_free_rows(valid)

        def objective(x):
            nll, grad = _covariate_free_nll(cfg.distribution, x.reshape(shape), *fit_rows)
            return nll, grad.ravel()

        def valid_nll(x):
            return _covariate_free_nll(cfg.distribution, x.reshape(shape), *valid_rows)[0]

        moved = (self.base_a, self.base_b, self.gate_b)
        start = np.concatenate([p.data for p in moved])
        best, iters, stop = _bfgs(objective, valid_nll, start, cfg.warmup_iters)
        for p, value in zip(moved, best.reshape(3, -1)):
            p.data[...] = value
        return iters, stop

    # -- prediction -------------------------------------------------------------

    def _cif_pairs(self, x: np.ndarray, times: np.ndarray, r: int):
        """Encoder, gates and risk r's per-subject CDF parameters once; its
        CDFs per pair, in numpy, in place, with no log density."""
        h = self.encoder(Tensor(x))
        cols = slice((r - 1) * self.config.k, r * self.config.k)
        a, b = (p.data[:, cols] for p in self._components(h))
        gates = softmax(self._gate_logits(h), axis=-1).data[:, cols]
        log_u = np.log(np.maximum(times / self.t_scale, 1e-300))
        # `_log_pdf_and_cdf`'s CDF, operation for operation, so the bits match
        if self.config.distribution == "weibull":
            shape, log_scale = np.logaddexp(0.0, a), np.log(np.logaddexp(0.0, b))

            def cdf(ti, ri):
                c = log_u[ti, None] - log_scale[ri]
                c *= shape[ri]
                np.exp(c, out=c)  # (u/scale)^shape
                np.negative(c, out=c)
                np.exp(c, out=c)
                return np.subtract(1.0, c, out=c)
        else:
            from scipy.special import erf  # lazily, as `terf`: scipy is slow to import

            inv_sigma = 1.0 / np.logaddexp(0.0, b)

            def cdf(ti, ri):
                c = log_u[ti, None] - a[ri]
                c *= inv_sigma[ri]
                c *= 1.0 / np.sqrt(2.0)
                erf(c, out=c)
                c += 1.0
                c *= 0.5
                return c

        def at(ti, ri):
            c = cdf(ti, ri)
            c *= gates[ri]
            return c.sum(axis=-1)

        return at


def _covariate_free_nll(distribution: str, params, log_u_event, member, log_u_cens):
    """Covariate-free mixture NLL and its gradient.

    The value is the tape likelihood's with zero shift heads and zero gate
    weights, so every subject has the gates pi = softmax(gate biases): the
    event term and the censored term clamped at PROB_FLOOR (no gradient at
    or below the floor, as `clamp_min`). `params` stacks the risks' base_a,
    base_b and gate biases as a (3, R, k) array. `log_u_event` is the
    (1, n_e) row of log rescaled event times and `member` the (R, n_e)
    one-hot of their risks; `log_u_cens` is the (1, n_c) row of the
    censored subjects' log times. Returns (nll, grad), the gradient laid
    out as `params`.

    Arrays run components down and subjects across, because numpy reduces
    a short trailing axis an order of magnitude slower than a leading one.
    Per-subject parameters are gathered, and per-risk sums scattered, by
    products with the one-hot `member`, which are exact for finite values.
    """
    base_a, base_b, gate_b = params
    n_risks, k = base_a.shape
    n_events = log_u_event.shape[1]
    n = n_events + log_u_cens.shape[1]
    lu, luc = log_u_event, log_u_cens
    top = gate_b.max()
    log_pi = gate_b - (top + np.log(np.exp(gate_b - top).sum()))
    pi = np.exp(log_pi)

    def per_event(values):  # (R, k) -> (k, n_e), each subject its risk's row
        return values.T @ member

    def per_censored(values):  # (R, k) -> (R * k, 1)
        return values.reshape(-1, 1)

    # Each branch gives, for the event subjects, the gated log density and
    # its derivatives in two primitive parameters (p1, p2); for the censored
    # subjects, the CDF of every risk's components and its derivatives in
    # the same two; and dp1/da, dp2/db.
    if distribution == "weibull":  # p1 = shape, p2 = log scale
        shape = np.logaddexp(0.0, base_a)
        scale = np.logaddexp(0.0, base_b)
        log_scale = np.log(scale)
        # one logistic call for both: at (R, k) numpy's per-call cost dominates
        dp = logistic(np.concatenate((base_a, base_b)))
        dp1, dp2 = dp[:n_risks], dp[n_risks:] / scale
        shape_e = per_event(shape)
        dist = lu - per_event(log_scale)  # log(u / scale)
        w = shape_e * dist
        z = np.exp(w)
        log_pdf = per_event(np.log(shape) + log_pi) + w - lu - z
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
        from scipy.special import erf

        sigma = np.logaddexp(0.0, base_b)
        inv_sigma = 1.0 / sigma
        dp1, dp2 = 1.0, logistic(base_b)
        inv_sigma_e = per_event(inv_sigma)
        zz = (lu - per_event(base_a)) * inv_sigma_e
        log_pdf = per_event(log_pi - np.log(sigma) - 0.5 * LOG_2PI) - lu - 0.5 * zz * zz
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
    resp = ex / total_ex  # each event subject's posterior over its risk's components
    total = pi.ravel() @ cdf
    surv = 1.0 - total
    cens = float(np.log(np.maximum(surv, PROB_FLOOR)).sum())
    weights = (surv > PROB_FLOOR) / np.maximum(surv, PROB_FLOOR) / n

    def per_risk(values):  # (k, n_e) -> (R, k), summed over each risk's subjects
        return (values @ member.T).T

    grad = np.empty_like(params)
    for out, dp, dc, dl in ((grad[0], dp1, dcdf1, dlp1), (grad[1], dp2, dcdf2, dlp2)):
        out[...] = dp * (pi * (dc @ weights).reshape(n_risks, k) - per_risk(resp * dl) / n)
    # d log pi_j / d gate_m = [j = m] - pi_m
    grad[2] = (pi * ((cdf @ weights).reshape(n_risks, k) - total @ weights)
               - (per_risk(resp) - n_events * pi) / n)
    return -(loglik + cens) / n, grad


def _bfgs(objective, valid_nll, x: np.ndarray, max_iters: int):
    """Minimise `objective` from x by BFGS, stopped early on `valid_nll`.

    `objective(x)` returns (value, gradient). Each step follows the
    inverse-Hessian direction, shrunk so that no coordinate moves more than
    MAX_STEP, and halves until it meets the Armijo condition at a finite
    point. The inverse Hessian is updated only where s.y > 1e-12. The solve
    stops when the largest gradient entry is below GTOL ("gtol"), after
    VALID_PATIENCE iterations without a lower `valid_nll` ("valid"), or
    after `max_iters` iterations ("cap"). A step that no halving makes
    acceptable also ends it as "gtol": the value is then flat to rounding
    along the step. Returns the iterate with the lowest validation NLL, the
    iterations run and the stop reason.
    """
    value, grad = objective(x)
    inv_h = np.eye(x.size)
    best_x, best_valid, since_best = x, valid_nll(x), 0
    for it in range(max_iters):
        if np.max(np.abs(grad)) < GTOL:
            return best_x, it, "gtol"
        step = -(inv_h @ grad)
        step *= min(1.0, MAX_STEP / np.max(np.abs(step)))
        slope = grad @ step
        alpha = 1.0
        for _ in range(MAX_HALVINGS):
            trial = x + alpha * step
            # a trial point may overflow; it is then rejected, not reported
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                t_value, t_grad = objective(trial)
            if (np.isfinite(t_value) and np.all(np.isfinite(t_grad))
                    and t_value <= value + ARMIJO * alpha * slope):
                break
            alpha *= 0.5
        else:  # no halving lowers the value: it is flat to rounding here
            return best_x, it, "gtol"
        s, y = trial - x, t_grad - grad
        sy = s @ y
        if sy > 1e-12:
            hy = inv_h @ y
            inv_h += ((sy + y @ hy) / sy**2) * np.outer(s, s)
            inv_h -= (np.outer(hy, s) + np.outer(s, hy)) / sy
        x, value, grad = trial, t_value, t_grad
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            v = valid_nll(x)  # inf or NaN counts as no gain
        if v < best_valid:
            best_x, best_valid, since_best = x, v, 0
        else:
            since_best += 1
            if since_best >= VALID_PATIENCE:
                return best_x, it + 1, "valid"
    return best_x, max_iters, "cap"
