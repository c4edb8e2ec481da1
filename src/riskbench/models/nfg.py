"""Risk-balance survival model with monotone time networks.

F_r(t|x) = B(E(x))_r * (1 - exp(-t * M_r(t, E(x)))) where B is a softmax
head over risks and each M_r is positive and non-decreasing in t: weights
on every path from the time input are squared before use, hidden
activations are tanh, and a final softplus keeps the output positive.
Since t >= 0, M > 0 and dM/dt >= 0 imply t*M is non-decreasing.

The event density dF_r/dt is assembled on the tape by propagating the
time derivative layer by layer (forward tangents), so parameter gradients
of the likelihood flow through the derivative with no hand-derived
formula. Only the likelihood needs that tangent; a CIF query computes the
embedding term E(x) @ W once and runs just the time path per query time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gradcore import (
    ParamGraph,
    Tensor,
    mul,
    sigmoid,
    softmax,
    softplus,
    tanh,
    texp,
    xavier_uniform,
)
from ..gradcore import add as tadd
from ..gradcore import sub as tsub
from .base import BaseConfig, CifModel, evaluate_pairs


@dataclass
class NfgConfig(BaseConfig):
    monotone_layers: int = 2
    monotone_nodes: int = 32


class MonotoneNet:
    """Positive scalar network, non-decreasing in its time input."""

    def __init__(self, graph: ParamGraph, name: str, d_emb: int, width: int,
                 depth: int, rng: np.random.Generator):
        self.w_time = graph.parameter(f"{name}.w_time",
                                      xavier_uniform(rng, 1, width, (1, width)))
        self.w_emb = graph.parameter(f"{name}.w_emb",
                                     xavier_uniform(rng, d_emb, width, (d_emb, width)))
        self.b_in = graph.parameter(f"{name}.b_in", np.zeros(width))
        self.hidden_w = [
            graph.parameter(f"{name}.h{i}.w", xavier_uniform(rng, width, width, (width, width)))
            for i in range(depth - 1)
        ]
        self.hidden_b = [graph.parameter(f"{name}.h{i}.b", np.zeros(width))
                         for i in range(depth - 1)]
        self.w_out = graph.parameter(f"{name}.w_out",
                                     xavier_uniform(rng, width, 1, (width, 1)))
        self.b_out = graph.parameter(f"{name}.b_out", np.zeros(1))

    def forward(self, u_col: Tensor, proj: Tensor) -> tuple[Tensor, tuple]:
        """M (n, 1) at rescaled times u, given the embedding term emb @ w_emb.

        Also returns the record of squared weights and activations that
        tangent() differentiates.
        """
        wt2 = mul(self.w_time, self.w_time)
        a = tanh(tadd(tadd(u_col @ wt2, proj), self.b_in))
        layers = [(wt2, a)]
        for w, b in zip(self.hidden_w, self.hidden_b):
            w2 = mul(w, w)
            a = tanh(tadd(a @ w2, b))
            layers.append((w2, a))
        w2 = mul(self.w_out, self.w_out)
        z_out = tadd(a @ w2, self.b_out)
        return softplus(z_out), (layers, w2, z_out)

    @staticmethod
    def tangent(record: tuple) -> Tensor:
        """dM/du (n, 1), carried forward through the layers of `record`."""
        layers, w_out2, z_out = record
        wt2, a = layers[0]
        dz = Tensor(np.ones((a.shape[0], 1))) @ wt2
        da = mul(tsub(1.0, mul(a, a)), dz)
        for w2, a in layers[1:]:
            da = mul(tsub(1.0, mul(a, a)), da @ w2)
        return mul(sigmoid(z_out), da @ w_out2)


class NfgModel(CifModel):
    kind = "nfg"
    config_class = NfgConfig

    def _build_heads(self, rng: np.random.Generator, width: int) -> None:
        cfg = self.config
        self.balance_w = self.graph.parameter(
            "balance.w", xavier_uniform(rng, width, self.n_risks, (width, self.n_risks)))
        self.balance_b = self.graph.parameter("balance.b", np.zeros(self.n_risks))
        self.monotone = [
            MonotoneNet(self.graph, f"mono{r}", width, cfg.monotone_nodes,
                        cfg.monotone_layers, rng)
            for r in range(self.n_risks)
        ]

    def _balance(self, h: Tensor) -> Tensor:
        return softmax(tadd(h @ self.balance_w, self.balance_b), axis=-1)

    def _balance_col(self, balance: Tensor, r: int) -> Tensor:
        """B(E(x))_r as an (n, 1) column."""
        return mul(balance, Tensor(_one_hot(r, self.n_risks))).sum(axis=-1, keepdims=True)

    def _risk_cif(self, r: int, u_col: Tensor, proj: Tensor, b_col: Tensor):
        """CIF (n, 1) of risk r, plus M, exp(-u*M) and the monotone record."""
        m, record = self.monotone[r].forward(u_col, proj)
        decay = texp(mul(mul(u_col, m), -1.0))
        return mul(b_col, tsub(1.0, decay)), m, decay, record

    def _risk_cif_density(self, r: int, u_col: Tensor, h: Tensor, balance: Tensor):
        """CIF (n,) and density in rescaled time (n,) for risk r."""
        b_col = self._balance_col(balance, r)
        cif, m, decay, record = self._risk_cif(r, u_col, h @ self.monotone[r].w_emb, b_col)
        dm = self.monotone[r].tangent(record)
        # dF/du = B_r * exp(-u*M) * (M + u * dM/du)
        density = mul(mul(b_col, decay), tadd(m, mul(u_col, dm)))
        return cif.reshape(-1), density.reshape(-1)

    def _loss(self, x, t, e, rng, training):
        u_col = Tensor(np.maximum(t / self.t_scale, 1e-10)[:, None])
        h = self.encoder(Tensor(x), rng=rng, training=training)
        balance = self._balance(h)
        loglik = None
        total_cif = None
        for r in range(self.n_risks):
            cif, density = self._risk_cif_density(r, u_col, h, balance)
            term = self._clamped_log_sum(density, e == r + 1, training)
            loglik = term if loglik is None else tadd(loglik, term)
            total_cif = cif if total_cif is None else tadd(total_cif, cif)
        return self._nll(loglik, tsub(1.0, total_cif), e, training)

    def _cif_curves(self, x: np.ndarray, times: np.ndarray, r: int) -> np.ndarray:
        """Encoder, balance and emb @ w_emb once; the time path per pair."""
        h = self.encoder(Tensor(x))
        proj = (h @ self.monotone[r - 1].w_emb).data
        b_col = self._balance_col(self._balance(h), r - 1).data
        u = times / self.t_scale

        def at(ti, ri):
            cif, *_ = self._risk_cif(r - 1, Tensor(u[ti, None]), Tensor(proj[ri]),
                                     Tensor(b_col[ri]))
            return cif.data[:, 0]

        return evaluate_pairs(times.size, x.shape[0], at)

    def balance_head(self, x: np.ndarray) -> np.ndarray:
        """Softmax risk-balance probabilities B(E(x)); rows sum to one."""
        h = self.encoder(Tensor(np.atleast_2d(x)))
        return self._balance(h).data.copy()

    def monotone_value(self, x: np.ndarray, t: float, r: int) -> tuple[np.ndarray, np.ndarray]:
        """(M, dM/du) of the fitted risk-r monotone net at rescaled time."""
        u = np.full((np.atleast_2d(x).shape[0], 1), t / self.t_scale)
        h = self.encoder(Tensor(np.atleast_2d(x)))
        net = self.monotone[r - 1]
        m, record = net.forward(Tensor(u), h @ net.w_emb)
        return m.data.copy(), net.tangent(record).data.copy()


def _one_hot(index: int, size: int) -> np.ndarray:
    v = np.zeros(size)
    v[index] = 1.0
    return v
