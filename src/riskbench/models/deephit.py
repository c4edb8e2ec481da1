"""Discrete-time joint model over (time-bin, risk) masses.

Observed times are quantized into L quantile bins; a shared encoder feeds
per-risk subnetworks (which also see the raw covariates) whose stacked
logits pass through one joint softmax, so all L*R masses sum to one. The
CIF is the running sum of a risk's bin masses. The loss is the discrete
likelihood plus an optional pairwise ranking penalty.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..gradcore import (
    MLP,
    Tensor,
    concat,
    matmul,
    mul,
    softmax,
    texp,
    transpose,
    tsum,
)
from ..gradcore import add as tadd
from ..gradcore import sub as tsub
from .base import BaseConfig, CifModel


def _censored_keep(bins: np.ndarray, e: np.ndarray, n_bins: int, n_risks: int) -> np.ndarray:
    """0/1 selector of the masses at or beyond each censored row's bin.

    Shape (n, n_risks * n_bins), risk-major like the joint softmax; rows
    with an event are all zero. `bins` are 1-based.
    """
    at_or_after = np.arange(1, n_bins + 1)[None, :] >= bins[:, None]
    block = at_or_after & (e == 0)[:, None]
    return np.tile(block, (1, n_risks)).astype(np.float64)


@dataclass
class DeepHitConfig(BaseConfig):
    bins: int = 15
    alpha: float = 0.1  # ranking penalty coefficient
    sigma: float = 1.0  # ranking penalty sharpness


class DeepHitModel(CifModel):
    kind = "deephit"
    config_class = DeepHitConfig
    edges = np.array([])  # upper bin edges, strictly increasing; set by _prepare

    # -- discretization ------------------------------------------------------

    def _prepare(self, train) -> None:
        super()._prepare(train)
        L = self.config.bins
        qs = np.quantile(train.times, np.linspace(0.0, 1.0, L + 1))
        qs[0] = 0.0
        edges = np.unique(qs)
        if edges[0] == 0.0:
            edges = edges[1:]  # keep upper edges only
        if len(edges) < L:
            warnings.warn(
                f"deephit: {L - len(edges)} empty time bins merged "
                f"({len(edges)} effective bins)", stacklevel=2)
        self.edges = edges

    @property
    def n_bins(self) -> int:
        return len(self.edges)

    def _bin_of(self, t: np.ndarray) -> np.ndarray:
        """1-based bin containing each time; 0 for t <= 0; clamped to L."""
        t = np.asarray(t, dtype=np.float64)
        raw = np.searchsorted(self.edges, t, side="left") + 1
        raw = np.minimum(raw, self.n_bins)
        return np.where(t <= 0.0, 0, raw).astype(np.int64)

    # -- network ---------------------------------------------------------------

    def _build_heads(self, rng: np.random.Generator, width: int) -> None:
        cfg = self.config
        self.heads = [
            MLP(self.graph, f"head{r}", [width + self.d, cfg.nodes, self.n_bins], rng,
                activation="relu", drop=cfg.dropout)
            for r in range(self.n_risks)
        ]

    def _masses(self, x: np.ndarray, rng, training) -> Tensor:
        """Joint softmax masses, shape (n, R * L), risk-major."""
        xt = Tensor(x)
        h = self.encoder(xt, rng=rng, training=training)
        hx = concat([h, xt], axis=-1)
        logits = concat([head(hx, rng=rng, training=training) for head in self.heads],
                        axis=-1)
        return softmax(logits, axis=-1)

    # -- loss ---------------------------------------------------------------------

    def _loss(self, x, t, e, rng, training):
        nb = len(t)
        L, R = self.n_bins, self.n_risks
        y = self._masses(x, rng, training)  # (nb, R*L)
        bins = np.maximum(self._bin_of(t), 1)  # events/censoring at t=0 use bin 1

        # event term: mass of the subject's own (risk, bin)
        pick = np.zeros((nb, R * L))
        rows = np.nonzero(e > 0)[0]
        pick[rows, (e[rows] - 1) * L + (bins[rows] - 1)] = 1.0
        own_mass = tsum(mul(y, Tensor(pick)), axis=-1)
        event_ll = self._clamped_log_sum(own_mass, e > 0, training)

        # censored term: mass at or beyond the censoring bin, over all risks
        remaining = tsum(mul(y, Tensor(_censored_keep(bins, e, L, R))), axis=-1)
        loss = self._nll(event_ll, remaining, e, training)
        if self.config.alpha > 0.0:
            penalty = self._ranking_penalty(y, t, e)
            if penalty is not None:
                loss = tadd(loss, mul(penalty, self.config.alpha))
        return loss

    def _ranking_penalty(self, y: Tensor, t: np.ndarray, e: np.ndarray):
        """Pairwise penalty exp(-(F_r(t_i|x_i) - F_r(t_i|x_j)) / sigma) over
        pairs with e_i = r and t_i < t_j, averaged within each risk and
        summed over risks so rare risks keep full ranking pressure."""
        nb = len(t)
        L, R = self.n_bins, self.n_risks
        lower = np.tril(np.ones((L, L)))  # lower[j, l] = 1 for j <= l
        total = None
        for r in range(R):
            idx = np.nonzero(e == r + 1)[0]
            if idx.size == 0:
                continue
            pair_mask = t[None, :] > t[idx][:, None]  # (n_ev, nb)
            n_pairs = int(pair_mask.sum())
            if n_pairs == 0:
                continue
            sel = np.zeros((nb, R * L))
            sel[:, r * L : (r + 1) * L] = 1.0
            y_r = mul(y, Tensor(sel))
            y_r = tsum(y_r.reshape(nb, R, L), axis=1)  # (nb, L), zeros elsewhere
            cum = matmul(y_r, Tensor(lower))  # running CIF per bin
            onehot = np.zeros((idx.size, L))
            onehot[np.arange(idx.size), np.maximum(self._bin_of(t[idx]), 1) - 1] = 1.0
            f_at_ti = matmul(cum, Tensor(onehot.T))  # (nb, n_ev): F_r(t_i | x_j)
            own_sel = np.zeros((nb, idx.size))
            own_sel[idx, np.arange(idx.size)] = 1.0
            own = tsum(mul(f_at_ti, Tensor(own_sel)), axis=0)  # (n_ev,)
            diff = tsub(own.reshape(idx.size, 1), transpose(f_at_ti, (1, 0)))
            contrib = mul(texp(mul(diff, -1.0 / self.config.sigma)),
                          Tensor(pair_mask.astype(np.float64)))
            term = mul(tsum(contrib), 1.0 / n_pairs)
            total = term if total is None else tadd(total, term)
        return total

    # -- prediction ------------------------------------------------------------------

    def _cif_curves(self, x: np.ndarray, times: np.ndarray, r: int) -> np.ndarray:
        """Masses once; each distinct bin's running sum once, gathered per time."""
        y = self._masses(x, None, training=False).data
        lo = (r - 1) * self.n_bins
        bins = self._bin_of(times)
        sums = np.zeros((self.n_bins + 1, x.shape[0]))
        for l in np.unique(bins):
            sums[l] = y[:, lo : lo + l].sum(axis=1)
        return sums[bins]

    def _extra_state(self) -> dict:
        return {"edges": self.edges.tolist()}

    def _load_extra_state(self, doc: dict) -> None:
        self.edges = np.asarray(doc["edges"], dtype=np.float64)
