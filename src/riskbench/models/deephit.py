"""Discrete-time joint model over (time-bin, risk) masses.

Observed times are quantized into L quantile bins; a shared encoder feeds
R risk heads, which also see the raw covariates. The heads are four
parameters stacked on a leading risk axis, `head.w1` (R, width+d, nodes),
`head.b1` (R, 1, nodes), `head.w2` (R, nodes, L) and `head.b2` (R, 1, L),
so one pass covers every risk; its risk-major logits go through one joint
softmax, so all L*R masses sum to one. The CIF is the running sum of a
risk's bin masses. The loss is the discrete likelihood plus an optional
pairwise ranking penalty on the CIF, factored over risks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ..gradcore import (
    Tensor,
    affine,
    concat,
    dropout,
    matmul,
    mul,
    relu,
    softmax,
    texp,
    transpose,
    tsum,
    xavier_uniform,
)
from ..gradcore import add as tadd
from .base import BaseConfig, CifModel


def _censored_keep(bins: np.ndarray, e: np.ndarray, n_bins: int, n_risks: int) -> np.ndarray:
    """0/1 selector of the masses at or beyond each censored row's bin.

    Shape (n, n_risks * n_bins), risk-major like the joint softmax; rows
    with an event are all zero. `bins` are 1-based.
    """
    at_or_after = np.arange(1, n_bins + 1)[None, :] >= bins[:, None]
    block = at_or_after & (e == 0)[:, None]
    return np.tile(block, (1, n_risks)).astype(np.float64)


def _linear_quantiles(values: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """np.quantile(values, probs) for probs in [0, 1], bit for bit.

    np.quantile itself calls np.unique, which loads numpy.ma (3 modules).
    This is its default 'linear' method: the same virtual indices, the
    same out-of-range index at the top, and the same two-sided lerp.
    """
    s = np.sort(values)
    virtual = (s.size - 1) * probs
    below = np.floor(virtual).astype(np.intp)
    above = below + 1
    top = virtual >= s.size - 1
    below[top] = above[top] = -1
    gamma = virtual - below
    a, b = s[below], s[above]
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


@dataclass
class DeepHitConfig(BaseConfig):
    bins: int = field(default=15, metadata={"min": 1})
    alpha: float = field(default=0.1, metadata={"min": 0})  # ranking penalty coefficient
    # ranking penalty sharpness, floored so exp(+-1 / sigma) stays finite and normal
    sigma: float = field(default=1.0, metadata={"min": 0.002})


class DeepHitModel(CifModel):
    kind = "deephit"
    config_class = DeepHitConfig
    edges = np.array([])  # upper bin edges, strictly increasing; set by _prepare

    # -- discretization ------------------------------------------------------

    def _prepare(self, train) -> None:
        super()._prepare(train)
        L = self.config.bins
        qs = _linear_quantiles(train.times, np.linspace(0.0, 1.0, L + 1))
        qs[0] = 0.0
        qs.sort()
        edges = qs[np.concatenate(([True], qs[1:] != qs[:-1]))]  # np.unique(qs)
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
        R, L, nodes = self.n_risks, self.n_bins, self.config.nodes
        # drawn risk by risk, each head's w1 then its w2; then stacked
        fans = [(width + self.d, nodes), (nodes, L)]
        draws = [[xavier_uniform(rng, a, b, (a, b)) for a, b in fans] for _ in range(R)]
        w1, w2 = (np.stack(ws) for ws in zip(*draws))
        param = self.graph.parameter
        self.head = (param("head.w1", w1), param("head.b1", np.zeros((R, 1, nodes))),
                     param("head.w2", w2), param("head.b2", np.zeros((R, 1, L))))
        # y @ running_cif is each risk's running CIF, one upper triangle per risk
        self.running_cif = np.kron(np.eye(R), np.triu(np.ones((L, L))))

    def _masses(self, x: np.ndarray, rng, training) -> Tensor:
        """Joint softmax masses, shape (n, R * L), risk-major."""
        xt = Tensor(x)
        h = self.encoder(xt, rng=rng, training=training)
        w1, b1, w2, b2 = self.head
        hidden = relu(affine(concat([h, xt], axis=-1), w1, b1))  # (R, n, nodes)
        hidden = dropout(hidden, self.config.dropout, rng, training)
        logits = transpose(affine(hidden, w2, b2), (1, 0, 2))  # (n, R, L)
        return softmax(logits.reshape(x.shape[0], -1), axis=-1)

    # -- loss ---------------------------------------------------------------------

    def _loss(self, x, t, e, rng, training):
        nb = len(t)
        L, R = self.n_bins, self.n_risks
        y = self._masses(x, rng, training)  # (nb, R*L)
        bins = np.maximum(self._bin_of(t), 1)  # events/censoring at t=0 use bin 1

        # event term: mass of the subject's own (risk, bin); censored rows
        # read column 0, which the e > 0 mask of _clamped_log_sum zeroes
        own_mass = y[np.arange(nb), np.where(e > 0, (e - 1) * L + bins - 1, 0)]
        event_ll = self._clamped_log_sum(own_mass, e > 0, training)

        # censored term: mass at or beyond the censoring bin, over all risks
        remaining = tsum(mul(y, Tensor(_censored_keep(bins, e, L, R))), axis=-1)
        loss = self._nll(event_ll, remaining, e, training)
        if self.config.alpha > 0.0:
            penalty = self._ranking_penalty(y, t, e, bins)
            if penalty is not None:
                loss = tadd(loss, mul(penalty, self.config.alpha))
        return loss

    def _ranking_penalty(self, y: Tensor, t: np.ndarray, e: np.ndarray, bins: np.ndarray):
        """Pairwise penalty exp(-(C[i, c_i] - C[j, c_i]) / sigma) over pairs with
        e_i = r and t_i < t_j, averaged within each risk and summed over risks
        so rare risks keep full ranking pressure; None when no risk has a pair.

        C = y @ `running_cif` is each risk's running CIF F_r(bin | x), as
        `cif_curves` returns it; c_i = (e_i - 1) * L + bin(t_i) - 1.
        A term factors as exp(C[j, c_i] / sigma) * exp(-C[i, c_i] / sigma), so
        one pass over all risks sums w_i exp(-C[i, c_i] / sigma) (M @ exp(C /
        sigma))[i, c_i], with constant M[i, j] = t_j > t_i and w_i = 1 / (pairs
        of e_i's risk), or 0. sigma >= 0.002 keeps exp(+-C / sigma) normal.
        """
        L, R = self.n_bins, self.n_risks
        ev = np.nonzero(e > 0)[0]
        risk = e[ev] - 1
        later = (t[None, :] > t[ev][:, None]).astype(np.float64)  # M, (n_ev, nb)
        pairs = np.bincount(risk, weights=later.sum(axis=1), minlength=R)
        if not pairs.any():
            return None
        weight = (1.0 / np.where(pairs > 0, pairs, np.inf))[risk]
        cols = risk * L + bins[ev] - 1
        cum = matmul(y, Tensor(self.running_cif))  # C, (nb, R*L)
        inv = 1.0 / self.config.sigma
        later_sum = matmul(Tensor(later), texp(mul(cum, inv)))[np.arange(ev.size), cols]
        own = texp(mul(cum[ev, cols], -inv))
        return tsum(mul(mul(own, later_sum), weight))

    # -- prediction ------------------------------------------------------------------

    def _cif_pairs(self, x: np.ndarray, times: np.ndarray, r: int):
        """Masses once; each queried bin's running sum once, gathered per pair."""
        y = self._masses(x, None, training=False).data
        lo = (r - 1) * self.n_bins
        bins = self._bin_of(times)
        queried = np.zeros(self.n_bins + 1, dtype=bool)
        queried[bins] = True  # a mask, not np.unique, which loads numpy.ma
        sums = np.zeros((self.n_bins + 1, x.shape[0]))
        for l in np.flatnonzero(queried):
            sums[l] = y[:, lo : lo + l].sum(axis=1)
        return lambda ti, ri: sums[bins[ti], ri]

    def _extra_state(self) -> dict:
        return {"edges": self.edges.tolist()}

    def _load_extra_state(self, doc: dict) -> None:
        self.edges = np.asarray(doc["edges"], dtype=np.float64)
