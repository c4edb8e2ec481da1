"""Risk-balance survival model with monotone time networks.

F_r(t|x) = B(E(x))_r * (1 - exp(-t * M_r(t, E(x)))) where B is a softmax
head over risks and each M_r is positive and non-decreasing in t: weights
on every path from the time input are squared before use, hidden
activations are tanh, and a final softplus keeps the output positive.
Since t >= 0, M > 0 and dM/dt >= 0 imply t*M is non-decreasing.

The R time networks are one stack: every weight has a leading risk axis,
and the embedding weights of all risks form one (width, R*w) matrix, so
one pass evaluates every risk. The event density dF_r/dt is assembled on
the tape by propagating the time derivative layer by layer (forward
tangents), so parameter gradients of the likelihood flow through the
derivative with no hand-derived formula. Only the likelihood needs that
tangent and the tape. A CIF query computes the encoder, the balance and
the embedding term E(x) @ W once, then runs risk r's forward time path per
(time, subject) pair in plain numpy, with the operations of `time_net` in
its order, so its values are bit-equal to the tape's forward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gradcore import (
    Tensor,
    mul,
    sigmoid,
    softmax,
    softplus,
    tanh,
    texp,
    transpose,
    tsum,
    xavier_uniform,
)
from ..gradcore import add as tadd
from ..gradcore import sub as tsub
from .base import CHUNK_ROWS, BaseConfig, CifModel


@dataclass
class NfgConfig(BaseConfig):
    monotone_layers: int = field(default=2, metadata={"min": 0})
    monotone_nodes: int = field(default=32, metadata={"min": 1})


def time_net(u_col, proj, net: list):
    """M at rescaled times u_col (n, 1), given the embedding term `proj`,
    and its forward tangent dM/du; the likelihood's time path.

    `net` lists the weights [w_time, b_in, (w, b) of each hidden layer,
    w_out, b_out], either stacked over risks, giving (R, n, 1) outputs from
    a (R, n, w) `proj`, or one risk's, giving (n, 1) from (n, w). CIF
    queries do not call it: `NfgModel._cif_pairs` repeats its forward in
    numpy, and a change here must be made there too.
    """
    w_time, b_in, *hidden, w_out, b_out = net
    wt2 = mul(w_time, w_time)
    a = tanh(tadd(tadd(mul(u_col, wt2), proj), b_in))
    da = mul(tsub(1.0, mul(a, a)), wt2)
    for w, b in zip(hidden[::2], hidden[1::2]):
        w2 = mul(w, w)
        a = tanh(tadd(a @ w2, b))
        da = mul(tsub(1.0, mul(a, a)), da @ w2)
    w2 = mul(w_out, w_out)
    z_out = tadd(a @ w2, b_out)
    return softplus(z_out), mul(sigmoid(z_out), da @ w2)


class NfgModel(CifModel):
    kind = "nfg"
    config_class = NfgConfig

    def _build_heads(self, rng: np.random.Generator, width: int) -> None:
        n_risks, w = self.n_risks, self.config.monotone_nodes
        self.balance_w = self.graph.parameter(
            "balance.w", xavier_uniform(rng, width, n_risks, (width, n_risks)))
        self.balance_b = self.graph.parameter("balance.b", np.zeros(n_risks))
        # risk by risk, each net's weights in the order time, embedding,
        # hidden, output; then stacked on a leading risk axis
        fans = [(1, w), (width, w)] + [(w, w)] * (self.config.monotone_layers - 1) + [(w, 1)]
        draws = [[xavier_uniform(rng, a, b, (a, b)) for a, b in fans] for _ in range(n_risks)]
        w_time, w_emb, *hidden, w_out = (np.stack(ws) for ws in zip(*draws))
        param, bias = self.graph.parameter, np.zeros((n_risks, 1, w))
        self.w_emb = param("mono.w_emb", np.concatenate(w_emb, axis=1))
        self.net = [param("mono.w_time", w_time), param("mono.b_in", bias)]
        for i, hw in enumerate(hidden):
            self.net += [param(f"mono.h{i}.w", hw), param(f"mono.h{i}.b", bias)]
        self.net += [param("mono.w_out", w_out), param("mono.b_out", np.zeros((n_risks, 1, 1)))]

    def _balance(self, h: Tensor) -> Tensor:
        return softmax(tadd(h @ self.balance_w, self.balance_b), axis=-1)

    def _cif_density(self, u_col: Tensor, h: Tensor) -> tuple[Tensor, Tensor]:
        """Every risk's CIF and density (in rescaled time) at u_col, each (n, R)."""
        n, n_risks = h.shape[0], self.n_risks
        proj = transpose((h @ self.w_emb).reshape(n, n_risks, -1), (1, 0, 2))
        m, dm = time_net(u_col, proj, self.net)  # each (R, n, 1)
        m, dm = transpose(m.reshape(n_risks, n)), transpose(dm.reshape(n_risks, n))
        balance = self._balance(h)
        decay = texp(mul(mul(u_col, m), -1.0))
        # dF/du = B * exp(-u*M) * (M + u * dM/du)
        density = mul(mul(balance, decay), tadd(m, mul(u_col, dm)))
        return mul(balance, tsub(1.0, decay)), density

    def _loss(self, x, t, e, rng, training):
        u_col = Tensor(np.maximum(t / self.t_scale, 1e-10)[:, None])
        h = self.encoder(Tensor(x), rng=rng, training=training)
        cif, density = self._cif_density(u_col, h)
        is_risk = e[:, None] == np.arange(1, self.n_risks + 1)
        loglik = self._clamped_log_sum(density, is_risk, training)
        return self._nll(loglik, tsub(1.0, tsum(cif, axis=-1)), e, training)

    def _cif_pairs(self, x: np.ndarray, times: np.ndarray, r: int):
        """Encoder, balance, emb @ w_emb and risk r's squared weights once;
        risk r's forward time path per pair, in numpy, in place in two
        blocks that every call of up to CHUNK_ROWS pairs reuses, so one
        evaluator must not run in two threads at once."""
        h = self.encoder(Tensor(x))
        w = self.config.monotone_nodes
        proj = h.data @ self.w_emb.data[:, (r - 1) * w : r * w]
        b_col = self._balance(h).data[:, r - 1 : r]
        w_time, b_in, *hidden, w_out, b_out = (p.data[r - 1] for p in self.net)
        layers = [(hw * hw, hb) for hw, hb in zip(hidden[::2], hidden[1::2])]
        w_out2 = w_out * w_out
        u = times / self.t_scale
        # the first layer's u * w_time^2 once per query time: a gather per
        # pair costs a fifth of the broadcast product
        u_wt2 = u[:, None] * (w_time * w_time)

        # chunks that allocate and free their blocks let glibc trim the heap
        # top after each one and fault it back in on the next
        blocks = np.empty((2, CHUNK_ROWS, w))

        def at(ti, ri):
            # time_net's forward, operation for operation, so the bits match.
            # np.take buffers its out= under the default mode="raise"; "wrap"
            # does not, reads -1 as the last row as indexing does, and an
            # index past the end still raises at u[ti] and b_col[ri] below
            k = len(ti)
            a, spare = blocks[:, :k] if k <= CHUNK_ROWS else np.empty((2, k, w))
            np.take(u_wt2, ti, axis=0, out=a, mode="wrap")
            a += np.take(proj, ri, axis=0, out=spare, mode="wrap")
            a += b_in
            np.tanh(a, out=a)
            for w2, b in layers:
                a, spare = np.matmul(a, w2, out=spare), a
                a += b
                np.tanh(a, out=a)
            z = a @ w_out2
            z += b_out
            np.logaddexp(0.0, z, out=z)  # M, by softplus
            z *= u[ti, None]
            np.negative(z, out=z)
            np.exp(z, out=z)
            np.subtract(1.0, z, out=z)
            z *= b_col[ri]
            return z[:, 0]

        return at
