"""Adam with decoupled weight decay, in place over flat buffers.

A step runs over `ParamGraph.flat()`, one float64 buffer each for the
parameters and the gradients, and over the two moment buffers kept here,
all in the graph's registration order. Every model packs its graph when
it is built, so a step only fetches the two buffers; a hand-built graph
is packed by its first step. It walks them CHUNK elements at a
time, so every pass over a chunk stays in cache, keeps intermediates in
two reused scratch slices, so it allocates nothing parameter-sized, and
zeroes each gradient chunk when done with it. Each element still goes
through the per-parameter update, operation for operation:
    m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g;  p -= (lr*wd)*p;
    p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps)
Elementwise float64 results do not depend on how elements are grouped
into arrays, and products are only reordered between their two operands,
so the results are bit-identical to updating each parameter on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import ParamGraph

# Elements per chunk: the six 256 KiB slices one chunk touches (parameters,
# gradients, both moments, two scratch) fit in a 2 MiB L2 cache.
CHUNK = 32_768


@dataclass
class AdamState:
    lr: float = 1e-4
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray | None = field(default=None, init=False, repr=False)
    v: np.ndarray | None = field(default=None, init=False, repr=False)
    scratch: np.ndarray | None = field(default=None, init=False, repr=False)


def adam_step(state: AdamState, graph: ParamGraph) -> None:
    """One optimizer step over all parameters; zeroes gradients afterwards.

    Weight decay is decoupled: applied directly to the parameters, not
    through the gradient moments. The moments are allocated at the first
    step; a state must keep stepping the same graph.
    """
    data, grad = graph.flat()
    if state.m is None:
        state.m, state.v = np.zeros_like(data), np.zeros_like(data)
        state.scratch = np.empty((2, min(data.size, CHUNK)))
    elif state.m.size != data.size:
        raise ValueError(f"Adam moments hold {state.m.size} values, "
                         f"the graph has {data.size}")
    state.step += 1
    b1, b2, lr = state.beta1, state.beta2, state.lr
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    decay = lr * state.weight_decay
    for lo in range(0, data.size, CHUNK):
        hi = min(lo + CHUNK, data.size)
        p, g, m, v = data[lo:hi], grad[lo:hi], state.m[lo:hi], state.v[lo:hi]
        s, u = state.scratch[0, : hi - lo], state.scratch[1, : hi - lo]
        m *= b1
        np.multiply(g, 1.0 - b1, out=s)
        m += s
        v *= b2
        np.multiply(g, 1.0 - b2, out=s)
        s *= g
        v += s
        if state.weight_decay != 0.0:
            np.multiply(p, decay, out=s)
            p -= s
        np.divide(v, bc2, out=s)
        np.sqrt(s, out=s)
        s += state.eps
        np.divide(m, bc1, out=u)
        u *= lr
        u /= s
        p -= u
        g.fill(0.0)
