"""Layers built on the tape: affine, MLP, layer norm, multi-head attention.

Layers register their parameters into a ParamGraph at construction time
(Xavier-uniform weights, zero biases, seed-derived) and are plain callables
on Tensors afterwards.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    ParamGraph,
    Tensor,
    add,
    affine,
    dropout,
    layer_norm,
    relu,
    reshape,
    sdpa,
    softplus,
    tanh,
    transpose,
)

_ACTIVATIONS = {"relu": relu, "tanh": tanh, "softplus": softplus}


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Linear:
    """x @ w + b, one taped `affine` node."""

    def __init__(self, graph: ParamGraph, name: str, d_in: int, d_out: int,
                 rng: np.random.Generator):
        self.w = graph.parameter(f"{name}.w", xavier_uniform(rng, d_in, d_out, (d_in, d_out)))
        self.b = graph.parameter(f"{name}.b", np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return affine(x, self.w, self.b)


class MLP:
    """Stack of affine layers with a fixed activation and optional dropout.

    `sizes` runs from input width to output width; the activation is applied
    between layers but not after the last one.
    """

    def __init__(self, graph: ParamGraph, name: str, sizes: list[int],
                 rng: np.random.Generator, activation: str = "relu", drop: float = 0.0):
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.layers = [
            Linear(graph, f"{name}.l{i}", sizes[i], sizes[i + 1], rng)
            for i in range(len(sizes) - 1)
        ]
        self.act = _ACTIVATIONS[activation]
        self.drop = drop

    def __call__(self, x: Tensor, rng: np.random.Generator | None = None,
                 training: bool = False) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = self.act(x)
                if self.drop > 0.0 and training:
                    x = dropout(x, self.drop, rng, training=True)
        return x


class LayerNorm:
    """Layer normalization over the last axis with learned gain and shift,
    one taped `layer_norm` node."""

    def __init__(self, graph: ParamGraph, name: str, dim: int):
        self.g = graph.parameter(f"{name}.g", np.ones(dim))
        self.b = graph.parameter(f"{name}.b", np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.g, self.b)


class MultiHeadSelfAttention:
    """Self-attention over a (tokens, dim) sequence, default 4 heads."""

    def __init__(self, graph: ParamGraph, name: str, dim: int,
                 rng: np.random.Generator, heads: int = 4):
        if dim % heads != 0:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.wq = Linear(graph, f"{name}.q", dim, dim, rng)
        self.wk = Linear(graph, f"{name}.k", dim, dim, rng)
        self.wv = Linear(graph, f"{name}.v", dim, dim, rng)
        self.wo = Linear(graph, f"{name}.o", dim, dim, rng)

    def _split(self, x: Tensor, n: int) -> Tensor:
        # (n, dim) -> (heads, n, head_dim)
        return transpose(reshape(x, (n, self.heads, self.head_dim)), (1, 0, 2))

    def __call__(self, x: Tensor) -> Tensor:
        n = x.shape[0]
        q, k, v = self._split(self.wq(x), n), self._split(self.wk(x), n), self._split(self.wv(x), n)
        out = sdpa(q, k, v)
        out = reshape(transpose(out, (1, 0, 2)), (n, self.dim))
        return self.wo(out)


class TransformerBlock:
    """Pre-norm block: x + attn(ln(x)); x + mlp(ln(x))."""

    def __init__(self, graph: ParamGraph, name: str, dim: int, rng: np.random.Generator,
                 heads: int = 4, mlp_ratio: int = 4, drop: float = 0.0):
        self.ln1 = LayerNorm(graph, f"{name}.ln1", dim)
        self.attn = MultiHeadSelfAttention(graph, f"{name}.attn", dim, rng, heads)
        self.ln2 = LayerNorm(graph, f"{name}.ln2", dim)
        self.mlp = MLP(graph, f"{name}.mlp", [dim, mlp_ratio * dim, dim], rng,
                       activation="relu", drop=drop)

    def __call__(self, x: Tensor, rng: np.random.Generator | None = None,
                 training: bool = False) -> Tensor:
        x = add(x, self.attn(self.ln1(x)))
        return add(x, self.mlp(self.ln2(x), rng=rng, training=training))
