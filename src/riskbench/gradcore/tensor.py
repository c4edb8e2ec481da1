"""Dense float64 tensors with a reverse-mode tape.

An operation with at least one input that requires a gradient records its
parents and a backward closure; the tape is rebuilt on each forward pass.
A closure holds the op's inputs and arrays, never its output tensor, so a
tape has no reference cycles and is freed as soon as its result is dropped,
without the cyclic garbage collector. An operation none of whose inputs
requires a gradient records neither, so evaluating under
`ParamGraph.no_grad()` builds no tape. Gradients accumulate into leaf
tensors that were created with requires_grad=True, so repeated backward()
calls without zeroing add up. Single-threaded use of a graph is assumed.

Interior nodes get no zero-filled gradient buffers. A sweep clears their
gradients; a node's first contribution becomes its buffer and later ones
add into it in place. A contribution is copied instead, into a buffer
laid out like the node's data, when it is a view (reshape, transpose,
concat slice, broadcast), is laid out differently, or is also handed to
another parent, as `add` hands its incoming gradient to both operands. A
node drops its buffer once its closure has run (a parent may have taken
it over), so the sweep reuses freed memory and afterwards only leaves
hold gradients. Buffers are laid out as zero-filled ones were, so
reductions and matmuls see the same memory order, and 0 + x == x except
that -0 becomes +0. Signed zeros only pass through products and sums
into leaf accumulators that start at +0, so leaf gradients are
bit-identical to zero-fill-then-add.

`index` (also `Tensor.__getitem__`) is the one op whose backward zero-fills:
it writes `g` into a fresh zero array shaped like its input and hands that
array on as an owned contribution. A basic key (slices, ints, `Ellipsis`,
`None`) selects each entry at most once, so `g` is assigned; any other key
scatters with `np.add.at`, so an entry the key selects twice receives both
gradients. Assigning keeps a -0 that 0 + g would turn to +0, which by the
argument above leaves leaf gradients unchanged.

`affine` and `layer_norm` each record one node for a chain of two or three
(`matmul`, `add`; normalize, `mul`, `add`) and run the chain's array
operations in its order, so values and leaf gradients are bit-equal to it.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform; message names both shapes."""


# The largest float64 whose exp is finite.
_EXP_ARG_MAX = float(np.log(np.finfo(np.float64).max))


def logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x), elementwise, with -x capped at log(DBL_MAX); 0.5 at 0.

    This is the formula of `scipy.special.expit`, written in numpy so that
    importing gradcore does not import scipy. It is not bit-equal to expit:
    numpy's vectorised `exp` and the C library's `exp` round differently,
    so about 2% of float64 inputs differ, by at most 4 ulp. The
    `exp(-logaddexp(0, -x))` form differs far more often. The cap keeps
    `exp` from overflowing without an `np.errstate` block, which costs more
    than the arithmetic on the (R, k) arrays of the DSM warm-up. It changes
    only x < -709.78, where expit's e^-x overflows to give 0 and this
    gives about 5.6e-309.
    """
    return 1.0 / (1.0 + np.exp(np.minimum(-x, _EXP_ARG_MAX)))


def _accumulate(t: "Tensor", g, owned: bool = True) -> None:
    """Add the contribution `g` into `t.grad` by the rules in the module
    docstring; `owned=False` marks a `g` that another parent also receives."""
    if t.grad is not None:
        t.grad += g
    elif (owned and type(g) is np.ndarray and g.base is None
          and g.shape == t.data.shape and g.strides == t.data.strides):
        t.grad = g
    else:
        t.grad = np.empty_like(t.data)
        t.grad[...] = g


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, dim in enumerate(shape):
        if dim == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


class Tensor:
    """A numpy float64 array plus the tape bookkeeping for backward()."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        # Leaves own a persistent accumulator; intermediates get one lazily.
        self.grad = np.zeros_like(self.data) if (requires_grad and not _parents) else None
        if self.requires_grad:
            self._parents = _parents
            self._backward = _backward
        else:
            self._parents = ()
            self._backward = None

    # -- introspection ------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, grad={'yes' if self.requires_grad else 'no'})"

    # -- backward -----------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar loss.

        Runs each interior node's closure once, in reverse topological
        order of a depth-first walk over parents in order; a node with
        several consumers sums their contributions in that order, which
        fixes its gradient's bits. Raises ShapeError on a non-scalar.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._parents:
                node.grad = None  # interior: the first contribution sets it
            stack.append((node, True))
            for p in node._parents:
                # leaves have no closure: only interior nodes are walked
                if p._parents and id(p) not in seen:
                    stack.append((p, False))
        if self._parents or self.grad is None:
            self.grad = np.ones_like(self.data)
        else:
            self.grad += 1.0
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None

    # -- operators ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __getitem__(self, key):
        return index(self, key)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, axes=None):
        return transpose(self, axes)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


class ParamGraph:
    """Named parameter registry; the operation record lives on the tensors.

    Every parameter is a leaf Tensor with a same-shaped gradient buffer.
    """

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self._flat: tuple[np.ndarray, np.ndarray] | None = None

    def parameter(self, name: str, array: np.ndarray) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.array(array, dtype=np.float64), requires_grad=True)
        self.params[name] = t
        return t

    @contextmanager
    def no_grad(self):
        """Evaluate without a tape: inside, no parameter requires a gradient.

        Operations on the parameters then record no parents and no backward
        closures. The previous flags are restored on exit.
        """
        flags = [(t, t.requires_grad) for t in self.params.values()]
        for t, _ in flags:
            t.requires_grad = False
        try:
            yield
        finally:
            for t, flag in flags:
                t.requires_grad = flag

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """All parameters and all gradients as one float64 buffer each.

        The first call packs: it copies every tensor's data and grad into the
        buffers, in registration order, and rebinds both as views into them.
        A later call packs again if some tensor no longer views the buffers,
        as when another graph sharing the tensor has packed it since; the
        copy then starts from the tensor's current values, never stale ones.
        """
        flat = self._flat
        if flat is None or not all(t.data.base is flat[0] and t.grad.base is flat[1]
                                   for t in self.params.values()):
            size = sum(t.data.size for t in self.params.values())
            data, grad = np.empty(size), np.empty(size)
            lo = 0
            for t in self.params.values():
                hi, shape = lo + t.data.size, t.data.shape
                data[lo:hi] = t.data.reshape(-1)
                grad[lo:hi] = t.grad.reshape(-1)
                t.data, t.grad = data[lo:hi].reshape(shape), grad[lo:hi].reshape(shape)
                lo = hi
            flat = self._flat = (data, grad)
        return flat

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad[...] = 0.0

    def named_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for name, t in self.params.items():
            if name not in arrays:
                raise KeyError(f"missing parameter {name!r} in state")
            src = np.asarray(arrays[name], dtype=np.float64)
            if src.shape != t.data.shape:
                raise ShapeError(
                    f"parameter {name!r}: stored shape {src.shape} vs live shape {t.data.shape}"
                )
            t.data[...] = src

    def __len__(self):
        return len(self.params)


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bwd(g):
        ga = None
        if a.requires_grad:
            ga = _unbroadcast(g, a.data.shape)
            _accumulate(a, ga)
        if b.requires_grad:
            gb = _unbroadcast(g, b.data.shape)
            _accumulate(b, gb, owned=gb is not ga)

    return Tensor(a.data + b.data, _parents=(a, b), _backward=bwd)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.data.shape))

    return Tensor(a.data - b.data, _parents=(a, b), _backward=bwd)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return Tensor(a.data * b.data, _parents=(a, b), _backward=bwd)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return Tensor(a.data / b.data, _parents=(a, b), _backward=bwd)


def _check_matmul(a: Tensor, b: Tensor) -> None:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul contraction mismatch: {a.shape} @ {b.shape}")


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_matmul(a, b)

    def bwd(g):
        if a.requires_grad:
            ga = g @ b.data.swapaxes(-1, -2)
            _accumulate(a, _unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = a.data.swapaxes(-1, -2) @ g
            _accumulate(b, _unbroadcast(gb, b.data.shape))

    return Tensor(a.data @ b.data, _parents=(a, b), _backward=bwd)


def affine(x, w, b) -> Tensor:
    """x @ w + b in one node, b broadcast over rows and added in place; the
    backward takes the bias sum, then `matmul`'s two products."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    _check_matmul(x, w)
    out = x.data @ w.data
    out += b.data

    def bwd(g):
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))
        if x.requires_grad:
            _accumulate(x, _unbroadcast(g @ w.data.swapaxes(-1, -2), x.data.shape))
        if w.requires_grad:
            _accumulate(w, _unbroadcast(x.data.swapaxes(-1, -2) @ g, w.data.shape))

    return Tensor(out, _parents=(x, w, b), _backward=bwd)


def texp(a) -> Tensor:
    a = as_tensor(a)
    y = np.exp(a.data)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g * y)

    return Tensor(y, _parents=(a,), _backward=bwd)


def tlog(a) -> Tensor:
    a = as_tensor(a)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g / a.data)

    return Tensor(np.log(a.data), _parents=(a,), _backward=bwd)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    y = np.tanh(a.data)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g * (1.0 - y * y))

    return Tensor(y, _parents=(a,), _backward=bwd)


def relu(a) -> Tensor:
    a = as_tensor(a)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g * (a.data > 0.0))

    return Tensor(np.maximum(a.data, 0.0), _parents=(a,), _backward=bwd)


def softplus(a) -> Tensor:
    """log(1 + e^x), computed stably; derivative is the logistic sigmoid."""
    a = as_tensor(a)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g * logistic(a.data))

    return Tensor(np.logaddexp(0.0, a.data), _parents=(a,), _backward=bwd)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    y = logistic(a.data)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g * y * (1.0 - y))

    return Tensor(y, _parents=(a,), _backward=bwd)


def terf(a) -> Tensor:
    from scipy.special import erf  # only lognormal DSM needs it; scipy is slow to import

    a = as_tensor(a)
    two_over_sqrt_pi = 2.0 / np.sqrt(np.pi)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g * two_over_sqrt_pi * np.exp(-a.data * a.data))

    return Tensor(erf(a.data), _parents=(a,), _backward=bwd)


def clamp_min(a, floor: float) -> Tensor:
    """max(x, floor); gradient flows only where x > floor."""
    a = as_tensor(a)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g * (a.data > floor))

    return Tensor(np.maximum(a.data, floor), _parents=(a,), _backward=bwd)


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        if a.requires_grad:
            inner = (g * s).sum(axis=axis, keepdims=True)
            _accumulate(a, s * (g - inner))

    return Tensor(s, _parents=(a,), _backward=bwd)


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    se = e.sum(axis=axis, keepdims=True)
    val = m + np.log(se)
    if not keepdims:
        val = np.squeeze(val, axis=axis)

    def bwd(g):
        if a.requires_grad:
            gg = g if keepdims else np.expand_dims(g, axis=axis)
            _accumulate(a, gg * (e / se))

    return Tensor(val, _parents=(a,), _backward=bwd)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)

    def bwd(g):
        if not a.requires_grad:
            return
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.data.shape))
        else:
            gg = g if keepdims else np.expand_dims(g, axis=axis)
            _accumulate(a, np.broadcast_to(gg, a.data.shape))

    return Tensor(a.data.sum(axis=axis, keepdims=keepdims), _parents=(a,), _backward=bwd)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g.reshape(a.data.shape))

    return Tensor(a.data.reshape(shape), _parents=(a,), _backward=bwd)


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)

    def bwd(g):
        if a.requires_grad:
            inv = None if axes is None else sorted(range(len(axes)),
                                                   key=lambda i: axes[i] % len(axes))
            _accumulate(a, g.transpose(inv))

    return Tensor(a.data.transpose(axes), _parents=(a,), _backward=bwd)


def index(a, key) -> Tensor:
    """`a.data[key]` for any numpy key; `Tensor.__getitem__` calls this."""
    a = as_tensor(a)
    basic = all(k is None or k is Ellipsis or type(k) is slice
                or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
                for k in (key if type(key) is tuple else (key,)))

    def bwd(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            if basic:  # selects no entry twice
                ga[key] = g
            else:
                np.add.at(ga, key, g)
            _accumulate(a, ga)

    return Tensor(a.data[key], _parents=(a,), _backward=bwd)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                _accumulate(t, g[tuple(idx)])

    return Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                  _parents=tuple(tensors), _backward=bwd)


def layer_norm(a, gain, shift, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then scale by
    `gain` and add `shift`, in one node."""
    a, gain, shift = as_tensor(a), as_tensor(gain), as_tensor(shift)
    # np.mean's and np.var's arithmetic (sum / n) around one shared a - mu:
    # the same bits, without taking the mean twice
    n = a.data.shape[-1]
    centered = a.data - a.data.sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt((centered * centered).sum(axis=-1, keepdims=True) / n + eps)
    y = centered * inv
    out = y * gain.data
    out += shift.data

    def bwd(g):
        if shift.requires_grad:
            _accumulate(shift, _unbroadcast(g, shift.data.shape))
        if gain.requires_grad:
            _accumulate(gain, _unbroadcast(g * y, gain.data.shape))
        if a.requires_grad:
            gy = g * gain.data
            gm = gy.sum(axis=-1, keepdims=True) / n
            gym = (gy * y).sum(axis=-1, keepdims=True) / n
            _accumulate(a, inv * (gy - gm - y * gym))

    return Tensor(out, _parents=(a, gain, shift), _backward=bwd)


def dropout(a, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    a = as_tensor(a)
    if not training or p == 0.0:
        return a
    mask = (rng.random(a.data.shape) >= p) / (1.0 - p)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g * mask)

    return Tensor(a.data * mask, _parents=(a,), _backward=bwd)


def sdpa(q, k, v) -> Tensor:
    """Scaled-dot-product attention over the last two axes of q, k, v."""
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    scale = 1.0 / np.sqrt(q.data.shape[-1])
    scores = mul(matmul(q, transpose(k, _swap_last(k.data.ndim))), scale)
    return matmul(softmax(scores, axis=-1), v)


def _swap_last(ndim: int) -> tuple:
    axes = list(range(ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return tuple(axes)
