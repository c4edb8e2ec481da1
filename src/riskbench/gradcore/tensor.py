"""Dense float64 tensors with a reverse-mode tape.

An operation with at least one input that requires a gradient records its
parents and a backward closure, built by `_node`, which states the rules of
the tape; the tape is rebuilt on each forward pass. An operation none of
whose inputs requires a gradient records neither, so evaluating under
`ParamGraph.no_grad()` builds no tape. Gradients accumulate into leaf
tensors that were created with requires_grad=True, so repeated backward()
calls without zeroing add up. Single-threaded use of a graph is assumed.

Interior nodes get no zero-filled gradient buffers. A sweep clears their
gradients; a node's first contribution becomes its buffer and later ones
add into it in place. A contribution is copied instead, into a buffer
laid out like the node's data, when it is a view (reshape, transpose,
concat slice, broadcast), is laid out differently, or is not owned. A
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
(`matmul`, `add`; normalize, `mul`, `add`) and compute its values and
contributions with the chain's array operations, so values and leaf
gradients are bit-equal to it.
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
    docstring; `owned=False` marks a `g` that `t` must not take over."""
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
        `MaeModel` calls it as the last step of its build, so the per-tensor
        arrays are freed before any volume is read. A later call packs
        again if some tensor no longer views the buffers, as when another
        graph sharing the tensor has packed it since; the copy then starts
        from the tensor's current values, never stale ones.
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


def _node(data, parents: tuple, grads: tuple) -> Tensor:
    """Record `data` as the result of an op on `parents`; every taped op
    builds its output here.

    `grads[i](g)` is parent i's contribution, given the node's gradient g.
    In the sweep, each parent that requires a gradient, in parent order,
    gets its contribution summed down to its shape and handed to
    `_accumulate`. A contribution is g itself, a view or a new array, and
    the first parent that receives g may take it over as its buffer, so a
    later parent that receives g too gets it as not owned and copies it.
    The contribution functions hold the op's inputs and arrays, never its
    output tensor, so a tape has no reference cycles and is freed as soon
    as its result is dropped, without the cyclic garbage collector.
    """
    def backward(g):
        handed = False  # whether a parent has received g itself
        for p, grad in zip(parents, grads):
            if p.requires_grad:
                c = _unbroadcast(grad(g), p.data.shape)
                _accumulate(p, c, owned=c is not g or not handed)
                handed = handed or c is g

    return Tensor(data, _parents=parents, _backward=backward)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.data + b.data, (a, b), (lambda g: g, lambda g: g))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.data - b.data, (a, b), (lambda g: g, lambda g: -g))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.data * b.data, (a, b), (lambda g: g * b.data, lambda g: g * a.data))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.data / b.data, (a, b),
                 (lambda g: g / b.data, lambda g: -g * a.data / (b.data * b.data)))


def _check_matmul(a: Tensor, b: Tensor) -> None:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul contraction mismatch: {a.shape} @ {b.shape}")


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_matmul(a, b)
    return _node(a.data @ b.data, (a, b), (lambda g: g @ b.data.swapaxes(-1, -2),
                                           lambda g: a.data.swapaxes(-1, -2) @ g))


def affine(x, w, b) -> Tensor:
    """x @ w + b in one node, b broadcast over rows and added in place; the
    backward takes `matmul`'s two products, then the bias sum."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    _check_matmul(x, w)
    out = x.data @ w.data
    out += b.data
    return _node(out, (x, w, b), (lambda g: _affine_dx(g, x.data, w.data),
                                  lambda g: x.data.swapaxes(-1, -2) @ g, lambda g: g))


def _affine_dx(g: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """`affine`'s input gradient g @ w^T. A 2-D x under a stacked (R, k, m)
    w adds g[r] @ w[r]^T into one (n, k) buffer, risk by risk, which is
    the order in which summing the (R, n, k) block over R would add them,
    so the bits are the same without building that block."""
    if x.ndim == 2 and w.ndim == 3:
        dx = g[0] @ w[0].T
        for r in range(1, w.shape[0]):
            dx += g[r] @ w[r].T
        return dx
    return g @ w.swapaxes(-1, -2)


def texp(a) -> Tensor:
    a = as_tensor(a)
    y = np.exp(a.data)
    return _node(y, (a,), (lambda g: g * y,))


def tlog(a) -> Tensor:
    a = as_tensor(a)
    return _node(np.log(a.data), (a,), (lambda g: g / a.data,))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    y = np.tanh(a.data)
    return _node(y, (a,), (lambda g: g * (1.0 - y * y),))


def relu(a) -> Tensor:
    a = as_tensor(a)
    return _node(np.maximum(a.data, 0.0), (a,), (lambda g: g * (a.data > 0.0),))


def softplus(a) -> Tensor:
    """log(1 + e^x), computed stably; derivative is the logistic sigmoid."""
    a = as_tensor(a)
    return _node(np.logaddexp(0.0, a.data), (a,), (lambda g: g * logistic(a.data),))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    y = logistic(a.data)
    return _node(y, (a,), (lambda g: g * y * (1.0 - y),))


def terf(a) -> Tensor:
    from scipy.special import erf  # only lognormal DSM needs it; scipy is slow to import

    a = as_tensor(a)
    two_over_sqrt_pi = 2.0 / np.sqrt(np.pi)
    return _node(erf(a.data), (a,),
                 (lambda g: g * two_over_sqrt_pi * np.exp(-a.data * a.data),))


def clamp_min(a, floor: float) -> Tensor:
    """max(x, floor); gradient flows only where x > floor."""
    a = as_tensor(a)
    return _node(np.maximum(a.data, floor), (a,), (lambda g: g * (a.data > floor),))


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    return _node(s, (a,), (lambda g: s * (g - (g * s).sum(axis=axis, keepdims=True)),))


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    se = e.sum(axis=axis, keepdims=True)
    val = m + np.log(se)
    if not keepdims:
        val = np.squeeze(val, axis=axis)
    return _node(val, (a,),
                 (lambda g: (g if keepdims else np.expand_dims(g, axis=axis)) * (e / se),))


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    squeezed = axis is not None and not keepdims
    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), (lambda g: np.broadcast_to(
        np.expand_dims(g, axis=axis) if squeezed else g, a.data.shape),))


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _node(a.data.reshape(shape), (a,), (lambda g: g.reshape(a.data.shape),))


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    return _node(a.data.transpose(axes), (a,), (lambda g: g.transpose(
        None if axes is None else sorted(range(len(axes)), key=lambda i: axes[i] % len(axes))),))


def index(a, key) -> Tensor:
    """`a.data[key]` for any numpy key; `Tensor.__getitem__` calls this."""
    a = as_tensor(a)
    return _node(a.data[key], (a,), (lambda g: _scatter(g, key, a.data),))


def _scatter(g, key, like: np.ndarray) -> np.ndarray:
    """A zero array like `like` with `g` at `key`: assigned for a basic key,
    which selects no entry twice, and summed with `np.add.at` otherwise."""
    out = np.zeros_like(like)
    if all(k is None or k is Ellipsis or type(k) is slice
           or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
           for k in (key if type(key) is tuple else (key,))):
        out[key] = g
    else:
        np.add.at(out, key, g)
    return out


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = tuple(as_tensor(t) for t in tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    before = (slice(None),) * (axis % out.ndim)  # the axes ahead of `axis`
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
    return _node(out, tensors, tuple(lambda g, piece=before + (slice(lo, hi),): g[piece]
                                     for lo, hi in zip(offsets[:-1], offsets[1:])))


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
    return _node(out, (a, gain, shift), (lambda g: _normalize_grad(g * gain.data, y, inv, n),
                                         lambda g: g * y, lambda g: g))


def _normalize_grad(gy: np.ndarray, y: np.ndarray, inv: np.ndarray, n: int) -> np.ndarray:
    """The gradient of y = (a - mean) * inv with respect to a, given gy."""
    gm = gy.sum(axis=-1, keepdims=True) / n
    gym = (gy * y).sum(axis=-1, keepdims=True) / n
    return inv * (gy - gm - y * gym)


def dropout(a, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    a = as_tensor(a)
    if not training or p == 0.0:
        return a
    mask = (rng.random(a.data.shape) >= p) / (1.0 - p)
    return _node(a.data * mask, (a,), (lambda g: g * mask,))


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
