import warnings
import zlib

import numpy as np
import pytest

from riskbench import gradcore as gc
from riskbench.gradcore.tensor import ShapeError, logistic


def test_softmax_symmetry():
    out = gc.softmax(gc.Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = gc.Tensor(rng.normal(scale=5.0, size=(20, 7)))
    s = gc.softmax(x, axis=-1)
    assert np.all(s.data > 0)
    assert np.max(np.abs(s.data.sum(axis=-1) - 1.0)) < 1e-12


def test_logistic_matches_scipy_expit():
    from scipy.special import expit

    rng = np.random.default_rng(2)
    x = np.concatenate([rng.normal(scale=5.0, size=100_000),
                        rng.uniform(-700.0, 700.0, size=100_000)])
    ref = expit(x)
    assert np.all(np.abs(logistic(x) - ref) <= 1e-14 * ref)


def test_logistic_exact_half_at_zero_and_quiet_at_extremes():
    assert logistic(np.array(0.0)) == 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for out in (logistic(np.array([-1000.0, 1000.0])),
                    gc.sigmoid(gc.Tensor([-1000.0, 1000.0])).data):
            assert 0.0 <= out[0] < np.finfo(np.float64).tiny and out[1] == 1.0


def test_matmul_identity():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 3))
    out = gc.matmul(gc.Tensor(np.eye(3)), gc.Tensor(a))
    assert np.array_equal(out.data, a)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        gc.matmul(gc.Tensor(np.zeros((2, 3))), gc.Tensor(np.zeros((2, 3))))


def test_softplus_at_zero():
    out = gc.softplus(gc.Tensor(0.0))
    assert abs(out.item() - np.log(2.0)) < 1e-12


def test_backward_sum_gives_ones():
    g = gc.ParamGraph()
    p = g.parameter("p", np.random.default_rng(2).normal(size=(4, 3)))
    gc.tsum(p).backward()
    assert np.array_equal(p.grad, np.ones((4, 3)))


def test_backward_square_analytic():
    g = gc.ParamGraph()
    p = g.parameter("p", np.array([1.0, 2.0]))
    gc.tsum(gc.mul(p, p)).backward()
    assert np.allclose(p.grad, [2.0, 4.0])


def test_backward_accumulates_without_zeroing():
    g = gc.ParamGraph()
    p = g.parameter("p", np.array([3.0]))
    gc.tsum(p).backward()
    gc.tsum(p).backward()
    assert np.allclose(p.grad, [2.0])
    g.zero_grad()
    assert np.allclose(p.grad, [0.0])


def test_backward_rejects_non_scalar():
    g = gc.ParamGraph()
    p = g.parameter("p", np.ones(3))
    with pytest.raises(ShapeError):
        gc.mul(p, 2.0).backward()


def test_mlp_matches_finite_differences():
    rng = np.random.default_rng(7)
    g = gc.ParamGraph()
    mlp = gc.MLP(g, "m", [3, 5, 1], rng, activation="tanh")
    x = gc.Tensor(rng.normal(size=(8, 3)))
    y = gc.Tensor(rng.normal(size=(8, 1)))

    def loss_fn():
        d = gc.sub(mlp(x), y)
        return gc.tmean(gc.mul(d, d))

    report = gc.grad_check(lambda: (g, loss_fn), tolerance=1e-4)
    assert report.passed, str(report)


# Row of test_each_primitive_matches_finite_differences that audits each op.
AUDIT_ROWS = {
    "texp": ["exp"], "tlog": ["log"], "tanh": ["tanh"], "softplus": ["softplus"],
    "relu": ["relu"], "terf": ["erf"], "sigmoid": ["sigmoid"],
    "layer_norm": ["layer_norm"], "softmax": ["softmax"], "logsumexp": ["logsumexp"],
    "affine": ["affine", "affine_stacked"],
    "index": ["index_slice", "index_gather"], "div": ["div"], "clamp_min": ["clamp_min"],
    "add": ["add_shared"], "sub": ["sub_shared"], "concat": ["concat_twice"],
}

# Taped ops audited by another finite-difference test instead of a row.
COVERED_BY = {
    "mul": "test_broadcast_add_and_mul_gradients",
    "matmul": "test_mlp_matches_finite_differences",
    "tsum": "test_each_primitive_matches_finite_differences",  # every row's loss
    "tmean": "test_each_primitive_matches_finite_differences",  # every row's loss
    "reshape": "test_attention_block_matches_finite_differences",
    "transpose": "test_attention_block_matches_finite_differences",
    "sdpa": "test_attention_block_matches_finite_differences",
    # Finite differences need a repeatable loss, and dropout draws a fresh
    # mask on every call; its backward is checked entry by entry instead.
    "dropout": "test_dropout_training_scales_surviving_entries",
}


def _widest_gap_midpoint(values: np.ndarray) -> float:
    """A floor as far as possible from every entry, with entries on both sides."""
    s = np.sort(values, axis=None)
    i = int(np.argmax(np.diff(s)))
    return float(s[i] + s[i + 1]) / 2.0


def _shared_gradient(op, t):
    """`op(u, v)` hands one gradient to the interior nodes u and v, and each
    of them also gets a contribution from `mul(u, v)` after that."""
    u, v = gc.tanh(t), gc.sigmoid(t)
    return gc.mul(op(u, v), gc.mul(u, v))


@pytest.mark.parametrize("op_name", [row for rows in AUDIT_ROWS.values() for row in rows])
def test_each_primitive_matches_finite_differences(op_name):
    rng = np.random.default_rng(zlib.crc32(op_name.encode()))
    ops = {
        "exp": gc.texp,
        "log": lambda t: gc.tlog(gc.add(gc.mul(t, t), 1.0)),
        "tanh": gc.tanh,
        "softplus": gc.softplus,
        "relu": gc.relu,
        "erf": gc.terf,
        "sigmoid": gc.sigmoid,
        # input, gain and shift all read p, so the audit covers all three
        "layer_norm": lambda t: gc.layer_norm(t, t[0], t[1]),
        "affine": lambda t: gc.affine(t[:, :3], t[:3, :], t[3]),
        # one 2-D input shared by a (2, 2, 6) weight and a (2, 1, 6) bias, so
        # its gradient is summed over the leading axis
        "affine_stacked": lambda t: gc.affine(t[:, :2], gc.reshape(t, (2, 2, 6)),
                                              gc.reshape(t[2:], (2, 1, 6))),
        "softmax": lambda t: gc.softmax(t, axis=-1),
        "logsumexp": lambda t: gc.logsumexp(t, axis=-1, keepdims=True),
        "index_slice": lambda t: gc.mul(t[1:2, :], t[:, 2:3]),  # both read t[1, 2]
        "index_gather": lambda t: t[np.array([3, 0, 3, 1])],
        "div": lambda t: gc.div(t, gc.add(gc.mul(t, t), 1.0)),
        # the floor is fixed before the audit, far from every entry of p
        "clamp_min": lambda t: gc.clamp_min(t, floor),
        "add_shared": lambda t: _shared_gradient(gc.add, t),
        "sub_shared": lambda t: _shared_gradient(gc.sub, t),
        # one operand twice: both slices of the gradient reach u
        "concat_twice": lambda t: gc.concat([gc.tanh(t[:, :3])] * 2, axis=1),
    }
    g = gc.ParamGraph()
    p = g.parameter("p", rng.normal(size=(4, 6)))
    floor = _widest_gap_midpoint(p.data)
    w = gc.Tensor(rng.normal(size=(4, 6)))

    def loss_fn():
        return gc.tmean(gc.mul(ops[op_name](p), w))

    report = gc.grad_check(lambda: (g, loss_fn), tolerance=1e-4)
    assert report.passed, f"{op_name}: {report}"


def test_every_taped_op_has_a_finite_difference_audit():
    import inspect

    from riskbench.gradcore import tensor

    taped = {name for name in gc.__all__
             if inspect.isfunction(getattr(gc, name))
             and getattr(gc, name).__module__ == tensor.__name__
             and name != "as_tensor"}  # as_tensor wraps a value and records nothing
    unaudited = taped - set(AUDIT_ROWS) - set(COVERED_BY)
    assert not unaudited, f"taped ops without a finite-difference audit: {sorted(unaudited)}"
    assert not (set(AUDIT_ROWS) | set(COVERED_BY)) - taped, "audit map names a missing op"
    for test_name in COVERED_BY.values():
        assert callable(globals().get(test_name)), f"{test_name} is not in this module"


def test_broadcast_add_and_mul_gradients():
    rng = np.random.default_rng(11)
    g = gc.ParamGraph()
    row = g.parameter("row", rng.normal(size=(1, 5)))
    col = g.parameter("col", rng.normal(size=(4, 1)))
    x = gc.Tensor(rng.normal(size=(4, 5)))

    def loss_fn():
        return gc.tsum(gc.mul(gc.add(x, row), col))

    report = gc.grad_check(lambda: (g, loss_fn), tolerance=1e-4)
    assert report.passed, str(report)


def test_concat_and_slicing_gradients():
    rng = np.random.default_rng(12)
    g = gc.ParamGraph()
    a = g.parameter("a", rng.normal(size=(3, 2)))
    b = g.parameter("b", rng.normal(size=(3, 4)))

    def loss_fn():
        joined = gc.concat([a, b], axis=1)
        return gc.tmean(gc.mul(joined, joined))

    report = gc.grad_check(lambda: (g, loss_fn), tolerance=1e-4)
    assert report.passed, str(report)


def test_attention_block_matches_finite_differences():
    g = gc.ParamGraph()
    block = gc.TransformerBlock(g, "b", 8, np.random.default_rng(1), heads=2)
    tokens = gc.Tensor(np.random.default_rng(2).normal(size=(5, 8)))

    def loss_fn():
        out = block(tokens)
        return gc.tmean(gc.mul(out, out))

    report = gc.grad_check(lambda: (g, loss_fn), tolerance=1e-4)
    assert report.passed, str(report)


def test_corrupted_gradient_fails_check():
    g = gc.ParamGraph()
    p = g.parameter("p", np.array([0.5, -0.3]))

    class _SabotagedTensor(gc.Tensor):
        pass

    def loss_fn():
        out = gc.tsum(gc.mul(p, p))
        real_bwd = out._backward

        def crooked(grad):
            real_bwd(grad)
            p.grad += 0.1

        out._backward = crooked
        return out

    report = gc.grad_check(lambda: (g, loss_fn), tolerance=1e-4)
    assert not report.passed


def test_no_grad_builds_no_tape_and_restores_flags():
    g = gc.ParamGraph()
    p = g.parameter("p", np.array([0.5, -0.3]))
    with pytest.raises(KeyError):
        with g.no_grad():
            out = gc.tsum(gc.texp(gc.mul(p, p)))
            assert not out.requires_grad
            assert out._parents == () and out._backward is None
            raise KeyError("leave the context by an exception")
    assert p.requires_grad
    out = gc.tsum(gc.texp(gc.mul(p, p)))
    assert out._parents and out._backward is not None
    out.backward()
    assert np.allclose(p.grad, 2.0 * p.data * np.exp(p.data**2))


def test_adam_zero_gradient_leaves_parameters():
    g = gc.ParamGraph()
    p = g.parameter("p", np.array([1.0, 2.0]))
    before = p.data.copy()
    gc.adam_step(gc.AdamState(lr=0.1, weight_decay=0.0), g)
    assert np.array_equal(p.data, before)


def test_adam_descends_on_square():
    g = gc.ParamGraph()
    p = g.parameter("p", np.array([1.0]))
    gc.tsum(gc.mul(p, p)).backward()
    gc.adam_step(gc.AdamState(lr=0.1), g)
    assert p.data[0] < 1.0
    assert np.array_equal(p.grad, np.zeros(1))  # gradients zeroed by the step


def test_adam_converges_on_quadratic_bowl():
    g = gc.ParamGraph()
    p = g.parameter("p", np.array([1.0, -2.0, 0.5]))
    start = float((p.data**2).sum())
    state = gc.AdamState(lr=0.1)
    for _ in range(200):
        gc.tsum(gc.mul(p, p)).backward()
        gc.adam_step(state, g)
    assert float((p.data**2).sum()) < 1e-3 * start


def _textbook_adam(state, graph):
    """Per-parameter Adam as written before the flat in-place form; the reference."""
    moments = vars(state).setdefault("textbook_moments", {})
    state.step += 1
    bc1 = 1.0 - state.beta1**state.step
    bc2 = 1.0 - state.beta2**state.step
    for name, p in graph.params.items():
        g = p.grad
        if name not in moments:
            moments[name] = (np.zeros_like(p.data), np.zeros_like(p.data))
        m, v = moments[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        if state.weight_decay != 0.0:
            p.data -= state.lr * state.weight_decay * p.data
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    graph.zero_grad()


def _adam_graph(shapes, seed):
    rng = np.random.default_rng(seed)
    g = gc.ParamGraph()
    for i, shape in enumerate(shapes):
        g.parameter(f"p{i}", rng.normal(size=shape))
    return g


@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
def test_adam_bit_equal_to_textbook_update(weight_decay):
    from riskbench.gradcore.optim import CHUNK

    shapes = [(3, 4), (CHUNK + 777,), (1,), (2, 5, 3)]
    fast, ref = _adam_graph(shapes, 0), _adam_graph(shapes, 0)
    fast_state = gc.AdamState(lr=0.01, weight_decay=weight_decay)
    ref_state = gc.AdamState(lr=0.01, weight_decay=weight_decay)
    rng = np.random.default_rng(1)
    for _ in range(20):
        for name, shape in zip(fast.params, shapes):
            grad = rng.normal(scale=rng.choice([1e-6, 1.0, 1e3]), size=shape)
            fast.params[name].grad[...] = grad
            ref.params[name].grad[...] = grad
        gc.adam_step(fast_state, fast)
        _textbook_adam(ref_state, ref)
        for name in fast.params:
            assert fast.params[name].data.tobytes() == ref.params[name].data.tobytes(), name
            assert not fast.params[name].grad.any()
    assert fast_state.step == ref_state.step == 20


def test_adam_step_allocates_nothing_parameter_sized():
    import tracemalloc

    g = _adam_graph([(200_000,), (7,)], 2)
    state = gc.AdamState(lr=0.01, weight_decay=0.05)
    param_bytes = g.params["p0"].data.nbytes
    g.params["p0"].grad[...] = 1.0
    gc.adam_step(state, g)  # packs the graph and allocates the moments
    g.params["p0"].grad[...] = 0.5
    tracemalloc.start()
    try:
        gc.adam_step(state, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < param_bytes / 16, (peak, param_bytes)


def test_adam_state_is_tied_to_its_graph():
    state = gc.AdamState(lr=0.01)
    gc.adam_step(state, _adam_graph([(3,)], 0))
    with pytest.raises(ValueError, match="moments"):
        gc.adam_step(state, _adam_graph([(4,)], 0))


def test_graphs_sharing_a_tensor_never_step_a_stale_copy():
    g1 = _adam_graph([(3,), (2,)], 0)
    g2 = gc.ParamGraph()
    g2.params["shared"] = g1.params["p1"]
    s1, s2 = gc.AdamState(lr=0.1), gc.AdamState(lr=0.1)
    for state, graph in ((s1, g1), (s2, g2), (s1, g1), (s2, g2)):
        before = g1.params["p1"].data.copy()
        g1.params["p1"].grad[...] = 1.0
        gc.adam_step(state, graph)
        assert np.all(g1.params["p1"].data < before)  # every step moves the shared tensor
        data, grad = graph.flat()
        assert np.shares_memory(data, g1.params["p1"].data)
        assert np.shares_memory(grad, g1.params["p1"].grad)


def _exact_param(g, name, shape):
    """A parameter of small integers, so every gradient below is exact."""
    return g.parameter(name, np.arange(np.prod(shape), dtype=np.float64).reshape(shape) - 2.0)


def test_backward_add_and_mul_of_one_interior_node():
    g = gc.ParamGraph()
    p = _exact_param(g, "p", (2, 3))
    h = gc.mul(p, 3.0)
    gc.tsum(gc.add(h, h)).backward()
    assert np.array_equal(p.grad, np.full((2, 3), 6.0))
    assert h.grad is None  # interior buffers are dropped once used
    g.zero_grad()
    gc.tsum(gc.mul(h, h)).backward()  # d/dp (3p)^2 = 18p
    assert np.array_equal(p.grad, 18.0 * p.data)
    g.zero_grad()
    gc.tsum(gc.sub(h, h)).backward()
    assert np.array_equal(p.grad, np.zeros((2, 3)))


def test_backward_sum_of_two_interior_nodes_keeps_them_apart():
    # add(h1, h2) hands one incoming gradient to both parents. Both are also
    # read by a second branch that the sweep reaches after the sum and before
    # either parent, so each takes an in-place contribution that must not
    # reach the other.
    g = gc.ParamGraph()
    p = _exact_param(g, "p", (2, 3))
    w = np.array([[1.0, 2.0, 4.0], [8.0, 16.0, 32.0]])
    v = np.array([[3.0, 0.0, 1.0], [1.0, 5.0, 2.0]])
    u = np.array([[2.0, 1.0, 0.0], [4.0, 1.0, 3.0]])
    h1, h2 = gc.mul(p, 3.0), gc.mul(p, 5.0)
    summed = gc.tsum(gc.mul(gc.add(h1, h2), gc.Tensor(w)))
    branch = gc.tsum(gc.add(gc.mul(h1, gc.Tensor(v)), gc.mul(h2, gc.Tensor(u))))
    gc.add(summed, branch).backward()
    assert np.array_equal(p.grad, 3.0 * (w + v) + 5.0 * (w + u))


def test_backward_node_feeding_two_consumers():
    g = gc.ParamGraph()
    p = _exact_param(g, "p", (3,))
    c = np.array([1.0, 2.0, 3.0])
    h = gc.mul(p, 2.0)
    gc.add(gc.tsum(gc.mul(h, gc.Tensor(c))), gc.tsum(gc.mul(h, h))).backward()
    assert np.array_equal(p.grad, 2.0 * c + 8.0 * p.data)


def test_backward_through_reshape_transpose_and_concat_views():
    g = gc.ParamGraph()
    p = _exact_param(g, "p", (2, 3))
    rng = np.random.default_rng(3)
    w1, w2, w3 = (rng.integers(-4, 5, size=shape).astype(float)
                  for shape in ((3, 2), (3, 2), (4, 3)))
    h = gc.mul(p, 2.0)
    loss = gc.add(gc.add(gc.tsum(gc.mul(gc.reshape(h, (3, 2)), gc.Tensor(w1))),
                         gc.tsum(gc.mul(gc.transpose(h), gc.Tensor(w2)))),
                  gc.tsum(gc.mul(gc.concat([h, h], axis=0), gc.Tensor(w3))))
    loss.backward()
    assert np.array_equal(p.grad, 2.0 * (w1.reshape(2, 3) + w2.T + w3[:2] + w3[2:]))


@pytest.mark.parametrize("axes", [(1, 0, 2), (1, 0, -1), (-1, 0, 1), (2, 0, 1)])
def test_transpose_backward_inverts_any_permutation(axes):
    g = gc.ParamGraph()
    p = _exact_param(g, "p", (2, 3, 4))
    w = np.random.default_rng(5).integers(-4, 5, size=p.data.transpose(axes).shape)
    gc.tsum(gc.mul(gc.transpose(p, axes), gc.Tensor(w.astype(float)))).backward()
    assert np.array_equal(p.grad, w.transpose(np.argsort(np.array(axes) % 3)))


def test_backward_broadcast_bias():
    g = gc.ParamGraph()
    row = _exact_param(g, "row", (1, 3))
    vec = _exact_param(g, "vec", (3,))
    x = gc.Tensor(np.ones((4, 3)))
    w = gc.Tensor(np.arange(12.0).reshape(4, 3))
    out = gc.add(gc.add(x, gc.mul(row, 2.0)), vec)
    gc.tsum(gc.mul(out, w)).backward()
    assert np.array_equal(row.grad, 2.0 * w.data.sum(axis=0, keepdims=True))
    assert np.array_equal(vec.grad, w.data.sum(axis=0))


def test_index_backward_adds_the_gradient_of_every_selection():
    g = gc.ParamGraph()
    p = _exact_param(g, "p", (3, 4))
    h = gc.mul(p, 2.0)
    rows, cols = np.array([2, 0, 2, 2]), np.array([1, 3, 1, 1])
    picked = h[rows, cols]  # (2, 1) is selected three times
    block = h[1:, ::2]
    assert np.array_equal(picked.data, h.data[rows, cols])
    assert np.array_equal(block.data, h.data[1:, ::2])
    w = np.array([1.0, 2.0, 3.0, 4.0])
    wb = np.array([[5.0, -6.0], [7.0, 8.0]])
    gc.tsum(gc.add(gc.tsum(gc.mul(picked, gc.Tensor(w))),
                   gc.tsum(gc.mul(block, gc.Tensor(wb))))).backward()
    expected = np.zeros((3, 4))
    expected[2, 1] = 1.0 + 3.0 + 4.0
    expected[0, 3] = 2.0
    expected[1:, ::2] += wb
    assert np.array_equal(p.grad, 2.0 * expected)
    assert h.grad is None and picked.grad is None


def test_index_under_no_grad_builds_no_tape():
    g = gc.ParamGraph()
    p = _exact_param(g, "p", (3, 4))
    with g.no_grad():
        out = p[np.array([0, 0, 2]), 1:3]
    assert not out.requires_grad
    assert out._parents == () and out._backward is None
    assert np.array_equal(out.data, p.data[[0, 0, 2], 1:3])


def test_leaf_gradients_add_up_across_backward_calls_on_one_tape():
    g = gc.ParamGraph()
    p = _exact_param(g, "p", (2, 2))
    loss = gc.tsum(gc.mul(gc.add(p, p), 3.0))
    loss.backward()
    loss.backward()  # interior buffers start afresh; the leaf keeps adding
    assert np.array_equal(p.grad, np.full((2, 2), 12.0))
    gc.adam_step(gc.AdamState(lr=0.0), g)  # packs: the grad becomes a view
    loss.backward()
    gc.tsum(gc.mul(p, p)).backward()
    assert np.array_equal(p.grad, 6.0 + 2.0 * p.data)


def test_dsm_warmup_values_reach_the_main_graph(monkeypatch):
    from riskbench.cohort import SynthSpec, generate_synthetic
    from riskbench.models import DsmConfig, DsmModel
    from riskbench.models import base as models_base

    coh = generate_synthetic(SynthSpec(d=3, shapes=[1.4, 2.2], scales=[6.0, 8.0],
                                       betas=[[1.0, 0, 0], [0, 1.0, 0]], horizon=15.0,
                                       seed=2), 160)
    cfg = dict(k=2, warmup_iters=25, max_epochs=1, patience=1, lr=1e-2, batch_size=64,
               layers=1, nodes=8)

    def fit():
        model = DsmModel(DsmConfig(**cfg))
        model.fit(coh, seed=4)
        return model.graph.named_arrays()

    fast = fit()
    with monkeypatch.context() as patch:
        patch.setattr(models_base, "adam_step", _textbook_adam)
        ref = fit()
        cfg["warmup_iters"] = 0
        unwarmed = fit()
    assert list(fast) == list(ref)
    for name in fast:
        assert fast[name].tobytes() == ref[name].tobytes(), name
    assert any(not np.array_equal(ref[name], unwarmed[name]) for name in ("base_a", "base_b"))


def test_dropout_eval_mode_is_identity():
    rng = np.random.default_rng(3)
    x = gc.Tensor(rng.normal(size=(6, 6)))
    out = gc.dropout(x, 0.5, rng, training=False)
    assert out is x


def test_dropout_training_scales_surviving_entries():
    rng = np.random.default_rng(4)
    x = gc.Tensor(np.ones((1000,)))
    out = gc.dropout(x, 0.25, rng, training=True)
    kept = out.data[out.data != 0]
    assert np.allclose(kept, 1.0 / 0.75)
    assert abs(len(kept) / 1000 - 0.75) < 0.05


def test_forward_backward_deterministic_per_seed():
    def run():
        rng = np.random.default_rng(99)
        g = gc.ParamGraph()
        mlp = gc.MLP(g, "m", [4, 8, 2], rng, activation="relu", drop=0.5)
        x = gc.Tensor(rng.normal(size=(10, 4)))
        out = mlp(x, rng=np.random.default_rng(5), training=True)
        loss = gc.tmean(gc.mul(out, out))
        loss.backward()
        return loss.item(), {k: v.grad.copy() for k, v in g.params.items()}

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert all(np.array_equal(g1[k], g2[k]) for k in g1)


def test_checkpoint_round_trip():
    rng = np.random.default_rng(5)
    arrays = {
        "enc.l0.w": rng.normal(size=(4, 8)),
        "enc.l0.b": rng.normal(size=(8,)),
        "scalarish": rng.normal(size=(1,)),
    }
    import tempfile, pathlib
    with tempfile.TemporaryDirectory() as d:
        path = pathlib.Path(d) / "params.rbck"
        gc.save_checkpoint(path, arrays)
        raw = path.read_bytes()
        assert raw[:4] == b"RBCK"
        loaded = gc.load_checkpoint(path)
    assert set(loaded) == set(arrays)
    for k in arrays:
        assert np.array_equal(loaded[k], arrays[k])


def test_checkpoint_damage_raises_data_error(tmp_path):
    from riskbench.errors import DataError

    arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([1.5, -2.0])}
    path = tmp_path / "params.rbck"
    gc.save_checkpoint(path, arrays)
    blob = path.read_bytes()
    boundary = len(blob) - (4 + 1 + 4 + 4 + 8 * 2)  # start of the "b" record
    for bad in (b"XBCK" + blob[4:], blob[:4] + (2).to_bytes(4, "little") + blob[8:]):
        path.write_bytes(bad)
        with pytest.raises(DataError):
            gc.load_checkpoint(path)
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        if cut in (8, boundary):  # a cut between records reads as fewer records
            assert list(gc.load_checkpoint(path)) == list(arrays)[: int(cut == boundary)]
            continue
        with pytest.raises(DataError):
            gc.load_checkpoint(path)


def test_param_graph_load_arrays_shape_checked():
    g = gc.ParamGraph()
    g.parameter("w", np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        g.load_arrays({"w": np.zeros((3, 3))})


def test_index_basic_key_gradients_bit_equal_to_add_at_path():
    # The old backward scattered every key with np.add.at, turning -0 into
    # +0; basic keys now assign. Signed zeros are planted in the gradient.
    def add_at_index(a, key):
        def bwd(g):
            ga = np.zeros_like(a.data)
            np.add.at(ga, key, g)
            gc.tensor._accumulate(a, ga)

        return gc.Tensor(a.data[key], _parents=(a,), _backward=bwd)

    keys = [np.s_[1:, ::2], np.s_[2], np.s_[..., 1:3], np.s_[None, :2], np.s_[np.int64(1), 1:]]
    rng = np.random.default_rng(21)
    grads = []
    for index in (gc.index, add_at_index):
        g = gc.ParamGraph()
        p = g.parameter("p", rng.normal(size=(4, 5)))
        h = gc.tanh(p)
        loss = None
        for i, key in enumerate(keys):
            picked = index(h, key)
            w = np.random.default_rng(i).normal(size=picked.shape)
            w[w < -0.5] = -0.0  # products of -0 reach the index backward
            term = gc.tsum(gc.mul(picked, gc.Tensor(w)))
            loss = term if loss is None else gc.add(loss, term)
        loss.backward()
        grads.append(p.grad.tobytes())
        rng = np.random.default_rng(21)
    assert grads[0] == grads[1]


def test_index_repeated_integer_key_still_sums():
    g = gc.ParamGraph()
    p = _exact_param(g, "p", (5,))
    gc.tsum(gc.mul(p[np.array([4, 1, 4, 4])], gc.Tensor([1.0, 2.0, 3.0, 4.0]))).backward()
    assert np.array_equal(p.grad, [0.0, 2.0, 0.0, 0.0, 8.0])


# -- fused nodes ---------------------------------------------------------------------


def _bare_layer_norm(a, eps=1e-5):
    """The taped normalize op that LayerNorm chained with mul and add before
    gradcore's layer_norm took the gain and the shift."""
    def bwd(g):
        gm = g.mean(axis=-1, keepdims=True)
        gym = (g * y).mean(axis=-1, keepdims=True)
        gc.tensor._accumulate(a, inv * (g - gm - y * gym))

    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (a.data - mu) * inv
    return gc.Tensor(y, _parents=(a,), _backward=bwd)


def _chain_linear(self, x):
    return gc.add(gc.matmul(x, self.w), self.b)


def _chain_layer_norm(self, x):
    return gc.add(gc.mul(_bare_layer_norm(x), self.g), self.b)


def _fused_and_chain(monkeypatch, run):
    """`run()`'s result with the fused layers, and again with every Linear,
    LayerNorm and DeepHit head layer computed by the chain of nodes it replaced."""
    from riskbench.models import deephit

    fused = run()
    with monkeypatch.context() as patch:
        patch.setattr(gc.Linear, "__call__", _chain_linear)
        patch.setattr(gc.LayerNorm, "__call__", _chain_layer_norm)
        patch.setattr(deephit, "affine", lambda x, w, b: gc.add(gc.matmul(x, w), b))
        chain = run()
    return fused, chain


def _step(graph, loss_fn):
    graph.zero_grad()
    out, loss = loss_fn()
    loss.backward()
    return out.data.tobytes(), loss.data.tobytes(), {
        name: t.grad.tobytes() for name, t in graph.params.items()}


def _deephit_head_step():
    from riskbench.models import DeepHitConfig, DeepHitModel

    # cv-fit's shape: 256 rows, a 128-wide encoder plus 6 covariates -> 128
    m = DeepHitModel(DeepHitConfig(layers=2, nodes=128, bins=15, alpha=0.1))
    m.n_risks, m.d, m.t_scale, m.edges = 2, 6, 15.0, np.linspace(1.0, 15.0, 15)
    m._build(np.random.default_rng(3))
    rng = np.random.default_rng(4)
    x, t = rng.normal(size=(256, 6)), rng.uniform(0.0, 16.0, size=256)
    e = rng.integers(0, 3, size=256)
    assert m.graph.params["head.w1"].data[0].shape == (134, 128)
    return _step(m.graph, lambda: (m._masses(x, None, False),
                                   m._loss(x, t, e, None, training=True)))


def _nfg_batch(n, d, nodes, seed, n_risks=2):
    """An unfitted NFG model and a batch (x, t, e) of n rows."""
    from riskbench.models import NfgConfig, NfgModel

    m = NfgModel(NfgConfig(layers=2, nodes=nodes, monotone_layers=2, monotone_nodes=nodes // 2))
    m.n_risks, m.d, m.t_scale = n_risks, d, 10.0
    m._build(np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    x, t = rng.normal(size=(n, d)), rng.uniform(0.0, 10.0, size=n)
    return m, x, t, rng.integers(0, n_risks + 1, size=n)


def _mae_batch(seed):
    """The default MAE model, one 60x40x40x2 phantom's grid and a 0.7 mask plan."""
    from riskbench.mae import (MaeConfig, MaeModel, foreground_flags, make_phantoms, patchify,
                               sample_mask)

    model = MaeModel(MaeConfig(), seed=seed)
    grid = patchify(make_phantoms(1, dims=(60, 40, 40, 2), seed=seed + 1)[0], (15, 10, 10))
    return model, grid, sample_mask(foreground_flags(grid), 0.7, seed=seed + 2)


def _nfg_step():
    m, x, t, e = _nfg_batch(200, 8, 32, 5)
    return _step(m.graph, lambda: (m.encoder(gc.Tensor(x)),
                                   m._loss(x, t, e, None, training=True)))


def _mae_step():
    model, grid, plan = _mae_batch(7)
    return _step(model.graph, lambda: model.forward(grid, plan))


@pytest.mark.parametrize("step", [_deephit_head_step, _nfg_step, _mae_step],
                         ids=["deephit_head", "nfg_encoder", "mae_blocks"])
def test_fused_nodes_bit_equal_to_the_chains_they_replace(monkeypatch, step):
    fused, chain = _fused_and_chain(monkeypatch, step)
    assert fused[0] == chain[0] and fused[1] == chain[1]
    assert list(fused[2]) == list(chain[2])
    for name, grad in chain[2].items():
        assert fused[2][name] == grad, name


def test_fused_nodes_bit_equal_on_non_contiguous_and_broadcast_inputs():
    rng = np.random.default_rng(13)
    results = []
    for fused in (True, False):
        g = gc.ParamGraph()
        p = g.parameter("p", rng.normal(size=(6, 5)))
        w = g.parameter("w", rng.normal(size=(6, 4)))
        b = g.parameter("b", rng.normal(size=(1, 4)))
        gain = g.parameter("gain", rng.normal(size=(4,)))
        shift = g.parameter("shift", rng.normal(size=(4,)))
        x = gc.transpose(gc.tanh(p))  # (5, 6), a transposed view
        if fused:
            out = gc.layer_norm(gc.affine(x, w, b), gain, shift)
        else:
            out = gc.add(gc.mul(_bare_layer_norm(gc.add(gc.matmul(x, w), b)), gain), shift)
        # the output feeds two consumers, so its gradient arrives as a copy
        loss = gc.add(gc.tsum(gc.mul(out, out)), gc.tsum(gc.transpose(out)))
        loss.backward()
        results.append([out.data.tobytes()] + [t.grad.tobytes() for t in g.params.values()])
        rng = np.random.default_rng(13)
    assert results[0] == results[1]


@pytest.mark.parametrize("risks", [2, 3, 4])
@pytest.mark.parametrize("n, k, m", [(256, 134, 128), (7, 5, 3)])
def test_affine_stacked_weight_input_gradient_bit_equal_to_summed_block(risks, n, k, m):
    # a 2-D input under a stacked (R, k, m) weight, as DeepHit's first head
    # layer: the input gradient equals the (R, n, k) block summed over R
    rng = np.random.default_rng(risks)
    g = gc.ParamGraph()
    x = g.parameter("x", rng.normal(size=(n, k)))
    w = g.parameter("w", rng.normal(size=(risks, k, m)))
    b = g.parameter("b", rng.normal(size=(risks, 1, m)))
    upstream = rng.normal(size=(risks, n, m))
    gc.tsum(gc.mul(gc.affine(x, w, b), upstream)).backward()
    block = upstream @ w.data.swapaxes(-1, -2)
    assert x.grad.tobytes() == (np.zeros((n, k)) + block.sum(axis=0)).tobytes()


def test_affine_and_layer_norm_reject_bad_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        gc.affine(gc.Tensor(np.zeros((2, 3))), gc.Tensor(np.zeros((2, 3))), gc.Tensor(np.zeros(3)))
    with pytest.raises(ValueError):
        gc.layer_norm(gc.Tensor(np.zeros((2, 3))), gc.Tensor(np.ones(4)), gc.Tensor(np.zeros(4)))


# -- backward sweep order ------------------------------------------------------------


def _reference_sweep(loss):
    """Interior nodes in the order the backward sweep ran their closures
    before it stopped pushing leaves: a reference copy of that DFS."""
    topo, seen = [], set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    return [node for node in reversed(topo) if node._backward is not None]


def _closures_run(loss):
    """Interior nodes whose closures `loss.backward()` runs, in that order."""
    ran, stack, seen = [], [loss], set()
    while stack:
        node = stack.pop()
        if id(node) in seen or not node._parents:
            continue
        seen.add(id(node))

        def spy(g, node=node, real=node._backward):
            ran.append(node)
            real(g)

        node._backward = spy
        stack.extend(node._parents)
    loss.backward()
    return ran


def _mae_loss():
    model, grid, plan = _mae_batch(1)
    return model.forward(grid, plan)[1]


def _nfg_loss():
    m, x, t, e = _nfg_batch(64, 5, 16, 4)
    return m._loss(x, t, e, None, training=True)


@pytest.mark.parametrize("make_loss", [_mae_loss, _nfg_loss], ids=["mae", "nfg"])
def test_backward_runs_closures_in_the_reference_dfs_order(make_loss):
    loss = make_loss()
    want = _reference_sweep(loss)
    got = _closures_run(loss)
    assert len(got) == len(want) > 20
    assert all(a is b for a, b in zip(got, want))


def _interior_nodes(loss) -> int:
    interior, stack, seen = 0, [loss], set()
    while stack:
        node = stack.pop()
        if id(node) in seen or not node._parents:
            continue
        seen.add(id(node))
        interior += 1
        stack.extend(node._parents)
    return interior


def test_mae_training_step_tape_has_85_interior_nodes():
    # 2 encoder blocks and 1 decoder block of 24 nodes each, plus 13 around
    # them; with two-node affines and three-node layer norms it was 121
    assert _interior_nodes(_mae_loss()) == 85


@pytest.mark.parametrize("n_risks", [2, 4])
def test_nfg_training_step_tape_has_57_interior_nodes_for_any_risk_count(n_risks):
    # 3 in the encoder; 3 for the embedding term; 13 for the stacked time
    # nets' forward and 10 for their tangent at monotone_layers=2; 4 to lay
    # M and dM/du out as (n, R); 3 for the balance, 9 for the CIF and the
    # density, 12 for the likelihood. One net per risk recorded 97 at R=2
    # and 183 at R=4.
    m, x, t, e = _nfg_batch(64, 5, 16, 4, n_risks=n_risks)
    assert _interior_nodes(m._loss(x, t, e, None, training=True)) == 57


@pytest.mark.parametrize("distribution, nodes", [("weibull", 39), ("lognormal", 40)])
@pytest.mark.parametrize("n_risks", [2, 3])
def test_dsm_training_step_tape_has_39_or_40_interior_nodes_for_any_risk_count(
        n_risks, distribution, nodes):
    # 3 in the encoder; 4 for the components' base plus shifts; 13 (Weibull)
    # or 14 (log-normal) for the log densities and CDFs; 4 for the log
    # gates; 9 for the mixture likelihood and survival, 6 in `_nll`
    from riskbench.models import DsmConfig, DsmModel

    m = DsmModel(DsmConfig(layers=2, nodes=16, k=3, distribution=distribution))
    m.n_risks, m.d, m.t_scale = n_risks, 5, 10.0
    m._build(np.random.default_rng(4))
    rng = np.random.default_rng(5)
    x, t = rng.normal(size=(64, 5)), rng.uniform(0.0, 10.0, size=64)
    e = rng.integers(0, n_risks + 1, size=64)
    assert _interior_nodes(m._loss(x, t, e, None, training=True)) == nodes


@pytest.mark.parametrize("alpha, nodes", [(0.1, 36), (0.0, 23)])
@pytest.mark.parametrize("n_risks", [2, 3, 4])
def test_deephit_training_step_tape_interior_node_count(n_risks, alpha, nodes):
    # 3 in the encoder; 7 for the stacked heads (the input concat, affine,
    # relu, affine, transpose, reshape) and the joint softmax, at any risk
    # count; 13 for the likelihood; 13 more for the ranking penalty when alpha > 0
    from riskbench.models import DeepHitConfig, DeepHitModel

    m = DeepHitModel(DeepHitConfig(layers=2, nodes=16, bins=5, alpha=alpha))
    m.n_risks, m.d, m.t_scale, m.edges = n_risks, 5, 10.0, np.linspace(2.0, 10.0, 5)
    m._build(np.random.default_rng(4))
    rng = np.random.default_rng(5)
    x, t = rng.normal(size=(64, 5)), rng.uniform(0.0, 10.0, size=64)
    e = rng.integers(0, n_risks + 1, size=64)
    assert _interior_nodes(m._loss(x, t, e, None, training=True)) == nodes
