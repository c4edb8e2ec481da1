import numpy as np
import pytest

from riskbench import gradcore as gc
from riskbench.gradcore.tensor import ShapeError


def test_softmax_symmetry():
    out = gc.softmax(gc.Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = gc.Tensor(rng.normal(scale=5.0, size=(20, 7)))
    s = gc.softmax(x, axis=-1)
    assert np.all(s.data > 0)
    assert np.max(np.abs(s.data.sum(axis=-1) - 1.0)) < 1e-12


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


@pytest.mark.parametrize("op_name", ["exp", "log", "tanh", "softplus", "relu",
                                     "erf", "sigmoid", "sqrt", "layer_norm",
                                     "softmax", "logsumexp"])
def test_each_primitive_matches_finite_differences(op_name):
    rng = np.random.default_rng(hash(op_name) % 2**32)
    ops = {
        "exp": gc.texp,
        "log": lambda t: gc.tlog(gc.add(gc.mul(t, t), 1.0)),
        "tanh": gc.tanh,
        "softplus": gc.softplus,
        "relu": gc.relu,
        "erf": gc.terf,
        "sigmoid": gc.sigmoid,
        "sqrt": lambda t: gc.tsqrt(gc.add(gc.mul(t, t), 0.5)),
        "layer_norm": gc.layer_norm,
        "softmax": lambda t: gc.softmax(t, axis=-1),
        "logsumexp": lambda t: gc.logsumexp(t, axis=-1, keepdims=True),
    }
    g = gc.ParamGraph()
    p = g.parameter("p", rng.normal(size=(4, 6)))
    w = gc.Tensor(rng.normal(size=(4, 6)))

    def loss_fn():
        return gc.tmean(gc.mul(ops[op_name](p), w))

    report = gc.grad_check(lambda: (g, loss_fn), tolerance=1e-4)
    assert report.passed, f"{op_name}: {report}"


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
