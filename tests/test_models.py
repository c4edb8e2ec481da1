import builtins
import dataclasses
import gc as pygc
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbench import gradcore as gc
from riskbench.cohort import Cohort, SynthSpec, generate_synthetic, holdout_split
from riskbench.errors import DataError
from riskbench.mae import MaeConfig, MaeModel
from riskbench.metrics import ctd_index
from riskbench.models import (
    BaseConfig,
    DeepHitConfig,
    DeepHitModel,
    DsmConfig,
    DsmModel,
    NfgConfig,
    NfgModel,
    build_model,
    load_model,
)
from riskbench.models.base import CHUNK_ROWS, PROB_FLOOR, evaluate_pairs
from riskbench.models.dsm import inv_softplus
from riskbench.models.nfg import time_net


def _synth(n=300, seed=5, beta=1.2, horizon=15.0):
    spec = SynthSpec(d=4, shapes=[1.4, 2.2], scales=[6.0, 8.0],
                     betas=[[beta, 0, 0, 0], [0, beta, 0, 0]],
                     horizon=horizon, seed=seed)
    return generate_synthetic(spec, n)


def _tiny_cfg(cls, **kw):
    base = dict(lr=1e-2, batch_size=64, layers=1, nodes=8, dropout=0.0,
                max_epochs=6, patience=5)
    base.update(kw)
    return cls(**base)


def _bare(model_cls, cfg, d, n_risks, t_scale=1.0, edges=None, seed=0):
    """Construct a model without fitting, for structural tests."""
    m = model_cls(cfg)
    m.n_risks = n_risks
    m.d = d
    m.t_scale = t_scale
    if edges is not None:
        m.edges = np.asarray(edges, dtype=np.float64)
    m._build(np.random.default_rng(seed))
    m._fitted = True
    return m


def _param_copies(graph):
    """A copy of every parameter of `graph`, by name."""
    return {name: t.data.copy() for name, t in graph.params.items()}


FIT_CONFIGS = {
    "dsm": lambda: _tiny_cfg(DsmConfig, k=2, warmup_iters=30),
    "nfg": lambda: _tiny_cfg(NfgConfig, monotone_layers=2, monotone_nodes=8),
    "deephit": lambda: _tiny_cfg(DeepHitConfig, bins=8),
}
MODELS = {"dsm": DsmModel, "nfg": NfgModel, "deephit": DeepHitModel}


# -- contract ---------------------------------------------------------------


def test_predict_before_fit_errors():
    m = DsmModel(_tiny_cfg(DsmConfig))
    with pytest.raises(RuntimeError, match="before fit"):
        m.cif(np.zeros(4), 1.0, 1)


@pytest.mark.parametrize("kind", list(MODELS))
def test_negative_time_rejected(kind):
    coh = _synth(200)
    m = MODELS[kind](FIT_CONFIGS[kind]())
    m.fit(coh, seed=0)
    with pytest.raises(ValueError, match="non-negative"):
        m.cif(coh.features[:2], -0.5, 1)


@pytest.fixture(scope="module")
def fitted():
    """One small fitted model per kind, shared by the read-only query tests."""
    coh = _synth(240, seed=9)
    models = {}
    for kind, cls in MODELS.items():
        models[kind] = cls(FIT_CONFIGS[kind]())
        models[kind].fit(coh, seed=4)
    return coh, models


@pytest.mark.parametrize("kind", list(MODELS))
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_time_rejected(kind, bad, fitted):
    coh, models = fitted
    with pytest.raises(ValueError, match="time must be"):
        models[kind].cif(coh.features[:2], bad, 1)
    with pytest.raises(ValueError, match="finite"):
        models[kind].cif_curves(coh.features[:2], [1.0, bad], 1)


def _likelihood_cif(m, x, t, r):
    """F_r(t|x) as the training likelihood computes it, one time at a time."""
    u = gc.Tensor(np.full((x.shape[0], 1), max(t / m.t_scale, 1e-300)))
    if m.kind == "nfg":
        return m._cif_density(u, m.encoder(gc.Tensor(x)))[0].data[:, r - 1]
    if m.kind == "dsm":
        log_gates, _, cdf = m._mixture(u, m.encoder(gc.Tensor(x)))
        k = m.config.k
        return (np.exp(log_gates.data) * cdf.data)[:, (r - 1) * k : r * k].sum(axis=1)
    y = m._masses(x, None, training=False).data
    lo = (r - 1) * m.n_bins
    return y[:, lo : lo + int(m._bin_of(np.array([t]))[0])].sum(axis=1)


@pytest.mark.parametrize("kind", list(MODELS))
def test_cif_curves_match_likelihood_cif_per_time(kind, fitted):
    coh, models = fitted
    m = models[kind]
    x = coh.features[:30]
    tmax = float(coh.times.max())
    last_edge = float(m.edges[-1]) if kind == "deephit" else tmax
    times = np.concatenate([[0.0, 1.5, 1.5], np.linspace(0.01, 2.0 * last_edge, 147)])
    assert times.size * x.shape[0] > 2 * CHUNK_ROWS
    assert times.max() > last_edge
    for r in (1, 2):
        curves = m.cif_curves(x, times, r)
        assert curves.shape == (times.size, x.shape[0])
        want = np.array([_likelihood_cif(m, x, float(t), r) for t in times])
        assert np.max(np.abs(curves - want)) < 1e-12
        assert np.array_equal(curves[1], curves[2])
        assert np.array_equal(curves[0], np.zeros(x.shape[0]))


@pytest.mark.parametrize("with_zero", [True, False])
@pytest.mark.parametrize("kind", list(MODELS))
def test_cif_pairs_evaluator_makes_no_tensor_and_flips_no_flag(kind, with_zero, fitted,
                                                               monkeypatch):
    coh, models = fitted
    m = models[kind]
    times = np.array([0.0, 0.5, 1.5, 3.0 * coh.times.max()])[0 if with_zero else 1 :]
    flags = {name: p.requires_grad for name, p in m.graph.params.items()}
    assert all(flags.values())
    made, grad_scopes = [], []
    init, no_grad = gc.Tensor.__init__, gc.ParamGraph.no_grad

    def counting_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    def counting_no_grad(self):
        grad_scopes.append(1)
        return no_grad(self)

    monkeypatch.setattr(gc.Tensor, "__init__", counting_init)
    monkeypatch.setattr(gc.ParamGraph, "no_grad", counting_no_grad)
    at = m.cif_pairs(coh.features, times, 2)
    assert grad_scopes == [1]  # the covariate path runs without a tape
    assert made  # the patch sees the covariate path's tensors
    made.clear()
    grad_scopes.clear()
    n = coh.n
    ti, ri = np.divmod(np.arange(times.size * n), n)
    values = evaluate_pairs(at, ti, ri)
    assert made == [] and grad_scopes == []
    assert {name: p.requires_grad for name, p in m.graph.params.items()} == flags
    monkeypatch.undo()
    assert np.array_equal(values.reshape(times.size, n), m.cif_curves(coh.features, times, 2))
    assert np.all((values >= 0.0) & (values <= 1.0))
    if with_zero:
        assert np.all(values[:n] == 0.0)


@pytest.mark.parametrize("kind", list(MODELS))
def test_fit_and_cif_curves_leave_no_cyclic_garbage(kind):
    # tapes must be freed by reference counting alone
    coh = _synth(200, seed=3)
    times = np.linspace(0.0, float(coh.times.max()), 200)
    pygc.collect()
    pygc.disable()
    try:
        m = MODELS[kind](FIT_CONFIGS[kind]())
        m.fit(coh, seed=1)
        assert pygc.collect() == 0
        m.cif_curves(coh.features, times, 1)
        assert pygc.collect() == 0
    finally:
        pygc.enable()


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(list(MODELS)),
       st.lists(st.floats(0.0, 3.0), min_size=1, max_size=60))
def test_cif_curves_monotone_bounded_and_summing_below_one(fitted, kind, grid):
    coh, models = fitted
    tmax = float(coh.times.max())
    times = np.sort(np.asarray(grid)) * tmax
    x = coh.features[:25]
    curves = [models[kind].cif_curves(x, times, r) for r in (1, 2)]
    for c in curves:
        assert np.all(c >= 0.0) and np.all(c <= 1.0)
        assert np.all(np.diff(c, axis=0) >= -1e-12)
    total = curves[0] + curves[1]
    assert np.all(total <= 1.0 + 1e-9)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["weibull", "lognormal"]), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2**32 - 1), st.lists(st.floats(0.0, 10.0), min_size=1, max_size=40))
def test_dsm_incidences_sum_below_one_up_to_ten_times_training_max(fitted, distribution, k,
                                                                   n_risks, seed, grid):
    # one gate softmax over all components bounds the sum at any time, for
    # any parameters: a fitted model and one with every parameter perturbed
    coh, models = fitted
    tmax = float(coh.times.max())
    rng = np.random.default_rng(seed)
    m = _bare(DsmModel, _tiny_cfg(DsmConfig, k=k, nodes=4, distribution=distribution), d=coh.d,
              n_risks=n_risks, t_scale=tmax, seed=seed % 1000)
    for p in m.graph.params.values():
        p.data[...] += rng.normal(0.0, 0.5, size=p.data.shape)
    m.gate_b.data[...] = rng.normal(0.0, 3.0, size=n_risks * k)
    times = np.sort(np.asarray(grid)) * tmax
    x = coh.features[:25]
    for model in (models["dsm"], m):
        total = sum(model.cif_curves(x, times, r) for r in range(1, model.n_risks + 1))
        assert np.all(total <= 1.0 + 1e-9)


@pytest.mark.parametrize("kind", list(MODELS))
def test_cif_validity_invariants(kind):
    coh = _synth(240, seed=9)
    m = MODELS[kind](FIT_CONFIGS[kind]())
    m.fit(coh, seed=4)
    x = coh.features[:20]
    tmax = float(coh.times.max())
    grid = np.linspace(0.0, tmax, 50)
    prev = {r: np.full(20, -np.inf) for r in (1, 2)}
    for t in grid:
        total = np.zeros(20)
        for r in (1, 2):
            val = m.cif(x, float(t), r)
            assert np.all(val >= -1e-15) and np.all(val <= 1.0 + 1e-9)
            assert np.all(val >= prev[r] - 1e-9), f"{kind} risk {r} decreased"
            prev[r] = val
            total += val
        assert np.all(total <= 1.0 + 1e-9), f"{kind}: incidence sum exceeds 1"
    for r in (1, 2):
        assert np.all(m.cif(x, 0.0, r) <= 1e-9)


@pytest.mark.parametrize("kind", list(MODELS))
def test_fit_requires_events_for_every_risk(kind):
    rng = np.random.default_rng(0)
    censored_only = Cohort([f"c{i}" for i in range(40)], rng.normal(size=(40, 2)),
                           np.arange(1.0, 41.0), np.zeros(40), ["risk_1"], ["x1", "x2"])
    with pytest.raises(DataError, match="no events"):
        MODELS[kind](FIT_CONFIGS[kind]()).fit(censored_only, seed=0)


@pytest.mark.parametrize("kind", list(MODELS))
def test_seed_determinism_identical_checkpoints(kind, tmp_path):
    coh = _synth(200, seed=12)
    runs = []
    for _ in range(2):
        m = MODELS[kind](FIT_CONFIGS[kind]())
        m.fit(coh, seed=77)
        runs.append(_param_copies(m.graph))
    assert set(runs[0]) == set(runs[1])
    for name in runs[0]:
        assert np.array_equal(runs[0][name], runs[1][name]), name


@pytest.mark.parametrize("kind", list(MODELS))
def test_checkpoint_round_trip(kind, tmp_path):
    coh = _synth(200, seed=3)
    m = MODELS[kind](FIT_CONFIGS[kind]())
    m.fit(coh, seed=5)
    path = tmp_path / f"{kind}.rbck"
    m.save(path)
    again = load_model(path)
    x = coh.features[:7]
    for t in (0.5, 2.0, 7.0):
        for r in (1, 2):
            assert np.array_equal(m.cif(x, t, r), again.cif(x, t, r))


@pytest.mark.parametrize("kind", list(MODELS))
def test_checkpoint_written_from_the_parameters_bytes_unchanged(kind, tmp_path):
    m = MODELS[kind](FIT_CONFIGS[kind]())
    m.fit(_synth(200, seed=3), seed=5)
    gc.save_checkpoint(tmp_path / "copies.rbck", _param_copies(m.graph))
    m.save(tmp_path / f"{kind}.rbck")
    assert (tmp_path / f"{kind}.rbck").read_bytes() == (tmp_path / "copies.rbck").read_bytes()


@pytest.mark.parametrize("kind", list(MODELS))
def test_fitted_and_loaded_models_are_packed(kind, tmp_path):
    m = MODELS[kind](FIT_CONFIGS[kind]())
    m.fit(_synth(200, seed=3), seed=5)
    m.save(tmp_path / f"{kind}.rbck")
    for graph in (m.graph, load_model(tmp_path / f"{kind}.rbck").graph):
        # read before flat(), which would pack an unpacked graph
        views = [(t.data.base, t.grad.base) for t in graph.params.values()]
        data, grad = graph.flat()
        assert all(d is data and g is grad for d, g in views)


@pytest.mark.parametrize("kind", list(MODELS))
def test_fit_restores_the_best_epoch_without_per_parameter_copies(kind, monkeypatch):
    train, valid = holdout_split(_synth(200, seed=3), 0.3, seed=1)
    cfg = dataclasses.replace(FIT_CONFIGS[kind](), lr=0.05, max_epochs=12, patience=12)
    want = MODELS[kind](cfg)
    want_history = want.fit(train, seed=5, valid=valid)

    def copy_refused(self, *args):
        raise AssertionError("fit copied its parameters one by one")

    monkeypatch.setattr(gc.ParamGraph, "load_arrays", copy_refused)
    m = MODELS[kind](cfg)
    history = m.fit(train, seed=5, valid=valid)
    assert history.to_json() == want_history.to_json()
    assert m.graph.flat()[0].tobytes() == want.graph.flat()[0].tobytes()
    assert history.best_epoch < len(history.epochs) - 1  # a restore, not the last epoch
    with m.graph.no_grad():
        restored = m._loss(valid.features, valid.times, valid.events, None, training=False)
    assert restored.item() == history.best_valid


def test_every_truncated_checkpoint_raises_data_error(tmp_path):
    m = _bare(DsmModel, _tiny_cfg(DsmConfig, k=1, nodes=2), d=2, n_risks=1)
    path = tmp_path / "dsm.rbck"
    m.save(path)
    blob = path.read_bytes()
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(DataError):
            load_model(path)


@pytest.mark.parametrize("kind", list(MODELS))
def test_training_loss_decreases(kind):
    coh = _synth(400, seed=21)
    cfg = FIT_CONFIGS[kind]()
    cfg.max_epochs = 50
    cfg.patience = 50
    m = MODELS[kind](cfg)
    hist = m.fit(coh, seed=9)
    first = np.mean([e.train_loss for e in hist.epochs[:5]])
    last = np.mean([e.train_loss for e in hist.epochs[-5:]])
    assert last < first, f"{kind}: {first} -> {last}"


# -- gradients ----------------------------------------------------------------


@pytest.mark.parametrize("kind", list(MODELS))
def test_model_loss_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(31)
    n, d = 8, 3
    x = rng.normal(size=(n, d))
    t = rng.uniform(0.2, 3.0, size=n)
    e = np.array([1, 2, 0, 1, 0, 2, 1, 0])
    cfgs = {
        "dsm": _tiny_cfg(DsmConfig, nodes=4, k=2),
        "nfg": _tiny_cfg(NfgConfig, nodes=4, monotone_layers=2, monotone_nodes=4),
        "deephit": _tiny_cfg(DeepHitConfig, nodes=4, bins=4, alpha=0.3),
    }
    edges = [0.8, 1.5, 2.2, 3.0] if kind == "deephit" else None
    m = _bare(MODELS[kind], cfgs[kind], d, 2, t_scale=3.0, edges=edges, seed=8)

    def loss_fn():
        return m._loss(x, t, e, None, training=False)

    report = gc.grad_check(lambda: (m.graph, loss_fn), tolerance=1e-4)
    assert report.passed, f"{kind}: {report}"


# -- DSM specifics ---------------------------------------------------------------


def test_dsm_single_component_matches_weibull_closed_form():
    m = _bare(DsmModel, _tiny_cfg(DsmConfig, k=1, nodes=4), d=3, n_risks=2)
    # freeze: shape=2, scale=3, no encoder shifts; the gate pi_1(x) weighs it
    m.graph.params["base_a"].data[:1] = inv_softplus(2.0)  # risk 1's column
    m.graph.params["base_b"].data[:1] = inv_softplus(3.0)
    m.graph.params["head_a"].data[:, :1] = 0.0
    m.graph.params["head_b"].data[:, :1] = 0.0
    m.graph.params["gate_b"].data[...] = [0.3, -0.4]
    x = np.random.default_rng(0).normal(size=(5, 3))
    logits = (m.encoder(gc.Tensor(x)).data @ m.graph.params["gate_w"].data
              + m.graph.params["gate_b"].data)
    pi_1 = np.exp(logits[:, 0]) / np.exp(logits).sum(axis=1)
    assert np.ptp(pi_1) > 0.01  # the gate depends on x
    for t in (0.0, 0.7, 2.0, 9.0):
        expected = pi_1 * (1.0 - np.exp(-((t / 3.0) ** 2)))
        got = m.cif(x, t, 1)
        assert np.all(np.abs(got - expected) < 1e-10), t


def test_dsm_lognormal_single_component_closed_form():
    from scipy.stats import norm

    m = _bare(DsmModel, _tiny_cfg(DsmConfig, k=1, nodes=4, distribution="lognormal"),
              d=2, n_risks=1)
    m.graph.params["base_a"].data[...] = 0.4          # mu
    m.graph.params["base_b"].data[...] = inv_softplus(0.9)  # sigma
    m.graph.params["head_a"].data[...] = 0.0
    m.graph.params["head_b"].data[...] = 0.0
    x = np.zeros((3, 2))
    for t in (0.3, 1.0, 4.0):
        expected = norm.cdf((np.log(t) - 0.4) / 0.9)
        got = m.cif(x, t, 1)
        assert np.all(np.abs(got - expected) < 1e-10)


def test_dsm_stacked_parameters_start_at_the_per_risk_draws():
    # risk r's columns of each role hold the values its own parameters
    # drew, risk by risk in the order base_a, base_b, head_a, head_b
    m = _bare(DsmModel, _tiny_cfg(DsmConfig, k=2, nodes=6), d=3, n_risks=3, seed=5)
    rng = np.random.default_rng(5)
    gc.MLP(gc.ParamGraph(), "enc", [3, 6], rng, activation="relu", drop=0.0)
    for r in range(3):
        cols = slice(2 * r, 2 * r + 2)
        want = (inv_softplus(1.0) + rng.normal(0.0, 0.05, size=2),
                inv_softplus(4.0) + rng.normal(0.0, 0.05, size=2),
                0.1 * gc.xavier_uniform(rng, 6, 2, (6, 2)),
                0.1 * gc.xavier_uniform(rng, 6, 2, (6, 2)))
        got = (m.base_a.data[cols], m.base_b.data[cols], m.head_a.data[:, cols],
               m.head_b.data[:, cols])
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), r
    assert m.gate_w.data.tobytes() == gc.xavier_uniform(rng, 6, 6, (6, 6)).tobytes()


def _taped_dsm_cif_curves(m, x, times, r):
    """`cif_curves` with DSM's former evaluator: per chunk, the taped
    `_log_pdf_and_cdf` on Tensor wrappers of the gathered pairs, the gated
    sum through `tsum`, and F = 0 set at t = 0."""
    times = np.asarray(times, dtype=np.float64)
    with m.graph.no_grad():
        h = m.encoder(gc.Tensor(x))
        cols = slice((r - 1) * m.config.k, r * m.config.k)
        a, b = (p.data[:, cols] for p in m._components(h))
        gates = gc.softmax(m._gate_logits(h), axis=-1).data[:, cols]
    u = np.maximum(times / m.t_scale, 1e-300)

    def at(ti, ri):
        _, cdf = m._log_pdf_and_cdf(gc.Tensor(u[ti, None]), gc.Tensor(a[ri]), gc.Tensor(b[ri]))
        value = gc.tsum(gc.mul(gc.Tensor(gates[ri]), cdf), axis=-1).data
        return np.where(times[ti] == 0.0, 0.0, value)

    n = x.shape[0]
    ti, ri = np.divmod(np.arange(times.size * n), n)
    return evaluate_pairs(at, ti, ri).reshape(times.size, n)


def _dsm_per_risk_views(m):
    """Views of every DSM parameter in the graph order of the former
    per-risk layout: encoder; each risk's base_a, base_b, head_a, head_b
    columns; gate_w, gate_b."""
    views = [p.data for name, p in m.graph.params.items() if name.startswith("enc.")]
    for r in range(m.n_risks):
        cols = slice(r * m.config.k, (r + 1) * m.config.k)
        views += [m.base_a.data[cols], m.base_b.data[cols],
                  m.head_a.data[:, cols], m.head_b.data[:, cols]]
    return views + [m.gate_w.data, m.gate_b.data]


@pytest.mark.parametrize("distribution", ["weibull", "lognormal"])
@pytest.mark.parametrize("k", [1, 3])
def test_dsm_cif_curves_bit_equal_to_the_taped_evaluator(distribution, k):
    coh = _synth(150, seed=6)
    tmax = float(coh.times.max())
    rng = np.random.default_rng(k)
    m = _bare(DsmModel, _tiny_cfg(DsmConfig, k=k, nodes=6, distribution=distribution),
              d=coh.d, n_risks=2, t_scale=tmax, seed=k)
    # drawn per risk (encoder, each risk's columns, gate), which keeps the
    # perturbed models these cases were written for
    for view in _dsm_per_risk_views(m):
        view += rng.normal(0.0, 0.5, size=view.shape)
    # t = 0 twice, times inside the training range and up to 5x past it
    times = np.concatenate([[0.0, 1e-9, 0.0], np.sort(coh.times[:40]),
                            tmax * np.array([1.0, 1.5, 3.0, 5.0])])
    assert times.size * coh.n > 2 * CHUNK_ROWS
    for r in (1, 2):
        got = m.cif_curves(coh.features, times, r)
        want = _taped_dsm_cif_curves(m, coh.features, times, r)
        assert got.tobytes() == want.tobytes()
        assert np.all(got[[0, 2]] == 0.0) and np.all(got[-1] > got[1])


def _dsm_gate_weights(m, x, r):
    """Risk r's mixture weights pi_j(x) / sum_{i in r} pi_i(x); rows sum to one."""
    cols = slice((r - 1) * m.config.k, r * m.config.k)
    return gc.softmax(m._gate_logits(m.encoder(gc.Tensor(x))).data[:, cols], axis=-1).data


def test_dsm_gates_sum_to_one():
    coh = _synth(200, seed=2)
    m = DsmModel(_tiny_cfg(DsmConfig, k=3, warmup_iters=20))
    m.fit(coh, seed=3)
    gates = _dsm_gate_weights(m, coh.features[:50], 1)
    assert np.max(np.abs(gates.sum(axis=1) - 1.0)) < 1e-12


def test_dsm_recovers_base_shape_on_single_risk_data():
    true_shape = 1.8
    spec = SynthSpec(d=3, shapes=[true_shape], scales=[5.0],
                     betas=[[0.0, 0.0, 0.0]], horizon=20.0, seed=17)
    coh = generate_synthetic(spec, 2000)
    cfg = DsmConfig(lr=1e-3, batch_size=256, layers=1, nodes=8, k=1,
                    warmup_iters=1500, max_epochs=5, patience=5)
    m = DsmModel(cfg)
    m.fit(coh, seed=6)
    # beta is zero, so evaluate the fitted shape at typical covariates
    h = m.encoder(gc.Tensor(coh.features[:200]))
    a = m.base_a.data + (h.data @ m.graph.params["head_a"].data)
    shapes = np.log1p(np.exp(a))
    assert abs(np.mean(shapes) - true_shape) / true_shape < 0.15


def _dsm_covariate_free(distribution, k, n_risks, seed=0):
    """A DSM with zero shift heads and gate weights, uneven gate biases, and
    a cohort for it.

    Scale 0.3 (rescaled time) puts every component near 1 at t=1e3, so the
    censored row there has survival below PROB_FLOOR.
    """
    cfg = _tiny_cfg(DsmConfig, k=k, nodes=4, distribution=distribution)
    m = _bare(DsmModel, cfg, d=3, n_risks=n_risks, seed=seed)
    rng = np.random.default_rng(seed + 1)
    m.gate_w.data[...] = 0.0
    m.gate_b.data[...] = rng.normal(0.0, 0.7, size=n_risks * k)
    for name in ("head_a", "head_b"):
        m.graph.params[name].data[...] = 0.0
    for r in range(n_risks):
        cols = slice(r * k, (r + 1) * k)
        if distribution == "weibull":
            a, b = inv_softplus(1.5), inv_softplus(0.3)
        else:
            a, b = np.log(0.3), inv_softplus(0.4)
        m.base_a.data[cols] = a + rng.normal(0.0, 0.1, size=k)
        m.base_b.data[cols] = b + rng.normal(0.0, 0.05, size=k)
    n = 40
    t = rng.uniform(0.02, 0.6, size=n)
    e = rng.integers(0, n_risks + 1, size=n)
    e[:n_risks + 1] = np.arange(n_risks + 1)
    t[0] = 1e3
    return m, rng.normal(size=(n, 3)), t, e


def _closed_form(m, t, e):
    from riskbench.models.dsm import _covariate_free_nll

    log_u = np.log(np.maximum(t / m.t_scale, 1e-10))
    member = (e[e > 0] == np.arange(1, m.n_risks + 1)[:, None]).astype(float)
    params = np.array([p.data.reshape(m.n_risks, m.config.k)
                       for p in (m.base_a, m.base_b, m.gate_b)])
    return _covariate_free_nll(m.config.distribution, params, log_u[None, e > 0], member,
                               log_u[None, e == 0])


@pytest.mark.parametrize("distribution", ["weibull", "lognormal"])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("n_risks", [1, 2])
def test_dsm_covariate_free_nll_matches_tape_likelihood(distribution, k, n_risks):
    m, x, t, e = _dsm_covariate_free(distribution, k, n_risks)
    x0 = np.zeros((1, 3))
    total = sum(m.cif_curves(x0, t, r + 1)[:, 0] for r in range(n_risks))
    surv = 1.0 - total[e == 0]
    assert np.any(surv < PROB_FLOOR) and np.any(surv > 0.5)
    loss = m._loss(x, t, e, None, training=False)
    loss.backward()
    value, grad = _closed_form(m, t, e)
    assert abs(value - loss.item()) <= 1e-12 * abs(loss.item())
    tape = np.concatenate([p.grad for p in (m.base_a, m.base_b, m.gate_b)])
    assert np.max(np.abs(grad.ravel() - tape)) <= 1e-12 * np.max(np.abs(tape))


@pytest.mark.parametrize("distribution", ["weibull", "lognormal"])
def test_dsm_covariate_free_gradient_matches_finite_differences(distribution):
    m, _x, t, e = _dsm_covariate_free(distribution, k=3, n_risks=2, seed=5)
    _, grad = _closed_form(m, t, e)
    step = 1e-6
    for p, g in zip((m.base_a, m.base_b, m.gate_b), grad.reshape(3, -1)):
        for j in range(p.data.size):
            keep = p.data[j]
            p.data[j] = keep + step
            up = _closed_form(m, t, e)[0]
            p.data[j] = keep - step
            down = _closed_form(m, t, e)[0]
            p.data[j] = keep
            fd = (up - down) / (2 * step)
            assert abs(fd - g[j]) <= 1e-6 * max(1.0, abs(g[j])), (j, fd, g[j])


@pytest.mark.parametrize("iters", [0, 40])
def test_dsm_warmup_steps_only_base_parameters(iters):
    train, valid = holdout_split(_synth(200, seed=4), 0.1, seed=0)
    m = _bare(DsmModel, _tiny_cfg(DsmConfig, k=2, warmup_iters=iters), d=train.d,
              n_risks=2, t_scale=float(train.times.max()), seed=3)
    before = _param_copies(m.graph)
    ran, stop = m._pre_fit(train, valid)
    after = _param_copies(m.graph)
    for name in before:
        moved = not np.array_equal(before[name], after[name])
        assert moved == (iters > 0 and name in ("base_a", "base_b", "gate_b")), name
    assert all(np.all(p.grad == 0.0) for p in m.graph.params.values())
    assert (ran, stop) == (0, "none") if iters == 0 else 0 < ran <= iters


def _rosenbrock(x):
    a, b = x
    value = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
    return value, np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)])


def test_bfgs_converges_on_rosenbrock_and_honours_the_cap():
    from riskbench.models.dsm import GTOL, _bfgs

    start = np.array([-1.2, 1.0])
    best, iters, stop = _bfgs(_rosenbrock, lambda x: _rosenbrock(x)[0], start, 500)
    assert stop == "gtol" and iters < 500
    assert np.max(np.abs(best - 1.0)) < 1e-5
    assert np.max(np.abs(_rosenbrock(best)[1])) < GTOL
    assert _bfgs(_rosenbrock, lambda x: _rosenbrock(x)[0], start, 3)[1:] == (3, "cap")
    # flat value, nonzero gradient: no step is acceptable
    best, iters, stop = _bfgs(lambda x: (1.0, np.ones(2)), lambda x: 1.0, start, 50)
    assert (iters, stop) == (0, "gtol") and np.array_equal(best, start)


def test_bfgs_stops_without_validation_gain_and_keeps_best_iterate():
    from riskbench.models.dsm import VALID_PATIENCE, _bfgs

    seen = []

    def valid_nll(x):  # improves over the first two steps, never again
        seen.append(x.copy())
        return [5.0, 4.0, 3.0][len(seen) - 1] if len(seen) <= 3 else 3.5

    best, iters, stop = _bfgs(_rosenbrock, valid_nll, np.array([-1.2, 1.0]), 500)
    assert (iters, stop) == (2 + VALID_PATIENCE, "valid")
    assert len(seen) == iters + 1
    assert np.array_equal(best, seen[2])


def test_bfgs_caps_each_step_and_rejects_overflowing_trials():
    from riskbench.models.dsm import MAX_STEP, _bfgs

    def objective(x):  # minimum at 0; exp(-500 x) overflows for x < -1.42
        value = float(np.sum(np.exp(-500.0 * x) + 500.0 * x))
        return value, 500.0 * (1.0 - np.exp(-500.0 * x))

    trials = []

    def recorded(x):
        trials.append(x.copy())
        return objective(x)

    start = np.array([0.1, 0.3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        best, iters, stop = _bfgs(recorded, lambda x: objective(x)[0], start, 1)
    assert (iters, stop) == (1, "cap")
    assert all(np.max(np.abs(x - start)) <= MAX_STEP for x in trials)
    assert any(np.any(-500.0 * x > 709.8) for x in trials)  # an overflowing trial was tried
    assert np.isfinite(objective(best)[0]) and objective(best)[0] < objective(start)[0]


@pytest.mark.parametrize("kind", list(MODELS))
def test_history_records_warmup_iterations_and_stop(kind):
    hist = MODELS[kind](FIT_CONFIGS[kind]()).fit(_synth(200, seed=2), seed=1)
    doc = hist.to_json()
    if kind == "dsm":
        assert 0 < doc["warmup_iters"] <= 30
        assert doc["warmup_stop"] in ("gtol", "valid", "cap")
    else:
        assert (doc["warmup_iters"], doc["warmup_stop"]) == (0, "none")


@pytest.mark.parametrize("old_config", [True, False])
def test_dsm_load_rejects_checkpoint_with_per_risk_gates(tmp_path, old_config):
    # checkpoints from before the joint gate held one gate per risk, and
    # their sidecars the warm-up rate and budget fields; such a model must
    # not be read as if its gates were joint
    m = _bare(DsmModel, _tiny_cfg(DsmConfig, k=2, nodes=4), d=3, n_risks=2)
    path = tmp_path / "dsm.rbck"
    m.save(path)
    arrays = _param_copies(m.graph)
    gate_w, gate_b = arrays.pop("gate_w"), arrays.pop("gate_b")
    for r in range(2):
        arrays[f"risk{r}.gate_w"] = gate_w[:, 2 * r : 2 * r + 2]
        arrays[f"risk{r}.gate_b"] = gate_b[2 * r : 2 * r + 2]
    gc.save_checkpoint(path, arrays)
    if old_config:
        sidecar = tmp_path / "dsm.rbck.json"
        doc = json.loads(sidecar.read_text())
        doc["config"].update(warmup_lr=1e-2, budget_weight=2000.0, budget_margin=0.003,
                             budget_horizon=1.05)
        sidecar.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="warmup_lr" if old_config else "'gate_w'"):
        DsmModel.load(path)
    if not old_config:
        # checkpoints from before the stacked roles held each risk's base
        # and shift parameters apart, as risk{r}.base_a, ...
        arrays = _param_copies(m.graph)
        for name in ("base_a", "base_b", "head_a", "head_b"):
            stacked = arrays.pop(name)
            for r in range(2):
                arrays[f"risk{r}.{name}"] = stacked[..., 2 * r : 2 * r + 2]
        gc.save_checkpoint(path, arrays)
        with pytest.raises(DataError, match="'base_a'"):
            DsmModel.load(path)


def test_dsm_censored_only_rejected():
    coh = Cohort([f"z{i}" for i in range(30)], np.zeros((30, 2)), np.arange(1.0, 31.0),
                 np.zeros(30), ["risk_1"], ["a", "b"])
    with pytest.raises(DataError):
        DsmModel(_tiny_cfg(DsmConfig)).fit(coh, seed=0)


# -- NFG specifics -----------------------------------------------------------------


def _nfg_balance(m, x):
    """B(E(x)), the softmax risk-balance probabilities; rows sum to one."""
    return m._balance(m.encoder(gc.Tensor(x))).data


def _nfg_monotone_value(m, x, t, r):
    """(M, dM/du), each (n, 1), of risk r's time net at time t."""
    w = m.config.monotone_nodes
    proj = m.encoder(gc.Tensor(x)) @ m.w_emb[:, (r - 1) * w : r * w]
    u = gc.Tensor(np.full((x.shape[0], 1), t / m.t_scale))
    mval, dval = time_net(u, proj, [p[r - 1] for p in m.net])
    return mval.data, dval.data


def test_nfg_monotone_net_positive_and_nondecreasing():
    m = _bare(NfgModel, _tiny_cfg(NfgConfig, nodes=8, monotone_nodes=8), d=3,
              n_risks=2, t_scale=4.0, seed=13)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(100, 3))
    ts = rng.uniform(0.0, 4.0, size=100)
    for t in ts[:20]:
        for r in (1, 2):
            mval, _ = _nfg_monotone_value(m, x[:5], float(t), r)
            assert np.all(mval > 0.0)
    # finite-difference slope of u*M(u) in u at 100 random points
    h = 1e-6
    for i in range(100):
        xi = x[i : i + 1]
        u = ts[i] / m.t_scale
        m1, _ = _nfg_monotone_value(m, xi, float(ts[i]), 1)
        m2, _ = _nfg_monotone_value(m, xi, float(ts[i] + h * m.t_scale), 1)
        slope = ((u + h) * m2[0, 0] - u * m1[0, 0]) / h
        assert slope >= -1e-9


def test_nfg_tangent_matches_finite_difference():
    m = _bare(NfgModel, _tiny_cfg(NfgConfig, nodes=8, monotone_nodes=8), d=3,
              n_risks=2, t_scale=1.0, seed=14)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(10, 3))
    h = 1e-6
    for r in (1, 2):
        for t in (0.2, 0.9, 2.3):
            mval, dval = _nfg_monotone_value(m, x, t, r)
            up, _ = _nfg_monotone_value(m, x, t + h, r)
            down, _ = _nfg_monotone_value(m, x, t - h, r)
            fd = (up - down) / (2 * h)
            assert np.max(np.abs(fd - dval)) < 1e-5


def test_nfg_embedding_sensitivity():
    m = _bare(NfgModel, _tiny_cfg(NfgConfig, nodes=8, monotone_nodes=8), d=3,
              n_risks=1, seed=15)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(1, 3))
    b = a + rng.normal(scale=0.5, size=(1, 3))
    ma, _ = _nfg_monotone_value(m, a, 0.7, 1)
    mb, _ = _nfg_monotone_value(m, b, 0.7, 1)
    assert abs(ma[0, 0] - mb[0, 0]) > 1e-9


def test_nfg_incidences_bounded_by_balance():
    coh = _synth(200, seed=8)
    m = NfgModel(FIT_CONFIGS["nfg"]())
    m.fit(coh, seed=2)
    x = coh.features[:10]
    balance = _nfg_balance(m, x)
    assert np.max(np.abs(balance.sum(axis=1) - 1.0)) < 1e-12
    big_t = float(coh.times.max()) * 50
    for r in (1, 2):
        val = m.cif(x, big_t, r)
        assert np.all(val <= balance[:, r - 1] + 1e-12)


def test_nfg_balance_converges_to_event_proportions():
    # identical covariates, uncensored two-risk data at 30% / 70%
    rng = np.random.default_rng(5)
    n = 600
    events = (rng.random(n) < 0.7).astype(int) + 1
    times = np.where(events == 1, rng.gamma(2.0, 1.0, n), rng.gamma(3.0, 1.5, n))
    coh = Cohort([f"p{i}" for i in range(n)], np.zeros((n, 2)), times, events,
                 ["risk_1", "risk_2"], ["a", "b"])
    cfg = NfgConfig(lr=5e-3, batch_size=128, layers=1, nodes=8,
                    monotone_layers=2, monotone_nodes=8,
                    max_epochs=150, patience=150)
    m = NfgModel(cfg)
    m.fit(coh, seed=11)
    props = np.array([np.mean(events == 1), np.mean(events == 2)])
    got = _nfg_balance(m, np.zeros((1, 2)))[0]
    assert np.max(np.abs(got - props)) < 0.05, (got, props)


def test_nfg_loss_finite_at_initialization_over_seeds():
    coh = _synth(150, seed=30)
    x, t, e = coh.features, coh.times, coh.events
    for seed in range(10):
        m = _bare(NfgModel, _tiny_cfg(NfgConfig, nodes=8, monotone_nodes=8),
                  d=4, n_risks=2, t_scale=float(t.max()), seed=seed)
        val = m._loss(x, t, e, None, training=False).item()
        assert np.isfinite(val)


class _PerRiskNet:
    """One risk's monotone time network as NFG ran it before the R nets were
    stacked: its own forward chain, with the time input entering through a
    K=1 product, and a tangent that broadcasts through a ones-column product.
    The reference for the stacked `time_net`."""

    def __init__(self, w_emb, weights):
        self.w_emb = w_emb
        self.w_time, self.b_in, *hidden, self.w_out, self.b_out = weights
        self.hidden = list(zip(hidden[::2], hidden[1::2]))

    def forward(self, u_col, proj):
        wt2 = gc.mul(self.w_time, self.w_time)
        a = gc.tanh(gc.add(gc.add(u_col @ wt2, proj), self.b_in))
        layers = [(wt2, a)]
        for w, b in self.hidden:
            w2 = gc.mul(w, w)
            a = gc.tanh(gc.add(a @ w2, b))
            layers.append((w2, a))
        w2 = gc.mul(self.w_out, self.w_out)
        z_out = gc.add(a @ w2, self.b_out)
        return gc.softplus(z_out), (layers, w2, z_out)

    @staticmethod
    def tangent(record):
        layers, w_out2, z_out = record
        wt2, a = layers[0]
        da = gc.mul(gc.sub(1.0, gc.mul(a, a)), gc.Tensor(np.ones((a.shape[0], 1))) @ wt2)
        for w2, a in layers[1:]:
            da = gc.mul(gc.sub(1.0, gc.mul(a, a)), da @ w2)
        return gc.mul(gc.sigmoid(z_out), da @ w_out2)


def _per_risk_net(m, r, copy):
    """Risk r's (0-based) slice of the stacked weights: index nodes of the
    leaves, or, with `copy`, contiguous constants as each net once owned."""
    w = m.config.monotone_nodes
    if copy:
        return _PerRiskNet(gc.Tensor(m.w_emb.data[:, r * w : (r + 1) * w].copy()),
                           [gc.Tensor(p.data[r].copy()) for p in m.net])
    return _PerRiskNet(m.w_emb[:, r * w : (r + 1) * w], [p[r] for p in m.net])


def _per_risk_loss(m, x, t, e):
    """The training loss as the per-risk loop assembled it, risk by risk."""
    u_col = gc.Tensor(np.maximum(t / m.t_scale, 1e-10)[:, None])
    h = m.encoder(gc.Tensor(x))
    balance = m._balance(h)
    loglik = total_cif = None
    for r in range(m.n_risks):
        net = _per_risk_net(m, r, copy=False)
        b_col = balance[:, r : r + 1]
        mval, record = net.forward(u_col, h @ net.w_emb)
        decay = gc.texp(gc.mul(gc.mul(u_col, mval), -1.0))
        cif = gc.mul(b_col, gc.sub(1.0, decay)).reshape(-1)
        density = gc.mul(gc.mul(b_col, decay), gc.add(mval, gc.mul(u_col, net.tangent(record))))
        term = m._clamped_log_sum(density.reshape(-1), e == r + 1, True)
        loglik = term if loglik is None else gc.add(loglik, term)
        total_cif = cif if total_cif is None else gc.add(total_cif, cif)
    return m._nll(loglik, gc.sub(1.0, total_cif), e, True)


def _per_risk_cif_curves(m, x, times, r):
    """`cif_curves` as the per-risk nets answered it: encoder and risk r's
    embedding term once, then its forward time path per (time, subject) pair."""
    net = _per_risk_net(m, r - 1, copy=True)
    with m.graph.no_grad():
        h = m.encoder(gc.Tensor(x))
        proj = (h @ net.w_emb).data
        b_col = m._balance(h).data[:, r - 1 : r]
    u = times / m.t_scale

    def at(ti, ri):
        mval, _ = net.forward(gc.Tensor(u[ti, None]), gc.Tensor(proj[ri]))
        decay = gc.texp(gc.mul(gc.mul(u[ti, None], mval), -1.0))
        return np.where(times[ti] == 0.0, 0.0, gc.mul(b_col[ri], gc.sub(1.0, decay)).data[:, 0])

    ti, ri = np.divmod(np.arange(times.size * x.shape[0]), x.shape[0])
    return evaluate_pairs(at, ti, ri).reshape(times.size, x.shape[0])


def _nfg_case(n_risks, depth, seed):
    m = _bare(NfgModel, _tiny_cfg(NfgConfig, nodes=8, monotone_layers=depth, monotone_nodes=6),
              d=3, n_risks=n_risks, t_scale=7.0, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=(60, 3))
    return m, x, rng.uniform(0.0, 7.0, size=60), rng.integers(0, n_risks + 1, size=60)


@pytest.mark.parametrize("depth", [0, 1, 3])
@pytest.mark.parametrize("n_risks", [1, 2, 3, 4])
def test_nfg_stacked_nets_match_the_per_risk_reference(n_risks, depth):
    m, x, t, e = _nfg_case(n_risks, depth, seed=10 * n_risks + depth)
    times = np.concatenate([[0.0], np.linspace(0.01, 14.0, 97)])
    assert times.size * x.shape[0] > 2 * CHUNK_ROWS
    for r in range(1, n_risks + 1):
        got = m.cif_curves(x, times, r)
        assert got.tobytes() == _per_risk_cif_curves(m, x, times, r).tobytes(), r
    loss, grads = _loss_and_leaf_grads(m, lambda: m._loss(x, t, e, None, training=True))
    want_loss, want_grads = _loss_and_leaf_grads(m, lambda: _per_risk_loss(m, x, t, e))
    assert abs(loss - want_loss) < 1e-12
    for name, grad in want_grads.items():
        # one risk's balance is the constant 1
        assert np.any(grad != 0.0) or (n_risks == 1 and name.startswith("balance")), name
        assert np.max(np.abs(grads[name] - grad)) < 1e-12, name


@pytest.mark.parametrize("n_risks, depth", [(1, 0), (2, 1), (3, 3)])
def test_nfg_cif_curves_match_the_per_risk_reference_with_every_parameter_moved(n_risks, depth):
    # fresh biases are 0, and proj + 0 is exact, so only moved biases show
    # whether the query adds u * w_time^2, proj and b_in in the tape's order
    m, x, *_ = _nfg_case(n_risks, depth, seed=5 + depth)
    rng = np.random.default_rng(depth)
    for p in m.graph.params.values():
        p.data[...] += rng.normal(0.0, 0.5, size=p.data.shape)
    times = np.concatenate([[0.0, 1e-9], np.linspace(0.01, 35.0, 96)])
    assert times.size * x.shape[0] > 2 * CHUNK_ROWS
    for r in range(1, n_risks + 1):
        got = m.cif_curves(x, times, r)
        assert got.tobytes() == _per_risk_cif_curves(m, x, times, r).tobytes(), r


@pytest.mark.parametrize("depth", [0, 1, 3])
def test_nfg_evaluator_reusing_its_blocks_keeps_every_call_apart(depth):
    m, x, *_ = _nfg_case(2, depth, seed=30 + depth)
    times = np.linspace(0.01, 14.0, 97)
    at = m.cif_pairs(x, times, 2)
    rng = np.random.default_rng(depth)
    k = 2 * CHUNK_ROWS + 3  # more pairs than the reused blocks hold
    ti, ri = rng.integers(0, times.size, size=k), rng.integers(0, x.shape[0], size=k)
    first = at(ti, ri)
    small = at(ti[:5], ri[-5:])
    small_bytes = small.tobytes()
    assert at(ti, ri).tobytes() == first.tobytes()
    at(ti[5:10], ri[:5])  # runs in the blocks the small call ran in
    assert small.tobytes() == small_bytes  # no result is a view of a reused block
    curves = m.cif_curves(x, times, 2)
    assert np.max(np.abs(first - curves[ti, ri])) < 1e-12
    assert np.max(np.abs(small - curves[ti[:5], ri[-5:]])) < 1e-12
    last = at(np.array([times.size - 1]), np.array([x.shape[0] - 1]))
    assert at(np.array([-1]), np.array([-1])).tobytes() == last.tobytes()
    with pytest.raises(IndexError):
        at(np.array([times.size]), np.array([0]))
    with pytest.raises(IndexError):
        at(np.array([0]), np.array([x.shape[0]]))


@pytest.mark.parametrize("n_risks, depth", [(1, 0), (2, 2), (4, 3)])
def test_nfg_initial_parameters_equal_the_per_risk_draw(n_risks, depth):
    m, *_ = _nfg_case(n_risks, depth, seed=21)
    rng = np.random.default_rng(21)
    gc.MLP(gc.ParamGraph(), "enc", [3, 8], rng, activation="relu")  # the encoder's draws
    want = {"balance.w": gc.xavier_uniform(rng, 8, n_risks, (8, n_risks))}
    # each risk's net drew its time, embedding, hidden and output weights in turn
    fans = [("w_time", 1, 6), ("w_emb", 8, 6)]
    fans += [(f"h{i}.w", 6, 6) for i in range(depth - 1)] + [("w_out", 6, 1)]
    draws = [{name: gc.xavier_uniform(rng, a, b, (a, b)) for name, a, b in fans}
             for _ in range(n_risks)]
    for name, *_ in fans:
        per_risk = [d[name] for d in draws]
        want[f"mono.{name}"] = (np.concatenate(per_risk, axis=1) if name == "w_emb"
                                else np.stack(per_risk))
    for name, array in want.items():
        assert m.graph.params[name].data.tobytes() == array.tobytes(), name
    assert not any(p.data.any() for name, p in m.graph.params.items()
                   if name not in want and not name.startswith("enc"))


# -- DeepHit specifics ---------------------------------------------------------------


def test_deephit_uniform_logits_split_mass_evenly():
    m = _bare(DeepHitModel, _tiny_cfg(DeepHitConfig, bins=15, nodes=4), d=3,
              n_risks=2, t_scale=5.0, edges=np.linspace(0.5, 5.0, 15), seed=4)
    # zero the head output layers: all logits equal -> uniform joint softmax
    for r in range(2):
        m.graph.params["head.w2"].data[r] = 0.0
        m.graph.params["head.b2"].data[r] = 0.0
    x = np.random.default_rng(0).normal(size=(6, 3))
    for r in (1, 2):
        val = m.cif(x, 5.0, r)
        assert np.allclose(val, 0.5, atol=1e-12)


def test_deephit_total_mass_and_cif_monotone():
    coh = _synth(250, seed=19)
    m = DeepHitModel(FIT_CONFIGS["deephit"]())
    m.fit(coh, seed=1)
    x = coh.features[:15]
    tmax = float(m.edges[-1])
    total = m.cif(x, tmax, 1) + m.cif(x, tmax, 2)
    assert np.max(np.abs(total - 1.0)) < 1e-12
    prev = np.zeros(15)
    for edge in m.edges:
        val = m.cif(x, float(edge), 1)
        assert np.all(val >= prev - 1e-15)
        prev = val


def test_deephit_bin_edges_strictly_increasing():
    coh = _synth(500, seed=23)
    m = DeepHitModel(FIT_CONFIGS["deephit"]())
    m.fit(coh, seed=2)
    assert np.all(np.diff(m.edges) > 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1e3) | st.sampled_from([0.0, 1.0, 2.5]), min_size=1,
                max_size=60), st.integers(1, 20))
def test_deephit_bin_edges_equal_quantile_unique_form(times, bins):
    from types import SimpleNamespace

    from riskbench.models.deephit import _linear_quantiles

    times = np.array(times)
    probs = np.linspace(0.0, 1.0, bins + 1)
    assert _linear_quantiles(times, probs).tobytes() == np.quantile(times, probs).tobytes()
    qs = np.quantile(times, probs)
    qs[0] = 0.0
    want = np.unique(qs)
    want = want[1:] if want[0] == 0.0 else want
    m = DeepHitModel(DeepHitConfig(bins=bins))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # merged bins
        m._prepare(SimpleNamespace(times=times))
    assert m.edges.tobytes() == want.tobytes()


def test_deephit_cif_curves_equal_unique_bin_form(fitted):
    coh, models = fitted
    m = models["deephit"]
    times = np.concatenate(([0.0], coh.times[:40], [2.0 * coh.times.max()]))
    y = m._masses(coh.features, None, training=False).data
    bins = m._bin_of(times)
    for r in (1, 2):
        sums = np.zeros((m.n_bins + 1, coh.n))
        for l in np.unique(bins):
            sums[l] = y[:, (r - 1) * m.n_bins : (r - 1) * m.n_bins + l].sum(axis=1)
        assert m.cif_curves(coh.features, times, r).tobytes() == sums[bins].tobytes()


def test_deephit_alpha_zero_is_pure_likelihood():
    coh = _synth(150, seed=25)
    cfg = _tiny_cfg(DeepHitConfig, bins=6, alpha=0.5, max_epochs=2)
    m = DeepHitModel(cfg)
    m.fit(coh, seed=3)
    x, t, e = coh.features[:60], coh.times[:60], coh.events[:60]
    with_rank = m._loss(x, t, e, None, training=False).item()
    y = m._masses(x, None, training=False)
    penalty = m._ranking_penalty(y, t, e, np.maximum(m._bin_of(t), 1)).item()
    m.config.alpha = 0.0
    pure = m._loss(x, t, e, None, training=False).item()
    assert abs(with_rank - (pure + 0.5 * penalty)) < 1e-12
    assert penalty > 0.0


def test_deephit_penalty_equals_pairwise_oracle_built_from_cif_curves():
    """Each pair compares the running CIF that `cif_curves` returns: the mean
    over risk r's pairs (e_i = r, t_i < t_j) of exp(-(F_r(t_i | x_i) -
    F_r(t_i | x_j)) / sigma), summed over the risks."""
    coh = _synth(150, seed=41)
    m = DeepHitModel(_tiny_cfg(DeepHitConfig, bins=6, alpha=0.5, sigma=0.3, max_epochs=2))
    m.fit(coh, seed=3)
    x, t, e = coh.features[:90], coh.times[:90], coh.events[:90]
    assert np.all(t > 0)  # the loss reads bin 1 at t = 0, where F_r(0 | x) = 0
    y = m._masses(x, None, training=False)
    got = m._ranking_penalty(y, t, e, np.maximum(m._bin_of(t), 1)).item()
    want = 0.0
    for r in (1, 2):
        cif = m.cif_curves(x, t, r)  # cif[i, j] = F_r(t_i | x_j)
        ev = np.nonzero(e == r)[0]
        later = t[None, :] > t[ev][:, None]
        terms = np.exp(-(cif[ev, ev][:, None] - cif[ev]) / m.config.sigma)[later]
        assert terms.size > 0
        want += terms.mean()
    assert abs(got - want) <= 1e-12 * want


def test_deephit_separable_data_orders_risk_one():
    spec = SynthSpec(d=2, shapes=[2.0, 2.0], scales=[4.0, 6.0],
                     betas=[[2.5, 0.0], [0.0, 0.0]], horizon=12.0, seed=29)
    coh = generate_synthetic(spec, 2000)
    cfg = DeepHitConfig(lr=5e-3, batch_size=250, layers=2, nodes=32,
                        bins=15, alpha=0.1, max_epochs=40, patience=10)
    m = DeepHitModel(cfg)
    m.fit(coh, seed=7)
    res = ctd_index(coh, m, r=1)
    assert res.value > 0.8, res.value


def test_deephit_heads_consume_embedding_and_raw_features():
    m = _bare(DeepHitModel, _tiny_cfg(DeepHitConfig, bins=6, nodes=8), d=5,
              n_risks=2, edges=np.linspace(1, 6, 6), seed=20)
    w = m.graph.params["head.w1"].data[0]
    assert w.shape == (8 + 5, 8)  # encoder width + raw feature dim


_DEEPHIT_HEAD_LAYERS = (("w1", "l0.w"), ("b1", "l0.b"), ("w2", "l1.w"), ("b2", "l1.b"))


def _deephit_per_risk_heads(m):
    """The former layout: one MLP per risk, head{r}.l0 and head{r}.l1, in a
    graph of its own, holding copies of risk r's rows of the stacked arrays."""
    graph = gc.ParamGraph()
    w1, w2 = m.graph.params["head.w1"].data, m.graph.params["head.w2"].data
    heads = [gc.MLP(graph, f"head{r}", [w1.shape[1], w1.shape[2], w2.shape[2]],
                    np.random.default_rng(0), activation="relu", drop=m.config.dropout)
             for r in range(m.n_risks)]
    for r in range(m.n_risks):
        for name, layer in _DEEPHIT_HEAD_LAYERS:
            view = graph.params[f"head{r}.{layer}"].data
            view[...] = m.graph.params[f"head.{name}"].data[r].reshape(view.shape)
    return graph, heads


def _deephit_per_risk_masses(m, heads, x, rng, training):
    """The former forward: each head on [h, x], logits joined, one joint softmax."""
    xt = gc.Tensor(x)
    hx = gc.concat([m.encoder(xt, rng=rng, training=training), xt], axis=-1)
    logits = gc.concat([head(hx, rng=rng, training=training) for head in heads], axis=-1)
    return gc.softmax(logits, axis=-1)


def _deephit_step_bytes(m, x, t, e, head_grads):
    """Masses and loss of one training step, with every gradient, as bytes."""
    m.graph.zero_grad()
    masses = m._masses(x, np.random.default_rng(8), training=True).data
    loss = m._loss(x, t, e, np.random.default_rng(9), training=True)
    loss.backward()
    grads = {name: p.grad.tobytes() for name, p in m.graph.params.items()
             if name.startswith("enc.")}
    return masses.tobytes(), loss.data.tobytes(), {**grads, **head_grads()}


def test_deephit_stacked_heads_start_at_the_per_risk_draws():
    cfg = _tiny_cfg(DeepHitConfig, layers=2, nodes=6, bins=4)
    m = _bare(DeepHitModel, cfg, d=3, n_risks=3, edges=[1.0, 2.0, 3.0, 4.0], seed=11)
    rng = np.random.default_rng(11)
    gc.MLP(gc.ParamGraph(), "enc", [3, 6, 6], rng)  # the encoder draws first
    graph = gc.ParamGraph()
    for r in range(3):
        gc.MLP(graph, f"head{r}", [6 + 3, 6, 4], rng)
    for r in range(3):
        for name, layer in _DEEPHIT_HEAD_LAYERS:
            want = graph.params[f"head{r}.{layer}"].data
            got = m.graph.params[f"head.{name}"].data[r]
            assert got.reshape(want.shape).tobytes() == want.tobytes(), (r, name)


@pytest.mark.parametrize("n_risks", [2, 3])
def test_deephit_stacked_heads_bit_equal_to_per_risk_mlps(monkeypatch, n_risks):
    m = _bare(DeepHitModel, _tiny_cfg(DeepHitConfig, layers=2, nodes=16, bins=5, alpha=0.1,
                                      dropout=0.25),
              d=5, n_risks=n_risks, t_scale=10.0, edges=np.linspace(2.0, 10.0, 5), seed=4)
    rng = np.random.default_rng(5)
    x, t = rng.normal(size=(64, 5)), rng.uniform(0.0, 10.0, size=64)
    e = rng.integers(0, n_risks + 1, size=64)
    assert {0, 1, 2} <= set(e)
    stacked = _deephit_step_bytes(m, x, t, e, lambda: {
        f"head{r}.{layer}": m.graph.params[f"head.{name}"].grad[r].tobytes()
        for r in range(n_risks) for name, layer in _DEEPHIT_HEAD_LAYERS})
    graph, heads = _deephit_per_risk_heads(m)
    monkeypatch.setattr(m, "_masses", lambda x, rng, training: _deephit_per_risk_masses(
        m, heads, x, rng, training))
    graph.zero_grad()
    per_risk = _deephit_step_bytes(m, x, t, e, lambda: {
        name: p.grad.tobytes() for name, p in graph.params.items()})
    assert stacked[0] == per_risk[0] and stacked[1] == per_risk[1]
    assert sorted(stacked[2]) == sorted(per_risk[2])
    for name, grad in per_risk[2].items():
        assert stacked[2][name] == grad, name


def test_deephit_load_rejects_checkpoint_with_per_risk_heads(tmp_path):
    # checkpoints from before the stacked heads held one MLP per risk, as
    # head{r}.l0.w, head{r}.l0.b, head{r}.l1.w and head{r}.l1.b
    m = _bare(DeepHitModel, _tiny_cfg(DeepHitConfig, bins=4, nodes=4), d=3, n_risks=2,
              edges=[1.0, 2.0, 3.0, 4.0])
    path = tmp_path / "deephit.rbck"
    m.save(path)
    arrays = _param_copies(m.graph)
    for name, layer in _DEEPHIT_HEAD_LAYERS:
        stacked = arrays.pop(f"head.{name}")
        for r in range(2):
            arrays[f"head{r}.{layer}"] = stacked[r].squeeze(0) if name[0] == "b" else stacked[r]
    gc.save_checkpoint(path, arrays)
    with pytest.raises(DataError, match="'head.w1'"):
        load_model(path)


def test_paper_facing_defaults():
    assert DsmConfig().warmup_iters == 10_000
    assert DeepHitConfig().bins == 15
    assert BaseConfig().max_epochs == 1000
    from riskbench.mae import MaeConfig

    mae = MaeConfig()
    assert mae.mask_ratio == 0.70
    assert mae.lr == 1e-4
    assert mae.weight_decay == 0.05
    assert mae.patch_size == (15, 10, 10)


def test_deephit_empty_bin_merge_warns():
    rng = np.random.default_rng(6)
    times = np.repeat([1.0, 2.0, 3.0], 40)  # only 3 distinct times
    events = rng.integers(0, 2, size=120)
    if not events.any():
        events[0] = 1
    coh = Cohort([f"q{i}" for i in range(120)], rng.normal(size=(120, 2)), times, events,
                 ["risk_1"], ["a", "b"])
    m = DeepHitModel(_tiny_cfg(DeepHitConfig, bins=10, max_epochs=1))
    with pytest.warns(UserWarning, match="merged"):
        m.fit(coh, seed=0)
    assert np.all(np.diff(m.edges) > 0)


def _censored_keep_loop(bins, e, L, R):
    """Reference: the per-censored-row, per-risk loop the mask replaced."""
    keep = np.zeros((len(bins), R * L))
    for i in np.nonzero(e == 0)[0]:
        for r in range(R):
            keep[i, r * L + bins[i] - 1 : (r + 1) * L] = 1.0
    return keep


def test_deephit_censored_keep_matches_loop():
    from riskbench.models.deephit import _censored_keep

    rng = np.random.default_rng(12)
    n, R = 200, 3
    times = np.round(rng.uniform(0.0, 6.0, size=n), 0)  # heavy ties, some t=0
    times[:5] = 0.0
    events = rng.integers(0, R + 1, size=n)
    events[:2] = 0
    events[5:5 + R] = np.arange(1, R + 1)
    coh = Cohort([f"k{i}" for i in range(n)], rng.normal(size=(n, 2)), times, events,
                 [f"risk_{r + 1}" for r in range(R)], ["a", "b"])
    m = DeepHitModel(_tiny_cfg(DeepHitConfig, bins=6))
    m._prepare(coh)
    bins = np.maximum(m._bin_of(coh.times), 1)
    assert np.any(coh.times == 0.0)
    got = _censored_keep(bins, coh.events, m.n_bins, R)
    assert np.array_equal(got, _censored_keep_loop(bins, coh.events, m.n_bins, R))
    assert set(np.unique(got)) <= {0.0, 1.0}


def _loss_and_leaf_grads(m, loss_fn):
    m.graph.zero_grad()
    loss = loss_fn()
    loss.backward()
    return loss.item(), {name: p.grad.copy() for name, p in m.graph.params.items()}


def _pairwise_ranking_penalty(m, y, t, e):
    """DeepHit's ranking penalty as it was written before the factored pass,
    on the running CIF: per risk, the (n_ev, nb) differences of every
    event-later pair."""
    L = m.n_bins
    running = np.triu(np.ones((L, L)))
    total = None
    for r in range(m.n_risks):
        idx = np.nonzero(e == r + 1)[0]
        if idx.size == 0:
            continue
        pair_mask = t[None, :] > t[idx][:, None]  # (n_ev, nb)
        n_pairs = int(pair_mask.sum())
        if n_pairs == 0:
            continue
        cum = gc.matmul(y[:, r * L : (r + 1) * L], gc.Tensor(running))
        onehot = np.zeros((idx.size, L))
        onehot[np.arange(idx.size), np.maximum(m._bin_of(t[idx]), 1) - 1] = 1.0
        f_at_ti = gc.matmul(cum, gc.Tensor(onehot.T))  # (nb, n_ev)
        own = f_at_ti[idx, np.arange(idx.size)]  # (n_ev,)
        diff = gc.sub(own.reshape(idx.size, 1), gc.transpose(f_at_ti, (1, 0)))
        contrib = gc.mul(gc.texp(gc.mul(diff, -1.0 / m.config.sigma)),
                         gc.Tensor(pair_mask.astype(np.float64)))
        term = gc.mul(gc.tsum(contrib), 1.0 / n_pairs)
        total = term if total is None else gc.add(total, term)
    return total


def _selector_deephit_loss(m, x, t, e):
    """DeepHit's likelihood with every entry picked by a dense 0/1 selector, as
    it was written before gradcore had a taped index, plus the pairwise
    ranking penalty when alpha > 0."""
    from riskbench.models.deephit import _censored_keep

    nb, L, R = len(t), m.n_bins, m.n_risks
    y = m._masses(x, None, training=True)
    bins = np.maximum(m._bin_of(t), 1)
    pick = np.zeros((nb, R * L))
    rows = np.nonzero(e > 0)[0]
    pick[rows, (e[rows] - 1) * L + (bins[rows] - 1)] = 1.0
    own_mass = gc.tsum(gc.mul(y, gc.Tensor(pick)), axis=-1)
    event_ll = m._clamped_log_sum(own_mass, e > 0, True)
    remaining = gc.tsum(gc.mul(y, gc.Tensor(_censored_keep(bins, e, L, R))), axis=-1)
    loss = m._nll(event_ll, remaining, e, True)
    if m.config.alpha > 0.0:
        loss = gc.add(loss, gc.mul(_pairwise_ranking_penalty(m, y, t, e), m.config.alpha))
    return loss


def _deephit_loss_pair(alpha):
    """(factored, oracle) loss and leaf gradients of one 48-row batch."""
    m = _bare(DeepHitModel, _tiny_cfg(DeepHitConfig, bins=6, alpha=alpha), d=3,
              n_risks=2, t_scale=7.0, edges=np.linspace(1.0, 6.0, 6), seed=8)
    rng = np.random.default_rng(31)
    x = rng.normal(size=(48, 3))
    t = np.round(rng.uniform(0.0, 7.0, size=48), 1)
    t[0] = 0.0
    e = rng.integers(0, 3, size=48)
    e[:3] = [1, 0, 2]  # an event at t=0, and censored rows
    new = _loss_and_leaf_grads(m, lambda: m._loss(x, t, e, None, training=True))
    old = _loss_and_leaf_grads(m, lambda: _selector_deephit_loss(m, x, t, e))
    assert all(np.any(grad != 0.0) for grad in old[1].values())
    return new, old


def _rel_err(got, want) -> float:
    """max |got - want| over max |want|: error relative to the array's scale."""
    got, want = np.asarray(got), np.asarray(want)
    scale = np.max(np.abs(want))
    return float(np.max(np.abs(got - want)) / scale) if scale > 0 else float(np.max(np.abs(got)))


def test_deephit_likelihood_bit_equal_to_selector_matrix_form():
    new, old = _deephit_loss_pair(alpha=0.0)
    assert new[0] == old[0]
    for name, grad in old[1].items():
        assert np.array_equal(new[1][name], grad), name


def test_deephit_loss_with_ranking_penalty_matches_pairwise_form():
    new, old = _deephit_loss_pair(alpha=0.5)
    assert _rel_err(new[0], old[0]) <= 1e-12
    for name, grad in old[1].items():
        assert _rel_err(new[1][name], grad) <= 1e-12, name


def _penalty_model(n_risks, n_bins, sigma):
    """A DeepHit model with bins on 1..n_bins, built on one feature; the
    penalty reads only the bins and the running-CIF matrix the build makes."""
    m = DeepHitModel(DeepHitConfig(sigma=sigma))
    m.n_risks, m.d = n_risks, 1
    m.edges = np.arange(1.0, n_bins + 1.0)
    m._build(np.random.default_rng(0))
    return m


def _penalty_and_logit_grad(penalty_fn, m, logits, t, e):
    """The penalty of softmax(logits) and its gradient with respect to the logits."""
    leaf = gc.Tensor(logits, requires_grad=True)
    penalty = penalty_fn(m, gc.softmax(leaf, axis=-1), t, e)
    if penalty is None:
        return None, None
    penalty.backward()
    return penalty.item(), leaf.grad


def _factored(m, y, t, e):
    return m._ranking_penalty(y, t, e, np.maximum(m._bin_of(t), 1))


@st.composite
def _penalty_batches(draw):
    R, L = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    nb = draw(st.integers(1, 24))
    # times on a grid of L + 2 values from 0 past the last edge: ties, t=0
    t = np.array(draw(st.lists(st.integers(0, L + 1), min_size=nb, max_size=nb)), float)
    risks = draw(st.lists(st.integers(1, R), min_size=1, max_size=R, unique=True))
    e = np.array(draw(st.lists(st.sampled_from([0] + risks), min_size=nb, max_size=nb)))
    seed = draw(st.integers(0, 2**32 - 1))
    logits = np.random.default_rng(seed).normal(scale=2.0, size=(nb, R * L))
    sigma = draw(st.sampled_from([0.002, 0.1, 1.0, 10.0]))
    return _penalty_model(R, L, sigma), logits, t, e


def _assert_penalty_matches_pairwise(m, logits, t, e):
    got = _penalty_and_logit_grad(_factored, m, logits, t, e)
    want = _penalty_and_logit_grad(_pairwise_ranking_penalty, m, logits, t, e)
    if want[0] is None:
        assert got[0] is None
        return
    assert _rel_err(got[0], want[0]) <= 1e-12
    # The softmax can cancel a logit gradient down to rounding noise (with one
    # risk, C's last column is the total mass, 1): measure the error against
    # the scale of the gradient with respect to the masses, penalty / sigma.
    scale = max(np.max(np.abs(want[1])), want[0] / m.config.sigma)
    assert np.max(np.abs(got[1] - want[1])) <= 1e-12 * scale


@settings(max_examples=150, deadline=None)
@given(_penalty_batches())
def test_deephit_factored_penalty_matches_pairwise_oracle(batch):
    _assert_penalty_matches_pairwise(*batch)


@pytest.mark.parametrize("sigma", [0.002, 0.1, 1.0, 10.0])
@pytest.mark.parametrize("case", ["ties_and_t0", "risk_without_events", "risk_without_pairs",
                                  "all_censored"])
def test_deephit_factored_penalty_matches_pairwise_oracle_on_edge_cases(case, sigma):
    t = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 3.0, 5.0])
    e = {"ties_and_t0": [1, 2, 1, 0, 2, 1, 2, 0],
         "risk_without_events": [1, 0, 1, 0, 1, 0, 1, 0],  # risk 2 has no event
         "risk_without_pairs": [1, 0, 1, 1, 0, 0, 0, 2],  # risk 2's event is the latest
         "all_censored": [0] * 8}[case]
    m = _penalty_model(2, 4, sigma)
    logits = np.random.default_rng(5).normal(scale=2.0, size=(8, 8))
    _assert_penalty_matches_pairwise(m, logits, t, np.array(e))
    penalty = _factored(m, gc.softmax(gc.Tensor(logits), axis=-1), t, np.array(e))
    assert (penalty is None) == (case == "all_censored")


def test_deephit_penalty_gradient_matches_finite_differences():
    t = np.array([0.0, 1.0, 1.0, 2.5, 3.0, 4.0, 4.0, 6.0])
    e = np.array([1, 2, 0, 1, 2, 1, 0, 0])
    m = _penalty_model(2, 5, 0.1)
    graph = gc.ParamGraph()
    leaf = graph.parameter("logits", np.random.default_rng(6).normal(size=(8, 10)))
    report = gc.grad_check(
        lambda: (graph, lambda: _factored(m, gc.softmax(leaf, axis=-1), t, e)),
        tolerance=1e-6, h=1e-6)
    assert report.passed, str(report)


def test_deephit_penalty_tape_holds_no_pairwise_array():
    """Every taped node of the penalty is at most (n_ev + nb) * R * L large."""
    R, L, nb = 3, 6, 200
    rng = np.random.default_rng(7)
    t = np.round(rng.uniform(0.0, 7.0, size=nb), 1)
    e = rng.integers(0, R + 1, size=nb)
    leaf = gc.Tensor(rng.normal(size=(nb, R * L)), requires_grad=True)
    penalty = _factored(_penalty_model(R, L, 1.0), gc.softmax(leaf, axis=-1), t, e)
    limit = (int(np.count_nonzero(e)) + nb) * R * L
    assert int(np.count_nonzero(e)) * nb > limit  # a pairwise array would break it
    seen, stack, sizes = set(), [penalty], []
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        sizes.append(node.size)
        stack.extend(node._parents)
    assert len(sizes) > 5 and max(sizes) <= limit


# -- shared likelihood ---------------------------------------------------------------


def test_clamped_log_sum_counts_selected_rows_below_floor_while_training():
    m = NfgModel()
    p = gc.Tensor([1e-15, 1e-15, 0.5, PROB_FLOOR / 10, PROB_FLOOR, 0.0])
    rows = np.array([True, False, True, True, True, False])
    value = m._clamped_log_sum(p, rows, training=False).item()
    assert m.clamp_count == 0
    assert value == pytest.approx(3 * np.log(PROB_FLOOR) + np.log(0.5), rel=1e-15)
    m._clamped_log_sum(p, rows, training=True)
    assert m.clamp_count == 2  # rows 0 and 3; row 4 sits at the floor, not below


def test_clamped_log_sum_gradient_zero_at_or_below_floor():
    m = NfgModel()
    p = gc.Tensor([1e-15, PROB_FLOOR, 0.5, 0.25, 0.125], requires_grad=True)
    rows = np.array([True, True, True, True, False])
    m._clamped_log_sum(p, rows, training=False).backward()
    assert np.array_equal(p.grad, [0.0, 0.0, 2.0, 4.0, 0.0])


def test_nll_adds_clamped_censored_term_and_averages():
    m = NfgModel()
    e = np.array([1, 0, 2, 0, 0])
    surv = gc.Tensor([0.1, 0.5, 0.2, 1e-20, 0.8])
    loss = m._nll(gc.Tensor(-3.0), surv, e, training=True)
    expected = -(-3.0 + np.log(0.5) + np.log(PROB_FLOOR) + np.log(0.8)) / 5
    assert loss.item() == pytest.approx(expected, rel=1e-15)
    assert m.clamp_count == 1


def test_deephit_counts_event_and_censored_clamps():
    cfg = _tiny_cfg(DeepHitConfig, bins=4, nodes=4, alpha=0.0)
    m = _bare(DeepHitModel, cfg, d=2, n_risks=2, edges=[1.0, 2.0, 3.0, 4.0])
    # constant logits: almost all mass on (risk 1, bin 1), e^-60 elsewhere
    for r in range(2):
        m.graph.params["head.w2"].data[r] = 0.0
        m.graph.params["head.b2"].data[r] = -30.0
    m.graph.params["head.b2"].data[0][:, 0] = 30.0
    x = np.zeros((4, 2))
    t = np.array([1.5, 0.5, 0.5, 2.5])  # bins 2, 1, 1, 3
    e = np.array([1, 1, 0, 0])
    loss = m._loss(x, t, e, None, training=True).item()
    # event in bin 2 and censoring at bin 3 each clamp; the other two do not
    assert m.clamp_count == 2
    assert loss == pytest.approx(-2.0 * np.log(PROB_FLOOR) / 4, rel=1e-9)


def test_refit_reports_its_own_clamped_terms():
    spec = SynthSpec(d=2, shapes=[0.5, 0.5], scales=[1, 1], betas=[[3, 0], [0, 3]],
                     horizon=50, seed=2)
    coh = generate_synthetic(spec, 200)
    m = NfgModel(NfgConfig(lr=0.05, max_epochs=30))
    first = m.fit(coh, seed=1)
    second = m.fit(coh, seed=1)
    assert first.clamped_terms > 0
    assert second.clamped_terms == first.clamped_terms
    assert second.best_valid == first.best_valid


def test_load_model_sidecar_errors(tmp_path):
    m = _bare(NfgModel, _tiny_cfg(NfgConfig, nodes=2, monotone_nodes=2), d=2, n_risks=1)
    path = tmp_path / "nfg.rbck"
    sidecar = tmp_path / "nfg.rbck.json"
    m.save(path)
    good = sidecar.read_text()
    for text, match in [("{not json", "invalid JSON"), ("[]", "not a JSON object"),
                        (good.replace('"nfg"', '"cox"'), "unknown model kind 'cox'")]:
        sidecar.write_text(text)
        with pytest.raises(DataError, match=match):
            load_model(path)
    sidecar.unlink()
    with pytest.raises(DataError, match="not found"):
        load_model(path)
    sidecar.mkdir()
    with pytest.raises(DataError, match="Is a directory"):
        load_model(path)


@pytest.mark.parametrize("kind", ["nfg", "mae"])
def test_model_load_reads_checkpoint_then_sidecar_once_each(tmp_path, monkeypatch, kind):
    """`load_model` and `MaeModel.load` open `<ckpt>`, then `<ckpt>.json`, each once."""
    path = tmp_path / "model.rbck"
    if kind == "mae":
        model = MaeModel(MaeConfig(embed_dim=8, enc_layers=1, dec_layers=1, heads=2))
        load = MaeModel.load
    else:
        model = _bare(NfgModel, _tiny_cfg(NfgConfig, nodes=2, monotone_nodes=2), d=2, n_risks=1)
        load = load_model
    model.save(path)
    opened, real_open = [], io.open

    def spy(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", spy)  # pathlib opens through io.open
    monkeypatch.setattr(builtins, "open", spy)
    load(path)
    ours = [name for name in opened if name.startswith(str(tmp_path))]
    assert ours == [str(path), f"{path}.json"]


@pytest.mark.parametrize("damage, match", [
    (lambda doc: doc.pop("config"), "lacks 'config'"),
    (lambda doc: doc.pop("n_risks"), "lacks 'n_risks'"),
    (lambda doc: doc.pop("d"), "lacks 'd'"),
    (lambda doc: doc.pop("t_scale"), "lacks 't_scale'"),
    (lambda doc: doc["config"].update(bogus=1), "bad checkpoint sidecar .*'bogus'"),
])
def test_load_model_incomplete_sidecar_raises_data_error(tmp_path, damage, match):
    m = _bare(NfgModel, _tiny_cfg(NfgConfig, nodes=2, monotone_nodes=2), d=2, n_risks=1)
    path = tmp_path / "nfg.rbck"
    m.save(path)
    sidecar = tmp_path / "nfg.rbck.json"
    doc = json.loads(sidecar.read_text())
    damage(doc)
    sidecar.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=match):
        load_model(path)
