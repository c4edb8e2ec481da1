import gc as pygc
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbench import gradcore as gc
from riskbench.cohort import Cohort, SynthSpec, generate_synthetic, holdout_split
from riskbench.errors import DataError
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
from riskbench.models.base import CHUNK_ROWS, PROB_FLOOR
from riskbench.models.dsm import inv_softplus


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
        h = m.encoder(gc.Tensor(x))
        return m._risk_cif_density(r - 1, u, h, m._balance(h))[0].data
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
        runs.append(m.graph.named_arrays())
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
    m.graph.params["risk0.base_a"].data[...] = inv_softplus(2.0)
    m.graph.params["risk0.base_b"].data[...] = inv_softplus(3.0)
    m.graph.params["risk0.head_a"].data[...] = 0.0
    m.graph.params["risk0.head_b"].data[...] = 0.0
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
    m.graph.params["risk0.base_a"].data[...] = 0.4          # mu
    m.graph.params["risk0.base_b"].data[...] = inv_softplus(0.9)  # sigma
    m.graph.params["risk0.head_a"].data[...] = 0.0
    m.graph.params["risk0.head_b"].data[...] = 0.0
    x = np.zeros((3, 2))
    for t in (0.3, 1.0, 4.0):
        expected = norm.cdf((np.log(t) - 0.4) / 0.9)
        got = m.cif(x, t, 1)
        assert np.all(np.abs(got - expected) < 1e-10)


def test_dsm_gates_sum_to_one():
    coh = _synth(200, seed=2)
    m = DsmModel(_tiny_cfg(DsmConfig, k=3, warmup_iters=20))
    m.fit(coh, seed=3)
    gates = m.gate_weights(coh.features[:50], 1)
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
    a = m.base_a[0].data + (h.data @ m.graph.params["risk0.head_a"].data)
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
    for r in range(n_risks):
        for name in ("head_a", "head_b"):
            m.graph.params[f"risk{r}.{name}"].data[...] = 0.0
        if distribution == "weibull":
            a, b = inv_softplus(1.5), inv_softplus(0.3)
        else:
            a, b = np.log(0.3), inv_softplus(0.4)
        m.base_a[r].data[...] = a + rng.normal(0.0, 0.1, size=k)
        m.base_b[r].data[...] = b + rng.normal(0.0, 0.05, size=k)
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
    params = np.array([[p.data for p in m.base_a], [p.data for p in m.base_b],
                       m.gate_b.data.reshape(m.n_risks, m.config.k)])
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
    tape = np.concatenate([p.grad for p in m.base_a + m.base_b] + [m.gate_b.grad])
    assert np.max(np.abs(grad.ravel() - tape)) <= 1e-12 * np.max(np.abs(tape))


@pytest.mark.parametrize("distribution", ["weibull", "lognormal"])
def test_dsm_covariate_free_gradient_matches_finite_differences(distribution):
    m, _x, t, e = _dsm_covariate_free(distribution, k=3, n_risks=2, seed=5)
    _, grad = _closed_form(m, t, e)
    step = 1e-6
    for params, grads in ((m.base_a, grad[0]), (m.base_b, grad[1]),
                          ([m.gate_b], [grad[2].ravel()])):
        for p, g in zip(params, grads):
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
    before = m.graph.named_arrays()
    ran, stop = m._pre_fit(train, valid)
    after = m.graph.named_arrays()
    for name in before:
        moved = not np.array_equal(before[name], after[name])
        assert moved == (iters > 0 and (".base_" in name or name == "gate_b")), name
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
    arrays = m.graph.named_arrays()
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


def test_dsm_censored_only_rejected():
    coh = Cohort([f"z{i}" for i in range(30)], np.zeros((30, 2)), np.arange(1.0, 31.0),
                 np.zeros(30), ["risk_1"], ["a", "b"])
    with pytest.raises(DataError):
        DsmModel(_tiny_cfg(DsmConfig)).fit(coh, seed=0)


# -- NFG specifics -----------------------------------------------------------------


def test_nfg_monotone_net_positive_and_nondecreasing():
    m = _bare(NfgModel, _tiny_cfg(NfgConfig, nodes=8, monotone_nodes=8), d=3,
              n_risks=2, t_scale=4.0, seed=13)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(100, 3))
    ts = rng.uniform(0.0, 4.0, size=100)
    for t in ts[:20]:
        mval, _ = m.monotone_value(x[:5], float(t), 1)
        assert np.all(mval > 0.0)
    # finite-difference slope of u*M(u) in u at 100 random points
    h = 1e-6
    for i in range(100):
        xi = x[i : i + 1]
        u = ts[i] / m.t_scale
        m1, _ = m.monotone_value(xi, float(ts[i]), 1)
        m2, _ = m.monotone_value(xi, float(ts[i] + h * m.t_scale), 1)
        slope = ((u + h) * m2[0, 0] - u * m1[0, 0]) / h
        assert slope >= -1e-9


def test_nfg_tangent_matches_finite_difference():
    m = _bare(NfgModel, _tiny_cfg(NfgConfig, nodes=8, monotone_nodes=8), d=3,
              n_risks=1, t_scale=1.0, seed=14)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(10, 3))
    h = 1e-6
    for t in (0.2, 0.9, 2.3):
        mval, dval = m.monotone_value(x, t, 1)
        up, _ = m.monotone_value(x, t + h, 1)
        down, _ = m.monotone_value(x, t - h, 1)
        fd = (up - down) / (2 * h)
        assert np.max(np.abs(fd - dval)) < 1e-5


def test_nfg_embedding_sensitivity():
    m = _bare(NfgModel, _tiny_cfg(NfgConfig, nodes=8, monotone_nodes=8), d=3,
              n_risks=1, seed=15)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(1, 3))
    b = a + rng.normal(scale=0.5, size=(1, 3))
    ma, _ = m.monotone_value(a, 0.7, 1)
    mb, _ = m.monotone_value(b, 0.7, 1)
    assert abs(ma[0, 0] - mb[0, 0]) > 1e-9


def test_nfg_incidences_bounded_by_balance():
    coh = _synth(200, seed=8)
    m = NfgModel(FIT_CONFIGS["nfg"]())
    m.fit(coh, seed=2)
    x = coh.features[:10]
    balance = m.balance_head(x)
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
    got = m.balance_head(np.zeros((1, 2)))[0]
    assert np.max(np.abs(got - props)) < 0.05, (got, props)


def test_nfg_loss_finite_at_initialization_over_seeds():
    coh = _synth(150, seed=30)
    x, t, e = coh.features, coh.times, coh.events
    for seed in range(10):
        m = _bare(NfgModel, _tiny_cfg(NfgConfig, nodes=8, monotone_nodes=8),
                  d=4, n_risks=2, t_scale=float(t.max()), seed=seed)
        val = m._loss(x, t, e, None, training=False).item()
        assert np.isfinite(val)


# -- DeepHit specifics ---------------------------------------------------------------


def test_deephit_uniform_logits_split_mass_evenly():
    m = _bare(DeepHitModel, _tiny_cfg(DeepHitConfig, bins=15, nodes=4), d=3,
              n_risks=2, t_scale=5.0, edges=np.linspace(0.5, 5.0, 15), seed=4)
    # zero the head output layers: all logits equal -> uniform joint softmax
    for name, p in m.graph.params.items():
        if name.startswith("head") and ".l1." in name:
            p.data[...] = 0.0
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
    penalty = m._ranking_penalty(y, t, e).item()
    m.config.alpha = 0.0
    pure = m._loss(x, t, e, None, training=False).item()
    assert abs(with_rank - (pure + 0.5 * penalty)) < 1e-12
    assert penalty > 0.0


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
    w = m.graph.params["head0.l0.w"]
    assert w.shape == (8 + 5, 8)  # encoder width + raw feature dim


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


def _selector_deephit_loss(m, x, t, e):
    """DeepHit's loss with every entry picked by a dense 0/1 selector, as
    it was written before gradcore had a taped index."""
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
    lower = np.tril(np.ones((L, L)))
    total = None
    for r in range(R):
        idx = np.nonzero(e == r + 1)[0]
        pair_mask = t[None, :] > t[idx][:, None]
        sel = np.zeros((nb, R * L))
        sel[:, r * L : (r + 1) * L] = 1.0
        y_r = gc.tsum(gc.mul(y, gc.Tensor(sel)).reshape(nb, R, L), axis=1)
        cum = gc.matmul(y_r, gc.Tensor(lower))
        onehot = np.zeros((idx.size, L))
        onehot[np.arange(idx.size), np.maximum(m._bin_of(t[idx]), 1) - 1] = 1.0
        f_at_ti = gc.matmul(cum, gc.Tensor(onehot.T))
        own_sel = np.zeros((nb, idx.size))
        own_sel[idx, np.arange(idx.size)] = 1.0
        own = gc.tsum(gc.mul(f_at_ti, gc.Tensor(own_sel)), axis=0)
        diff = gc.sub(own.reshape(idx.size, 1), gc.transpose(f_at_ti, (1, 0)))
        contrib = gc.mul(gc.texp(gc.mul(diff, -1.0 / m.config.sigma)),
                         gc.Tensor(pair_mask.astype(np.float64)))
        term = gc.mul(gc.tsum(contrib), 1.0 / int(pair_mask.sum()))
        total = term if total is None else gc.add(total, term)
    return gc.add(loss, gc.mul(total, m.config.alpha))


def test_deephit_loss_bit_equal_to_selector_matrix_form():
    m = _bare(DeepHitModel, _tiny_cfg(DeepHitConfig, bins=6, alpha=0.5), d=3,
              n_risks=2, t_scale=7.0, edges=np.linspace(1.0, 6.0, 6), seed=8)
    rng = np.random.default_rng(31)
    x = rng.normal(size=(48, 3))
    t = np.round(rng.uniform(0.0, 7.0, size=48), 1)
    t[0] = 0.0
    e = rng.integers(0, 3, size=48)
    e[:3] = [1, 0, 2]  # an event at t=0, and censored rows
    new = _loss_and_leaf_grads(m, lambda: m._loss(x, t, e, None, training=True))
    old = _loss_and_leaf_grads(m, lambda: _selector_deephit_loss(m, x, t, e))
    assert new[0] == old[0]
    for name, grad in old[1].items():
        assert np.array_equal(new[1][name], grad), name
    assert all(np.any(grad != 0.0) for grad in old[1].values())


def _selector_nfg_risk_cif_density(self, r, u_col, h, balance):
    """NfgModel._risk_cif_density with B(E(x))_r picked by a one-hot product."""
    one_hot = np.zeros(self.n_risks)
    one_hot[r] = 1.0
    b_col = gc.mul(balance, gc.Tensor(one_hot)).sum(axis=-1, keepdims=True)
    cif, m, decay, record = self._risk_cif(r, u_col, h @ self.monotone[r].w_emb, b_col)
    dm = self.monotone[r].tangent(record)
    density = gc.mul(gc.mul(b_col, decay), gc.add(m, gc.mul(u_col, dm)))
    return cif.reshape(-1), density.reshape(-1)


def test_nfg_loss_bit_equal_to_one_hot_form(monkeypatch):
    m = _bare(NfgModel, _tiny_cfg(NfgConfig, monotone_nodes=8), d=3, n_risks=3,
              t_scale=7.0, seed=9)
    rng = np.random.default_rng(32)
    x = rng.normal(size=(40, 3))
    t = rng.uniform(0.0, 7.0, size=40)
    e = rng.integers(0, 4, size=40)
    new = _loss_and_leaf_grads(m, lambda: m._loss(x, t, e, None, training=True))
    monkeypatch.setattr(NfgModel, "_risk_cif_density", _selector_nfg_risk_cif_density)
    old = _loss_and_leaf_grads(m, lambda: m._loss(x, t, e, None, training=True))
    assert new[0] == old[0]
    for name, grad in old[1].items():
        assert np.array_equal(new[1][name], grad), name
    assert np.any(old[1]["balance.w"] != 0.0)


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
        m.graph.params[f"head{r}.l1.w"].data[...] = 0.0
        m.graph.params[f"head{r}.l1.b"].data[...] = -30.0
    m.graph.params["head0.l1.b"].data[0] = 30.0
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
