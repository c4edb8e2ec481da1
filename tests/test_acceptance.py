"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import time

import numpy as np
from scipy import stats

from riskbench.cli import main
from riskbench.cohort import (
    Cohort,
    SynthSpec,
    generate_synthetic,
    oracle_cif_curve,
    stratified_kfold,
)
from riskbench import gradcore as gc
from riskbench.mae import (
    MaeConfig,
    MaeModel,
    foreground_flags,
    make_phantoms,
    patchify,
    psnr,
    sample_mask,
    train_mae,
    unpatchify,
)
from riskbench.metrics import ctd_bruteforce, ctd_index
from riskbench.models import build_model
from riskbench.pipeline import HParamGrid, child_seed, nested_cv, CvSettings


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


# -- criterion 1: C^td oracle equivalence ------------------------------------------


def test_acceptance_1_ctd_bruteforce_equivalence():
    rng = np.random.default_rng(42)
    start = time.time()
    checked = 0
    ok = True
    for _ in range(200):
        n_risks = int(rng.integers(1, 4))
        n = int(rng.integers(4, 51))
        censor_frac = rng.uniform(0.0, 0.7)
        times = rng.uniform(0.1, 10.0, size=n)
        events = rng.integers(1, n_risks + 1, size=n)
        events[rng.random(n) < censor_frac] = 0
        if not np.any(events > 0):
            events[0] = 1
        cohort = Cohort([f"s{i}" for i in range(n)], np.zeros((n, 1)), times, events,
                        [f"r{q}" for q in range(n_risks)], ["x1"])
        scores = rng.uniform(size=(n, n))
        if rng.random() < 0.3:
            scores = np.round(scores, 1)  # force ties
        for r in range(1, n_risks + 1):
            try:
                fast = ctd_index(cohort, scores=scores, r=r)
            except ValueError:
                continue
            slow = ctd_bruteforce(cohort, scores, r=r)
            checked += 1
            if fast.value != slow.value or fast.pairs != slow.pairs:
                ok = False
    elapsed = time.time() - start
    _verdict(1, "ctd oracle equivalence", ok and elapsed < 10.0,
             f"{checked} comparisons, {elapsed:.1f}s")


# -- criterion 2: CIF validity on random fitted instances ------------------------------


def test_acceptance_2_cif_validity_twenty_instances():
    rng = np.random.default_rng(2024)
    failures = []
    deephit_total_err = 0.0
    for inst in range(20):
        kind = ["dsm", "nfg", "deephit"][inst % 3]
        n_risks = int(rng.integers(1, 4))
        d = int(rng.integers(2, 6))
        spec = SynthSpec(
            d=d,
            shapes=list(rng.uniform(0.9, 2.5, n_risks)),
            scales=list(rng.uniform(3.0, 9.0, n_risks)),
            betas=[list(rng.normal(0, 0.7, d)) for _ in range(n_risks)],
            horizon=float(rng.uniform(8.0, 25.0)),
            seed=int(rng.integers(1e6)),
        )
        n = int(rng.integers(150, 300))
        cohort = generate_synthetic(spec, n)
        if any(cohort.event_count(r) < 8 for r in range(n_risks + 1)):
            spec.horizon *= 2
            cohort = generate_synthetic(spec, n)
        fields = dict(lr=float(rng.choice([1e-3, 3e-3])), batch_size=128,
                      layers=int(rng.integers(1, 3)),
                      nodes=int(rng.choice([8, 16, 32])),
                      max_epochs=int(rng.integers(5, 15)), patience=10)
        if kind == "dsm":
            fields.update(k=int(rng.choice([1, 2, 3])), warmup_iters=200,
                          distribution=str(rng.choice(["weibull", "lognormal"])))
        if kind == "deephit":
            fields.update(bins=15, alpha=float(rng.choice([0.0, 0.1])))
        model = build_model(kind, **fields)
        model.fit(cohort, seed=int(rng.integers(1e6)))
        x = cohort.features[:15]
        tmax = float(cohort.times.max())
        prev = {r: np.full(15, -np.inf) for r in range(1, n_risks + 1)}
        for t in np.linspace(0.0, tmax, 50):
            total = np.zeros(15)
            for r in range(1, n_risks + 1):
                val = model.cif(x, float(t), r)
                if np.any(val < prev[r] - 1e-9):
                    failures.append(f"{inst}:{kind} decreasing at t={t:.3f}")
                prev[r] = val
                total += val
            if np.any(total > 1.0 + 1e-9):
                failures.append(f"{inst}:{kind} sum {total.max():.8f} at t={t:.3f}")
        for r in range(1, n_risks + 1):
            if np.any(model.cif(x, 0.0, r) > 1e-9):
                failures.append(f"{inst}:{kind} F({r})(0) above 1e-9")
        if kind == "deephit":
            t_last = float(model.edges[-1])
            total = sum(model.cif(x, t_last, r) for r in range(1, n_risks + 1))
            deephit_total_err = max(deephit_total_err,
                                    float(np.max(np.abs(total - 1.0))))
            if np.any(np.abs(total - 1.0) > 1e-12):
                failures.append(f"{inst}: deephit totality {total}")
    _verdict(2, "CIF validity, 20 fitted instances", not failures,
             failures[0] if failures else
             f"deephit totality err {deephit_total_err:.1e}")


# -- criterion 3: gradient audit --------------------------------------------------------


def test_acceptance_3_gradient_audit():
    start = time.time()
    rng = np.random.default_rng(77)
    reports = []

    def layer_case(name, build):
        reports.append((name, gc.grad_check(build, tolerance=1e-4)))

    # affine + each activation + softmax + layer norm + attention block
    for act in ("relu", "tanh", "softplus"):
        def build(act=act):
            g = gc.ParamGraph()
            mlp = gc.MLP(g, "m", [4, 6, 1], np.random.default_rng(1), activation=act)
            x = gc.Tensor(np.random.default_rng(2).normal(size=(8, 4)))
            return g, lambda: gc.tmean(gc.mul(mlp(x), mlp(x)))
        layer_case(f"mlp-{act}", build)

    def build_linreg():
        g = gc.ParamGraph()
        lin = gc.Linear(g, "w", 5, 1, np.random.default_rng(3))
        x = gc.Tensor(np.random.default_rng(4).normal(size=(8, 5)))
        y = gc.Tensor(np.random.default_rng(5).normal(size=(8, 1)))
        def loss():
            d = gc.sub(lin(x), y)
            return gc.tmean(gc.mul(d, d))
        return g, loss
    layer_case("linear-regression", build_linreg)

    def build_softmax():
        g = gc.ParamGraph()
        p = g.parameter("p", rng.normal(size=(6, 5)))
        w = gc.Tensor(rng.normal(size=(6, 5)))
        return g, lambda: gc.tsum(gc.mul(gc.softmax(p, axis=-1), w))
    layer_case("softmax", build_softmax)

    def build_ln():
        g = gc.ParamGraph()
        ln = gc.LayerNorm(g, "ln", 7)
        p = g.parameter("p", rng.normal(size=(5, 7)))
        return g, lambda: gc.tmean(gc.mul(ln(p), ln(p)))
    layer_case("layer-norm", build_ln)

    def build_attn():
        g = gc.ParamGraph()
        blk = gc.TransformerBlock(g, "b", 8, np.random.default_rng(6), heads=2)
        x = gc.Tensor(np.random.default_rng(7).normal(size=(5, 8)))
        return g, lambda: gc.tmean(gc.mul(blk(x), blk(x)))
    layer_case("attention-block", build_attn)

    # the three model losses on miniature configs (d=3, n=8)
    x = rng.normal(size=(8, 3))
    t = rng.uniform(0.2, 3.0, size=8)
    e = np.array([1, 2, 0, 1, 0, 2, 1, 0])
    minis = {
        "dsm": dict(nodes=4, layers=1, dropout=0.0, k=2),
        "nfg": dict(nodes=4, layers=1, dropout=0.0, monotone_layers=2,
                    monotone_nodes=4),
        "deephit": dict(nodes=4, layers=1, dropout=0.0, bins=4, alpha=0.3),
    }
    for kind, fields in minis.items():
        model = build_model(kind, **fields)
        model.n_risks, model.d, model.t_scale = 2, 3, 3.0
        if kind == "deephit":
            model.edges = np.array([0.8, 1.5, 2.2, 3.0])
        model._build(np.random.default_rng(8))
        def loss(model=model):
            return model._loss(x, t, e, None, training=False)
        reports.append((f"{kind}-loss",
                        gc.grad_check(lambda m=model, l=loss: (m.graph, l),
                                      tolerance=1e-4)))
    elapsed = time.time() - start
    bad = [(n, r) for n, r in reports if not r.passed]
    worst_name, worst = max(reports, key=lambda nr: nr[1].worst_rel)
    _verdict(3, "gradient audit", not bad and elapsed < 60.0,
             f"{len(reports)} audits, worst {worst.worst_rel:.2e} "
             f"({worst_name}), {elapsed:.1f}s")


# -- criterion 4: synthetic recovery vs oracle ----------------------------------------------


def test_acceptance_4_synthetic_recovery():
    spec = SynthSpec(d=10, shapes=[1.6, 1.6], scales=[6.0, 6.0],
                     betas=[[1.3] + [0] * 9, [0, 1.3] + [0] * 8],
                     horizon=15.0, seed=1234)
    cohort = generate_synthetic(spec, 2000)
    train = cohort.subset(range(1600))
    test = cohort.subset(range(1600, 2000))

    def oracle_scores(r):
        times, events, n = test.times, test.events, test.n
        s = np.zeros((n, n))
        ev = np.nonzero(events == r)[0]
        for j in range(n):
            s[ev, j] = oracle_cif_curve(spec, test.features[j], times[ev], r,
                                        steps_per_unit=256)
        return s

    oracle = {r: ctd_index(test, scores=oracle_scores(r), r=r).value
              for r in (1, 2)}
    assert min(oracle.values()) > 0.70, f"oracle too weak: {oracle}"

    configs = {
        "dsm": dict(lr=3e-3, batch_size=256, layers=2, nodes=32, k=2,
                    warmup_iters=800, max_epochs=300, patience=15),
        "nfg": dict(lr=1e-3, batch_size=256, layers=2, nodes=32,
                    monotone_layers=2, monotone_nodes=32,
                    max_epochs=600, patience=30),
        "deephit": dict(lr=2e-3, batch_size=250, layers=2, nodes=64, bins=15,
                        alpha=0.1, max_epochs=600, patience=40),
    }
    details = [f"oracle={oracle[1]:.3f}/{oracle[2]:.3f}"]
    ok = True
    for kind, fields in configs.items():
        start = time.time()
        model = build_model(kind, **fields)
        model.fit(train, seed=11)
        vals = {r: ctd_index(test, model, r=r).value for r in (1, 2)}
        elapsed = time.time() - start
        passed = all(vals[r] >= oracle[r] - 0.05 for r in (1, 2))
        if kind == "nfg":  # also hold the relative bound for the monotone model
            passed &= all(vals[r] >= 0.95 * oracle[r] for r in (1, 2))
        ok = ok and passed and elapsed < 600.0
        details.append(f"{kind}={vals[1]:.3f}/{vals[2]:.3f} ({elapsed:.0f}s)")
    _verdict(4, "synthetic recovery", ok, "; ".join(details))


# -- criterion 5: protocol fidelity --------------------------------------------------------


def _disease_group_cohort(d: int = 8, seed: int = 555) -> Cohort:
    # stratum sizes of the disease-group cohort: four risks plus healthy
    sizes = {1: 1536, 2: 93, 3: 106, 4: 147, 0: 1139}
    rng = np.random.default_rng(seed)
    times, rows, events = [], [], []
    for e, count in sizes.items():
        mean_t = 4.1 if e == 0 else 3.0
        for _ in range(count):
            times.append(float(max(0.05, rng.gamma(3.0, mean_t / 3.0))))
            rows.append(rng.normal(size=d))
            events.append(e)
    ids = [f"dg{i:05d}" for i in range(len(times))]
    return Cohort(ids, np.array(rows), times, events, ["cvd", "t2d", "copd", "ckd"],
                  [f"x{j}" for j in range(d)])


def test_acceptance_5_protocol_fidelity():
    cohort = _disease_group_cohort()
    seed = 31
    sizes = {1: 1536, 2: 93, 3: 106, 4: 147, 0: 1139}

    # stratification (same fold derivation nested_cv uses)
    folds = stratified_kfold(cohort, 5, seed=child_seed(seed, 0xF01D))
    strat_ok = True
    for e, total in sizes.items():
        counts = [f.event_count(e) for f in folds]
        strat_ok &= (max(counts) - min(counts) <= 1) and sum(counts) == total
    t2d = sorted(f.event_count(2) for f in folds)
    strat_ok &= all(c in (18, 19) for c in t2d)

    settings = CvSettings(n_iter=1, max_epochs=2, patience=1,
                          extra_fields={"alpha": 0.0}, modality="synthetic")
    report = nested_cv(cohort, "deephit", k=5, seed=seed, settings=settings)
    audit_ok = report.audit["leaks"] == 0 and report.audit["fits"] == 5 * 3

    ci_ok = True
    mult = 2.776445105197797  # t quantile with 4 degrees of freedom
    for name in report.risk_names:
        vals = np.array([f.ctd[name] for f in report.folds])
        mean = vals.mean()
        half = mult * vals.std(ddof=1) / np.sqrt(5)
        agg = report.aggregate[name]
        ci_ok &= abs(agg["mean"] - mean) < 1e-12
        ci_ok &= abs(agg["lo"] - (mean - half)) < 1e-12
        ci_ok &= abs(agg["hi"] - (mean + half)) < 1e-12
    _verdict(5, "protocol fidelity", strat_ok and audit_ok and ci_ok,
             f"t2d per fold {t2d}, fits {report.audit['fits']}, leaks 0")


# -- criterion 6: MAE structural checks -------------------------------------------------------


def test_acceptance_6_mae_structural():
    details = []
    # round trip, padded
    vol = make_phantoms(1, dims=(31, 20, 20, 2), seed=6)[0]
    grid = patchify(vol, (15, 10, 10))
    round_ok = np.array_equal(unpatchify(grid).data, vol.data)

    # mask-count exactness over a ratio grid
    rng = np.random.default_rng(7)
    count_ok = True
    for ratio in (0.0, 0.3, 0.7, 1.0):
        for _ in range(25):
            flags = rng.random(60) < 0.5
            if not flags.any():
                flags[0] = True
            plan = sample_mask(flags, ratio, seed=int(rng.integers(1e6)))
            count_ok &= plan.masked.size == round(ratio * int(flags.sum()))

    # encoder blindness to masked content
    vol = make_phantoms(1, dims=(60, 40, 40, 2), seed=8)[0]
    grid = patchify(vol, (15, 10, 10))
    plan = sample_mask(foreground_flags(grid), 0.7, seed=9)
    model = MaeModel(MaeConfig(embed_dim=32, enc_layers=1, dec_layers=1))
    pred, _ = model.forward(grid, plan)
    poisoned = patchify(vol, (15, 10, 10))
    poisoned.values = grid.values.copy()
    poisoned.values[plan.masked] = 1e6
    pred_poisoned, _ = model.forward(poisoned, plan)
    blind_ok = np.array_equal(pred.data, pred_poisoned.data)

    # 200-step halving at D=64
    vols = make_phantoms(50, seed=101)
    _, hist = train_mae(vols, MaeConfig(embed_dim=64, enc_layers=2,
                                        dec_layers=1, epochs=4, lr=1e-4), seed=1)
    first = hist.step_losses[0]
    settled = float(np.mean(hist.step_losses[-10:]))
    halve_ok = len(hist.step_losses) == 200 and settled <= 0.5 * first
    details.append(f"mse {first:.4f}->{settled:.4f}")

    # analytic PSNR
    a = np.zeros((6, 6, 6, 1))
    b = np.full_like(a, 0.1)
    psnr_ok = abs(psnr(b, a) - 20.0) < 1e-9 and psnr(a, a) == 100.0

    _verdict(6, "MAE structural checks",
             round_ok and count_ok and blind_ok and halve_ok and psnr_ok,
             "; ".join(details))


# -- criterion 7: determinism --------------------------------------------------------------------


def test_acceptance_7_cli_determinism(tmp_path):
    cfg_doc = {
        "seed": 7,
        "workers": 1,
        "data": {"synthetic": {"n": 150, "d": 4, "shapes": [1.4, 2.2],
                               "scales": [6.0, 8.0],
                               "betas": [[1.2, 0, 0, 0], [0, 1.2, 0, 0]],
                               "horizon": 15.0, "seed": 3}},
        "model": {"kind": "nfg", "extras": {}},
        "cv": {"k": 3, "preset": "desk", "n_iter": 2, "max_epochs": 3,
               "modality": "synthetic"},
        "output": {"dir": str(tmp_path / "cv")},
    }
    cfg = tmp_path / "cv.json"
    cfg.write_text(json.dumps(cfg_doc), encoding="utf-8")
    assert main(["cv", "--config", str(cfg)]) == 0
    first = (tmp_path / "cv" / "report.json").read_bytes()
    assert main(["cv", "--config", str(cfg)]) == 0
    cv_identical = (tmp_path / "cv" / "report.json").read_bytes() == first

    # workers > 1: value-identical report payload
    assert main(["cv", "--config", str(cfg), "--set", "workers=2",
                 "--set", f"output.dir={tmp_path / 'cv2'}"]) == 0
    one = json.loads(first)["report"]
    two = json.loads((tmp_path / "cv2" / "report.json").read_text())["report"]
    workers_identical = one == two

    mae_doc = {"seed": 4,
               "mae": {"n_phantoms": 6, "dims": [30, 20, 20, 2],
                       "embed_dim": 32, "enc_layers": 1, "dec_layers": 1,
                       "epochs": 2},
               "output": {"dir": str(tmp_path / "mae")}}
    mcfg = tmp_path / "mae.json"
    mcfg.write_text(json.dumps(mae_doc), encoding="utf-8")
    assert main(["mae-train", "--config", str(mcfg)]) == 0
    ck1 = (tmp_path / "mae" / "mae.rbck").read_bytes()
    h1 = (tmp_path / "mae" / "mae.history.json").read_bytes()
    assert main(["mae-train", "--config", str(mcfg)]) == 0
    mae_identical = ((tmp_path / "mae" / "mae.rbck").read_bytes() == ck1
                     and (tmp_path / "mae" / "mae.history.json").read_bytes() == h1)
    _verdict(7, "determinism", cv_identical and workers_identical and mae_identical,
             f"cv={cv_identical} workers={workers_identical} mae={mae_identical}")


# -- criterion 8: hyperparameter grid conformance ---------------------------------------------------


def test_acceptance_8_grid_conformance():
    grid = HParamGrid()
    rng = np.random.default_rng(20250809)
    lrs = []
    in_range = True
    for i in range(10_000):
        kind = ("dsm", "nfg", "deephit")[i % 3]
        s = grid.sample(rng, kind)
        in_range &= 1e-4 <= s["lr"] <= 1e-2
        in_range &= 100 <= s["batch_size"] <= 1000
        in_range &= s["dropout"] in (0.0, 0.25, 0.5, 0.75)
        in_range &= 1 <= s["layers"] <= 4
        in_range &= s["nodes"] in (32, 64, 128, 256, 512)
        if kind == "dsm":
            in_range &= s["distribution"] in ("weibull", "lognormal")
            in_range &= s["k"] in (2, 3, 4, 6)
        if kind == "deephit":
            in_range &= s["alpha"] in (0.0, 0.1, 0.5, 1.0)
        lrs.append(s["lr"])
    span = np.log(1e-2) - np.log(1e-4)
    ks = stats.kstest(np.log(lrs), stats.uniform(np.log(1e-4), span).cdf)
    _verdict(8, "grid conformance", in_range and ks.pvalue > 0.01,
             f"10000 samples, KS p={ks.pvalue:.3f}")
