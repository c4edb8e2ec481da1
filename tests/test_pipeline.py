import os

import numpy as np
import pytest
from scipy import stats

from riskbench.cohort import SynthSpec, generate_synthetic
from riskbench.errors import NumericError
from riskbench.metrics import ctd_index
from riskbench.models import NfgModel, build_model
from riskbench.pipeline import (
    CVReport,
    CvSettings,
    FoldResult,
    HParamGrid,
    _mean_valid_ctd,
    _pool_map,
    child_seed,
    emit_report,
    nested_cv,
    random_search,
    t_confidence_interval,
    t_quantile,
)


def _cohort(n=240, seed=5, beta=1.2):
    spec = SynthSpec(d=4, shapes=[1.4, 2.2], scales=[6.0, 8.0],
                     betas=[[beta, 0, 0, 0], [0, beta, 0, 0]],
                     horizon=15.0, seed=seed)
    return generate_synthetic(spec, n)


def _fast_settings(**kw):
    base = dict(n_iter=2, max_epochs=3, patience=2)
    base.update(kw)
    return CvSettings(**base)


# -- grid ----------------------------------------------------------------


def test_grid_samples_stay_inside_ranges():
    grid = HParamGrid()
    rng = np.random.default_rng(0)
    for kind in ("dsm", "nfg", "deephit"):
        for _ in range(500):
            s = grid.sample(rng, kind)
            assert 1e-4 <= s["lr"] <= 1e-2
            assert 100 <= s["batch_size"] <= 1000
            assert s["dropout"] in (0.0, 0.25, 0.5, 0.75)
            assert 1 <= s["layers"] <= 4
            assert s["nodes"] in (32, 64, 128, 256, 512)
            if kind == "dsm":
                assert s["distribution"] in ("weibull", "lognormal")
                assert s["k"] in (2, 3, 4, 6)
            if kind == "deephit":
                assert s["alpha"] in (0.0, 0.1, 0.5, 1.0)


def test_grid_lr_log_uniform_ks():
    grid = HParamGrid()
    rng = np.random.default_rng(7)
    lrs = np.array([grid.sample(rng, "nfg")["lr"] for _ in range(2000)])
    stat = stats.kstest(np.log(lrs), stats.uniform(np.log(1e-4),
                                                   np.log(1e-2) - np.log(1e-4)).cdf)
    assert stat.pvalue > 0.01


def test_grid_sampling_deterministic():
    grid = HParamGrid()
    a = [grid.sample(np.random.default_rng(3), "dsm") for _ in range(1)]
    b = [grid.sample(np.random.default_rng(3), "dsm") for _ in range(1)]
    assert a == b


def test_child_seed_stable_and_distinct():
    assert child_seed(1, 2, 3) == child_seed(1, 2, 3)
    assert child_seed(1, 2, 3) != child_seed(1, 2, 4)


# -- random search ----------------------------------------------------------


def test_search_collapsed_grid_returns_the_point():
    grid = HParamGrid(lr_range=(1e-3, 1e-3), batch_range=(128, 128),
                      dropout_choices=(0.0,), layers_range=(1, 1),
                      nodes_choices=(8,))
    cohort = _cohort(200)
    train = cohort.subset(range(160))
    valid = cohort.subset(range(160, 200))
    best, log = random_search(grid, 1, train, valid, "nfg", seed=1,
                              shared_fields={"max_epochs": 3, "patience": 2})
    assert best["lr"] == pytest.approx(1e-3, rel=1e-12)  # exp(log(a)) round trip
    assert best["batch_size"] == 128
    assert best["nodes"] == 8
    assert log["best_iteration"] == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_search_avoids_degenerate_config():
    # A/B grid where only the lr differs and one lr is absurd
    cohort = _cohort(220, seed=9)
    train = cohort.subset(range(180))
    valid = cohort.subset(range(180, 220))

    class TwoPointGrid(HParamGrid):
        def __init__(self):
            super().__init__()
            self.calls = 0

        def sample(self, rng, kind):
            s = HParamGrid.sample(self, rng, kind)
            s.update({"batch_size": 64, "dropout": 0.0, "layers": 1, "nodes": 8})
            s["lr"] = 1e12 if self.calls == 0 else 1e-3  # first config diverges
            self.calls += 1
            return s

    best, log = random_search(TwoPointGrid(), 2, train, valid, "dsm", seed=2,
                              shared_fields={"max_epochs": 4, "patience": 3,
                                             "warmup_iters": 0, "k": 2})
    assert best["lr"] == 1e-3
    failures = [t for t in log["trials"] if "error" in t]
    assert len(failures) == 1


def test_search_same_seed_same_sequence():
    grid = HParamGrid()
    cohort = _cohort(200, seed=11)
    train = cohort.subset(range(160))
    valid = cohort.subset(range(160, 200))
    runs = []
    for _ in range(2):
        best, log = random_search(grid, 2, train, valid, "nfg", seed=5,
                                  shared_fields={"max_epochs": 2, "patience": 2})
        runs.append((best, [t["config"] for t in log["trials"]]))
    assert runs[0] == runs[1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_search_all_failures_raises_with_log():
    # lr this size makes the Weibull mixture overflow within an epoch
    grid = HParamGrid(lr_range=(1e12, 1e12))
    cohort = _cohort(200, seed=13)
    train = cohort.subset(range(160))
    valid = cohort.subset(range(160, 200))
    with pytest.raises(NumericError) as err:
        random_search(grid, 2, train, valid, "dsm", seed=3,
                      shared_fields={"max_epochs": 3, "patience": 2, "warmup_iters": 0})
    assert len(err.value.diagnostics["log"]) == 2


def _valid_split_and_nfg():
    cohort = _cohort(200, seed=17)
    valid = cohort.subset(range(160, 200))
    model = build_model("nfg", max_epochs=2, patience=2)
    model.fit(cohort.subset(range(160)), seed=1, valid=valid)
    return valid, model


def test_mean_valid_ctd_raises_a_model_error_instead_of_skipping_the_risk():
    valid, model = _valid_split_and_nfg()
    query = model.cif_pairs

    def failing(x, times, r):
        if r == 1:
            raise ValueError("risk 1 query failed")
        return query(x, times, r)

    model.cif_pairs = failing
    with pytest.raises(ValueError, match="risk 1 query failed"):
        _mean_valid_ctd(model, valid)


def test_mean_valid_ctd_skips_only_risks_without_comparable_pairs():
    valid, model = _valid_split_and_nfg()
    no_risk_1 = valid.subset(np.flatnonzero(valid.events != 1))
    assert _mean_valid_ctd(model, no_risk_1) == ctd_index(no_risk_1, model, r=2).value
    both = [ctd_index(valid, model, r=r).value for r in (1, 2)]
    assert _mean_valid_ctd(model, valid) == float(np.mean(both))


def test_search_logs_a_trial_whose_validation_query_fails(monkeypatch):
    cohort = _cohort(200, seed=11)
    query = NfgModel.cif_pairs

    def failing(self, x, times, r):
        if r == 1:
            raise ValueError("risk 1 query failed")
        return query(self, x, times, r)

    monkeypatch.setattr(NfgModel, "cif_pairs", failing)
    with pytest.raises(NumericError) as err:
        random_search(HParamGrid(), 2, cohort.subset(range(160)), cohort.subset(range(160, 200)),
                      "nfg", seed=5, shared_fields={"max_epochs": 2, "patience": 2})
    assert [t["error"] for t in err.value.diagnostics["log"]] == ["risk 1 query failed"] * 2


# -- early stopping -----------------------------------------------------------


def test_early_stopping_stops_before_limit_on_easy_data():
    cohort = _cohort(400, seed=21)
    train = cohort.subset(range(320))
    valid = cohort.subset(range(320, 400))
    model = build_model("nfg", lr=5e-3, batch_size=128, layers=1, nodes=8,
                        patience=5, max_epochs=500)
    history = model.fit(train, seed=4, valid=valid)
    assert len(history.epochs) < 500


def test_infinite_patience_runs_all_epochs():
    cohort = _cohort(150, seed=23)
    train = cohort.subset(range(120))
    valid = cohort.subset(range(120, 150))
    model = build_model("nfg", lr=1e-3, batch_size=64, layers=1, nodes=8,
                        patience=float("inf"), max_epochs=12)
    history = model.fit(train, seed=5, valid=valid)
    assert len(history.epochs) == 12


def test_returned_model_valid_loss_is_history_minimum():
    cohort = _cohort(200, seed=25)
    train = cohort.subset(range(160))
    valid = cohort.subset(range(160, 200))
    model = build_model("dsm", lr=5e-3, batch_size=64, layers=1, nodes=8,
                        patience=4, max_epochs=15)
    history = model.fit(train, seed=6, valid=valid)
    recomputed = model._loss(valid.features, valid.times, valid.events,
                             None, training=False).item()
    best = min(e.valid_loss for e in history.epochs)
    assert abs(recomputed - best) < 1e-12


# -- confidence intervals --------------------------------------------------------


def test_ci_width_zero_for_identical_folds():
    agg = t_confidence_interval([0.6] * 5)
    assert agg["mean"] == 0.6
    assert agg["hi"] - agg["lo"] == 0.0


def test_ci_matches_hand_arithmetic():
    values = [0.55, 0.60, 0.65, 0.60, 0.60]
    agg = t_confidence_interval(values)
    sd = np.std(values, ddof=1)
    mult = 2.7764451051977987  # t quantile, 4 degrees of freedom
    assert abs(agg["mean"] - 0.60) < 1e-12
    assert abs(agg["lo"] - (0.60 - mult * sd / np.sqrt(5))) < 1e-12
    assert abs(agg["hi"] - (0.60 + mult * sd / np.sqrt(5))) < 1e-12


@pytest.mark.parametrize("level", [0.8, 0.9, 0.95, 0.99])
def test_t_quantile_matches_scipy_stdtrit(level):
    from scipy.special import stdtrit

    for df in range(1, 61):
        expected = float(stdtrit(df, 0.5 + level / 2.0))
        assert abs(t_quantile(df, level) - expected) <= 1e-12 * expected, df


@pytest.mark.parametrize("df, level", [(0, 0.95), (3, 0.0), (3, 1.0)])
def test_t_quantile_rejects_bad_arguments(df, level):
    with pytest.raises(ValueError):
        t_quantile(df, level)


# -- nested CV -------------------------------------------------------------------


def test_nested_cv_desk_run_and_determinism():
    cohort = _cohort(240, seed=31)
    report = nested_cv(cohort, "nfg", k=3, seed=9, settings=_fast_settings())
    again = nested_cv(cohort, "nfg", k=3, seed=9, settings=_fast_settings())
    assert report == again
    assert len(report.folds) == 3
    assert report.audit["leaks"] == 0
    for name in cohort.risk_names:
        agg = report.aggregate[name]
        assert agg["lo"] <= agg["mean"] <= agg["hi"]


def test_cv_settings_has_no_fold_count():
    # the fold count has one home, nested_cv's k; a second field was ignored
    with pytest.raises(TypeError):
        CvSettings(k=3)


def test_nested_cv_fold_test_sets_partition_cohort():
    cohort = _cohort(240, seed=33)
    from riskbench.cohort import stratified_kfold
    from riskbench.pipeline import child_seed as cs

    folds = stratified_kfold(cohort, 3, seed=cs(9, 0xF01D))
    ids = [sid for f in folds for sid in f.ids]
    assert sorted(ids) == sorted(cohort.ids)


def test_nested_cv_audit_counts_fits():
    cohort = _cohort(240, seed=35)
    report = nested_cv(cohort, "nfg", k=3, seed=2, settings=_fast_settings())
    # per fold: standardize + n_iter search fits + refit
    assert report.audit["fits"] == 3 * (1 + 2 + 1)


def test_refit_validates_on_rows_it_does_not_train_on(monkeypatch):
    from riskbench.models.base import CifModel

    fits = []
    fit = CifModel.fit

    def recording_fit(self, train, seed, valid=None):
        fits.append((set(train.ids), set(valid.ids)))
        return fit(self, train, seed, valid=valid)

    monkeypatch.setattr(CifModel, "fit", recording_fit)
    cohort = _cohort(240, seed=35)
    nested_cv(cohort, "nfg", k=3, seed=2, settings=_fast_settings())
    assert len(fits) == 3 * (2 + 1)  # per fold: 2 search trials, then the refit
    for fold in range(3):
        search_train, search_valid = fits[3 * fold]
        refit_train, refit_valid = fits[3 * fold + 2]
        assert refit_valid and not refit_train & refit_valid
        # the refit trains on the fold's training rows outside its own holdout
        assert refit_train | refit_valid == search_train | search_valid


def test_nested_cv_raises_when_a_fit_sees_a_test_id(monkeypatch):
    from riskbench.models.base import CifModel

    cohort = _cohort(240, seed=35)
    fit = CifModel.fit

    def leaky_fit(self, train, seed, valid=None):
        return fit(self, train, seed, valid=cohort)  # early-stops on every row, test rows too

    monkeypatch.setattr(CifModel, "fit", leaky_fit)
    with pytest.raises(RuntimeError, match=r"leakage audit failed.*'fold0:nfg\.fit'"):
        nested_cv(cohort, "nfg", k=3, seed=2, settings=_fast_settings())


def test_leakage_audit_memory_does_not_grow_with_fits():
    import tracemalloc

    from riskbench.pipeline_audit import LeakageAudit, record_fit

    ids = [f"s{i:06d}" for i in range(300)]
    audit = LeakageAudit(frozenset(f"t{i:06d}" for i in range(300)), tag="fold0")
    retained = []
    tracemalloc.start()
    try:
        with audit.active():
            for n_fits in (10, 400):
                before = tracemalloc.get_traced_memory()[0]
                for _ in range(n_fits):
                    record_fit("nfg.fit", ids)
                retained.append(tracemalloc.get_traced_memory()[0] - before)
    finally:
        tracemalloc.stop()
    assert audit.fits == 410 and audit.leaks == []
    assert max(retained) < 1_000  # bytes, whether 10 or 400 fits of 300 ids each


def test_emit_report_cells_and_best_flag():
    def fake_report(kind, modality, means):
        folds = [FoldResult(i, {}, {n: m for n, m in means.items()}, {}, 0)
                 for i in range(5)]
        agg = {n: {"mean": m, "lo": m - 0.013, "hi": m + 0.014, "sd": 0.01}
               for n, m in means.items()}
        return CVReport(kind, modality, list(means), 5, 0, folds, agg)

    r1 = fake_report("dsm", "radiomics", {"cvd": 0.628, "t2d": 0.712})
    r2 = fake_report("deephit", "radiomics", {"cvd": 0.608, "t2d": 0.607})
    markdown, doc = emit_report([r1, r2])
    assert "0.628 (0.615, 0.642)" in markdown
    assert "**0.628 (0.615, 0.642)**" in markdown  # best in column
    assert doc["rows"][1]["cells"]["cvd"]["best"] is True
    # JSON round-trips to an identical table
    import json

    again = json.loads(json.dumps(doc))
    assert again == doc


def test_nested_cv_saves_fold_checkpoints(tmp_path):
    from riskbench.models import load_model

    cohort = _cohort(240, seed=37)
    settings = _fast_settings()
    settings.checkpoint_dir = str(tmp_path)
    nested_cv(cohort, "nfg", k=3, seed=4, settings=settings)
    for f in range(3):
        model = load_model(tmp_path / f"fold{f}.rbck")
        val = model.cif(cohort.features[:3], 2.0, 1)
        assert val.shape == (3,)
        assert np.all((0 <= val) & (val <= 1))


def test_emit_report_single_report_single_row():
    folds = [FoldResult(i, {}, {"r": 0.6}, {}, 0) for i in range(3)]
    rep = CVReport("dsm", "synthetic", ["r"], 3, 0, folds,
                   {"r": {"mean": 0.6, "lo": 0.59, "hi": 0.61, "sd": 0.01}})
    markdown, doc = emit_report([rep])
    assert len(doc["rows"]) == 1
    assert markdown.count("\n") == 3  # header, separator, one data row


def test_pool_jobs_split_the_cpus_between_blas_libraries_the_user_left_unset(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    before = dict(os.environ)
    seen = _pool_map(os.getenv, ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"], 2)
    share = str(max(1, len(os.sched_getaffinity(0)) // 2))
    assert seen == ["3", share, share]
    assert dict(os.environ) == before
