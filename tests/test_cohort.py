import datetime as dt
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbench.cohort import (
    Cohort,
    DiagnosisRecord,
    SynthSpec,
    build_labels,
    cohort_from_csv,
    cohort_to_csv,
    generate_synthetic,
    holdout_split,
    oracle_cif,
    oracle_cif_curve,
    _strata_indices,
    stratified_kfold,
)
from riskbench.errors import DataError

D = dt.date


def _spec(**kw):
    base = dict(d=2, shapes=[1.3, 2.4], scales=[4.0, 5.0],
                betas=[[0.0, 0.0], [0.0, 0.0]], horizon=12.0, seed=0)
    base.update(kw)
    return SynthSpec(**base)


# -- labeling ----------------------------------------------------------------


def test_event_in_window_excludes_subject():
    records = [DiagnosisRecord("a", "I25", D(2015, 3, 1))]  # 59 days after imaging
    cohort, stats = build_labels(records, {"a": D(2015, 1, 1)},
                                 {"cvd": ["I25"]}, D(2020, 1, 1))
    assert cohort.n == 0
    assert stats.excluded_prior_or_window == 1


def test_event_before_imaging_excludes_subject():
    records = [DiagnosisRecord("a", "I25", D(2014, 6, 1))]
    cohort, _ = build_labels(records, {"a": D(2015, 1, 1)},
                             {"cvd": ["I25"]}, D(2020, 1, 1))
    assert cohort.n == 0


def test_event_just_past_window_is_labeled():
    records = [DiagnosisRecord("a", "I25", D(2015, 4, 4))]  # 93 days after
    cohort, _ = build_labels(records, {"a": D(2015, 1, 1)},
                             {"cvd": ["I25"]}, D(2020, 1, 1))
    assert cohort.n == 1
    assert cohort.events[0] == 1
    assert abs(cohort.times[0] - 93 / 365.25) < 1e-12


def test_no_events_censored_at_censor_date():
    cohort, stats = build_labels([], {"a": D(2015, 1, 1)},
                                 {"cvd": ["I25"]}, D(2019, 1, 1))
    assert cohort.events[0] == 0
    assert abs(cohort.times[0] - 4.0) < 0.01
    assert stats.censored == 1


def test_hand_built_six_subject_table():
    imaging = {f"s{i}": D(2015, 1, 1) for i in range(1, 7)}
    codes = {"cvd": ["I25", "I21"], "t2d": ["E11"]}
    records = [
        DiagnosisRecord("s1", "I25", D(2016, 1, 1)),   # cvd after window
        DiagnosisRecord("s2", "E11", D(2017, 6, 1)),   # t2d after window
        DiagnosisRecord("s3", "I21", D(2015, 2, 1)),   # inside window -> excluded
        DiagnosisRecord("s4", "E11", D(2014, 1, 1)),   # before imaging -> excluded
        DiagnosisRecord("s5", "E11", D(2018, 1, 1)),   # t2d ...
        DiagnosisRecord("s5", "I25", D(2016, 6, 1)),   # ... but cvd came first
        # s6 has no records -> censored
    ]
    cohort, stats = build_labels(records, imaging, codes, D(2020, 1, 1))
    row = {sid: i for i, sid in enumerate(cohort.ids)}
    assert set(row) == {"s1", "s2", "s5", "s6"}
    assert cohort.events[row["s1"]] == 1
    assert cohort.events[row["s2"]] == 2
    assert cohort.events[row["s5"]] == 1  # first occurrence rule
    assert cohort.events[row["s6"]] == 0
    assert stats.excluded_prior_or_window == 2
    assert abs(cohort.times[row["s5"]] - (D(2016, 6, 1) - D(2015, 1, 1)).days / 365.25) < 1e-12


def test_missing_imaging_date_skipped_with_count():
    records = [DiagnosisRecord("ghost", "I25", D(2016, 1, 1))]
    cohort, stats = build_labels(records, {}, {"cvd": ["I25"]}, D(2020, 1, 1))
    assert cohort.n == 0
    assert stats.missing_imaging_date == 1


def test_event_after_censor_date_errors():
    records = [DiagnosisRecord("a", "I25", D(2021, 1, 1))]
    with pytest.raises(DataError, match="after censor date"):
        build_labels(records, {"a": D(2015, 1, 1)}, {"cvd": ["I25"]}, D(2020, 1, 1))


def test_overlapping_code_sets_rejected():
    with pytest.raises(DataError, match="I25"):
        build_labels([], {}, {"cvd": ["I25"], "other": ["I25"]}, D(2020, 1, 1))


# -- synthetic generator vs oracle --------------------------------------------


def test_symmetric_risks_split_evenly():
    spec = _spec(shapes=[2.0, 2.0], scales=[5.0, 5.0], horizon=1e9, seed=42)
    cohort = generate_synthetic(spec, 10_000)
    frac = np.mean(cohort.events == 1)
    assert abs(frac - 0.5) < 0.03


def test_zero_horizon_censors_everyone():
    spec = _spec(horizon=1e-9)
    cohort = generate_synthetic(spec, 200)
    assert np.all(cohort.events == 0)
    assert np.all(cohort.times < 1e-8)


def test_generator_deterministic_per_seed():
    a = generate_synthetic(_spec(seed=7), 100)
    b = generate_synthetic(_spec(seed=7), 100)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.events, b.events)


def test_oracle_cif_at_zero_is_zero():
    assert oracle_cif(_spec(), np.zeros(2), 0.0, 1) == 0.0


def test_oracle_cif_single_risk_matches_weibull_cdf():
    spec = SynthSpec(d=2, shapes=[1.7], scales=[4.0], betas=[[0.5, -0.3]],
                     horizon=50.0, seed=1)
    x = np.array([0.4, -1.0])
    lam = 4.0 * np.exp(-(x @ np.array([0.5, -0.3])) / 1.7)
    for t in (0.5, 2.0, 6.0):
        closed = 1.0 - np.exp(-((t / lam) ** 1.7))
        assert abs(oracle_cif(spec, x, t, 1) - closed) < 1e-6


def test_oracle_total_incidence_reaches_one():
    spec = _spec(betas=[[0.4, 0.0], [0.0, -0.6]])
    x = np.array([0.2, 0.9])
    total = sum(oracle_cif(spec, x, 200.0, r) for r in (1, 2))
    assert abs(total - 1.0) < 1e-4


def test_oracle_curve_matches_quadrature():
    spec = SynthSpec(d=2, shapes=[0.8, 2.2], scales=[5.0, 7.0],
                     betas=[[1.0, 0.0], [0.0, 1.0]], horizon=20.0, seed=2)
    x = np.array([0.3, -0.5])
    grid = np.linspace(0.0, 10.0, 9)
    for r in (1, 2):
        curve = oracle_cif_curve(spec, x, grid, r)
        for got, t in zip(curve, grid):
            assert abs(got - oracle_cif(spec, x, float(t), r)) < 1e-6


def test_monte_carlo_matches_oracle_cif():
    spec = _spec(horizon=1e9, seed=3)
    cohort = generate_synthetic(spec, 5000)
    x0 = np.zeros(2)  # betas are zero so the CIF is covariate-free
    for t in (1.0, 2.0, 3.0, 5.0, 8.0):
        emp = float(np.mean((cohort.times <= t) & (cohort.events == 1)))
        assert abs(emp - oracle_cif(spec, x0, t, 1)) < 0.02


def test_conditional_monte_carlo_matches_oracle_at_fixed_x():
    from riskbench.cohort import latent_times

    spec = _spec(betas=[[0.8, -0.3], [0.2, 0.5]], seed=4)
    x0 = np.array([0.6, -0.4])
    n = 5000
    rng = np.random.default_rng(99)
    lat = latent_times(spec, np.tile(x0, (n, 1)), rng)
    t_obs = lat.min(axis=1)
    risk = lat.argmin(axis=1) + 1
    bound = 3.0 / np.sqrt(n)
    for t in (1.0, 2.0, 4.0, 6.0, 9.0):
        for r in (1, 2):
            emp = float(np.mean((t_obs <= t) & (risk == r)))
            assert abs(emp - oracle_cif(spec, x0, t, r)) < bound


# -- splits -------------------------------------------------------------------


def _uniform_cohort(per_stratum: dict[int, int], d: int = 1, n_risks: int = 2) -> Cohort:
    rng = np.random.default_rng(0)
    n = sum(per_stratum.values())
    events = np.repeat(list(per_stratum), list(per_stratum.values()))
    names = [f"risk_{r+1}" for r in range(n_risks)]
    return Cohort([f"u{i}" for i in range(n)], rng.normal(size=(n, d)),
                  1.0 + np.arange(n) % 7, events, names, [f"x{j+1}" for j in range(d)])


def test_kfold_even_strata():
    cohort = _uniform_cohort({0: 10, 1: 10, 2: 10})
    folds = stratified_kfold(cohort, 5, seed=1)
    for fold in folds:
        for e in (0, 1, 2):
            assert fold.event_count(e) == 2


def test_kfold_disease_group_shaped_strata():
    # strata sizes from the four disease groups plus healthy controls
    sizes = {1: 1536, 2: 93, 3: 106, 4: 147, 0: 1139}
    cohort = _uniform_cohort(sizes, n_risks=4)
    folds = stratified_kfold(cohort, 5, seed=3)
    t2d_counts = [fold.event_count(2) for fold in folds]
    assert all(c in (18, 19) for c in t2d_counts)
    assert sum(t2d_counts) == 93
    for e, total in sizes.items():
        counts = [fold.event_count(e) for fold in folds]
        assert max(counts) - min(counts) <= 1
        assert sum(counts) == total


def test_kfold_partition_properties():
    cohort = _uniform_cohort({0: 17, 1: 23, 2: 11})
    folds = stratified_kfold(cohort, 5, seed=2)
    all_ids = [sid for fold in folds for sid in fold.ids]
    assert sorted(all_ids) == sorted(cohort.ids)
    id_sets = [set(f.ids) for f in folds]
    for i in range(len(id_sets)):
        for j in range(i + 1, len(id_sets)):
            assert not id_sets[i] & id_sets[j]


@pytest.mark.parametrize("events", [
    [0, 2, 1, 1, 0, 2, 0, 1, 2, 2],
    [1, 0, 0, 1, 1, 0],  # two risks, no risk-2 events
    [2, 2, 2],  # neither censored nor risk-1 subjects
    [],
])
def test_strata_indices_match_unique_labels(events):
    n = len(events)
    cohort = Cohort([f"u{i}" for i in range(n)], np.zeros((n, 1)), np.ones(n), events,
                    ["risk_1", "risk_2"], ["x1"])
    strata = _strata_indices(cohort)
    expected = {int(e): np.flatnonzero(cohort.events == e) for e in np.unique(cohort.events)}
    assert list(strata) == list(expected)
    for e, rows in expected.items():
        assert strata[e].dtype == rows.dtype and np.array_equal(strata[e], rows)


def test_kfold_small_stratum_errors():
    cohort = _uniform_cohort({0: 10, 1: 3})
    with pytest.raises(DataError, match="stratum 1"):
        stratified_kfold(cohort, 5, seed=0)


def test_holdout_sizes_uniform():
    cohort = _uniform_cohort({0: 100})
    train, valid = holdout_split(cohort, 0.10, seed=4)
    assert valid.n == 10
    assert train.n == 90


def test_holdout_deterministic():
    cohort = _uniform_cohort({0: 40, 1: 25, 2: 35})
    a = holdout_split(cohort, 0.10, seed=5)
    b = holdout_split(cohort, 0.10, seed=5)
    assert a[1].ids == b[1].ids


def test_holdout_three_strata_proportional():
    cohort = _uniform_cohort({0: 40, 1: 25, 2: 35})
    train, valid = holdout_split(cohort, 0.10, seed=6)
    assert valid.n == 10
    for e, size in {0: 40, 1: 25, 2: 35}.items():
        got = valid.event_count(e)
        assert abs(got - 0.1 * size) <= 1.0
    assert not set(train.ids) & set(valid.ids)


# -- construction ----------------------------------------------------------------


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_constructor_rejects_non_finite_time(bad):
    times = [1.0, bad, 2.0]
    with pytest.raises(DataError, match="subject b: non-finite time"):
        Cohort(["a", "b", "c"], np.zeros((3, 1)), times, [0, 1, 0], ["risk_1"], ["x1"])


def test_constructor_names_first_bad_subject():
    with pytest.raises(DataError, match="subject c: negative time"):
        Cohort(["a", "b", "c"], np.zeros((3, 0)), [1.0, 0.0, -2.0], [0, 0, 0], ["r"], [])
    with pytest.raises(DataError, match=r"subject b: event 3 outside \[0, 2\]"):
        Cohort(["a", "b"], np.zeros((2, 0)), [1.0, 1.0], [2, 3], ["r1", "r2"], [])
    with pytest.raises(DataError, match="subject a: non-finite feature value"):
        Cohort(["a", "b"], [[np.nan], [0.0]], [1.0, 1.0], [0, 0], ["r"], ["x1"])
    with pytest.raises(DataError, match="features shape"):
        Cohort(["a", "b"], np.zeros((2, 3)), [1.0, 1.0], [0, 0], ["r"], ["x1"])


def test_constructor_rejects_repeated_feature_name_but_subset_may_repeat_rows():
    with pytest.raises(DataError, match="duplicate feature column 'x1'"):
        Cohort(["a", "b"], np.zeros((2, 3)), [1.0, 1.0], [0, 0], ["r"], ["x1", "x2", "x1"])
    cohort = Cohort(["a", "b"], [[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0], [0, 1], ["r"],
                    ["x1", "x2"])
    sub = cohort.subset([1, 1, 0])
    assert sub.ids == ["b", "b", "a"]
    assert np.array_equal(sub.features, [[3.0, 4.0], [3.0, 4.0], [1.0, 2.0]])


# -- CSV round trip ------------------------------------------------------------


def test_cohort_csv_round_trip(tmp_path):
    cohort = generate_synthetic(_spec(seed=11), 50)
    path = tmp_path / "cohort.csv"
    cohort_to_csv(cohort, path)
    text = path.read_text()
    assert text.startswith("id,time,event,x1,x2\n")
    assert "\r" not in text
    back = cohort_from_csv(path)
    assert back.ids == cohort.ids
    assert np.array_equal(back.features, cohort.features)
    assert np.array_equal(back.times, cohort.times)
    assert np.array_equal(back.events, cohort.events)


def test_cohort_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("subject,when,what\n")
    with pytest.raises(DataError):
        cohort_from_csv(path)


def test_cohort_csv_rejects_nan_time(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("id,time,event,x1\na,1.5,1,0.0\nb,nan,0,0.0\n")
    with pytest.raises(DataError, match="subject b: non-finite time"):
        cohort_from_csv(path)


# -- properties of columnar cohorts --------------------------------------------


@st.composite
def small_cohorts(draw):
    n = draw(st.integers(1, 30))
    d = draw(st.integers(0, 3))
    n_risks = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    times = np.round(rng.uniform(0.0, 5.0, size=n), 1)  # ties on purpose
    events = rng.integers(0, n_risks + 1, size=n)
    return Cohort([f"h{i}" for i in range(n)], rng.normal(size=(n, d)), times, events,
                  [f"risk_{r + 1}" for r in range(n_risks)], [f"x{j}" for j in range(d)])


@settings(max_examples=60, deadline=None)
@given(small_cohorts(), st.data())
def test_subset_matches_row_selection(cohort, data):
    idx = data.draw(st.lists(st.integers(0, cohort.n - 1), max_size=2 * cohort.n))
    sub = cohort.subset(idx)
    assert sub.ids == [cohort.ids[i] for i in idx]
    assert sub.features.shape == (len(idx), cohort.d)
    for row, i in enumerate(idx):
        assert np.array_equal(sub.features[row], cohort.features[i])
        assert sub.times[row] == cohort.times[i]
        assert sub.events[row] == cohort.events[i]


@settings(max_examples=60, deadline=None)
@given(small_cohorts(), st.integers(1, 4), st.integers(0, 1000))
def test_kfold_folds_partition_ids(cohort, k, seed):
    sizes = np.unique(cohort.events, return_counts=True)[1]
    if sizes.min() < k:
        with pytest.raises(DataError):
            stratified_kfold(cohort, k, seed)
        return
    folds = stratified_kfold(cohort, k, seed)
    assert len(folds) == k
    all_ids = [sid for fold in folds for sid in fold.ids]
    assert sorted(all_ids) == sorted(cohort.ids)
    assert len(set(all_ids)) == cohort.n


@settings(max_examples=60, deadline=None)
@given(small_cohorts(), st.floats(0.05, 0.95), st.integers(0, 1000))
def test_holdout_parts_disjoint_and_cover(cohort, fraction, seed):
    train, valid = holdout_split(cohort, fraction, seed)
    assert not set(train.ids) & set(valid.ids)
    assert sorted(train.ids + valid.ids) == sorted(cohort.ids)
    assert valid.n == int(round(fraction * cohort.n))


@settings(max_examples=20, deadline=None)
@given(small_cohorts(), st.booleans())
def test_arrays_are_read_only(cohort, pickled):
    if pickled:  # the copy a CV worker process receives
        cohort = pickle.loads(pickle.dumps(cohort))
    with pytest.raises(ValueError):
        cohort.features[...] = 0.0
    with pytest.raises(ValueError):
        cohort.times[0] = 1.0
    with pytest.raises(ValueError):
        cohort.events[0] = 0
