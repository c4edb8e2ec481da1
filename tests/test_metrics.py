import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbench.cohort import Cohort, SynthSpec, generate_synthetic
from riskbench.metrics import (
    BLOCK_PAIRS,
    NoComparablePairs,
    cif_score_matrix,
    ctd_bruteforce,
    ctd_index,
)
from riskbench.models import (
    DeepHitConfig,
    DeepHitModel,
    DsmConfig,
    DsmModel,
    NfgConfig,
    NfgModel,
)
from riskbench.models.base import CHUNK_ROWS


def _cohort(times, events, n_risks=2):
    n = len(times)
    return Cohort([f"m{i}" for i in range(n)], np.zeros((n, 1)), times, events,
                  [f"risk_{r+1}" for r in range(n_risks)], ["x1"])


def _random_cohort(rng, n, n_risks):
    times = rng.uniform(0.1, 10.0, size=n)
    events = rng.integers(0, n_risks + 1, size=n)
    if not np.any(events > 0):
        events[0] = 1
    return _cohort(times, events, n_risks)


class _ScoreModel:
    """CifModel stand-in whose score depends only on the subject."""

    def __init__(self, per_subject_scores):
        self.scores = np.asarray(per_subject_scores, dtype=np.float64)

    def cif_pairs(self, x, times, r):
        return lambda ti, ri: self.scores[ri]


def test_perfect_ordering_scores_one():
    times = [1.0, 2.0, 3.0, 4.0, 5.0]
    cohort = _cohort(times, [1, 1, 1, 1, 1], n_risks=1)
    model = _ScoreModel([-t for t in times])  # earlier event, higher score
    assert ctd_index(cohort, model, r=1).value == 1.0


def test_constant_model_scores_half():
    cohort = _cohort([1.0, 2.0, 3.0, 4.0], [1, 0, 1, 0], n_risks=1)
    model = _ScoreModel([0.42] * 4)
    assert ctd_index(cohort, model, r=1).value == 0.5


def test_four_subject_hand_cohort_matches_bruteforce():
    # events of both risks plus a censored subject
    cohort = _cohort([2.0, 1.0, 3.0, 2.5], [1, 2, 0, 1], n_risks=2)
    rng = np.random.default_rng(0)
    scores = rng.uniform(size=(4, 4))
    for r in (1, 2):
        a = ctd_index(cohort, scores=scores, r=r)
        b = ctd_bruteforce(cohort, scores, r=r)
        assert a.value == b.value
        assert a.pairs == b.pairs


def test_hand_checked_values():
    # subjects: (t, e): i0=(1, 1), i1=(2, 0), i2=(3, 1)
    cohort = _cohort([1.0, 2.0, 3.0], [1, 0, 1], n_risks=1)
    scores = np.array([
        [0.9, 0.1, 0.5],   # at t=1: subject 0 highest -> both pairs concordant
        [0.0, 0.0, 0.0],
        [0.2, 0.3, 0.25],  # at t=3: no later subjects
    ])
    res = ctd_index(cohort, scores=scores, r=1)
    assert res.pairs == 2
    assert res.value == 1.0
    # flip one comparison
    scores[0, 2] = 0.95
    assert ctd_index(cohort, scores=scores, r=1).value == 0.5


def test_single_pair_right_and_wrong_order():
    cohort = _cohort([1.0, 2.0], [1, 0], n_risks=1)
    right = np.array([[0.8, 0.2], [0.0, 0.0]])
    wrong = np.array([[0.2, 0.8], [0.0, 0.0]])
    assert ctd_bruteforce(cohort, right, r=1).value == 1.0
    assert ctd_bruteforce(cohort, wrong, r=1).value == 0.0


def test_no_comparable_pairs_raises_naming_risk():
    cohort = _cohort([5.0, 1.0], [1, 0], n_risks=1)  # event has the max time
    with pytest.raises(ValueError, match="risk 1"):
        ctd_index(cohort, scores=np.zeros((2, 2)), r=1)


@pytest.mark.parametrize("horizon", [None, 0.5])
def test_no_comparable_pairs_is_its_own_value_error(horizon):
    cohort = _cohort([1.0, 5.0], [0, 1], n_risks=1)  # the event has the max time
    scores = np.zeros((2, 2))
    for score in (lambda: ctd_index(cohort, scores=scores, r=1, horizon=horizon),
                  lambda: ctd_bruteforce(cohort, scores, r=1, horizon=horizon)):
        with pytest.raises(NoComparablePairs, match="no comparable pairs for risk 1"):
            score()
    assert issubclass(NoComparablePairs, ValueError)


def test_horizon_restricts_event_subjects():
    cohort = _cohort([1.0, 4.0, 5.0], [1, 1, 0], n_risks=1)
    rng = np.random.default_rng(1)
    scores = rng.uniform(size=(3, 3))
    full = ctd_index(cohort, scores=scores, r=1)
    limited = ctd_index(cohort, scores=scores, r=1, horizon=2.0)
    assert full.pairs == 3  # (0,1), (0,2), (1,2)
    assert limited.pairs == 2  # only subject 0 qualifies


def test_matches_bruteforce_on_200_random_cohorts():
    rng = np.random.default_rng(42)
    for trial in range(200):
        n_risks = int(rng.integers(1, 4))
        n = int(rng.integers(4, 51))
        cohort = _random_cohort(rng, n, n_risks)
        scores = rng.uniform(size=(n, n))
        if rng.random() < 0.3:  # force ties sometimes
            scores[:] = np.round(scores, 1)
        for r in range(1, n_risks + 1):
            try:
                a = ctd_index(cohort, scores=scores, r=r)
            except ValueError:
                with pytest.raises(ValueError):
                    ctd_bruteforce(cohort, scores, r=r)
                continue
            b = ctd_bruteforce(cohort, scores, r=r)
            assert a.value == b.value, f"trial {trial} risk {r}"
            assert a.pairs == b.pairs


def test_invariant_under_strictly_increasing_transform():
    rng = np.random.default_rng(7)
    cohort = _random_cohort(rng, 40, 2)
    scores = rng.uniform(size=(40, 40))
    base = ctd_index(cohort, scores=scores, r=1)
    warped = ctd_index(cohort, scores=np.exp(3.0 * scores) + 1.0, r=1)
    assert base.value == warped.value


def test_random_scores_near_half_on_large_cohort():
    # pairs sharing a subject are correlated, so a single draw only gets
    # within ~1/sqrt(n); averaging over independent score draws tests the
    # 0.5 center at the 3/sqrt(pairs) scale
    rng = np.random.default_rng(8)
    cohort = _random_cohort(rng, 400, 1)
    values, pairs = [], 0
    for _ in range(25):
        scores = rng.uniform(size=(400, 400))
        res = ctd_index(cohort, scores=scores, r=1)
        values.append(res.value)
        pairs = res.pairs
    assert abs(np.mean(values) - 0.5) < 3.0 / np.sqrt(pairs)


def test_cif_score_matrix_queries_event_times_once_per_risk():
    cohort = _cohort([3.0, 2.0, 1.0, 4.0, 2.5], [1, 0, 2, 1, 2], n_risks=2)

    class Recorder:
        def __init__(self):
            self.calls = []

        def cif_curves(self, x, times, r):
            self.calls.append((list(times), r))
            return np.tile(np.asarray(times)[:, None] / 10.0 + r, (1, x.shape[0]))

    model = Recorder()
    for r, rows in ((1, [0, 3]), (2, [2, 4])):
        scores = cif_score_matrix(model, cohort, r)
        assert model.calls[-1] == ([cohort.times[i] for i in rows], r)
        for i in range(cohort.n):
            want = cohort.times[i] / 10.0 + r if i in rows else 0.0  # non-event rows stay zero
            assert np.all(scores[i] == want)
    assert len(model.calls) == 2


# -- the model path: comparable pairs only, streamed --------------------------------

SPEC = SynthSpec(d=2, shapes=[1.4, 2.2], scales=[6.0, 8.0], betas=[[1.2, 0.0], [0.0, 1.2]],
                 horizon=15.0, seed=5)


@pytest.fixture(scope="module")
def fitted_models():
    """One small fitted model per kind on a two-feature, two-risk cohort."""
    small = dict(lr=1e-2, batch_size=64, layers=1, nodes=8, max_epochs=4, patience=5)
    models = {"nfg": NfgModel(NfgConfig(monotone_nodes=8, **small)),
              "deephit": DeepHitModel(DeepHitConfig(bins=6, **small)),
              "dsm": DsmModel(DsmConfig(k=2, warmup_iters=20, **small))}
    train = generate_synthetic(SPEC, 160)
    for model in models.values():
        model.fit(train, seed=1)
    return models


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_model_path_equals_bruteforce_on_the_score_matrix(fitted_models, data):
    kind = data.draw(st.sampled_from(sorted(fitted_models)), label="kind")
    n = data.draw(st.integers(2, 30), label="n")
    # times on a coarse grid (0 included) and a few distinct feature rows, so
    # tied times and tied scores are common
    times = 1.5 * np.array(data.draw(st.lists(st.integers(0, 12), min_size=n, max_size=n)))
    events = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    grid = st.tuples(st.integers(-1, 1), st.integers(-1, 1))
    x = np.array(data.draw(st.lists(grid, min_size=n, max_size=n)), dtype=np.float64)
    horizon = data.draw(st.none() | st.floats(0.0, 20.0), label="horizon")
    r = data.draw(st.integers(1, 2), label="r")
    cohort = Cohort([f"m{i}" for i in range(n)], x, times, events, ["risk_1", "risk_2"],
                    ["x1", "x2"])
    model = fitted_models[kind]
    try:
        want = ctd_bruteforce(cohort, cif_score_matrix(model, cohort, r), r=r, horizon=horizon)
    except ValueError:
        with pytest.raises(ValueError, match=f"no comparable pairs for risk {r}"):
            ctd_index(cohort, model, r=r, horizon=horizon)
        return
    got = ctd_index(cohort, model, r=r, horizon=horizon)
    assert (got.value, got.pairs) == (want.value, want.pairs)


def test_model_path_evaluates_each_comparable_pair_once(fitted_models, monkeypatch):
    model = fitted_models["nfg"]
    cohort = generate_synthetic(SPEC, 900)
    encoder_calls, chunks = [], []
    encoder, hook = model.encoder, model._cif_pairs

    def counted_encoder(*args, **kwargs):
        encoder_calls.append(args[0].shape[0])
        return encoder(*args, **kwargs)

    def recording_hook(x, times, r):
        at = hook(x, times, r)

        def counted(ti, ri):
            chunks.append(ti.size)
            return at(ti, ri)

        return counted

    monkeypatch.setattr(model, "encoder", counted_encoder)
    monkeypatch.setattr(model, "_cif_pairs", recording_hook)
    horizon = 10.0
    for r in (1, 2):
        chunks.clear()
        got = ctd_index(cohort, model, r=r, horizon=horizon)
        later = cohort.times[None, :] > cohort.times[:, None]
        scored = (cohort.events == r) & (cohort.times <= horizon) & later.any(axis=1)
        assert got.pairs == int(later[scored].sum()) > BLOCK_PAIRS  # two blocks or more
        assert sum(chunks) == got.pairs + int(scored.sum())
        assert max(chunks) == CHUNK_ROWS
    assert encoder_calls == [cohort.n, cohort.n]  # one covariate pass per risk
    monkeypatch.undo()
    for r in (1, 2):
        want = ctd_bruteforce(cohort, cif_score_matrix(model, cohort, r), r=r, horizon=horizon)
        got = ctd_index(cohort, model, r=r, horizon=horizon)
        assert (got.value, got.pairs) == (want.value, want.pairs)


def test_model_path_memory_stays_far_below_a_score_matrix(fitted_models):
    cohort = generate_synthetic(SPEC, 3000)
    events = int(np.sum(cohort.events == 1))
    tracemalloc.start()
    try:
        ctd_index(cohort, fitted_models["nfg"], r=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < events * cohort.n * 8 / 8  # an eighth of the E x n float64 rows
