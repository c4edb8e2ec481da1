import numpy as np
import pytest

from riskbench.cohort import Cohort
from riskbench.metrics import cif_score_matrix, ctd_bruteforce, ctd_index


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

    def cif_curves(self, x, times, r):
        return np.tile(self.scores, (len(times), 1))


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


def test_metric_record_json_keys():
    cohort = _cohort([1.0, 2.0], [1, 0], n_risks=1)
    res = ctd_index(cohort, scores=np.array([[0.8, 0.2], [0.0, 0.0]]), r=1)
    assert res.to_json() == {"risk": 1, "ctd": 1.0, "pairs": 1, "horizon": 2.0}


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
