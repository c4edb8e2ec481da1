"""Time-dependent concordance index for competing risks.

A pair (i, j) is comparable for risk r when subject i has an event of
type r, t_i < t_j and t_i lies at or before the evaluation horizon; j may
be censored or belong to any risk. The pair counts as concordant when the
model assigns i the higher incidence at time t_i, with predictions closer
than 1e-12 scored as half-concordant. The index needs F_r(t_i | x_j) only
on the comparable pairs and each event's own (i, i), so a model is queried
once per risk through one `cif_pairs` evaluator, which runs on just those
pairs, BLOCK_PAIRS at a time: memory stays O(n + BLOCK_PAIRS). The
evaluator is plain numpy, CHUNK_ROWS pairs per call, and builds no tape.
The full event-by-subject `cif_score_matrix` is kept as the brute-force
reference. A risk without comparable pairs raises `NoComparablePairs`, a
ValueError that callers can tell apart from a failed model query.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .models.base import CHUNK_ROWS, evaluate_pairs

TIE_TOL = 1e-12
# comparable pairs per block, a whole number of query chunks
BLOCK_PAIRS = 8 * CHUNK_ROWS


class NoComparablePairs(ValueError):
    """The cohort holds no comparable pair for the risk (and horizon)."""


@dataclass
class CtdResult:
    value: float
    pairs: int
    risk: int
    horizon: float

    def to_json(self) -> dict:
        return {"risk": self.risk, "ctd": self.value, "pairs": self.pairs,
                "horizon": self.horizon}

    def __str__(self):
        return json.dumps(self.to_json())


def cif_score_matrix(model, cohort, r: int) -> np.ndarray:
    """S[i, j] = F_r(t_i | x_j) for every subject i with an event of risk r.

    One `model.cif_curves` call answers every event time, in row order.
    Rows for non-events are left as zeros and ignored by the index.
    """
    rows = np.nonzero(cohort.events == r)[0]
    scores = np.zeros((cohort.n, cohort.n))
    scores[rows] = model.cif_curves(cohort.features, cohort.times[rows], r)
    return scores


def ctd_index(cohort, model=None, r: int = 1, horizon: float | None = None,
              scores: np.ndarray | None = None) -> CtdResult:
    """Concordance over the comparable pairs, streamed in blocks.

    Either a fitted CifModel or a precomputed score matrix (as built by
    cif_score_matrix) must be given; both are read on the same pairs.
    """
    times = cohort.times
    if horizon is None:
        horizon = float(times.max())
    if scores is None and model is None:
        raise ValueError("need a model or a precomputed score matrix")
    # subjects are taken in time order, so the subjects comparable with
    # event i are the suffix that starts at first_later[i]
    order = np.argsort(times, kind="stable")
    first_later = np.searchsorted(times[order], times, side="right")
    rows = np.nonzero((cohort.events == r) & (times <= horizon)
                      & (first_later < cohort.n))[0]
    if rows.size == 0:
        raise NoComparablePairs(f"no comparable pairs for risk {r}")
    if scores is None:
        at = model.cif_pairs(cohort.features[order], times[rows], r)
    else:
        def at(ti, ri):
            return scores[rows[ti], order[ri]]
    rank = np.empty(cohort.n, dtype=np.intp)
    rank[order] = np.arange(cohort.n)
    own = evaluate_pairs(at, np.arange(rows.size), rank[rows])
    # the pairs run row after row: flat index p belongs to the first row k
    # with p < ends[k] and compares it with sorted position p - ends[k] + n
    ends = np.cumsum(cohort.n - first_later[rows])
    pairs = int(ends[-1])
    greater = ties = 0
    for lo in range(0, pairs, BLOCK_PAIRS):
        flat = np.arange(lo, min(lo + BLOCK_PAIRS, pairs))
        k = np.searchsorted(ends, flat, side="right")
        diff = own[k] - evaluate_pairs(at, k, flat - ends[k] + cohort.n)
        greater += int(np.count_nonzero(diff > TIE_TOL))
        ties += int(np.count_nonzero(np.abs(diff) <= TIE_TOL))
    return CtdResult((greater + 0.5 * ties) / pairs, pairs, r, horizon)


def ctd_bruteforce(cohort, scores: np.ndarray, r: int = 1,
                   horizon: float | None = None) -> CtdResult:
    """Reference implementation: literal double loop over ordered pairs."""
    times = cohort.times
    events = cohort.events
    n = cohort.n
    if horizon is None:
        horizon = float(times.max())
    conc = 0.0
    pairs = 0
    for i in range(n):
        if events[i] != r or times[i] > horizon:
            continue
        for j in range(n):
            if times[j] <= times[i]:
                continue
            pairs += 1
            diff = scores[i, i] - scores[i, j]
            if diff > TIE_TOL:
                conc += 1.0
            elif abs(diff) <= TIE_TOL:
                conc += 0.5
    if pairs == 0:
        raise NoComparablePairs(f"no comparable pairs for risk {r}")
    return CtdResult(conc / pairs, pairs, r, horizon)
