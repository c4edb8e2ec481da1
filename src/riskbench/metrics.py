"""Time-dependent concordance index for competing risks.

A pair (i, j) is comparable for risk r when subject i has an event of
type r, t_i < t_j and t_i lies at or before the evaluation horizon; j may
be censored or belong to any risk. The pair counts as concordant when the
model assigns i the higher incidence at time t_i, with predictions closer
than 1e-12 scored as half-concordant. The index needs F_r(t_i | x_j) only
at the event times t_i, so a model is queried once per risk, with all of
those times in one batched `cif_curves` call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

TIE_TOL = 1e-12


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
    """Concordance over comparable pairs, vectorized per event subject.

    Either a fitted CifModel or a precomputed score matrix (as built by
    cif_score_matrix) must be given.
    """
    times = cohort.times
    events = cohort.events
    if horizon is None:
        horizon = float(times.max())
    if scores is None:
        if model is None:
            raise ValueError("need a model or a precomputed score matrix")
        scores = cif_score_matrix(model, cohort, r)
    conc = 0.0
    pairs = 0
    for i in np.nonzero((events == r) & (times <= horizon))[0]:
        later = times > times[i]
        if not np.any(later):
            continue
        diff = scores[i, i] - scores[i, later]
        conc += float(np.sum(diff > TIE_TOL)) + 0.5 * float(np.sum(np.abs(diff) <= TIE_TOL))
        pairs += int(np.sum(later))
    if pairs == 0:
        raise ValueError(f"no comparable pairs for risk {r}")
    return CtdResult(conc / pairs, pairs, r, horizon)


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
        raise ValueError(f"no comparable pairs for risk {r}")
    return CtdResult(conc / pairs, pairs, r, horizon)
