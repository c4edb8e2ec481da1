"""Competing-risks cohorts: labeling rules, synthetic cohorts, splits.

A subject is the triple (x, t, e) with event label e in [0, R], 0 meaning
right censoring. Labeling maps diagnosis-record tables onto that triple;
the synthetic generator draws cohorts from cause-specific Weibull hazards
whose cumulative incidence has a quadrature oracle, so model quality can
be measured without any private data.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # noqa: F401  numpy 2 defers it to first use; every command uses it

from .errors import DataError

# Exclusion window after imaging: three months mapped to the maximal
# month-triple length in days.
EXCLUSION_DAYS = 92
DAYS_PER_YEAR = 365.25


@dataclass(frozen=True)
class DiagnosisRecord:
    subject_id: str
    code: str
    date: dt.date


def _first(mask: np.ndarray) -> int | None:
    """Index of the first true entry, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


class Cohort:
    """Subjects stored column-wise, with shared risk and feature names.

    Row i is subject `ids[i]`: feature vector `features[i]` (float64,
    shape (n, d)), time `times[i]` (float64, finite and non-negative) and
    event `events[i]` (int64 in [0, R], 0 meaning right censoring). The
    constructor copies each array once, validates every row, and marks the
    copies read-only, so no caller can change a cohort through its arrays.
    """

    def __init__(self, ids, features, times, events, risk_names: list[str],
                 feature_names: list[str]):
        self._ids = tuple(ids)
        self.risk_names = list(risk_names)
        self.feature_names = list(feature_names)
        n, d, R = len(self._ids), self.d, self.n_risks
        x = np.array(features, dtype=np.float64)
        t = np.array(times, dtype=np.float64)
        e = np.array(events, dtype=np.int64)
        for name, arr, shape in (("features", x, (n, d)), ("times", t, (n,)),
                                 ("events", e, (n,))):
            if arr.shape != shape:
                raise DataError(f"{name} shape {arr.shape} != {shape}")
        if (i := _first(~np.isfinite(t))) is not None:
            raise DataError(f"subject {self._ids[i]}: non-finite time {t[i]}")
        if (i := _first(t < 0)) is not None:
            raise DataError(f"subject {self._ids[i]}: negative time {t[i]}")
        if (i := _first((e < 0) | (e > R))) is not None:
            raise DataError(f"subject {self._ids[i]}: event {e[i]} outside [0, {R}]")
        if (i := _first(~np.isfinite(x).all(axis=1))) is not None:
            raise DataError(f"subject {self._ids[i]}: non-finite feature value")
        self.features, self.times, self.events = x, t, e
        self._freeze()

    def _freeze(self) -> None:
        for arr in (self.features, self.times, self.events):
            arr.flags.writeable = False

    def __setstate__(self, state: dict) -> None:
        # unpickled arrays come back writeable, e.g. in CV worker processes
        self.__dict__.update(state)
        self._freeze()

    @property
    def n(self) -> int:
        return len(self._ids)

    @property
    def d(self) -> int:
        return len(self.feature_names)

    @property
    def n_risks(self) -> int:
        return len(self.risk_names)

    @property
    def ids(self) -> list[str]:
        return list(self._ids)

    def subset(self, indices) -> "Cohort":
        idx = np.asarray(indices, dtype=np.intp)
        return Cohort([self._ids[i] for i in idx], self.features[idx], self.times[idx],
                      self.events[idx], self.risk_names, self.feature_names)

    def with_features(self, matrix: np.ndarray, feature_names: list[str]) -> "Cohort":
        """Same subjects and labels, replaced feature block."""
        return Cohort(self._ids, matrix, self.times, self.events, self.risk_names,
                      feature_names)

    def event_count(self, risk: int) -> int:
        return int(np.sum(self.events == risk))


# ---------------------------------------------------------------------------
# labeling from diagnosis records
# ---------------------------------------------------------------------------


@dataclass
class LabelStats:
    excluded_prior_or_window: int = 0
    missing_imaging_date: int = 0
    labeled_per_risk: dict = field(default_factory=dict)
    censored: int = 0


def build_labels(records: list[DiagnosisRecord],
                 imaging_dates: dict[str, dt.date],
                 code_sets: dict[str, list[str]],
                 censor_date: dt.date) -> tuple[Cohort, LabelStats]:
    """Label subjects from raw diagnosis records.

    A subject is excluded when any in-scope event falls before, or at most
    EXCLUSION_DAYS after, its imaging date. Otherwise the first in-scope
    event decides risk and time; subjects with no in-scope events are
    censored at `censor_date`. Returns the cohort (no features attached)
    plus per-rule counts.
    """
    risk_names = list(code_sets.keys())
    code_to_risk: dict[str, int] = {}
    for r, name in enumerate(risk_names):
        for code in code_sets[name]:
            if code in code_to_risk:
                other = risk_names[code_to_risk[code]]
                raise DataError(f"code {code!r} appears in both {other!r} and {name!r}")
            code_to_risk[code] = r + 1  # event labels are 1-based

    events_by_subject: dict[str, list[tuple[dt.date, int]]] = {}
    for rec in records:
        risk = code_to_risk.get(rec.code)
        if risk is None:
            continue
        if rec.date > censor_date:
            raise DataError(
                f"subject {rec.subject_id}: event on {rec.date} after censor date {censor_date}")
        events_by_subject.setdefault(rec.subject_id, []).append((rec.date, risk))

    stats = LabelStats(labeled_per_risk={name: 0 for name in risk_names})
    ids: list[str] = []
    times: list[float] = []
    labels: list[int] = []
    all_ids = sorted(set(imaging_dates) | set(events_by_subject))
    for sid in all_ids:
        imaging = imaging_dates.get(sid)
        if imaging is None:
            stats.missing_imaging_date += 1
            continue
        events = sorted(events_by_subject.get(sid, []))
        if not events:
            ids.append(sid)
            times.append((censor_date - imaging).days / DAYS_PER_YEAR)
            labels.append(0)
            stats.censored += 1
            continue
        first_date, first_risk = events[0]
        if (first_date - imaging).days <= EXCLUSION_DAYS:
            # covers both events before imaging and the post-imaging window
            stats.excluded_prior_or_window += 1
            continue
        ids.append(sid)
        times.append((first_date - imaging).days / DAYS_PER_YEAR)
        labels.append(first_risk)
        stats.labeled_per_risk[risk_names[first_risk - 1]] += 1
    return Cohort(ids, np.zeros((len(ids), 0)), times, labels, risk_names, []), stats


# ---------------------------------------------------------------------------
# synthetic cohorts with an analytic oracle
# ---------------------------------------------------------------------------


@dataclass
class SynthSpec:
    """Cause-specific Weibull ground truth.

    Risk r has hazard H_r(t|x) = (t / scale_r)^shape_r * exp(beta_r . x):
    latent time scale is scale_r * exp(-beta_r . x / shape_r). Censoring is
    uniform on [0, horizon].
    """

    d: int = field(metadata={"min": 1})  # bounds as in `models.BaseConfig`
    shapes: list[float] = field(metadata={"items": {"type": "float", "positive": True}})
    scales: list[float] = field(metadata={"items": {"type": "float", "positive": True}})
    betas: list[list[float]] = field(metadata={"items": {"items": {"type": "float"}}})
    horizon: float = field(metadata={"positive": True})
    seed: int = field(metadata={"min": 0})

    def __post_init__(self):
        if len(self.shapes) != len(self.scales) or len(self.shapes) != len(self.betas):
            raise DataError("shapes, scales and betas must have one entry per risk")
        if any(k <= 0 for k in self.shapes) or any(s <= 0 for s in self.scales):
            raise DataError("Weibull shapes and scales must be strictly positive")
        for b in self.betas:
            if len(b) != self.d:
                raise DataError(f"beta length {len(b)} != feature dim {self.d}")

    @property
    def n_risks(self) -> int:
        return len(self.shapes)

    def to_json(self) -> dict:
        return {"d": self.d, "shapes": self.shapes, "scales": self.scales,
                "betas": self.betas, "horizon": self.horizon, "seed": self.seed}

    @staticmethod
    def from_json(doc: dict) -> "SynthSpec":
        return SynthSpec(d=doc["d"], shapes=doc["shapes"], scales=doc["scales"],
                         betas=doc["betas"], horizon=doc["horizon"], seed=doc["seed"])


def latent_times(spec: SynthSpec, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One latent Weibull draw per risk for each row of x; shape (n, R)."""
    n = x.shape[0]
    u = rng.random((n, spec.n_risks))
    out = np.empty((n, spec.n_risks))
    for r in range(spec.n_risks):
        eff_scale = spec.scales[r] * np.exp(-(x @ np.asarray(spec.betas[r])) / spec.shapes[r])
        out[:, r] = eff_scale * (-np.log(u[:, r])) ** (1.0 / spec.shapes[r])
    return out


def generate_synthetic(spec: SynthSpec, n: int) -> Cohort:
    """Draw a cohort: standard-normal features, argmin latent risk time,
    uniform censoring on [0, horizon]."""
    rng = np.random.default_rng(spec.seed)
    x = rng.standard_normal((n, spec.d))
    latents = latent_times(spec, x, rng)
    censor = rng.uniform(0.0, spec.horizon, size=n)
    event_time = latents.min(axis=1)
    event_risk = latents.argmin(axis=1) + 1
    observed = event_time <= censor
    t = np.where(observed, event_time, censor)
    e = np.where(observed, event_risk, 0)
    ids = [f"s{i:06d}" for i in range(n)]
    risk_names = [f"risk_{r + 1}" for r in range(spec.n_risks)]
    feat_names = [f"x{j + 1}" for j in range(spec.d)]
    return Cohort(ids, x, t, e, risk_names, feat_names)


def _cause_hazards(spec: SynthSpec, x: np.ndarray):
    eff = [spec.scales[r] * np.exp(-(float(np.dot(x, spec.betas[r]))) / spec.shapes[r])
           for r in range(spec.n_risks)]

    def hazard(u: float, r: int) -> float:
        k, s = spec.shapes[r], eff[r]
        return (k / s) * (u / s) ** (k - 1.0)

    def cum_hazard_total(u: float) -> float:
        return sum((u / eff[r]) ** spec.shapes[r] for r in range(spec.n_risks))

    return hazard, cum_hazard_total


def oracle_cif(spec: SynthSpec, x: np.ndarray, t: float, r: int) -> float:
    """Ground-truth F_r(t|x) by adaptive quadrature of the cause-specific
    density h_r(u|x) * exp(-sum_q H_q(u|x)); r is 1-based."""
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    if t == 0.0:
        return 0.0
    from scipy.integrate import quad

    hazard, cum_total = _cause_hazards(spec, np.asarray(x, dtype=np.float64))
    val, _err = quad(lambda u: hazard(u, r - 1) * np.exp(-cum_total(u)),
                     0.0, t, epsabs=1e-9, epsrel=1e-9, limit=200)
    return float(val)


def oracle_cif_curve(spec: SynthSpec, x: np.ndarray, tgrid: np.ndarray, r: int,
                     steps_per_unit: int = 2048) -> np.ndarray:
    """F_r over a whole grid by cumulative Simpson on a dense mesh.

    Much faster than per-point quadrature when scoring many subjects;
    agreement with oracle_cif is covered by tests. For shape < 1 the
    hazard's integrable singularity at 0 is truncated, biasing the first
    mesh cell by O(h^shape).
    """
    tgrid = np.asarray(tgrid, dtype=np.float64)
    tmax = float(tgrid.max()) if tgrid.size else 0.0
    if tmax == 0.0:
        return np.zeros_like(tgrid)
    m = max(64, int(steps_per_unit * tmax))
    m += m % 2  # even interval count for Simpson pairs
    mesh = np.linspace(0.0, tmax, m + 1)
    x = np.asarray(x, dtype=np.float64)
    total_ch = np.zeros_like(mesh)
    eff = [spec.scales[q] * np.exp(-float(np.dot(x, spec.betas[q])) / spec.shapes[q])
           for q in range(spec.n_risks)]
    k, s = spec.shapes[r - 1], eff[r - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        for q in range(spec.n_risks):
            total_ch += (mesh / eff[q]) ** spec.shapes[q]
        haz = np.where(mesh > 0, (k / s) * (mesh / s) ** (k - 1.0), 0.0)
    haz[0] = k / s if k == 1.0 else 0.0
    dens = haz * np.exp(-total_ch)
    h = mesh[1] - mesh[0]
    cum = np.zeros_like(mesh)
    # Simpson over each pair of cells, plus a half-panel rule for midpoints.
    pair = (h / 3.0) * (dens[:-2:2] + 4.0 * dens[1:-1:2] + dens[2::2])
    if k < 1.0:
        # integrate the singular factor exactly over the first pair
        pair[0] = (2.0 * h / s) ** k * np.exp(-total_ch[1])
    cum[2::2] = np.cumsum(pair)
    cum[1::2] = cum[:-1:2] + (h / 12.0) * (5.0 * dens[:-1:2] + 8.0 * dens[1::2] - dens[2::2])
    if k < 1.0:
        cum[1] = (h / s) ** k * np.exp(-0.5 * (total_ch[0] + total_ch[1]))
    return np.interp(tgrid, mesh, cum)


# ---------------------------------------------------------------------------
# stratified splits
# ---------------------------------------------------------------------------


def _strata_indices(cohort: Cohort) -> dict[int, np.ndarray]:
    """Ascending row indices of each event label present in the cohort."""
    present = np.flatnonzero(np.bincount(cohort.events))  # np.unique would load numpy.ma
    return {int(e): np.flatnonzero(cohort.events == e) for e in present}


def stratified_kfold(cohort: Cohort, k: int, seed: int) -> list[Cohort]:
    """Disjoint folds balanced per stratum (each risk plus censored).

    Per-stratum fold counts differ by at most one; assignment is a
    deterministic function of (cohort order, seed).
    """
    rng = np.random.default_rng(seed)
    fold_of = np.empty(cohort.n, dtype=np.int64)
    strata = _strata_indices(cohort)
    for stratum in sorted(strata):
        members = strata[stratum]
        if len(members) < k:
            raise DataError(
                f"stratum {stratum} has {len(members)} subjects, fewer than k={k}")
        order = rng.permutation(len(members))
        fold_of[members[order]] = np.arange(len(members)) % k
    return [cohort.subset(np.flatnonzero(fold_of == f)) for f in range(k)]


def holdout_split(cohort: Cohort, fraction: float = 0.10,
                  seed: int = 0) -> tuple[Cohort, Cohort]:
    """Stratified (train, validation) split.

    Validation size is round(fraction * n), allocated over strata by
    largest remainder so each stratum stays within one subject of its
    proportional share.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    strata = _strata_indices(cohort)
    keys = sorted(strata)
    target = int(round(fraction * cohort.n))
    quotas = {s: fraction * len(strata[s]) for s in keys}
    counts = {s: int(np.floor(quotas[s])) for s in keys}
    shortfall = target - sum(counts.values())
    remainders = sorted(keys, key=lambda s: (-(quotas[s] - counts[s]), s))
    for s in remainders[:max(0, shortfall)]:
        counts[s] += 1
    in_valid = np.zeros(cohort.n, dtype=bool)
    for s in keys:
        members = strata[s]
        order = rng.permutation(len(members))
        in_valid[members[order[:counts[s]]]] = True
    return cohort.subset(np.flatnonzero(~in_valid)), cohort.subset(np.flatnonzero(in_valid))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def cohort_to_csv(cohort: Cohort, path) -> None:
    """Write `id,time,event,<features...>` with LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "time", "event"] + cohort.feature_names)
        for sid, t, e, x in zip(cohort.ids, cohort.times.tolist(), cohort.events.tolist(),
                                cohort.features.tolist()):
            writer.writerow([sid, repr(t), e] + [repr(v) for v in x])


@contextmanager
def open_input(path, newline: str | None = None):
    """`path` opened for reading as UTF-8 text, for a `with` block.

    A file that cannot be opened, or whose bytes read in the block are not
    UTF-8, is a DataError naming the path.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def cohort_from_csv(path, risk_names: list[str] | None = None) -> Cohort:
    with open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:3] != ["id", "time", "event"]:
            raise DataError(f"{path}: expected header starting 'id,time,event'")
        feature_names = header[3:]
        ids, times, events, rows = [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                times.append(float(row[1]))
                events.append(int(row[2]))
                rows.append([float(v) for v in row[3:]])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            ids.append(row[0])
    if risk_names is None:
        risk_names = [f"risk_{r + 1}" for r in range(max(events, default=0))]
    features = np.array(rows, dtype=np.float64).reshape(len(rows), len(feature_names))
    return Cohort(ids, features, times, events, risk_names, feature_names)


def records_from_csv(path) -> list[DiagnosisRecord]:
    """Read `id,code,date` rows with ISO-8601 dates."""
    records = []
    with open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["id", "code", "date"]:
            raise DataError(f"{path}: expected header 'id,code,date'")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            try:
                date = dt.date.fromisoformat(row[2])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad date {row[2]!r}") from exc
            records.append(DiagnosisRecord(row[0], row[1], date))
    return records


def imaging_dates_from_csv(path) -> dict[str, dt.date]:
    dates = {}
    with open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["id", "date"]:
            raise DataError(f"{path}: expected header 'id,date'")
        for lineno, row in enumerate(reader, start=2):
            try:
                dates[row[0]] = dt.date.fromisoformat(row[1])
            except (IndexError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: bad row {row!r}") from exc
    return dates


def code_sets_from_json(path) -> dict[str, list[str]]:
    with open_input(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict) or not all(isinstance(v, list) for v in doc.values()):
        raise DataError(f"{path}: expected a JSON object mapping risk name to code list")
    return {str(k): [str(c) for c in v] for k, v in doc.items()}
