"""Feature pipeline: standardization, per-category PCA, modality fusion.

Fitting functions accept only the training matrix, so parameters can never
leak information from evaluation rows. PCA diagonalizes each category's
covariance with LAPACK's symmetric eigensolver (`np.linalg.eigh`) and fixes
each component's sign, so repeated fits are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


@dataclass
class FeatureMatrix:
    data: np.ndarray
    names: list[str]
    categories: list[str] | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise DataError(f"feature matrix must be 2-D, got shape {self.data.shape}")
        if self.data.shape[1] != len(self.names):
            raise DataError(
                f"{self.data.shape[1]} columns vs {len(self.names)} names")
        if self.categories is not None and len(self.categories) != len(self.names):
            raise DataError("category labels must match column count")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass
class StandardizeParams:
    mean: np.ndarray
    std: np.ndarray  # population std; zero for constant columns


def standardize_fit_apply(train: FeatureMatrix, others: list[FeatureMatrix] | None = None
                          ) -> tuple[FeatureMatrix, list[FeatureMatrix], StandardizeParams]:
    """Zero-mean unit-variance transform fit on the training rows only.

    Constant columns map to zero everywhere. `others` are transformed with
    the training statistics.
    """
    if train.n == 0:
        raise DataError("cannot standardize an empty training matrix")
    mean = train.data.mean(axis=0)
    std = train.data.std(axis=0)
    params = StandardizeParams(mean, std)
    transformed = [standardize_apply(m, params) for m in [train] + list(others or [])]
    return transformed[0], transformed[1:], params


def standardize_apply(m: FeatureMatrix, params: StandardizeParams) -> FeatureMatrix:
    safe = np.where(params.std > 0, params.std, 1.0)
    data = (m.data - params.mean) / safe
    data[:, params.std == 0] = 0.0
    return FeatureMatrix(data, list(m.names), m.categories and list(m.categories))


# ---------------------------------------------------------------------------
# per-category PCA
# ---------------------------------------------------------------------------


@dataclass
class CategoryPca:
    mean: np.ndarray
    components: np.ndarray  # (d_cat, m)
    explained: np.ndarray  # all eigenvalues, descending
    columns: list[int] = field(default_factory=list)


@dataclass
class PcaModel:
    per_category: dict[str, CategoryPca]
    components_per_category: int

    @property
    def categories(self) -> list[str]:
        return sorted(self.per_category)


def pca_fit(train: FeatureMatrix, components_per_category: int = 10) -> PcaModel:
    """Per-category PCA of the training rows.

    Covariance (ddof=1) is diagonalized with `np.linalg.eigh`; the top-m
    components keep a fixed sign: the largest-magnitude entry of each
    component is positive.
    """
    m = components_per_category
    cats = train.categories or ["all"] * train.width
    groups: dict[str, list[int]] = {}
    for j, c in enumerate(cats):
        groups.setdefault(c, []).append(j)
    per_category = {}
    for cat in sorted(groups):
        cols = groups[cat]
        if len(cols) < m:
            raise DataError(f"category {cat!r} has {len(cols)} columns, fewer than m={m}")
        if train.n < m:
            raise DataError(f"category {cat!r}: {train.n} rows, fewer than m={m}")
        block = train.data[:, cols]
        mean = block.mean(axis=0)
        centered = block - mean
        cov = centered.T @ centered / (train.n - 1) if train.n > 1 else np.outer(
            centered[0], centered[0])
        eigvals, eigvecs = np.linalg.eigh(cov)
        eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
        comps = eigvecs[:, :m].copy()
        for j in range(m):
            lead = np.argmax(np.abs(comps[:, j]))
            if comps[lead, j] < 0:
                comps[:, j] = -comps[:, j]
        per_category[cat] = CategoryPca(mean, comps, eigvals, cols)
    return PcaModel(per_category, m)


def pca_apply(model: PcaModel, data: FeatureMatrix) -> FeatureMatrix:
    """Project onto the fitted components; output columns are grouped by
    category name in sorted order, named `<category>_pc<j>`."""
    cats = data.categories or ["all"] * data.width
    groups: dict[str, list[int]] = {}
    for j, c in enumerate(cats):
        groups.setdefault(c, []).append(j)
    unknown = set(groups) - set(model.per_category)
    if unknown:
        raise DataError(f"categories not in the fitted model: {sorted(unknown)}")
    missing = set(model.per_category) - set(groups)
    if missing:
        raise DataError(f"fitted categories absent from the data: {sorted(missing)}")
    blocks, names = [], []
    for cat in model.categories:
        fit = model.per_category[cat]
        cols = groups[cat]
        if len(cols) != fit.mean.size:
            raise DataError(
                f"category {cat!r}: {len(cols)} columns vs {fit.mean.size} at fit time")
        blocks.append((data.data[:, cols] - fit.mean) @ fit.components)
        names.extend(f"{cat}_pc{j + 1}" for j in range(model.components_per_category))
    out = np.concatenate(blocks, axis=1) if blocks else np.zeros((data.n, 0))
    return FeatureMatrix(out, names)


def fuse_concat(a: FeatureMatrix, b: FeatureMatrix,
                a_prefix: str = "", b_prefix: str = "") -> FeatureMatrix:
    """Horizontal concatenation; optional modality prefixes on the names,
    which must not repeat."""
    names = [a_prefix + n for n in a.names] + [b_prefix + n for n in b.names]
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise DataError(f"duplicate feature column {name!r}")
        seen.add(name)
    if b.width == 0:
        return FeatureMatrix(a.data.copy(), names)
    if a.width == 0:
        return FeatureMatrix(b.data.copy(), names)
    if a.n != b.n:
        raise DataError(f"row mismatch: {a.n} vs {b.n}")
    return FeatureMatrix(np.concatenate([a.data, b.data], axis=1), names)


def category_map_from_json(path, names: list[str]) -> list[str]:
    """Resolve a column-name -> category-name JSON map against `names`."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            mapping = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read category map {path}: {exc.strerror}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(mapping, dict):
        raise DataError(f"{path}: category map must be a JSON object")
    missing = [n for n in names if n not in mapping]
    if missing:
        raise DataError(f"category map misses columns: {missing[:5]}")
    return [str(mapping[n]) for n in names]
