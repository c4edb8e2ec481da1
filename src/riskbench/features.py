"""Feature pipeline on plain arrays: standardization and per-category PCA.

Every function takes (n, d) float arrays and returns arrays; the column
names stay with the `Cohort` that holds the matrix. Fusing two modalities
is column concatenation through `Cohort.with_features`, which rejects a
repeated column name.

Fitting functions accept only the training matrix, so parameters can never
leak information from evaluation rows. PCA diagonalizes each category's
covariance with LAPACK's symmetric eigensolver (`np.linalg.eigh`) and fixes
each component's sign, so repeated fits are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .files import read_json_object


def standardize_fit_apply(train: np.ndarray, *others: np.ndarray) -> list[np.ndarray]:
    """Zero-mean unit-variance transform fit on the training rows only.

    Returns `train` and then each of `others` transformed with the training
    statistics. Constant columns map to zero everywhere.
    """
    if train.shape[0] == 0:
        raise DataError("cannot standardize an empty training matrix")
    mean = train.mean(axis=0)
    std = train.std(axis=0)  # population std; zero for constant columns
    safe = np.where(std > 0, std, 1.0)
    out = []
    for x in (train, *others):
        z = (x - mean) / safe
        z[:, std == 0] = 0.0
        out.append(z)
    return out


# ---------------------------------------------------------------------------
# per-category PCA
# ---------------------------------------------------------------------------


@dataclass
class CategoryPca:
    mean: np.ndarray
    components: np.ndarray  # (d_cat, m)
    explained: np.ndarray  # all eigenvalues, descending
    columns: list[int]  # the category's columns of the fitted matrix


@dataclass
class PcaModel:
    per_category: dict[str, CategoryPca]
    components_per_category: int

    @property
    def categories(self) -> list[str]:
        return sorted(self.per_category)


def pca_fit(train: np.ndarray, components_per_category: int = 10,
            categories: list[str] | None = None) -> PcaModel:
    """Per-category PCA of the training rows; `categories` labels each
    column (default: one category, "all").

    Covariance (ddof=1) is diagonalized with `np.linalg.eigh`; the top-m
    components keep a fixed sign: the largest-magnitude entry of each
    component is positive.
    """
    m = components_per_category
    n, width = train.shape
    if categories is not None and len(categories) != width:
        raise DataError(f"{len(categories)} category labels vs {width} columns")
    groups: dict[str, list[int]] = {}
    for j, c in enumerate(categories or ["all"] * width):
        groups.setdefault(c, []).append(j)
    per_category = {}
    for cat in sorted(groups):
        cols = groups[cat]
        if len(cols) < m:
            raise DataError(f"category {cat!r} has {len(cols)} columns, fewer than m={m}")
        if n < m:
            raise DataError(f"category {cat!r}: {n} rows, fewer than m={m}")
        block = train[:, cols]
        mean = block.mean(axis=0)
        centered = block - mean
        cov = centered.T @ centered / (n - 1) if n > 1 else np.outer(
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


def pca_apply(model: PcaModel, x: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Project each category's fit-time columns of `x` onto its components.

    Returns the scores and their names: columns grouped by category name in
    sorted order, named `<category>_pc<j>`.
    """
    blocks, names = [], []
    for cat in model.categories:
        fit = model.per_category[cat]
        blocks.append((x[:, fit.columns] - fit.mean) @ fit.components)
        names.extend(f"{cat}_pc{j + 1}" for j in range(model.components_per_category))
    scores = np.concatenate(blocks, axis=1) if blocks else np.zeros((x.shape[0], 0))
    return scores, names


def category_map_from_json(path, names: list[str]) -> list[str]:
    """Resolve a column-name -> category-name JSON map against `names`."""
    mapping = read_json_object(path)
    missing = [n for n in names if n not in mapping]
    if missing:
        raise DataError(f"category map misses columns: {missing[:5]}")
    return [str(mapping[n]) for n in names]
