import numpy as np
import pytest

from riskbench.cohort import Cohort
from riskbench.errors import DataError
from riskbench.features import pca_apply, pca_fit, standardize_fit_apply


def test_standardize_closed_form():
    [out] = standardize_fit_apply(np.array([[1.0], [2.0], [3.0]]))
    assert np.allclose(out[:, 0], [-1.2247448, 0.0, 1.2247448], atol=1e-6)


def test_standardize_constant_column_zeroed():
    [out] = standardize_fit_apply(np.full((5, 1), 3.7))
    assert np.array_equal(out, np.zeros((5, 1)))


def test_standardize_others_use_train_stats():
    rng = np.random.default_rng(0)
    train = rng.normal(loc=5.0, size=(50, 3))
    test = rng.normal(loc=-2.0, size=(20, 3))
    _, test_t = standardize_fit_apply(train, test)
    [self_t] = standardize_fit_apply(test)
    assert not np.allclose(test_t, self_t)
    # train stats reproduce manually
    expected = (test - train.mean(0)) / train.std(0)
    assert np.allclose(test_t, expected)


def test_pca_rank_one_line():
    rng = np.random.default_rng(2)
    direction = np.array([1.0, 2.0, -0.5])
    direction /= np.linalg.norm(direction)
    coords = rng.normal(size=400)
    data = np.outer(coords, direction)
    model = pca_fit(data, components_per_category=1)
    comp = model.per_category["all"].components[:, 0]
    assert abs(abs(comp @ direction) - 1.0) < 1e-6
    explained = model.per_category["all"].explained
    assert explained[0] / explained.sum() > 1.0 - 1e-9


def test_pca_isotropic_eigenvalues_close():
    rng = np.random.default_rng(3)
    model = pca_fit(rng.normal(size=(10_000, 5)), components_per_category=5)
    ev = model.per_category["all"].explained
    assert ev.max() / ev.min() < 1.15


def test_pca_components_orthonormal():
    rng = np.random.default_rng(4)
    model = pca_fit(rng.normal(size=(60, 8)) @ rng.normal(size=(8, 8)),
                    components_per_category=4)
    c = model.per_category["all"].components
    assert np.allclose(c.T @ c, np.eye(4), atol=1e-8)


def test_pca_deterministic_bit_identical():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(40, 6))
    a = pca_fit(data, 3)
    b = pca_fit(data.copy(), 3)
    assert np.array_equal(a.per_category["all"].components,
                          b.per_category["all"].components)
    assert np.array_equal(a.per_category["all"].explained,
                          b.per_category["all"].explained)


def test_pca_explained_sums_to_total_variance():
    rng = np.random.default_rng(6)
    data = rng.normal(size=(100, 7)) * np.array([5, 3, 2, 1, 1, 0.5, 0.1])
    model = pca_fit(data, 2)
    total = np.var(data, axis=0, ddof=1).sum()
    assert abs(model.per_category["all"].explained.sum() - total) < 1e-8


def test_pca_apply_widths_and_names():
    rng = np.random.default_rng(7)
    n_cats = 14
    cols_per_cat = 12
    cats = [f"cat{c:02d}" for c in range(n_cats) for _ in range(cols_per_cat)]
    data = rng.normal(size=(80, n_cats * cols_per_cat))
    model = pca_fit(data, 10, cats)
    out, names = pca_apply(model, data)
    assert out.shape == (80, 140) and len(names) == 140
    assert names[0] == "cat00_pc1"
    assert names[-1] == "cat13_pc10"


def test_pca_apply_interleaved_categories_projects_fit_time_columns():
    rng = np.random.default_rng(13)
    train, test = rng.normal(size=(40, 4)), rng.normal(size=(7, 4))
    model = pca_fit(train, 1, ["a", "b", "a", "b"])
    assert model.per_category["a"].columns == [0, 2]
    assert model.per_category["b"].columns == [1, 3]
    out, names = pca_apply(model, test)
    expected = np.concatenate(
        [(test[:, cols] - train[:, cols].mean(axis=0)) @ model.per_category[cat].components
         for cat, cols in (("a", [0, 2]), ("b", [1, 3]))], axis=1)
    assert names == ["a_pc1", "b_pc1"]
    assert np.array_equal(out, expected)


def test_pca_apply_model_without_categories_gives_zero_width():
    model = pca_fit(np.zeros((5, 0)), 2)
    out, names = pca_apply(model, np.zeros((3, 0)))
    assert out.shape == (3, 0) and names == []


def test_pca_projecting_mean_row_gives_zero():
    rng = np.random.default_rng(8)
    data = rng.normal(size=(30, 4))
    model = pca_fit(data, 2)
    out, _ = pca_apply(model, data.mean(axis=0, keepdims=True))
    assert np.allclose(out, 0.0, atol=1e-12)


def test_pca_reconstruction_error_eckart_young():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(200, 6)) * np.array([4, 2.5, 1.5, 1, 0.6, 0.2])
    model = pca_fit(data, 3)
    fit = model.per_category["all"]
    centered = data - fit.mean
    recon = (centered @ fit.components) @ fit.components.T
    err = np.sum((centered - recon) ** 2) / (data.shape[0] - 1)
    discarded = fit.explained[3:].sum()
    assert err <= discarded + 1e-6
    assert abs(err - discarded) < 1e-6  # equality for exact PCA


def test_pca_small_category_errors():
    with pytest.raises(DataError, match="tiny"):
        pca_fit(np.zeros((30, 3)), 10, ["tiny", "tiny", "tiny"])


def test_pca_category_labels_must_cover_every_column():
    with pytest.raises(DataError, match="3 category labels vs 4 columns"):
        pca_fit(np.zeros((30, 4)), 1, ["a", "a", "b"])


# -- fusion: column concatenation onto a cohort, which keeps names unique -------------


def _with_columns(block: np.ndarray, names: list[str]) -> Cohort:
    n = block.shape[0]
    return Cohort([f"s{i}" for i in range(n)], block, np.ones(n), np.zeros(n, dtype=int),
                  ["risk_1"], names)


def test_fuse_widths_and_order():
    rng = np.random.default_rng(11)
    a, b = rng.normal(size=(10, 128)), rng.normal(size=(10, 20))
    a_names, b_names = [f"a{i}" for i in range(128)], [f"b{i}" for i in range(20)]
    out = _with_columns(a, a_names).with_features(np.concatenate([a, b], axis=1),
                                                  a_names + b_names)
    assert out.d == 148
    assert out.feature_names == a_names + b_names
    assert np.array_equal(out.features[:, :128], a)
    assert np.array_equal(out.features[:, 128:], b)


def test_fuse_with_empty_is_identity():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(6, 4))
    out = _with_columns(a, list("wxyz")).with_features(
        np.concatenate([a, np.zeros((6, 0))], axis=1), list("wxyz"))
    assert out.d == 4
    assert np.array_equal(out.features, a)


def test_fuse_duplicate_column_name_errors():
    base = _with_columns(np.zeros((5, 2)), ["x1", "x2"])
    with pytest.raises(DataError, match="duplicate feature column 'x2'"):
        base.with_features(np.zeros((5, 4)), ["x1", "x2", "e1", "x2"])
