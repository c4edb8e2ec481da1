import numpy as np
import pytest

from riskbench.errors import DataError
from riskbench.features import (
    FeatureMatrix,
    fuse_concat,
    pca_apply,
    pca_fit,
    standardize_fit_apply,
)


def test_standardize_closed_form():
    m = FeatureMatrix(np.array([[1.0], [2.0], [3.0]]), ["a"])
    out, _, _ = standardize_fit_apply(m)
    assert np.allclose(out.data[:, 0], [-1.2247448, 0.0, 1.2247448], atol=1e-6)


def test_standardize_constant_column_zeroed():
    m = FeatureMatrix(np.full((5, 1), 3.7), ["c"])
    out, _, _ = standardize_fit_apply(m)
    assert np.array_equal(out.data, np.zeros((5, 1)))


def test_standardize_others_use_train_stats():
    rng = np.random.default_rng(0)
    train = FeatureMatrix(rng.normal(loc=5.0, size=(50, 3)), ["a", "b", "c"])
    test = FeatureMatrix(rng.normal(loc=-2.0, size=(20, 3)), ["a", "b", "c"])
    _, [test_t], _ = standardize_fit_apply(train, [test])
    self_t, _, _ = standardize_fit_apply(test)
    assert not np.allclose(test_t.data, self_t.data)
    # train stats reproduce manually
    expected = (test.data - train.data.mean(0)) / train.data.std(0)
    assert np.allclose(test_t.data, expected)


def test_pca_rank_one_line():
    rng = np.random.default_rng(2)
    direction = np.array([1.0, 2.0, -0.5])
    direction /= np.linalg.norm(direction)
    coords = rng.normal(size=400)
    data = np.outer(coords, direction)
    m = FeatureMatrix(data, ["a", "b", "c"])
    model = pca_fit(m, components_per_category=1)
    comp = model.per_category["all"].components[:, 0]
    assert abs(abs(comp @ direction) - 1.0) < 1e-6
    explained = model.per_category["all"].explained
    assert explained[0] / explained.sum() > 1.0 - 1e-9


def test_pca_isotropic_eigenvalues_close():
    rng = np.random.default_rng(3)
    m = FeatureMatrix(rng.normal(size=(10_000, 5)), [f"f{i}" for i in range(5)])
    model = pca_fit(m, components_per_category=5)
    ev = model.per_category["all"].explained
    assert ev.max() / ev.min() < 1.15


def test_pca_components_orthonormal():
    rng = np.random.default_rng(4)
    m = FeatureMatrix(rng.normal(size=(60, 8)) @ rng.normal(size=(8, 8)),
                      [f"f{i}" for i in range(8)])
    model = pca_fit(m, components_per_category=4)
    c = model.per_category["all"].components
    assert np.allclose(c.T @ c, np.eye(4), atol=1e-8)


def test_pca_deterministic_bit_identical():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(40, 6))
    m = FeatureMatrix(data, [f"f{i}" for i in range(6)])
    a = pca_fit(m, 3)
    b = pca_fit(FeatureMatrix(data.copy(), list(m.names)), 3)
    assert np.array_equal(a.per_category["all"].components,
                          b.per_category["all"].components)
    assert np.array_equal(a.per_category["all"].explained,
                          b.per_category["all"].explained)


def test_pca_explained_sums_to_total_variance():
    rng = np.random.default_rng(6)
    data = rng.normal(size=(100, 7)) * np.array([5, 3, 2, 1, 1, 0.5, 0.1])
    m = FeatureMatrix(data, [f"f{i}" for i in range(7)])
    model = pca_fit(m, 2)
    total = np.var(data, axis=0, ddof=1).sum()
    assert abs(model.per_category["all"].explained.sum() - total) < 1e-8


def test_pca_apply_widths_and_names():
    rng = np.random.default_rng(7)
    n_cats = 14
    cols_per_cat = 12
    names, cats = [], []
    for c in range(n_cats):
        for j in range(cols_per_cat):
            names.append(f"cat{c:02d}_col{j}")
            cats.append(f"cat{c:02d}")
    m = FeatureMatrix(rng.normal(size=(80, n_cats * cols_per_cat)), names, cats)
    model = pca_fit(m, 10)
    out = pca_apply(model, m)
    assert out.width == 140
    assert out.names[0] == "cat00_pc1"
    assert out.names[-1] == "cat13_pc10"


def test_pca_projecting_mean_row_gives_zero():
    rng = np.random.default_rng(8)
    data = rng.normal(size=(30, 4))
    m = FeatureMatrix(data, list("abcd"))
    model = pca_fit(m, 2)
    mean_row = FeatureMatrix(data.mean(axis=0, keepdims=True), list("abcd"))
    out = pca_apply(model, mean_row)
    assert np.allclose(out.data, 0.0, atol=1e-12)


def test_pca_reconstruction_error_eckart_young():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(200, 6)) * np.array([4, 2.5, 1.5, 1, 0.6, 0.2])
    m = FeatureMatrix(data, [f"f{i}" for i in range(6)])
    model = pca_fit(m, 3)
    fit = model.per_category["all"]
    centered = data - fit.mean
    recon = (centered @ fit.components) @ fit.components.T
    err = np.sum((centered - recon) ** 2) / (data.shape[0] - 1)
    discarded = fit.explained[3:].sum()
    assert err <= discarded + 1e-6
    assert abs(err - discarded) < 1e-6  # equality for exact PCA


def test_pca_small_category_errors():
    m = FeatureMatrix(np.zeros((30, 3)), ["a", "b", "c"], ["tiny", "tiny", "tiny"])
    with pytest.raises(DataError, match="tiny"):
        pca_fit(m, 10)


def test_pca_apply_unknown_category_errors():
    rng = np.random.default_rng(10)
    m = FeatureMatrix(rng.normal(size=(30, 4)), list("abcd"), ["u", "u", "u", "u"])
    model = pca_fit(m, 2)
    other = FeatureMatrix(rng.normal(size=(5, 4)), list("abcd"), ["v", "v", "v", "v"])
    with pytest.raises(DataError, match="v"):
        pca_apply(model, other)


def test_fuse_widths_and_order():
    rng = np.random.default_rng(11)
    a = FeatureMatrix(rng.normal(size=(10, 128)), [f"a{i}" for i in range(128)])
    b = FeatureMatrix(rng.normal(size=(10, 20)), [f"b{i}" for i in range(20)])
    out = fuse_concat(a, b, a_prefix="repr:", b_prefix="cardiac:")
    assert out.width == 148
    assert out.names[:128] == [f"repr:a{i}" for i in range(128)]
    assert out.names[128:] == [f"cardiac:b{i}" for i in range(20)]
    assert np.array_equal(out.data[:, :128], a.data)
    assert np.array_equal(out.data[:, 128:], b.data)


def test_fuse_with_empty_is_identity():
    rng = np.random.default_rng(12)
    a = FeatureMatrix(rng.normal(size=(6, 4)), list("wxyz"))
    empty = FeatureMatrix(np.zeros((6, 0)), [])
    out = fuse_concat(a, empty)
    assert out.width == 4
    assert np.array_equal(out.data, a.data)


def test_fuse_row_mismatch_errors():
    a = FeatureMatrix(np.zeros((5, 2)), ["a", "b"])
    b = FeatureMatrix(np.zeros((6, 2)), ["c", "d"])
    with pytest.raises(DataError, match="5 vs 6"):
        fuse_concat(a, b)


def test_fuse_duplicate_column_name_errors():
    a = FeatureMatrix(np.zeros((5, 2)), ["x1", "x2"])
    b = FeatureMatrix(np.ones((5, 2)), ["e1", "x2"])
    with pytest.raises(DataError, match="duplicate feature column 'x2'"):
        fuse_concat(a, b)
    assert fuse_concat(a, b, b_prefix="emb:").names == ["x1", "x2", "emb:e1", "emb:x2"]
