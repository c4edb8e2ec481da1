import tempfile
import tracemalloc

import numpy as np
import pytest

from riskbench import gradcore as gc
from riskbench.errors import DataError, NumericError
from riskbench.gradcore import grad_check
from riskbench.mae import (
    MaeConfig,
    MaeModel,
    Volume4D,
    extract_embedding,
    foreground_flags,
    iter_phantoms,
    load_volume,
    make_phantoms,
    patchify,
    psnr,
    sample_mask,
    save_volume,
    sinusoidal_positions,
    train_mae,
    unpatchify,
)
from riskbench.seeds import child_seed

DESK = dict(embed_dim=64, enc_layers=2, dec_layers=1)


# -- patch decomposition -------------------------------------------------------


def test_patch_count_exact_fit():
    vol = make_phantoms(1, dims=(30, 20, 20, 2), seed=0)[0]
    grid = patchify(vol, (15, 10, 10))
    assert grid.n_patches == 16  # 2*2*2 blocks * 2 contrasts
    assert grid.values.shape == (16, 1500)


def test_round_trip_bit_exact():
    vol = make_phantoms(1, dims=(30, 20, 20, 2), seed=1)[0]
    assert np.array_equal(unpatchify(patchify(vol, (15, 10, 10))).data, vol.data)


def test_padded_round_trip():
    vol = make_phantoms(1, dims=(31, 20, 20, 2), seed=2)[0]
    grid = patchify(vol, (15, 10, 10))
    assert grid.grid_dims == (3, 2, 2, 2)
    assert grid.n_patches == 24
    assert np.array_equal(unpatchify(grid).data, vol.data)


def test_patch_larger_than_volume_errors():
    vol = Volume4D(np.zeros((8, 8, 8, 1), np.float32))
    with pytest.raises(DataError, match="larger than"):
        patchify(vol, (15, 10, 10))


def test_positions_unique_per_patch():
    vol = make_phantoms(1, dims=(45, 30, 20, 2), seed=3)[0]
    grid = patchify(vol, (15, 10, 10))
    assert len({tuple(p) for p in grid.positions}) == grid.n_patches


def test_positional_table_unique_and_shaped():
    vol = make_phantoms(1, dims=(45, 30, 20, 2), seed=4)[0]
    grid = patchify(vol, (15, 10, 10))
    table = sinusoidal_positions(grid.positions, 64)
    assert table.shape == (grid.n_patches, 64)
    assert len({tuple(np.round(r, 12)) for r in table}) == grid.n_patches


# -- foreground ---------------------------------------------------------------


def test_all_zero_volume_no_foreground():
    grid = patchify(Volume4D(np.zeros((30, 20, 20, 2), np.float32)), (15, 10, 10))
    assert not foreground_flags(grid).any()


def test_all_ones_volume_all_foreground():
    grid = patchify(Volume4D(np.ones((30, 20, 20, 2), np.float32)), (15, 10, 10))
    assert foreground_flags(grid).all()


def test_flags_match_direct_voxel_count():
    vol = make_phantoms(1, dims=(60, 40, 40, 2), seed=5)[0]
    grid = patchify(vol, (15, 10, 10))
    flags = foreground_flags(grid, threshold=0.05, min_fraction=0.10)
    # oracle: count bright voxels per spatial block directly on the volume
    data = vol.data
    gx, gy, gz, c = grid.grid_dims
    for bx in range(gx):
        for by in range(gy):
            for bz in range(gz):
                block = data[bx * 15:(bx + 1) * 15, by * 10:(by + 1) * 10,
                             bz * 10:(bz + 1) * 10, :]
                padded = np.zeros((15, 10, 10, c), np.float32)
                padded[: block.shape[0], : block.shape[1], : block.shape[2]] = block
                frac = (padded.max(axis=-1) > 0.05).mean()
                expect = frac >= 0.10
                for ci in range(c):
                    pid = ((bx * gy + by) * gz + bz) * c + ci
                    assert flags[pid] == expect


def test_phantom_foreground_fraction_in_range():
    for i, vol in enumerate(make_phantoms(10, seed=6)):
        frac = foreground_flags(patchify(vol, (15, 10, 10))).mean()
        assert 0.05 <= frac <= 0.60, (i, frac)


# -- masking ---------------------------------------------------------------------


def test_mask_count_exact():
    flags = np.zeros(40, dtype=bool)
    flags[:10] = True
    plan = sample_mask(flags, 0.70, seed=1)
    assert plan.masked.size == 7
    assert plan.visible.size == 3


@pytest.mark.parametrize("ratio", [0.0, 0.3, 0.7, 1.0])
def test_mask_count_rounds_for_all_ratios(ratio):
    rng = np.random.default_rng(2)
    for _ in range(20):
        flags = rng.random(60) < 0.5
        if not flags.any():
            flags[0] = True
        plan = sample_mask(flags, ratio, seed=3)
        f = int(flags.sum())
        assert plan.masked.size == round(ratio * f)
        assert plan.visible.size == f - plan.masked.size
        merged = np.sort(np.concatenate([plan.visible, plan.masked]))
        assert np.array_equal(merged, np.nonzero(flags)[0])
        want = np.setdiff1d(np.nonzero(flags)[0], plan.masked)
        assert plan.visible.dtype == want.dtype
        assert plan.visible.tobytes() == want.tobytes()


def test_mask_deterministic_per_seed():
    flags = np.ones(30, dtype=bool)
    a = sample_mask(flags, 0.7, seed=9)
    b = sample_mask(flags, 0.7, seed=9)
    assert np.array_equal(a.masked, b.masked)


def test_mask_frequency_over_seeds():
    flags = np.ones(20, dtype=bool)
    hits = np.zeros(20)
    n_seeds = 1000
    for s in range(n_seeds):
        hits[sample_mask(flags, 0.7, seed=s).masked] += 1
    freq = hits / n_seeds
    assert np.all(np.abs(freq - 0.7) < 0.05)


def test_mask_requires_foreground():
    with pytest.raises(DataError, match="foreground"):
        sample_mask(np.zeros(10, dtype=bool), 0.7, seed=0)


# -- forward / loss -----------------------------------------------------------------


def _small_setup(seed=0, dims=(30, 20, 20, 2)):
    vol = make_phantoms(1, dims=dims, seed=seed)[0]
    grid = patchify(vol, (15, 10, 10))
    flags = foreground_flags(grid)
    return vol, grid, flags


def test_zero_masked_patches_warns_and_zero_loss():
    _, grid, flags = _small_setup(7)
    plan = sample_mask(flags, 0.0, seed=0)
    model = MaeModel(MaeConfig(embed_dim=32, enc_layers=1, dec_layers=1))
    with pytest.warns(UserWarning, match="zero masked"):
        _, loss = model.forward(grid, plan)
    assert loss.item() == 0.0


def test_untrained_loss_near_masked_second_moment():
    _, grid, flags = _small_setup(8, dims=(60, 40, 40, 2))
    plan = sample_mask(flags, 0.7, seed=1)
    model = MaeModel(MaeConfig(**DESK))
    _, loss = model.forward(grid, plan)
    var = grid.values[plan.masked].astype(np.float64).var()
    assert var / 3.0 <= loss.item() <= var * 3.0


def test_encoder_blind_to_masked_content():
    _, grid, flags = _small_setup(9, dims=(60, 40, 40, 2))
    plan = sample_mask(flags, 0.7, seed=2)
    model = MaeModel(MaeConfig(embed_dim=32, enc_layers=1, dec_layers=1))
    pred, _ = model.forward(grid, plan)
    poisoned = patchify(unpatchify(grid), grid.patch_size)
    poisoned.values = grid.values.copy()
    poisoned.values[plan.masked] = 1e6  # sentinel garbage
    pred_poisoned, _ = model.forward(poisoned, plan)
    assert np.array_equal(pred.data, pred_poisoned.data)
    # loss against the *original* targets is therefore unchanged too
    orig_targets = grid.values[plan.masked].astype(np.float64)
    manual = float(np.mean((pred_poisoned.data - orig_targets) ** 2))
    _, loss = model.forward(grid, plan)
    assert abs(manual - loss.item()) < 1e-12


def test_mae_loss_gradients_match_finite_differences():
    vol = make_phantoms(1, dims=(30, 20, 10, 2), seed=10)[0]
    grid = patchify(vol, (15, 10, 10))  # 8 patches
    flags = np.ones(grid.n_patches, dtype=bool)
    plan = sample_mask(flags, 0.5, seed=3)
    model = MaeModel(MaeConfig(embed_dim=8, enc_layers=1, dec_layers=1, heads=2,
                               mlp_ratio=2), seed=4)

    def loss_fn():
        return model.forward(grid, plan)[1]

    rng = np.random.default_rng(0)
    report = grad_check(lambda: (model.graph, loss_fn), tolerance=1e-4,
                        max_entries_per_param=40, rng=rng)
    assert report.passed, str(report)


def _selector_forward(model, grid, plan, full_decode=False):
    """MaeModel.forward with the masked rows picked by a 0/1 selector matmul,
    from the normed decoder tokens, or with `full_decode` from the
    un-embedding of every row, as forward did before it un-embedded only
    the masked rows."""
    enc = model.encode(grid, plan.visible)
    n_masked = plan.masked.size
    mask_rep = gc.mul(gc.Tensor(np.ones((n_masked, 1))), model.mask_token)
    order = np.concatenate([plan.visible, plan.masked])
    pos = sinusoidal_positions(grid.positions[order], model.config.embed_dim)
    x = gc.concat([enc, mask_rep], axis=0) + gc.Tensor(pos)
    for block in model.dec_blocks:
        x = block(x)
    sel = np.zeros((n_masked, len(order)))
    sel[np.arange(n_masked), np.arange(len(order) - n_masked, len(order))] = 1.0
    if full_decode:
        pred_masked = gc.Tensor(sel) @ model.unembed(model.dec_norm(x))
    else:
        pred_masked = model.unembed(gc.Tensor(sel) @ model.dec_norm(x))
    diff = gc.sub(pred_masked, gc.Tensor(grid.values[plan.masked].astype(np.float64)))
    return pred_masked, gc.tmean(gc.mul(diff, diff))


def test_forward_bit_equal_to_selector_matrix_form():
    _, grid, flags = _small_setup(11)
    plan = sample_mask(flags, 0.7, seed=4)
    model = MaeModel(MaeConfig(embed_dim=16, enc_layers=1, dec_layers=1, heads=2), seed=5)
    results = []
    for forward in (model.forward, lambda g, p: _selector_forward(model, g, p)):
        model.graph.zero_grad()
        pred, loss = forward(grid, plan)
        loss.backward()
        results.append((pred.data.copy(), loss.item(),
                        {name: t.grad.copy() for name, t in model.graph.params.items()}))
    (pred, loss, grads), (ref_pred, ref_loss, ref_grads) = results
    assert np.array_equal(pred, ref_pred) and loss == ref_loss
    for name, grad in ref_grads.items():
        assert np.array_equal(grads[name], grad), name
    assert np.any(ref_grads["mask_token"] != 0.0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_forward_unembeds_only_the_masked_rows(monkeypatch, seed):
    vol = make_phantoms(1, dims=(60, 40, 40, 2), seed=seed)[0]
    grid = patchify(vol, (15, 10, 10))
    plan = sample_mask(foreground_flags(grid), 0.7, seed=seed)
    model = MaeModel(MaeConfig(), seed=seed)
    rows = []
    unembed = model.unembed
    monkeypatch.setattr(model, "unembed", lambda x: rows.append(x.shape[0]) or unembed(x))
    pred, loss = model.forward(grid, plan)
    assert rows == [plan.masked.size] and pred.shape == (plan.masked.size, 1500)
    ref_pred, ref_loss = _selector_forward(model, grid, plan, full_decode=True)
    assert rows[1:] == [len(plan.visible) + plan.masked.size]
    assert abs(loss.item() - ref_loss.item()) <= 1e-12
    assert np.max(np.abs(pred.data - ref_pred.data)) <= 1e-12


# -- training ------------------------------------------------------------------------


def test_training_halves_masked_mse_within_200_steps():
    vols = make_phantoms(50, seed=101)
    cfg = MaeConfig(epochs=4, lr=1e-4, **DESK)  # 50 volumes * 4 epochs = 200 steps
    model, hist = train_mae(vols, cfg, seed=1)
    assert len(hist.step_losses) == 200
    first = hist.step_losses[0]
    settled = float(np.mean(hist.step_losses[-10:]))
    assert settled <= 0.5 * first, (first, settled)


def test_training_deterministic_per_seed():
    vols = make_phantoms(6, dims=(30, 20, 20, 2), seed=11)
    cfg = MaeConfig(embed_dim=32, enc_layers=1, dec_layers=1, epochs=3)
    h1 = train_mae(vols, cfg, seed=5)[1]
    h2 = train_mae(vols, cfg, seed=5)[1]
    assert h1.step_losses == h2.step_losses


def test_training_empty_dataset_errors():
    with pytest.raises(DataError, match="at least one"):
        train_mae([], MaeConfig(), seed=0)


TINY = dict(embed_dim=8, enc_layers=1, dec_layers=1, heads=2, mlp_ratio=2)


def _param_copies(graph):
    """A copy of every parameter of `graph`, by name."""
    return {name: t.data.copy() for name, t in graph.params.items()}


def _full_grid_train(vols, cfg, seed):
    """The training loop over whole patch grids and full-flag mask plans
    that `train_mae` replaced, kept as its reference."""
    model = MaeModel(cfg, seed=seed)
    grids = [patchify(v, cfg.patch_size) for v in vols]
    flags = [foreground_flags(g, cfg.threshold, cfg.min_fraction) for g in grids]
    adam = gc.AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    drop_rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), 0xD0)))
    steps = []
    for epoch in range(cfg.epochs):
        for vi, (grid, flag) in enumerate(zip(grids, flags)):
            plan = sample_mask(flag, cfg.mask_ratio, seed=child_seed(seed, epoch, vi))
            _, loss = model.forward(grid, plan, rng=drop_rng, training=True)
            steps.append(loss.item())
            loss.backward()
            gc.adam_step(adam, model.graph)
    return model, steps


def test_train_mae_on_a_one_shot_generator_matches_list_and_full_grid_loop():
    dims = (30, 20, 20, 2)
    cfg = MaeConfig(embed_dim=16, enc_layers=1, dec_layers=1, heads=2, epochs=2, dropout=0.1)
    model_a, hist_a = train_mae(make_phantoms(5, dims=dims, seed=25), cfg, seed=6)
    model_b, hist_b = train_mae(iter_phantoms(5, dims=dims, seed=25), cfg, seed=6)
    model_r, steps_r = _full_grid_train(make_phantoms(5, dims=dims, seed=25), cfg, seed=6)
    assert hist_a == hist_b and hist_b.step_losses == steps_r and len(steps_r) == 10
    arrays = _param_copies(model_b.graph)
    for model in (model_a, model_r):
        for name, t in model.graph.params.items():
            assert np.array_equal(arrays[name], t.data), name


@pytest.mark.parametrize("seed", range(4))
def test_foreground_rank_plans_map_to_full_flag_plans(seed):
    """A plan drawn over all-true flags of length F picks, by foreground
    rank, the patches `sample_mask` picks over the volume's full flags."""
    rng = np.random.default_rng(seed)
    for vol in make_phantoms(3, seed=40 + seed):
        flags = foreground_flags(patchify(vol))
        fg = np.nonzero(flags)[0]
        for ratio in (0.0, 0.3, 0.7, 0.95):
            plan_seed = int(rng.integers(2**62))
            full = sample_mask(flags, ratio, seed=plan_seed)
            local = sample_mask(np.ones(fg.size, dtype=bool), ratio, seed=plan_seed)
            assert np.array_equal(fg[local.visible], full.visible)
            assert np.array_equal(fg[local.masked], full.masked)


def test_cached_position_rows_equal_per_step_tables():
    model = MaeModel(MaeConfig(embed_dim=64, enc_layers=0, dec_layers=0))
    for vol in make_phantoms(6, seed=31):
        grid = patchify(vol)
        fg = np.nonzero(foreground_flags(grid))[0]
        rows = model.rows(grid, fg)
        assert np.array_equal(rows.values, grid.values[fg])
        for plan_seed in range(5):
            plan = sample_mask(np.ones(fg.size, dtype=bool), 0.7, seed=plan_seed)
            for ids in (plan.visible, np.concatenate([plan.visible, plan.masked])):
                assert np.array_equal(rows.pos[ids],
                                      sinusoidal_positions(grid.positions[fg[ids]], 64))


def test_forward_on_foreground_rows_bit_equal_to_full_grid():
    _, grid, flags = _small_setup(26, dims=(60, 40, 40, 2))
    fg = np.nonzero(flags)[0]
    model = MaeModel(MaeConfig(embed_dim=16, enc_layers=1, dec_layers=1, heads=2), seed=7)
    cases = [(grid, sample_mask(flags, 0.7, seed=5)),
             (model.rows(grid, fg), sample_mask(np.ones(fg.size, dtype=bool), 0.7, seed=5))]
    results = []
    for data, plan in cases:
        model.graph.zero_grad()
        pred, loss = model.forward(data, plan)
        loss.backward()
        results.append((pred.data.copy(), loss.item(),
                        {name: t.grad.copy() for name, t in model.graph.params.items()}))
    (pred, loss, grads), (ref_pred, ref_loss, ref_grads) = results
    assert np.array_equal(pred, ref_pred) and loss == ref_loss
    for name, grad in ref_grads.items():
        assert np.array_equal(grads[name], grad), name


def test_volume_without_foreground_fails_before_the_first_step(monkeypatch):
    vols = make_phantoms(3, dims=(30, 20, 20, 2), seed=24)
    vols.insert(2, Volume4D(np.zeros((30, 20, 20, 2), np.float32)))
    steps = []
    forward = MaeModel.forward
    monkeypatch.setattr(MaeModel, "forward",
                        lambda self, *args, **kw: steps.append(1) or forward(self, *args, **kw))
    with pytest.raises(DataError, match="volume 2: .*foreground"):
        train_mae(vols, MaeConfig(epochs=1, **TINY), seed=0)
    assert steps == []


def test_train_mae_leaves_no_file_in_the_temporary_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    vols = make_phantoms(2, dims=(30, 20, 20, 2), seed=24)
    train_mae(vols, MaeConfig(epochs=2, **TINY), seed=0)
    assert list(tmp_path.iterdir()) == []
    vols.append(Volume4D(np.zeros((30, 20, 20, 2), np.float32)))
    with pytest.raises(DataError, match="volume 2: .*foreground"):
        train_mae(vols, MaeConfig(epochs=1, **TINY), seed=0)
    assert list(tmp_path.iterdir()) == []


def test_train_mae_memory_does_not_grow_with_the_volume_count():
    """From 4 to 12 streamed phantoms the traced peak grows by at most one
    volume's foreground rows: the rows wait in a temporary file, not in
    memory, and each step reads one volume's back."""
    dims = (60, 40, 40, 2)
    cfg = MaeConfig(epochs=1, **TINY)

    def traced_peak(n):
        tracemalloc.start()
        try:
            train_mae(iter_phantoms(n, dims=dims, seed=23), cfg, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    model = MaeModel(cfg)
    added = []
    for vol in make_phantoms(12, dims=dims, seed=23)[4:]:
        grid = patchify(vol, cfg.patch_size)
        rows = model.rows(grid, np.nonzero(foreground_flags(grid))[0])
        added.append(rows.values.nbytes + rows.pos.nbytes)
    assert sum(added) > 4 * max(added)  # the bound below can tell them apart
    traced_peak(1)  # one-time allocations stay out of the comparison
    growth = traced_peak(12) - traced_peak(4)
    assert growth <= max(added), (growth, added)


def test_mae_model_is_packed_when_built():
    model = MaeModel(MaeConfig(**TINY), seed=3)
    arrays = [(t.data, t.grad) for t in model.graph.params.values()]
    data, grad = model.graph.flat()
    for (before_data, before_grad), t in zip(arrays, model.graph.params.values()):
        assert t.data is before_data and t.grad is before_grad
        assert t.data.base is data and t.grad.base is grad
    again = model.graph.flat()
    assert again[0] is data and again[1] is grad


def test_train_mae_makes_no_parameter_copy(monkeypatch):
    vols = make_phantoms(3, dims=(30, 20, 20, 2), seed=26)
    cfg = MaeConfig(epochs=2, **TINY)
    _, expected = train_mae(vols, cfg, seed=4)

    def copy_refused(self, *args):
        raise AssertionError("train_mae copied its parameters")

    monkeypatch.setattr(gc.ParamGraph, "load_arrays", copy_refused)
    _, history = train_mae(vols, cfg, seed=4)
    assert history == expected


def test_non_finite_mae_loss_raises_naming_epoch_and_volume(monkeypatch):
    vols = make_phantoms(3, dims=(30, 20, 20, 2), seed=27)
    forward, calls = MaeModel.forward, []

    def nan_at_fifth_step(self, *args, **kw):
        pred, loss = forward(self, *args, **kw)
        calls.append(1)
        return pred, (loss * np.nan if len(calls) == 5 else loss)

    monkeypatch.setattr(MaeModel, "forward", nan_at_fifth_step)
    with pytest.raises(NumericError) as info:
        train_mae(vols, MaeConfig(epochs=2, **TINY), seed=0)
    assert str(info.value) == "mae: non-finite loss at epoch 1, volume 1"
    diagnostics = info.value.diagnostics
    assert (diagnostics["epoch"], diagnostics["volume"]) == (1, 1)
    assert len(diagnostics["history"]) == 1 and np.isfinite(diagnostics["history"][0])


# -- embeddings ------------------------------------------------------------------------


def test_embedding_deterministic_and_sized():
    vols = make_phantoms(2, dims=(30, 20, 20, 2), seed=12)
    model = MaeModel(MaeConfig(embed_dim=48, enc_layers=1, dec_layers=1))
    e1 = extract_embedding(model, vols[0])
    e2 = extract_embedding(model, vols[0])
    assert e1.shape == (48,)
    assert np.array_equal(e1, e2)


def test_embeddings_distinguish_phantom_sizes():
    sm = np.zeros((30, 20, 20, 2), np.float32)
    bg = np.zeros((30, 20, 20, 2), np.float32)
    sm[8:22, 4:16, 4:16, :] = 0.6
    bg[3:27, 2:18, 2:18, :] = 0.6
    small, big = Volume4D(sm), Volume4D(bg)
    model = MaeModel(MaeConfig(embed_dim=32, enc_layers=1, dec_layers=1))
    a = extract_embedding(model, small)
    b = extract_embedding(model, big)
    cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
    assert cos < 1.0 - 1e-9


def test_embedding_zero_foreground_errors():
    model = MaeModel(MaeConfig(embed_dim=32, enc_layers=1, dec_layers=1))
    empty = Volume4D(np.zeros((30, 20, 20, 2), np.float32))
    with pytest.raises(DataError, match="foreground"):
        extract_embedding(model, empty)


# -- psnr ----------------------------------------------------------------------------------


def test_psnr_identical_capped():
    a = np.random.default_rng(1).random((5, 5, 5, 2))
    assert psnr(a, a) == 100.0


def test_psnr_closed_forms():
    a = np.zeros((6, 6, 6, 1))
    b = np.full((6, 6, 6, 1), 0.1)
    assert abs(psnr(b, a) - 20.0) < 1e-9
    c = np.zeros((4, 4, 4, 1))
    c[0, 0, 0, 0] = 1.0  # MSE = 1/64
    assert abs(psnr(c, np.zeros_like(c)) - 10 * np.log10(64)) < 1e-9


def test_psnr_region_restriction():
    a = np.zeros((4, 4, 4, 1))
    b = a.copy()
    b[2:, :, :, :] = 0.5
    region = np.zeros_like(a, dtype=bool)
    region[:2] = True  # error-free half
    assert psnr(b, a, region=region) == 100.0
    assert psnr(b, a) < 100.0


# -- phantoms / volume io ----------------------------------------------------------------


def test_make_phantoms_count_and_range():
    assert make_phantoms(0, seed=0) == []
    vols = make_phantoms(3, dims=(30, 20, 20, 2), seed=14)
    for v in vols:
        assert v.data.min() >= 0.0 and v.data.max() <= 1.0
        assert v.data.dtype == np.float32


def test_iter_phantoms_is_lazy_and_matches_make_phantoms():
    dims = (25, 18, 21, 3)
    stream = iter_phantoms(4, dims=dims, seed=22)
    assert iter(stream) is stream  # an iterator, not a list
    for vol, ref in zip(stream, make_phantoms(4, dims=dims, seed=22), strict=True):
        assert vol.data.tobytes() == ref.data.tobytes()


def test_iter_phantoms_holds_no_float64_volume_across_yield():
    make_phantoms(1, dims=(4, 4, 4, 1))  # lazy imports stay out of the count
    tracemalloc.start()
    try:
        stream = iter_phantoms(2, dims=(60, 40, 40, 2), seed=22)
        vol = next(stream)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # the float32 phantom and two boolean masks; a float64 copy of the
    # voxels would add twice the phantom's bytes
    assert held < 2 * vol.data.nbytes, (held, vol.data.nbytes)


def test_phantoms_deterministic():
    a = make_phantoms(2, dims=(30, 20, 20, 2), seed=15)
    b = make_phantoms(2, dims=(30, 20, 20, 2), seed=15)
    for va, vb in zip(a, b):
        assert np.array_equal(va.data, vb.data)


def _meshgrid_phantoms(n, dims, seed):
    """The (X, Y, Z, 3) meshgrid form of `make_phantoms`, kept as its reference."""
    rng = np.random.default_rng(seed)
    x, y, z, c = dims
    grid = np.stack(np.meshgrid(np.arange(x), np.arange(y), np.arange(z),
                                indexing="ij"), axis=-1).astype(np.float64)
    out = []
    for _ in range(n):
        center = np.array([x, y, z]) * rng.uniform(0.42, 0.58, size=3)
        semi = np.array([x, y, z]) * rng.uniform(0.24, 0.36, size=3)
        body = np.sum(((grid - center) / semi) ** 2, axis=-1) <= 1.0
        organ_center = center + semi * rng.uniform(-0.3, 0.3, size=3)
        organ_semi = semi * rng.uniform(0.25, 0.4, size=3)
        organ = np.sum(((grid - organ_center) / organ_semi) ** 2, axis=-1) <= 1.0
        base = rng.uniform(0.45, 0.75)
        vol = np.zeros(dims, dtype=np.float64)
        contrasts = [base, 1.1 - base]
        shift = rng.uniform(0.1, 0.2)
        for ci in range(min(c, 2)):
            vol[..., ci][body] = contrasts[ci]
            vol[..., ci][organ] = contrasts[ci] + (shift if ci == 0 else -shift)
        for ci in range(2, c):
            vol[..., ci][body] = base
        vol += rng.normal(0.0, 0.02, size=dims)
        out.append(np.clip(vol, 0.0, 1.0).astype(np.float32))
    return out


@pytest.mark.parametrize("dims", [(31, 20, 20, 2), (30, 20, 20, 1), (25, 18, 21, 3)])
def test_phantoms_match_meshgrid_reference(dims):
    got = make_phantoms(4, dims=dims, seed=21)
    want = _meshgrid_phantoms(4, dims, seed=21)
    for vol, ref in zip(got, want):
        assert vol.data.tobytes() == ref.tobytes()


def test_volume_file_round_trip(tmp_path):
    vol = make_phantoms(1, dims=(20, 15, 10, 2), seed=16)[0]
    path = tmp_path / "v.rbvl"
    save_volume(vol, path)
    assert path.read_bytes()[:4] == b"RBVL"
    back = load_volume(path)
    assert np.array_equal(back.data, vol.data)


@pytest.mark.parametrize("damage, message", [
    (lambda blob: blob[:-4], "smaller than"),
    (lambda blob: blob[:10], "requires a buffer"),
    (lambda blob: blob[:100] + np.float32(np.nan).tobytes() + blob[104:], r"\[0, 1\]"),
], ids=["truncated voxels", "truncated header", "NaN voxel"])
def test_damaged_volume_file_is_data_error_naming_path(tmp_path, damage, message):
    path = tmp_path / "v.rbvl"
    save_volume(make_phantoms(1, dims=(20, 15, 10, 2), seed=16)[0], path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(DataError, match=message) as info:
        load_volume(path)
    assert str(info.value).startswith(str(path))


def test_load_volume_holds_one_copy_of_the_voxels(tmp_path):
    vol = make_phantoms(1, dims=(60, 40, 40, 2), seed=16)[0]
    path = tmp_path / "v.rbvl"
    save_volume(vol, path)
    tracemalloc.start()
    try:
        back = load_volume(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.data, vol.data)
    assert peak <= 1.25 * vol.data.nbytes, (peak, vol.data.nbytes)


def test_mae_checkpoint_round_trip(tmp_path):
    vols = make_phantoms(2, dims=(30, 20, 20, 2), seed=17)
    cfg = MaeConfig(embed_dim=32, enc_layers=1, dec_layers=1, epochs=1)
    model, _ = train_mae(vols, cfg, seed=3)
    path = tmp_path / "mae.rbck"
    model.save(path)
    again = MaeModel.load(path)
    e1 = extract_embedding(model, vols[0])
    e2 = extract_embedding(again, vols[0])
    assert np.array_equal(e1, e2)


def test_mae_checkpoint_written_from_the_parameters_bytes_unchanged(tmp_path):
    model, _ = train_mae(make_phantoms(2, dims=(30, 20, 20, 2), seed=18),
                         MaeConfig(epochs=1, **TINY), seed=3)
    gc.save_checkpoint(tmp_path / "copies.rbck", _param_copies(model.graph))
    model.save(tmp_path / "mae.rbck")
    assert (tmp_path / "mae.rbck").read_bytes() == (tmp_path / "copies.rbck").read_bytes()


def test_odd_embedding_dim_accepted():
    # odd widths split positional channels 3 * (d//4) + remainder
    model = MaeModel(MaeConfig(embed_dim=65, enc_layers=1, dec_layers=1, heads=5))
    vol = make_phantoms(1, dims=(30, 20, 20, 2), seed=19)[0]
    emb = extract_embedding(model, vol)
    assert emb.shape == (65,)
    table = sinusoidal_positions(np.array([[1, 2, 3, 0], [4, 5, 6, 1]]), 1025)
    assert table.shape == (2, 1025)
