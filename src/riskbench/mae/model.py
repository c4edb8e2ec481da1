"""Masked autoencoder over patch grids.

Visible foreground patches pass through a transformer encoder; the decoder
sees encoded tokens plus a learned mask token at every masked position
(all with sinusoidal 4D positions) and reconstructs patch voxels. The
loss is the MSE over masked foreground voxels only, so the encoder never
touches masked content.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..errors import DataError, NumericError
from ..gradcore import (
    AdamState,
    LayerNorm,
    Linear,
    ParamGraph,
    Tensor,
    TransformerBlock,
    adam_step,
    concat,
    mul,
    sub,
    tmean,
)
from ..gradcore.checkpoint import read_sidecar, restore_checkpoint, save_checkpoint, write_sidecar
from .patches import MaskPlan, PatchGrid, foreground_flags, patchify, sample_mask
from .volume import Volume4D

PSNR_CAP_DB = 100.0


def sinusoidal_positions(positions: np.ndarray, dim: int) -> np.ndarray:
    """4D sinusoidal table: three spatial index groups of dim//4 channels,
    the contrast group takes the remainder."""
    group = dim // 4
    sizes = [group, group, group, dim - 3 * group]
    out = np.zeros((positions.shape[0], dim))
    offset = 0
    for axis, g in enumerate(sizes):
        half = (g + 1) // 2
        freqs = np.power(10000.0, -2.0 * np.arange(half) / g)
        angles = positions[:, axis, None] * freqs[None, :]
        block = np.zeros((positions.shape[0], g))
        block[:, 0::2] = np.sin(angles)[:, : block[:, 0::2].shape[1]]
        block[:, 1::2] = np.cos(angles)[:, : block[:, 1::2].shape[1]]
        out[:, offset : offset + g] = block
        offset += g
    return out


@dataclass
class MaeConfig:
    embed_dim: int = 64
    enc_layers: int = 2
    dec_layers: int = 1
    heads: int = 4
    mlp_ratio: int = 4
    patch_size: tuple = (15, 10, 10)
    mask_ratio: float = 0.70
    lr: float = 1e-4
    weight_decay: float = 0.05
    epochs: int = 4
    dropout: float = 0.0
    threshold: float = 0.05
    min_fraction: float = 0.10


class MaeModel:
    def __init__(self, config: MaeConfig, seed: int = 0):
        self.config = config
        self.patch_voxels = int(np.prod(config.patch_size))
        self.graph = ParamGraph()
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), 0xAE)))
        d = config.embed_dim
        self.embed = Linear(self.graph, "embed", self.patch_voxels, d, rng)
        self.enc_blocks = [
            TransformerBlock(self.graph, f"enc{i}", d, rng, heads=config.heads,
                             mlp_ratio=config.mlp_ratio, drop=config.dropout)
            for i in range(config.enc_layers)
        ]
        self.enc_norm = LayerNorm(self.graph, "enc_norm", d)
        self.mask_token = self.graph.parameter(
            "mask_token", rng.normal(0.0, 0.02, size=(1, d)))
        self.dec_blocks = [
            TransformerBlock(self.graph, f"dec{i}", d, rng, heads=config.heads,
                             mlp_ratio=config.mlp_ratio, drop=config.dropout)
            for i in range(config.dec_layers)
        ]
        self.dec_norm = LayerNorm(self.graph, "dec_norm", d)
        self.unembed = Linear(self.graph, "unembed", d, self.patch_voxels, rng)
        # small initial reconstruction keeps the untrained loss near the
        # masked-voxel second moment
        self.unembed.w.data *= 0.1

    # -- passes ---------------------------------------------------------------

    def encode(self, grid: PatchGrid, patch_ids: np.ndarray,
               rng=None, training: bool = False) -> Tensor:
        """Encoder tokens for the given patches (no masking logic here)."""
        pos = sinusoidal_positions(grid.positions[patch_ids], self.config.embed_dim)
        tokens = self.embed(Tensor(grid.values[patch_ids].astype(np.float64)))
        x = tokens + Tensor(pos)
        for block in self.enc_blocks:
            x = block(x, rng=rng, training=training)
        return self.enc_norm(x)

    def forward(self, grid: PatchGrid, plan: MaskPlan, rng=None,
                training: bool = False):
        """Returns (masked-patch reconstructions, MSE loss over them)."""
        if plan.masked.size == 0:
            warnings.warn("mask plan has zero masked patches; loss defined as 0",
                          stacklevel=2)
            return Tensor(np.zeros((0, self.patch_voxels))), Tensor(0.0)
        enc = self.encode(grid, plan.visible, rng=rng, training=training)
        n_masked = plan.masked.size
        mask_rep = mul(Tensor(np.ones((n_masked, 1))), self.mask_token)
        order = np.concatenate([plan.visible, plan.masked])
        pos = sinusoidal_positions(grid.positions[order], self.config.embed_dim)
        x = concat([enc, mask_rep], axis=0) + Tensor(pos)
        for block in self.dec_blocks:
            x = block(x, rng=rng, training=training)
        pred = self.unembed(self.dec_norm(x))
        pred_masked = _take_rows(pred, np.arange(len(order) - n_masked, len(order)))
        target = Tensor(grid.values[plan.masked].astype(np.float64))
        diff = sub(pred_masked, target)
        return pred_masked, tmean(mul(diff, diff))

    # -- persistence --------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        save_checkpoint(path, self.graph.named_arrays())
        write_sidecar(path, {"config": {**asdict(self.config),
                                        "patch_size": list(self.config.patch_size)}})

    @classmethod
    def load(cls, path: str | Path) -> "MaeModel":
        cfg = read_sidecar(path).get("config", {})
        if "patch_size" not in cfg:
            raise DataError(f"{path}: sidecar config has no patch_size")
        cfg["patch_size"] = tuple(cfg["patch_size"])
        model = cls(MaeConfig(**cfg))
        restore_checkpoint(model.graph, path)
        return model


def _take_rows(x: Tensor, rows: np.ndarray) -> Tensor:
    """Row selection as a taped matmul with a constant selector."""
    sel = np.zeros((rows.size, x.shape[0]))
    sel[np.arange(rows.size), rows] = 1.0
    return Tensor(sel) @ x


@dataclass
class MaeHistory:
    epoch_losses: list[float]
    step_losses: list[float]

    def to_json(self) -> dict:
        return {"epoch_losses": self.epoch_losses, "step_losses": self.step_losses}


def train_mae(volumes: list[Volume4D], config: MaeConfig, seed: int = 0):
    """Train on a list of volumes; one step per volume per epoch with a
    fresh seed-derived mask plan. Returns (model, history)."""
    if not volumes:
        raise DataError("train_mae needs at least one volume")
    model = MaeModel(config, seed=seed)
    grids = [patchify(v, config.patch_size) for v in volumes]
    flags = [foreground_flags(g, config.threshold, config.min_fraction)
             for g in grids]
    adam = AdamState(lr=config.lr, weight_decay=config.weight_decay)
    drop_rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), 0xD0)))
    losses: list[float] = []
    steps: list[float] = []
    last_good = model.graph.named_arrays()
    for epoch in range(config.epochs):
        epoch_losses = []
        for vi, (grid, flag) in enumerate(zip(grids, flags)):
            plan = sample_mask(flag, config.mask_ratio,
                               seed=_plan_seed(seed, epoch, vi))
            _, loss = model.forward(grid, plan, rng=drop_rng, training=True)
            value = loss.item()
            if not np.isfinite(value):
                model.graph.load_arrays(last_good)
                raise NumericError(
                    f"mae: non-finite loss at epoch {epoch}, volume {vi}; "
                    "restored last good parameters",
                    {"epoch": epoch, "volume": vi,
                     "history": losses})
            loss.backward()
            adam_step(adam, model.graph)
            epoch_losses.append(value)
            steps.append(value)
        losses.append(float(np.mean(epoch_losses)))
        last_good = model.graph.named_arrays()
    return model, MaeHistory(losses, steps)


def _plan_seed(seed: int, epoch: int, volume_idx: int) -> int:
    ss = np.random.SeedSequence(entropy=(int(seed), epoch, volume_idx))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


def extract_embedding(model: MaeModel, vol: Volume4D) -> np.ndarray:
    """Mean encoder token over all foreground patches, no masking."""
    grid = patchify(vol, model.config.patch_size)
    flags = foreground_flags(grid, model.config.threshold,
                             model.config.min_fraction)
    fg = np.nonzero(flags)[0]
    if fg.size == 0:
        raise DataError("volume has no foreground patches to embed")
    tokens = model.encode(grid, fg)
    return tokens.data.mean(axis=0).copy()


def psnr(reconstruction: np.ndarray, original: np.ndarray,
         region: np.ndarray | None = None) -> float:
    """10*log10(MAX^2/MSE) with MAX = 1; identical inputs cap at 100 dB."""
    a = np.asarray(reconstruction, dtype=np.float64)
    b = np.asarray(original, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError(f"shape mismatch: {a.shape} vs {b.shape}")
    if region is not None:
        a, b = a[region], b[region]
    mse = float(np.mean((a - b) ** 2)) if a.size else 0.0
    if mse <= 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * np.log10(1.0 / mse))
