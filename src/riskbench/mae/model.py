"""Masked autoencoder over patch grids.

Visible foreground patches pass through a transformer encoder; the decoder
sees encoded tokens plus a learned mask token at every masked position
(all with sinusoidal 4D positions) and reconstructs the masked patches'
voxels. The loss is the MSE over those voxels only, so the encoder never
touches masked content.
"""

from __future__ import annotations

import contextlib
import tempfile
import warnings
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
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
class PatchRows:
    """Chosen rows of a patch grid: float32 voxels (n, patch voxels) and
    their sinusoidal position table (n, embed_dim), row-aligned."""

    values: np.ndarray
    pos: np.ndarray


@dataclass
class MaeConfig:
    """Settings, bounded as in `models.BaseConfig`; `embed_dim` must be a multiple of `heads`."""

    embed_dim: int = field(default=64, metadata={"min": 1})
    enc_layers: int = field(default=2, metadata={"min": 0})
    dec_layers: int = field(default=1, metadata={"min": 0})
    heads: int = field(default=4, metadata={"min": 1})
    mlp_ratio: int = field(default=4, metadata={"min": 1})
    patch_size: tuple = field(default=(15, 10, 10),
                              metadata={"items": {"type": "int", "min": 1}, "len": 3})
    mask_ratio: float = field(default=0.70, metadata={"min": 0, "below": 1})
    lr: float = field(default=1e-4, metadata={"positive": True})
    weight_decay: float = field(default=0.05, metadata={"min": 0})
    epochs: int = field(default=4, metadata={"min": 1})
    dropout: float = field(default=0.0, metadata={"min": 0, "below": 1})
    threshold: float = field(default=0.05, metadata={"min": 0, "max": 1})
    min_fraction: float = field(default=0.10, metadata={"min": 0, "max": 1})


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
        self.graph.flat()

    # -- passes ---------------------------------------------------------------

    def rows(self, grid: PatchGrid | PatchRows, patch_ids=slice(None)) -> PatchRows:
        """`grid`'s rows `patch_ids` with their position table; a PatchRows
        passes through whole."""
        if isinstance(grid, PatchRows):
            return grid
        return PatchRows(grid.values[patch_ids], sinusoidal_positions(
            grid.positions[patch_ids], self.config.embed_dim))

    def encode(self, grid: PatchGrid | PatchRows, patch_ids: np.ndarray,
               rng=None, training: bool = False) -> Tensor:
        """Encoder tokens for the given patches (no masking logic here)."""
        rows = self.rows(grid)
        tokens = self.embed(Tensor(rows.values[patch_ids].astype(np.float64)))
        x = tokens + Tensor(rows.pos[patch_ids])
        for block in self.enc_blocks:
            x = block(x, rng=rng, training=training)
        return self.enc_norm(x)

    def forward(self, grid: PatchGrid | PatchRows, plan: MaskPlan, rng=None,
                training: bool = False):
        """Returns (masked-patch reconstructions, MSE loss over them). The
        plan's ids index the rows of `grid`."""
        if plan.masked.size == 0:
            warnings.warn("mask plan has zero masked patches; loss defined as 0",
                          stacklevel=2)
            return Tensor(np.zeros((0, self.patch_voxels))), Tensor(0.0)
        rows = self.rows(grid)
        enc = self.encode(rows, plan.visible, rng=rng, training=training)
        mask_rep = mul(Tensor(np.ones((plan.masked.size, 1))), self.mask_token)
        order = np.concatenate([plan.visible, plan.masked])
        x = concat([enc, mask_rep], axis=0) + Tensor(rows.pos[order])
        for block in self.dec_blocks:
            x = block(x, rng=rng, training=training)
        # the loss reads only the masked rows, so only they are un-embedded
        pred_masked = self.unembed(self.dec_norm(x)[plan.visible.size :])
        target = Tensor(rows.values[plan.masked].astype(np.float64))
        diff = sub(pred_masked, target)
        return pred_masked, tmean(mul(diff, diff))

    # -- persistence --------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        save_checkpoint(path, {name: t.data for name, t in self.graph.params.items()})
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


@dataclass
class MaeHistory:
    epoch_losses: list[float]
    step_losses: list[float]

    def to_json(self) -> dict:
        return {"epoch_losses": self.epoch_losses, "step_losses": self.step_losses}


def train_mae(volumes: Iterable[Volume4D], config: MaeConfig, seed: int = 0):
    """Train on volumes read once, in order; one step per volume per epoch
    with a fresh seed-derived mask plan. Returns (model, history).

    Every volume is cut down to its foreground rows before the first step,
    so a bad volume raises DataError before any training. The rows go to
    one anonymous temporary file under `tempfile.gettempdir()` (`TMPDIR`),
    and each step reads one volume's rows back into one reused buffer, so
    memory does not grow with the number of volumes. The file has no name
    and is closed on every exit; an OSError on it is a DataError naming its
    directory.

    The model is packed when built, so the only parameter-sized arrays are
    its flat parameters and gradients and Adam's two moments. A non-finite
    loss raises NumericError naming the epoch and the volume; nothing is
    restored, since the model never reaches the caller."""
    model = MaeModel(config, seed=seed)
    with _RowSpill(config.embed_dim, model.patch_voxels) as spill:
        _spill_foreground_rows(model, volumes, spill)
        adam = AdamState(lr=config.lr, weight_decay=config.weight_decay)
        drop_rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), 0xD0)))
        losses: list[float] = []
        steps: list[float] = []
        for epoch in range(config.epochs):
            epoch_losses = []
            for vi in range(len(spill.records)):
                rows = spill.read(vi)
                # over all-foreground flags the plan draws the same patches as
                # over the volume's full flags, numbered by foreground rank
                plan = sample_mask(np.ones(len(rows.values), dtype=bool), config.mask_ratio,
                                   seed=_plan_seed(seed, epoch, vi))
                _, loss = model.forward(rows, plan, rng=drop_rng, training=True)
                value = loss.item()
                if not np.isfinite(value):
                    raise NumericError(f"mae: non-finite loss at epoch {epoch}, volume {vi}",
                                       {"epoch": epoch, "volume": vi, "history": losses})
                loss.backward()
                adam_step(adam, model.graph)
                epoch_losses.append(value)
                steps.append(value)
            losses.append(float(np.mean(epoch_losses)))
    return model, MaeHistory(losses, steps)


class _RowSpill:
    """PatchRows of many volumes in one anonymous temporary file, read back
    one volume at a time into one reused buffer. A record is the float64
    position table, then the float32 voxels, so both views are aligned."""

    def __init__(self, embed_dim: int, patch_voxels: int):
        self.widths = (embed_dim, patch_voxels)
        self.row_bytes = 8 * embed_dim + 4 * patch_voxels
        self.records: list[tuple[int, int]] = []  # (byte offset, rows) per volume
        self.buf = bytearray()
        self.file = self._io(tempfile.TemporaryFile)

    def __enter__(self) -> "_RowSpill":
        return self

    def __exit__(self, *exc_info) -> None:
        # after a failed write, close tries the buffered bytes again and raises
        # once more; the file is closed all the same, and its bytes are not wanted
        with contextlib.suppress(OSError):
            self.file.close()

    @staticmethod
    def _io(op, *args):
        try:
            return op(*args)
        except OSError as exc:
            raise DataError(f"cannot use a temporary file in {tempfile.gettempdir()}: "
                            f"{exc.strerror or exc}") from exc

    def append(self, rows: PatchRows) -> None:
        self.records.append((self.file.tell(), len(rows.values)))
        self._io(self.file.write, rows.pos)
        self._io(self.file.write, rows.values)

    def read(self, vi: int) -> PatchRows:
        """Volume `vi`'s rows, as views of the buffer the next read overwrites."""
        d, pv = self.widths
        if not self.buf:
            self.buf = bytearray(max(n for _, n in self.records) * self.row_bytes)
        offset, n = self.records[vi]
        self._io(self.file.seek, offset)
        self._io(self.file.readinto, memoryview(self.buf)[: n * self.row_bytes])
        pos = np.frombuffer(self.buf, np.float64, n * d).reshape(n, d)
        values = np.frombuffer(self.buf, np.float32, n * pv, offset=8 * n * d).reshape(n, pv)
        return PatchRows(values, pos)


def _spill_foreground_rows(model: MaeModel, volumes: Iterable[Volume4D],
                           spill: _RowSpill) -> None:
    """The checking pass: every volume cut to its foreground rows, which go to
    `spill`; a bad volume raises DataError naming its index. The last volume
    and its rows go when this returns, before the first step."""
    for vi, vol in enumerate(volumes):
        try:
            rows = _foreground_rows(model, vol)
        except DataError as exc:
            raise DataError(f"volume {vi}: {exc}") from exc
        spill.append(rows)
    if not spill.records:
        raise DataError("train_mae needs at least one volume")


def _plan_seed(seed: int, epoch: int, volume_idx: int) -> int:
    ss = np.random.SeedSequence(entropy=(int(seed), epoch, volume_idx))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


def _foreground_rows(model: MaeModel, vol: Volume4D) -> PatchRows:
    """The foreground patches of `vol`, copied out of its patch grid."""
    config = model.config
    grid = patchify(vol, config.patch_size)
    fg = np.nonzero(foreground_flags(grid, config.threshold, config.min_fraction))[0]
    if fg.size == 0:
        raise DataError("volume has no foreground patches")
    return model.rows(grid, fg)


def extract_embedding(model: MaeModel, vol: Volume4D) -> np.ndarray:
    """Mean encoder token over all foreground patches, no masking."""
    tokens = model.encode(_foreground_rows(model, vol), slice(None))
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
