"""Patch decomposition with 4D positions, foreground flags, mask sampling.

A volume is zero-padded up to patch multiples and cut into per-contrast
3D patches; each patch carries its (ix, iy, iz, contrast) index. Both
contrasts of a spatial block share one foreground decision, taken from
the per-voxel maximum over contrasts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from .volume import Volume4D


@dataclass
class PatchGrid:
    patch_size: tuple  # (px, py, pz)
    grid_dims: tuple  # (gx, gy, gz, C)
    orig_dims: tuple  # (X, Y, Z, C)
    values: np.ndarray  # (P, px*py*pz) float32, block-major, contrast-last
    positions: np.ndarray  # (P, 4) int

    @property
    def n_patches(self) -> int:
        return self.values.shape[0]

    @property
    def patch_voxels(self) -> int:
        return int(np.prod(self.patch_size))

    @property
    def n_blocks(self) -> int:
        gx, gy, gz, _ = self.grid_dims
        return gx * gy * gz


def patchify(vol: Volume4D, patch_size: tuple = (15, 10, 10)) -> PatchGrid:
    px, py, pz = patch_size
    if min(patch_size) < 1:
        raise DataError(f"patch dims must be positive, got {patch_size}")
    x, y, z, c = vol.dims
    if px > x or py > y or pz > z:
        raise DataError(f"patch {patch_size} larger than volume {vol.dims[:3]}")
    gx, gy, gz = -(-x // px), -(-y // py), -(-z // pz)
    padded = np.zeros((gx * px, gy * py, gz * pz, c), dtype=np.float32)
    padded[:x, :y, :z, :] = vol.data
    # (gx, px, gy, py, gz, pz, c) -> (gx, gy, gz, c, px, py, pz)
    blocks = padded.reshape(gx, px, gy, py, gz, pz, c)
    blocks = blocks.transpose(0, 2, 4, 6, 1, 3, 5)
    values = blocks.reshape(gx * gy * gz * c, px * py * pz)
    ix, iy, iz, ic = np.meshgrid(np.arange(gx), np.arange(gy), np.arange(gz),
                                 np.arange(c), indexing="ij")
    positions = np.stack([ix.ravel(), iy.ravel(), iz.ravel(), ic.ravel()], axis=1)
    return PatchGrid((px, py, pz), (gx, gy, gz, c), vol.dims, values, positions)


def unpatchify(grid: PatchGrid, values: np.ndarray | None = None) -> Volume4D:
    """Rebuild the volume (cropped to original dims) from patch values."""
    px, py, pz = grid.patch_size
    gx, gy, gz, c = grid.grid_dims
    x, y, z, _ = grid.orig_dims
    vals = grid.values if values is None else np.asarray(values, dtype=np.float32)
    blocks = vals.reshape(gx, gy, gz, c, px, py, pz)
    padded = blocks.transpose(0, 4, 1, 5, 2, 6, 3).reshape(gx * px, gy * py, gz * pz, c)
    return Volume4D(np.clip(padded[:x, :y, :z, :], 0.0, 1.0))


def foreground_flags(grid: PatchGrid, threshold: float = 0.05,
                     min_fraction: float = 0.10) -> np.ndarray:
    """Per-patch booleans; a spatial block is foreground when at least
    min_fraction of its voxels exceed threshold in any contrast."""
    if not 0.0 <= threshold <= 1.0:
        raise DataError(f"threshold must be in [0, 1], got {threshold}")
    c = grid.grid_dims[3]
    per_block = grid.values.reshape(grid.n_blocks, c, grid.patch_voxels)
    bright = per_block.max(axis=1) > threshold
    block_flags = bright.mean(axis=1) >= min_fraction
    return np.repeat(block_flags, c)


@dataclass
class MaskPlan:
    visible: np.ndarray  # sorted patch ids
    masked: np.ndarray  # sorted patch ids
    ratio: float
    seed: int


def sample_mask(flags: np.ndarray, ratio: float = 0.70, seed: int = 0) -> MaskPlan:
    """Uniform sample without replacement of round(ratio * F) foreground
    patches; background patches appear in neither list."""
    if not 0.0 <= ratio <= 1.0:
        raise DataError(f"mask ratio must be in [0, 1], got {ratio}")
    fg = np.nonzero(flags)[0]
    if fg.size == 0:
        raise DataError("no foreground patches to mask")
    n_masked = round(ratio * fg.size)  # ties round to even
    rng = np.random.default_rng(seed)
    masked = np.sort(rng.choice(fg, size=n_masked, replace=False))
    is_masked = np.zeros(flags.size, dtype=bool)
    is_masked[masked] = True
    visible = fg[~is_masked[fg]]  # np.setdiff1d(fg, masked) loads numpy.ma
    return MaskPlan(visible, masked, ratio, seed)
