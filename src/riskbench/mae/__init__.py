"""Masked autoencoder for dual-contrast 3D volumes."""

from .model import (
    MaeConfig,
    MaeHistory,
    MaeModel,
    PatchRows,
    extract_embedding,
    psnr,
    sinusoidal_positions,
    train_mae,
)
from .patches import MaskPlan, PatchGrid, foreground_flags, patchify, sample_mask, unpatchify
from .volume import Volume4D, iter_phantoms, load_volume, make_phantoms, save_volume

__all__ = [
    "MaeConfig",
    "MaeHistory",
    "MaeModel",
    "MaskPlan",
    "PatchGrid",
    "PatchRows",
    "Volume4D",
    "extract_embedding",
    "foreground_flags",
    "iter_phantoms",
    "load_volume",
    "make_phantoms",
    "patchify",
    "psnr",
    "sample_mask",
    "save_volume",
    "sinusoidal_positions",
    "train_mae",
    "unpatchify",
]
