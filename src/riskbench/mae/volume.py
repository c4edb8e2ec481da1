"""Multi-contrast 3D volumes: file format and synthetic phantoms.

Volume file layout: magic "RBVL", version u32, rank u32, dims u32 each,
then float32 little-endian voxels in row-major order.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..errors import DataError

MAGIC = b"RBVL"
VERSION = 1


@dataclass
class Volume4D:
    """(X, Y, Z, C) float32 voxels normalized to [0, 1]."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 4:
            raise DataError(f"volume must be 4-D (X, Y, Z, C), got {self.data.shape}")
        if min(self.data.shape) < 1:
            raise DataError(f"volume dims must be positive, got {self.data.shape}")
        if self.data.size and not (self.data.min() >= 0.0 and self.data.max() <= 1.0):
            raise DataError("voxel values must lie in [0, 1]")

    @property
    def dims(self) -> tuple:
        return self.data.shape


def save_volume(vol: Volume4D, path) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", vol.data.ndim))
        for dim in vol.data.shape:
            fh.write(struct.pack("<I", dim))
        fh.write(np.ascontiguousarray(vol.data, dtype="<f4").tobytes(order="C"))


def load_volume(path) -> Volume4D:
    """The volume in file `path`. Its voxels are a view of the one buffer the
    file is read into, so loading holds one copy of them, not two."""
    try:
        with open(path, "rb") as fh:
            blob = bytearray(os.fstat(fh.fileno()).st_size)
            del blob[fh.readinto(blob):]  # a file that shrank since fstat reads short
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    if blob[:4] != MAGIC:
        raise DataError(f"{path}: not a volume file (bad magic {bytes(blob[:4])!r})")
    try:  # a short file raises struct.error or ValueError
        version, rank = struct.unpack_from("<2I", blob, 4)
        if version != VERSION:
            raise DataError(f"unsupported volume version {version}")
        dims = struct.unpack_from(f"<{rank}I", blob, 12)
        count = int(np.prod(dims))
        voxels = np.frombuffer(blob, dtype="<f4", count=count, offset=12 + 4 * rank)
        return Volume4D(voxels.reshape(dims))
    except (DataError, struct.error, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def make_phantoms(n: int, dims: tuple = (60, 40, 40, 2), seed: int = 0) -> list[Volume4D]:
    """The phantoms of `iter_phantoms` as a list."""
    return list(iter_phantoms(n, dims, seed))


def iter_phantoms(n: int, dims: tuple = (60, 40, 40, 2), seed: int = 0) -> Iterator[Volume4D]:
    """Random two-contrast ellipsoid phantoms, made one at a time.

    A body ellipsoid with anticorrelated intensities across the two
    contrasts, an inner blob with its own contrast shift, and mild noise.
    Deterministic per seed.
    """
    if len(dims) != 4 or dims[3] < 1:
        raise DataError(f"expected (X, Y, Z, C) dims, got {dims}")
    rng = np.random.default_rng(seed)
    x, y, z, c = dims
    axes = [np.arange(size, dtype=np.float64) for size in (x, y, z)]

    def ellipsoid(center, semi):
        """Voxels with (dx^2 + dy^2) + dz^2 <= 1, from three broadcast 1-D axes."""
        dx, dy, dz = (((a - m) / s) ** 2 for a, m, s in zip(axes, center, semi))
        return (dx[:, None, None] + dy[None, :, None]) + dz[None, None, :] <= 1.0

    for _ in range(n):
        center = np.array([x, y, z]) * rng.uniform(0.42, 0.58, size=3)
        semi = np.array([x, y, z]) * rng.uniform(0.24, 0.36, size=3)
        body = ellipsoid(center, semi)
        organ_center = center + semi * rng.uniform(-0.3, 0.3, size=3)
        organ_semi = semi * rng.uniform(0.25, 0.4, size=3)
        organ = ellipsoid(organ_center, organ_semi)
        base = rng.uniform(0.45, 0.75)
        vol = np.zeros(dims, dtype=np.float64)
        contrasts = [base, 1.1 - base]  # anticorrelated "water"/"fat"
        shift = rng.uniform(0.1, 0.2)
        for ci in range(min(c, 2)):
            vol[..., ci][body] = contrasts[ci]
            vol[..., ci][organ] = contrasts[ci] + (shift if ci == 0 else -shift)
        for ci in range(2, c):
            vol[..., ci][body] = base
        vol += rng.normal(0.0, 0.02, size=dims)
        yield Volume4D(np.clip(vol, 0.0, 1.0).astype(np.float32))
