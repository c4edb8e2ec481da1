"""Parameter checkpoint file.

Layout: magic bytes "RBCK", version u32, then one record per parameter:
name-length u32, utf-8 name, shape-rank u32, dims u32 each, f64
little-endian payload in row-major order. Records run to end of file.
A model's own settings travel beside it in a JSON sidecar, `<path>.json`.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from ..errors import DataError
from .tensor import ParamGraph, ShapeError

MAGIC = b"RBCK"
VERSION = 1


def save_checkpoint(path, arrays: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        for name, arr in arrays.items():
            # asarray, not ascontiguousarray: the latter promotes 0-d to 1-d
            data = np.asarray(arr, dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", data.ndim))
            for dim in data.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(data.tobytes(order="C"))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Every record of a checkpoint file, by name.

    Raises DataError on bad magic, an unknown version, a record cut short
    or a name that is not utf-8. A file cut exactly between records reads
    as a shorter checkpoint; `restore_checkpoint` then reports the
    parameters it lacks.
    """
    blob = Path(path).read_bytes()
    if blob[:4] != MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic {blob[:4]!r})")
    offset = 4

    def take(size: int, what: str) -> bytes:
        nonlocal offset
        if offset + size > len(blob):
            raise DataError(f"{path}: truncated {what} at byte {offset}")
        offset += size
        return blob[offset - size : offset]

    (version,) = struct.unpack("<I", take(4, "header"))
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    arrays: dict[str, np.ndarray] = {}
    while offset < len(blob):
        (name_len,) = struct.unpack("<I", take(4, "record"))
        try:
            name = take(name_len, "record name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: record name is not utf-8 ({exc})") from exc
        (rank,) = struct.unpack("<I", take(4, f"record {name!r}"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"record {name!r}"))
        payload = take(8 * math.prod(dims), f"record {name!r}")
        arrays[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).astype(np.float64)
    return arrays


def restore_checkpoint(graph: ParamGraph, path) -> None:
    """Load a checkpoint file into every parameter of `graph`.

    A parameter missing from the file or stored with another shape raises
    DataError.
    """
    try:
        graph.load_arrays(load_checkpoint(path))
    except (KeyError, ShapeError) as exc:
        raise DataError(f"{path}: {exc.args[0]}") from exc


def write_sidecar(path, doc: dict) -> None:
    """Write `doc` as the JSON sidecar `<path>.json` of a checkpoint."""
    Path(f"{path}.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                                    encoding="utf-8")


def read_sidecar(path) -> dict:
    """The JSON object in `<path>.json`; DataError if missing, not JSON or no object."""
    sidecar = Path(f"{path}.json")
    try:
        doc = json.loads(sidecar.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise DataError(f"{sidecar}: checkpoint sidecar not found") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{sidecar}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{sidecar}: not a JSON object")
    return doc
