"""Model files: a parameter checkpoint and its JSON sidecar.

Checkpoint layout: magic bytes "RBCK", version u32, then one record per
parameter: name-length u32, utf-8 name, shape-rank u32, dims u32 each, f64
little-endian payload in row-major order. Records run to end of file.
A model's own settings travel beside it in a JSON sidecar, `<path>.json`.
`save_model_files` writes the checkpoint, then the sidecar; `load_model_files`,
the one loader of every model, reads them in that order, each once.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from ..errors import DataError
from ..files import open_input, open_output, read_json_object, write_json
from .tensor import ParamGraph, ShapeError

MAGIC = b"RBCK"
VERSION = 1


def save_checkpoint(path, arrays: dict[str, np.ndarray]) -> None:
    with open_output(path, "wb") as fh:
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

    Raises DataError on a file that cannot be read, bad magic, an unknown
    version, a record cut short or a name that is not utf-8. A file cut
    exactly between records reads as a shorter checkpoint;
    `load_model_files` then reports the parameters it lacks.
    """
    with open_input(path, "rb") as fh:
        blob = fh.read()
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


def save_model_files(path, graph: ParamGraph, sidecar: dict) -> None:
    """Write the parameters of `graph` to `path`, then `sidecar` to `<path>.json`."""
    save_checkpoint(path, {name: t.data for name, t in graph.params.items()})
    write_json(f"{path}.json", sidecar)


def load_model_files(path, build):
    """The model `build(sidecar)` makes from `<path>.json`, its `graph` filled
    from the records of `path`. A KeyError, TypeError or ValueError from
    `build` is a DataError naming the sidecar; a DataError passes through."""
    arrays = load_checkpoint(path)
    sidecar = read_json_object(f"{path}.json")
    try:
        model = build(sidecar)
    except DataError:
        raise
    except KeyError as exc:
        raise DataError(f"{path}.json: checkpoint sidecar lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}.json: bad checkpoint sidecar ({exc})") from None
    try:
        model.graph.load_arrays(arrays)
    except (KeyError, ShapeError) as exc:
        raise DataError(f"{path}: {exc.args[0]}") from exc
    return model
