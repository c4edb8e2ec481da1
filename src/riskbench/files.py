"""Files in and out: how each is opened, and one reader and one writer per text format.

`open_input` and `open_output` open a file as UTF-8 text or as bytes. CSV tables
are read by `read_csv` and written by `write_csv` (`csv` quoting, LF line
endings); JSON objects are read by `read_json_object` and written by
`write_json` (indented, sorted keys, one final newline). A file that cannot be
opened, read or written, is not UTF-8, does not parse or has the wrong shape is
a DataError naming the path (and line).
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from pathlib import Path

from .errors import DataError

_TEXT = {"encoding": "utf-8", "newline": ""}  # line endings read and written as they are


@contextmanager
def open_input(path, mode: str = "r"):
    """`path` opened for reading, as text (mode "r") or bytes ("rb"), in a `with` block."""
    try:
        with open(path, mode, **({} if mode == "rb" else _TEXT)) as fh:
            yield fh
    except FileNotFoundError as exc:
        raise DataError(f"{path}: not found ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc


def read_csv(path, keyed: bool) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header of the CSV table in `path` and its rows as (line, fields).

    The header must name at least one column and every row must have as many
    fields. In a `keyed` table the first field is an id that no two rows share.
    """
    with open_input(path) as fh:
        reader = csv.reader(fh)
        try:
            table = [(reader.line_num, row) for row in reader]
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    if not table or not table[0][1]:
        raise DataError(f"{path}:1: no header")
    (_, header), rows = table[0], table[1:]
    first: dict[str, int] = {}
    for line, row in rows:
        if len(row) != len(header):
            raise DataError(f"{path}:{line}: expected {len(header)} fields, got {len(row)}")
        if keyed and (seen := first.setdefault(row[0], line)) != line:
            raise DataError(f"{path}:{line}: id {row[0]} repeats line {seen}")
    return header, rows


def read_json_object(path) -> dict:
    """The JSON object in `path`."""
    with open_input(path) as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: invalid JSON, not UTF-8 text ({exc.reason})") from exc
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: not a JSON object, got {type(doc).__name__}")
    return doc


@contextmanager
def open_output(path, mode: str = "w"):
    """`path` opened for writing, as text (mode "w") or bytes ("wb"), in a `with` block."""
    try:
        with open(path, mode, **({} if mode == "wb" else _TEXT)) as fh:
            yield fh
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from exc


def output_dir(path) -> Path:
    """The directory `path`, made with any missing parents."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from exc
    return Path(path)


def write_text(path, text: str) -> None:
    with open_output(path) as fh:
        fh.write(text)


def write_json(path, doc: dict) -> None:
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_csv(path, header: list[str], rows) -> None:
    """`header`, then each row of the iterable `rows`."""
    with open_output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
