"""Input files: how each text file is opened, decoded, parsed and reported.

Every CSV table is read by `read_csv`, every JSON object (a run config, a
code or category map, a checkpoint sidecar, a `cv` report) by
`read_json_object`. A file that cannot be opened, is not UTF-8, does not
parse or has the wrong shape is a DataError naming the path (and line).
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager

from .errors import DataError


@contextmanager
def open_input(path):
    """`path` opened for reading as UTF-8 text, line endings kept, for a
    `with` block. A file that cannot be opened, or whose bytes read in the
    block are not UTF-8, is a DataError naming the path."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except FileNotFoundError as exc:
        raise DataError(f"{path}: not found ({exc.strerror})") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


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
