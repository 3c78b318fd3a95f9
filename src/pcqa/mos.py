"""Mean-opinion-score tables, loaded from CSV.

The expected layout is a header row ``content,distortion,mos`` followed by
one row per rated stimulus. Keys (content, distortion) must be unique.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .errors import DuplicateKeyError, ParseError, SchemaError

_REQUIRED = ("content", "distortion", "mos")


@dataclass(frozen=True)
class MosRow:
    content: str
    distortion: str
    mos: float


def load_mos_csv(path: str) -> tuple[MosRow, ...]:
    """Load a MOS table as its rows, in file order.

    Raises ParseError for a file that is not UTF-8 text and for a
    non-numeric or non-finite mos value (naming the 1-based file row),
    SchemaError when a required column is missing, and DuplicateKeyError
    for a repeated (content, distortion) key.
    """
    path = str(path)
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:  # Excel writes a BOM
            records = list(csv.reader(handle))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from None
    if not records:
        raise SchemaError(f"{path}: empty file, expected a header row")
    columns = [c.strip().lower() for c in records[0]]
    missing = [c for c in _REQUIRED if c not in columns]
    if missing:
        raise SchemaError(f"{path}: missing column(s): {', '.join(missing)}")
    idx = {c: columns.index(c) for c in _REQUIRED}

    rows: list[MosRow] = []
    seen: set[tuple[str, str]] = set()
    for rowno, record in enumerate(records[1:], start=2):
        if not record or all(not cell.strip() for cell in record):
            continue
        if len(record) < len(columns):
            raise ParseError(
                f"{path}: row {rowno}: expected {len(columns)} fields, "
                f"found {len(record)}"
            )
        content = record[idx["content"]].strip()
        distortion = record[idx["distortion"]].strip()
        raw = record[idx["mos"]].strip()
        try:
            mos = float(raw)
        except ValueError:
            raise ParseError(
                f"{path}: row {rowno}: non-numeric mos '{raw}'"
            ) from None
        if not math.isfinite(mos):
            raise ParseError(f"{path}: row {rowno}: non-finite mos '{raw}'")
        key = (content, distortion)
        if key in seen:
            raise DuplicateKeyError(
                f"{path}: row {rowno}: duplicate key {key!r}"
            )
        seen.add(key)
        rows.append(MosRow(content=content, distortion=distortion, mos=mos))
    return tuple(rows)
