"""Canonical JSON output.

Reports must serialize to identical bytes across runs with the same seed,
so everything funnels through one writer: keys sorted, fixed separators,
numpy scalars unwrapped, and non-finite floats replaced by the string
sentinels "inf", "-inf", and "nan" (bare IEEE tokens are not valid JSON).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["sanitize", "canonical_dumps", "write_report"]


def sanitize(value: Any) -> Any:
    """Recursively convert a report tree into plain JSON-safe types; TypeError on any other."""
    if isinstance(value, dict):
        return {_key(k): sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    if isinstance(value, np.ndarray):
        return [sanitize(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"cannot write a {type(value).__name__} into a report")


def _key(key: Any) -> str:
    """A dict key as written: a str as it is, an integer as its decimal; TypeError on any other."""
    if isinstance(key, (str, int, np.integer)) and not isinstance(key, bool):
        return key if isinstance(key, str) else str(int(key))
    raise TypeError(f"cannot write a {type(key).__name__} key into a report")


def canonical_dumps(value: Any) -> str:
    """Serialize with a stable key order and no locale-dependent spacing."""
    return json.dumps(sanitize(value), sort_keys=True, separators=(",", ":"))


def write_report(value: Any, path: str | Path) -> None:
    """Write canonical JSON plus a trailing newline."""
    Path(path).write_text(canonical_dumps(value) + "\n", encoding="utf-8")
