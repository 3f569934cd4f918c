"""Canonical JSON helpers.

All persisted documents go through these functions so that rerunning a
command with the same seed reproduces output files byte for byte: keys are
sorted, floats use Python's shortest round-trip repr, and NaN/Inf are
rejected rather than written.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable, Iterator

import numpy as np

from .errors import FormatError


def jsonable(obj: Any) -> Any:
    """Convert numpy scalars/arrays into plain Python containers."""
    if isinstance(obj, np.ndarray):
        return [jsonable(x) for x in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def int_field(
    value: Any, name: str, error: type[Exception], minimum: int | None = None
) -> int:
    """A document's integer value: an int or an integral float, never a bool,
    and at least ``minimum`` if given."""
    integral = isinstance(value, float) and value.is_integer()
    if integral or isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if minimum is None or value >= minimum:
            return int(value)
        raise error(f"{name} must be at least {minimum}, got {value!r}")
    raise error(f"{name} must be an integer, got {value!r}")


def dumps_doc(obj: Any) -> str:
    """Pretty canonical form used for standalone JSON documents."""
    return json.dumps(jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def dumps_line(obj: Any) -> str:
    """Compact canonical form used for JSONL rows."""
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_json(path: str | os.PathLike, obj: Any) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_doc(obj))


def read_json(path: str | os.PathLike) -> Any:
    if not os.path.exists(path):
        raise FormatError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON in {path}: {exc}") from exc


def write_jsonl(path: str | os.PathLike, rows: Iterable[Any], meta: dict | None = None) -> None:
    """Write JSONL rows; an optional provenance object goes first as {"_meta": ...}."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if meta is not None:
            fh.write(dumps_line({"_meta": jsonable(meta)}) + "\n")
        for row in rows:
            fh.write(dumps_line(row) + "\n")


def iter_jsonl(path: str | os.PathLike) -> Iterator[tuple[int, Any]]:
    """Yield (line_number, parsed_object), skipping blank and _meta lines."""
    if not os.path.exists(path):
        raise FormatError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise FormatError(f"invalid JSON: {exc}", line=lineno) from exc
            if isinstance(obj, dict) and "_meta" in obj:
                continue
            yield lineno, obj
