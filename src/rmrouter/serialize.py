"""Canonical JSON helpers.

All persisted documents go through these functions so that rerunning a
command with the same seed reproduces output files byte for byte: keys are
sorted, floats use Python's shortest round-trip repr, and NaN/Inf are
rejected rather than written.  The standard library encoder writes the
document; what it cannot write itself (numpy arrays, numbers and bools, and
mappings that are not dicts, such as the replay's log rows) goes through one
fallback hook that hands it back as Python values, so no separate pass
converts the document first.  A numpy float64 is a Python float and is
written by the same shortest repr.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator, Mapping
from typing import Any

import numpy as np

from .errors import ConfigError, FormatError


def _plain(obj: Any) -> Any:
    """The encoder's fallback for a value it cannot write itself: a numpy
    array, number or bool becomes its Python value, and a mapping a dict."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.floating):  # float(): a longdouble's item() is a longdouble
        return float(obj)
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, Mapping):
        return dict(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_DOC = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False, default=_plain)
_LINE = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False, default=_plain)


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


def real_field(
    value: Any, name: str, error: type[Exception], positive: bool = False,
    below: float = np.inf, at_most: float = np.inf,
) -> float:
    """A finite real number as a Python float: an int or a float (numpy's too),
    never a bool, str or None; at least 0 (above 0 if ``positive``), below
    ``below`` and at most ``at_most``.  NaN and the infinities fail the range,
    and ``error`` names ``name`` and ``value``."""
    number = value
    if type(value) is not float:  # a Python float, the common case, needs no conversion
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise error(f"{name} must be a real number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an int past float64
            number = np.inf
    if (0.0 < number if positive else 0.0 <= number) and number < below and number <= at_most:
        return number
    if below == at_most == np.inf:
        span = "finite and positive" if positive else "finite and >= 0"
    else:
        span = f"in [0, {at_most:g}]" if at_most < np.inf else f"in [0, {below:g})"
    raise error(f"{name} must be {span}, got {value!r}")


def check_document(doc: Any, kind: str, version: int) -> dict:
    """``doc`` itself, once it is a JSON object of the supported ``version``;
    FormatError for any other value, ConfigError for another version (a bool
    is not a version, as it is no integer to :func:`int_field`)."""
    if not isinstance(doc, dict):
        raise FormatError(f"{kind} must be a JSON object")
    found = doc.get("version")
    if isinstance(found, bool) or found != version:
        raise ConfigError(f"unsupported {kind} version {found!r}; supported: {version}")
    return doc


def dumps_doc(obj: Any) -> str:
    """Pretty canonical form used for standalone JSON documents."""
    return _DOC.encode(obj) + "\n"


def dumps_line(obj: Any) -> str:
    """Compact canonical form used for JSONL rows."""
    return _LINE.encode(obj)


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
            fh.write(dumps_line({"_meta": meta}) + "\n")
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
