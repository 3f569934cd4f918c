"""Canonical file formats: JSON documents, JSONL rows and CSV tables.

Every file the package reads or writes goes through these functions, so that
rerunning a command with the same seed reproduces output files byte for
byte: keys are sorted, floats use Python's shortest round-trip repr, and
NaN/Inf are rejected rather than written to JSON.  The standard library
encoder writes the document; what it cannot write itself (numpy arrays,
numbers and bools, and mappings that are not dicts, such as the replay's log
rows) goes through one fallback hook that hands it back as Python values, so
no separate pass converts the document first.  A numpy float64 is a Python
float and is written by the same shortest repr.

Reading has one rule: an input file that is missing, is not UTF-8 or JSON, or
holds a value of the wrong kind raises :class:`FormatError`, not a bare error.
"""

from __future__ import annotations

import csv
import json
import os
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
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
    below: float = np.inf, at_most: float = np.inf, signed: bool = False,
) -> float:
    """A finite real number as a Python float: an int or a float (numpy's too),
    never a bool, str or None; at least 0 (above 0 if ``positive``, of either
    sign if ``signed``), below ``below`` and at most ``at_most``.  NaN and the
    infinities fail the range, and ``error`` names ``name`` and ``value``."""
    number = value
    if type(value) is not float:  # a Python float, the common case, needs no conversion
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise error(f"{name} must be a real number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an int past float64
            number = np.inf
    if ((0.0 < number if positive else 0.0 <= number or signed and -np.inf < number)
            and number < below and number <= at_most):
        return number
    if below == at_most == np.inf:
        span = "finite" if signed else "finite and positive" if positive else "finite and >= 0"
    else:
        span = f"in [0, {at_most:g}]" if at_most < np.inf else f"in [0, {below:g})"
    raise error(f"{name} must be {span}, got {value!r}")


@contextmanager
def check_document(doc: Any, kind: str, version: int,
                   error: type[Exception] = FormatError) -> Iterator[dict]:
    """``with check_document(doc, kind, version) as doc:`` reads a versioned
    document.  ``doc`` must be a JSON object (FormatError) of the supported
    ``version`` (ConfigError; a bool is not a version, as it is no integer to
    :func:`int_field`).  In the block, a missing key or a value of the wrong
    type or range raises ``error`` as ``malformed <kind>: ...``."""
    if not isinstance(doc, dict):
        raise FormatError(f"{kind} must be a JSON object")
    found = doc.get("version")
    if isinstance(found, bool) or found != version:
        raise ConfigError(f"unsupported {kind} version {found!r}; supported: {version}")
    try:
        yield doc
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise error(f"malformed {kind}: {exc!r}") from exc


def dumps_doc(obj: Any) -> str:
    """Pretty canonical form used for standalone JSON documents."""
    return _DOC.encode(obj) + "\n"


def dumps_line(obj: Any) -> str:
    """Compact canonical form used for JSONL rows."""
    return _LINE.encode(obj)


def write_json(path: str | os.PathLike, obj: Any) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_doc(obj))


def _lines(path: str | os.PathLike) -> Iterator[str]:
    """The one opener: each line of the UTF-8 text file at ``path``, with its
    line end; FormatError for a missing file or bytes that are not UTF-8."""
    if not os.path.exists(path):
        raise FormatError(f"no such file: {path}")
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield from fh
    except UnicodeDecodeError as exc:  # decoded a block at a time: no line to name
        raise FormatError(f"{path} is not UTF-8 text ({exc.reason})") from exc


def _parse(text: str, path: str | os.PathLike, line: int | None = None) -> Any:
    """The one JSON parse rule: FormatError for all that ``json.loads`` refuses: bad
    syntax, an integer past Python's digit limit, nesting past the recursion limit."""
    try:
        return json.loads(text)
    except (RecursionError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise FormatError(f"invalid JSON in {path}: {exc}", line=line) from exc


def read_json(path: str | os.PathLike) -> Any:
    return _parse("".join(_lines(path)), path)


def write_jsonl(path: str | os.PathLike, rows: Iterable[Any], meta: dict | None = None) -> None:
    """Write JSONL rows; an optional provenance object goes first as {"_meta": ...}."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if meta is not None:
            fh.write(dumps_line({"_meta": meta}) + "\n")
        for row in rows:
            fh.write(dumps_line(row) + "\n")


def iter_jsonl(path: str | os.PathLike) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, row) for each row, a JSON object, skipping blank
    and _meta lines; FormatError for a row of any other kind."""
    for lineno, raw in enumerate(_lines(path), start=1):
        if raw.strip():
            row = _parse(raw, path, lineno)
            if not isinstance(row, dict):
                raise FormatError(f"row of {path} must be a JSON object", line=lineno)
            if "_meta" not in row:
                yield lineno, row


def write_csv(path: str | os.PathLike, comment: str, header: Sequence[str],
              rows: Iterable[Sequence]) -> None:
    """Write a ``# comment`` line, the header and one line per row: a float
    (numpy's float64 too) by its shortest round-trip repr, None as an empty field."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def iter_csv(path: str | os.PathLike) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, row) for each row of a CSV file, as a dict keyed by
    its header; ``#`` lines are skipped wherever they are."""
    lines = [(n, line) for n, line in enumerate(_lines(path), start=1) if not line.startswith("#")]
    reader = csv.DictReader(line for _, line in lines)
    try:
        for row in reader:  # line_num: the count of lines the reader has taken
            yield lines[reader.line_num - 1][0], row
    except csv.Error as exc:  # the DictReader's own line_num lags its reader's here
        lineno = lines[reader.reader.line_num - 1][0]
        raise FormatError(f"invalid CSV: {exc}", line=lineno) from exc
