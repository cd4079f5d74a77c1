"""Every byte the package reads or writes, and the numpy-free text parsing on top.

This module reads and writes; :mod:`.ingest`, :mod:`.feature_model`,
:mod:`.replacement` and the command line parse what it reads into records,
models and curves. It imports no numpy, so the commands that need none
(``report``, ``replacement``, ``--help``) run without it.

Reading
-------
Every input file is opened by ``_read_bytes`` alone, including the model file
and the report and curve CSVs: a missing file is ``no such file: PATH``, and
any other OS error is a ``ParseError`` naming the path. The function that
reads a file names it once: it parses the bytes inside ``_naming(path)``,
which puts ``PATH: `` in front of any ``DataError`` raised there. The parsers
below it name only records, lines and fields (``line 4: …``, ``truncated
file: …``). ``_read_bytes`` runs before that block, since its own errors
already name the path. ``_read_bytes`` returns a
read-only ``mmap`` of the file, not a copy, and ``bytes`` only for a file that
cannot be mapped, such as an empty file; callers read either through the
buffer protocol. So the values of a ``T2TFEAT`` file stay in the page cache.
A file replaced by a rename during a run is safe to read; one truncated in
place can end the run with SIGBUS. Text is decoded once, as UTF-8 with
universal newlines, and both binary containers are read through one
bounds-checked ``_Cursor``. A JSON settings document becomes a dataclass
through ``decode``, which checks each value's type and nothing else.

Writing
-------
Every artifact is written by ``write_bytes`` alone: first to a ``.tmp``
sibling, then renamed into place on success, so an interrupted or failing run
never leaves a truncated output file behind. An output that cannot be
written, such as one under a regular file or onto a directory, is a
``DataError`` naming its path. CSV text is built by ``_csv_text`` with numbers
in ``_fmt``'s full precision.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import mmap
import os
import typing
from dataclasses import fields
from pathlib import Path

from .errors import DataError, ParseError, ValidationError


# --------------------------------------------------------------------- reading


def _read_bytes(path: str | Path) -> mmap.mmap | bytes:
    """A read-only map of an input file; the one place the package opens an input.

    Callers read it through the buffer protocol, never as ``bytes``: a file
    that cannot be mapped, such as an empty file or a pipe, is read into
    ``bytes`` instead.
    """
    try:
        with open(path, "rb") as fh:
            try:
                return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError):  # an empty file, a pipe, a device
                return fh.read()
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}") from None
    except OSError as exc:  # a directory, a permission, a device error
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from None


@contextlib.contextmanager
def _naming(where: object):
    """Puts ``where: `` in front of each ``DataError`` raised in the block,
    keeping its type; the reader of a file names the file through it, once."""
    try:
        yield
    except DataError as exc:
        raise type(exc)(f"{where}: {exc}") from None


def _decode_text(blob: mmap.mmap | bytes) -> str:
    """UTF-8 text with universal newlines, as ``Path.read_text`` decodes it."""
    try:
        text = str(blob, "utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text at byte {exc.start} ({exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


class _Cursor:
    """Reads through a binary container, checking each size taken from the
    file against the bytes left before any use."""

    def __init__(self, blob: mmap.mmap | bytes, offset: int) -> None:
        self.blob, self.offset = memoryview(blob), offset

    def take(self, n: int, what: str) -> memoryview:
        if n > len(self.blob) - self.offset:
            raise ParseError(f"truncated file: {what} needs {n} bytes")
        self.offset += n
        return self.blob[self.offset - n : self.offset]

    def end(self, what: str) -> None:
        if self.offset != len(self.blob):
            raise ParseError(f"trailing bytes after {what}")


def _load_json(path: str | Path) -> object:
    blob = _read_bytes(path)
    with _naming(path):
        text = _decode_text(blob)
        del blob  # unmap the file before the parse, which needs only the text
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
        except ValueError as exc:  # an integer over the interpreter's digit limit
            raise ParseError(f"invalid JSON: {exc}") from None
        except RecursionError:
            raise ParseError("invalid JSON: nested too deeply") from None


def _csv_records(text: str):
    """Yield (line number, record) of CSV text; a malformed record is a ParseError."""
    reader = csv.reader(io.StringIO(text))
    try:
        for record in reader:
            yield reader.line_num, record
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise ParseError(f"line {reader.line_num}: {exc}") from None


def _read_csv_rows(path: str | Path) -> list[list[str]]:
    """The non-empty records of a CSV file."""
    blob = _read_bytes(path)
    with _naming(path):
        return [r for _, r in _csv_records(_decode_text(blob)) if r]


def _csv_number(parse, cell: str):
    """``parse(cell)`` for ``int`` or ``float``, refusing the digit-group
    underscores that both accept: ``1_5`` is a ValueError, not 15."""
    if "_" in cell:
        raise ValueError(f"underscore in number {cell!r}")
    return parse(cell)


# -------------------------------------------------------------- JSON settings


# Each scalar field type: the JSON values it accepts, and how to say so.
_JSON_SCALARS = {
    bool: (bool, "true or false"),
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    Path: (str, "a path string"),
}


def _shown(value: object) -> str:
    """``repr(value)`` for an error message, cut to its first 20 characters
    when longer and followed by its size, as in ``9999…(400 digits)``."""
    text = repr(value)
    if len(text) <= 20:
        return text
    if isinstance(value, int):
        return f"{text[:20]}…({len(text.lstrip('-'))} digits)"
    return f"{text[:20]}…({len(text)} characters)"


def _decode_value(hint: object, value: object, where: str) -> object:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
    elif value is None:
        raise ValidationError(f"{where} must not be null")
    if hint in _JSON_SCALARS:
        accepted, expected = _JSON_SCALARS[hint]
        if not isinstance(value, accepted) or (isinstance(value, bool) and hint is not bool):
            raise ValidationError(f"{where} must be {expected}, got {_shown(value)}")
        try:
            return hint(value)
        except OverflowError:
            raise ValidationError(f"{where} is out of range for a float: {_shown(value)}") from None
    if origin is dict:
        if not isinstance(value, dict):
            raise ValidationError(f"{where} must be an object, got {_shown(value)}")
        return {k: _decode_value(args[1], v, f"{where}.{k}") for k, v in value.items()}
    # tuple[...], the one field type left
    if not isinstance(value, (list, tuple)) or len(value) != len(args):
        raise ValidationError(f"{where} must be a list of {len(args)} values, got {_shown(value)}")
    return tuple(_decode_value(a, v, f"{where}[{i}]") for i, (a, v) in enumerate(zip(args, value)))


def decode(cls: type, raw: object, where: str):
    """Build the dataclass ``cls`` from a parsed JSON document, without coercion.

    Each key must name a field, and each value must already have the field's
    declared type: ints exclude bools and fractions, floats take any number
    but a bool, paths take strings, and ``null`` is allowed only for optional
    fields. Range checks stay with ``cls`` and its users.

    Raises:
        ValidationError: naming ``where`` and the offending key.
    """
    with _naming(where):
        if not isinstance(raw, dict):
            raise ValidationError(f"expected a JSON object, got {type(raw).__name__}")
        hints = typing.get_type_hints(cls)
        names = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - names)
        if unknown:
            raise ValidationError(f"unknown keys: {', '.join(unknown)}")
        return cls(**{k: _decode_value(hints[k], v, k) for k, v in raw.items()})


# --------------------------------------------------------------------- writing


def write_bytes(path: str | Path, data: bytes) -> Path:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise DataError(f"{path}: cannot write: {exc}") from exc
    return path


def write_text(path: str | Path, text: str) -> Path:
    return write_bytes(path, text.encode("utf-8"))


def _fmt(value: float) -> str:
    """Full-precision decimal: 17 significant digits round-trip float64."""
    return format(float(value), ".17g")


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
