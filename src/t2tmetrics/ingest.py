"""Loading, validation, and serialization of ground truth, detections, and features.

File formats
------------
Ground truth is a JSON document::

    {"images":      [{"id": "img-1", "file_name": "a.png", "width": 640, "height": 480}, ...],
     "annotations": [{"id": "gt-1", "image_id": "img-1", "bbox": [x, y, w, h]}, ...]}

Detections are a JSON list::

    [{"detection_id": "d-1", "image_id": "img-1", "bbox": [x, y, w, h], "score": 0.87}, ...]

Feature matrices come in two containers, distinguished by the leading bytes:

* binary: magic ``T2TFEAT\\0`` | u64 row count | u64 dim | rows*dim little-endian
  float32 values (row major) | per row a u32 byte length followed by the UTF-8
  row id;
* CSV fallback: one row per line, first column the row id, remaining columns
  the feature values.

Identifiers may appear as JSON strings or integers; they are normalized to
strings internally and written back as strings. Out-of-range or non-finite
values are rejected with an error naming the offending record, never clamped
or repaired.

Reading
-------
Every input file is opened by ``_read_bytes`` alone, including the model file
and the report and curve CSVs that other modules load: a missing file is ``no
such file: PATH``, and any other OS error is a ``ParseError`` naming the path.
It returns a read-only ``mmap`` of the file, not a copy, and ``bytes`` only for
a file that cannot be mapped, such as an empty file; callers read either
through the buffer protocol. So the values of a ``T2TFEAT`` file stay in the
page cache. A file replaced by a rename during a run is safe to read; one
truncated in place can end the run with SIGBUS. Text is decoded once, as UTF-8
with universal newlines, and both binary containers are read through one
bounds-checked ``_Cursor``. Outputs are written through ``fsio.write_bytes``
alone.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import logging
import math
import mmap
import struct
import sys
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import BindingError, ParseError, ValidationError
from .fsio import write_bytes, write_text

logger = logging.getLogger(__name__)

FEATURE_MAGIC = b"T2TFEAT\x00"

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")


def _require_finite(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {value!r}")
    return value


def _json_number(value: object, where: str, what: str) -> float:
    """A JSON number as a float; a bool, a non-number or an integer too large
    for a float is refused, naming the record ``where`` and the field ``what``.
    The message is built only on failure: this runs for every box value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: {what} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{where}: {what} is out of range for a float") from None


def _first_repeat(ids: list[str] | tuple[str, ...]) -> str | None:
    """The first id that occurs a second time, or None."""
    if len(set(ids)) == len(ids):
        return None
    seen: set[str] = set()
    for i in ids:
        if i in seen:
            return i
        seen.add(i)
    return None


def _as_identifier(value: object, what: str) -> str:
    if isinstance(value, str):
        if not value:
            raise ValidationError(f"{what} must be a non-empty string")
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise ValidationError(f"{what} must be a string or integer, got {type(value).__name__}")


# Box areas outside these limits overflow or underflow in IoU arithmetic: two
# areas must sum to a finite float, and an area must not round to zero.
_MIN_AREA = sys.float_info.min
_MAX_AREA = sys.float_info.max / 2


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box as (x, y, w, h) with strictly positive extent.

    Its far edges x + w and y + h must be finite, the extents (x + w) - x and
    (y + h) - y that IoU arithmetic sees must lie within a quarter of w and h,
    and its area w * h must lie in [sys.float_info.min, sys.float_info.max / 2].
    Then an intersection stays below its union, and every IoU is a finite
    float in [0, 1].
    """

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "w", "h"):
            object.__setattr__(self, name, _require_finite(getattr(self, name), f"box {name}"))
        x, y, w, h = self.x, self.y, self.w, self.h
        if w <= 0 or h <= 0:
            raise ValidationError(f"box extent must be positive, got w={w}, h={h}")
        far_x, far_y = x + w, y + h
        if not (math.isfinite(far_x) and math.isfinite(far_y)):
            raise ValidationError(
                f"box far edges x + w and y + h must be finite, got x={x}, y={y}, w={w}, h={h}"
            )
        # IoU arithmetic sees the extent (x + w) - x, which rounding at the far
        # edge can change: (2**60 + 192) - 2**60 is 256.
        if not (abs(far_x - x - w) <= w / 4 and abs(far_y - y - h) <= h / 4):
            raise ValidationError(
                f"box extent is lost to rounding at its position: (x + w) - x and (y + h) - y "
                f"must lie within a quarter of w and h, got x={x}, y={y}, w={w}, h={h}"
            )
        if not _MIN_AREA <= w * h <= _MAX_AREA:
            raise ValidationError(
                f"box area w * h must lie in [{_MIN_AREA}, {_MAX_AREA}], got {w * h} "
                f"(w={w}, h={h})"
            )

    @property
    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True)
class ImageInfo:
    id: str
    file_name: str
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValidationError(f"image {self.id!r} must have positive size")


@dataclass(frozen=True)
class GroundTruthInstance:
    """One annotated object: an image reference, a box, and a unique id."""

    image_id: str
    box: BoundingBox
    instance_id: str


@dataclass(frozen=True, eq=False)
class Detection:
    """One detector output; ``feature`` stays None until ``bind_features`` sets
    it to a read-only row view of a ``FeatureMatrix``."""

    image_id: str
    box: BoundingBox
    score: float
    detection_id: str
    feature: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "score", _require_finite(self.score, f"detection {self.detection_id!r} score"))
        if not 0.0 <= self.score <= 1.0:
            raise ValidationError(
                f"detection {self.detection_id!r} score must lie in [0, 1], got {self.score}"
            )


class _ColumnView:
    """Base of the frozen dataclasses that hold their records as columns ``_cols``.

    Every instance has its columns from the start: the public constructor
    builds them from the fields in ``__post_init__``, and ``_view`` is given
    them with only some fields. A field that was not given is built from the
    columns on first read (``_field_of_columns``), so no record object exists
    until a caller reads one.
    """

    @classmethod
    def _view(cls, cols, **values):
        view = object.__new__(cls)
        object.__setattr__(view, "_cols", cols)
        for name, value in values.items():
            object.__setattr__(view, name, value)
        return view

    def __getattr__(self, name: str):
        if name not in self.__dataclass_fields__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = self._field_of_columns(name)
        object.__setattr__(self, name, value)
        return value


def _index(names: list) -> tuple[list, np.ndarray]:
    """The distinct ``names`` in first-seen order, and the position of each name among them."""
    position: dict = {}
    at = [position.setdefault(name, len(position)) for name in names]
    return list(position), np.array(at, dtype=np.intp)


def _id_rank(ids: list[str]) -> np.ndarray:
    """The position of each id in Python's string order (numpy strings drop
    trailing NULs, so numpy cannot order these ids)."""
    rank = np.empty(len(ids), dtype=np.intp)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


def _box_rows(boxes) -> np.ndarray:
    """The (n, 4) float64 array of (x, y, w, h) of ``BoundingBox`` objects."""
    values = itertools.chain.from_iterable((b.x, b.y, b.w, b.h) for b in boxes)
    return np.fromiter(values, dtype=np.float64).reshape(-1, 4)


def _boxes_pass(boxes: np.ndarray) -> np.ndarray:
    """Whether each (x, y, w, h) row passes every ``BoundingBox`` check, by
    the same float operations."""
    x, y, w, h = boxes.T
    with np.errstate(all="ignore"):
        far_x, far_y, area = x + w, y + h, w * h
        ok = np.isfinite(boxes).all(axis=1) & (w > 0) & (h > 0)
        ok &= np.isfinite(far_x) & np.isfinite(far_y)
        ok &= (np.abs(far_x - x - w) <= w / 4) & (np.abs(far_y - y - h) <= h / 4)
        ok &= (_MIN_AREA <= area) & (area <= _MAX_AREA)
    return ok


@dataclass(frozen=True, eq=False)
class _DetectionColumns:
    """A detection set as columns, in the set's order.

    ``image`` is the position of each detection's image id in
    ``image_names``, ``boxes`` is (n, 4) float64 of (x, y, w, h), and
    ``features[k]`` is detection k's feature, an array or None.
    """

    ids: list[str]
    image_names: list[str]
    image: np.ndarray
    boxes: np.ndarray
    scores: np.ndarray
    features: tuple

    @classmethod
    def of(cls, dets: tuple[Detection, ...]) -> _DetectionColumns:
        image_names, image = _index([det.image_id for det in dets])
        return cls(
            ids=[det.detection_id for det in dets],
            image_names=image_names,
            image=image,
            boxes=_box_rows(det.box for det in dets),
            scores=np.array([det.score for det in dets], dtype=np.float64),
            features=tuple(det.feature for det in dets),
        )

    @functools.cached_property
    def id_rank(self) -> np.ndarray:
        return _id_rank(self.ids)

    def detections(self) -> tuple[Detection, ...]:
        """The records as ``Detection`` objects."""
        names = [self.image_names[k] for k in self.image.tolist()]
        return tuple(
            Detection(image_id=name, box=BoundingBox(*box), score=score, detection_id=det_id,
                      feature=feature)
            for name, box, score, det_id, feature in zip(
                names, self.boxes.tolist(), self.scores.tolist(), self.ids, self.features)
        )


def _check_detection_ids(ids: list[str]) -> None:
    if (repeat := _first_repeat(ids)) is not None:
        raise ValidationError(f"duplicate detection id {repeat!r}")


@dataclass(frozen=True, eq=False)
class _InstanceColumns:
    """Ground-truth instances as columns: ids, the position of each one's
    image in the set's ``images``, and (n, 4) float64 boxes of (x, y, w, h)."""

    ids: list[str]
    image: np.ndarray
    boxes: np.ndarray

    @functools.cached_property
    def id_rank(self) -> np.ndarray:
        return _id_rank(self.ids)


def _instance_images(images: tuple[ImageInfo, ...], ids: list[str], image_ids: list[str]) -> np.ndarray:
    """The position in ``images`` of each instance's image, after checking that
    image and instance ids are unique and that every instance's image is listed."""
    listed = [im.id for im in images]
    if (repeat := _first_repeat(listed)) is not None:
        raise ValidationError(f"duplicate image id {repeat!r} in ground truth")
    position = {image_id: k for k, image_id in enumerate(listed)}
    at = [position.get(image_id, -1) for image_id in image_ids]
    if -1 in at or len(set(ids)) != len(ids):
        seen: set[str] = set()
        for inst_id, image_id in zip(ids, image_ids):
            if inst_id in seen:
                raise ValidationError(f"duplicate ground-truth instance id {inst_id!r}")
            seen.add(inst_id)
            if image_id not in position:
                raise ValidationError(
                    f"instance {inst_id!r} references unknown image {image_id!r}"
                )
    return np.array(at, dtype=np.intp)


@dataclass(frozen=True)
class GroundTruthSet(_ColumnView):
    """Images and their annotated instances, the instances held as columns
    (``_InstanceColumns``). A set read by ``load_ground_truth`` builds its
    ``instances`` objects only when a caller reads them."""

    images: tuple[ImageInfo, ...]
    instances: tuple[GroundTruthInstance, ...]

    def __post_init__(self) -> None:
        # Building the columns checks the set's invariants.
        ids = [inst.instance_id for inst in self.instances]
        image = _instance_images(self.images, ids, [inst.image_id for inst in self.instances])
        object.__setattr__(self, "_cols", _InstanceColumns(
            ids=ids, image=image, boxes=_box_rows(i.box for i in self.instances)))

    def _field_of_columns(self, name: str) -> tuple[GroundTruthInstance, ...]:
        cols = self._cols
        return tuple(
            GroundTruthInstance(image_id=self.images[k].id, box=BoundingBox(*box), instance_id=inst_id)
            for inst_id, k, box in zip(cols.ids, cols.image.tolist(), cols.boxes.tolist())
        )

    def __len__(self) -> int:
        return len(self._cols.ids)

    def instances_by_image(self) -> dict[str, list[GroundTruthInstance]]:
        grouped: dict[str, list[GroundTruthInstance]] = {}
        for inst in self.instances:
            grouped.setdefault(inst.image_id, []).append(inst)
        return grouped


@dataclass(frozen=True)
class DetectionSet(_ColumnView):
    """Detections, held as columns (``_DetectionColumns``). A set read by
    ``load_detections`` or made by ``bind_features`` builds its
    ``detections`` objects only when a caller reads them."""

    detections: tuple[Detection, ...]

    def __post_init__(self) -> None:
        cols = _DetectionColumns.of(self.detections)
        _check_detection_ids(cols.ids)
        object.__setattr__(self, "_cols", cols)

    def _field_of_columns(self, name: str) -> tuple[Detection, ...]:
        return self._cols.detections()

    def __len__(self) -> int:
        return len(self._cols.ids)


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Row-major feature matrix with one id per row.

    ``data`` is a read-only view. Values read from a ``T2TFEAT`` file stay
    float32, as stored, and share the file's bytes; values read from CSV are
    float64. Given float32 or float64 data is kept as it is, and any other
    dtype is widened to float64. Every computation on the values widens them
    exactly to float64. The binary writer quantizes to float32, which is the
    format's precision.
    """

    data: np.ndarray
    row_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        data = np.asarray(self.data)
        if data.dtype not in (np.float32, np.float64):
            data = data.astype(np.float64)
        data = data.view()
        data.flags.writeable = False
        if data.ndim != 2:
            raise ValidationError(f"feature data must be 2-D, got shape {data.shape}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ValidationError(f"feature matrix must be at least 1x1, got shape {data.shape}")
        if data.shape[0] != len(self.row_ids):
            raise ValidationError(
                f"{len(self.row_ids)} row ids for {data.shape[0]} data rows"
            )
        if (repeat := _first_repeat(self.row_ids)) is not None:
            raise ValidationError(f"duplicate row id {repeat!r} in feature matrix")
        if not np.isfinite(data).all():
            bad = int(np.argwhere(~np.isfinite(data))[0][0])
            raise ValidationError(f"non-finite feature value in row {self.row_ids[bad]!r}")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "row_ids", tuple(self.row_ids))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


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


def _decode_text(path: str | Path, blob: mmap.mmap | bytes) -> str:
    """UTF-8 text with universal newlines, as ``Path.read_text`` decodes it."""
    try:
        text = str(blob, "utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text at byte {exc.start} ({exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


class _Cursor:
    """Reads through a binary container, checking each size taken from the
    file against the bytes left before any use."""

    def __init__(self, path: str | Path, blob: mmap.mmap | bytes, offset: int) -> None:
        self.path, self.blob, self.offset = path, memoryview(blob), offset

    def take(self, n: int, what: str) -> memoryview:
        if n > len(self.blob) - self.offset:
            raise ParseError(f"{self.path}: truncated file: {what} needs {n} bytes")
        self.offset += n
        return self.blob[self.offset - n : self.offset]

    def end(self, what: str) -> None:
        if self.offset != len(self.blob):
            raise ParseError(f"{self.path}: trailing bytes after {what}")


def _load_json(path: str | Path) -> object:
    text = _decode_text(path, _read_bytes(path))
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except ValueError as exc:  # an integer over the interpreter's digit limit
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{path}: invalid JSON: nested too deeply") from None


def _csv_records(path: str | Path, text: str):
    """Yield (line number, record) of CSV text; a malformed record is a ParseError."""
    reader = csv.reader(io.StringIO(text))
    try:
        for record in reader:
            yield reader.line_num, record
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_csv_rows(path: str | Path) -> list[list[str]]:
    """The non-empty records of a CSV file."""
    return [r for _, r in _csv_records(path, _decode_text(path, _read_bytes(path))) if r]


# ---------------------------------------------------------------- ground truth


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
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: expected a JSON object, got {type(raw).__name__}")
    hints = typing.get_type_hints(cls)
    names = {f.name for f in fields(cls)}
    unknown = sorted(set(raw) - names)
    if unknown:
        raise ValidationError(f"{where}: unknown keys: {', '.join(unknown)}")
    values = {k: _decode_value(hints[k], v, f"{where}: {k}") for k, v in raw.items()}
    try:
        return cls(**values)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _parse_box(raw: object, where: str) -> BoundingBox:
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise ParseError(f"{where}: bbox must be a list of four numbers")
    vals = [_json_number(v, where, "bbox value") for v in raw]
    try:
        return BoundingBox(*vals)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


# Records are checked a whole column at a time. When a check refuses a record,
# the records are checked one at a time from the first one refused (0 when a
# field is missing or of the wrong type) by the scalar checks, ``_as_identifier``,
# ``_json_number`` and the BoundingBox and Detection constructors, which raise
# every error text. A column check refuses only what a record check refuses,
# so that walk always raises.


def _raise_first_refused(check, path: str | Path, records: list, first: int) -> typing.NoReturn:
    """Check ``records`` one at a time from ``first`` and raise the error of
    the first one refused; every record before ``first`` passed."""
    for i in range(first, len(records)):
        check(path, records, i)
    raise AssertionError(f"{path}: a column check refused a record that its record check passes")


def _field_values(records: list, keys: tuple[str, ...]) -> list[list] | None:
    """The values of each key over ``records``, or None unless every record
    is an object holding every key."""
    if set(map(type, records)) - {dict}:
        return None
    try:
        return [[record[key] for record in records] for key in keys]
    except KeyError:
        return None


def _identifiers(values: list) -> list[str] | None:
    """``values`` as id strings, as ``_as_identifier`` makes them, or None
    unless each is a non-empty string or an integer."""
    kinds = set(map(type, values))
    if not kinds <= {str, int}:
        return None
    if int in kinds:
        values = [v if type(v) is str else str(v) for v in values]
    return None if "" in values else values


def _numbers(values: list) -> np.ndarray | None:
    """``values`` as float64, as ``_json_number`` makes them, or None unless
    each is an int or a float (not a bool) that a float holds."""
    if not set(map(type, values)) <= {float, int}:
        return None
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        return None


def _box_array(bboxes: list) -> np.ndarray | None:
    """The (n, 4) array of ``bbox`` values, or None unless each is a list of four numbers."""
    if set(map(type, bboxes)) - {list} or set(map(len, bboxes)) - {4}:
        return None
    values = _numbers(list(itertools.chain.from_iterable(bboxes)))
    return None if values is None else values.reshape(-1, 4)


def _instance_record(path: str | Path, records: list, i: int) -> None:
    where = f"{path}: annotations[{i}]"
    raw = records[i]
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: expected an object")
    try:
        _as_identifier(raw["image_id"], f"{where}.image_id")
        _parse_box(raw["bbox"], where)
        _as_identifier(raw["id"], f"{where}.id")
    except KeyError as exc:
        raise ParseError(f"{where}: missing field {exc.args[0]!r}") from None


def _instance_columns(path: str | Path, records: list) -> tuple[list[str], list[str], np.ndarray]:
    """The ids, image ids and boxes of annotation records that pass every
    check; otherwise the first record refused raises its error."""
    values = _field_values(records, ("image_id", "bbox", "id"))
    first = 0
    if values is not None:
        image_ids, boxes, ids = _identifiers(values[0]), _box_array(values[1]), _identifiers(values[2])
        if image_ids is not None and boxes is not None and ids is not None:
            refused = ~_boxes_pass(boxes)
            if not refused.any():
                return ids, image_ids, boxes
            first = int(refused.argmax())
    _raise_first_refused(_instance_record, path, records, first)


def load_ground_truth(path: str | Path) -> GroundTruthSet:
    """Load a ground-truth document, rejecting malformed or invalid records.

    Raises:
        ParseError: structural problems (wrong JSON shape, missing fields).
        ValidationError: well-formed records violating invariants
            (non-positive boxes, duplicate ids, dangling image references).
    """
    doc = _load_json(path)
    if not isinstance(doc, dict) or "images" not in doc or "annotations" not in doc:
        raise ParseError(f"{path}: expected an object with 'images' and 'annotations'")
    if not isinstance(doc["images"], list) or not isinstance(doc["annotations"], list):
        raise ParseError(f"{path}: 'images' and 'annotations' must be lists")

    images = []
    for i, raw in enumerate(doc["images"]):
        where = f"{path}: images[{i}]"
        if not isinstance(raw, dict):
            raise ParseError(f"{where}: expected an object")
        try:
            size = (raw["width"], raw["height"])
            if not all(type(v) is int for v in size):
                raise ParseError(f"{where}: width and height must be integers, got {size}")
            image_id = _as_identifier(raw["id"], f"{where}.id")
        except KeyError as exc:
            raise ParseError(f"{where}: missing field {exc.args[0]!r}") from None
        try:
            images.append(ImageInfo(image_id, str(raw.get("file_name", "")), *size))
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None

    ids, image_ids, boxes = _instance_columns(path, doc["annotations"])
    images = tuple(images)
    try:
        image = _instance_images(images, ids, image_ids)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    gts = GroundTruthSet._view(_InstanceColumns(ids=ids, image=image, boxes=boxes), images=images)
    logger.info("loaded %d ground-truth instances over %d images from %s",
                len(gts), len(gts.images), path)
    return gts


def write_ground_truth(gts: GroundTruthSet, path: str | Path) -> Path:
    cols = gts._cols
    doc = {
        "images": [
            {"id": im.id, "file_name": im.file_name, "width": im.width, "height": im.height}
            for im in gts.images
        ],
        "annotations": [
            {"id": inst_id, "image_id": gts.images[k].id, "bbox": box}
            for inst_id, k, box in zip(cols.ids, cols.image.tolist(), cols.boxes.tolist())
        ],
    }
    return write_text(path, json.dumps(doc, indent=2) + "\n")


# ----------------------------------------------------------------- detections


def _detection_record(path: str | Path, records: list, i: int) -> None:
    where = f"{path}: detections[{i}]"
    raw = records[i]
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: expected an object")
    try:
        det_id = _as_identifier(raw["detection_id"], f"{where}.detection_id")
        score = _json_number(raw["score"], where, "score")
        image_id = _as_identifier(raw["image_id"], f"{where}.image_id")
        box = _parse_box(raw["bbox"], where)
    except KeyError as exc:
        raise ParseError(f"{where}: missing field {exc.args[0]!r}") from None
    # Only the score check is left to name the record; the errors above
    # already do.
    try:
        Detection(image_id=image_id, box=box, score=score, detection_id=det_id)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _detection_columns(path: str | Path, records: list) -> _DetectionColumns:
    """The columns of detection records that pass every check; otherwise the
    first record refused raises its error."""
    values = _field_values(records, ("detection_id", "score", "image_id", "bbox"))
    first = 0
    if values is not None:
        ids, scores = _identifiers(values[0]), _numbers(values[1])
        image_ids, boxes = _identifiers(values[2]), _box_array(values[3])
        if ids is not None and scores is not None and image_ids is not None and boxes is not None:
            refused = ~(_boxes_pass(boxes) & (scores >= 0.0) & (scores <= 1.0))
            if not refused.any():
                image_names, image = _index(image_ids)
                return _DetectionColumns(ids=ids, image_names=image_names, image=image,
                                         boxes=boxes, scores=scores, features=(None,) * len(ids))
            first = int(refused.argmax())
    _raise_first_refused(_detection_record, path, records, first)


def load_detections(path: str | Path) -> DetectionSet:
    """Load a detection list; scores outside [0, 1] are rejected, not clamped."""
    doc = _load_json(path)
    if not isinstance(doc, list):
        raise ParseError(f"{path}: expected a JSON list of detection records")
    cols = _detection_columns(path, doc)
    try:
        _check_detection_ids(cols.ids)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    out = DetectionSet._view(cols)
    logger.info("loaded %d detections from %s", len(out), path)
    return out


def write_detections(dets: DetectionSet, path: str | Path) -> Path:
    cols = dets._cols
    doc = [
        {"detection_id": det_id, "image_id": cols.image_names[k], "bbox": box, "score": score}
        for det_id, k, box, score in zip(
            cols.ids, cols.image.tolist(), cols.boxes.tolist(), cols.scores.tolist())
    ]
    return write_text(path, json.dumps(doc, indent=2) + "\n")


# ------------------------------------------------------------ feature matrices


def _load_features_binary(path: str | Path, blob: mmap.mmap | bytes) -> FeatureMatrix:
    cursor = _Cursor(path, blob, len(FEATURE_MAGIC))
    rows, dim = struct.unpack("<QQ", cursor.take(16, "header"))
    if rows < 1 or dim < 1:
        raise ParseError(f"{path}: header declares empty matrix ({rows}x{dim})")
    # A read-only view of the file's bytes: the payload is never copied.
    data = np.frombuffer(cursor.take(rows * dim * 4, "feature values"), dtype="<f4").reshape(rows, dim)
    # The row ids are read from the bytes without ``cursor.take``, whose error
    # text would be built for every row; on a short read the cursor, moved to
    # the failing offset, raises that error.
    at, size, unpack, ids = cursor.offset, len(blob), _U32.unpack_from, []
    for i in range(rows):
        if size - at < 4:
            cursor.offset = at
            cursor.take(4, f"id length of row {i}")
        (length,) = unpack(blob, at)
        at += 4
        if size - at < length:
            cursor.offset = at
            cursor.take(length, f"id of row {i}")
        try:
            ids.append(blob[at:at + length].decode())
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: row {i} id is not valid UTF-8 ({exc.reason})") from exc
        at += length
    cursor.offset = at
    cursor.end("row ids")
    return FeatureMatrix(data=data, row_ids=tuple(ids))


def _load_features_csv(path: str | Path, blob: mmap.mmap | bytes) -> FeatureMatrix:
    ids: list[str] = []
    rows: list[list[float]] = []
    width: int | None = None
    for lineno, record in _csv_records(path, _decode_text(path, blob)):
        if not record:
            continue
        if len(record) < 2:
            raise ParseError(f"{path}: line {lineno}: expected a row id and at least one value")
        if width is None:
            width = len(record)
        elif len(record) != width:
            raise ParseError(
                f"{path}: line {lineno}: expected {width - 1} values, got {len(record) - 1}"
            )
        row_id = record[0].strip()
        if not row_id:
            raise ParseError(f"{path}: line {lineno}: empty row id")
        values = []
        for col, cell in enumerate(record[1:], start=2):
            try:
                values.append(float(cell))
            except ValueError:
                raise ParseError(f"{path}: line {lineno}, column {col}: not a number: {cell!r}") from None
        ids.append(row_id)
        rows.append(values)
    if not rows:
        raise ParseError(f"{path}: no feature rows")
    return FeatureMatrix(data=np.array(rows, dtype=np.float64), row_ids=tuple(ids))


def load_feature_matrix(path: str | Path) -> FeatureMatrix:
    """Load a feature matrix, sniffing the binary magic and falling back to CSV."""
    blob = _read_bytes(path)
    binary = blob[:len(FEATURE_MAGIC)] == FEATURE_MAGIC
    load = _load_features_binary if binary else _load_features_csv
    try:
        fm = load(path, blob)
    except ValidationError as exc:  # from FeatureMatrix, which names the row
        raise ValidationError(f"{path}: {exc}") from None
    logger.info("loaded %dx%d feature matrix from %s", fm.rows, fm.dim, path)
    return fm


def write_feature_matrix(fm: FeatureMatrix, path: str | Path) -> Path:
    """Write the binary container (float32 payload)."""
    parts = [FEATURE_MAGIC, _U64.pack(fm.rows), _U64.pack(fm.dim)]
    parts.append(np.ascontiguousarray(fm.data, dtype="<f4").tobytes())
    for row_id in fm.row_ids:
        raw = row_id.encode("utf-8")
        parts.append(_U32.pack(len(raw)))
        parts.append(raw)
    return write_bytes(path, b"".join(parts))


def bind_features(dets: DetectionSet, features: FeatureMatrix) -> DetectionSet:
    """Give each detection, by detection id, its row of ``features.data``; a
    detection read from the result has a read-only view of that row.

    Every detection must have a row; missing rows raise BindingError listing
    the ids. Extra rows are permitted and reported as a warning.
    """
    cols = dets._cols
    index = {row_id: i for i, row_id in enumerate(features.row_ids)}
    rows = [index.get(det_id, -1) for det_id in cols.ids]
    if -1 in rows:
        missing = sorted(det_id for det_id, row in zip(cols.ids, rows) if row < 0)
        shown = ", ".join(missing[:10]) + (", ..." if len(missing) > 10 else "")
        raise BindingError(f"{len(missing)} detections have no feature row: {shown}")
    extra = len(index) - len(dets)
    if extra > 0:
        logger.warning("%d feature rows are not referenced by any detection", extra)
    return DetectionSet._view(replace(cols, features=tuple(map(features.data.__getitem__, rows))))


def _unknown_image(dets: DetectionSet, gts: GroundTruthSet) -> tuple[str, str] | None:
    """The id and image id of the first detection whose image ``gts`` does not list."""
    cols = dets._cols
    listed = {im.id for im in gts.images}
    unknown = [k for k, name in enumerate(cols.image_names) if name not in listed]
    if not unknown:
        return None
    first = int(np.isin(cols.image, unknown).argmax())
    return cols.ids[first], cols.image_names[cols.image[first]]
