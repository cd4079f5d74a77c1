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
strings internally and written back as strings. An image's ``file_name`` is a
JSON string, ``""`` when absent. A number in a CSV cell holds no ``_``.
Out-of-range or non-finite values are rejected with an error naming the
offending record, never clamped or repaired.

Reading
-------
This module parses; :mod:`.fsio` reads. Each input file comes from
``fsio._read_bytes`` as a read-only map, JSON documents through
``fsio._load_json`` and CSV records through ``fsio._csv_records``; the
parsers here check each record and build the column sets and feature
matrices. Each loader names its file once, by parsing inside
``fsio._naming(path)``; the parsers below it name only the record, line or
field, as in ``detections[3]: …`` or ``line 4: …``. Outputs are written
through ``fsio.write_bytes`` alone.

Each column is checked once. The public constructors check every column
they are given; the loaders check each field as a column and then build
through the private ``_built`` paths, which run only what no field check
covers: repeated ids and, for ground truth, the image listing.
``bind_features`` checks nothing, as its set and matrix are both checked.
A bound ``DetectionSet`` holds the ``FeatureMatrix`` and each detection's
row of it (intp, -1 for none); the distance kernel gathers one block's rows
at a time by this index, and ``Detection.feature`` is a view of the row.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import math
import mmap
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import BindingError, ParseError, ValidationError
from .fsio import (
    _csv_number,
    _csv_records,
    _Cursor,
    _decode_text,
    _load_json,
    _naming,
    _read_bytes,
    write_bytes,
    write_text,
)

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


def _check_score(score: float, detection_id: str) -> float:
    """``score`` as a float, refused unless it is finite and lies in [0, 1]."""
    score = _require_finite(score, f"detection {detection_id!r} score")
    if not 0.0 <= score <= 1.0:
        raise ValidationError(f"detection {detection_id!r} score must lie in [0, 1], got {score}")
    return score


@dataclass(frozen=True, eq=False)
class Detection:
    """One detector output; ``feature`` is a read-only view of the detection's
    row of the bound ``FeatureMatrix``, or None when none is bound."""

    image_id: str
    box: BoundingBox
    score: float
    detection_id: str
    feature: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "score", _check_score(self.score, self.detection_id))


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


def _column(values, shape: tuple[int, ...], what: str, dtype: type = np.float64) -> np.ndarray:
    """``values`` as an array of ``dtype`` and ``shape``."""
    column = np.asarray(values, dtype=dtype)
    if column.shape != shape:
        if column.size or math.prod(shape):
            raise ValidationError(f"{what} must have shape {shape}, got {column.shape}")
        column = column.reshape(shape)
    return column


def _shared(image_ids) -> list[str]:
    """``image_ids`` as a list that holds one string object per distinct id,
    however many records name it."""
    shared: dict[str, str] = {}
    return [shared.setdefault(name, name) for name in image_ids]


def _located(ids, image_ids, boxes, what: str) -> tuple[list[str], list[str], np.ndarray]:
    """The id and image id columns of ``what`` records as lists, and their
    (n, 4) float64 boxes; the first box that fails a ``BoundingBox`` check
    raises its error, naming its record."""
    ids, image_ids = list(ids), list(image_ids)
    if len(image_ids) != len(ids):
        raise ValidationError(f"{len(image_ids)} image ids for {len(ids)} {what} ids")
    boxes = _column(boxes, (len(ids), 4), "boxes")
    refused = ~_boxes_pass(boxes)
    if refused.any():
        k = int(refused.argmax())
        with _naming(f"{what} {ids[k]!r}"):
            BoundingBox(*boxes[k].tolist())
    return ids, image_ids, boxes


@dataclass(frozen=True, eq=False)
class GroundTruthSet:
    """Images and their annotated instances, the instances held as columns.

    ``ids``, ``image_ids`` and the (n, 4) float64 ``boxes`` of (x, y, w, h)
    hold one entry per instance. The constructor checks every box as
    ``BoundingBox`` does, that image and instance ids are unique and that
    every instance's image is listed; ``image_index`` is then the position of
    each instance's image in ``images``.
    """

    images: tuple[ImageInfo, ...]
    ids: list[str]
    image_ids: list[str]
    boxes: np.ndarray
    image_index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._index(*_located(self.ids, self.image_ids, self.boxes, "instance"))

    @classmethod
    def _built(cls, images, ids, image_ids, boxes) -> GroundTruthSet:
        """The set of columns whose boxes passed every box check; only the
        image and id checks run."""
        gts = object.__new__(cls)
        object.__setattr__(gts, "images", images)
        gts._index(ids, image_ids, boxes)
        return gts

    def _index(self, ids: list[str], image_ids: list[str], boxes: np.ndarray) -> None:
        """Check the image and instance ids, then set the columns and image positions."""
        listed = [im.id for im in self.images]
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
        for name, value in (("ids", ids), ("image_ids", _shared(image_ids)), ("boxes", boxes),
                            ("image_index", np.array(at, dtype=np.intp)),
                            ("_image_position", position)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.ids)

    @functools.cached_property
    def instances(self) -> tuple[GroundTruthInstance, ...]:
        """The instances as records, built from the columns on first read."""
        return tuple(
            GroundTruthInstance(image_id=image_id, box=BoundingBox(*box), instance_id=inst_id)
            for inst_id, image_id, box in zip(self.ids, self.image_ids, self.boxes.tolist())
        )


@dataclass(frozen=True, eq=False)
class DetectionSet:
    """Detections held as columns, one entry per detection.

    ``boxes`` is (n, 4) float64 of (x, y, w, h) and ``scores`` is float64.
    ``features`` is the bound ``FeatureMatrix`` or None, and the intp
    ``feature_rows`` holds each detection's row of it, -1 for a detection
    with no feature; ``None`` leaves every detection unbound. The
    constructor checks every box as ``BoundingBox`` does, every score as
    ``Detection`` does, that no detection id repeats, and that every feature
    row lies in [-1, features.rows).
    """

    ids: list[str]
    image_ids: list[str]
    boxes: np.ndarray
    scores: np.ndarray
    features: FeatureMatrix | None = None
    feature_rows: np.ndarray | None = None

    def __post_init__(self) -> None:
        ids, image_ids, boxes = _located(self.ids, self.image_ids, self.boxes, "detection")
        scores = _column(self.scores, (len(ids),), "scores")
        refused = ~((scores >= 0.0) & (scores <= 1.0))
        if refused.any():
            k = int(refused.argmax())
            _check_score(scores[k], ids[k])
        _check_detection_ids(ids)
        features, rows = self.features, self.feature_rows
        if not isinstance(features, (FeatureMatrix, type(None))):
            raise ValidationError(
                f"features must be a FeatureMatrix, got {type(features).__name__}")
        if rows is not None:
            rows = np.asarray(rows)
            if rows.size and rows.dtype.kind not in "iu":
                raise ValidationError(f"feature rows must be integers, got {rows.dtype}")
            rows = _column(rows, (len(ids),), "feature rows", rows.dtype)
            limit = 0 if features is None else features.rows
            refused = (rows < -1) | (rows >= limit)
            if refused.any():
                k = int(refused.argmax())
                raise ValidationError(
                    f"detection {ids[k]!r} feature row {rows[k]} is not in [-1, {limit})")
            rows = rows.astype(np.intp)
        self._fill(ids, _shared(image_ids), boxes, scores, features, rows)

    @classmethod
    def _built(cls, *columns) -> DetectionSet:
        """The set of columns that already passed every check, built without one."""
        dets = object.__new__(cls)
        dets._fill(*columns)
        return dets

    def _fill(self, ids, image_ids, boxes, scores, features=None, feature_rows=None) -> None:
        if feature_rows is None:
            feature_rows = np.full(len(ids), -1, dtype=np.intp)
        for name, value in (("ids", ids), ("image_ids", image_ids), ("boxes", boxes),
                            ("scores", scores), ("features", features),
                            ("feature_rows", feature_rows)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.ids)

    @functools.cached_property
    def id_rank(self) -> np.ndarray:
        """The position of each id in Python's string order (numpy strings drop
        trailing NULs, so numpy cannot order these ids)."""
        rank = np.empty(len(self.ids), dtype=np.intp)
        rank[sorted(range(len(self.ids)), key=self.ids.__getitem__)] = np.arange(len(self.ids))
        return rank

    @functools.cached_property
    def detections(self) -> tuple[Detection, ...]:
        """The detections as records, built from the columns on first read."""
        data = None if self.features is None else self.features.data
        return tuple(
            Detection(image_id=image_id, box=BoundingBox(*box), score=score,
                      detection_id=det_id, feature=None if row < 0 else data[row])
            for det_id, image_id, box, score, row in zip(
                self.ids, self.image_ids, self.boxes.tolist(), self.scores.tolist(),
                self.feature_rows.tolist())
        )


def _check_detection_ids(ids: list[str]) -> None:
    if (repeat := _first_repeat(ids)) is not None:
        raise ValidationError(f"duplicate detection id {repeat!r}")


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


# ---------------------------------------------------------------- ground truth


def _parse_box(raw: object, where: str) -> BoundingBox:
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise ParseError(f"{where}: bbox must be a list of four numbers")
    vals = [_json_number(v, where, "bbox value") for v in raw]
    with _naming(where):
        return BoundingBox(*vals)


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


# A record type is a table of (JSON key, field kind) pairs. A field kind pairs
# a column check, which gives a whole column or None when it refuses a value,
# with the scalar check of one value, ``check(value, where, key)``, which
# raises the error text. ``_record_columns`` checks each field a column at a
# time, then the rows by a mask. When a check refuses a record, the records are
# checked one at a time from the first one refused (0 when a field is missing
# or of the wrong type): each field in table order by its scalar check, then
# the record's own last check. A column check refuses only what a scalar
# check refuses, so that walk always raises.
_ID = (_identifiers, lambda value, where, key: _as_identifier(value, f"{where}.{key}"))
_NUMBER = (_numbers, _json_number)
_BOX = (_box_array, lambda value, where, key: _parse_box(value, where))

_ANNOTATION_FIELDS = (("image_id", _ID), ("bbox", _BOX), ("id", _ID))
_DETECTION_FIELDS = (("detection_id", _ID), ("score", _NUMBER), ("image_id", _ID), ("bbox", _BOX))


def _record_columns(section: str, records: list, fields: tuple, passes, check=None) -> list:
    """The column of each of ``fields`` over ``records`` when every record
    passes every check; otherwise the first record refused raises its error.

    ``passes`` gives the row mask of the columns, and ``check``, if given, is
    called with a record's scalar values after its fields pass.
    """
    first, columns = 0, [None]
    if set(map(type, records)) <= {dict}:
        try:
            columns = [column([r[key] for r in records]) for key, (column, _) in fields]
        except KeyError:  # a record lacks a field
            pass
    if all(c is not None for c in columns):
        refused = ~passes(*columns)
        if not refused.any():
            return columns
        first = int(refused.argmax())
    for i in range(first, len(records)):
        where = f"{section}[{i}]"
        raw = records[i]
        if not isinstance(raw, dict):
            raise ParseError(f"{where}: expected an object")
        try:
            scalars = [scalar(raw[key], where, key) for key, (_, scalar) in fields]
        except KeyError as exc:
            raise ParseError(f"{where}: missing field {exc.args[0]!r}") from None
        if check is not None:
            with _naming(where):
                check(*scalars)
    raise AssertionError("a column check refused a record that its record check passes")


def load_ground_truth(path: str | Path) -> GroundTruthSet:
    """Load a ground-truth document, rejecting malformed or invalid records.

    Raises:
        ParseError: structural problems (wrong JSON shape, missing fields).
        ValidationError: well-formed records violating invariants
            (non-positive boxes, duplicate ids, dangling image references).
    """
    doc = _load_json(path)
    with _naming(path):
        if not isinstance(doc, dict) or "images" not in doc or "annotations" not in doc:
            raise ParseError("expected an object with 'images' and 'annotations'")
        if not isinstance(doc["images"], list) or not isinstance(doc["annotations"], list):
            raise ParseError("'images' and 'annotations' must be lists")

        images = []
        for i, raw in enumerate(doc["images"]):
            where = f"images[{i}]"
            if not isinstance(raw, dict):
                raise ParseError(f"{where}: expected an object")
            try:
                size = (raw["width"], raw["height"])
                if not all(type(v) is int for v in size):
                    raise ParseError(f"{where}: width and height must be integers, got {size}")
                image_id = _as_identifier(raw["id"], f"{where}.id")
            except KeyError as exc:
                raise ParseError(f"{where}: missing field {exc.args[0]!r}") from None
            file_name = raw.get("file_name", "")
            if not isinstance(file_name, str):
                raise ValidationError(
                    f"{where}.file_name must be a string, got {type(file_name).__name__}")
            with _naming(where):
                images.append(ImageInfo(image_id, file_name, *size))

        image_ids, boxes, ids = _record_columns(
            "annotations", doc["annotations"], _ANNOTATION_FIELDS,
            lambda _, boxes, __: _boxes_pass(boxes))
        gts = GroundTruthSet._built(tuple(images), ids, image_ids, boxes)
    logger.info("loaded %d ground-truth instances over %d images from %s",
                len(gts), len(gts.images), path)
    return gts


def write_ground_truth(gts: GroundTruthSet, path: str | Path) -> Path:
    doc = {
        "images": [
            {"id": im.id, "file_name": im.file_name, "width": im.width, "height": im.height}
            for im in gts.images
        ],
        "annotations": [
            {"id": inst_id, "image_id": image_id, "bbox": box}
            for inst_id, image_id, box in zip(gts.ids, gts.image_ids, gts.boxes.tolist())
        ],
    }
    return write_text(path, json.dumps(doc, indent=2) + "\n")


# ----------------------------------------------------------------- detections


def load_detections(path: str | Path) -> DetectionSet:
    """Load a detection list; scores outside [0, 1] are rejected, not clamped."""
    doc = _load_json(path)
    with _naming(path):
        if not isinstance(doc, list):
            raise ParseError("expected a JSON list of detection records")
        ids, scores, image_ids, boxes = _record_columns(
            "detections", doc, _DETECTION_FIELDS,
            lambda _, scores, __, boxes: _boxes_pass(boxes) & (scores >= 0.0) & (scores <= 1.0),
            lambda det_id, score, image_id, box: _check_score(score, det_id))
        _check_detection_ids(ids)
        out = DetectionSet._built(ids, _shared(image_ids), boxes, scores)
    logger.info("loaded %d detections from %s", len(out), path)
    return out


def write_detections(dets: DetectionSet, path: str | Path) -> Path:
    doc = [
        {"detection_id": det_id, "image_id": image_id, "bbox": box, "score": score}
        for det_id, image_id, box, score in zip(
            dets.ids, dets.image_ids, dets.boxes.tolist(), dets.scores.tolist())
    ]
    return write_text(path, json.dumps(doc, indent=2) + "\n")


# ------------------------------------------------------------ feature matrices


def _load_features_binary(blob: mmap.mmap | bytes) -> FeatureMatrix:
    cursor = _Cursor(blob, len(FEATURE_MAGIC))
    rows, dim = struct.unpack("<QQ", cursor.take(16, "header"))
    if rows < 1 or dim < 1:
        raise ParseError(f"header declares empty matrix ({rows}x{dim})")
    # A read-only view of the file's bytes: the payload is never copied.
    data = np.frombuffer(cursor.take(rows * dim * 4, "feature values"), dtype="<f4").reshape(rows, dim)
    # The row ids are read from the bytes without ``cursor.take``, whose error
    # text would be built for every row; on a short id length the cursor,
    # moved to the failing offset, raises that error.
    at, size, unpack, ids = cursor.offset, len(blob), _U32.unpack_from, []
    for i in range(rows):
        if size - at < 4:
            cursor.offset = at
            cursor.take(4, f"id length of row {i}")
        (length,) = unpack(blob, at)
        at += 4
        if size - at < length:
            raise ParseError(f"truncated file: id of row {i} needs {length} bytes, {size - at} "
                             f"left (the header declares {rows} rows of dim {dim})")
        try:
            ids.append(blob[at:at + length].decode())
        except UnicodeDecodeError as exc:
            raise ParseError(f"row {i} id is not valid UTF-8 ({exc.reason})") from None
        at += length
    cursor.offset = at
    cursor.end("row ids")
    return FeatureMatrix(data=data, row_ids=tuple(ids))


def _load_features_csv(blob: mmap.mmap | bytes) -> FeatureMatrix:
    try:
        text = _decode_text(blob)
    except ParseError as exc:  # most often a T2TFEAT file with a damaged magic
        raise ParseError(f"neither T2TFEAT (starts with {bytes(blob[:8])!r}, not "
                         f"{FEATURE_MAGIC!r}) nor CSV text: {exc}") from None
    ids: list[str] = []
    rows: list[list[float]] = []
    width: int | None = None
    for lineno, record in _csv_records(text):
        if not record:
            continue
        if len(record) < 2:
            raise ParseError(f"line {lineno}: expected a row id and at least one value")
        if width is None:
            width = len(record)
        elif len(record) != width:
            raise ParseError(f"line {lineno}: expected {width - 1} values, got {len(record) - 1}")
        row_id = record[0].strip()
        if not row_id:
            raise ParseError(f"line {lineno}: empty row id")
        values = []
        for col, cell in enumerate(record[1:], start=2):
            try:
                values.append(_csv_number(float, cell))
            except ValueError:
                raise ParseError(f"line {lineno}, column {col}: not a number: {cell!r}") from None
        ids.append(row_id)
        rows.append(values)
    if not rows:
        raise ParseError("no feature rows")
    return FeatureMatrix(data=np.array(rows, dtype=np.float64), row_ids=tuple(ids))


def load_feature_matrix(path: str | Path) -> FeatureMatrix:
    """Load a feature matrix, sniffing the binary magic and falling back to CSV."""
    blob = _read_bytes(path)
    binary = blob[:len(FEATURE_MAGIC)] == FEATURE_MAGIC
    load = _load_features_binary if binary else _load_features_csv
    with _naming(path):
        fm = load(blob)
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
    """Bind ``features`` to ``dets``: each detection's row is the row of its
    detection id. A detection read from the result has a read-only view of
    that row.

    Every detection must have a row; missing rows raise BindingError listing
    the ids. Extra rows are permitted and reported as a warning.
    """
    index = {row_id: i for i, row_id in enumerate(features.row_ids)}
    rows = np.fromiter(map(index.get, dets.ids, itertools.repeat(-1)), dtype=np.intp,
                       count=len(dets))
    if (rows < 0).any():
        missing = sorted(map(dets.ids.__getitem__, np.flatnonzero(rows < 0).tolist()))
        shown = ", ".join(missing[:10]) + (", ..." if len(missing) > 10 else "")
        raise BindingError(f"{len(missing)} detections have no feature row: {shown}")
    extra = len(index) - len(dets)
    if extra > 0:
        logger.warning("%d feature rows are not referenced by any detection", extra)
    return DetectionSet._built(dets.ids, dets.image_ids, dets.boxes, dets.scores, features, rows)
