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
Every input file is read through ``_read_bytes``, including the model file and
the report and curve CSVs that other modules load: a missing file is ``no such
file: PATH``, and any other OS error is a ``ParseError`` naming the path. Text
is decoded once, as UTF-8 with universal newlines, and both binary containers
are read through one bounds-checked ``_Cursor``. Outputs are written through
``fsio.write_bytes`` alone.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
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

    def to_list(self) -> list[float]:
        return [self.x, self.y, self.w, self.h]


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


@dataclass(frozen=True)
class GroundTruthSet:
    images: tuple[ImageInfo, ...]
    instances: tuple[GroundTruthInstance, ...]

    def __post_init__(self) -> None:
        image_ids = [im.id for im in self.images]
        if (repeat := _first_repeat(image_ids)) is not None:
            raise ValidationError(f"duplicate image id {repeat!r} in ground truth")
        known = set(image_ids)
        seen: set[str] = set()
        for inst in self.instances:
            if inst.instance_id in seen:
                raise ValidationError(f"duplicate ground-truth instance id {inst.instance_id!r}")
            seen.add(inst.instance_id)
            if inst.image_id not in known:
                raise ValidationError(
                    f"instance {inst.instance_id!r} references unknown image {inst.image_id!r}"
                )

    def __len__(self) -> int:
        return len(self.instances)

    def instances_by_image(self) -> dict[str, list[GroundTruthInstance]]:
        grouped: dict[str, list[GroundTruthInstance]] = {}
        for inst in self.instances:
            grouped.setdefault(inst.image_id, []).append(inst)
        return grouped


@dataclass(frozen=True)
class DetectionSet:
    detections: tuple[Detection, ...]

    def __post_init__(self) -> None:
        if (repeat := _first_repeat([det.detection_id for det in self.detections])) is not None:
            raise ValidationError(f"duplicate detection id {repeat!r}")

    def __len__(self) -> int:
        return len(self.detections)


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


def _read_bytes(path: str | Path) -> bytes:
    """The bytes of an input file; the one place the package opens an input."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}") from None
    except OSError as exc:  # a directory, a permission, a device error
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from None


def _decode_text(path: str | Path, blob: bytes) -> str:
    """UTF-8 text with universal newlines, as ``Path.read_text`` decodes it."""
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text at byte {exc.start} ({exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


class _Cursor:
    """Reads through a binary container, checking each size taken from the
    file against the bytes left before any use."""

    def __init__(self, path: str | Path, blob: bytes, offset: int) -> None:
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

    instances = []
    for i, raw in enumerate(doc["annotations"]):
        where = f"{path}: annotations[{i}]"
        if not isinstance(raw, dict):
            raise ParseError(f"{where}: expected an object")
        try:
            instances.append(
                GroundTruthInstance(
                    image_id=_as_identifier(raw["image_id"], f"{where}.image_id"),
                    box=_parse_box(raw["bbox"], where),
                    instance_id=_as_identifier(raw["id"], f"{where}.id"),
                )
            )
        except KeyError as exc:
            raise ParseError(f"{where}: missing field {exc.args[0]!r}") from None

    try:
        gts = GroundTruthSet(images=tuple(images), instances=tuple(instances))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    logger.info("loaded %d ground-truth instances over %d images from %s",
                len(gts.instances), len(gts.images), path)
    return gts


def write_ground_truth(gts: GroundTruthSet, path: str | Path) -> Path:
    doc = {
        "images": [
            {"id": im.id, "file_name": im.file_name, "width": im.width, "height": im.height}
            for im in gts.images
        ],
        "annotations": [
            {"id": inst.instance_id, "image_id": inst.image_id, "bbox": inst.box.to_list()}
            for inst in gts.instances
        ],
    }
    return write_text(path, json.dumps(doc, indent=2) + "\n")


# ----------------------------------------------------------------- detections


def load_detections(path: str | Path) -> DetectionSet:
    """Load a detection list; scores outside [0, 1] are rejected, not clamped."""
    doc = _load_json(path)
    if not isinstance(doc, list):
        raise ParseError(f"{path}: expected a JSON list of detection records")
    dets = []
    for i, raw in enumerate(doc):
        where = f"{path}: detections[{i}]"
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
            dets.append(Detection(image_id=image_id, box=box, score=score, detection_id=det_id))
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None
    try:
        out = DetectionSet(detections=tuple(dets))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    logger.info("loaded %d detections from %s", len(out), path)
    return out


def write_detections(dets: DetectionSet, path: str | Path) -> Path:
    doc = [
        {
            "detection_id": det.detection_id,
            "image_id": det.image_id,
            "bbox": det.box.to_list(),
            "score": det.score,
        }
        for det in dets.detections
    ]
    return write_text(path, json.dumps(doc, indent=2) + "\n")


# ------------------------------------------------------------ feature matrices


def _load_features_binary(path: str | Path, blob: bytes) -> FeatureMatrix:
    cursor = _Cursor(path, blob, len(FEATURE_MAGIC))
    rows, dim = struct.unpack("<QQ", cursor.take(16, "header"))
    if rows < 1 or dim < 1:
        raise ParseError(f"{path}: header declares empty matrix ({rows}x{dim})")
    # A read-only view of the file's bytes: the payload is never copied.
    data = np.frombuffer(cursor.take(rows * dim * 4, "feature values"), dtype="<f4").reshape(rows, dim)
    ids = []
    for i in range(rows):
        (length,) = _U32.unpack(cursor.take(4, f"id length of row {i}"))
        try:
            ids.append(str(cursor.take(length, f"id of row {i}"), "utf-8"))
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: row {i} id is not valid UTF-8 ({exc.reason})") from exc
    cursor.end("row ids")
    return FeatureMatrix(data=data, row_ids=tuple(ids))


def _load_features_csv(path: str | Path, blob: bytes) -> FeatureMatrix:
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
    load = _load_features_binary if blob.startswith(FEATURE_MAGIC) else _load_features_csv
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
    """Give each detection, by detection id, a read-only view of its row of
    ``features.data``.

    Every detection must have a row; missing rows raise BindingError listing
    the ids. Extra rows are permitted and reported as a warning.
    """
    index = {row_id: i for i, row_id in enumerate(features.row_ids)}
    missing = sorted(d.detection_id for d in dets.detections if d.detection_id not in index)
    if missing:
        shown = ", ".join(missing[:10]) + (", ..." if len(missing) > 10 else "")
        raise BindingError(f"{len(missing)} detections have no feature row: {shown}")
    extra = len(index) - len(dets)
    if extra > 0:
        logger.warning("%d feature rows are not referenced by any detection", extra)
    bound = tuple(
        replace(det, feature=features.data[index[det.detection_id]])
        for det in dets.detections
    )
    return DetectionSet(detections=bound)
