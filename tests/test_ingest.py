import ast
import dataclasses
import functools
import json
import logging
import mmap
import re
import struct
import sys
import tracemalloc
import types
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import t2tmetrics
from t2tmetrics import (
    BindingError,
    BoundingBox,
    Detection,
    DetectionSet,
    FeatureMatrix,
    GroundTruthInstance,
    GroundTruthSet,
    ImageInfo,
    ParseError,
    ValidationError,
    bind_features,
    load_detections,
    load_feature_matrix,
    load_ground_truth,
    write_detections,
    write_feature_matrix,
    write_ground_truth,
)
from t2tmetrics.cli import RunConfig
from t2tmetrics.fsio import _read_bytes, decode
from t2tmetrics.ingest import FEATURE_MAGIC
from t2tmetrics.scenario import ScenarioSpec
from records import detection_set, ground_truth, plain


def gt_doc():
    return {
        "images": [
            {"id": "img-1", "file_name": "a.png", "width": 640, "height": 480},
            {"id": "img-2", "file_name": "b.png", "width": 640, "height": 480},
        ],
        "annotations": [
            {"id": "a", "image_id": "img-1", "bbox": [0, 0, 10, 10]},
            {"id": "b", "image_id": "img-1", "bbox": [20, 20, 5, 8]},
            {"id": "c", "image_id": "img-2", "bbox": [1, 2, 3, 4]},
        ],
    }


def det_doc():
    return [
        {"detection_id": "d1", "image_id": "img-1", "bbox": [0, 0, 10, 10], "score": 0.9},
        {"detection_id": "d2", "image_id": "img-2", "bbox": [1, 2, 3, 4], "score": 0.25},
    ]


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------- bounding box


def test_bbox_validation():
    box = BoundingBox(1.0, 2.0, 3.0, 4.0)
    assert box.area == 12.0
    assert (box.x, box.y, box.w, box.h) == (1.0, 2.0, 3.0, 4.0)
    with pytest.raises(ValidationError):
        BoundingBox(0, 0, 0.0, 5)
    with pytest.raises(ValidationError):
        BoundingBox(0, 0, 5, -1)
    with pytest.raises(ValidationError):
        BoundingBox(float("nan"), 0, 1, 1)


MAX = sys.float_info.max
TINY = sys.float_info.min


@pytest.mark.parametrize("box, message", [
    ((0, 0, 1e200, 1e200), "box area w * h must lie in"),  # area overflows to inf
    ((0, 0, 1e200, 1e199), "box area w * h must lie in"),
    ((0, 0, 1e-200, 1e-200), "box area w * h must lie in"),  # area underflows to 0
    ((0, 0, MAX, 2.0), "box area w * h must lie in"),
    ((0, 0, TINY, 0.5), "box area w * h must lie in"),
    ((MAX / 2, 0, MAX, 1e-300), "box far edges x + w and y + h must be finite"),
    ((0, MAX, 1e-300, MAX / 2**50), "box far edges x + w and y + h must be finite"),
    # Extents below the float spacing at their far edges: iou of the first with
    # itself divided 0 by 0, and of the second overflowed to NaN, clamped to 1.0.
    ((2.0**60, 2.0**60, 192.0, 512 / 3), "box extent is lost to rounding at its position"),
    ((2.0**1000, 2.0**128, 1.4 * 2.0**947, 1.4 * 2.0**75),
     "box extent is lost to rounding at its position"),
    ((-(2.0**60), 0, 1.0, 1.0), "box extent is lost to rounding at its position"),
])
def test_bbox_limits(box, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        BoundingBox(*box)


@pytest.mark.parametrize("box", [
    (0, 0, 2.0, MAX / 4),  # area MAX / 2
    (0, 0, TINY, 1.0),  # area the least normal float
    (-MAX, 0, MAX, 1e-300),  # far edges 0 and 1e-300
    (2.0**60, 0, 1152.0, 1.0),  # x + w rounds: (x + w) - x is 1024, within a quarter of w
])
def test_bbox_limits_are_inclusive(box):
    assert dataclasses.astuple(BoundingBox(*box)) == box


def test_detection_score_range():
    box = BoundingBox(0, 0, 1, 1)
    Detection(detection_id="d", image_id="i", box=box, score=1.0)
    Detection(detection_id="d", image_id="i", box=box, score=0.0)
    with pytest.raises(ValidationError):
        Detection(detection_id="d", image_id="i", box=box, score=1.5)
    with pytest.raises(ValidationError):
        Detection(detection_id="d", image_id="i", box=box, score=float("nan"))


@pytest.mark.parametrize("changes, message", [
    ({"ids": ["g1", "g1"]}, "duplicate ground-truth instance id 'g1'"),
    ({"image_ids": ["im1", "im3"]}, "instance 'g2' references unknown image 'im3'"),
    ({"images": (ImageInfo("im1", "", 8, 8),) * 2}, "duplicate image id 'im1' in ground truth"),
    ({"boxes": [(0, 0, 1, 1), (0, 0, 0, 1)]},
     "instance 'g2': box extent must be positive, got w=0.0, h=1.0"),
    ({"boxes": [(0, 0, 1, 1), (float("nan"), 0, 1, 1)]},
     "instance 'g2': box x must be finite, got nan"),
    ({"boxes": [(0, 0, 1, 1)]}, "boxes must have shape (2, 4), got (1, 4)"),
    ({"image_ids": ["im1"]}, "1 image ids for 2 instance ids"),
], ids=["duplicate id", "unlisted image", "duplicate image", "empty box", "nan box",
        "boxes length", "image ids length"])
def test_ground_truth_set_constructor_refuses_each_broken_invariant(changes, message):
    columns = dict(images=(ImageInfo("im1", "", 8, 8), ImageInfo("im2", "", 8, 8)),
                   ids=["g1", "g2"], image_ids=["im1", "im2"], boxes=[(0, 0, 1, 1)] * 2)
    assert len(GroundTruthSet(**columns)) == 2
    with pytest.raises(ValidationError) as err:
        GroundTruthSet(**{**columns, **changes})
    assert str(err.value) == message


@pytest.mark.parametrize("changes, message", [
    ({"ids": ["d1", "d1"]}, "duplicate detection id 'd1'"),
    ({"boxes": [(0, 0, 1, 1), (0, 0, 1, -1)]},
     "detection 'd2': box extent must be positive, got w=1.0, h=-1.0"),
    ({"boxes": [(0, 0, 1, 1), (2.0**60, 0, 192.0, 1)]},
     "detection 'd2': box extent is lost to rounding at its position"),
    ({"scores": [0.5, 1.5]}, "detection 'd2' score must lie in [0, 1], got 1.5"),
    ({"scores": [-0.1, 0.5]}, "detection 'd1' score must lie in [0, 1], got -0.1"),
    ({"scores": [float("nan"), 0.5]}, "detection 'd1' score must be finite, got nan"),
    ({"scores": [0.5, 0.5, 0.5]}, "scores must have shape (2,), got (3,)"),
    ({"feature_rows": [-1]}, "feature rows must have shape (2,), got (1,)"),
    ({"feature_rows": [0, 1]}, "detection 'd2' feature row 1 is not in [-1, 1)"),
    ({"feature_rows": [-2, 0]}, "detection 'd1' feature row -2 is not in [-1, 1)"),
    ({"features": None, "feature_rows": [0, -1]},
     "detection 'd1' feature row 0 is not in [-1, 0)"),
    ({"feature_rows": [0.0, 0.0]}, "feature rows must be integers, got float64"),
    ({"features": np.ones((1, 2))}, "features must be a FeatureMatrix, got ndarray"),
], ids=["duplicate id", "negative box", "box lost to rounding", "score above 1",
        "negative score", "nan score", "scores length", "features length",
        "feature row past the matrix", "feature row below -1", "feature row with no matrix",
        "float feature rows", "features not a matrix"])
def test_detection_set_constructor_refuses_each_broken_invariant(changes, message):
    columns = dict(ids=["d1", "d2"], image_ids=["im1", "im1"], boxes=[(0, 0, 1, 1)] * 2,
                   scores=[0.5, 0.5], features=FeatureMatrix(np.ones((1, 2)), ("r",)),
                   feature_rows=[0, -1])
    assert len(DetectionSet(**columns)) == 2
    with pytest.raises(ValidationError) as err:
        DetectionSet(**{**columns, **changes})
    assert str(err.value).startswith(message)


# ------------------------------------------------------------------ json files


def test_ground_truth_round_trip(tmp_path):
    path = write_json(tmp_path / "gt.json", gt_doc())
    gts = load_ground_truth(path)
    assert len(gts) == 3
    assert sorted(im.id for im in gts.images) == ["img-1", "img-2"]
    assert [g.instance_id for g in gts.instances if g.image_id == "img-1"] == ["a", "b"]

    out = tmp_path / "copy.json"
    write_ground_truth(gts, out)
    assert plain(load_ground_truth(out)) == plain(gts)


def test_detections_round_trip(tmp_path):
    path = write_json(tmp_path / "det.json", det_doc())
    dets = load_detections(path)
    assert len(dets) == 2
    assert dets.detections[0].score == 0.9

    out = tmp_path / "copy.json"
    write_detections(dets, out)
    reloaded = load_detections(out)
    assert [d.detection_id for d in reloaded.detections] == ["d1", "d2"]
    assert reloaded.detections[1].box == dets.detections[1].box


def test_integer_ids_normalized(tmp_path):
    doc = gt_doc()
    doc["images"].append({"id": 7, "width": 10, "height": 10})
    doc["annotations"].append({"id": 42, "image_id": 7, "bbox": [0, 0, 1, 1]})
    gts = load_ground_truth(write_json(tmp_path / "gt.json", doc))
    assert any(im.id == "7" for im in gts.images)
    assert any(g.instance_id == "42" for g in gts.instances)


def test_malformed_json_names_file(tmp_path):
    path = tmp_path / "gt.json"
    path.write_text('{"images": [')
    with pytest.raises(ParseError) as err:
        load_ground_truth(path)
    assert "gt.json" in str(err.value)


def test_missing_field_names_record(tmp_path):
    doc = det_doc()
    del doc[1]["score"]
    path = write_json(tmp_path / "det.json", doc)
    with pytest.raises(ParseError) as err:
        load_detections(path)
    assert "[1]" in str(err.value)


def test_bad_values_rejected(tmp_path):
    doc = det_doc()
    doc[0]["score"] = 1.2
    with pytest.raises(ValidationError):
        load_detections(write_json(tmp_path / "a.json", doc))

    doc = det_doc()
    doc[0]["bbox"] = [0, 0, 10.0, 0.0]
    with pytest.raises(ValidationError) as err:
        load_detections(write_json(tmp_path / "b.json", doc))
    assert "[0]" in str(err.value)

    doc = gt_doc()
    doc["annotations"][2]["image_id"] = "img-9"
    with pytest.raises(ValidationError) as err:
        load_ground_truth(write_json(tmp_path / "c.json", doc))
    assert "img-9" in str(err.value)

    # Integers too large for a float, which json parses below its digit limit.
    huge = int("9" * 4001)
    doc = det_doc()
    doc[1]["bbox"][2] = huge
    path = write_json(tmp_path / "d.json", doc)
    with pytest.raises(ValidationError) as err:
        load_detections(path)
    assert str(err.value) == f"{path}: detections[1]: bbox value is out of range for a float"

    doc = det_doc()
    doc[0]["score"] = huge
    path = write_json(tmp_path / "e.json", doc)
    with pytest.raises(ValidationError) as err:
        load_detections(path)
    assert str(err.value) == f"{path}: detections[0]: score is out of range for a float"


def test_duplicate_ids_rejected(tmp_path):
    doc = gt_doc()
    doc["annotations"][1]["id"] = "a"
    path = write_json(tmp_path / "a.json", doc)
    with pytest.raises(ValidationError) as err:
        load_ground_truth(path)
    assert str(err.value) == f"{path}: duplicate ground-truth instance id 'a'"

    doc = gt_doc()
    doc["images"][1]["id"] = "img-1"
    path = write_json(tmp_path / "b.json", doc)
    with pytest.raises(ValidationError) as err:
        load_ground_truth(path)
    assert str(err.value) == f"{path}: duplicate image id 'img-1' in ground truth"

    doc = det_doc()
    doc[1]["detection_id"] = "d1"
    path = write_json(tmp_path / "c.json", doc)
    with pytest.raises(ValidationError) as err:
        load_detections(path)
    assert str(err.value) == f"{path}: duplicate detection id 'd1'"

    doc = gt_doc()
    doc["images"][1]["width"] = 0
    path = write_json(tmp_path / "d.json", doc)
    with pytest.raises(ValidationError) as err:
        load_ground_truth(path)
    assert str(err.value) == f"{path}: images[1]: image 'img-2' must have positive size"


@pytest.mark.parametrize("file_name", [None, 12, ["a.png"], False])
def test_a_file_name_that_is_not_a_string_is_refused(tmp_path, file_name):
    doc = gt_doc()
    doc["images"][1]["file_name"] = file_name
    path = write_json(tmp_path / "gt.json", doc)
    with pytest.raises(ValidationError) as err:
        load_ground_truth(path)
    assert str(err.value) == (
        f"{path}: images[1].file_name must be a string, got {type(file_name).__name__}")


def test_an_absent_file_name_is_empty_and_round_trips(tmp_path):
    doc = gt_doc()
    del doc["images"][0]["file_name"]
    gts = load_ground_truth(write_json(tmp_path / "gt.json", doc))
    assert [im.file_name for im in gts.images] == ["", "b.png"]
    written = json.loads(write_ground_truth(gts, tmp_path / "out.json").read_text())
    assert [im["file_name"] for im in written["images"]] == ["", "b.png"]


@pytest.mark.parametrize("loader, doc, message", [
    (load_ground_truth, [], "expected an object with 'images' and 'annotations'"),
    (load_ground_truth, {"images": []}, "expected an object with 'images' and 'annotations'"),
    (load_ground_truth, {"images": {}, "annotations": []},
     "'images' and 'annotations' must be lists"),
    (load_ground_truth, {"images": [gt_doc()["images"][0], "img-2"], "annotations": []},
     "images[1]: expected an object"),
    (load_ground_truth, {"images": [{"id": "img-1", "height": 480}], "annotations": []},
     "images[0]: missing field 'width'"),
    (load_detections, {"detections": det_doc()}, "expected a JSON list of detection records"),
])
def test_documents_of_the_wrong_shape_are_refused_naming_the_file(tmp_path, loader, doc, message):
    path = write_json(tmp_path / "in.json", doc)
    with pytest.raises(ParseError) as err:
        loader(path)
    assert str(err.value) == f"{path}: {message}"


def test_fuzzed_documents_raise_structured_errors(tmp_path):
    # Randomly corrupt one field per document: the loader must raise one of
    # the data errors, never crash with anything else or accept bad values.
    rng = np.random.default_rng(1234)
    bad_values = [None, -3, 1.7, "", [], {"x": 1}, float("nan")]
    for trial in range(100):
        doc = det_doc()
        record = doc[int(rng.integers(0, len(doc)))]
        key = ["detection_id", "image_id", "bbox", "score"][int(rng.integers(0, 4))]
        if rng.random() < 0.5:
            del record[key]
        else:
            record[key] = bad_values[int(rng.integers(0, len(bad_values)))]
        path = write_json(tmp_path / f"fuzz{trial}.json", doc)
        try:
            load_detections(path)
        except (ParseError, ValidationError):
            continue
        # the only substitution that stays legal: an integer identifier
        assert record.get(key) == -3 and key in ("detection_id", "image_id")


# ------------------------------------------------- column checks, error texts
#
# The loaders check records a whole column at a time. This reference checks
# them one at a time with the scalar constructors, the way the loaders did
# before, so every error type and text can be compared.


def scalar_identifier(value, what):
    if isinstance(value, str):
        if not value:
            raise ValidationError(f"{what} must be a non-empty string")
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise ValidationError(f"{what} must be a string or integer, got {type(value).__name__}")


def scalar_number(value, where, what):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: {what} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{where}: {what} is out of range for a float") from None


def scalar_box(raw, where):
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise ParseError(f"{where}: bbox must be a list of four numbers")
    values = [scalar_number(v, where, "bbox value") for v in raw]
    try:
        return BoundingBox(*values)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def scalar_load_detections(path, doc):
    dets = []
    for i, raw in enumerate(doc):
        where = f"{path}: detections[{i}]"
        if not isinstance(raw, dict):
            raise ParseError(f"{where}: expected an object")
        try:
            det_id = scalar_identifier(raw["detection_id"], f"{where}.detection_id")
            score = scalar_number(raw["score"], where, "score")
            image_id = scalar_identifier(raw["image_id"], f"{where}.image_id")
            box = scalar_box(raw["bbox"], where)
        except KeyError as exc:
            raise ParseError(f"{where}: missing field {exc.args[0]!r}") from None
        try:
            dets.append(Detection(image_id=image_id, box=box, score=score, detection_id=det_id))
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None
    try:
        return detection_set(dets)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def scalar_load_instances(path, doc):
    """The ground-truth loader's annotation checks; the documents' images are valid."""
    images = tuple(ImageInfo(im["id"], im["file_name"], im["width"], im["height"])
                   for im in doc["images"])
    instances = []
    for i, raw in enumerate(doc["annotations"]):
        where = f"{path}: annotations[{i}]"
        if not isinstance(raw, dict):
            raise ParseError(f"{where}: expected an object")
        try:
            instances.append(GroundTruthInstance(
                image_id=scalar_identifier(raw["image_id"], f"{where}.image_id"),
                box=scalar_box(raw["bbox"], where),
                instance_id=scalar_identifier(raw["id"], f"{where}.id"),
            ))
        except KeyError as exc:
            raise ParseError(f"{where}: missing field {exc.args[0]!r}") from None
    try:
        return ground_truth(images=images, instances=instances)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def result_or_error(load, *args):
    try:
        return load(*args)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


# Boxes on both sides of every BoundingBox limit (see test_bbox_limits).
LIMIT_BOXES = [
    [0, 0, 2.0, MAX / 4], [0, 0, 2.0, MAX / 2], [0, 0, TINY, 1.0], [0, 0, TINY, 0.5],
    [0, 0, 1e200, 1e200], [0, 0, 1e-200, 1e-200], [-MAX, 0, MAX, 1e-300],
    [MAX / 2, 0, MAX, 1e-300], [0, MAX, 1e-300, MAX / 2**50],
    [2.0**60, 0, 1152.0, 1.0], [2.0**60, 2.0**60, 192.0, 512 / 3], [-(2.0**60), 0, 1.0, 1.0],
    [2.0**1000, 2.0**128, 1.4 * 2.0**947, 1.4 * 2.0**75],
    [0, 0, 0.0, 5], [0, 0, 5, -1], [float("nan"), 0, 1, 1], [0, float("inf"), 1, 1],
    [0, 0, 10**400, 1], [0, 0, 2**70, 2**-70], [-0.0, 0, 1, 1],
]
# Values to plant in each kind of field: limits, wrong types, bools and
# numbers in strings; some of them are valid.
PLANTED = {
    "id": ["", "x", True, False, 1.5, None, [], 7, 2**70],
    "score": [1.5, -0.1, 1 + 2**-52, -(2**-1074), float("nan"), float("inf"), True, "0.5",
              None, -0.0, 0, 1, 10**400],
    "bbox": LIMIT_BOXES + [None, 5, "0,0,1,1", {}, [0, 0, 1], [0, 0, 1, 1, 1], [0, 0, "1", 1],
                           [0, True, 1, 1]],
}


def planted(draw, records, keys):
    """Plant one to three bad or boundary values, in any records and fields of
    ``records``; ``keys[0]`` is the records' id. A record that is no longer an
    object can only be replaced by another non-object."""
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(records) - 1))
        kind = draw(st.sampled_from(["value"] * 4 + ["missing", "not an object", "duplicate"]))
        if kind == "not an object" or not isinstance(records[i], dict):
            records[i] = draw(st.sampled_from([None, 3, "record", [1, 2]]))
        elif kind == "value":
            key = draw(st.sampled_from(keys))
            records[i][key] = draw(st.sampled_from(PLANTED.get(key, PLANTED["id"])))
        elif kind == "missing":
            records[i].pop(draw(st.sampled_from(keys)), None)
        else:
            source = records[draw(st.integers(0, len(records) - 1))]
            if isinstance(source, dict) and keys[0] in source:
                records[i][keys[0]] = source[keys[0]]


@st.composite
def detection_docs(draw):
    n = draw(st.integers(1, 8))
    records = [
        {"detection_id": draw(st.sampled_from([f"d{k}", k])), "image_id": f"im{k % 3}",
         "bbox": [draw(st.integers(-5, 5)), 0.5, draw(st.integers(1, 4)), 2.25],
         "score": draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1]))}
        for k in range(n)
    ]
    planted(draw, records, ["detection_id", "score", "image_id", "bbox"])
    return records


@st.composite
def ground_truth_docs(draw):
    n = draw(st.integers(1, 8))
    records = [
        {"id": draw(st.sampled_from([f"g{k}", k])), "image_id": draw(st.sampled_from(["im0", "im1", 2])),
         "bbox": [0.5, draw(st.integers(-5, 5)), 1.75, draw(st.integers(1, 4))]}
        for k in range(n)
    ]
    planted(draw, records, ["id", "image_id", "bbox"])
    images = [{"id": name, "file_name": "", "width": 8, "height": 8} for name in ("im0", "im1", "2")]
    return {"images": images, "annotations": records}


@settings(max_examples=300, deadline=None)
@given(doc=detection_docs())
def test_detection_loader_raises_the_scalar_loop_errors(tmp_path_factory, doc):
    path = write_json(tmp_path_factory.mktemp("det") / "det.json", doc)
    expected = result_or_error(scalar_load_detections, path, json.loads(path.read_text()))
    got = result_or_error(load_detections, path)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert [(d.detection_id, d.image_id, d.box, d.score) for d in got.detections] == [
            (d.detection_id, d.image_id, d.box, d.score) for d in expected.detections]


@settings(max_examples=300, deadline=None)
@given(doc=ground_truth_docs())
def test_ground_truth_loader_raises_the_scalar_loop_errors(tmp_path_factory, doc):
    path = write_json(tmp_path_factory.mktemp("gt") / "gt.json", doc)
    expected = result_or_error(scalar_load_instances, path, json.loads(path.read_text()))
    got = result_or_error(load_ground_truth, path)
    assert plain(got) == plain(expected)


# -------------------------------------------------------------------- features


def test_feature_binary_round_trip(tmp_path):
    data = np.array([[1.5, -2.25], [0.0, 3.0], [7.5, 0.125]])
    fm = FeatureMatrix(data=data, row_ids=("d1", "d2", "d3"))
    path = tmp_path / "f.t2tfeat"
    write_feature_matrix(fm, path)

    raw = path.read_bytes()
    assert raw.startswith(FEATURE_MAGIC)

    loaded = load_feature_matrix(path)
    assert loaded.row_ids == fm.row_ids
    np.testing.assert_array_equal(loaded.data, data)

    # the writer is deterministic
    again = tmp_path / "g.t2tfeat"
    write_feature_matrix(loaded, again)
    assert again.read_bytes() == raw


def test_feature_binary_quantizes_to_f32(tmp_path):
    data = np.array([[0.1, 1.0 / 3.0]])
    path = tmp_path / "f.t2tfeat"
    write_feature_matrix(FeatureMatrix(data=data, row_ids=("r",)), path)
    loaded = load_feature_matrix(path)
    np.testing.assert_array_equal(loaded.data, data.astype(np.float32).astype(np.float64))


def test_feature_binary_truncation(tmp_path):
    fm = FeatureMatrix(data=np.ones((2, 3)), row_ids=("a", "b"))
    path = tmp_path / "f.t2tfeat"
    write_feature_matrix(fm, path)
    raw = path.read_bytes()

    for cut in (12, len(raw) - 3):
        bad = tmp_path / "cut.t2tfeat"
        bad.write_bytes(raw[:cut])
        with pytest.raises(ParseError) as err:
            load_feature_matrix(bad)
        assert "truncated" in str(err.value)

    padded = tmp_path / "pad.t2tfeat"
    padded.write_bytes(raw + b"\x00")
    with pytest.raises(ParseError) as err:
        load_feature_matrix(padded)
    assert "trailing" in str(err.value)


def test_feature_binary_truncated_row_ids_name_the_row(tmp_path):
    fm = FeatureMatrix(data=np.ones((2, 3)), row_ids=("a", "bcd"))
    path = tmp_path / "f.t2tfeat"
    write_feature_matrix(fm, path)
    raw = path.read_bytes()
    ids_at = len(raw) - (4 + 1 + 4 + 3)  # after the header and the values
    huge = raw[: ids_at + 5] + struct.pack("<I", 2**32 - 1) + b"bcd"
    # A header that declares one row: the reader takes the bytes of the
    # second row's first value, float32 1.0, for the first id's length.
    one_row = raw[:8] + struct.pack("<Q", 1) + raw[16:]
    declared = "(the header declares 2 rows of dim 3)"
    for content, what in [
        (raw[: ids_at + 2], "id length of row 0 needs 4 bytes"),
        (raw[: ids_at + 4], f"id of row 0 needs 1 bytes, 0 left {declared}"),
        (raw[: ids_at + 7], "id length of row 1 needs 4 bytes"),
        (raw[:-1], f"id of row 1 needs 3 bytes, 2 left {declared}"),
        (huge, f"id of row 1 needs 4294967295 bytes, 3 left {declared}"),
        (one_row, "id of row 0 needs 1065353216 bytes, 20 left "
                  "(the header declares 1 rows of dim 3)"),
    ]:
        bad = tmp_path / "bad.t2tfeat"
        bad.write_bytes(content)
        with pytest.raises(ParseError) as err:
            load_feature_matrix(bad)
        assert str(err.value) == f"{bad}: truncated file: {what}"


def test_feature_csv(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("d1,0.5,1.5\nd2,-1.0,2.0\n")
    fm = load_feature_matrix(path)
    assert fm.row_ids == ("d1", "d2")
    np.testing.assert_array_equal(fm.data, [[0.5, 1.5], [-1.0, 2.0]])

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("d1,0.5,1.5\nd2,-1.0\n")
    with pytest.raises(ParseError) as err:
        load_feature_matrix(ragged)
    assert "line 2" in str(err.value)

    # Universal newlines: "\r" ends a line, and "\r\n" counts as one.
    carriage = tmp_path / "carriage.csv"
    carriage.write_bytes(b"d1,0.5,1.5\rd2,-1.0,2.0\r")
    assert load_feature_matrix(carriage).row_ids == ("d1", "d2")
    ragged.write_bytes(b"d1,0.5,1.5\r\nd2,-1.0\r\n")
    with pytest.raises(ParseError) as err:
        load_feature_matrix(ragged)
    assert "line 2" in str(err.value)

    nan = tmp_path / "nan.csv"
    nan.write_text("d1,0.5,nan\n")
    with pytest.raises(ValidationError) as err:
        load_feature_matrix(nan)
    assert "d1" in str(err.value)

    repeated = tmp_path / "repeated.csv"
    repeated.write_text("d1,0.5\nd2,1.0\nd1,2.0\n")
    with pytest.raises(ValidationError) as err:
        load_feature_matrix(repeated)
    assert str(err.value) == f"{repeated}: duplicate row id 'd1' in feature matrix"

    missing = tmp_path / "does-not-exist.csv"
    with pytest.raises(ParseError) as err:
        load_feature_matrix(missing)
    assert "does-not-exist.csv" in str(err.value)


def test_feature_csv_refuses_underscores_in_values_but_not_in_row_ids(tmp_path):
    # float("1_5") is 15.0: a digit-group underscore is refused, not read.
    path = tmp_path / "f.csv"
    path.write_text("d_1,0.5,1.5\nd_2,1_5,2.0\n")
    with pytest.raises(ParseError) as err:
        load_feature_matrix(path)
    assert str(err.value) == f"{path}: line 2, column 2: not a number: '1_5'"

    path.write_text("d_1,0.5,1.5\nd_2,15,2.0\n")
    fm = load_feature_matrix(path)
    assert fm.row_ids == ("d_1", "d_2")
    np.testing.assert_array_equal(fm.data, [[0.5, 1.5], [15.0, 2.0]])


def test_feature_matrix_validation():
    with pytest.raises(ValidationError):
        FeatureMatrix(data=np.ones((2, 2)), row_ids=("a", "a"))
    with pytest.raises(ValidationError):
        FeatureMatrix(data=np.ones((2, 2)), row_ids=("a",))
    with pytest.raises(ValidationError):
        FeatureMatrix(data=np.empty((0, 3)), row_ids=())
    with pytest.raises(ValidationError) as err:
        FeatureMatrix(data=np.array([[1.0], [np.inf]]), row_ids=("a", "b"))
    assert "b" in str(err.value)


def test_bind_features(tmp_path, caplog):
    dets = load_detections(write_json(tmp_path / "det.json", det_doc()))
    fm = FeatureMatrix(data=np.arange(4.0).reshape(2, 2), row_ids=("d1", "d2"))
    bound = bind_features(dets, fm)
    np.testing.assert_array_equal(bound.detections[0].feature, [0.0, 1.0])
    np.testing.assert_array_equal(bound.detections[1].feature, [2.0, 3.0])
    # originals untouched
    assert dets.detections[0].feature is None

    missing = FeatureMatrix(data=np.ones((1, 2)), row_ids=("d1",))
    with pytest.raises(BindingError) as err:
        bind_features(dets, missing)
    assert "d2" in str(err.value)

    extra = FeatureMatrix(data=np.ones((3, 2)), row_ids=("d1", "d2", "zz"))
    with caplog.at_level(logging.WARNING):
        bound = bind_features(dets, extra)
    assert isinstance(bound, DetectionSet)
    assert any("not referenced" in m for m in caplog.messages)


def test_binary_features_are_a_read_only_float32_view_of_the_file(tmp_path):
    path = tmp_path / "f.t2tfeat"
    write_feature_matrix(FeatureMatrix(data=np.arange(6.0).reshape(3, 2), row_ids=("a", "b", "c")), path)
    fm = load_feature_matrix(path)
    assert fm.data.dtype == np.float32
    assert not fm.data.flags.writeable and not fm.data.flags.owndata
    assert fm.data.base is not None
    with pytest.raises(ValueError):
        fm.data[0, 0] = 1.0

    csv = tmp_path / "f.csv"
    csv.write_text("a,0.5,1.5\n")
    fm = load_feature_matrix(csv)
    assert fm.data.dtype == np.float64
    assert not fm.data.flags.writeable


def test_inputs_are_mapped_read_only_and_feature_values_stay_in_the_mapping(tmp_path):
    path = tmp_path / "f.t2tfeat"
    write_feature_matrix(FeatureMatrix(data=np.ones((2, 3)), row_ids=("a", "b")), path)
    blob = _read_bytes(path)
    assert isinstance(blob, mmap.mmap) and blob[:] == path.read_bytes()
    with pytest.raises(TypeError):
        blob[0:1] = b"x"
    # No copy of the file: the values' buffer is the mapping.
    owner = load_feature_matrix(path).data
    while isinstance(owner, np.ndarray):
        owner = owner.base
    assert isinstance(owner.obj, mmap.mmap)

    empty = tmp_path / "empty"  # a file that cannot be mapped is read
    empty.write_bytes(b"")
    assert _read_bytes(empty) == b""


@pytest.mark.parametrize("given, held", [
    (np.float32, np.float32),
    (np.float64, np.float64),
    (np.float16, np.float64),
    (np.int64, np.float64),
])
def test_feature_matrix_keeps_float32_and_float64_and_widens_other_dtypes(given, held):
    data = np.arange(4).reshape(2, 2).astype(given)
    fm = FeatureMatrix(data=data, row_ids=("a", "b"))
    assert fm.data.dtype == held
    assert not fm.data.flags.writeable
    np.testing.assert_array_equal(fm.data, [[0.0, 1.0], [2.0, 3.0]])


def test_bound_features_are_read_only_rows_of_the_one_matrix(tmp_path):
    dets = load_detections(write_json(tmp_path / "det.json", det_doc()))
    path = tmp_path / "f.t2tfeat"
    write_feature_matrix(FeatureMatrix(data=np.arange(4.0).reshape(2, 2), row_ids=("d2", "d1")), path)
    fm = load_feature_matrix(path)
    bound = bind_features(dets, fm)
    for det, row in zip(bound.detections, (fm.data[1], fm.data[0])):
        assert np.shares_memory(det.feature, fm.data)
        np.testing.assert_array_equal(det.feature, row)
        with pytest.raises(ValueError):
            det.feature[0] = -1.0


def test_each_column_is_checked_once_and_binding_checks_none(tmp_path, monkeypatch):
    from t2tmetrics import ingest

    calls = {"_boxes_pass": 0, "_first_repeat": 0, "_check_score": 0, "_located": 0}
    for name in calls:
        def counted(*args, _fn=getattr(ingest, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(ingest, name, counted)

    load_ground_truth(write_json(tmp_path / "gt.json", gt_doc()))
    assert calls["_boxes_pass"] == 1
    calls.update(dict.fromkeys(calls, 0))
    dets = load_detections(write_json(tmp_path / "det.json", det_doc()))
    assert calls["_boxes_pass"] == 1
    assert calls["_first_repeat"] == 1  # the detection ids, once

    fm = FeatureMatrix(data=np.arange(6.0).reshape(3, 2), row_ids=("d2", "x", "d1"))
    calls.update(dict.fromkeys(calls, 0))
    bound = bind_features(dets, fm)
    assert calls == dict.fromkeys(calls, 0)
    # One row column into the one matrix: no per-detection feature objects.
    assert bound.features is fm and np.shares_memory(bound.features.data, fm.data)
    assert bound.feature_rows.dtype == np.intp and bound.feature_rows.tolist() == [2, 0]
    assert [f.name for f in dataclasses.fields(bound)] == [
        "ids", "image_ids", "boxes", "scores", "features", "feature_rows"]


# ------------------------------------------------------------- integer sizes


@pytest.mark.parametrize("key", ["width", "height"])
@pytest.mark.parametrize("value", [640.7, True, "640"])
def test_image_size_must_be_an_integer(tmp_path, key, value):
    doc = gt_doc()
    doc["images"][1][key] = value
    with pytest.raises(ParseError) as err:
        load_ground_truth(write_json(tmp_path / "gt.json", doc))
    assert "gt.json: images[1]: width and height" in str(err.value)


# ------------------------------------------------------- feature header sizes


@pytest.mark.parametrize("rows, dim, body", [
    (2**40, 2**20, b""),
    (2**62, 2**62, b""),
    # 41 bytes: one 3-dim row, then an id length of 2**32 - 1 with one byte left
    (1, 3, bytes(12) + struct.pack("<I", 0xFFFFFFFF) + b"x"),
])
def test_feature_header_sizes_are_checked_against_the_file_size(tmp_path, rows, dim, body):
    path = tmp_path / "crafted.t2tfeat"
    path.write_bytes(FEATURE_MAGIC + struct.pack("<QQ", rows, dim) + body)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            load_feature_matrix(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "crafted.t2tfeat" in str(err.value)
    assert peak < 1 << 20


# --------------------------------------------------------------- typed decoder


def _conforms(value, hint) -> bool:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        return any(_conforms(value, a) for a in args)
    if origin is dict:
        return type(value) is dict and all(
            type(k) is str and _conforms(v, args[1]) for k, v in value.items()
        )
    if origin is tuple:
        return (type(value) is tuple and len(value) == len(args)
                and all(_conforms(v, a) for v, a in zip(value, args)))
    if hint is Path:
        return isinstance(value, Path)
    if hint is type(None):
        return value is None
    return type(value) is hint


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**64, -(2**64), 10**400])
    | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# Values of each declared field type, so that decoding also succeeds often.
field_values = json_values | st.one_of(
    st.integers(0, 60),
    st.floats(0.01, 1.0),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
    st.dictionaries(st.text(max_size=3), st.floats(0.0, 1.0), min_size=1, max_size=2),
)


@pytest.mark.parametrize("cls", [RunConfig, ScenarioSpec])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_decode_yields_declared_types_or_a_validation_error(cls, data):
    # Only decodes: no fuzzed size ever reaches the generator or a metric.
    names = [f.name for f in dataclasses.fields(cls)]
    raw = data.draw(json_values | st.dictionaries(st.sampled_from(names), field_values, max_size=1))
    decoders = [functools.partial(decode, cls, where="fuzz.json")]
    if cls is ScenarioSpec:
        decoders.append(ScenarioSpec.from_dict)
    hints = typing.get_type_hints(cls)
    for decode_fn in decoders:
        try:
            obj = decode_fn(raw)
        except ValidationError:
            continue
        for name in names:
            assert _conforms(getattr(obj, name), hints[name]), (name, getattr(obj, name))


@pytest.mark.parametrize("cls, raw, message", [
    (RunConfig, {"epsilon": 10**400 - 1},
     "epsilon is out of range for a float: 99999999999999999999…(400 digits)"),
    (RunConfig, {"epsilon": -(10**400)},
     "epsilon is out of range for a float: -1000000000000000000…(401 digits)"),
    (RunConfig, {"iou_grid": "x" * 1000},
     "iou_grid must be true or false, got 'xxxxxxxxxxxxxxxxxxx…(1002 characters)"),
    (ScenarioSpec, {"n_gt": int("9" * 30), "n_tp": 1},
     "n_gt must lie in [1, 10000000], got 99999999999999999999…(30 digits)"),
])
def test_decode_errors_show_at_most_20_characters_of_a_value(cls, raw, message):
    with pytest.raises(ValidationError) as err:
        decode(cls, raw, "settings.json")
    assert str(err.value) == f"settings.json: {message}"


# --------------------------------------------------------------- file access


FILE_ACCESS = {"open", "read_bytes", "read_text"}


def _file_access_sites(tree: ast.AST, function: str = ""):
    """(enclosing function, call) of every call that opens or reads a file."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _file_access_sites(node, node.name)
            continue
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            is_json_load = (isinstance(func, ast.Attribute) and func.attr == "load"
                            and isinstance(func.value, ast.Name) and func.value.id == "json")
            if name in FILE_ACCESS or is_json_load:
                yield function, ast.unparse(func)
        yield from _file_access_sites(node, function)


def test_only_fsio_reads_and_writes_files():
    # One read path and one write path: a seventh reader would skip the
    # checks that name the file and turn OS errors into error lines.
    sites = set()
    for module in sorted(Path(t2tmetrics.__file__).parent.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        sites |= {(module.stem, fn, call) for fn, call in _file_access_sites(tree)}
    assert sites == {
        ("fsio", "_read_bytes", "open"),
        ("fsio", "write_bytes", "open"),
    }


def _path_naming_raises(tree: ast.AST, function: str = ""):
    """The enclosing function of every ``raise`` whose f-string holds ``path``
    or ``self.path``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _path_naming_raises(node, node.name)
            continue
        if isinstance(node, ast.Raise) and node.exc is not None:
            if any(isinstance(part, ast.FormattedValue)
                   and ast.unparse(part.value) in ("path", "self.path")
                   for part in ast.walk(node.exc)):
                yield function
        yield from _path_naming_raises(node, function)


def test_only_the_opening_functions_write_a_path_into_an_error():
    # A parser raises text relative to its input, such as `line 4: ...`; the
    # function that reads the file puts its name in front through
    # `fsio._naming`, so no parser can name the file twice or not at all.
    sites = set()
    for module in sorted(Path(t2tmetrics.__file__).parent.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        sites |= {(module.stem, fn) for fn in _path_naming_raises(tree)}
    assert sites == {("fsio", "_read_bytes"), ("fsio", "write_bytes")}
