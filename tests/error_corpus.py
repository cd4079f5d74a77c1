"""A fixed corpus of malformed inputs, and the exit code and ``error:`` line of each.

Each case is one small valid input with one file changed: the ground truth,
the detections, the test features as ``T2TFEAT`` or as CSV, the training
features as ``T2TFEAT``, the model that ``t2t fit`` wrote from them, which
that kind's runs read with ``--model``, the ``--config`` file, an accuracy
curve, which that kind's runs give to ``t2t replacement``, the ``--spec``
of ``t2t scenario``, or a chart CSV of each kind that ``t2t report`` draws.
Some changes are refused while a file is parsed, some when the detections
are bound to their feature rows or matched, and some are still valid. The
cases derive from a seeded ``random.Random``, so the set of cases is the
same on every run; ``replay`` runs each through ``cli.main`` in process and
returns one record per case, with the input directory shown as ``<dir>``.
``tests/test_error_corpus.py`` compares the records with
``tests/goldens/errors.jsonl``.

Rewrite the golden after an intended change of an error text with::

    PYTHONPATH=src python tests/error_corpus.py

and list, without writing anything, each case whose exit code or ``error:``
line differs from the golden with the following; it exits 1 when it lists
one and 0 when it lists none::

    PYTHONPATH=src python tests/error_corpus.py --diff
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import random
import struct
import sys
import tempfile
from pathlib import Path

from t2tmetrics import load_feature_matrix
from t2tmetrics.cli import main

GOLDEN = Path(__file__).parent / "goldens" / "errors.jsonl"
PLACEHOLDER = "<dir>"
SEED = 2026
CASES_PER_KIND = 60

SPEC = {"n_gt": 8, "n_tp": 6, "n_fp": 4, "feature_dim": 3, "seed": 5, "n_train": 20}
CONFIG = {"iou_threshold": 0.5, "score_thresholds": {"all": 0.01, "high": 0.5},
          "epsilon": 0.001, "bins": 5}
TRAIN = ("--train-features", "train_features.t2tfeat")
MATCHING = ("--gt", "ground_truth.json", "--det", "detections.json", "--config", "run.json")
COMMANDS = ("distances", "ap-t2t", "evaluate")
# The curve the curve kind changes, and the targets its runs look up on it.
CURVE = "count,accuracy\n5,0.2\n10,0.35\n20,0.5\n40,0.62\n80,0.7\n"
TARGETS = ("--target", "0.5", "--target", "10:0.6:0.3")
# The chart CSVs the report kind changes, one per chart kind, as
# `report.export_csv` writes them: a log series with a floored zero, a
# histogram, and bars whose labels need CSV quoting.
CHARTS = {
    "series": "series,x,y,floored\nall,5,0.125,false\nall,10,0,true\nall,20,0.5,false\n"
              "high,5,0.0625,false\nhigh,10,0.25,false\nhigh,20,0.375,false\n",
    "histogram": "bin_lo,bin_hi,count\n0,0.5,3\n0.5,1,0\n1,1.5,7\n1.5,2,2\n",
    "bars": 'label,value\n10,2.5\n"a, b",-1.25\n"say ""x""",4\n',
}


def _matching(name: str, features: str, model: tuple[str, ...]) -> dict:
    return {command: (name, (command, *MATCHING, "--features", features, *model))
            for command in COMMANDS}


def _report(chart: str, *flags: str) -> tuple[str, tuple[str, ...]]:
    return f"{chart}.csv", ("report", "--kind", chart, "--input", f"{chart}.csv", *flags)


# Each kind's commands, and the file each command's cases change with the
# command's arguments, less --out. An argument with a file suffix names a
# file of the input directory. New kinds go last, so that the cases of the
# kinds before them stay the same.
KINDS = {
    "ground truth": _matching("ground_truth.json", "features.t2tfeat", TRAIN),
    "detections": _matching("detections.json", "features.t2tfeat", TRAIN),
    "test T2TFEAT": _matching("features.t2tfeat", "features.t2tfeat", TRAIN),
    "feature CSV": _matching("features.csv", "features.csv", TRAIN),
    "training T2TFEAT": _matching("train_features.t2tfeat", "features.t2tfeat", TRAIN),
    "model": _matching("model.t2tmodl", "features.t2tfeat", ("--model", "model.t2tmodl")),
    "--config": _matching("run.json", "features.t2tfeat", TRAIN),
    "curve CSV": {"replacement": ("curve.csv", ("replacement", "--curve", "curve.csv", *TARGETS))},
    "--spec": {"scenario": ("spec.json", ("scenario", "--spec", "spec.json"))},
    "report CSV": {
        "report --kind series": _report("series"),
        "report --kind series --linear": _report("series", "--linear"),
        "report --kind histogram": _report("histogram"),
        "report --kind bars": _report("bars"),
    },
}
FILES = {name for runs in KINDS.values() for name, _ in runs.values()}

# Values put in place of a JSON field: each is refused somewhere, or is valid
# in some field.
BAD_VALUES = [None, True, False, -1, 0, 1, 2, 1.5, -0.25, 1e308, -1e308, 2**64, 1e-320,
              float("nan"), float("inf"), "", "x", "0.5", "img-0000", "img-9999", [], {},
              [1, 2, 3], [0, 0, 1, 1], [0, 0, -1, 1], [0, 0, 0, 1], [0, 0, 1e308, 1e308],
              [2.0**60, 0, 192.0, 1], [0, 0, 1e-200, 1e-200], ["0", 0, 1, 1], [None] * 4]
BOX_VALUES = [-1.0, 0.0, 1e-320, 1e308, float("inf"), float("nan"), 2.0**60, "1", None, True]
CELL_VALUES = ["nan", "inf", "-inf", "", " ", "abc", "1_0", "0x10", "1e400", "1e-400",
               "+1.5", " 2.5 ", "1,5", '"3"', "-0", "1e38", "3.5e38", "١"]
# Keys a config change sets: every key of CONFIG, two it leaves at their
# defaults, and one that names no setting. No input path is among them, so
# a run never reads a file the case does not write.
CONFIG_KEYS = (*CONFIG, "iou_grid", "ground_truth", "no_such_key")
# Texts put in place of a curve cell.
CURVE_CELLS = ["", " ", "abc", "nan", "inf", "-0.1", "1.5", "1e400", "1e-400", "1/3", "0/0",
               "0.1_5", "10_0", "1e3", "-5", "0", "2.5", "99999999999999999999999999999",
               "0x10", "+0.4", " 0.45 ", "١"]
# Values put in place of a --spec key. Each integer is at most 8 or beyond
# every bound on a size, so an accepted spec asks for a scenario no larger
# than the default ScenarioSpec's: 2**31 + 1 rows or dimensions exceed both
# the count bound and the matrix bound.
SPEC_KEYS = (*SPEC, "tp_distance_scale", "fp_distance_scale", "tp_score_range",
             "fp_score_range", "no_such_key")
SPEC_VALUES = [None, True, -1, 0, 1, 2, 3, 8, 1.5, -0.25, 0.5, 1e308, 1e-320, float("nan"),
               float("inf"), 2**31 + 1, 2**64, "", "x", "3", [], {}, [0.2, 0.9], [0.9, 0.2],
               [0, 1], [0.5], [-0.1, 0.5], [0.5, 1.5], [0.5, None]]
# Texts put in place of a chart CSV cell or header name.
CHART_CELLS = ["", " ", "abc", "nan", "inf", "-inf", "-1", "0", "-0", "7", "1.5", "+2", " 3 ",
               "1e308", "-1e308", "1e400", "1e-400", "1_0", "0x10", "99999999999999999999",
               "true", "a\x01", "\x1b[0m", "a\ufffe", "\u0661", "\u00e9 <&>"]
# Float32 bit patterns put in place of a T2TFEAT value.
F32_PATTERNS = [0x7FC00000, 0x7F800000, 0xFF800000, 0x7F7FFFFF, 0x00000001, 0x80000000,
                0x3F800000, 0x4B000000]


def _byte_edit(rng: random.Random, blob: bytes) -> tuple[str, bytes]:
    """One to three random byte edits, as ``test_cli``'s fuzz makes them."""
    out, done = bytearray(blob), []
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("replace", "insert", "delete", "truncate"))
        at = rng.randrange(len(out) + 1)
        byte = rng.choice(b'{}[]":,.-+0123456789eEnN \x00\xff\n')
        if op == "replace" and at < len(out):
            out[at] = byte
        elif op == "insert":
            out.insert(at, byte)
        elif op == "delete":
            del out[at:at + 1]
        elif op == "truncate":
            del out[at:]
        done.append(f"{op}@{at}:{byte}")
    return "bytes " + " ".join(done), bytes(out)


def _json_edit(rng: random.Random, blob: bytes, sections: tuple[str, ...]) -> tuple[str, bytes]:
    """One change to the records of a JSON document: ``sections`` names its
    record lists, "" for a document that is itself the list."""
    doc = json.loads(blob)
    section = rng.choice(sections)
    records = doc[section] if section else doc
    i = rng.randrange(len(records))
    record = records[i]
    key = rng.choice(sorted(record))
    where = f"{section or 'list'}[{i}]"
    op = rng.choice(("set", "set", "set", "box", "box", "drop", "copy id", "record",
                     "document", "remove", "reorder"))
    if op == "box" and "bbox" not in record:
        op = "set"
    if op == "set":
        value = rng.choice(BAD_VALUES)
        record[key] = value
        what = f"set {where}.{key} = {json.dumps(value)}"
    elif op == "box":
        k, value = rng.randrange(4), rng.choice(BOX_VALUES)
        record["bbox"][k] = value
        what = f"set {where}.bbox[{k}] = {json.dumps(value)}"
    elif op == "drop":
        del record[key]
        what = f"drop {where}.{key}"
    elif op == "copy id":
        other = records[(i + 1) % len(records)]
        id_key = next(k for k in ("detection_id", "id") if k in record)
        record[id_key] = other[id_key]
        what = f"copy the id of the next record into {where}"
    elif op == "record":
        value = rng.choice([5, "x", [], None])
        records[i] = value
        what = f"replace {where} with {json.dumps(value)}"
    elif op == "document":
        doc = rng.choice([[], {}, 1, "x", None, {"images": []}, {"annotations": []},
                          {"images": {}, "annotations": []}])
        what = f"replace the document with {json.dumps(doc)}"
    elif op == "remove":
        del records[i]
        what = f"remove {where}"
    else:
        records.reverse()
        what = f"reverse {section or 'the list'}"
    return what, json.dumps(doc, indent=rng.choice((None, 2))).encode()


def _t2tfeat_edit(rng: random.Random, blob: bytes) -> tuple[str, bytes]:
    """One change to a ``T2TFEAT`` file: to its header, a value, a row id's
    length or bytes, or its end."""
    rows, dim = struct.unpack_from("<QQ", blob, 8)
    values_at = 24
    ids_at = values_at + 4 * rows * dim
    out = bytearray(blob)
    op = rng.choice(("rows", "dim", "value", "value", "id length", "id byte", "id copy",
                     "magic", "tail", "truncate"))
    if op in ("rows", "dim"):
        value = rng.choice((0, 1, rows - 1, rows + 1, dim + 1, 2**40, 2**64 - 1))
        struct.pack_into("<Q", out, 8 if op == "rows" else 16, value)
        what = f"set the header {op} to {value}"
    elif op == "value":
        k, pattern = rng.randrange(rows * dim), rng.choice(F32_PATTERNS)
        struct.pack_into("<I", out, values_at + 4 * k, pattern)
        what = f"set value {k} to the float32 bits {pattern:#010x}"
    else:
        starts, at = [], ids_at
        for _ in range(rows):
            starts.append(at)
            at += 4 + struct.unpack_from("<I", blob, at)[0]
        r = rng.randrange(rows)
        length = struct.unpack_from("<I", blob, starts[r])[0]
        if op == "id length":
            value = rng.choice((0, length - 1, length + 1, 2**31))
            struct.pack_into("<I", out, starts[r], value)
            what = f"set the id length of row {r} to {value}"
        elif op == "id byte":
            k, byte = rng.randrange(length), rng.choice(b"\xff\xc3\x00az-")
            out[starts[r] + 4 + k] = byte
            what = f"set byte {k} of the id of row {r} to {byte}"
        elif op == "id copy":
            other = (r + 1) % rows
            out[starts[r]:starts[r] + 4 + length] = blob[starts[other]:starts[other] + 4 + length]
            what = f"give row {r} the id of row {other}"
        elif op == "magic":
            k = rng.randrange(8)
            out[k] ^= 0x20
            what = f"flip bit 5 of magic byte {k}"
        elif op == "tail":
            extra = rng.choice((b"\x00", b"\x01\x00\x00\x00a", b"junk"))
            out += extra
            what = f"append {extra!r}"
        else:
            at = rng.randrange(len(blob))
            del out[at:]
            what = f"truncate at byte {at}"
    return what, bytes(out)


def _model_edit(rng: random.Random, blob: bytes) -> tuple[str, bytes]:
    """One change to a model file: to its magic, its header's dim, epsilon or
    sample count, its length, one value of the mean or covariance, or one entry
    of the covariance. The stored precision is left alone, as no reader reads
    it; the draws are those of the edits that changed it, mapped onto the
    mean and covariance, so that the cases of the later kinds stay put."""
    (dim,) = struct.unpack_from("<Q", blob, 8)
    values_at = 32
    covariance_at = values_at + 8 * dim
    out = bytearray(blob)
    op = rng.choice(("magic", "dim", "epsilon", "count", "length", "nan", "asymmetric"))
    if op == "magic":
        k = rng.randrange(8)
        out[k] ^= 0x20
        what = f"flip bit 5 of magic byte {k}"
    elif op == "dim":
        value = rng.choice((0, 1, dim - 1, dim + 1, 2**40, 2**64 - 1))
        struct.pack_into("<Q", out, 8, value)
        what = f"set the header dim to {value}"
    elif op == "epsilon":
        value = rng.choice((-1.0, -0.0, 0.0, 5e-324, 1e308, float("inf"), float("nan")))
        struct.pack_into("<d", out, 16, value)
        what = f"set the header epsilon to {value!r}"
    elif op == "count":
        value = rng.choice((0, 1, 2**63, 2**64 - 1))
        struct.pack_into("<Q", out, 24, value)
        what = f"set the header sample count to {value}"
    elif op == "length":
        n = rng.choice((1, 8, 8 * dim))
        if rng.random() < 0.5:
            del out[-n:]
            what = f"drop the last {n} bytes"
        else:
            out += bytes(n)
            what = f"append {n} zero bytes"
    elif op == "nan":
        k = rng.randrange((len(blob) - values_at) // 8) % (dim + dim * dim)
        struct.pack_into("<d", out, values_at + 8 * k, float("nan"))
        what = f"set value {k} after the header to NaN"
    else:
        i, j = rng.sample(range(dim), 2)
        delta = rng.choice((1e-13, 1e-3, 1.0))
        at = covariance_at + 8 * (i * dim + j)
        struct.pack_into("<d", out, at, struct.unpack_from("<d", blob, at)[0] + delta)
        what = f"add {delta!r} to covariance[{i}][{j}]"
    return what, bytes(out)


def _csv_edit(rng: random.Random, blob: bytes) -> tuple[str, bytes]:
    """One change to a feature CSV: to a cell, a row's width, a row id or the rows."""
    lines = blob.decode().splitlines()
    r = rng.randrange(len(lines))
    cells = lines[r].split(",")
    op = rng.choice(("cell", "cell", "cell", "widen", "narrow", "id", "copy id", "remove",
                     "extra row", "blank", "every row", "bytes"))
    if op == "cell":
        k, value = rng.randrange(1, len(cells)), rng.choice(CELL_VALUES)
        cells[k] = value
        lines[r] = ",".join(cells)
        what = f"set line {r + 1} cell {k + 1} to {value!r}"
    elif op == "widen":
        lines[r] += ",0.5"
        what = f"add a value to line {r + 1}"
    elif op == "narrow":
        lines[r] = ",".join(cells[:-1])
        what = f"drop the last value of line {r + 1}"
    elif op == "id":
        value = rng.choice(("", " ", "zz-new", "tp-00000 ", '"fp-00001"'))
        lines[r] = ",".join([value, *cells[1:]])
        what = f"set the id of line {r + 1} to {value!r}"
    elif op == "copy id":
        other = lines[(r + 1) % len(lines)].split(",")[0]
        lines[r] = ",".join([other, *cells[1:]])
        what = f"give line {r + 1} the id of the next line"
    elif op == "remove":
        del lines[r]
        what = f"remove line {r + 1}"
    elif op == "extra row":
        lines.append(",".join(["extra", *cells[1:]]))
        what = "append a row for no detection"
    elif op == "blank":
        lines.insert(r, "")
        what = f"insert a blank line before line {r + 1}"
    elif op == "every row":
        lines = [line + ",0.0" for line in lines]
        what = "add a value to every line"
    else:
        return _byte_edit(rng, blob)
    return what, ("\n".join(lines) + "\n").encode()


def _config_edit(rng: random.Random, blob: bytes) -> tuple[str, bytes]:
    """One change to the run config: to a key's value, a regime's threshold,
    the set of regimes or keys, or the whole document."""
    doc = json.loads(blob)
    op = rng.choice(("set", "set", "set", "regime", "regime", "regimes", "drop", "document"))
    if op == "set":
        key, value = rng.choice(CONFIG_KEYS), rng.choice(BAD_VALUES)
        doc[key] = value
        what = f"set {key} = {json.dumps(value)}"
    elif op == "regime":
        name = rng.choice((*sorted(doc["score_thresholds"]), "new"))
        value = rng.choice(BAD_VALUES)
        doc["score_thresholds"][name] = value
        what = f"set score_thresholds.{name} = {json.dumps(value)}"
    elif op == "regimes":
        n = rng.choice((0, 1, 100, 101))
        doc["score_thresholds"] = {f"r{k}": k / 200 for k in range(n)}
        what = f"set {n} regimes r0 to r{n - 1} at k / 200"
    elif op == "drop":
        key = rng.choice(sorted(doc))
        del doc[key]
        what = f"drop {key}"
    else:
        doc = rng.choice([[], {}, 1, "x", None, [CONFIG]])
        what = f"replace the document with {json.dumps(doc)}"
    return what, json.dumps(doc, indent=rng.choice((None, 2))).encode()


def _curve_edit(rng: random.Random, blob: bytes) -> tuple[str, bytes]:
    """One change to an accuracy curve: to a cell, a row's width, the header,
    the rows, or a run id that splits it into runs."""
    lines = blob.decode().splitlines()
    r = rng.randrange(1, len(lines))
    op = rng.choice(("cell", "cell", "cell", "widen", "narrow", "header", "remove", "repeat",
                     "reverse", "blank", "runs"))
    if op == "cell":
        cells, k, value = lines[r].split(","), rng.randrange(2), rng.choice(CURVE_CELLS)
        cells[k] = value
        lines[r] = ",".join(cells)
        what = f"set line {r + 1} cell {k + 1} to {value!r}"
    elif op == "widen":
        lines[r] += rng.choice((",run-a", ",run-a,x", ","))
        what = f"widen line {r + 1} to {lines[r]!r}"
    elif op == "narrow":
        lines[r] = lines[r].split(",")[0]
        what = f"drop the accuracy of line {r + 1}"
    elif op == "header":
        value = rng.choice(("", "count", "count,accuracy,run", "5,accuracy", "count,0.1"))
        lines[0] = value
        what = f"set the header to {value!r}"
    elif op == "remove":
        n = rng.randint(1, len(lines) - 1)
        del lines[-n:]
        what = f"remove the last {n} lines"
    elif op == "repeat":
        lines.append(lines[r])
        what = f"repeat line {r + 1}"
    elif op == "reverse":
        lines[1:] = reversed(lines[1:])
        what = "reverse the rows"
    elif op == "blank":
        lines.insert(r, "")
        what = f"insert a blank line before line {r + 1}"
    else:
        lines[1:] = [f"{line},{'ab'[k % 2]}" for k, line in enumerate(lines[1:])]
        what = "split the rows into two runs"
    return what, ("\n".join(lines) + "\n").encode()


def _spec_edit(rng: random.Random, blob: bytes) -> tuple[str, bytes]:
    """One change to a scenario spec: to a key's value, the set of keys, or
    the whole document."""
    doc = json.loads(blob)
    op = rng.choice(("set", "set", "set", "set", "drop", "document"))
    if op == "set":
        key, value = rng.choice(SPEC_KEYS), rng.choice(SPEC_VALUES)
        doc[key] = value
        what = f"set {key} = {json.dumps(value)}"
    elif op == "drop":
        key = rng.choice(sorted(doc))
        del doc[key]
        what = f"drop {key}"
    else:
        doc = rng.choice([[], {}, 1, "x", None, [SPEC]])
        what = f"replace the document with {json.dumps(doc)}"
    return what, json.dumps(doc, indent=rng.choice((None, 2))).encode()


def _chart_edit(rng: random.Random, blob: bytes) -> tuple[str, bytes]:
    """One change to a chart CSV: to a cell, a row's width, a header name,
    the header's width, the rows, or every row's width."""
    lines = blob.decode().splitlines()
    header = lines[0].split(",")
    r = rng.randrange(1, len(lines))
    op = rng.choice(("cell", "cell", "cell", "cell", "widen", "narrow", "name", "header",
                     "remove", "repeat", "reverse", "blank", "every row"))
    if op == "cell":
        # The quoted bar labels hold a comma, so a bars row is split by the csv module.
        cells = next(csv.reader([lines[r]]))
        k, value = rng.randrange(len(cells)), rng.choice(CHART_CELLS)
        cells[k] = value
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow(cells)
        lines[r] = buf.getvalue()
        what = f"set line {r + 1} cell {k + 1} to {value!r}"
    elif op == "widen":
        lines[r] += rng.choice((",1", ",", ",true,x"))
        what = f"widen line {r + 1} to {lines[r]!r}"
    elif op == "narrow":
        lines[r] = lines[r].rsplit(",", 1)[0]
        what = f"drop the last cell of line {r + 1}"
    elif op == "name":
        k, value = rng.randrange(len(header)), rng.choice(("", "x", "count", "label", "floored"))
        header[k] = value
        lines[0] = ",".join(header)
        what = f"name column {k + 1} {value!r}"
    elif op == "header":
        value = rng.choice((header[:-1], header + ["extra"], header[::-1], []))
        lines[0] = ",".join(value)
        what = f"set the header to {lines[0]!r}"
    elif op == "remove":
        n = rng.randint(1, len(lines) - 1)
        del lines[-n:]
        what = f"remove the last {n} lines"
    elif op == "repeat":
        lines.append(lines[r])
        what = f"repeat line {r + 1}"
    elif op == "reverse":
        lines[1:] = reversed(lines[1:])
        what = "reverse the rows"
    elif op == "blank":
        lines.insert(r, "")
        what = f"insert a blank line before line {r + 1}"
    else:
        extra = rng.choice(("x", "0"))
        lines = [f"{line},{extra}" for line in lines]
        what = f"add the cell {extra!r} to every line"
    return what, ("\n".join(lines) + "\n").encode()


def build(valid: dict[str, bytes]) -> list[tuple[dict, bytes]]:
    """Every case, as its kind, command and change, and the changed file's
    bytes, made from the ``valid`` files by name."""
    rng = random.Random(SEED)
    built = []
    for kind, runs in KINDS.items():
        for _ in range(CASES_PER_KIND):
            command = rng.choice(tuple(runs)) if len(runs) > 1 else next(iter(runs))
            name = runs[command][0]
            if rng.random() < 0.15:
                change, blob = _byte_edit(rng, valid[name])
            elif name == "ground_truth.json":
                change, blob = _json_edit(rng, valid[name], ("images", "annotations"))
            elif name == "detections.json":
                change, blob = _json_edit(rng, valid[name], ("",))
            elif name.endswith(".t2tfeat"):
                change, blob = _t2tfeat_edit(rng, valid[name])
            elif name.endswith(".t2tmodl"):
                change, blob = _model_edit(rng, valid[name])
            elif name == "run.json":
                change, blob = _config_edit(rng, valid[name])
            elif name == "curve.csv":
                change, blob = _curve_edit(rng, valid[name])
            elif name == "spec.json":
                change, blob = _spec_edit(rng, valid[name])
            elif name == "features.csv":
                change, blob = _csv_edit(rng, valid[name])
            else:
                change, blob = _chart_edit(rng, valid[name])
            built.append(({"kind": kind, "command": command, "change": change}, blob))
    return built


def _run(argv: list[str]) -> tuple[int, list[str]]:
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, stderr.getvalue().splitlines()


def _valid_inputs(root: Path) -> dict[str, bytes]:
    """The valid scenario and its spec, run config, feature CSV and model,
    curve and chart CSVs, written under ``root``."""
    (root / "spec.json").write_text(json.dumps(SPEC))
    code, err = _run(["scenario", "--spec", str(root / "spec.json"), "--out", str(root)])
    assert code == 0, err
    (root / "run.json").write_text(json.dumps(CONFIG))
    code, err = _run(["fit", "--config", str(root / "run.json"), "--train-features",
                      str(root / "train_features.t2tfeat"), "--out", str(root / "model.t2tmodl")])
    assert code == 0, err
    matrix = load_feature_matrix(root / "features.t2tfeat")
    (root / "features.csv").write_text("".join(
        f"{row_id},{','.join(map(repr, row))}\n"
        for row_id, row in zip(matrix.row_ids, matrix.data.tolist())))
    (root / "curve.csv").write_text(CURVE)
    for chart, text in CHARTS.items():
        (root / f"{chart}.csv").write_text(text)
    return {name: (root / name).read_bytes() for name in FILES}


def replay() -> list[dict]:
    """Run every case through ``cli.main``; one record per case, in order."""
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        valid = _valid_inputs(root)
        for case, blob in build(valid):
            name, args = KINDS[case["kind"]][case["command"]]
            out = root / ("out.csv" if args[0] == "distances" else f"out-{args[0]}")
            argv = [str(root / arg) if arg.endswith((".json", ".t2tfeat", ".csv", ".t2tmodl"))
                    else arg for arg in args] + ["--out", str(out)]
            (root / name).write_bytes(blob)
            try:
                code, err = _run(argv)
            finally:
                (root / name).write_bytes(valid[name])
            errors = [line.replace(tmp, PLACEHOLDER) for line in err if line.startswith("error:")]
            if len(errors) > 1 or any("Traceback" in line for line in err):
                raise AssertionError(f"{case}: a traceback or two error lines: {err}")
            records.append({**case, "exit": code, "error": errors[0] if errors else None})
    return records


def dumps(records: list[dict]) -> str:
    return "".join(json.dumps(r, ensure_ascii=False, sort_keys=True) + "\n" for r in records)


def diff(golden: list[dict], records: list[dict]) -> list[str]:
    """One line per case whose outcome differs from the golden: its kind,
    command and change, then the old and the new exit code and ``error:``
    line. A case whose kind, command or change moved is shown whole."""
    lines = []
    if len(golden) != len(records):
        lines.append(f"{len(golden)} golden records, {len(records)} replayed")
    for old, new in zip(golden, records):
        case = {k: old[k] for k in ("kind", "command", "change")}
        if case != {k: new[k] for k in case}:
            lines.append(f"case moved: {json.dumps(old)} -> {json.dumps(new)}")
        elif (old["exit"], old["error"]) != (new["exit"], new["error"]):
            lines.append(f"{old['kind']} | {old['command']} | {old['change']}: "
                         f"{old['exit']} {old['error']} -> {new['exit']} {new['error']}")
    return lines


def run(argv: list[str] | None = None) -> int:
    """Rewrite the golden and return 0; with ``--diff``, print each changed
    case instead, write nothing, and return 1 if a line was printed."""
    parser = argparse.ArgumentParser(description="Replay the error corpus and rewrite its golden.")
    parser.add_argument("--diff", action="store_true",
                        help="print each case whose outcome differs from the golden; write "
                             "nothing; exit 1 if one does")
    if parser.parse_args(argv).diff:
        golden = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
        lines = diff(golden, replay())
        sys.stdout.writelines(line + "\n" for line in lines)
        return 1 if lines else 0
    GOLDEN.write_text(dumps(replay()), encoding="utf-8")
    sys.stdout.write(f"wrote {GOLDEN}\n")
    return 0


if __name__ == "__main__":
    sys.exit(run())
