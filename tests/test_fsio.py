import os
import re

import pytest

from t2tmetrics import DataError, fsio


def test_write_text_creates_parents(tmp_path):
    target = tmp_path / "a" / "b" / "out.txt"
    assert fsio.write_text(target, "hello\n") == target
    assert target.read_text() == "hello\n"
    assert list(target.parent.iterdir()) == [target]


def test_write_bytes_overwrites(tmp_path):
    target = tmp_path / "out.bin"
    fsio.write_bytes(target, b"old")
    fsio.write_bytes(target, b"new")
    assert target.read_bytes() == b"new"


def test_failed_replace_leaves_nothing_behind(tmp_path, monkeypatch):
    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", boom)
    target = tmp_path / "out.txt"
    with pytest.raises(DataError, match=re.escape(f"{target}: cannot write: disk full")):
        fsio.write_text(target, "half-written")
    assert list(tmp_path.iterdir()) == []


def test_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    target = tmp_path / "out.txt"
    fsio.write_text(target, "first")

    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(DataError, match=re.escape(f"{target}: cannot write: disk full")):
        fsio.write_text(target, "second")
    assert target.read_text() == "first"
    assert list(tmp_path.iterdir()) == [target]
