"""Atomic output writing.

Every artifact is first written to a ``.tmp`` sibling and renamed into
place on success, so an interrupted or failing run never leaves a
truncated output file behind. An output that cannot be written, such as one
under a regular file or onto a directory, is a ``DataError`` naming its path.
"""

from __future__ import annotations

import os
from pathlib import Path

from .errors import DataError


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
