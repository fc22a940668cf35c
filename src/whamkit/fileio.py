"""Atomic replacement of output files."""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import contextmanager


@contextmanager
def atomic_write(path, mode: str = "w", newline: str | None = None) -> Iterator:
    """Open path + ".tmp" for writing and, once the block completes, move it
    over path. A write that fails partway leaves any previous file at path
    intact and no temporary file behind."""
    tmp_path = os.fspath(path) + ".tmp"
    fh = open(tmp_path, mode, newline=newline)
    try:
        with fh:
            yield fh
        os.replace(tmp_path, path)
    except BaseException:
        os.unlink(tmp_path)
        raise
