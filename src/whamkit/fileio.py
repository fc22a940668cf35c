"""Atomic replacement of output files."""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager, suppress


@contextmanager
def atomic_write(path, mode: str = "w", newline: str | None = None) -> Iterator:
    """Open a new temporary file next to path for writing and, once the
    block completes, move it over path. A write that fails partway leaves
    any previous file at path intact and no temporary file behind. Each
    writer has its own temporary file, so overlapping writers of one path
    all succeed and path ends up holding one writer's complete bytes. The
    file gets the permissions a plain open would give it."""
    path = os.fspath(path)
    fd, tmp_path = tempfile.mkstemp(prefix=os.path.basename(path) + ".",
                                    suffix=".tmp", dir=os.path.dirname(path) or ".")
    os.close(fd)
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_path, 0o666 & ~umask)
        with open(tmp_path, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp_path, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp_path)
        raise
