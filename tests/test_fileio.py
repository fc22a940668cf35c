import os

import pytest

from whamkit import fileio


def test_overlapping_writers_of_one_path_both_succeed(tmp_path):
    path = tmp_path / "f.bin"
    with fileio.atomic_write(path, "wb") as first:
        first.write(b"first " * 100)
        with fileio.atomic_write(path, "wb") as second:
            second.write(b"second " * 100)
        assert path.read_bytes() == b"second " * 100
    # The writer that finishes last wins with its complete bytes.
    assert path.read_bytes() == b"first " * 100
    assert os.listdir(tmp_path) == ["f.bin"]


def test_cleanup_tolerates_a_vanished_temp_file(tmp_path):
    path = tmp_path / "f.txt"
    with pytest.raises(RuntimeError, match="block failed"):
        with fileio.atomic_write(path) as fh:
            fh.write("partial")
            os.unlink(fh.name)
            raise RuntimeError("block failed")
    assert os.listdir(tmp_path) == []


def test_file_gets_the_permissions_of_a_plain_open(tmp_path):
    with open(tmp_path / "plain", "w"):
        pass
    with fileio.atomic_write(tmp_path / "atomic") as fh:
        fh.write("x")
    assert os.stat(tmp_path / "atomic").st_mode == os.stat(tmp_path / "plain").st_mode


def test_relative_path_writes_in_the_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with fileio.atomic_write("out.txt") as fh:
        fh.write("x")
    assert os.listdir(tmp_path) == ["out.txt"]
    assert (tmp_path / "out.txt").read_text() == "x"
