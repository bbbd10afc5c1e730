"""ioutil durability primitives: atomic replace and durable append."""

import os

import pytest

from repro.ioutil import append_line_durable, atomic_write_text, fsync_directory


def test_atomic_write_text_creates_and_replaces(tmp_path):
    target = tmp_path / "artifact.json"
    atomic_write_text(target, "first")
    assert target.read_text() == "first"
    atomic_write_text(target, "second")
    assert target.read_text() == "second"
    # No temporary droppings left behind.
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


def test_atomic_write_text_failure_leaves_target_untouched(tmp_path, monkeypatch):
    target = tmp_path / "artifact.json"
    atomic_write_text(target, "good")

    def exploding_replace(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(os, "replace", exploding_replace)
    with pytest.raises(OSError):
        atomic_write_text(target, "bad")
    monkeypatch.undo()
    assert target.read_text() == "good"
    # The temp file was cleaned up even on the failure path.
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


def test_atomic_write_text_cleans_up_on_write_failure(tmp_path, monkeypatch):
    target = tmp_path / "artifact.json"
    target.write_text("original")

    def broken_fsync(fd):
        raise OSError("io error")

    monkeypatch.setattr(os, "fsync", broken_fsync)
    with pytest.raises(OSError, match="io error"):
        atomic_write_text(target, "replacement")
    monkeypatch.undo()

    assert target.read_text() == "original"
    assert os.listdir(tmp_path) == [target.name]


def test_append_line_durable_appends_and_terminates_lines(tmp_path):
    target = tmp_path / "log.jsonl"
    append_line_durable(target, "one")
    append_line_durable(target, "two\n")  # explicit newline is not doubled
    append_line_durable(target, "three")
    assert target.read_text() == "one\ntwo\nthree\n"


def test_append_line_durable_creates_the_file(tmp_path):
    target = tmp_path / "sub" / "log.jsonl"
    target.parent.mkdir()
    assert not target.exists()
    append_line_durable(target, "hello")
    assert target.read_text() == "hello\n"


def test_fsync_directory_tolerates_missing_path(tmp_path):
    # A best-effort primitive: a vanished directory must not raise.
    fsync_directory(tmp_path / "never-created")
    fsync_directory(tmp_path)
