"""Generation rotation: publish/attach, GC, mmap pinning, torn publishes.

The cluster's correctness rests on three filesystem facts this battery
pins down: a reader following ``CURRENT`` always lands on a complete
RTCF file; unlinking a generation a reader still maps never invalidates
its pages; and a crash anywhere inside a publish leaves the *previous*
generation serving.
"""

from __future__ import annotations

import os

import pytest

from repro.core.hybrid import HybridTCIndex
from repro.errors import ReproError, SimulatedCrash
from repro.server.generations import (CURRENT_NAME, GenerationStore,
                                      generation_name, parse_generation)
from repro.testing.faults import FaultyFS

ARCS_V0 = [("a", "b"), ("b", "c")]
ARCS_V1 = [("a", "b"), ("b", "c"), ("c", "d")]


def _frozen(arcs):
    return HybridTCIndex.from_arcs(arcs).snapshot()


def test_generation_names_round_trip():
    assert generation_name(17) == "gen-17.rtcf"
    assert parse_generation("gen-17.rtcf") == 17
    assert parse_generation("gen-x.rtcf") is None
    assert parse_generation("checkpoint-3.rtcf") is None


def test_publish_then_attach_round_trip(tmp_path):
    store = GenerationStore(tmp_path)
    name = store.publish(_frozen(ARCS_V0), 0)
    assert name == "gen-0.rtcf"
    assert store.current() == (0, "gen-0.rtcf")
    epoch, attached_name, view = store.attach()
    assert (epoch, attached_name) == (0, "gen-0.rtcf")
    assert bool(view.reachable("a", "c")) is True
    assert bool(view.reachable("c", "a")) is False


def test_attach_without_any_generation_is_a_clear_error(tmp_path):
    store = GenerationStore(tmp_path)
    with pytest.raises(ReproError):
        store.attach()


def test_epoch_comes_from_the_filename(tmp_path):
    """Serve epochs count publishes, not the index's header epoch."""
    store = GenerationStore(tmp_path)
    store.publish(_frozen(ARCS_V0), 7)
    epoch, name, _ = store.attach()
    assert (epoch, name) == (7, "gen-7.rtcf")


def test_rotation_keeps_newest_generations(tmp_path):
    store = GenerationStore(tmp_path, keep=2)
    for epoch in range(5):
        store.publish(_frozen(ARCS_V0 if epoch % 2 else ARCS_V1), epoch)
    assert [name for _, name in store.generations()] == \
        ["gen-3.rtcf", "gen-4.rtcf"]
    assert store.current() == (4, "gen-4.rtcf")
    assert not (tmp_path / "gen-0.rtcf").exists()


def test_old_mmap_survives_garbage_collection(tmp_path):
    """A reader attached to a swept generation keeps answering.

    POSIX keeps an unlinked file's pages alive while mapped, so the
    writer's GC never has to wait for readers — exactly what lets
    workers re-attach at their own pace mid-query.
    """
    store = GenerationStore(tmp_path, keep=1)
    store.publish(_frozen(ARCS_V0), 0)
    _, _, old_view = store.attach()
    for epoch in range(1, 4):
        store.publish(_frozen(ARCS_V1), epoch)
    assert not (tmp_path / "gen-0.rtcf").exists()  # really unlinked
    # The in-flight reader still answers from the unlinked epoch-0 file.
    assert old_view.reachable("a", "c")
    assert "d" not in old_view
    # A fresh attach sees the new world.
    _, _, new_view = store.attach()
    assert new_view.reachable("a", "d")


def test_current_is_never_garbage_collected(tmp_path):
    store = GenerationStore(tmp_path, keep=1)
    store.publish(_frozen(ARCS_V0), 0)
    store.publish(_frozen(ARCS_V1), 1)
    removed = store.collect_garbage()
    assert "gen-1.rtcf" not in removed
    assert store.attach()[0] == 1


def test_publish_sets_the_shared_epoch_word(tmp_path):
    """A reader's mapping of ``EPOCH`` sees each publish without
    re-reading any file; a later cluster's generation 0 resets it."""
    writer = GenerationStore(tmp_path)
    writer.publish(_frozen(ARCS_V0), 0)
    reader = GenerationStore(tmp_path)
    assert reader.published_epoch() == 0
    writer.publish(_frozen(ARCS_V1), 5)
    assert reader.published_epoch() == 5
    GenerationStore(tmp_path).publish(_frozen(ARCS_V0), 0)
    assert reader.published_epoch() == 0


class TestTornPublish:
    def test_crash_before_current_rename_keeps_old_generation(self, tmp_path):
        """The ISSUE's torn-publish case: gen file written, CURRENT not
        yet swung.  Readers must keep serving the previous generation."""
        GenerationStore(tmp_path).publish(_frozen(ARCS_V0), 1)
        faulty = FaultyFS(crash_at="current.pre-rename")
        torn = GenerationStore(tmp_path, fs=faulty)
        with pytest.raises(SimulatedCrash):
            torn.publish(_frozen(ARCS_V1), 2)
        # Recovery view: a process re-opening the store after the crash.
        store = GenerationStore(tmp_path)
        assert store.current() == (1, "gen-1.rtcf")
        epoch, _, view = store.attach()
        assert epoch == 1
        assert "d" not in view  # the torn epoch-2 state is invisible
        assert store.published_epoch() == 1  # the word never runs ahead

    def test_crash_during_generation_write_keeps_old_generation(
            self, tmp_path):
        faulty = FaultyFS(crash_at="rtcf.pre-rename")
        GenerationStore(tmp_path).publish(_frozen(ARCS_V0), 1)
        with pytest.raises(SimulatedCrash):
            GenerationStore(tmp_path, fs=faulty).publish(_frozen(ARCS_V1), 2)
        store = GenerationStore(tmp_path)
        assert not (tmp_path / "gen-2.rtcf").exists()
        assert store.current() == (1, "gen-1.rtcf")
        assert store.attach()[0] == 1

    def test_next_publish_sweeps_torn_leftovers(self, tmp_path):
        GenerationStore(tmp_path).publish(_frozen(ARCS_V0), 1)
        faulty = FaultyFS(crash_at="current.pre-rename")
        with pytest.raises(SimulatedCrash):
            GenerationStore(tmp_path, fs=faulty).publish(_frozen(ARCS_V1), 2)
        store = GenerationStore(tmp_path)
        store.publish(_frozen(ARCS_V1), 3)
        assert store.current() == (3, "gen-3.rtcf")
        leftovers = [name for name in os.listdir(tmp_path)
                     if name.endswith(".tmp")]
        assert leftovers == []
        # And the store is fully healthy again.
        assert store.attach()[2].reachable("a", "d")

    def test_corrupt_current_pointer_is_a_structured_error(self, tmp_path):
        from repro.errors import CorruptFileError
        store = GenerationStore(tmp_path)
        store.publish(_frozen(ARCS_V0), 0)
        (tmp_path / CURRENT_NAME).write_text("not-a-generation\n")
        with pytest.raises(CorruptFileError):
            store.current()
