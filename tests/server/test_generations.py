"""Generation rotation: publish/attach, GC, mmap pinning, torn publishes.

The cluster's correctness rests on three filesystem facts this battery
pins down: a reader following ``CURRENT`` always lands on a complete
RTCF file; unlinking a generation a reader still maps never invalidates
its pages; and a crash anywhere inside a publish leaves the *previous*
generation serving.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.hybrid import HybridTCIndex, HybridView
from repro.errors import ReproError, SimulatedCrash
from repro.server.generations import (CURRENT_NAME, GenerationStore,
                                      delta_name, generation_name,
                                      parse_delta, parse_generation)
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


# ----------------------------------------------------------------------
# delta sidecars: base plus overlay, published in O(delta)
# ----------------------------------------------------------------------

def _unfolded(arcs):
    return HybridTCIndex.from_arcs(arcs, max_delta=1_000_000,
                                   max_ratio=1_000_000.0)


def test_delta_names_round_trip():
    assert delta_name(3, 17) == "gen-3+17.delta"
    assert parse_delta("gen-3+17.delta") == (3, 17)
    assert parse_delta("gen-3.rtcf") is None
    assert parse_generation("gen-3+17.delta") is None


def test_delta_publish_keeps_the_base_and_writes_a_sidecar(tmp_path):
    hybrid = _unfolded(ARCS_V0)
    store = GenerationStore(tmp_path)
    store.publish(hybrid.snapshot(), 0)
    hybrid.add_node("d", ["c"])
    assert store.publish(hybrid.snapshot(), 1) == "gen-0.rtcf"
    assert store.current() == (0, "gen-0.rtcf")  # CURRENT never moved
    assert store.published_epoch() == 1
    document = json.loads((tmp_path / "gen-0+1.delta").read_text())
    assert document == {"format": 1, "base": "gen-0.rtcf", "epoch": 1,
                        "delta_arcs": [["c", "d"]], "delta_nodes": ["d"]}
    epoch, name, view = store.attach()
    assert (epoch, name) == (1, "gen-0.rtcf")
    assert isinstance(view, HybridView)
    assert view.reachable("a", "d") and not view.reachable("d", "a")
    # A reader whose base is unchanged keeps its mapping.
    _, _, again = GenerationStore(tmp_path).attach(reuse=(name, view.base))
    assert again.base is view.base


def test_an_emptied_delta_still_publishes_a_sidecar(tmp_path):
    """Adding then removing a delta arc leaves the base unchanged and
    the overlay empty; the epoch still needs a sidecar to attach."""
    hybrid = _unfolded(ARCS_V1)
    store = GenerationStore(tmp_path)
    store.publish(hybrid.snapshot(), 0)
    hybrid.add_arc("a", "d")
    hybrid.remove_arc("a", "d")
    store.publish(hybrid.snapshot(), 1)
    epoch, _, view = store.attach()
    assert epoch == 1 and view.delta_size == 0 and view.reachable("a", "d")


def test_gc_keeps_only_the_served_sidecar(tmp_path):
    hybrid = _unfolded(ARCS_V0)
    store = GenerationStore(tmp_path)
    store.publish(hybrid.snapshot(), 0)
    for epoch, node in enumerate("xyz", start=1):
        hybrid.add_node(node, ["c"])
        store.publish(hybrid.snapshot(), epoch)
    assert sorted(name for name in os.listdir(tmp_path)
                  if parse_delta(name)) == ["gen-0+3.delta"]
    # A fold publishes a new base and sweeps the old base's sidecars.
    hybrid.compact()
    assert store.publish(hybrid.snapshot(), 4) == "gen-4.rtcf"
    assert not [name for name in os.listdir(tmp_path) if parse_delta(name)]
    epoch, _, view = store.attach()
    assert epoch == 4 and view.reachable("a", "z")


def test_a_new_base_must_come_without_a_delta(tmp_path):
    hybrid = _unfolded(ARCS_V0)
    hybrid.add_node("d", ["c"])
    with pytest.raises(ReproError, match="fold"):
        GenerationStore(tmp_path).publish(hybrid.snapshot(), 0)


@pytest.mark.parametrize("engine", ["hoplabel", "chain"])
def test_engines_without_buffers_are_refused_by_name(tmp_path, engine):
    from repro.factory import open_index
    from repro.graph.digraph import DiGraph
    built = open_index(DiGraph(ARCS_V0), engine=engine)
    with pytest.raises(ReproError, match=type(built).__name__):
        GenerationStore(tmp_path).publish(built, 0)


def test_newest_epoch_reads_the_word_and_every_name(tmp_path):
    store = GenerationStore(tmp_path)
    assert store.newest_epoch() == -1
    hybrid = _unfolded(ARCS_V0)
    store.publish(hybrid.snapshot(), 4)
    assert store.newest_epoch() == 4
    (tmp_path / "gen-4+9.delta").write_text("{}")  # a leftover sidecar
    assert store.newest_epoch() == 9
    (tmp_path / "gen-11.rtcf").write_bytes(b"")
    assert store.newest_epoch() == 11


class TestTornDeltaPublish:
    """A crash at any step of a sidecar publish — the write, the
    rename, the epoch-word store — leaves the previous epoch serving,
    and the next publish sweeps what the crash left."""

    @pytest.mark.parametrize("point", [
        "delta.temp.mid-write", "delta.pre-rename", "delta.drop-rename",
        "delta.post-rename", "epoch.pre-store"])
    def test_crash_keeps_the_previous_epoch(self, tmp_path, point):
        hybrid = _unfolded(ARCS_V0)
        # epoch.pre-store is also visited by the first (base) publish.
        faulty = FaultyFS(crash_at=point,
                          occurrence=2 if point.startswith("epoch") else 1)
        store = GenerationStore(tmp_path, fs=faulty)
        store.publish(hybrid.snapshot(), 0)
        hybrid.add_node("d", ["c"])
        with pytest.raises(SimulatedCrash):
            store.publish(hybrid.snapshot(), 1)
        reader = GenerationStore(tmp_path)
        epoch, name, view = reader.attach()
        assert (epoch, name) == (0, "gen-0.rtcf")
        assert "d" not in view  # the unacked write is invisible
        assert reader.published_epoch() == 0
        # The writer carries on: the next publish lands and sweeps.
        hybrid.add_node("e", ["d"])
        store.publish(hybrid.snapshot(), 2)
        assert sorted(os.listdir(tmp_path)) == [
            "CURRENT", "EPOCH", "gen-0+2.delta", "gen-0.rtcf"]
        epoch, _, view = reader.attach()
        assert epoch == 2 and view.reachable("a", "e")
