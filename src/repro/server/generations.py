"""Snapshot generations: the cluster's publish/attach protocol.

A served snapshot is a frozen **base** plus a **delta** overlay
(:class:`~repro.core.hybrid.HybridView`).  On disk:

* a base is one immutable RTCF file, ``gen-<epoch>.rtcf``, named by the
  serve epoch whose exact closure it holds;
* a delta is one small JSON sidecar, ``gen-<base>+<epoch>.delta``: the
  arcs and nodes that epoch ``<epoch>`` adds to base ``<base>``,
  self-contained (it names its base and epoch inside too);
* ``CURRENT`` is a one-line pointer naming the current base;
* ``EPOCH`` is an 8-byte word every process maps shared, holding the
  last published epoch.

Most publishes leave the base alone and cost O(delta): write the
sidecar (temp + rename, via
:func:`~repro.durability.atomic.atomic_write_bytes`), then store the
epoch word.  A publish after a fold writes the new base RTCF the same
way, moves ``CURRENT``, then stores the word; a fold always lands with
an empty delta, so a base file is exact for the epoch it is named by.
A crash before the word is stored leaves the previous epoch serving
(readers never look for a sidecar the word does not name), and the next
successful publish's garbage collection sweeps the leftovers.

Readers attach by reading ``CURRENT`` (base ``B``) and the word
(epoch ``e``): ``e <= B`` serves the base alone at epoch ``B``; ``e > B``
serves the base plus ``gen-B+e.delta``.  A sidecar that has vanished
(the writer published past it, or folded) just means ``CURRENT`` or the
word moved on, and the reader retries.  The base is an O(1) mmap whose
pages the kernel shares across every worker process, and a worker whose
base is unchanged keeps its mapping and only reads the sidecar.  POSIX
keeps a mapped file's pages alive after ``unlink``, so garbage
collection never invalidates a worker still answering from an old base.

A reader compares the word with the epoch it serves before each read —
one memory load, no syscall — and refreshes when the word is ahead.
Epochs are carried in filenames and the word (not the RTCF header)
because serve epochs count publishes, while the header epoch counts the
underlying index's mutations.
"""

from __future__ import annotations

import json
import mmap
import os
import re
import struct
from pathlib import Path
from typing import FrozenSet, List, Optional, Tuple

from repro.core.frozen import FrozenTCIndex
from repro.core.hybrid import HybridView
from repro.core.rtcf import load_rtcf, save_rtcf
from repro.durability.atomic import RealFS, atomic_write_bytes
from repro.errors import CorruptFileError, ReproError

__all__ = ["GenerationStore", "delta_name", "generation_name",
           "parse_delta", "parse_generation", "sidecar_for",
           "snapshot_parts"]

CURRENT_NAME = "CURRENT"
EPOCH_NAME = "EPOCH"
_EPOCH_WORD = struct.Struct("<q")
_GEN_RE = re.compile(r"^gen-(\d+)\.rtcf$")
_DELTA_RE = re.compile(r"^gen-(\d+)\+(\d+)\.delta$")
#: Attach attempts across publish/GC races before giving up.
_ATTACH_TRIES = 20


def generation_name(epoch: int) -> str:
    return f"gen-{epoch}.rtcf"


def parse_generation(name: str) -> Optional[int]:
    """The epoch a generation filename names, or ``None``."""
    match = _GEN_RE.match(name)
    return int(match.group(1)) if match else None


def delta_name(base_epoch: int, epoch: int) -> str:
    return f"gen-{base_epoch}+{epoch}.delta"


def parse_delta(name: str) -> Optional[Tuple[int, int]]:
    """``(base_epoch, epoch)`` a sidecar filename names, or ``None``."""
    match = _DELTA_RE.match(name)
    return (int(match.group(1)), int(match.group(2))) if match else None


def sidecar_for(generation: Optional[str], epoch: int) -> Optional[str]:
    """The sidecar epoch ``epoch`` reads over base ``generation``, or
    ``None`` when it serves the base alone."""
    base_epoch = parse_generation(generation) if generation else None
    if base_epoch is None or epoch <= base_epoch:
        return None
    return delta_name(base_epoch, epoch)


def snapshot_parts(snapshot) -> Tuple[FrozenTCIndex, tuple, FrozenSet]:
    """``(base, delta_arcs, delta_nodes)`` of a publishable snapshot.

    Raises :class:`ReproError` naming the engine when the base has no
    flat buffers to write as RTCF (hop and chain labels).
    """
    if isinstance(snapshot, HybridView):
        base, arcs, nodes = (snapshot.base, snapshot.delta_arcs,
                             snapshot.delta_nodes)
    else:
        base, arcs, nodes = snapshot, (), frozenset()
    if not hasattr(base, "to_buffers"):
        raise ReproError(
            f"cannot publish a {type(base).__name__} as an RTCF "
            "generation: only frozen interval snapshots have flat buffers "
            "to map; serve it from one process (--workers 0)")
    return base, arcs, nodes


class GenerationStore:
    """One directory of generations, sidecars, ``CURRENT`` and ``EPOCH``.

    The writer process is the only publisher; any number of reader
    processes may :meth:`attach` concurrently.  ``keep`` bounds how many
    base generations survive garbage collection (the current one always
    does).  ``fs`` accepts the durability layer's filesystem shim so the
    fault-injection harness can crash a publish at any point.
    """

    def __init__(self, root, *, keep: int = 2, fs=None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.keep = max(1, int(keep))
        self._fs = fs if fs is not None else RealFS()
        self._epoch_map: Optional[mmap.mmap] = None
        #: ``(base object, base epoch, filename)`` of the last base this
        #: store wrote; a snapshot over the same object publishes a
        #: sidecar only.
        self._published: Optional[Tuple[FrozenTCIndex, int, str]] = None

    # ------------------------------------------------------------------
    # writer side
    # ------------------------------------------------------------------
    @property
    def published_base(self) -> Optional[FrozenTCIndex]:
        """The base object this store last wrote (``None`` before)."""
        return self._published[0] if self._published is not None else None

    def publish(self, snapshot, epoch: int) -> str:
        """Publish ``snapshot`` as epoch ``epoch``; returns the base
        generation's filename.

        ``snapshot`` is a frozen engine or a
        :class:`~repro.core.hybrid.HybridView`.  Over the base this
        store last wrote, only ``gen-<base>+<epoch>.delta`` is written;
        any other base becomes ``gen-<epoch>.rtcf`` and ``CURRENT``
        moves to it (it must come with an empty delta — fold first).
        The epoch word is stored last, so a crash anywhere before it
        leaves the previous epoch serving.
        """
        base, arcs, nodes = snapshot_parts(snapshot)
        published = self._published
        if published is not None and published[0] is base:
            _, base_epoch, name = published
            self._write_delta(name, base_epoch, epoch, arcs, nodes)
        else:
            if arcs or nodes:
                raise ReproError(
                    "a new base generation must hold the exact state of "
                    "its epoch; fold the delta before publishing it")
            name = generation_name(epoch)
            save_rtcf(base, self.root / name, fs=self._fs)
            atomic_write_bytes(self.root / CURRENT_NAME,
                               (name + "\n").encode("ascii"),
                               fs=self._fs, label="current")
            self._published = (base, epoch, name)
        self._fs.crash_point("epoch.pre-store")
        _EPOCH_WORD.pack_into(self._epoch_word(), 0, epoch)
        self.collect_garbage()
        return name

    def _write_delta(self, base_name: str, base_epoch: int, epoch: int,
                     arcs, nodes) -> None:
        document = {
            "format": 1,
            "base": base_name,
            "epoch": epoch,
            "delta_arcs": [[source, destination]
                           for source, destination in arcs],
            "delta_nodes": sorted(nodes, key=repr),
        }
        # Atomic but not fsynced: readers see the rename through the page
        # cache, and no restart ever reads a sidecar (the writer starts
        # above every epoch found and its first publish sweeps them), so
        # a flush to disk would only add milliseconds to every ack.
        atomic_write_bytes(
            self.root / delta_name(base_epoch, epoch),
            json.dumps(document, separators=(",", ":")).encode("utf-8"),
            fs=self._fs, label="delta", durable=False)

    def _epoch_word(self) -> mmap.mmap:
        if self._epoch_map is None:
            fd = os.open(self.root / EPOCH_NAME, os.O_RDWR | os.O_CREAT,
                         0o644)
            try:
                if os.fstat(fd).st_size < _EPOCH_WORD.size:
                    os.ftruncate(fd, _EPOCH_WORD.size)
                self._epoch_map = mmap.mmap(fd, _EPOCH_WORD.size)
            finally:
                os.close(fd)
        return self._epoch_map

    def newest_epoch(self) -> int:
        """The highest epoch the epoch word or any generation or sidecar
        name holds; -1 for an empty store.  A writer restarting on this
        directory starts above it, so no new name collides with an old
        file."""
        newest = -1
        if (self.root / EPOCH_NAME).exists():
            newest = self.published_epoch()
        for entry in self.root.iterdir():
            epoch = parse_generation(entry.name)
            if epoch is None:
                epoch = max(parse_delta(entry.name) or (-1,))
            newest = max(newest, epoch)
        return newest

    def collect_garbage(self) -> List[str]:
        """Drop all but the newest ``keep`` generations and every sidecar
        but the one the epoch word names; returns the names removed.

        Never touches the generation ``CURRENT`` names, and sweeps
        orphaned ``*.tmp`` files and sidecars from torn publishes.
        Unlinking a file a reader still maps is safe — the mapping pins
        the pages until the reader re-attaches; a sidecar is read whole.
        """
        current = self.current()
        current_name = current[1] if current is not None else None
        live_delta = (delta_name(current[0], self.published_epoch())
                      if current is not None else None)
        generations = self.generations()
        survivors = {name for _, name in generations[-self.keep:]}
        survivors.add(current_name)
        removed: List[str] = []
        for entry in self.root.iterdir():
            name = entry.name
            if parse_generation(name) is not None:
                doomed = name not in survivors
            elif parse_delta(name) is not None:
                doomed = name != live_delta
            else:
                doomed = name.endswith(".tmp")
            if not doomed:
                continue
            try:
                entry.unlink()
            except FileNotFoundError:  # pragma: no cover - racing sweep
                continue
            if not name.endswith(".tmp"):
                removed.append(name)
        return removed

    # ------------------------------------------------------------------
    # reader side
    # ------------------------------------------------------------------
    def published_epoch(self) -> int:
        """The epoch of the last publish, read from the shared word."""
        return _EPOCH_WORD.unpack_from(self._epoch_word())[0]

    def current(self) -> Optional[Tuple[int, str]]:
        """``(epoch, filename)`` of the current base, or ``None``."""
        try:
            text = (self.root / CURRENT_NAME).read_text("ascii")
        except FileNotFoundError:
            return None
        name = text.strip()
        epoch = parse_generation(name)
        if epoch is None:
            raise CorruptFileError(
                str(self.root / CURRENT_NAME),
                f"CURRENT names {name!r}, not a generation file")
        return epoch, name

    def served(self) -> Optional[Tuple[str, int]]:
        """``(base filename, epoch)`` a reader would attach now, or
        ``None`` before the first publish — the pair a worker compares
        with its own to decide whether to refresh."""
        current = self.current()
        if current is None:
            return None
        return current[1], max(self.published_epoch(), current[0])

    def generations(self) -> List[Tuple[int, str]]:
        """Every generation file present, sorted by epoch."""
        found = []
        for entry in self.root.iterdir():
            epoch = parse_generation(entry.name)
            if epoch is not None:
                found.append((epoch, entry.name))
        found.sort()
        return found

    def attach(self, *, verify: bool = False,
               reuse: Optional[Tuple[str, FrozenTCIndex]] = None):
        """Map the served snapshot: ``(epoch, base name, engine)``.

        ``engine`` is the mmap'd base, or a
        :class:`~repro.core.hybrid.HybridView` of it plus the epoch's
        sidecar.  ``reuse`` is a ``(name, base)`` pair the caller already
        maps, kept when ``CURRENT`` still names it.  Retries across the
        publish/GC race: a base or sidecar that vanished between reading
        the pointers and opening it means they have moved on.
        """
        for _ in range(_ATTACH_TRIES):
            current = self.current()
            if current is None:
                raise ReproError(
                    f"no generation published under {self.root}")
            base_epoch, name = current
            epoch = self.published_epoch()
            if reuse is not None and reuse[0] == name:
                base = reuse[1]
            else:
                try:
                    base = load_rtcf(self.root / name, verify=verify)
                except FileNotFoundError:
                    continue
            if epoch <= base_epoch:
                return base_epoch, name, base
            try:
                arcs, nodes = self._read_delta(name, base_epoch, epoch)
            except FileNotFoundError:
                continue
            return epoch, name, HybridView(base, arcs, nodes)
        raise CorruptFileError(
            str(self.root / CURRENT_NAME),
            "generation files kept disappearing under the reader")

    def _read_delta(self, base_name: str, base_epoch: int, epoch: int):
        path = self.root / delta_name(base_epoch, epoch)
        raw = path.read_bytes()
        try:
            document = json.loads(raw)
            if (document["base"] != base_name
                    or document["epoch"] != epoch):
                raise ValueError("names another base or epoch")
            arcs = [(source, destination)
                    for source, destination in document["delta_arcs"]]
            nodes = list(document["delta_nodes"])
        except (ValueError, KeyError, TypeError) as error:
            raise CorruptFileError(str(path), f"bad delta sidecar: {error}")
        return arcs, nodes
