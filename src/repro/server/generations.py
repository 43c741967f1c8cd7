"""RTCF snapshot generations: the cluster's publish/attach protocol.

A generation is one immutable RTCF file, ``gen-<epoch>.rtcf``, named by
the serve epoch whose closure it holds.  The writer publishes a new
generation in two atomic steps — write the RTCF (temp + fsync + rename,
via :func:`~repro.core.rtcf.save_rtcf`), then move the one-line
``CURRENT`` pointer the same way — so a reader that follows ``CURRENT``
always lands on a complete, checksummed file.  A crash between the two
steps simply leaves ``CURRENT`` on the previous generation: the old
snapshot keeps serving, and the orphaned file is swept by the next
successful publish's garbage collection.

Readers attach with :func:`~repro.core.rtcf.load_rtcf` — an O(1) mmap
whose pages the kernel shares across every worker process.  POSIX keeps
a mapped file's pages alive after ``unlink``, so garbage-collecting a
stale generation never invalidates a worker that is still answering
from it; the worker re-attaches to the current generation between
requests at its own pace.

Epoch is carried in the *filename* (not the RTCF header) because serve
epochs count publishes, while the header epoch counts the underlying
index's mutations — the two advance at different rates.

After ``CURRENT`` moves, the writer also stores the epoch in ``EPOCH``,
an 8-byte file every process maps shared.  A reader compares that word
with the epoch it serves before each read — one memory load, no
syscall — and re-attaches when the word is ahead.  The word is a hint,
never the source of truth: readers always attach through ``CURRENT``.
"""

from __future__ import annotations

import mmap
import os
import re
import struct
from pathlib import Path
from typing import List, Optional, Tuple

from repro.core.frozen import FrozenTCIndex
from repro.core.rtcf import load_rtcf, save_rtcf
from repro.durability.atomic import atomic_write_bytes
from repro.errors import CorruptFileError, ReproError

__all__ = ["GenerationStore", "generation_name", "parse_generation"]

CURRENT_NAME = "CURRENT"
EPOCH_NAME = "EPOCH"
_EPOCH_WORD = struct.Struct("<q")
_GEN_RE = re.compile(r"^gen-(\d+)\.rtcf$")


def generation_name(epoch: int) -> str:
    return f"gen-{epoch}.rtcf"


def parse_generation(name: str) -> Optional[int]:
    """The epoch a generation filename names, or ``None``."""
    match = _GEN_RE.match(name)
    return int(match.group(1)) if match else None


class GenerationStore:
    """One directory of generation files plus the ``CURRENT`` pointer.

    The writer process is the only publisher; any number of reader
    processes may :meth:`attach` concurrently.  ``keep`` bounds how many
    generations survive garbage collection (the current one always
    does).  ``fs`` accepts the durability layer's filesystem shim so the
    fault-injection harness can crash a publish at any point.
    """

    def __init__(self, root, *, keep: int = 2, fs=None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.keep = max(1, int(keep))
        self._fs = fs
        self._epoch_map: Optional[mmap.mmap] = None

    # ------------------------------------------------------------------
    # writer side
    # ------------------------------------------------------------------
    def publish(self, frozen: FrozenTCIndex, epoch: int) -> str:
        """Write ``gen-<epoch>.rtcf``, then repoint ``CURRENT``.

        Returns the new generation's filename.  Both steps are atomic
        renames; a crash between them leaves the previous generation
        current (torn publishes are invisible to readers).
        """
        name = generation_name(epoch)
        save_rtcf(frozen, self.root / name, fs=self._fs)
        atomic_write_bytes(self.root / CURRENT_NAME,
                           (name + "\n").encode("ascii"),
                           fs=self._fs, label="current")
        _EPOCH_WORD.pack_into(self._epoch_word(), 0, epoch)
        self.collect_garbage()
        return name

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

    def collect_garbage(self) -> List[str]:
        """Drop all but the newest ``keep`` generations; returns names.

        Never touches the generation ``CURRENT`` names, and sweeps
        orphaned ``*.tmp`` files from torn publishes.  Unlinking a file
        a reader still maps is safe — the mapping pins the pages until
        the reader re-attaches.
        """
        current = self.current()
        current_name = current[1] if current is not None else None
        generations = self.generations()
        survivors = {name for _, name in generations[-self.keep:]}
        if current_name is not None:
            survivors.add(current_name)
        removed: List[str] = []
        for _, name in generations:
            if name in survivors:
                continue
            try:
                os.unlink(self.root / name)
            except FileNotFoundError:  # pragma: no cover - racing sweep
                continue
            removed.append(name)
        for entry in self.root.iterdir():
            if entry.name.endswith(".tmp"):
                try:
                    entry.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
        return removed

    # ------------------------------------------------------------------
    # reader side
    # ------------------------------------------------------------------
    def published_epoch(self) -> int:
        """The epoch of the last publish, read from the shared word."""
        return _EPOCH_WORD.unpack_from(self._epoch_word())[0]

    def current(self) -> Optional[Tuple[int, str]]:
        """``(epoch, filename)`` of the current generation, or ``None``."""
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

    def generations(self) -> List[Tuple[int, str]]:
        """Every generation file present, sorted by epoch."""
        found = []
        for entry in self.root.iterdir():
            epoch = parse_generation(entry.name)
            if epoch is not None:
                found.append((epoch, entry.name))
        found.sort()
        return found

    def attach(self, *, verify: bool = False
               ) -> Tuple[int, str, FrozenTCIndex]:
        """mmap the current generation: ``(epoch, name, view)``.

        Retries across the publish/GC race: between reading ``CURRENT``
        and opening the file, the writer may have swept that generation
        — in which case ``CURRENT`` has necessarily moved on, and the
        next read lands on a live file.
        """
        for _ in range(5):
            current = self.current()
            if current is None:
                raise ReproError(
                    f"no generation published under {self.root}")
            epoch, name = current
            try:
                view = load_rtcf(self.root / name, verify=verify)
            except FileNotFoundError:
                continue
            return epoch, name, view
        raise CorruptFileError(
            str(self.root / CURRENT_NAME),
            "generation files kept disappearing under the reader")
