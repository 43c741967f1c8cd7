"""The load generator: framed-protocol connections, open and closed loops.

One process, at most two connections.  Every request frame is encoded
before its phase starts, so the generator spends its time sending and
checking answers, not building JSON.  Each response is checked against
the reference the moment it arrives:

* a ``check`` must lie between the answer before any write and the
  answer after every planned write (writes only ever add reachability);
* a set query's answer must contain the initial set and lie inside the
  final one;
* a write must be acknowledged.

An error frame, a wrong answer, or a reply still missing at the end of
the run counts as failed.

Open-loop latency runs from the *scheduled* send time, so a stall that
delays later sends still counts against the server; the generator also
records how late it sent each request (its own lateness).
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from collections import deque
from typing import Dict, List, Optional, Sequence

PAGE = 16
_clock = time.perf_counter


def frame(payload: dict) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode()
    return len(body).to_bytes(4, "big") + body


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of an unsorted list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def supported(values: Sequence[float], q: float) -> bool:
    """Whether at least ten samples lie beyond the ``q`` percentile."""
    return len(values) * (1 - q / 100.0) >= 10


class Request:
    """One sent request awaiting its reply."""

    __slots__ = ("kind", "ref", "due", "acked_before", "page", "record")

    def __init__(self, kind: str, ref, *, record: bool = True) -> None:
        self.kind = kind          # check | expand | reaching | write
        self.ref = ref            # reference bounds or plan entry
        self.due = 0.0            # scheduled send time
        self.acked_before = 0     # highest acked epoch when sent
        self.page: Optional["Page"] = None
        self.record = record      # counts towards latency metrics


class Page:
    """A closed-loop group of requests; set when all have replied."""

    __slots__ = ("left", "done")

    def __init__(self, left: int) -> None:
        self.left = left
        self.done = asyncio.get_running_loop().create_future()


class Tally:
    """Everything the run observed, shared by both connections."""

    def __init__(self) -> None:
        self.latency: Dict[str, List[float]] = {
            "check": [], "setq": [], "write": []}
        #: (due time, latency) of open-loop checks, for the half split
        self.check_timeline: List[tuple] = []
        self.lateness: List[float] = []
        self.attempted = 0
        self.errors: Dict[str, int] = {}
        self.wrong = 0
        self.missing = 0
        self.wrong_examples: List[str] = []
        self.max_acked = 0
        self.stale_reads = 0
        self.reads_after_ack = 0
        self.closed_checks = 0
        #: (completion time, checks) per closed-loop page
        self.pages: List[tuple] = []

    @property
    def failed(self) -> int:
        return sum(self.errors.values()) + self.wrong + self.missing

    def mark_wrong(self, message: str) -> None:
        self.wrong += 1
        if len(self.wrong_examples) < 5:
            self.wrong_examples.append(message)


class Connection:
    """A framed connection with a reply router keyed by request id."""

    def __init__(self, reader, writer, tally: Tally, ids) -> None:
        self.reader = reader
        self.writer = writer
        self.tally = tally
        self.ids = ids
        self.pending: Dict[int, Request] = {}
        self._idle: Optional[asyncio.Future] = None
        self._task = asyncio.get_running_loop().create_task(self._read())

    @classmethod
    async def open(cls, host: str, port: int, tally: Tally, ids):
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, tally, ids)

    async def call(self, op: str, **fields) -> dict:
        """One untracked request/response (stats, epoch probes)."""
        request_id = next(self.ids)
        future = asyncio.get_running_loop().create_future()
        self.pending[request_id] = future
        self.writer.write(frame({"id": request_id, "op": op, **fields}))
        return await asyncio.wait_for(future, 60)

    def send(self, batch: List[tuple]) -> None:
        """Send ``(request_id, Request, frame_bytes)`` triples at once."""
        tally = self.tally
        for request_id, request, _ in batch:
            request.acked_before = tally.max_acked
            self.pending[request_id] = request
        tally.attempted += len(batch)
        self.writer.write(b"".join(data for _, _, data in batch))

    async def idle(self, timeout: float) -> None:
        """Wait until every sent request has its reply (or time out)."""
        if not self.pending:
            return
        self._idle = asyncio.get_running_loop().create_future()
        try:
            await asyncio.wait_for(self._idle, timeout)
        except asyncio.TimeoutError:
            pass
        finally:
            self._idle = None

    async def close(self) -> None:
        """Close; replies still missing count as failed."""
        for request in self.pending.values():
            if isinstance(request, Request):
                self.tally.missing += 1
        self.pending.clear()
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass

    async def _read(self) -> None:
        buffer = bytearray()
        reader = self.reader
        while True:
            chunk = await reader.read(1 << 16)
            if not chunk:
                return
            buffer += chunk
            now = _clock()
            position, size = 0, len(buffer)
            while size - position >= 4:
                length = int.from_bytes(buffer[position:position + 4], "big")
                end = position + 4 + length
                if end > size:
                    break
                self._reply(json.loads(buffer[position + 4:end]), now)
                position = end
            del buffer[:position]

    def _reply(self, response: dict, now: float) -> None:
        request = self.pending.pop(response.get("id"), None)
        if request is None:
            return
        if not isinstance(request, Request):  # an untracked call()
            if not request.done():
                request.set_result(response)
        else:
            self._check(request, response, now)
            if request.page is not None:
                request.page.left -= 1
                if request.page.left == 0:
                    request.page.done.set_result(None)
        if self._idle is not None and not self.pending \
                and not self._idle.done():
            self._idle.set_result(None)

    def _check(self, request: Request, response: dict, now: float) -> None:
        tally = self.tally
        if not response.get("ok"):
            code = response.get("error", {}).get("code", "unknown")
            tally.errors[code] = tally.errors.get(code, 0) + 1
            return
        kind, result = request.kind, response.get("result")
        epoch = response.get("epoch", 0)
        if kind == "write":
            tally.max_acked = max(tally.max_acked, epoch)
        else:
            if request.acked_before > 0:
                tally.reads_after_ack += 1
                if epoch < request.acked_before:
                    tally.stale_reads += 1
            low, high, what = request.ref
            if kind == "check":
                if not low <= result <= high:
                    tally.mark_wrong(f"check {what}: got {result}, "
                                     f"expected {low}..{high}")
            else:
                got = set(result)
                if not low <= got <= high:
                    tally.mark_wrong(f"{kind} {what}: {len(got)} nodes, "
                                     f"expected {len(low)}..{len(high)}")
        if request.record:
            latency = (now - request.due) * 1000.0
            bucket = "setq" if kind in ("expand", "reaching") else kind
            tally.latency[bucket].append(latency)
            if kind == "check":
                tally.check_timeline.append((request.due, latency))


async def open_loop(conn: Connection, frames: List[tuple], rate: float,
                    start: float, duration: float) -> None:
    """Send ``frames`` on a fixed schedule of ``rate`` per second from
    ``start`` for ``duration`` seconds, logging each send's lateness."""
    tally = conn.tally
    sent = 0
    total = min(len(frames), int(duration * rate))
    while sent < total:
        due = start + sent / rate
        now = _clock()
        if due > now:
            await asyncio.sleep(due - now)
            continue
        batch = []
        while sent < total and start + sent / rate <= now:
            request_id, request, data = frames[sent]
            request.due = start + sent / rate
            tally.lateness.append((now - request.due) * 1000.0)
            batch.append((request_id, request, data))
            sent += 1
        conn.send(batch)


async def closed_loop(conn: Connection, pages: List[List[tuple]],
                      deadline: float, depth: int) -> None:
    """Keep ``depth`` pages in flight: send the next page each time the
    oldest one is fully answered, until ``deadline``.  Each page's
    completion time is logged in ``tally.pages`` for windowed rates.

    Pages are re-sent in a cycle; their ids are free again by then."""
    tally = conn.tally
    inflight = deque()
    index = 0
    while True:
        while len(inflight) < depth and _clock() < deadline:
            batch = pages[index % len(pages)]
            index += 1
            page = Page(len(batch))
            for _, request, _ in batch:
                request.page = page
                request.due = _clock()
            conn.send(batch)
            inflight.append((page, len(batch)))
        if not inflight:
            return
        page, size = inflight.popleft()
        if not await _settled(page):
            return
        tally.closed_checks += size
        tally.pages.append((_clock(), size))


async def closed_writes(conn: Connection, frames: List[tuple]) -> None:
    """Send writes one at a time, each after the previous ack."""
    for request_id, request, data in frames:
        page = Page(1)
        request.page = page
        request.due = _clock()
        conn.send([(request_id, request, data)])
        if not await _settled(page):
            return


async def _settled(page: Page, timeout: float = 60.0) -> bool:
    """Wait for a page; False when a reply never came (counted missing
    when the connection closes)."""
    try:
        await asyncio.wait_for(asyncio.shield(page.done), timeout)
    except asyncio.TimeoutError:
        return False
    return True
