"""Reachability-as-a-service: the asyncio network front end.

The paper's interval index answers ``reachable(u, v)`` in near-constant
time, but until this package every consumer was an in-process Python
caller.  :mod:`repro.server` turns the library into a service with the
same serve-from-immutable-snapshot shape Zanzibar-style permission
checkers use: millions of ``(user, resource)`` checks per second against
a slowly-mutating DAG.

* :mod:`repro.server.protocol` — the wire format: length-prefixed JSON
  frames over TCP, plus a minimal HTTP/1.1 mode on the same port.
* :mod:`repro.server.state` — the epoch-swap snapshot protocol: reads
  are served from a pinned immutable frozen snapshot shared lock-free
  across connections; writes route through the hybrid engine behind a
  single-writer task and atomically publish a re-frozen snapshot.
* :mod:`repro.server.coalesce` — batch coalescing: concurrent ``check``
  calls are gathered for one scheduler pass (or up to a size threshold)
  and answered by one vectorised ``reachable_many`` call.
* :mod:`repro.server.app` — :class:`ReachabilityServer`, the connection
  handler and op dispatcher.
* :mod:`repro.server.client` — :class:`ReachabilityClient`, the asyncio
  client helper used by tests, the benchmark, and the CLI smoke jobs.
* :mod:`repro.server.inprocess` — a background-thread harness that runs
  a live server inside one process, used by the differential fuzzer.

Quick start::

    server = ReachabilityServer(open_index("closure.rtcf"))
    await server.start(port=7411)
    ...
    client = await ReachabilityClient.connect("127.0.0.1", 7411)
    assert await client.check("alice", "doc9")
"""

from repro.server.app import ReachabilityServer
from repro.server.client import ReachabilityClient, ServerError
from repro.server.coalesce import BatchCoalescer
from repro.server.protocol import (
    DEFAULT_MAX_FRAME,
    ERROR_CODES,
    ProtocolError,
    decode_payload,
    encode_frame,
    encode_response,
)
from repro.server.state import ServeState, Snapshot

__all__ = [
    "BatchCoalescer",
    "DEFAULT_MAX_FRAME",
    "ERROR_CODES",
    "ProtocolError",
    "ReachabilityClient",
    "ReachabilityServer",
    "ServeState",
    "ServerError",
    "Snapshot",
    "decode_payload",
    "encode_frame",
    "encode_response",
]
