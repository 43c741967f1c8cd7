"""Start ``repro serve`` with spans around the calls into each layer.

Usage (the benchmark runs this; ``PYTHONPATH`` must name the ``src``
tree)::

    python perfbench/launcher.py SPANS_DIR serve EDGES --engine hybrid ...

Before handing ``argv`` to :func:`repro.cli.main`, the launcher replaces
each measured public function with a wrapper that records a span: name,
start and end (``perf_counter_ns``), the span that was current when it
began (a context variable, so asyncio tasks keep separate stacks), the
pid, and a few attributes.  Wrappers are installed where each name is
looked up at call time: a module attribute, a class attribute, or the
importing module's own binding (``repro.server.app`` imports
``encode_response`` and ``decode_payload`` by name).  Forked cluster
workers inherit them.

Spans stay in memory and are written to ``SPANS_DIR/spans-<pid>.json``
when the process finishes serving; a worker writes its own file when its
serving loop returns.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import sys
import time
from pathlib import Path

_now = time.perf_counter_ns
_current = contextvars.ContextVar("perfbench_span", default=0)
_ids = itertools.count(1)
#: (id, parent, name, start_ns, end_ns, attr) per finished span; the
#: attr is one scalar (an op name, a size, or a write's identity)
_spans: list = []
#: the op of the last dispatched request, read by the encode wrapper:
#: ``ReachabilityServer._serve_bodies`` encodes right after dispatch
#: returns, with no await in between.
_last_op = ["check"]


def _wrap(name, fn, attr=None):
    """A span around every call of ``fn``; ``attr(args, result)``
    annotates it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = next(_ids)
        parent = _current.get()
        token = _current.set(span)
        started = _now()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            _current.reset(token)
            _spans.append((span, parent, name, started, _now(),
                           attr(args, result) if attr else None))
    return wrapper


def _wrap_async(name, fn, attr=None, after=None):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        span = next(_ids)
        parent = _current.get()
        token = _current.set(span)
        started = _now()
        try:
            return await fn(*args, **kwargs)
        finally:
            _current.reset(token)
            _spans.append((span, parent, name, started, _now(),
                           attr(args) if attr else None))
            if after is not None:
                after(args)
    return wrapper


def _wrap_classmethod(cls, attr, name):
    original = getattr(cls, attr).__func__
    setattr(cls, attr, classmethod(_wrap(name, original)))


def _wrap_frozen(method):
    """Frozen-engine queries, named by the view type: ``core.frozen.*``
    for heap snapshots, ``core.rtcf.*`` for mmap'd generation files."""
    from repro.core.frozen import FrozenTCIndex
    from repro.core.rtcf import MappedFrozenTCIndex
    original = getattr(FrozenTCIndex, method)
    names = {False: f"core.frozen.{method}", True: f"core.rtcf.{method}"}

    @functools.wraps(original)
    def wrapper(self, arg, *args, **kwargs):
        span = next(_ids)
        parent = _current.get()
        token = _current.set(span)
        started = _now()
        result = None
        try:
            result = original(self, arg, *args, **kwargs)
            return result
        finally:
            _current.reset(token)
            mapped = isinstance(self, MappedFrozenTCIndex)
            _spans.append((span, parent, names[mapped],
                           started, _now(),
                           len(result) if result is not None else 0))
    setattr(FrozenTCIndex, method, wrapper)


def _write_key(op, args):
    """Identify one mutation the same way on submit and on apply."""
    return json.dumps([op, [list(a) if isinstance(a, (list, tuple)) else a
                            for a in args]])


def install(spans_dir: Path) -> None:
    import repro.core.index as index_mod
    import repro.core.propagation as propagation_mod
    import repro.graph.io as io_mod
    import repro.server.app as app_mod
    import repro.server.cluster as cluster_mod
    from repro.core.frozen import FrozenTCIndex
    from repro.core.hybrid import HybridTCIndex
    from repro.server.coalesce import BatchCoalescer
    from repro.server.generations import GenerationStore
    from repro.server.state import ServeState

    # -- start-up build --------------------------------------------------
    io_mod.load_edge_list = _wrap("graph.io.load_edge_list",
                                  io_mod.load_edge_list)
    index_mod.build_tree_cover = _wrap("core.tree_cover.build_tree_cover",
                                       index_mod.build_tree_cover)
    index_mod.assign_postorder = _wrap("core.labeling.assign_postorder",
                                       index_mod.assign_postorder)
    propagation_mod.run_propagation = _wrap(
        "core.propagation.run_propagation", propagation_mod.run_propagation)
    _wrap_classmethod(FrozenTCIndex, "from_index", "core.frozen.from_index")
    _wrap_classmethod(HybridTCIndex, "from_index", "core.hybrid.from_index")
    cluster_mod.PublishingState.publish_initial = _wrap(
        "server.generations.publish_initial",
        cluster_mod.PublishingState.publish_initial)

    # -- read path -------------------------------------------------------
    app_mod.decode_payload = _wrap(
        "server.protocol.decode_payload", app_mod.decode_payload,
        lambda args, result: str(result.get("op"))
        if isinstance(result, dict) else None)

    drains = set()  # ids of the coalescer drains now running

    def encode_op(args, result):
        return "check" if _current.get() in drains else _last_op[0]
    app_mod.encode_response = _wrap("server.protocol.encode_response",
                                    app_mod.encode_response, encode_op)

    drain = BatchCoalescer._drain

    @functools.wraps(drain)
    def traced_drain(self):
        span = next(_ids)
        drains.add(span)
        parent = _current.get()
        token = _current.set(span)
        started = _now()
        pairs = self._pending_pairs
        try:
            return drain(self)
        finally:
            _current.reset(token)
            drains.discard(span)
            _spans.append((span, parent, "server.coalesce.drain", started,
                           _now(), pairs))
    BatchCoalescer._drain = traced_drain

    def set_last_op(args):
        _last_op[0] = str(args[1])
    app_mod.ReachabilityServer._dispatch = _wrap_async(
        "server.app.dispatch", app_mod.ReachabilityServer._dispatch,
        lambda args: str(args[1]), after=set_last_op)

    for method in ("reachable_many", "successors", "predecessors"):
        _wrap_frozen(method)

    # -- write path ------------------------------------------------------
    for method, op in (("add_node", "add-node"), ("add_arc", "add-arc")):
        setattr(HybridTCIndex, method, _wrap(
            f"core.hybrid.{method}", getattr(HybridTCIndex, method),
            lambda args, result, op=op: _write_key(op, args[1:])))
    HybridTCIndex.snapshot = _wrap("core.hybrid.snapshot",
                                   HybridTCIndex.snapshot)
    ServeState.submit = _wrap_async(
        "server.state.submit", ServeState.submit,
        lambda args: _write_key(args[1], args[2]))
    ServeState._apply_and_publish = _wrap(
        "server.state.apply_and_publish", ServeState._apply_and_publish,
        lambda args, result: len(args[1]))
    GenerationStore.publish = _wrap("server.generations.publish",
                                    GenerationStore.publish)
    GenerationStore.attach = _wrap("server.generations.attach",
                                   GenerationStore.attach)

    worker_main = cluster_mod._worker_main

    @functools.wraps(worker_main)
    def traced_worker_main(*args, **kwargs):
        del _spans[:]  # the parent's spans were copied by fork
        try:
            return worker_main(*args, **kwargs)
        finally:
            dump(spans_dir)
    cluster_mod._worker_main = traced_worker_main


def dump(spans_dir: Path) -> None:
    """Write this process's spans to ``spans-<pid>.json``."""
    path = spans_dir / f"spans-{os.getpid()}.json"
    with open(path, "w") as handle:
        json.dump({"pid": os.getpid(), "spans": _spans}, handle)


def main(argv) -> int:
    spans_dir = Path(argv[0])
    install(spans_dir)
    from repro.cli import main as cli_main
    try:
        return cli_main(argv[1:])
    finally:
        dump(spans_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
