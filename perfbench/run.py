"""The repository benchmark: served reachability, end to end and by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload read_point --seed 1 --seconds 10 --trace 0

It generates the workload's inputs from the seed, starts a real
``repro serve`` subprocess on them, drives it from this one process over
at most two connections, checks every answer, and prints one line per
metric followed by a final JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the JSON carries the end-to-end metrics; with
``--trace 1`` the server runs under ``perfbench/launcher.py`` (spans
around each layer) and the JSON carries the per-layer metrics plus the
tracing overhead.  See ``perfbench/README.md`` for the workloads, the
metrics and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from inputs import Inputs  # noqa: E402
from loadgen import (PAGE, Connection, Request, Tally, closed_loop,  # noqa: E402
                     closed_writes, frame, open_loop, percentile, supported)
from serverproc import ServerProcess  # noqa: E402

#: Per workload: graph size, server shape, offered load.  ``read_rate``
#: is checks plus set queries per second, split over the read
#: connections; ``write_rate`` is open-loop writes per second on their
#: own connection; ``probe_writes`` are closed-loop writes sent after
#: every read phase has finished.
#: ``setups`` is how many times an untraced run starts the server;
#: ``setup_s`` is the median of those starts.
WORKLOADS = {
    "read_point": dict(nodes=100_000, workers=0, read_rate=1000,
                       write_rate=0.0, probe_writes=6, setups=3),
    "write_mix": dict(nodes=20_000, workers=0, read_rate=1000,
                      write_rate=0.5, probe_writes=0, setups=5),
    "cluster_mix": dict(nodes=20_000, workers=2, read_rate=1000,
                        write_rate=0.5, probe_writes=0, setups=5),
}
AVG_DEGREE = 2.0
#: Every tenth read is a set query, alternating expand / list-reaching.
SETQ_EVERY = 10
#: Share of ``--seconds`` spent in the open-loop phase; the rest is the
#: closed-loop capacity phase, half before the open loop, half after.
OPEN_SHARE = 0.75
WARMUP_S = 0.5
RECHECK = 256
#: Closed-loop pages each connection keeps in flight, and the window
#: over which capacity is counted (the reported rate is the median
#: window).
DEPTH = 8
CAPACITY_WINDOW = 0.25
#: A generator this late (p99, ms) could not offer the intended load.
LATE_LIMIT_MS = 10.0

CPUS = sorted(os.sched_getaffinity(0))

#: The gated metrics: those that stayed steady from run to run on every
#: workload (open-loop read latencies are printed only, see README.md).
END_TO_END = ("setup_s", "check_per_s", "write_ack_p50_ms", "server_rss_mb",
              "snapshot_bytes_per_arc")
PER_LAYER = ("graph.io.load_s", "core.tree_cover.build_s",
             "core.labeling.postorder_s", "core.propagation.run_s",
             "core.frozen.freeze_s", "core.index.intervals",
             "server.protocol.decode_us", "server.protocol.encode_us",
             "server.coalesce.pairs_per_drain",
             "engine.reachable_many_us_per_pair", "engine.successors_ms",
             "engine.predecessors_ms", "core.hybrid.apply_ms",
             "core.hybrid.snapshot_ms", "server.state.publish_ms",
             "server.state.writes_per_publish", "server.state.epoch_swaps",
             "server.state.queue_wait_ms", "loadgen.lateness_ms",
             "trace.overhead_frac")


class Run:
    """One workload run against one server: phases, then observations."""

    def __init__(self, spec: dict, inputs: Inputs, seed: int,
                 seconds: float) -> None:
        self.spec = spec
        self.inputs = inputs
        self.rng = random.Random(seed ^ 0x5EED)
        self.open_s = seconds * OPEN_SHARE
        self.closed_s = seconds - self.open_s
        self.tally = Tally()
        self.ids = itertools.count(1)
        self.observed: Dict[str, object] = {}

    # -- request frames ------------------------------------------------
    def _check(self, writes_done: bool, record: bool = True,
               exact_final: bool = False) -> tuple:
        index = self.rng.randrange(len(self.inputs.pairs))
        before, after = self.inputs.pair_truth[index]
        low = after if exact_final else before
        high = after if (writes_done or exact_final) else before
        u, v = self.inputs.pairs[index]
        return self._frame(Request("check", (low, high, (u, v)),
                                   record=record),
                           {"op": "check", "u": u, "v": v})

    def _setq(self, sequence: int, writes_done: bool) -> tuple:
        if sequence % 2 == 0:
            kind, op, field, pool = ("expand", "expand", "u",
                                     self.inputs.expand)
        else:
            kind, op, field, pool = ("reaching", "list-reaching", "v",
                                     self.inputs.reaching)
        node, before, after = pool[self.rng.randrange(len(pool))]
        high = after if writes_done else before
        return self._frame(Request(kind, (before, high, node)),
                           {"op": op, field: node})

    def _frame(self, request: Request, payload: dict) -> tuple:
        request_id = next(self.ids)
        payload["id"] = request_id
        return request_id, request, frame(payload)

    def reads(self, count: int, writes_done: bool) -> List[tuple]:
        out = []
        for i in range(count):
            if i % SETQ_EVERY == SETQ_EVERY - 1:
                out.append(self._setq(i // SETQ_EVERY, writes_done))
            else:
                out.append(self._check(writes_done))
        return out

    def writes(self, plan: List[dict]) -> List[tuple]:
        return [self._frame(Request("write", entry), dict(entry))
                for entry in plan]

    def pages(self, writes_done: bool) -> List[List[tuple]]:
        return [[self._check(writes_done, record=False)
                 for _ in range(PAGE)] for _ in range(64)]

    # -- phases --------------------------------------------------------
    async def connect(self, server: ServerProcess) -> List[Connection]:
        """Two connections; in a cluster, on two different workers."""
        conns = []
        for _ in range(2):
            conns.append(await Connection.open(server.host, server.port,
                                               self.tally, self.ids))
        if server.workers > 1:
            first = (await conns[0].call("stats"))["result"]["worker_id"]
            for _ in range(50):
                stats = (await conns[1].call("stats"))["result"]
                if stats["worker_id"] != first:
                    break
                await conns[1].close()
                conns[1] = await Connection.open(server.host, server.port,
                                                 self.tally, self.ids)
        return conns

    async def capacity(self, conns: List[Connection], seconds: float,
                       writes_done: bool) -> List[float]:
        """Closed-loop pipelined 16-check pages on every connection for
        ``seconds``; returns the rate in each ``CAPACITY_WINDOW``."""
        started = time.perf_counter()
        first = len(self.tally.pages)
        await asyncio.gather(*(closed_loop(conn, self.pages(writes_done),
                                           started + seconds, DEPTH)
                               for conn in conns))
        windows = [0] * max(1, int(seconds / CAPACITY_WINDOW))
        for when, size in self.tally.pages[first:]:
            slot = int((when - started) / CAPACITY_WINDOW)
            if slot < len(windows):
                windows[slot] += size
        return [count / CAPACITY_WINDOW for count in windows]

    async def drive(self, server: ServerProcess) -> None:
        # The generator's own heap (graph, references, frames) is large;
        # a cyclic-GC pass over it stalls sending for tens of ms, which
        # would count against the server.  Replies form no cycles.
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            await self._drive(server)
        finally:
            gc.enable()
            gc.unfreeze()

    async def _drive(self, server: ServerProcess) -> None:
        spec, inputs = self.spec, self.inputs
        conns = await self.connect(server)
        await self.capacity(conns, WARMUP_S, writes_done=False)
        # capacity is measured in two halves, before and after the open
        # loop, so one run samples the machine at two different times
        windows = await self.capacity(conns, self.closed_s / 2,
                                      writes_done=False)

        # open loop: reads (and, on write workloads, writes) on schedule
        writing = spec["write_rate"] > 0
        read_conns = conns[1:] if writing else conns
        per_conn = spec["read_rate"] / len(read_conns)
        streams = [(conn, self.reads(int(per_conn * self.open_s) + 1,
                                     writes_done=writing), per_conn)
                   for conn in read_conns]
        if writing:
            streams.append((conns[0], self.writes(inputs.writes),
                            spec["write_rate"]))
        start = time.perf_counter() + 0.05
        await asyncio.gather(*(open_loop(conn, frames, rate, start,
                                         self.open_s)
                               for conn, frames, rate in streams))
        for conn in conns:
            await conn.idle(60)
        self.observed["open_loop_end_s"] = time.perf_counter() - start

        windows += await self.capacity(conns, self.closed_s / 2,
                                       writes_done=writing)
        self.observed["check_per_s"] = statistics.median(windows)

        stats = (await conns[0].call("stats"))["result"]
        self.observed["intervals"] = stats["snapshot"]["num_intervals"]
        self.observed["rss_mb"] = server.peak_rss_mb()
        if server.workers:
            self.observed["snapshot_bytes"] = server.generation_bytes()
            self.observed["snapshot_arcs"] = inputs.final_arcs
        else:
            self.observed["snapshot_bytes"] = stats["snapshot"]["nbytes"]
            self.observed["snapshot_arcs"] = (inputs.final_arcs if writing
                                              else inputs.num_arcs)

        if spec["probe_writes"]:
            # one connection, so every ack covers exactly one refreeze
            await closed_writes(conns[0], self.writes(inputs.writes))

        # read-your-writes: the writing connection sees the final graph
        recheck = [self._check(True, record=False, exact_final=True)
                   for _ in range(RECHECK)]
        conns[0].send(recheck)
        await conns[0].idle(60)
        self.observed["scrape"] = server.scrape()
        for conn in conns:
            await conn.close()

    # -- results -------------------------------------------------------
    def end_to_end(self, setups: List[float]) -> Dict[str, tuple]:
        """``name -> (value, unit, samples)``, timings as measured."""
        latency = self.tally.latency
        out = {"setup_s": (statistics.median(setups), "s", len(setups))}
        checks, setq, acks = (latency["check"], latency["setq"],
                              latency["write"])
        for name, samples in (("check", checks), ("setq", setq)):
            if not samples:
                continue
            out[f"{name}_mean_ms"] = (statistics.fmean(samples), "ms",
                                      len(samples))
            for q in (50, 95, 99):
                if supported(samples, q):
                    out[f"{name}_p{q}_ms"] = (percentile(samples, q), "ms",
                                              len(samples))
        out["check_per_s"] = (self.observed["check_per_s"], "1/s",
                              self.tally.closed_checks)
        if acks:
            out["write_ack_p50_ms"] = (percentile(acks, 50), "ms", len(acks))
            if supported(acks, 90):
                out["write_ack_p90_ms"] = (percentile(acks, 90), "ms",
                                           len(acks))
        out["server_rss_mb"] = (self.observed["rss_mb"], "MB", 1)
        out["snapshot_bytes_per_arc"] = (
            self.observed["snapshot_bytes"] / self.observed["snapshot_arcs"],
            "B/arc", self.observed["snapshot_arcs"])
        tally = self.tally
        out["failed_frac"] = (tally.failed / max(tally.attempted, 1), "ratio",
                              tally.attempted)
        return out

    def loadgen(self) -> Dict[str, tuple]:
        tally = self.tally
        out = {}
        if tally.lateness:
            out["loadgen.lateness_ms"] = (percentile(tally.lateness, 99),
                                          "ms", len(tally.lateness))
            out["loadgen.lateness_max_ms"] = (max(tally.lateness), "ms",
                                              len(tally.lateness))
        timeline = sorted(tally.check_timeline)
        half = len(timeline) // 2
        if half and supported(range(half), 99):
            out["loadgen.check_p99_first_half_ms"] = (
                percentile([t[1] for t in timeline[:half]], 99), "ms", half)
            out["loadgen.check_p99_second_half_ms"] = (
                percentile([t[1] for t in timeline[half:]], 99), "ms",
                len(timeline) - half)
        out["server.cluster.stale_reads"] = (tally.stale_reads, "count",
                                             tally.reads_after_ack)
        out["server.cluster.reads_after_ack"] = (tally.reads_after_ack,
                                                 "count",
                                                 tally.reads_after_ack)
        out["server.cluster.stale_read_frac"] = (
            tally.stale_reads / max(tally.reads_after_ack, 1), "ratio",
            tally.reads_after_ack)
        return out


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(root: Path, args, spec: dict, inputs: Inputs,
               run: Run) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(CPUS), "generator_cpu": CPUS[-1],
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy_version,
        "git_commit": commit, "source_digest": source_digest(root),
        "graph": dict(inputs.provenance(),
                      intervals=run.observed.get("intervals")),
        "offered": {"read_per_s": spec["read_rate"],
                    "setq_share": 1 / SETQ_EVERY,
                    "write_per_s": spec["write_rate"],
                    "probe_writes": spec["probe_writes"],
                    "server_workers": spec["workers"],
                    "connections": 2, "page": PAGE,
                    "open_loop_s": run.open_s,
                    "closed_loop_s": run.closed_s},
    }


def show(kind: str, metrics: Dict[str, tuple]) -> None:
    for name, (value, unit, base) in metrics.items():
        print(f"{kind:6} {name:42} {value:14.6g} {unit:6} n={base:g}")


def problems(run: Run) -> List[str]:
    """Conditions that make a run's figures untrustworthy (reported)."""
    found = []
    late = run.loadgen().get("loadgen.lateness_ms")
    if late and late[0] > LATE_LIMIT_MS:
        found.append(f"generator p99 lateness {late[0]:.1f} ms > "
                     f"{LATE_LIMIT_MS} ms")
    if run.observed["open_loop_end_s"] > run.open_s + 2.0:
        found.append("open-loop replies trailed the schedule by "
                     f"{run.observed['open_loop_end_s'] - run.open_s:.1f} s "
                     "(backlog)")
    return found


def start(root: Path, work: Path, edges: Path, spec: dict,
          spans: Optional[Path] = None) -> ServerProcess:
    """Start a server; once it serves, put it and this generator on one CPU.

    On the 2-vCPU virtual machine the benchmark was calibrated on, every
    request that crossed vCPUs paid a host-dependent wake-up.  With the
    server and the generator on different vCPUs, closed-loop capacity
    ranged over 2x within one server's lifetime; on one vCPU the range
    was 1.13x, and the median latency was steadier too.  So the generator and every
    server process, cluster workers included, share the last CPU."""
    os.sched_setaffinity(0, CPUS)  # the build may use any CPU
    server = ServerProcess(root, work, edges, workers=spec["workers"],
                           spans_dir=spans)
    for pid in server.pids() + [0]:
        os.sched_setaffinity(pid, {CPUS[-1]})
    return server


def measure(root: Path, work: Path, edges: Path, spec: dict, inputs: Inputs,
            args, spans: Optional[Path]) -> tuple:
    setups: List[float] = []
    if spans is None:
        for _ in range(spec["setups"] - 1):
            server = start(root, work, edges, spec)
            setups.append(server.setup_s)
            server.stop()
    server = start(root, work, edges, spec, spans)
    setups.append(server.setup_s)
    run = Run(spec, inputs, args.seed, args.seconds)
    try:
        asyncio.run(run.drive(server))
    finally:
        server.stop()
    return run, setups


def overhead(root: Path, work: Path, edges: Path, spec: dict,
             inputs: Inputs, args, traced: Run,
             traced_setup: float) -> Dict[str, tuple]:
    """Capacity and set-up of an untraced server against the traced one."""
    server = start(root, work, edges, spec)
    run = Run(spec, inputs, args.seed, args.seconds)

    async def probe() -> float:
        conns = await run.connect(server)
        await run.capacity(conns, WARMUP_S, writes_done=False)
        windows = await run.capacity(conns, run.closed_s,
                                     writes_done=False)
        for conn in conns:
            await conn.close()
        return statistics.median(windows)

    try:
        untraced = asyncio.run(probe())
    finally:
        server.stop()
    traced_rate = traced.observed["check_per_s"]
    return {
        "trace.overhead_frac": (1.0 - traced_rate / untraced, "ratio",
                                traced.tally.closed_checks),
        "trace.untraced_check_per_s": (untraced, "1/s",
                                       run.tally.closed_checks),
        "trace.traced_check_per_s": (traced_rate, "1/s",
                                     traced.tally.closed_checks),
        "trace.setup_ratio": (traced_setup / server.setup_s, "ratio", 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program source under {root / 'src'}",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def stop(signum, frame_):
        # unwinds through the ``finally`` blocks that stop the servers
        raise TimeoutError(f"benchmark run stopped by signal {signum}")
    signal.signal(signal.SIGALRM, stop)
    signal.signal(signal.SIGTERM, stop)
    signal.alarm(170)
    try:
        return execute(root, work, spec, args)
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)


def execute(root: Path, work: Path, spec: dict, args) -> int:
    open_s = args.seconds * OPEN_SHARE
    # exactly the writes the open loop will send, so the final reference
    # (every planned write applied) is the graph the server ends with
    writes = (int(spec["write_rate"] * open_s) if spec["write_rate"]
              else spec["probe_writes"])
    inputs = Inputs(nodes=spec["nodes"], avg_degree=AVG_DEGREE,
                    seed=args.seed, writes=writes)
    edges = work / "graph.edges"
    edges.write_text(inputs.initial.edge_list())

    spans = None
    if args.trace:
        spans = work / "spans"
        spans.mkdir()
    run, setups = measure(root, work, edges, spec, inputs, args, spans)
    e2e = run.end_to_end(setups)
    e2e["write_ack_count"] = (len(run.tally.latency["write"]), "count",
                              len(run.tally.latency["write"]))
    scraped = layers.scrape_metrics(run.observed["scrape"])
    side = run.loadgen()
    counts = {"core.index.intervals": (run.observed["intervals"], "count",
                                       inputs.num_arcs)}
    per_layer = dict(counts, **scraped, **side)
    if args.trace:
        per_layer.update(layers.span_metrics(layers.Spans(spans)))
        per_layer.update(overhead(root, work, edges, spec, inputs, args,
                                  run, setups[-1]))

    tally = run.tally
    correct = tally.wrong == 0 and tally.failed == 0
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print("provenance " + json.dumps(provenance(root, args, spec, inputs,
                                                run), sort_keys=True))
    print("setups " + " ".join(f"{value:.4f}" for value in setups))
    show("e2e" if not args.trace else "traced", e2e)
    show("layer", per_layer)
    found = problems(run)
    for problem in found:
        print(f"warning {problem}")
    if tally.errors:
        print(f"errors {json.dumps(tally.errors, sort_keys=True)}")
    for example in tally.wrong_examples:
        print(f"wrong {example}")

    names = PER_LAYER if args.trace else END_TO_END
    source = per_layer if args.trace else e2e
    missing = [name for name in names if name not in source]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": source[name][0], "unit": source[name][1]}
                    for name in names},
    }
    out = HERE / ".out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(
        {"result": result,
         "provenance": provenance(root, args, spec, inputs, run),
         "end_to_end": e2e, "per_layer": per_layer,
         "problems": found}, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
