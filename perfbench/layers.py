"""Per-layer metrics: from launcher spans and from a ``/metrics`` scrape.

Every metric is a ``(value, unit, base)`` triple, where ``base`` is the
count the value was computed over (spans, pairs, drains, publishes, ...)
so that every ratio states its base.  Layers that did not run on a
workload are left out rather than reported as zero.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from serverproc import by_label, sum_series

Metric = Tuple[float, str, float]


class Spans:
    """Every span of one traced server, across its processes."""

    def __init__(self, directory: Path) -> None:
        #: name -> [(pid, id, parent, start_ns, end_ns, attr)]
        self.by_name: Dict[str, List[tuple]] = defaultdict(list)
        self.name_of: Dict[Tuple[int, int], str] = {}
        self.children: Dict[Tuple[int, int], List[tuple]] = defaultdict(list)
        self.count = 0
        for path in sorted(directory.glob("spans-*.json")):
            document = json.loads(path.read_text())
            pid = document["pid"]
            for span_id, parent, name, start, end, attr in document["spans"]:
                record = (pid, span_id, parent, start, end, attr)
                self.by_name[name].append(record)
                self.name_of[(pid, span_id)] = name
                self.children[(pid, parent)].append(record)
                self.count += 1

    def under(self, name: str, parent_name: str) -> List[tuple]:
        """Spans called ``name`` whose direct parent is ``parent_name``."""
        return [s for s in self.by_name.get(name, [])
                if self.name_of.get((s[0], s[2])) == parent_name]

    def self_ns(self, span: tuple) -> int:
        """Duration minus the time its child spans cover."""
        pid, span_id, _, start, end, _ = span
        covered, cursor = 0, start
        for child in sorted(self.children.get((pid, span_id), []),
                            key=lambda c: c[3]):
            lo, hi = max(child[3], cursor), min(child[4], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return end - start - covered


def _mean(spans: List[tuple], scale: float) -> float:
    return sum(s[4] - s[3] for s in spans) / len(spans) / scale


def _per_item(spans: List[tuple], scale: float) -> float:
    items = sum(s[5] for s in spans)
    return sum(s[4] - s[3] for s in spans) / max(items, 1) / scale


def span_metrics(spans: Spans) -> Dict[str, Metric]:
    out: Dict[str, Metric] = {}

    def first_s(metric: str, name: str) -> None:
        found = spans.by_name.get(name)
        if found:
            out[metric] = (_mean(found[:1], 1e9), "s", 1)

    # start-up build
    first_s("graph.io.load_s", "graph.io.load_edge_list")
    first_s("core.tree_cover.build_s", "core.tree_cover.build_tree_cover")
    first_s("core.labeling.postorder_s", "core.labeling.assign_postorder")
    first_s("core.propagation.run_s", "core.propagation.run_propagation")
    freeze = spans.under("core.frozen.from_index", "core.hybrid.from_index")
    if freeze:
        out["core.frozen.freeze_s"] = (_mean(freeze[:1], 1e9), "s", 1)
    first_s("server.generations.initial_publish_s",
            "server.generations.publish_initial")

    # read path: per frame, and per op
    for layer, name in (("decode", "server.protocol.decode_payload"),
                        ("encode", "server.protocol.encode_response")):
        found = spans.by_name.get(name, [])
        if not found:
            continue
        out[f"server.protocol.{layer}_us"] = (_mean(found, 1e3), "us",
                                              len(found))
        per_op = defaultdict(list)
        for span in found:
            per_op[span[5]].append(span)
        for op, group in sorted(per_op.items(), key=lambda kv: str(kv[0])):
            out[f"server.protocol.{layer}_us.{op}"] = (
                _mean(group, 1e3), "us", len(group))
    drains = spans.by_name.get("server.coalesce.drain", [])
    if drains:
        out["server.coalesce.drain_us"] = (_mean(drains, 1e3), "us",
                                           len(drains))
        out["server.coalesce.drain_self_us"] = (
            sum(spans.self_ns(s) for s in drains) / len(drains) / 1e3,
            "us", len(drains))
    engine_many = []
    for family in ("frozen", "rtcf"):
        many = spans.by_name.get(f"core.{family}.reachable_many", [])
        engine_many += many
        if many:
            out[f"core.{family}.reachable_many_us_per_pair"] = (
                _per_item(many, 1e3), "us", sum(s[5] for s in many))
            out[f"core.{family}.reachable_many_calls"] = (
                len(many), "count", len(many))
        for method in ("successors", "predecessors"):
            found = spans.by_name.get(f"core.{family}.{method}", [])
            if found:
                out[f"core.{family}.{method}_ms"] = (_mean(found, 1e6), "ms",
                                                     len(found))
                out[f"core.{family}.{method}_size"] = (
                    sum(s[5] for s in found) / len(found), "nodes",
                    len(found))
    if engine_many:
        # heap snapshots and mmap'd views together: whichever serves reads
        out["engine.reachable_many_us_per_pair"] = (
            _per_item(engine_many, 1e3), "us",
            sum(s[5] for s in engine_many))
    for method in ("successors", "predecessors"):
        found = (spans.by_name.get(f"core.frozen.{method}", [])
                 + spans.by_name.get(f"core.rtcf.{method}", []))
        if found:
            out[f"engine.{method}_ms"] = (_mean(found, 1e6), "ms",
                                          len(found))

    # write path
    publish = "server.state.apply_and_publish"
    applies = (spans.under("core.hybrid.add_node", publish)
               + spans.under("core.hybrid.add_arc", publish))
    if applies:
        out["core.hybrid.apply_ms"] = (_mean(applies, 1e6), "ms",
                                       len(applies))
    snapshots = spans.under("core.hybrid.snapshot", publish)
    if snapshots:
        out["core.hybrid.snapshot_ms"] = (_mean(snapshots, 1e6), "ms",
                                          len(snapshots))
    publishes = spans.by_name.get(publish, [])
    if publishes:
        out["server.state.apply_and_publish_ms"] = (
            _mean(publishes, 1e6), "ms", len(publishes))
    waits = _queue_waits(spans.by_name.get("server.state.submit", []),
                         applies)
    if waits:
        out["server.state.queue_wait_ms"] = (sum(waits) / len(waits) / 1e6,
                                             "ms", len(waits))
    generation = spans.under("server.generations.publish", publish)
    if generation:
        out["server.generations.publish_ms"] = (_mean(generation, 1e6),
                                                "ms", len(generation))
    attaches = spans.by_name.get("server.generations.attach", [])
    if attaches:
        out["server.generations.attach_ms"] = (_mean(attaches, 1e6), "ms",
                                               len(attaches))
    out["trace.spans"] = (spans.count, "count", spans.count)
    return out


def _queue_waits(submits: List[tuple], applies: List[tuple]) -> List[int]:
    """Submit start to the start of the same write's apply: the part of
    the ``ServeState.submit`` span spent queued behind other writes."""
    by_key = defaultdict(list)
    for apply in applies:
        by_key[(apply[0], apply[5])].append(apply[3])
    waits = []
    for pid, _, _, start, _, key in submits:
        later = [t for t in by_key.get((pid, key), []) if t >= start]
        if later:
            waits.append(min(later) - start)
    return waits


def scrape_metrics(series: Dict[str, float]) -> Dict[str, Metric]:
    """Counters and histograms from ``/metrics``, each with its base."""
    out: Dict[str, Metric] = {}
    batches = sum_series(series, "tc_server_batches_total")
    coalesced = sum_series(series, "tc_server_coalesced_checks_total")
    if batches:
        out["server.coalesce.pairs_per_drain"] = (coalesced / batches,
                                                  "pairs", batches)
        pairs = sum_series(series, "tc_server_batch_size_sum")
        out["server.coalesce.batch_size_mean"] = (pairs / batches, "pairs",
                                                  batches)
    publishes = sum_series(series, "tc_server_publish_seconds_count")
    if publishes:
        out["server.state.publish_ms"] = (
            sum_series(series, "tc_server_publish_seconds_sum")
            / publishes * 1e3, "ms", publishes)
        out["server.state.writes_per_publish"] = (
            sum_series(series, "tc_server_write_batch_size_sum")
            / publishes, "writes", publishes)
        out["server.state.epoch_swaps"] = (
            sum_series(series, "tc_server_epoch_swaps_total"), "count",
            publishes)
    generations = sum_series(
        series, "tc_cluster_generation_publish_seconds_count")
    if generations:
        out["server.generations.publish_ms.scrape"] = (
            sum_series(series, "tc_cluster_generation_publish_seconds_sum")
            / generations * 1e3, "ms", generations)
    reattaches = sum_series(series, "tc_worker_reattach_total")
    forwarded = sum_series(series, "tc_worker_forwarded_writes_total")
    if "tc_worker_reattach_total" in "".join(series):
        out["server.cluster.reattaches"] = (reattaches, "count", reattaches)
        out["server.cluster.forwarded_writes"] = (forwarded, "count",
                                                  forwarded)
    requests = sum_series(series, "tc_server_requests_total")
    for code, count in sorted(by_label(series, "tc_server_errors_total",
                                       "code").items()):
        out[f"server.app.errors.{code}"] = (count, "count", requests)
    out["server.coalesce.expired_checks"] = (
        sum_series(series, "tc_server_expired_checks_total"), "count",
        coalesced)
    return out
