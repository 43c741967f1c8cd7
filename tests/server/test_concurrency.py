"""The concurrency battery: interleaved reads and writes vs the oracle.

The contract under test, from the epoch-swap design:

* every response is correct *for the epoch it was served at* — reads
  raced with writes must match the set-closure oracle's state at the
  reported epoch, never a blend of two epochs (torn), never a state
  more than the in-flight publish behind;
* response epochs are monotone per connection, and a client that saw a
  write acknowledged at epoch *e* never reads below *e* afterwards
  (read-your-writes);
* coalescing is invisible: a batch of checks answered through one
  ``reachable_many`` drain is byte-identical to the same checks
  answered one at a time.
"""

from __future__ import annotations

import asyncio

from repro.core.hybrid import HybridTCIndex
from repro.graph.generators import random_dag
from repro.server.client import ReachabilityClient
from repro.server.protocol import encode_frame
from repro.testing.oracle import SetClosureOracle

from .harness import next_response, run, serving


def _closure_snapshot(oracle: SetClosureOracle) -> dict:
    return dict(oracle.closure())


class EpochTimeline:
    """Oracle state per published epoch, recorded by the writer side."""

    def __init__(self, oracle: SetClosureOracle) -> None:
        self.oracle = oracle
        self.by_epoch = {0: _closure_snapshot(oracle)}

    def apply(self, epoch: int, method: str, *args) -> None:
        getattr(self.oracle, method)(*args)
        self.by_epoch[epoch] = _closure_snapshot(self.oracle)

    def check(self, epoch: int, source, destination) -> bool:
        closure = self.by_epoch[epoch]
        return destination in closure[source]


class TestInterleavedReadsAndWrites:
    def test_every_response_matches_oracle_at_its_epoch(self):
        """Readers hammer a server whose graph a writer keeps mutating.

        Every single answer must equal the oracle's answer *at the
        epoch the server says it served* — the strongest form of the
        not-torn / not-stale guarantee this protocol makes.
        """
        graph = random_dag(20, 1.7, 5)
        oracle = SetClosureOracle(arcs=graph.arcs(), nodes=graph.nodes())
        base_nodes = sorted(oracle.nodes(), key=repr)
        timeline = EpochTimeline(oracle)
        engine = HybridTCIndex.build(graph, max_delta=1_000_000,
                                     max_ratio=1_000_000.0)
        observations = []

        async def writer(client: ReachabilityClient) -> None:
            # A scripted churn: graft a chain node, wire it to a
            # cycle-safe target, tear the wire back out.
            import random
            rng = random.Random(99)
            for i in range(12):
                parent = rng.choice(base_nodes)
                node = f"w{i}"
                epoch = await client.add_node(node, parents=[parent])
                timeline.apply(epoch, "add_node", node)
                timeline.apply(epoch, "add_arc", parent, node)
                safe = [n for n in base_nodes
                        if n != parent
                        and not timeline.oracle.reachable(n, parent)]
                if safe:
                    target = rng.choice(safe)
                    epoch = await client.add_arc(node, target)
                    timeline.apply(epoch, "add_arc", node, target)
                    epoch = await client.remove_arc(node, target)
                    timeline.apply(epoch, "remove_arc", node, target)
                await asyncio.sleep(0)

        async def reader(client: ReachabilityClient, seed: int) -> None:
            import random
            rng = random.Random(seed)
            for _ in range(150):
                source = rng.choice(base_nodes)
                destination = rng.choice(base_nodes)
                response = await client.request("check", u=source,
                                                v=destination)
                assert response["ok"], response
                observations.append((source, destination,
                                     response["result"],
                                     response["epoch"]))
                if rng.random() < 0.1:
                    await asyncio.sleep(0)

        async def scenario():
            async with serving(engine) as (_, host, port):
                write_client = await ReachabilityClient.connect(host, port)
                read_clients = [
                    await ReachabilityClient.connect(host, port)
                    for _ in range(3)]
                try:
                    await asyncio.gather(
                        writer(write_client),
                        *(reader(client, 1000 + i)
                          for i, client in enumerate(read_clients)))
                finally:
                    for client in read_clients:
                        await client.close()
                    await write_client.close()

        run(scenario())
        assert observations, "readers observed nothing"
        seen_epochs = set()
        for source, destination, answer, epoch in observations:
            assert epoch in timeline.by_epoch, \
                f"served at unrecorded epoch {epoch}"
            seen_epochs.add(epoch)
            expected = timeline.check(epoch, source, destination)
            assert answer == expected, (
                f"check({source!r}, {destination!r}) at epoch {epoch}: "
                f"server said {answer}, oracle at that epoch says "
                f"{expected}")
        # The race actually happened: reads landed on several epochs.
        assert len(seen_epochs) > 1

    def test_batched_checks_never_tear_across_a_swap(self):
        """A check-many raced with arc flips answers at ONE epoch.

        The pairs are chosen so a torn batch would be visible: with the
        chain a->b->c and the flipping arc b->c, `a reaches c` must
        always equal `b reaches c` — mixing two epochs in one batch
        breaks that equality.
        """
        engine = HybridTCIndex.from_arcs([("a", "b"), ("b", "c")],
                                         max_delta=1_000_000,
                                         max_ratio=1_000_000.0)
        oracle = SetClosureOracle(arcs=[("a", "b"), ("b", "c")])
        timeline = EpochTimeline(oracle)

        async def flipper(client: ReachabilityClient) -> None:
            for _ in range(15):
                epoch = await client.remove_arc("b", "c")
                timeline.apply(epoch, "remove_arc", "b", "c")
                await asyncio.sleep(0)
                epoch = await client.add_arc("b", "c")
                timeline.apply(epoch, "add_arc", "b", "c")
                await asyncio.sleep(0)

        batches = []

        async def prober(client: ReachabilityClient) -> None:
            pairs = [("a", "c"), ("b", "c"), ("a", "b")]
            for _ in range(120):
                response = await client.request(
                    "check-many", pairs=[list(p) for p in pairs])
                assert response["ok"], response
                batches.append((response["result"], response["epoch"]))

        async def scenario():
            async with serving(engine) as (_, host, port):
                flip_client = await ReachabilityClient.connect(host, port)
                probe_client = await ReachabilityClient.connect(host, port)
                try:
                    await asyncio.gather(flipper(flip_client),
                                         prober(probe_client))
                finally:
                    await probe_client.close()
                    await flip_client.close()

        run(scenario())
        flipped = set()
        for (a_c, b_c, a_b), epoch in batches:
            assert a_b is True
            # Internal consistency: both sides of the flipping arc agree.
            assert a_c == b_c, (
                f"torn batch at epoch {epoch}: a->c={a_c} but b->c={b_c}")
            # And the whole batch matches the oracle at that epoch.
            assert a_c == timeline.check(epoch, "a", "c")
            assert b_c == timeline.check(epoch, "b", "c")
            flipped.add(b_c)
        assert flipped == {True, False}, \
            "the race never caught both arc states"

    def test_epochs_monotone_and_read_your_writes(self):
        engine = HybridTCIndex.from_arcs([("a", "b")],
                                         max_delta=1_000_000,
                                         max_ratio=1_000_000.0)

        async def scenario():
            async with serving(engine) as (_, host, port):
                client = await ReachabilityClient.connect(host, port)
                try:
                    last_epoch = 0
                    for i in range(10):
                        ack = await client.add_node(f"n{i}", parents=["a"])
                        assert ack > last_epoch
                        response = await client.request(
                            "check", u="a", v=f"n{i}")
                        assert response["result"] is True
                        # Never below the acknowledged write's epoch.
                        assert response["epoch"] >= ack
                        assert response["epoch"] >= last_epoch
                        last_epoch = response["epoch"]
                finally:
                    await client.close()

        run(scenario())

    def test_concurrent_writers_converge(self):
        """Racing writers: every ack'd write is visible at the end."""
        engine = HybridTCIndex.from_arcs([("root", "stem")],
                                         max_delta=1_000_000,
                                         max_ratio=1_000_000.0)

        async def scenario():
            async with serving(engine) as (server, host, port):
                clients = [await ReachabilityClient.connect(host, port)
                           for _ in range(4)]
                try:
                    async def add_fan(client, tag):
                        return [await client.add_node(f"{tag}{i}",
                                                      parents=["stem"])
                                for i in range(8)]

                    acks = await asyncio.gather(
                        *(add_fan(client, chr(ord("p") + i))
                          for i, client in enumerate(clients)))
                    final = await clients[0].expand("root")
                    expected = {"root", "stem"} | {
                        f"{chr(ord('p') + i)}{j}"
                        for i in range(4) for j in range(8)}
                    assert set(final) == expected
                    # Folding happened: fewer publishes than writes
                    # is allowed, more is impossible.
                    top = server.state.epoch
                    assert top <= 32
                    assert all(ack <= top
                               for per_client in acks
                               for ack in per_client)
                finally:
                    for client in clients:
                        await client.close()

        run(scenario())


class TestCoalescingTransparency:
    def test_batch_answers_byte_identical_to_singles(self):
        """The wire bytes with coalescing on == off, frame for frame."""
        graph = random_dag(25, 1.8, 13)
        nodes = sorted(graph.nodes(), key=repr)
        import random
        rng = random.Random(31)
        requests = [
            {"id": i, "op": "check", "u": rng.choice(nodes),
             "v": rng.choice(nodes)}
            for i in range(64)]
        blob = b"".join(encode_frame(request) for request in requests)

        async def collect(coalesce: bool) -> list:
            engine = HybridTCIndex.build(graph)
            frames = []
            async with serving(engine, coalesce=coalesce) as (_, host, port):
                reader, writer = await asyncio.open_connection(host, port)
                # One write: the server sees the whole pipeline at once,
                # the strongest coalescing case.
                writer.write(blob)
                await writer.drain()
                for _ in requests:
                    frames.append(await next_response(reader))
                writer.close()
            return frames

        coalesced = run(collect(True))
        singles = run(collect(False))
        # Same decoded answers, same order...
        assert coalesced == singles
        # ...and byte-identical frames (deterministic encoding).
        assert [encode_frame(r) for r in coalesced] == \
            [encode_frame(r) for r in singles]

    def test_trickled_checks_also_match(self):
        """Checks arriving one socket write at a time agree too."""
        engine_arcs = [("a", "b"), ("b", "c"), ("a", "d")]
        pairs = [("a", "c"), ("c", "a"), ("d", "b"), ("a", "d")] * 5

        async def collect(coalesce: bool) -> list:
            engine = HybridTCIndex.from_arcs(engine_arcs)
            results = []
            async with serving(engine, coalesce=coalesce) as (_, host, port):
                client = await ReachabilityClient.connect(host, port)
                try:
                    for source, destination in pairs:
                        results.append(
                            await client.check(source, destination))
                finally:
                    await client.close()
            return results

        assert run(collect(True)) == run(collect(False))

    def test_concurrent_connections_coalesce_into_fewer_drains(self):
        """Concurrent check groups share one reachable_many drain.

        Eight single-pair groups submitted in one ``gather`` all enqueue
        before the one-scheduler-pass drain runs, so exactly one drain
        answers all eight, from one snapshot."""
        import random
        graph = random_dag(30, 1.8, 17)
        nodes = sorted(graph.nodes(), key=repr)
        rng = random.Random(17)
        pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(8)]
        closure = SetClosureOracle(arcs=graph.arcs(),
                                   nodes=graph.nodes()).closure()
        engine = HybridTCIndex.build(graph)

        async def scenario():
            async with serving(engine) as (server, _, _):
                batches = server.metrics.counter("tc_server_batches_total")
                coalesced = server.metrics.counter(
                    "tc_server_coalesced_checks_total")
                before = batches.value, coalesced.value
                results = await asyncio.gather(
                    *(server.coalescer.check_group([pair])
                      for pair in pairs))
                assert batches.value - before[0] == 1
                assert coalesced.value - before[1] == 8
                assert len({id(snapshot) for _, snapshot in results}) == 1
                assert [answers for answers, _ in results] == [
                    [destination in closure[source]]
                    for source, destination in pairs]
        run(scenario())
