"""The interval-propagation pass (Section 3.2) as a numpy level kernel.

Every build, rebuild, renumbering, deletion and batch flush computes the
non-tree intervals through :func:`run_propagation`.  The sequential
:func:`repro.core.labeling.propagate_intervals` — one sorted merge per
arc, node by node in reverse topological order — is the reference this
kernel reproduces exactly; it runs only as the fallback for numberings
the int64 sweep cannot hold.

The kernel reformulates the pass over *reverse-topological levels*.
Level 0 holds the sinks; a node's level is one more than the maximum
level of its graph successors, so by the time a level is processed every
successor's final interval set is known.  Nothing inside a level depends
on anything else inside it, so a whole level resolves at once:
concatenate, for every node of the level, its tree interval plus all of
its successors' final ``(lo, hi)`` runs into flat arrays (``lo``, ``hi``,
``owner``), then sort once and run one segmented maximum-accumulate
sweep.  The sweep keeps an interval exactly when its upper bound exceeds
the running maximum within its owner segment — the same
"subsumption-maximal elements of the union" fixpoint
:meth:`IntervalSet.add_all` reaches one merge at a time, so the output
labeling is *identical*, not merely equivalent (the parity tests and the
differential fuzzer both assert this).

Every interval the pass produces is the tree interval of some node, so
the kernel carries each interval as that node's id and writes back the
tree intervals' own end-point objects: the labeling holds no more int
objects than the sequential pass would build.

The sweep packs ``(owner, hi)`` into one int64 key, so a numbering whose
gaps are so wide that ``n * (max number + 1)`` reaches ``2**62`` runs the
reference pass instead, as does a fractional numbering (Section 4
footnote) once an insertion has put a non-integer end-point in the tree.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

from repro.core.frozen import _numpy
from repro.core.intervals import IntervalSet
from repro.core.labeling import Labeling, propagate_intervals
from repro.graph.digraph import DiGraph, Node


def _sweep_level(los, his, owners):
    """Positions of each owner's subsumption-maximal intervals.

    The inputs may come in any order; the returned positions index them
    and are ordered by (owner, lo).
    """
    np = _numpy()
    # (owner asc, lo asc, hi desc) in ONE argsort when the composite key
    # fits int64 — a single introsort beats lexsort's three stable
    # passes by ~2-3x.  Wide numberings overflow it: gap 2**30 does on a
    # 40-node DAG, and so does gap 32 at 1M nodes on any level wider than
    # about 4.5k nodes.
    lo_span = int(los.max()) + 1
    hi_span = int(his.max()) + 1
    owner_span = int(owners.max()) + 1
    if owner_span * lo_span * hi_span < 2**62:
        key = (owners * lo_span + los) * hi_span + (hi_span - 1 - his)
        order = np.argsort(key)
    else:
        order = np.lexsort((-his, los, owners))
    # One key per interval such that comparing keys within an owner
    # compares hi, and any later owner's key beats any earlier owner's:
    # keep iff the key exceeds the running maximum (the add_all sweep,
    # segmented).  The caller bounds owner * hi_span below 2**62.
    keys = owners[order] * hi_span + his[order]
    running = np.maximum.accumulate(keys)
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.greater(keys[1:], running[:-1], out=keep[1:])
    return order[keep]


def run_propagation(graph: DiGraph, order: Sequence[Node],
                    labeling: Labeling) -> None:
    """Compute every node's interval set from the tree intervals.

    ``order`` is a topological order of ``graph``: ``cover.order`` right
    after a build, ``topological_order(graph)`` once updates have made
    that stale.  Replaces ``labeling.intervals[node]`` for every node of
    ``order``; whatever non-tree intervals the old sets held are
    discarded.
    """
    n = len(order)
    if not n:
        return
    tree = labeling.tree_interval
    spans = [tree[node] for node in order]
    los, his = zip(*spans)
    if ({*map(type, los), *map(type, his)} != {int}
            or n * (max(his) + 1) >= 2**62):
        intervals = labeling.intervals
        for node, span in zip(order, spans):
            intervals[node] = IntervalSet([span])
        propagate_intervals(graph, order, labeling)
        return
    _propagate_levels(graph, order, labeling, los, his)


def _concat_ranges(starts, lengths):
    """Positions of the concatenated ranges ``[start, start + length)``."""
    np = _numpy()
    shift = np.cumsum(lengths) - lengths
    return (np.arange(int(lengths.sum()), dtype=np.int64)
            + np.repeat(starts - shift, lengths))


def _propagate_levels(graph, order, labeling, los, his) -> None:
    """The level kernel over int end-points whose sweep keys fit int64."""
    np = _numpy()
    n = len(order)
    # One-time move into id space (id = position in `order`): the graph
    # as CSR arrays in both directions, the tree intervals as flat
    # arrays.  After this, each level is resolved with a fixed number of
    # numpy calls; the only per-node Python work left is the write-back.
    succ_lists = list(map(graph.successors, order))
    id_of = {node: i for i, node in enumerate(order)}
    out_degree = np.fromiter(map(len, succ_lists), dtype=np.int64, count=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(out_degree, out=indptr[1:])
    indices = np.fromiter(map(id_of.__getitem__,
                              chain.from_iterable(succ_lists)),
                          dtype=np.int64, count=int(indptr[-1]))
    del succ_lists, id_of
    in_degree = np.bincount(indices, minlength=n)
    pred_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(in_degree, out=pred_ptr[1:])
    preds = np.repeat(np.arange(n, dtype=np.int64), out_degree)[
        np.argsort(indices, kind="stable")]
    tree_lo = np.array(los, dtype=np.int64)
    tree_hi = np.array(his, dtype=np.int64)
    # The end-point objects themselves, so the written-back sets share
    # the tree intervals' ints instead of minting one per end-point.
    lo_objects = np.array(los, dtype=object)
    hi_objects = np.array(his, dtype=object)

    # Every node's final intervals live in one flat pool, as the ids of
    # the nodes whose tree intervals they are (written exactly once, at
    # the node's own level); gathering a level's input is one
    # fancy-index read instead of per-arc array allocations.  The pool
    # is the one array that grows with the closure, so it stores ids at
    # the narrowest width that holds them.
    id_type = np.int32 if n < 2**31 else np.int64
    capacity = max(1024, 2 * n)
    pool = np.empty(capacity, dtype=id_type)
    size = 0
    start_arr = np.zeros(n, dtype=np.int64)
    end_arr = np.zeros(n, dtype=np.int64)
    intervals = labeling.intervals
    make = IntervalSet.__new__
    # Levels are peeled off the sinks: a node joins the next level once
    # its last unresolved successor has been resolved.
    unresolved = out_degree.copy()
    members = np.flatnonzero(unresolved == 0)
    while len(members):
        count = len(members)
        succ_counts = out_degree[members]
        succ_ids = indices[_concat_ranges(indptr[members], succ_counts)]
        starts = start_arr[succ_ids]
        lengths = end_arr[succ_ids] - starts
        local = np.arange(count, dtype=np.int64)
        srcs = np.concatenate(
            [members, pool[_concat_ranges(starts, lengths)]])
        owners = np.concatenate(
            [local, np.repeat(np.repeat(local, succ_counts), lengths)])
        keep = _sweep_level(tree_lo[srcs], tree_hi[srcs], owners)
        bounds = np.searchsorted(owners[keep], np.arange(count + 1))

        needed = size + len(keep)
        if needed > capacity:
            while capacity < needed:
                capacity *= 2
            grown = np.empty(capacity, dtype=id_type)
            grown[:size] = pool[:size]
            pool = grown
        kept = srcs[keep]
        pool[size:needed] = kept
        start_arr[members] = size + bounds[:-1]
        end_arr[members] = size + bounds[1:]
        size = needed
        # Write the level back right away (two bulk tolist() calls, then
        # plain list slices): no transient array grows with the closure.
        kept_lo = lo_objects[kept].tolist()
        kept_hi = hi_objects[kept].tolist()
        cuts = bounds.tolist()
        for node, begin, end in zip(map(order.__getitem__, members.tolist()),
                                    cuts, cuts[1:]):
            fresh = make(IntervalSet)
            fresh._los = kept_lo[begin:end]
            fresh._his = kept_hi[begin:end]
            intervals[node] = fresh

        waiting, resolved = np.unique(
            preds[_concat_ranges(pred_ptr[members], in_degree[members])],
            return_counts=True)
        unresolved[waiting] -= resolved
        members = waiting[unresolved[waiting] == 0]
