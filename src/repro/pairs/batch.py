"""Vectorised promising-pair generation: Algorithm 1 read off suffix-array
ranks, output-sensitively.

:class:`~repro.pairs.sa_generator.SaPairGenerator` walks the LCP-interval
forest one node at a time in pure Python — per node it interleaves child
slots, deduplicates strings through a mark array, concatenates the
surviving lsets into the parent and emits cartesian products entry by
entry.  Copying every surviving entry up to every ancestor costs
Σ_v |lset(v)|, far more than the pairs it produces.  This module computes
the identical stream without ever materialising an lset, from three facts
about a node ``v`` with rank interval ``[lb_v, rb_v]``, where ``prev(r)``
is the largest rank below ``r`` holding the same string (−1 if none):

1. ``lset(v) = {r ∈ [lb_v, rb_v] : prev(r) < lb_v}`` — each string is
   represented by its smallest rank in the interval, in class ``c(r)``;
2. inside a child slot the surviving entries are in (class, rank) order,
   so ``v`` emits, slot by slot in ``lb`` order, each kept entry ``i`` (by
   class, then rank) against each compatible class in ascending order and
   the kept entries of that class in ``[lb_v, lb_slot)`` by rank;
3. a rank with ``prev(r) ≥ 0`` is dropped as a duplicate at exactly one
   node — the deepest one containing both ``prev(r)`` and ``r``, when it
   is in the forest — from the slot that holds ``r``.

Per-class prefix counts over the owned ranks (the ``rank_c`` query of a
wavelet tree, here five int32 arrays) then give every per-slot and
per-class kept count, the raw-product count and the lset live/peak
accounting in O(n) array sweeps; entries are listed only for
(slot, class) groups that have a compatible partner, so the cost is
O(n log n + raw pairs) instead of Σ_v |lset(v)|.  The Lemma 4 discard
rules (same EST, complemented smaller id) are boolean masks over the
listed products, and pairs are materialised ``block_size`` at a time, so
the stream is still a lazy generator with a suspended frame —
:class:`~repro.pairs.ondemand.OnDemandPairGenerator` semantics are
unchanged.

The engine is a pure performance layer: for any input it yields the exact
pair sequence of the scalar generator — same multiset, same order within
and across depths — and the same :class:`PairGenStats`, with
:class:`SaPairGenerator` kept as the correctness oracle
(tests/test_vector_pairs.py, benchmarks/perf_gate.py).  See
docs/ALGORITHMS.md §3.1 for the exactness argument.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from repro.pairs.lsets import N_CLASSES
from repro.pairs.pair import Pair
from repro.pairs.sa_generator import (
    REITERATION_ERROR,
    PairGenStats,
    SaPairGenerator,
)
from repro.sequence.alphabet import LAMBDA
from repro.suffix.gst import SuffixArrayGst
from repro.suffix.interval_tree import FlatForest, ragged_ranges
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # circular at runtime: core.config -> align -> pairs
    from repro.core.config import ClusteringConfig

__all__ = [
    "VectorPairGenerator",
    "make_pair_generator",
    "PAIR_BLOCK_SIZE",
    "PAIR_BLOCK_BUCKETS",
]

#: Pairs materialised per emitted chunk (one ``pairs.block_size`` sample).
PAIR_BLOCK_SIZE = 4096

#: Histogram bounds for emitted block sizes.
PAIR_BLOCK_BUCKETS: tuple[float, ...] = (16, 64, 256, 1024, 4096, 16384)

#: Raw products listed per enumeration step; bounds the temporaries.
_SEGMENT_RAW = 1 << 15

_CLASSES = np.arange(N_CLASSES)


class VectorPairGenerator:
    """Drop-in vectorised replacement for :class:`SaPairGenerator`.

    Same constructor contract (``gst``, ``psi``, optional bucket
    ``ranges``), same single-use ``pairs()`` stream, same
    :class:`PairGenStats` counters — only the execution strategy differs.

    Parameters
    ----------
    block_size:
        Maximum pairs materialised per yielded chunk; a chunk may span
        several nodes and depths.
    telemetry:
        Optional session: ``pairs.nodes`` and ``pairs.raw`` counters are
        flushed when the stream finishes (matching the scalar engine) and
        every emitted chunk is observed into the ``pairs.block_size``
        histogram.
    forest:
        Pre-built :class:`FlatForest` to use instead of building from
        ``gst.lcp`` — the shared-memory path, where slaves attach to the
        forest the master carved for them.  Must be the forest of
        ``ranges`` (see :meth:`SuffixArrayGst.flat_forest`); ``min_depth``
        must equal ``psi``.

    Whatever the number of ``ranges``, the generator owns exactly one
    forest: the per-range forests laid end to end, built in one pass.
    The stream is the scalar engine's over the same ranges, since that
    engine also walks its per-range forests in order.  The constructor
    builds only the forest; all counting happens on the first pull.
    ``stats`` advances with every chunk: after it, the counters describe
    the nodes up to and including the one the chunk's last pair came
    from, and at exhaustion they equal the scalar engine's.
    """

    def __init__(
        self,
        gst: SuffixArrayGst,
        psi: int,
        ranges: list[tuple[int, int]] | None = None,
        *,
        block_size: int = PAIR_BLOCK_SIZE,
        telemetry: Telemetry | None = None,
        forest: FlatForest | None = None,
    ) -> None:
        if psi < 1:
            raise ValueError(f"psi must be >= 1, got {psi}")
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.gst = gst
        self.psi = psi
        self.ranges = ranges
        self.block_size = block_size
        self.stats = PairGenStats()
        self._telemetry = telemetry
        self._consumed = False
        # A one-element list (empty when every range is empty): the
        # attribute name and shape are shared with the scalar engine.
        self._forests: list[FlatForest] = []
        if forest is not None:
            if forest.min_depth != psi:
                raise ValueError(
                    f"injected forest has min_depth={forest.min_depth}, psi={psi}"
                )
            self._forests.append(forest)
        elif ranges is None or any(hi > lo for lo, hi in ranges):
            self._forests.append(gst.flat_forest(min_depth=psi, ranges=ranges))

    # ------------------------------------------------------------------ #

    def pairs(self) -> Iterator[Pair]:
        """Canonical pairs in decreasing maximal-substring length.

        Single-use, like the scalar engine: ``stats`` accumulates as the
        stream drains, so a second call raises instead of silently
        corrupting the counters.
        """
        if self._consumed:
            raise RuntimeError(REITERATION_ERROR)
        self._consumed = True
        return self._generate()

    def __iter__(self) -> Iterator[Pair]:
        return self.pairs()

    # ------------------------------------------------------------------ #

    def _generate(self) -> Iterator[Pair]:
        stats = self.stats
        tel = self._telemetry
        try:
            if self._forests and self._forests[0].n_nodes:
                yield from self._stream(self._forests[0])
        finally:
            if tel is not None:
                tel.count("pairs.nodes", stats.nodes_processed)
                tel.count("pairs.raw", stats.raw_pairs)

    def _stream(self, forest: FlatForest) -> Iterator[Pair]:
        stats = self.stats
        tel = self._telemetry
        bs = self.block_size
        ranks = _RankIndex(self.gst, self.ranges)
        groups, raw_seq, live_seq, peak_seq = _plan(ranks, forest)

        def advance(k: int) -> None:
            # The scalar engine's counters after the k-th node processed.
            stats.nodes_processed = k + 1
            stats.raw_pairs = int(raw_seq[k])
            stats._live_entries = int(live_seq[k])
            stats.peak_lset_entries = int(peak_seq[k])

        # Enumerate the groups a segment at a time (at most _SEGMENT_RAW
        # products unless one group alone is larger) and emit full blocks;
        # the tail of a segment's pairs carries into the next one.
        g_raw = np.cumsum(groups.k * groups.p)
        total = int(g_raw[-1]) if g_raw.size else 0
        cuts = np.searchsorted(g_raw, np.arange(_SEGMENT_RAW, total, _SEGMENT_RAW), "right")
        edges = sorted({0, g_raw.size, *cuts.tolist()})
        carry: list[Pair] = []
        carry_pos = np.zeros(0, dtype=np.int64)
        for g0, g1 in zip(edges[:-1], edges[1:]):
            made, made_pos = _enumerate(ranks, groups, slice(g0, g1))
            made = carry + made
            made_pos = np.concatenate((carry_pos, made_pos))
            last = len(made) if g1 == g_raw.size else len(made) - len(made) % bs
            for b0 in range(0, last, bs):
                block = made[b0 : b0 + bs]
                advance(int(made_pos[b0 + len(block) - 1]))
                stats.pairs_generated += len(block)
                if tel is not None:
                    tel.observe("pairs.block_size", len(block), PAIR_BLOCK_BUCKETS)
                yield from block
            carry, carry_pos = made[last:], made_pos[last:]
        advance(forest.n_nodes - 1)


class _RankIndex:
    """Per-rank facts of the owned ranges, in local coordinates: the
    ranges laid end to end in forest order, so every forest node is a
    contiguous local interval and ``rb`` stays non-decreasing over node
    ids (the forest's emission order is a post-order)."""

    def __init__(self, gst: SuffixArrayGst, ranges: list[tuple[int, int]] | None) -> None:
        sa = gst.sa_struct.sa
        spans = [(0, sa.size)] if ranges is None else [(lo, hi) for lo, hi in ranges if hi > lo]
        pos = np.concatenate([sa[lo:hi] for lo, hi in spans])
        n = pos.size
        self.string = gst.pos_string[pos].astype(np.int32)
        self.offset = gst.pos_offset[pos].astype(np.int32)
        self.cls = gst.left_char[pos].astype(np.int8)
        del pos

        lo = np.array([lo for lo, _hi in spans], dtype=np.int64)
        lens = np.array([hi - lo for lo, hi in spans], dtype=np.int64)
        order = np.argsort(lo)
        self._starts = lo[order]
        self._shift = (np.cumsum(lens) - lens - lo)[order]

        # prev(r): the previous rank holding the same string, -1 if none
        # (16-bit keys take numpy's radix sort).
        key = self.string.astype(np.uint16) if gst.collection.n_strings <= 1 << 16 else self.string
        by_str = np.argsort(key, kind="stable").astype(np.int32)
        same = self.string[by_str[1:]] == self.string[by_str[:-1]]
        self.prev = np.full(n, -1, dtype=np.int32)
        self.prev[by_str[1:][same]] = by_str[:-1][same]

        # rank_c(x) = count[c, x], the class-c ranks below x; ``by_cls``
        # lists the ranks class-major, so class c over [x, y) is the run
        # by_cls[base[c] + count[c, x] : base[c] + count[c, y]].
        self.count = np.zeros((N_CLASSES, n + 1), dtype=np.int32)
        for c in range(N_CLASSES):
            np.cumsum(self.cls == c, dtype=np.int32, out=self.count[c, 1:])
        self.base = np.cumsum(self.count[:, n]) - self.count[:, n]
        self.by_cls = np.argsort(self.cls, kind="stable").astype(np.int32)

    def local(self, ranks: np.ndarray) -> np.ndarray:
        """Local coordinates of global suffix-array ranks."""
        k = np.searchsorted(self._starts, ranks, side="right") - 1
        return (ranks + self._shift[k]).astype(np.int32)

    def kept_runs(self, node_lb, c, x, y) -> tuple[np.ndarray, np.ndarray]:
        """The class-``c`` ranks of ``[x, y)`` kept at a node whose lower
        bound is ``node_lb`` (fact 1: ``prev(r) < lb``), ascending, and the
        index of each one's run in the flattened broadcast of ``c, x, y``."""
        c, x, y = (a.ravel() for a in np.broadcast_arrays(c, x, y))
        start = self.count[c, x]
        lens = (self.count[c, y] - start).astype(np.int64)
        ranks = self.by_cls[ragged_ranges(self.base[c] + start, lens)]
        run = np.repeat(np.arange(lens.size), lens)
        keep = self.prev[ranks] < node_lb[run]
        return ranks[keep], run[keep]


class _Groups(NamedTuple):
    """The (slot, class) groups of new entries that have compatible
    partners, in stream order."""

    vlb: np.ndarray  # the node's lower bound
    slb: np.ndarray  # the slot's interval: a child's [lb, rb], a leaf's [r, r]
    srb: np.ndarray
    cls: np.ndarray  # class of the new entries
    k: np.ndarray  # new entries
    p: np.ndarray  # partners of each: compatible kept entries of earlier slots
    depth: np.ndarray  # the node's depth and processing position
    pos: np.ndarray


def _plan(ranks: _RankIndex, forest: FlatForest):
    """Everything that is counted rather than listed: the groups, and the
    scalar engine's ``raw_pairs``, live and peak lset entries after each
    node in processing order."""
    n_nodes = forest.n_nodes
    nodes = np.arange(n_nodes, dtype=np.int32)
    parent = forest.parent
    lb, rb = ranks.local(forest.lb), ranks.local(forest.rb)
    leaves = ranks.local(forest.leaves_flat)
    n_leaves = np.diff(forest.leaves_offsets)
    leaf_owner = np.repeat(nodes, n_leaves)
    prev = ranks.prev

    # ---- duplicate drops (fact 3) ------------------------------------------
    # A rank can only be dropped inside its forest tree: keep those whose
    # prev lies in the root interval holding them, then walk up from the
    # owning node to the deepest node spanning prev.  ``ev_via`` is the
    # child slot the rank arrives through there (-1: its own leaf slot).
    own = np.full(prev.size, -1, dtype=np.int32)
    own[leaves] = leaf_owner
    cand = np.flatnonzero((prev >= 0) & (own >= 0))
    roots = np.flatnonzero(parent < 0)
    cand = cand[prev[cand] >= lb[roots[np.searchsorted(rb[roots], cand)]]]
    ev_node = own[cand].astype(np.int64)
    ev_via = np.full(cand.size, -1, dtype=np.int64)
    act = np.arange(cand.size)
    while act.size:
        act = act[lb[ev_node[act]] > prev[cand[act]]]
        ev_via[act] = ev_node[act]
        ev_node[act] = parent[ev_node[act]]
    ev_cls = ranks.cls[cand]
    del own, cand

    # ---- per-node counts ---------------------------------------------------
    # up[c, w] starts as the class-c part of |lset(w)|: the ranks of w's
    # interval minus the drops in its subtree, which is the id range
    # [first_desc, w] of the post-order.
    first_desc = np.searchsorted(rb, lb)
    up = np.empty((N_CLASSES, n_nodes), dtype=np.int32)
    for c in range(N_CLASSES):
        sub = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(ev_node[ev_cls == c], minlength=n_nodes), out=sub[1:])
        up[c] = ranks.count[c, rb + 1] - ranks.count[c, lb] - (sub[nodes + 1] - sub[first_desc])
    # Processing order: decreasing depth, stable on node id — the scalar
    # engine's sorted (-depth, forest, node).  A kept leaf is born, a
    # duplicate arriving from a child dies, a root's lset dies after it.
    proc = np.argsort(-forest.depth, kind="stable")
    death = np.where(parent < 0, up.sum(axis=0), 0)[proc]
    birth = n_leaves - np.bincount(ev_node, minlength=n_nodes)
    live_seq = np.cumsum(birth[proc]) - (np.cumsum(death) - death)
    peak_seq = np.maximum.accumulate(live_seq)
    live_seq -= death
    # From here on up[c, w] counts the entries of w that survive in its
    # parent's slot loop.
    for c in range(N_CLASSES):
        via = ev_via[(ev_cls == c) & (ev_via >= 0)]
        up[c] -= np.bincount(via, minlength=n_nodes).astype(np.int32)
    del birth, death, first_desc, ev_node, ev_via, ev_cls

    # ---- slots -------------------------------------------------------------
    # One row per child/leaf slot, ordered (owner, lb): both parts are
    # sorted that way already, so the stable sort is a merge.
    cf = forest.children_flat
    slot_owner = np.concatenate((parent[cf].astype(np.int32), leaf_owner))
    slot_lb = np.concatenate((lb[cf], leaves))
    order = np.argsort(slot_owner * np.int64(prev.size + 1) + slot_lb, kind="stable")
    order = order.astype(np.int32)
    slot_owner, slot_lb = slot_owner[order], slot_lb[order]
    slot_rb = np.concatenate((rb[cf], leaves))[order]
    n_slots = np.bincount(slot_owner, minlength=n_nodes)
    first_slot = np.cumsum(n_slots) - n_slots

    # keep[c, s]: slot s's class-c entries kept at its node (a child's
    # surviving lset, a leaf if prev(r) < lb); before[c, s]: the same
    # summed over the node's earlier slots.
    at = np.empty(order.size, dtype=np.int32)
    at[order] = np.arange(order.size, dtype=np.int32)
    keep = np.zeros((N_CLASSES, order.size), dtype=np.int32)
    keep[:, at[: cf.size]] = up[:, cf]
    keep[ranks.cls[leaves], at[cf.size :]] = prev[leaves] < lb[leaf_owner]
    before = np.cumsum(keep, axis=1, dtype=np.int32)
    before -= keep
    slot_first = np.repeat(first_slot, n_slots)
    for c in range(N_CLASSES):
        before[c] -= before[c, slot_first]
    del at, up, leaf_owner, leaves, n_slots, slot_first

    # Raw products per slot: Σ_ci K_ci·(E_all − [ci ≠ λ]·E_ci), with
    # K = keep and E = before.
    e_all = before.sum(axis=0, dtype=np.int32)
    raw = keep.sum(axis=0, dtype=np.int64) * e_all
    for c in range(LAMBDA):
        raw -= keep[c].astype(np.int64) * before[c]
    raw_seq = np.cumsum(np.add.reduceat(raw, first_slot)[proc])
    del raw

    # Groups: partners are E_all minus the same class unless it is λ.
    np.subtract(e_all, before[:LAMBDA], out=before[:LAMBDA])
    before[LAMBDA] = e_all
    hit, g_cls = np.nonzero((keep > 0).T & (before > 0).T)  # (slot, class) order
    g_k, g_p = keep[g_cls, hit], before[g_cls, hit]
    del keep, before, e_all
    pos_of = np.empty(n_nodes, dtype=np.int64)
    pos_of[proc] = nodes
    owner = slot_owner[hit]
    srt = np.argsort(pos_of[owner], kind="stable")
    hit, owner = hit[srt], owner[srt]
    groups = _Groups(
        vlb=lb[owner],
        slb=slot_lb[hit],
        srb=slot_rb[hit],
        cls=g_cls[srt],
        k=g_k[srt].astype(np.int64),
        p=g_p[srt].astype(np.int64),
        depth=forest.depth[owner],
        pos=pos_of[owner],
    )
    return groups, raw_seq, live_seq, peak_seq


def _enumerate(ranks: _RankIndex, groups: _Groups, sl: slice) -> tuple[list[Pair], np.ndarray]:
    """The canonical pairs of groups ``sl`` in stream order, and the
    processing position of each one's node."""
    vlb, slb, c_i, p_i = groups.vlb[sl], groups.slb[sl], groups.cls[sl], groups.p[sl]
    # New entries: the slot's kept class-ci ranks.  Partners: every
    # compatible class in ascending order over [lb_v, lb_slot) — an
    # incompatible class gets the empty run [lb_v, lb_v).
    i_rank, i_grp = ranks.kept_runs(vlb, c_i, slb, groups.srb[sl] + 1)
    ok = (_CLASSES != c_i[:, None]) | (c_i[:, None] == LAMBDA)
    j_rank, _ = ranks.kept_runs(
        np.repeat(vlb, N_CLASSES), _CLASSES, vlb[:, None], np.where(ok, slb[:, None], vlb[:, None])
    )
    # Products i-major: each new entry against all of its group's partners.
    per_i = p_i[i_grp]
    new = np.repeat(i_rank, per_i)
    old = j_rank[ragged_ranges((np.cumsum(p_i) - p_i)[i_grp], per_i)]
    grp = np.repeat(i_grp, per_i)

    # Lemma 4 discard rules (same EST; complemented smaller id) as masks.
    s_old, s_new = ranks.string[old], ranks.string[new]
    o_old, o_new = ranks.offset[old], ranks.offset[new]
    swap = (s_old >> 1) > (s_new >> 1)
    str_a = np.where(swap, s_new, s_old)
    valid = ((s_old >> 1) != (s_new >> 1)) & ((str_a & 1) == 0)
    made = list(
        map(
            Pair,
            groups.depth[sl][grp[valid]].tolist(),
            str_a[valid].tolist(),
            np.where(swap, o_new, o_old)[valid].tolist(),
            np.where(swap, s_old, s_new)[valid].tolist(),
            np.where(swap, o_old, o_new)[valid].tolist(),
        )
    )
    return made, groups.pos[sl][grp[valid]]


def make_pair_generator(
    gst: SuffixArrayGst,
    config: "ClusteringConfig",
    *,
    ranges: list[tuple[int, int]] | None = None,
    telemetry: Telemetry | None = None,
    forest: FlatForest | None = None,
) -> SaPairGenerator | VectorPairGenerator:
    """Engine selection for suffix-array pair generation.

    Mirrors :func:`repro.align.batch.make_aligner`: ``config.pair_engine``
    picks the scalar reference engine or the vectorised one; both yield
    identical pair streams.  ``forest`` (vector engine only) injects a
    pre-built flat forest — e.g. shared-memory views — in place of a
    local build.
    """
    if config.pair_engine == "vector":
        return VectorPairGenerator(
            gst, psi=config.psi, ranges=ranges, telemetry=telemetry, forest=forest
        )
    return SaPairGenerator(gst, psi=config.psi, ranges=ranges, telemetry=telemetry)
