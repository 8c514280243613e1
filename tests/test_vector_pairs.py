"""The vectorised pair engine against its scalar oracle.

`VectorPairGenerator` must be a pure performance layer: for any input it
yields the *exact* pair sequence of `SaPairGenerator` — same multiset and
same order within and across depths — with identical `PairGenStats` and
telemetry counters.  These tests pin that contract down with hypothesis
driving random overlapping collections (including reverse-complement
duplicates) across ψ edge values, mirroring tests/test_batch_align.py.
Repeat-rich collections (tandem repeats, poly-A tails, reverse-complement
palindromes) repeat ψ-mers inside one string, which is the only way a
duplicate string reaches a node and is dropped (the mark-array path).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClusteringConfig, PaceClusterer
from repro.pairs import (
    OnDemandPairGenerator,
    SaPairGenerator,
    VectorPairGenerator,
    make_pair_generator,
)
from repro.pairs.batch import PAIR_BLOCK_SIZE
from repro.pairs.sa_generator import REITERATION_ERROR
from repro.parallel import GstArenas, leaked_segments
from repro.parallel.partition import assign_buckets
from repro.sequence import EstCollection
from repro.suffix import SuffixArrayGst
from repro.suffix.interval_tree import restrict_flat_forest
from repro.telemetry import Telemetry

from test_pair_generation import _random_overlapping_collection

seeds = st.integers(0, 10**6)


def _repeat_rich_collection(rng: np.random.Generator, n: int, psi: int) -> EstCollection:
    """Reads off a genome with a tandem repeat of at least ψ plus one unit,
    some with a poly-A tail or turned into a reverse-complement
    palindrome; read 0 spans the whole repeat."""
    unit = rng.integers(0, 4, size=int(rng.integers(1, 7)), dtype=np.uint8)
    tandem = np.tile(unit, (psi + unit.size) // unit.size + int(rng.integers(1, 4)))
    flank = [rng.integers(0, 4, size=int(rng.integers(5, 30)), dtype=np.uint8) for _ in "lr"]
    genome = np.concatenate((flank[0], tandem, flank[1]))
    t0, t1 = flank[0].size, flank[0].size + tandem.size
    seqs = [genome[max(0, t0 - 3) : t1 + 3]]
    for _ in range(n - 1):
        a = int(rng.integers(0, genome.size - 12))
        s = genome[a : int(rng.integers(a + 10, genome.size + 1))]
        kind = rng.random()
        if kind < 0.3:
            s = np.concatenate((s, np.zeros(psi + int(rng.integers(1, 8)), dtype=np.uint8)))
        elif kind < 0.5:
            s = np.concatenate((s, (3 - s)[::-1]))
        if rng.random() < 0.5:
            s = (3 - s)[::-1]
        seqs.append(s.copy())
    return EstCollection(seqs)


def _has_repeated_kmer(col: EstCollection, k: int) -> bool:
    """Some string repeats a k-mer at two offsets."""
    for i in range(col.n_ests):
        s = col.est(i).tobytes()
        kmers = [s[o : o + k] for o in range(len(s) - k + 1)]
        if len(set(kmers)) < len(kmers):
            return True
    return False


def _collection(seed: int, n: int, psi: int, repeat_rich: bool) -> EstCollection:
    rng = np.random.default_rng(seed)
    if not repeat_rich:
        return _random_overlapping_collection(rng, n)
    col = _repeat_rich_collection(rng, n, psi)
    assert _has_repeated_kmer(col, psi)
    return col


def _both_streams(col: EstCollection, psi: int, **vector_kwargs):
    gst = SuffixArrayGst.build(col)
    scalar = SaPairGenerator(gst, psi)
    vector = VectorPairGenerator(gst, psi, **vector_kwargs)
    return scalar, vector, list(scalar.pairs()), list(vector.pairs())


def _assert_engines_agree(gst: SuffixArrayGst, psi: int, ranges=None, **vector_kwargs):
    """Stream (order included), every PairGenStats field (``_live_entries``
    too) and the ``pairs.*`` counters of both engines are identical."""
    runs = []
    for gen_cls, kwargs in ((SaPairGenerator, {}), (VectorPairGenerator, vector_kwargs)):
        tel = Telemetry()
        gen = gen_cls(gst, psi, ranges=ranges, telemetry=tel, **kwargs)
        pairs = list(gen.pairs())
        counters = {
            k: v
            for k, v in tel.registry.snapshot()["counters"].items()
            if k.startswith("pairs.")
        }
        runs.append((pairs, gen.stats, gen.stats._live_entries, counters))
    assert runs[0] == runs[1]


class TestCrossEngineEquivalence:
    @given(seeds, st.integers(2, 8), st.integers(4, 25), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_identical_streams_random_collections(self, seed, n, psi, repeat_rich):
        """Same pairs, same order — not just the same set — and the same
        stats and counters, on plain and repeat-rich collections."""
        col = _collection(seed, n, psi, repeat_rich)
        _assert_engines_agree(SuffixArrayGst.build(col), psi)

    @given(seeds, st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_reverse_complement_duplicates(self, seed, n):
        """Collections where every read also appears reverse-complemented
        exercise the Lemma 4 complemented-pair discard heavily."""
        rng = np.random.default_rng(seed)
        base = _random_overlapping_collection(rng, n)
        seqs = []
        for i in range(base.n_ests):
            s = base.est(i)
            seqs.append(s.copy())
            seqs.append((3 - s)[::-1].copy())
        col = EstCollection(seqs)
        _, _, s, v = _both_streams(col, 5)
        assert s == v

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_psi_edge_values(self, seed):
        """ψ = 1 (every depth qualifies) and ψ beyond the longest read
        (empty forest) are the boundary regimes of forest construction."""
        rng = np.random.default_rng(seed)
        col = _random_overlapping_collection(rng, 4)
        for psi in (1, 2, 200):
            _, _, s, v = _both_streams(col, psi)
            assert s == v

    @given(seeds, st.integers(2, 6), st.integers(1, 4), st.integers(4, 25), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_ranges_partition_parity(self, seed, n, parts, psi, repeat_rich):
        """The slave path: generation restricted to rank sub-ranges, given
        in shuffled order, as one owner or as one owner per range."""
        col = _collection(seed, n, psi, repeat_rich)
        gst = SuffixArrayGst.build(col)
        rng = np.random.default_rng(seed + 1)
        hi = len(gst.sa_struct.sa)
        cuts = sorted({int(c) for c in rng.integers(0, hi + 1, size=parts - 1)})
        bounds = [0, *cuts, hi]
        ranges = list(zip(bounds[:-1], bounds[1:]))
        rng.shuffle(ranges)
        _assert_engines_agree(gst, psi, ranges=ranges)
        for lo_hi in ranges:
            _assert_engines_agree(gst, psi, ranges=[lo_hi])

    @given(seeds, st.integers(2, 7), st.integers(4, 25), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_stats_parity(self, seed, n, psi, repeat_rich):
        """All PairGenStats fields agree after a full drain (nodes, raw
        products, emitted pairs, the peak-lset high-water mark of the
        paper's space claim and the live count), chunk size aside."""
        col = _collection(seed, n, psi, repeat_rich)
        _assert_engines_agree(SuffixArrayGst.build(col), psi, block_size=1 + seed % 7)

    @given(seeds, st.integers(1, 17))
    @settings(max_examples=20, deadline=None)
    def test_block_size_does_not_change_the_stream(self, seed, block_size):
        rng = np.random.default_rng(seed)
        col = _random_overlapping_collection(rng, 5)
        _, _, s, v = _both_streams(col, 4, block_size=block_size)
        assert s == v

    @pytest.mark.parametrize("ranged", [False, True])
    def test_progress_advances_with_every_chunk(self, ranged):
        """``nodes_processed`` is positive from the first chunk on, never
        decreases, stays within the forest, and ends at the node count and
        the scalar engine's value."""
        col = _repeat_rich_collection(np.random.default_rng(5), 12, 8)
        gst = SuffixArrayGst.build(col)
        hi = len(gst.sa_struct.sa)
        ranges = [(hi // 2, hi), (0, hi // 2)] if ranged else None
        vector = VectorPairGenerator(gst, 8, ranges=ranges, block_size=4)
        n_nodes = vector._forests[0].n_nodes
        seen = []
        for _pair in vector.pairs():
            seen.append(vector.stats.nodes_processed)
        assert len(seen) > 8
        assert 0 < seen[0] <= n_nodes
        assert seen == sorted(seen)
        assert len(set(seen)) > 1
        scalar = SaPairGenerator(gst, 8, ranges=ranges)
        list(scalar.pairs())
        assert vector.stats.nodes_processed == n_nodes == scalar.stats.nodes_processed


class TestGuards:
    def test_scalar_raises_on_reiteration(self):
        rng = np.random.default_rng(0)
        gst = SuffixArrayGst.build(_random_overlapping_collection(rng, 3))
        gen = SaPairGenerator(gst, 5)
        list(gen.pairs())
        with pytest.raises(RuntimeError, match="already iterated"):
            gen.pairs()

    def test_vector_raises_on_reiteration(self):
        rng = np.random.default_rng(0)
        gst = SuffixArrayGst.build(_random_overlapping_collection(rng, 3))
        gen = VectorPairGenerator(gst, 5)
        list(gen.pairs())
        with pytest.raises(RuntimeError, match="already iterated"):
            gen.pairs()

    def test_iter_protocol_hits_the_same_guard(self):
        rng = np.random.default_rng(1)
        gst = SuffixArrayGst.build(_random_overlapping_collection(rng, 3))
        for gen in (SaPairGenerator(gst, 5), VectorPairGenerator(gst, 5)):
            list(iter(gen))
            with pytest.raises(RuntimeError, match="already iterated"):
                iter(gen)

    def test_guard_message_is_shared(self):
        assert "already iterated" in REITERATION_ERROR

    def test_vector_rejects_bad_parameters(self):
        rng = np.random.default_rng(2)
        gst = SuffixArrayGst.build(_random_overlapping_collection(rng, 3))
        with pytest.raises(ValueError, match="psi"):
            VectorPairGenerator(gst, 0)
        with pytest.raises(ValueError, match="block_size"):
            VectorPairGenerator(gst, 5, block_size=0)


class TestTelemetryParity:
    def _drain_with_telemetry(self, gen_cls, gst, psi):
        tel = Telemetry()
        gen = gen_cls(gst, psi, telemetry=tel)
        pairs = list(gen.pairs())
        return pairs, tel.registry.snapshot()

    def test_counters_match_scalar_engine(self):
        rng = np.random.default_rng(7)
        gst = SuffixArrayGst.build(_random_overlapping_collection(rng, 8))
        s_pairs, s_snap = self._drain_with_telemetry(SaPairGenerator, gst, 4)
        v_pairs, v_snap = self._drain_with_telemetry(VectorPairGenerator, gst, 4)
        assert s_pairs == v_pairs
        s_counters = {
            k: v for k, v in s_snap["counters"].items() if k.startswith("pairs.")
        }
        v_counters = {
            k: v
            for k, v in v_snap["counters"].items()
            if k.startswith("pairs.") and k != "pairs.block_size"
        }
        assert s_counters == v_counters
        assert s_counters["pairs.nodes"] > 0

    def test_vector_engine_records_block_size_histogram(self):
        rng = np.random.default_rng(8)
        gst = SuffixArrayGst.build(_random_overlapping_collection(rng, 8))
        tel = Telemetry()
        gen = VectorPairGenerator(gst, 4, block_size=3, telemetry=tel)
        n_pairs = len(list(gen.pairs()))
        hist = tel.registry.snapshot()["histograms"]["pairs.block_size"]
        assert hist["count"] >= 1
        assert hist["sum"] == n_pairs

    def test_flush_happens_on_early_close(self):
        """Abandoning the stream mid-way still flushes pairs.nodes/raw."""
        rng = np.random.default_rng(9)
        gst = SuffixArrayGst.build(_random_overlapping_collection(rng, 8))
        tel = Telemetry()
        gen = VectorPairGenerator(gst, 4, telemetry=tel)
        it = gen.pairs()
        next(it)
        it.close()
        counters = tel.registry.snapshot()["counters"]
        assert "pairs.nodes" in counters and "pairs.raw" in counters


class TestFactory:
    def test_selects_engine_from_config(self):
        rng = np.random.default_rng(3)
        gst = SuffixArrayGst.build(_random_overlapping_collection(rng, 3))
        cfg_s = ClusteringConfig.small_reads(psi=6, pair_engine="scalar")
        cfg_v = ClusteringConfig.small_reads(psi=6, pair_engine="vector")
        assert isinstance(make_pair_generator(gst, cfg_s), SaPairGenerator)
        gen = make_pair_generator(gst, cfg_v)
        assert isinstance(gen, VectorPairGenerator)
        assert gen.psi == 6
        assert gen.block_size == PAIR_BLOCK_SIZE

    def test_config_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="pair_engine"):
            ClusteringConfig(pair_engine="simd")

    def test_config_rejects_vector_on_tree_backend(self):
        with pytest.raises(ValueError, match="suffix_array"):
            ClusteringConfig(backend="tree", pair_engine="vector")


class TestPipelineIntegration:
    def test_clusters_identical_across_engines(self):
        """End-to-end: the sequential pipeline produces the same partition
        (and the same pair counters) under either engine."""
        rng = np.random.default_rng(11)
        col = _random_overlapping_collection(rng, 20)
        results = {}
        for engine in ("scalar", "vector"):
            cfg = ClusteringConfig.small_reads(w=4, psi=8, pair_engine=engine)
            tel = Telemetry()
            res = PaceClusterer(cfg).cluster(col, telemetry=tel)
            counters = tel.registry.snapshot()["counters"]
            results[engine] = (
                res.labels(),
                counters.get("pairs.nodes"),
                counters.get("pairs.raw"),
            )
        assert results["scalar"] == results["vector"]

    def test_vector_stream_through_ondemand_wrapper(self):
        """The chunked emission must preserve on-demand batch semantics."""
        rng = np.random.default_rng(12)
        gst = SuffixArrayGst.build(_random_overlapping_collection(rng, 10))
        reference = list(SaPairGenerator(gst, 4).pairs())
        source = OnDemandPairGenerator(
            VectorPairGenerator(gst, 4, block_size=5).pairs()
        )
        got = []
        while not source.exhausted:
            got.extend(source.next_batch(7))
        assert got == reference
        assert source.produced == len(reference)


class TestOneForestPerOwner:
    """Every vector-engine owner builds one flat forest over all of its
    bucket ranges, and each slave's stream is still the scalar engine's
    over the same ranges."""

    @pytest.fixture(scope="class")
    def gst(self, small_benchmark):
        return SuffixArrayGst.build(small_benchmark.collection)

    @pytest.fixture(scope="class")
    def buckets(self, gst):
        ranges = gst.bucket_ranges(6)
        assert sum(1 for _k, lo, hi in ranges if hi > lo) >= 1000
        return ranges

    @pytest.fixture
    def build_calls(self, monkeypatch):
        import repro.suffix.gst as gst_module

        calls = []
        real = gst_module.build_flat_forest

        def counting(*args, **kwargs):
            calls.append(kwargs.get("ranges"))
            return real(*args, **kwargs)

        monkeypatch.setattr(gst_module, "build_flat_forest", counting)
        return calls

    def test_one_build_per_ranged_generator(self, gst, buckets, build_calls):
        VectorPairGenerator(gst, 15, ranges=[(lo, hi) for _k, lo, hi in buckets])
        assert len(build_calls) == 1

    def test_one_build_per_arena_create(self, gst, buckets, build_calls):
        plan = assign_buckets(buckets, 3)
        ranges_of = [[(lo, hi) for _k, lo, hi in own] for own in plan.per_processor]
        shared = GstArenas.create(gst, ranges_of, pair_engine="vector", psi=15)
        try:
            assert len(build_calls) == 1
            assert all(shared.forest_for(k).n_nodes > 0 for k in range(3))
        finally:
            shared.dispose()
        assert leaked_segments() == []

    @pytest.mark.parametrize("n_slaves", [2, 3])
    def test_lpt_slave_streams_match_scalar(self, gst, buckets, n_slaves):
        plan = assign_buckets(buckets, n_slaves)
        whole = gst.flat_forest(min_depth=15)
        for own in plan.per_processor:
            ranges = [(lo, hi) for _k, lo, hi in own]
            scalar = SaPairGenerator(gst, 15, ranges=ranges)
            expected = list(scalar.pairs())
            assert expected
            built = VectorPairGenerator(gst, 15, ranges=ranges)
            carved = VectorPairGenerator(
                gst, 15, ranges=ranges, forest=restrict_flat_forest(whole, ranges)
            )
            assert list(built.pairs()) == expected
            assert list(carved.pairs()) == expected
            assert built.stats == scalar.stats
