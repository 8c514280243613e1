"""Batched alignment engine: equivalence with the per-pair oracle.

The whole contract of :class:`repro.align.batch.BatchPairAligner` is that
it is a pure performance layer: for any batch of promising pairs it must
return exactly the ``(AlignmentResult, accepted)`` decisions the per-pair
:class:`repro.align.extend.PairAligner` produces — bitwise-equal scores
included — while doing the DP in vectorised shape groups.  These tests pin
that property down, with hypothesis driving random collections, random
(possibly bogus-seeded) pair batches, and random group sizes.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import (
    BandPolicy,
    BatchPairAligner,
    PairAligner,
    ScoringParams,
    extend_overlap,
    extend_overlap_group,
    make_aligner,
)
from repro.cluster.greedy import greedy_cluster
from repro.cluster.manager import ClusterManager
from repro.core import PaceClusterer
from repro.core.config import ClusteringConfig
from repro.pairs.batch import make_pair_generator
from repro.pairs.pair import Pair
from repro.parallel import cluster_multiprocessing, simulate_clustering
from repro.sequence import EstCollection
from repro.suffix import SuffixArrayGst
from repro.simulate import BenchmarkParams, make_benchmark
from repro.telemetry import Telemetry

dna = st.text(alphabet="ACGT", min_size=5, max_size=60)


@st.composite
def collection_and_batch(draw):
    """A small collection plus a random batch of well-formed pairs.

    The seed substrings need not actually match — neither aligner inspects
    them — so offsets and lengths are only constrained to stay in bounds.
    """
    n_ests = draw(st.integers(2, 5))
    col = EstCollection.from_strings([draw(dna) for _ in range(n_ests)])
    pairs = []
    for _ in range(draw(st.integers(0, 12))):
        est_a = draw(st.integers(0, n_ests - 2))
        est_b = draw(st.integers(est_a + 1, n_ests - 1))
        string_a = 2 * est_a
        string_b = 2 * est_b + draw(st.integers(0, 1))
        la, lb = col.length(string_a), col.length(string_b)
        length = draw(st.integers(1, min(la, lb)))
        off_a = draw(st.integers(0, la - length))
        off_b = draw(st.integers(0, lb - length))
        pairs.append(Pair(length, string_a, off_a, string_b, off_b))
    return col, pairs


def _assert_group_matches_scalar(xs, ys, bands, params):
    scores, cx, cy, cells = extend_overlap_group(xs, ys, bands, params)
    for k in range(len(xs)):
        ref = extend_overlap(xs[k], ys[k], params, int(bands[k]))
        got = (float(scores[k]), int(cx[k]), int(cy[k]), int(cells[k]))
        assert got == tuple(ref), (k, len(xs[k]), len(ys[k]), int(bands[k]))


@st.composite
def scoring_params(draw):
    """Random non-integer affine scoring: no float shortcut survives."""
    pos = st.floats(0.05, 6.0, allow_nan=False, allow_infinity=False)
    return ScoringParams(
        match=draw(pos),
        mismatch=-draw(pos),
        gap_open=-draw(pos),
        gap_extend=-draw(pos),
    )


@st.composite
def extension_group(draw):
    """A group of extensions with mixed bands: related pairs (y an edited
    copy of x), unrelated pairs, bands narrower than ``|lx - ly|`` (the
    pessimistic fallback) and ``ly`` far beyond ``lx + band``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = draw(st.integers(1, 6))
    xs, ys, bands = [], [], []
    for _ in range(g):
        shape = draw(st.sampled_from(["related", "random", "narrow", "long_y"]))
        band = draw(st.integers(0, 40))
        lx = draw(st.integers(1, 600))
        if shape == "narrow":
            ly = max(1, min(600, lx + draw(st.sampled_from([-1, 1])) * (band + 1 + draw(st.integers(0, 50)))))
        elif shape == "long_y":
            lx = draw(st.integers(1, 200))
            ly = min(600, lx + band + draw(st.integers(1, 400)))
        else:
            ly = draw(st.integers(1, 600))
        x = rng.integers(0, 4, lx).astype(np.int8)
        if shape == "random":
            y = rng.integers(0, 4, ly).astype(np.int8)
        else:
            y = np.resize(x, ly).copy()
            y[rng.random(ly) < 0.03] = rng.integers(0, 4)
        xs.append(x)
        ys.append(y)
        bands.append(band)
    return xs, ys, np.array(bands, dtype=np.int64)


class TestGroupKernel:
    def test_matches_scalar_kernel_bitwise(self):
        rng = np.random.default_rng(11)
        params = ScoringParams()
        for _ in range(50):
            g = int(rng.integers(1, 24))
            xs = [rng.integers(0, 4, rng.integers(1, 90)).astype(np.int8) for _ in range(g)]
            ys = [rng.integers(0, 4, rng.integers(1, 90)).astype(np.int8) for _ in range(g)]
            bands = rng.integers(0, 16, g)
            _assert_group_matches_scalar(xs, ys, bands, params)

    @settings(deadline=None, max_examples=60)
    @given(extension_group(), scoring_params())
    def test_band_kernel_equals_scalar_under_any_scoring(self, group, params):
        xs, ys, bands = group
        _assert_group_matches_scalar(xs, ys, bands, params)

    def test_fallback_and_long_y_edges(self):
        params = ScoringParams(match=1.3, mismatch=-2.7, gap_open=-4.1, gap_extend=-0.9)
        rng = np.random.default_rng(5)
        x = rng.integers(0, 4, 40).astype(np.int8)
        y_long = rng.integers(0, 4, 500).astype(np.int8)
        # band 0 with lx != ly; band << |lx - ly| both ways; ly >> lx + band.
        xs = [x, x, y_long, x[:3], x]
        ys = [x[:30], y_long, x, y_long, x[:1]]
        _assert_group_matches_scalar(xs, ys, np.array([0, 5, 7, 40, 2]), params)
        for k in range(len(xs)):  # and one member per group
            _assert_group_matches_scalar(
                [xs[k]], [ys[k]], np.array([[0, 5, 7, 40, 2][k]]), params
            )
        # Integer scoring: the substitution plane must still be float.
        int_params = ScoringParams(match=2, mismatch=-3, gap_open=-5, gap_extend=-2)
        _assert_group_matches_scalar(xs, ys, np.array([0, 5, 7, 40, 2]), int_params)

    def test_real_550bp_extensions(self, world550):
        """Every extension of the pairs the default pipeline aligns on a
        550 bp world, with the default band policy, in shape-sorted groups
        of 64 exactly as :class:`BatchPairAligner` forms them."""
        col = world550.collection
        cfg = ClusteringConfig()
        policy = BandPolicy()
        jobs = []
        for pair in _first_pairs(col, cfg, 40):
            a = col.string(pair.string_a)
            b = col.string(pair.string_b)
            seed = pair.length
            for ex, ey in (
                (a[pair.offset_a + seed :], b[pair.offset_b + seed :]),
                (a[: pair.offset_a][::-1], b[: pair.offset_b][::-1]),
            ):
                if len(ex) and len(ey):
                    jobs.append((ex, ey, policy.band_for(min(len(ex), len(ey)))))
        assert len(jobs) >= 40
        assert max(len(ex) for ex, _, _ in jobs) > 400
        jobs.sort(key=lambda job: (-len(job[0]), -len(job[1])))
        params = cfg.scoring
        for start in range(0, len(jobs), 64):
            chunk = jobs[start : start + 64]
            _assert_group_matches_scalar(
                [j[0] for j in chunk],
                [j[1] for j in chunk],
                np.array([j[2] for j in chunk]),
                params,
            )

    def test_empty_group(self):
        scores, cx, cy, cells = extend_overlap_group([], [], [], ScoringParams())
        assert scores.size == cx.size == cy.size == cells.size == 0

    def test_rejects_empty_extensions_and_bad_bands(self):
        params = ScoringParams()
        a = np.array([0, 1], dtype=np.int8)
        with pytest.raises(ValueError):
            extend_overlap_group([a], [np.array([], dtype=np.int8)], [3], params)
        with pytest.raises(ValueError):
            extend_overlap_group([a], [a], [-1], params)
        with pytest.raises(ValueError):
            extend_overlap_group([a, a], [a], [3, 3], params)


@pytest.fixture(scope="module")
def world550():
    """A small simulator world at the paper's read length (550 bp)."""
    return make_benchmark(BenchmarkParams(n_genes=4, mean_ests_per_gene=6), rng=3)


def _pair_stream(col, cfg):
    return make_pair_generator(SuffixArrayGst.build(col), cfg).pairs()


def _first_pairs(col, cfg, n):
    pairs = []
    for pair in _pair_stream(col, cfg):
        pairs.append(pair)
        if len(pairs) >= n:
            break
    return pairs


class TestBatchAlignerEquivalence:
    @settings(deadline=None, max_examples=60)
    @given(collection_and_batch(), st.integers(1, 16))
    def test_identical_to_per_pair_oracle(self, col_and_batch, group_size):
        col, pairs = col_and_batch
        ref = PairAligner(col)
        bat = BatchPairAligner(col, group_size=group_size)
        expected = [ref.align_and_decide(p) for p in pairs]
        got = bat.align_and_decide_batch(pairs)
        assert got == expected  # scores, spans, patterns, accept/reject
        assert bat.alignments_performed == ref.alignments_performed
        assert bat.dp_cells_total == ref.dp_cells_total
        assert bat.model_cells_total == ref.model_cells_total

    def test_empty_batch(self):
        col = EstCollection.from_strings(["ACGTACGTAC", "TGCATGCATG"])
        bat = BatchPairAligner(col)
        assert bat.align_and_decide_batch([]) == []
        assert bat.alignments_performed == 0

    def test_single_pair_batch(self):
        col = EstCollection.from_strings(["ACGTACGTACGT", "GTACGTACGTAA"])
        pair = Pair(8, 0, 2, 2, 0)
        expected = PairAligner(col).align_and_decide(pair)
        assert BatchPairAligner(col).align_and_decide_batch([pair]) == [expected]

    def test_seed_at_string_edges(self):
        # Seeds flush against either string end make one extension empty —
        # the slot the kernel never sees.
        col = EstCollection.from_strings(["ACGTACGTAC", "ACGTACGTAC"])
        edge_pairs = [
            Pair(10, 0, 0, 2, 0),  # both extensions empty
            Pair(5, 0, 0, 2, 5),  # left empty for a, right empty for b
            Pair(5, 0, 5, 2, 0),
        ]
        ref = PairAligner(col)
        expected = [ref.align_and_decide(p) for p in edge_pairs]
        assert BatchPairAligner(col).align_and_decide_batch(edge_pairs) == expected

    def test_base_class_batch_method_loops(self):
        col = EstCollection.from_strings(["ACGTACGTACGT", "GTACGTACGTAA"])
        pairs = [Pair(8, 0, 2, 2, 0), Pair(6, 0, 0, 2, 1)]
        ref = PairAligner(col)
        expected = [PairAligner(col).align_and_decide(p) for p in pairs]
        assert ref.align_and_decide_batch(pairs) == expected

    def test_non_banded_engines_fall_back_to_oracle(self):
        col = EstCollection.from_strings(["ACGTACGTACGT", "GTACGTACGTAA"])
        pairs = [Pair(8, 0, 2, 2, 0)]
        for kwargs in ({"engine": "kdiff"}, {"use_seed_extension": False}):
            expected = [PairAligner(col, **kwargs).align_and_decide(p) for p in pairs]
            assert (
                BatchPairAligner(col, **kwargs).align_and_decide_batch(pairs)
                == expected
            )


class TestTelemetryParity:
    def test_aggregate_metrics_match_per_pair_engine(self):
        rng = np.random.default_rng(3)
        col = EstCollection.from_strings(
            ["".join(rng.choice(list("ACGT"), 70)) for _ in range(4)]
        )
        pairs = [
            Pair(12, 0, 10, 2 * b + strand, 20)
            for b, strand in ((1, 0), (2, 1), (3, 0), (1, 1))
        ]
        tel_ref, tel_bat = Telemetry(), Telemetry()
        for p in pairs:
            PairAligner(col, telemetry=tel_ref).align_and_decide(p)
        BatchPairAligner(
            col, telemetry=tel_bat, group_size=2
        ).align_and_decide_batch(pairs)
        ref_counters = tel_ref.registry.snapshot()["counters"]
        bat_counters = tel_bat.registry.snapshot()["counters"]
        for key in ("align.accepted", "align.rejected"):
            assert ref_counters.get(key, 0) == bat_counters.get(key, 0)
        ref_hists = tel_ref.registry.snapshot()["histograms"]
        bat_hists = tel_bat.registry.snapshot()["histograms"]
        assert ref_hists["align.band_width"] == bat_hists["align.band_width"]
        assert "align.batch_size" in bat_hists


class TestMakeAligner:
    def test_selects_engine_from_config(self):
        col = EstCollection.from_strings(["ACGTACGTAC", "TGCATGCATG"])
        default = make_aligner(col, ClusteringConfig())
        assert type(default) is BatchPairAligner
        assert default.group_size == 64
        per_pair = make_aligner(col, ClusteringConfig(align_batch=0))
        assert type(per_pair) is PairAligner
        batched = make_aligner(col, ClusteringConfig(align_batch=32))
        assert isinstance(batched, BatchPairAligner)
        assert batched.group_size == 32

    def test_config_rejects_negative_group(self):
        with pytest.raises(ValueError):
            ClusteringConfig(align_batch=-1)


class TestDefaultPartitionAt550bp:
    """The default (batched band kernel) partition equals the per-pair
    ``greedy_cluster`` + :class:`PairAligner` oracle on every engine."""

    @pytest.fixture(scope="class")
    def oracle(self, world550):
        col = world550.collection
        cfg = ClusteringConfig(align_batch=0)
        manager = ClusterManager(col.n_ests)
        greedy_cluster(_pair_stream(col, cfg), PairAligner(col), manager)
        return manager.clusters()

    def test_sequential(self, world550, oracle):
        cfg = ClusteringConfig()
        assert cfg.align_batch == 64
        assert PaceClusterer(cfg).cluster(world550.collection).clusters == oracle
        per_pair = PaceClusterer(replace(cfg, align_batch=0))
        assert per_pair.cluster(world550.collection).clusters == oracle

    def test_simulated(self, world550, oracle):
        res = simulate_clustering(world550.collection, ClusteringConfig(), n_processors=4)
        assert res.result.clusters == oracle

    def test_multiprocessing(self, world550, oracle):
        res = cluster_multiprocessing(world550.collection, ClusteringConfig(), n_processors=3)
        assert res.clusters == oracle
