"""Figure 7 — promising pairs generated / processed / accepted vs data size.

The paper's Fig. 7 is the evidence for the central work-reduction claim:
the number of pairs on which alignment is actually run ("processed") is a
small fraction of the pairs generated, because best-first ordering merges
clusters early and the master's selection then discards most of the
stream; "accepted" tracks just below processed.  Real (non-simulated)
sequential runs, counters straight from the pipeline.
"""

from __future__ import annotations

from _common import bench_config, dataset, format_table
from repro.core import PaceClusterer

SIZES = [10_000, 20_000, 40_000, 60_018, 81_414]


def test_fig7_pair_counts(benchmark, paper_table):
    cfg = bench_config()
    rows = []
    fractions = []
    for n in SIZES:
        bench = dataset(n)
        result = PaceClusterer(cfg).cluster(bench.collection)
        c = result.counters
        frac = c.pairs_processed / max(1, c.pairs_generated)
        fractions.append(frac)
        rows.append(
            [
                bench.n_ests,
                c.pairs_generated,
                c.pairs_processed,
                c.pairs_accepted,
                f"{100 * frac:.1f}%",
            ]
        )
    lines = format_table(
        "Fig 7 — pair flow vs data size (sequential pipeline)",
        ["ESTs", "generated", "processed", "accepted", "processed/generated"],
        rows,
    )
    paper_table("fig7_pairs", lines)

    # Shape: generated >> processed >= accepted at every size, and the
    # processed fraction stays small as n grows (the curve separation in
    # the paper's figure).
    for row, frac in zip(rows, fractions):
        assert row[1] >= row[2] >= row[3]
        assert frac < 0.30

    small = dataset(SIZES[0])
    benchmark.pedantic(
        lambda: PaceClusterer(cfg).cluster(small.collection).counters,
        rounds=1,
        iterations=1,
    )

    # Engine parity at the smallest size: the vectorised pair generator
    # (the default) must leave every Fig. 7 counter (and the partition)
    # unchanged against the scalar oracle.
    oracle_cfg = bench_config(pair_engine="scalar")
    res_s = PaceClusterer(oracle_cfg).cluster(small.collection)
    res_v = PaceClusterer(cfg).cluster(small.collection)
    assert res_v.counters == res_s.counters
    assert res_v.labels() == res_s.labels()
