"""Perf gates for the vectorised engines, arena startup, dispatch seam
and the sharded master.

Five subcommands, each measuring a reference implementation against its
optimised counterpart on the 30k-scaled dataset, verifying the optimised
output is *identical* (the oracle property), and writing the numbers as
JSON.  ``align`` and ``pairs`` gate engine speedups, each also on a
``make_benchmark`` world at the paper's 550 bp read length, and every
case must clear the floor; ``startup`` gates the
shared-memory arena spawn path: per-slave pickled payload must shrink by
``--min-payload-ratio`` versus the legacy whole-index handoff, attach+
construct latency must stay under ``--max-startup-seconds``, clusters must
match the sequential oracle under both clean and injected-fault parallel
runs, and no shared-memory segment may survive either run.  ``dispatch``
gates the dispatch-policy seam: the ``paper`` policy must reproduce the
sequential oracle partition bit for bit on *both* parallel engines (the
seam is refactoring, not behaviour), every policy must agree on the
partition, and no policy may regress the 30k simulated makespan past
``--max-makespan-ratio`` of the paper baseline.  ``shard`` gates the
sharded-master seam: sequential, single-master and N-shard runs must
produce the identical partition on *both* engines (including under
injected slave crashes with shard-local recovery), and on a
deliberately master-bound simulated workload N shards must beat the
single master by ``--min-speedup``.  The committed ``BENCH_align.json``
/ ``BENCH_pairs.json`` / ``BENCH_startup.json`` / ``BENCH_dispatch.json``
/ ``BENCH_shard.json`` at the repo root record the reference
measurements.

Usage::

    python benchmarks/perf_gate.py align --out BENCH_align.json --min-speedup 2.0
    python benchmarks/perf_gate.py pairs --out BENCH_pairs.json --min-speedup 3.0
    python benchmarks/perf_gate.py startup --out BENCH_startup.json
    python benchmarks/perf_gate.py dispatch --out BENCH_dispatch.json
    python benchmarks/perf_gate.py shard --out BENCH_shard.json
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
import time
from pathlib import Path

from _common import bench_config, bench_env, dataset, dataset_gst
from repro.align import BatchPairAligner, PairAligner
from repro.core import ClusteringConfig
from repro.pairs import SaPairGenerator, VectorPairGenerator
from repro.pairs.batch import make_pair_generator
from repro.simulate import BenchmarkParams, make_benchmark
from repro.suffix import SuffixArrayGst

ALIGN_SCHEMA = "pace-align-gate/2"
PAIRS_SCHEMA = "pace-pairs-gate/2"
STARTUP_SCHEMA = "pace-startup-gate/1"
DISPATCH_SCHEMA = "pace-dispatch-gate/1"
SHARD_SCHEMA = "pace-shard-gate/1"


def _measure(make_run, rounds: int) -> tuple[float, object]:
    """Best-of-``rounds`` wall time (and the last run's output)."""
    best = float("inf")
    out = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = make_run()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _finish(record: dict, args, speedup: float, label: str) -> int:
    print(json.dumps(record, indent=2))
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    if speedup < args.min_speedup:
        print(
            f"perf gate FAILED: {label} speedup {speedup:.2f}x < "
            f"{args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    print(f"perf gate passed: {label} {speedup:.2f}x faster")
    return 0


def _align_pairs_30k(n_pairs: int):
    """The first ``n_pairs`` promising pairs of the 30k-scaled dataset
    (~120 bp reads, where full-width rows and the band differ little)."""
    col = dataset(30_000).collection
    pairs = []
    for pair in SaPairGenerator(dataset_gst(30_000), psi=bench_config().psi).pairs():
        pairs.append(pair)
        if len(pairs) >= n_pairs:
            break
    return col, pairs


#: Promising pairs the 550 bp case aligns; BENCH_align.json was recorded
#: with this count.
PAIRS_550 = 200


def _align_pairs_550bp(n_pairs: int):
    """``n_pairs`` promising pairs spread evenly over the whole pair
    stream of a ``make_benchmark`` world at the paper's 550 bp reads, where
    the band is ~1/8 of a full-width DP row."""
    col = make_benchmark(BenchmarkParams(n_genes=6, mean_ests_per_gene=10), rng=0).collection
    stream = list(
        make_pair_generator(SuffixArrayGst.build(col), ClusteringConfig()).pairs()
    )
    step = max(1, len(stream) // n_pairs)
    return col, stream[::step][:n_pairs]


def run_align(args) -> int:
    cases = []
    speedups = []
    for name, pick, n_pairs in (
        ("30k_120bp", _align_pairs_30k, args.pairs),
        ("make_benchmark_550bp", _align_pairs_550bp, PAIRS_550),
    ):
        col, pairs = pick(n_pairs)
        t_ref, ref_out = _measure(
            lambda: PairAligner(col).align_and_decide_batch(pairs), args.rounds
        )
        t_bat, bat_out = _measure(
            lambda: BatchPairAligner(
                col, group_size=args.group_size
            ).align_and_decide_batch(pairs),
            args.rounds,
        )
        if bat_out != ref_out:
            print(f"FAIL: {name}: batched results differ from the per-pair oracle",
                  file=sys.stderr)
            return 2
        speedup = t_ref / t_bat if t_bat > 0 else float("inf")
        speedups.append(speedup)
        cases.append({
            "case": name,
            "n_ests": col.n_ests,
            "n_pairs": len(pairs),
            "per_pair_seconds": round(t_ref, 4),
            "batched_seconds": round(t_bat, 4),
            "speedup": round(speedup, 2),
        })
    record = {
        "schema": ALIGN_SCHEMA,
        "group_size": args.group_size,
        "cases": cases,
        "min_speedup": args.min_speedup,
        "env": bench_env(),
    }
    # Every case must clear the floor, so gate on the slowest.
    return _finish(record, args, min(speedups), "batched alignment")


#: The 550 bp pairs case: two genes at 60x coverage, a pileup-style world
#: whose scalar oracle drains in a few seconds; BENCH_pairs.json was
#: recorded with it.
PAIRS_WORLD_550 = BenchmarkParams(n_genes=2, mean_ests_per_gene=60, expression_skew=0.0)


def run_pairs(args) -> int:
    world_550 = make_benchmark(PAIRS_WORLD_550, rng=0).collection
    cases = []
    speedups = []
    for name, gst, psi in (
        ("30k_120bp", dataset_gst(30_000), bench_config().psi),
        ("make_benchmark_550bp", SuffixArrayGst.build(world_550), ClusteringConfig().psi),
    ):
        def drain(engine):
            gen = engine(gst, psi)
            return list(gen.pairs()), gen.stats

        t_sca, (sca_out, sca_stats) = _measure(lambda: drain(SaPairGenerator), args.rounds)
        t_vec, (vec_out, vec_stats) = _measure(lambda: drain(VectorPairGenerator), args.rounds)
        # Exact equality — same multiset AND same order, within and across
        # depths, and every PairGenStats field.  The vector engine must be
        # a pure performance layer.
        if vec_out != sca_out:
            print(f"FAIL: {name}: vector pair stream differs from the scalar oracle",
                  file=sys.stderr)
            return 2
        if vec_stats != sca_stats:
            print(f"FAIL: {name}: vector PairGenStats {vec_stats} differ from the "
                  f"scalar oracle's {sca_stats}", file=sys.stderr)
            return 2
        speedup = t_sca / t_vec if t_vec > 0 else float("inf")
        speedups.append(speedup)
        cases.append({
            "case": name,
            "n_ests": gst.collection.n_ests,
            "psi": psi,
            "n_pairs": len(sca_out),
            "scalar_seconds": round(t_sca, 4),
            "vector_seconds": round(t_vec, 4),
            "speedup": round(speedup, 2),
        })
    record = {
        "schema": PAIRS_SCHEMA,
        "cases": cases,
        "min_speedup": args.min_speedup,
        "env": bench_env(),
    }
    # Every case must clear the floor, so gate on the slowest.
    return _finish(record, args, min(speedups), "vector pair generation")


def run_startup(args) -> int:
    from repro.align.batch import make_aligner
    from repro.core import PaceClusterer
    from repro.pairs.batch import make_pair_generator
    from repro.pairs.ondemand import OnDemandPairGenerator
    from repro.parallel import (
        FaultPlan,
        FaultSpec,
        FaultTolerance,
        GstArenas,
        attach_gst,
        cluster_multiprocessing,
        leaked_segments,
    )
    from repro.parallel.partition import assign_buckets
    from repro.parallel.shm import ArenaRegistry

    config = bench_config(pair_engine="vector")
    col = dataset(30_000).collection
    gst = dataset_gst(30_000)
    n_slaves = args.slaves
    assignment = assign_buckets(gst.bucket_ranges(config.w), n_slaves)
    ranges_of = [
        [(lo, hi) for _key, lo, hi in assignment.per_processor[k]]
        for k in range(n_slaves)
    ]

    # --- per-slave spawn payload: whole index vs descriptor bundle -------
    # The fork context never pickles Process args, so the payload is
    # measured explicitly: it is exactly what a spawn/forkserver context
    # (or any future MPI transport) would serialise per slave.
    legacy_bytes = max(
        len(pickle.dumps((gst, ranges_of[k], config))) for k in range(n_slaves)
    )
    shared = GstArenas.create(
        gst, ranges_of, pair_engine=config.pair_engine, psi=config.psi
    )
    try:
        shared_bytes = max(
            len(pickle.dumps((shared.bundle, ranges_of[k], config)))
            for k in range(n_slaves)
        )
        ratio = legacy_bytes / shared_bytes

        # --- spawn-to-first-result latency ---------------------------------
        # Both paths run the exact slave-startup sequence in-process:
        # deserialise the payload, materialise the gst (attach for the
        # shared path), build generator + aligner, produce the first
        # dispatch batch.  Measured on slave 0 (the largest range set).
        def legacy_start():
            g, r, c = pickle.loads(pickle.dumps((gst, ranges_of[0], config)))
            gen = make_pair_generator(g, c, ranges=r)
            make_aligner(g.collection, c)
            return OnDemandPairGenerator(gen.pairs()).next_batch(c.batchsize)

        def shared_start():
            b, r, c = pickle.loads(
                pickle.dumps((shared.bundle, ranges_of[0], config))
            )
            registry = ArenaRegistry()
            try:
                g, forest = attach_gst(b, registry, 0)
                gen = make_pair_generator(g, c, ranges=r, forest=forest)
                make_aligner(g.collection, c)
                return OnDemandPairGenerator(gen.pairs()).next_batch(c.batchsize)
            finally:
                registry.close()

        t_legacy, first_legacy = _measure(legacy_start, args.rounds)
        t_shared, first_shared = _measure(shared_start, args.rounds)
        if first_shared != first_legacy:
            print(
                "FAIL: first dispatch batch differs between attached and "
                "deserialised startup",
                file=sys.stderr,
            )
            return 2
    finally:
        shared.dispose()

    # --- end-to-end oracle: clean and injected-fault parallel runs ------
    seq_clusters = PaceClusterer(config).cluster(col).clusters
    clean = cluster_multiprocessing(col, config, n_processors=n_slaves + 1)
    plan = FaultPlan.of(
        FaultSpec(slave_id=0, kind="kill", at_message=1, incarnation=None)
    )
    tol = FaultTolerance(slave_timeout=30.0, poll_interval=0.05, max_restarts=0)
    faulted = cluster_multiprocessing(
        col, config, n_processors=n_slaves + 1, faults=plan, tolerance=tol
    )
    clean_ok = clean.clusters == seq_clusters
    fault_ok = faulted.clusters == seq_clusters and faulted.faults.slaves_lost >= 1
    leaks = leaked_segments()

    record = {
        "schema": STARTUP_SCHEMA,
        "dataset": 30_000,
        "n_slaves": n_slaves,
        "legacy_payload_bytes": legacy_bytes,
        "shared_payload_bytes": shared_bytes,
        "payload_ratio": round(ratio, 1),
        "min_payload_ratio": args.min_payload_ratio,
        "legacy_startup_seconds": round(t_legacy, 4),
        "shared_startup_seconds": round(t_shared, 4),
        "max_startup_seconds": args.max_startup_seconds,
        "clean_oracle": clean_ok,
        "fault_oracle": fault_ok,
        "leaked_segments": leaks,
        "env": bench_env(),
    }
    print(json.dumps(record, indent=2))
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=2) + "\n")

    failures = []
    if not clean_ok:
        failures.append("clean parallel clusters differ from sequential oracle")
    if not fault_ok:
        failures.append("faulted parallel clusters differ from sequential oracle")
    if leaks:
        failures.append(f"leaked shared-memory segments: {leaks}")
    if ratio < args.min_payload_ratio:
        failures.append(
            f"payload ratio {ratio:.1f}x < {args.min_payload_ratio:.1f}x"
        )
    if t_shared > args.max_startup_seconds:
        failures.append(
            f"shared startup {t_shared:.2f}s > {args.max_startup_seconds:.2f}s"
        )
    if failures:
        for f in failures:
            print(f"perf gate FAILED: {f}", file=sys.stderr)
        return 1
    print(
        f"perf gate passed: per-slave payload {ratio:.0f}x smaller "
        f"({legacy_bytes} -> {shared_bytes} bytes), startup {t_shared:.3f}s"
    )
    return 0


def run_dispatch(args) -> int:
    from repro.core import PaceClusterer
    from repro.parallel import cluster_multiprocessing, simulate_clustering

    config = bench_config()
    col = dataset(30_000).collection
    gst = dataset_gst(30_000)
    n_proc = args.slaves + 1

    # --- oracle: the paper policy is a refactoring, not a behaviour ------
    seq_clusters = PaceClusterer(config).cluster(col).clusters
    sim_paper = simulate_clustering(
        col, config, n_processors=n_proc, gst=gst, dispatch_policy="paper"
    )
    sim_ok = sim_paper.result.clusters == seq_clusters
    # config.dispatch_policy is "paper" by default; mp reads it from there.
    mp_paper = cluster_multiprocessing(col, config, n_processors=n_proc)
    mp_ok = mp_paper.clusters == seq_clusters

    # --- makespan: no policy may tank throughput for its tail gains ------
    makespans = {"paper": sim_paper.total_time}
    cluster_drift = []
    for policy in ("jbsq:2", "pace"):
        rep = simulate_clustering(
            col, config, n_processors=n_proc, gst=gst, dispatch_policy=policy
        )
        makespans[policy] = rep.total_time
        if rep.result.clusters != seq_clusters:
            cluster_drift.append(policy)
    worst_ratio = max(t / makespans["paper"] for t in makespans.values())

    record = {
        "schema": DISPATCH_SCHEMA,
        "dataset": 30_000,
        "n_slaves": args.slaves,
        "sim_paper_oracle": sim_ok,
        "mp_paper_oracle": mp_ok,
        "policies_cluster_identical": not cluster_drift,
        "makespans": {k: round(v, 4) for k, v in makespans.items()},
        "worst_makespan_ratio": round(worst_ratio, 3),
        "max_makespan_ratio": args.max_makespan_ratio,
        "env": bench_env(),
    }
    print(json.dumps(record, indent=2))
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=2) + "\n")

    failures = []
    if not sim_ok:
        failures.append("paper-policy sim clusters differ from sequential oracle")
    if not mp_ok:
        failures.append("paper-policy mp clusters differ from sequential oracle")
    for policy in cluster_drift:
        failures.append(f"policy {policy!r} changed the partition")
    if worst_ratio > args.max_makespan_ratio:
        failures.append(
            f"worst policy makespan {worst_ratio:.2f}x paper > "
            f"{args.max_makespan_ratio:.2f}x"
        )
    if failures:
        for f in failures:
            print(f"perf gate FAILED: {f}", file=sys.stderr)
        return 1
    print(
        f"perf gate passed: dispatch oracles hold, worst makespan ratio "
        f"{worst_ratio:.2f}x"
    )
    return 0


def run_shard(args) -> int:
    from dataclasses import replace

    from repro.core import PaceClusterer
    from repro.parallel import (
        CostModel,
        FaultPlan,
        FaultSpec,
        FaultTolerance,
        cluster_multiprocessing,
        simulate_clustering,
    )

    config = bench_config()
    col = dataset(30_000).collection
    gst = dataset_gst(30_000)
    n_proc = args.slaves + 1

    # --- identity: sharding is a perf layer, never a behaviour -----------
    # Sequential == single-master == N-shard on both engines, and the
    # equality must survive injected slave crashes with shard-local
    # recovery.  Sync cadence is tightened so exchanges actually happen
    # inside the short gate runs.
    seq_clusters = PaceClusterer(config).cluster(col).clusters
    sim_cfg = replace(config, shard_sync_interval=1e-3)
    sim_single = simulate_clustering(
        col, sim_cfg, n_processors=n_proc, gst=gst, master_shards=1
    )
    sim_sharded = simulate_clustering(
        col, sim_cfg, n_processors=n_proc, gst=gst, master_shards=args.shards
    )
    sim_single_ok = sim_single.result.clusters == seq_clusters
    sim_shard_ok = sim_sharded.result.clusters == seq_clusters

    mp_cfg = replace(
        config, master_shards=args.shards, shard_sync_interval=0.05
    )
    mp_sharded = cluster_multiprocessing(col, mp_cfg, n_processors=n_proc)
    mp_shard_ok = mp_sharded.clusters == seq_clusters

    plan = FaultPlan.of(
        FaultSpec(slave_id=0, kind="kill", at_message=1, incarnation=None),
        FaultSpec(
            slave_id=args.slaves - 1,
            kind="kill_after_send",
            at_message=0,
            incarnation=None,
        ),
    )
    tol = FaultTolerance(slave_timeout=30.0, poll_interval=0.05, max_restarts=0)
    mp_faulted = cluster_multiprocessing(
        col, mp_cfg, n_processors=n_proc, faults=plan, tolerance=tol
    )
    fault_ok = (
        mp_faulted.clusters == seq_clusters
        and mp_faulted.faults.slaves_lost >= 2
    )

    # --- makespan: sharding must relieve a master-bound run --------------
    # The sim makespan gate uses a deliberately master-bound cost model
    # (absorption, bookkeeping and message handling dominate; alignment is
    # nearly free) — the regime ROADMAP 2 targets, where a single master
    # serialises the run and splitting its WORKBUF/union-find across
    # shards buys real wall-clock.
    master_bound = CostModel(
        master_msg_cost=200e-6,
        master_pair_cost=30e-6,
        master_result_cost=20e-6,
        dp_cell_cost=0.002e-6,
        align_overhead=2e-6,
        pair_gen_cost=0.5e-6,
    )
    makespans: dict[str, float] = {}
    for n_shards in sorted({1, args.shards}):
        rep = simulate_clustering(
            col,
            sim_cfg,
            n_processors=n_proc,
            gst=gst,
            cost_model=master_bound,
            master_shards=n_shards,
        )
        makespans[str(n_shards)] = rep.total_time
        if rep.result.clusters != seq_clusters:
            sim_shard_ok = False
    speedup = makespans["1"] / makespans[str(args.shards)]

    record = {
        "schema": SHARD_SCHEMA,
        "dataset": 30_000,
        "n_slaves": args.slaves,
        "n_shards": args.shards,
        "sim_single_oracle": sim_single_ok,
        "sim_shard_oracle": sim_shard_ok,
        "mp_shard_oracle": mp_shard_ok,
        "mp_fault_oracle": fault_ok,
        "sync_rounds": sim_sharded.sync_rounds,
        "unions_exchanged": sim_sharded.unions_exchanged,
        "master_bound_makespans": {
            k: round(v, 4) for k, v in makespans.items()
        },
        "shard_speedup": round(speedup, 3),
        "min_speedup": args.min_speedup,
        "env": bench_env(),
    }
    print(json.dumps(record, indent=2))
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=2) + "\n")

    failures = []
    if not sim_single_ok:
        failures.append("single-master sim clusters differ from sequential oracle")
    if not sim_shard_ok:
        failures.append("sharded sim clusters differ from sequential oracle")
    if not mp_shard_ok:
        failures.append("sharded mp clusters differ from sequential oracle")
    if not fault_ok:
        failures.append("sharded mp clusters under faults differ from oracle")
    if speedup < args.min_speedup:
        failures.append(
            f"{args.shards}-shard master-bound speedup {speedup:.2f}x < "
            f"{args.min_speedup:.2f}x"
        )
    if failures:
        for f in failures:
            print(f"perf gate FAILED: {f}", file=sys.stderr)
        return 1
    print(
        f"perf gate passed: shard oracles hold, {args.shards}-shard "
        f"master-bound speedup {speedup:.2f}x"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="gate", required=True)

    p_align = sub.add_parser("align", help="per-pair vs batched alignment")
    p_align.add_argument("--out", type=Path, default=None,
                         help="write the measurement JSON here")
    p_align.add_argument("--min-speedup", type=float, default=2.0,
                         help="fail when batched speedup is below this "
                              "(default 2.0)")
    p_align.add_argument("--pairs", type=int, default=1000,
                         help="promising pairs to align on the 30k-scaled "
                              "~120 bp dataset (default 1000)")
    p_align.add_argument("--group-size", type=int, default=64,
                         help="batched engine DP group size (default 64)")
    p_align.add_argument("--rounds", type=int, default=3,
                         help="timing rounds, best-of (default 3)")
    p_align.set_defaults(func=run_align)

    p_pairs = sub.add_parser("pairs", help="scalar vs vector pair generation")
    p_pairs.add_argument("--out", type=Path, default=None,
                         help="write the measurement JSON here")
    p_pairs.add_argument("--min-speedup", type=float, default=3.0,
                         help="fail when vector speedup is below this "
                              "(default 3.0)")
    p_pairs.add_argument("--rounds", type=int, default=3,
                         help="timing rounds, best-of (default 3)")
    p_pairs.set_defaults(func=run_pairs)

    p_start = sub.add_parser(
        "startup", help="legacy vs shared-arena slave startup"
    )
    p_start.add_argument("--out", type=Path, default=None,
                         help="write the measurement JSON here")
    p_start.add_argument("--min-payload-ratio", type=float, default=10.0,
                         help="fail when the per-slave pickled payload "
                              "shrinks less than this factor (default 10)")
    p_start.add_argument("--max-startup-seconds", type=float, default=5.0,
                         help="fail when attach+construct+first-batch "
                              "exceeds this (default 5.0)")
    p_start.add_argument("--slaves", type=int, default=3,
                         help="slave count for payload/oracle runs "
                              "(default 3)")
    p_start.add_argument("--rounds", type=int, default=3,
                         help="timing rounds, best-of (default 3)")
    p_start.set_defaults(func=run_startup)

    p_disp = sub.add_parser(
        "dispatch", help="dispatch-policy oracle identity + makespan bound"
    )
    p_disp.add_argument("--out", type=Path, default=None,
                        help="write the measurement JSON here")
    p_disp.add_argument("--max-makespan-ratio", type=float, default=1.1,
                        help="fail when any policy's simulated makespan "
                             "exceeds this multiple of the paper "
                             "baseline (default 1.1)")
    p_disp.add_argument("--slaves", type=int, default=4,
                        help="slave count for the oracle/makespan runs "
                             "(default 4)")
    p_disp.set_defaults(func=run_dispatch)

    p_shard = sub.add_parser(
        "shard", help="sharded-master partition identity + makespan relief"
    )
    p_shard.add_argument("--out", type=Path, default=None,
                         help="write the measurement JSON here")
    p_shard.add_argument("--shards", type=int, default=4,
                         help="shard count for the gated runs (default 4)")
    p_shard.add_argument("--slaves", type=int, default=16,
                         help="slave count (default 16; the master-bound "
                              "makespan gate needs enough slaves that the "
                              "master is the bottleneck)")
    p_shard.add_argument("--min-speedup", type=float, default=2.0,
                         help="fail when the N-shard makespan on the "
                              "master-bound sim workload is not at least "
                              "this factor below single-master "
                              "(default 1.5)")
    p_shard.set_defaults(func=run_shard)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
