"""In-process probes of one clustering run, each started as a fresh process.

``run.py`` starts this script with the checkout's ``src`` on ``PYTHONPATH``
and times the process from outside, exactly as it times ``pace-est
cluster``.  Every mode reads the FASTA, clusters it under the configuration
the CLI builds from the same arguments, writes the partition as the CLI's
``name<TAB>cluster`` TSV, and prints one JSON object on stdout::

    python3 perfbench/probe.py layers   IN.fa OUT.tsv [cluster args...]
    python3 perfbench/probe.py oracle   IN.fa OUT.tsv [cluster args...]
    python3 perfbench/probe.py parallel IN.fa OUT.tsv [cluster args...]
    python3 perfbench/probe.py index-peak IN.fa

- ``layers`` drives the sequential pipeline's own loop (``greedy_cluster``
  when ``align_batch == 0``, ``greedy_cluster_batched`` otherwise) through
  timing proxies around each layer's public functions, and reports seconds
  and work counts per layer.
- ``oracle`` runs the untouched sequential ``PaceClusterer``: the
  single-process baseline and the partition every engine must reproduce.
- ``parallel`` runs ``run_parallel`` with ``Telemetry()`` on the engine and
  processor count the arguments name (``--parallel P --machine M``) and
  reads the parallel layer from what the program already records.
- ``index-peak`` builds the suffix-array index under ``tracemalloc``.

``ready`` in the ``layers`` output is the ``time.monotonic()`` reading when
the imports were done and the run began, so the caller can split
interpreter start-up from the run.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from itertools import islice
from pathlib import Path

from repro.align.batch import make_aligner
from repro.align.scoring import AcceptanceCriteria
from repro.cli import build_parser
from repro.cluster.greedy import WorkCounters, greedy_cluster, greedy_cluster_batched
from repro.cluster.manager import ClusterManager
from repro.core import ClusteringConfig, PaceClusterer
from repro.pairs.batch import make_pair_generator
from repro.parallel import run_parallel
from repro.sequence import EstCollection, read_fasta
from repro.suffix import SuffixArrayGst
from repro.telemetry import LatencyStore, Telemetry

now = time.perf_counter


def cli_config(fasta: Path, cli_args: list[str]):
    """The parsed ``cluster`` arguments and the config ``pace-est cluster``
    builds from them (the same field mapping as the CLI's command)."""
    args = build_parser().parse_args(["cluster", str(fasta), *cli_args])
    config = ClusteringConfig(
        w=args.w,
        psi=args.psi,
        batchsize=args.batchsize,
        align_batch=args.align_batch,
        pair_engine=args.pair_engine,
        shared_arenas=not args.no_shared_arenas,
        dispatch_policy=args.dispatch_policy,
        master_shards=args.master_shards,
        shard_sync_interval=args.shard_sync_interval,
        acceptance=AcceptanceCriteria(
            min_score_ratio=args.min_ratio, min_overlap=args.min_overlap
        ),
    )
    return args, config


def write_tsv(path: Path, records, clusters) -> None:
    """The CLI's output format: one ``name<TAB>cluster`` line per EST."""
    lines = [
        f"{records[i].name}\t{cid}"
        for cid, members in enumerate(clusters)
        for i in members
    ]
    path.write_text("\n".join(lines) + "\n")


def load(fasta: Path):
    records = read_fasta(fasta)
    return records, EstCollection.from_records(records)


# ---------------------------------------------------------------------- #
# layer timing proxies (seconds accumulate per call or per chunk)


class TimedPairStream:
    """Yields a pair stream unchanged, timing the upstream pulls one
    ``chunk``-sized ``islice`` at a time, never per pair."""

    def __init__(self, stream, chunk: int) -> None:
        self._stream = stream
        self._chunk = chunk
        self.seconds = 0.0

    def __iter__(self):
        it = iter(self._stream)
        while True:
            t0 = now()
            chunk = list(islice(it, self._chunk))
            self.seconds += now() - t0
            if not chunk:
                return
            yield from chunk


class TimedManager:
    """A ClusterManager whose selection and union calls are timed."""

    def __init__(self, inner: ClusterManager) -> None:
        self._inner = inner
        self.select_s = 0.0
        self.union_s = 0.0

    def same_cluster(self, est_a: int, est_b: int) -> bool:
        t0 = now()
        out = self._inner.same_cluster(est_a, est_b)
        self.select_s += now() - t0
        return out

    def same_cluster_batch(self, pairs):
        t0 = now()
        out = self._inner.same_cluster_batch(pairs)
        self.select_s += now() - t0
        return out

    def merge(self, pair, result) -> bool:
        t0 = now()
        out = self._inner.merge(pair, result)
        self.union_s += now() - t0
        return out

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TimedAligner:
    """An aligner whose alignment kernel calls are timed."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.seconds = 0.0

    def align_and_decide(self, pair):
        t0 = now()
        out = self._inner.align_and_decide(pair)
        self.seconds += now() - t0
        return out

    def align_and_decide_batch(self, pairs):
        t0 = now()
        out = self._inner.align_and_decide_batch(pairs)
        self.seconds += now() - t0
        return out

    def __getattr__(self, name):
        return getattr(self._inner, name)


def index_bytes(gst: SuffixArrayGst) -> int:
    """Bytes held by the index's numpy arrays (computed from their sizes;
    arrays shared between fields are counted once)."""
    seen: dict[int, int] = {}

    def visit(value) -> None:
        if hasattr(value, "nbytes") and hasattr(value, "dtype"):
            seen[id(value)] = int(value.nbytes)
        elif isinstance(value, (list, tuple)):
            for item in value:
                visit(item)
        elif hasattr(value, "__dataclass_fields__"):
            for name in value.__dataclass_fields__:
                if name != "collection":
                    visit(getattr(value, name))

    visit(gst)
    return sum(seen.values())


# ---------------------------------------------------------------------- #
# modes


def run_layers(fasta: Path, out: Path, cli_args: list[str]) -> dict:
    _args, cfg = cli_config(fasta, cli_args)
    ready = time.monotonic()
    t0 = now()
    records, collection = load(fasta)
    read_s = now() - t0

    t0 = now()
    gst = SuffixArrayGst.build(collection)
    index_s = now() - t0

    t0 = now()
    generator = make_pair_generator(gst, cfg)
    forest_s = now() - t0

    aligner = TimedAligner(make_aligner(collection, cfg))
    manager = TimedManager(ClusterManager(collection.n_ests))
    stream = TimedPairStream(generator.pairs(), cfg.batchsize)
    counters = WorkCounters()
    if cfg.align_batch:
        greedy_cluster_batched(
            stream,
            aligner,
            manager,
            batch_size=cfg.batchsize,
            skip_clustered=cfg.skip_clustered,
            counters=counters,
        )
    else:
        greedy_cluster(
            stream,
            aligner,
            manager,
            skip_clustered=cfg.skip_clustered,
            counters=counters,
        )
    write_tsv(out, records, manager.clusters())

    generated = counters.pairs_generated
    aligned = counters.pairs_processed
    return {
        "ready": ready,
        "layers": {
            "sequence.read_s": read_s,
            "suffix.index_s": index_s,
            "suffix.forest_s": forest_s,
            "pairs.gen_s": stream.seconds,
            "cluster.select_s": manager.select_s,
            "cluster.union_s": manager.union_s,
            "align.kernel_s": aligner.seconds,
        },
        "counts": {
            "sequence.kbp": collection.total_chars / 1000.0,
            "suffix.index_mb": index_bytes(gst) / 2**20,
            # Both generator engines keep their forests in ``_forests``;
            # the pipeline's live monitor reads them the same way.
            "suffix.forest_nodes": sum(f.n_nodes for f in generator._forests),
            "pairs.generated": generated,
            "pairs.nodes": generator.stats.nodes_processed,
            "pairs.per_s": generated / stream.seconds if stream.seconds else 0.0,
            "cluster.skip_frac": counters.pairs_skipped / generated if generated else 0.0,
            "cluster.merges": len(manager.merges),
            "align.pairs": aligned,
            "align.accept_frac": counters.pairs_accepted / aligned if aligned else 0.0,
            "align.dp_cells": counters.dp_cells,
            "align.cells_per_s": counters.dp_cells / aligner.seconds if aligner.seconds else 0.0,
        },
    }


def run_oracle(fasta: Path, out: Path, cli_args: list[str]) -> dict:
    _args, cfg = cli_config(fasta, cli_args)
    records, collection = load(fasta)
    result = PaceClusterer(cfg).cluster(collection)
    write_tsv(out, records, result.clusters)
    return {"aligned": result.counters.pairs_processed}


def run_parallel_traced(fasta: Path, out: Path, cli_args: list[str]) -> dict:
    args, cfg = cli_config(fasta, cli_args)
    records, collection = load(fasta)
    tel = Telemetry()
    t_call = tel.now()
    result = run_parallel(
        collection, cfg, n_processors=args.parallel, machine=args.machine, telemetry=tel
    )
    run_s = tel.now() - t_call
    write_tsv(out, records, result.clusters)

    snap = result.telemetry
    busy: dict[str, float] = {}
    first_slave = None
    for ev in snap.events:
        if ev.get("kind") != "trace" or ev.get("event") != "compute":
            continue
        actor = ev["actor"]
        busy[actor] = busy.get(actor, 0.0) + (ev["end"] - ev["ts"])
        if actor.startswith("slave") and (first_slave is None or ev["ts"] < first_slave):
            first_slave = ev["ts"]
    slave_busy = [s for a, s in busy.items() if a.startswith("slave")]
    mean_slave = statistics.fmean(slave_busy) if slave_busy else 0.0
    lat = LatencyStore.from_metrics(snap.metrics)
    return {
        "aligned": result.counters.pairs_processed,
        "counts": {
            "parallel.startup_s": (first_slave - t_call) if first_slave is not None else run_s,
            "parallel.master_busy_frac": busy.get("master", 0.0) / run_s,
            "parallel.slave_busy_frac": mean_slave / run_s,
            "parallel.slave_imbalance": max(slave_busy) / mean_slave if mean_slave else 0.0,
            "parallel.messages": snap.metrics.get("counters", {}).get("messages.exchanged", 0),
            "parallel.rtt_p50_ms": lat.quantile("rtt", 0.50) * 1e3,
            "parallel.rtt_p99_ms": lat.quantile("rtt", 0.99) * 1e3,
            "parallel.rtt_samples": lat.count("rtt"),
            "parallel.queue_master_p99_ms": lat.quantile("queue_master", 0.99) * 1e3,
            "parallel.queue_master_samples": lat.count("queue_master"),
        },
    }


def run_index_peak(fasta: Path) -> dict:
    import tracemalloc

    _records, collection = load(fasta)
    tracemalloc.start()
    SuffixArrayGst.build(collection)
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {"suffix.index_peak_mb": peak / 2**20}


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        raise SystemExit(__doc__)
    mode, fasta = argv[0], Path(argv[1])
    if mode == "index-peak":
        out = run_index_peak(fasta)
    else:
        if len(argv) < 3:
            raise SystemExit(__doc__)
        tsv, cli_args = Path(argv[2]), argv[3:]
        runners = {
            "layers": run_layers,
            "oracle": run_oracle,
            "parallel": run_parallel_traced,
        }
        if mode not in runners:
            raise SystemExit(f"unknown mode {mode!r}\n{__doc__}")
        out = runners[mode](fasta, tsv, cli_args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
