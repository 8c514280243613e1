"""Command-line interface: cluster / simulate / evaluate / report.

The original PaCE shipped as a command-line program; this module provides
the equivalent driver surface::

    pace-est cluster ests.fa -o clusters.tsv --psi 25 --min-overlap 40
    pace-est cluster ests.fa --parallel 8 --machine simulated
    pace-est cluster ests.fa --parallel 4 --telemetry-out trace.jsonl
    pace-est cluster ests.fa --parallel 4 --monitor-port 9100 --live-out live.jsonl
    pace-est simulate bench.fa --genes 20 --coverage 10 --truth truth.tsv
    pace-est evaluate clusters.tsv truth.tsv
    pace-est report trace.jsonl
    pace-est analyze trace.jsonl
    pace-est diff baseline.jsonl candidate.jsonl --threshold 0.25
    pace-est monitor http://127.0.0.1:9100 --watch 2
    pace-est monitor live.jsonl
    pace-est cluster ests.fa --parallel 4 --obs-out run1/
    pace-est perfetto run1/trace.jsonl
    pace-est postmortem run1/

``cluster`` writes a two-column TSV (EST name, cluster id) and, with
``--telemetry-out``, the run's full telemetry stream as JSONL;
``simulate`` writes a FASTA benchmark plus its ground-truth TSV;
``evaluate`` prints the paper's OQ/OV/UN/CC metrics between two
assignment files; ``report`` validates a telemetry JSONL file and
reconstructs the paper-shaped measurements from it (per-phase times in
Table 3's components, per-slave utilisation, the Fig. 8 master-busy
fraction, counters/histograms, fault accounting); ``analyze`` breaks a
trace down by work-unit lifecycle stage — tail quantiles, the
critical-path stage, per-slave imbalance and straggler hints;
``diff`` compares two traces stage-by-stage and exits non-zero when a
quantile regressed past the threshold (the CI latency gate); ``monitor``
renders a live progress table from a running cluster's
``--monitor-port`` endpoint or replays a finished run's ``--live-out``
JSONL stream; ``perfetto`` exports a trace as Chrome trace-event JSON
for the Perfetto UI; ``postmortem`` reconstructs a failed run's merged
timeline from an ``--obs-out`` directory (flight-recorder dumps
included) and names the work units that were in flight when it died.

Diagnostics go through :mod:`repro.util.logging` (structured one-line
``key=value`` records on stderr); data output — cluster TSVs, reports,
tables — still writes plainly to stdout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.align.scoring import AcceptanceCriteria
from repro.cluster.analysis import profile_clusters
from repro.core import ClusteringConfig, PaceClusterer
from repro.metrics import assess_clustering
from repro.parallel import run_parallel
from repro.sequence import EstCollection, FastaRecord, read_fasta, write_fasta
from repro.simulate import BenchmarkParams, make_benchmark
from repro.telemetry import (
    Telemetry,
    export_jsonl,
    load_jsonl,
    summarise,
    validate_records,
)
from repro.util.logging import get_logger, new_run_id

__all__ = ["main", "build_parser"]

_log = get_logger(actor="cli")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pace-est",
        description="Parallel EST clustering (PaCE reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cluster", help="cluster a FASTA file of ESTs")
    c.add_argument("fasta", type=Path, help="input FASTA")
    c.add_argument("-o", "--output", type=Path, help="output TSV (default: stdout)")
    c.add_argument("--w", type=int, default=8, help="bucket window (default 8)")
    c.add_argument("--psi", type=int, default=25, help="pair threshold ψ (default 25)")
    c.add_argument("--batchsize", type=int, default=60)
    c.add_argument("--align-batch", type=int, default=64, metavar="G",
                   help="vectorised alignment group size (default 64); "
                        "0 runs the per-pair oracle loop (same clusters, "
                        "several times slower)")
    c.add_argument("--pair-engine", choices=("scalar", "vector"),
                   default="vector",
                   help="promising-pair generation engine: 'vector' "
                        "(default) runs the depth-batched numpy engine; "
                        "'scalar' is the node-at-a-time reference oracle "
                        "(identical pair stream, several times slower)")
    c.add_argument("--min-overlap", type=int, default=40)
    c.add_argument("--min-ratio", type=float, default=0.85, help="score/ideal acceptance")
    c.add_argument("--parallel", type=int, default=0, metavar="P",
                   help="use P processors (0 = sequential)")
    c.add_argument("--machine", choices=("simulated", "multiprocessing"),
                   default="multiprocessing")
    c.add_argument("--dispatch-policy", default="paper", metavar="POLICY",
                   help="master work-allocation policy: 'paper' (the §3.3 "
                        "formula, reproduction-faithful default), 'jbsq' / "
                        "'jbsq:<k>' (bound grants by in-flight batch depth) "
                        "or 'pace' (shrink grants to straggling slaves)")
    c.add_argument("--master-shards", type=int, default=1, metavar="N",
                   help="partition the master into N shards, each owning a "
                        "disjoint slice of the bucket ranges and a subset "
                        "of the slaves; shards exchange accepted-pair "
                        "unions periodically (1 = classic single master)")
    c.add_argument("--shard-sync-interval", type=float, default=0.25,
                   metavar="S",
                   help="seconds between cross-shard union-log exchanges "
                        "(virtual seconds on the simulated machine)")
    c.add_argument("--clusters-fasta-dir", type=Path,
                   help="also write one FASTA per cluster into this directory")
    c.add_argument("--representatives", type=Path, metavar="FASTA",
                   help="write one representative EST per cluster (the "
                        "member with the most merge-overlap evidence)")
    c.add_argument("--telemetry-out", type=Path, metavar="JSONL",
                   help="record spans, metrics and the machine trace; "
                        "write them as JSONL here (summarise with "
                        "'pace-est report')")
    c.add_argument("--monitor-port", type=int, metavar="PORT",
                   help="serve live run state over HTTP on 127.0.0.1:PORT "
                        "(/metrics Prometheus text, /healthz, /state JSON; "
                        "0 = OS-assigned)")
    c.add_argument("--monitor-interval", type=float, default=1.0, metavar="S",
                   help="live sample interval in seconds (default 1.0)")
    c.add_argument("--live-out", type=Path, metavar="JSONL",
                   help="stream live progress/resource samples here as "
                        "they happen (replay with 'pace-est monitor')")
    c.add_argument("--monitor-linger", type=float, default=0.0, metavar="S",
                   help="keep the monitor endpoint serving the final "
                        "state for S seconds after the run completes")
    c.add_argument("--causal-trace", action="store_true",
                   help="mint a work-unit id per dispatched pair batch and "
                        "record its lifecycle (generated → dispatched → "
                        "absorbed/requeued/pruned) in the telemetry stream; "
                        "requires --telemetry-out (or --obs-out)")
    c.add_argument("--flight-dir", type=Path, metavar="DIR",
                   help="arm a crash flight recorder in every process: a "
                        "bounded event ring dumped to DIR/flight-<actor>.json "
                        "on crash, SIGTERM or fault-tolerance transitions")
    c.add_argument("--obs-out", type=Path, metavar="DIR",
                   help="one-stop observability directory: implies "
                        "--telemetry-out DIR/trace.jsonl, --live-out "
                        "DIR/live.jsonl, --flight-dir DIR and --causal-trace, "
                        "all under one shared run id, plus a Perfetto "
                        "timeline at DIR/timeline.perfetto.json "
                        "(inspect with 'pace-est postmortem DIR')")
    c.add_argument("--no-shared-arenas", action="store_true",
                   help="disable shared-memory arenas for the real "
                        "multiprocessing machine (slaves then receive a "
                        "full copy of the index, the legacy behaviour)")

    s = sub.add_parser("simulate", help="generate a synthetic EST benchmark")
    s.add_argument("fasta", type=Path, help="output FASTA")
    s.add_argument("--genes", type=int, default=20)
    s.add_argument("--coverage", type=float, default=10.0, help="mean ESTs per gene")
    s.add_argument("--read-length", type=float, default=550.0)
    s.add_argument("--error-rate", type=float, default=0.02,
                   help="total error rate (half substitutions, half indels)")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--truth", type=Path, help="write ground-truth TSV here")

    e = sub.add_parser("evaluate", help="score a clustering against truth")
    e.add_argument("predicted", type=Path, help="TSV: name<TAB>cluster")
    e.add_argument("truth", type=Path, help="TSV: name<TAB>cluster")

    r = sub.add_parser(
        "report", help="validate + summarise a telemetry JSONL trace"
    )
    r.add_argument("trace", type=Path, help="JSONL file from --telemetry-out")
    r.add_argument("--timeline", type=int, default=0, metavar="N",
                   help="also print the first N machine-trace events")

    a = sub.add_parser(
        "analyze",
        help="work-unit latency analysis of a telemetry trace: per-stage "
             "quantiles, critical path, slave imbalance, and (with "
             "--causal-trace data) the work-unit conservation check",
    )
    a.add_argument("trace", type=Path, help="JSONL file from --telemetry-out")
    a.add_argument("--strict-conservation", action="store_true",
                   help="exit 1 when the work-unit conservation check finds "
                        "orphaned or double-absorbed units (the CI gate)")

    pf = sub.add_parser(
        "perfetto",
        help="export a telemetry JSONL trace as Chrome trace-event JSON "
             "(load in Perfetto / chrome://tracing): one track per master "
             "shard and slave, flow arrows from dispatch to absorb",
    )
    pf.add_argument("trace", type=Path, help="JSONL file from --telemetry-out")
    pf.add_argument("-o", "--output", type=Path, metavar="JSON",
                    help="output path (default: <trace>.perfetto.json)")

    pm = sub.add_parser(
        "postmortem",
        help="reconstruct a run's causally-ordered timeline from an "
             "observability directory (--obs-out): per-actor last known "
             "state, in-flight work units, flight-recorder dumps, "
             "conservation check; exits 1 if the evidence is inconsistent",
    )
    pm.add_argument("directory", type=Path,
                    help="directory holding the run's *.jsonl streams and "
                         "flight-*.json dumps")
    pm.add_argument("--tail", type=int, default=25, metavar="N",
                    help="merged-timeline events to show (default 25)")

    d = sub.add_parser(
        "diff",
        help="compare two telemetry traces stage-by-stage; exit 1 on "
             "latency regressions past the threshold",
    )
    d.add_argument("baseline", type=Path, help="baseline trace JSONL")
    d.add_argument("candidate", type=Path, help="candidate trace JSONL")
    d.add_argument("--threshold", type=float, default=0.25, metavar="FRAC",
                   help="relative increase counted as a regression "
                        "(default 0.25 = +25%%)")

    m = sub.add_parser(
        "monitor",
        help="render a live progress table from a monitor endpoint or a "
             "--live-out JSONL stream",
    )
    m.add_argument("target",
                   help="endpoint URL (http://host:port) or live JSONL path")
    m.add_argument("--watch", type=float, default=0.0, metavar="S",
                   help="refresh every S seconds until the run finishes "
                        "(endpoint targets only; 0 = render once)")

    return parser


def _read_assignments(path: Path) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise SystemExit(f"{path}:{lineno}: expected 'name<TAB>cluster'")
        out[parts[0]] = parts[1]
    return out


def _cmd_cluster(args: argparse.Namespace) -> int:
    if args.obs_out is not None:
        # One directory, one run id, every sink: the fan-out keeps the
        # individual flags composable (explicit flags win over defaults).
        args.obs_out.mkdir(parents=True, exist_ok=True)
        if args.telemetry_out is None:
            args.telemetry_out = args.obs_out / "trace.jsonl"
        if args.live_out is None:
            args.live_out = args.obs_out / "live.jsonl"
        if args.flight_dir is None:
            args.flight_dir = args.obs_out
        args.causal_trace = True
    if args.causal_trace and args.telemetry_out is None:
        raise SystemExit(
            "--causal-trace records ride the telemetry stream: add "
            "--telemetry-out FILE (or use --obs-out DIR)"
        )
    try:
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
            causal_tracing=args.causal_trace,
            flight_dir=str(args.flight_dir) if args.flight_dir is not None else None,
            acceptance=AcceptanceCriteria(
                min_score_ratio=args.min_ratio, min_overlap=args.min_overlap
            ),
        )
    except ValueError as exc:
        # A bad option value: one line and exit 2, as argparse does.
        print(f"pace-est cluster: {exc}", file=sys.stderr)
        return 2
    try:
        records = read_fasta(args.fasta)
        collection = EstCollection.from_records(records)
    except ValueError as exc:
        raise SystemExit(f"{args.fasta}: {exc}") from None
    telemetry = Telemetry() if args.telemetry_out else None
    monitor = None
    if args.monitor_port is not None or args.live_out is not None:
        from repro.telemetry import RunMonitor

        run_id = new_run_id()
        monitor = RunMonitor(
            port=args.monitor_port,
            live_out=args.live_out,
            interval=args.monitor_interval,
            run_id=run_id,
        )
        log = _log.bind(run=run_id)
    else:
        log = _log
    log.info(
        "clustering",
        ests=collection.n_ests,
        parallel=args.parallel or None,
        machine=args.machine if args.parallel else "sequential",
    )
    try:
        if args.parallel:
            result = run_parallel(
                collection,
                config,
                n_processors=args.parallel,
                machine=args.machine,
                telemetry=telemetry,
                monitor=monitor,
            )
        else:
            result = PaceClusterer(config).cluster(
                collection, telemetry=telemetry, monitor=monitor
            )
    finally:
        if monitor is not None:
            monitor.close(linger=args.monitor_linger)

    if args.telemetry_out:
        n_records = export_jsonl(result.telemetry, args.telemetry_out)
        log.info(
            "telemetry written", records=n_records, path=args.telemetry_out
        )
    if args.obs_out is not None and args.telemetry_out is not None:
        from repro.telemetry import export_chrome_trace

        timeline = args.obs_out / "timeline.perfetto.json"
        n_events = export_chrome_trace(load_jsonl(args.telemetry_out), timeline)
        log.info("perfetto timeline written", events=n_events, path=timeline)

    print(result.summary(), file=sys.stderr)
    print(profile_clusters(result.clusters), file=sys.stderr)

    lines = []
    for cid, members in enumerate(result.clusters):
        for i in members:
            lines.append(f"{records[i].name}\t{cid}")
    text = "\n".join(lines) + "\n"
    if args.output:
        args.output.write_text(text)
    else:
        sys.stdout.write(text)

    if args.clusters_fasta_dir:
        args.clusters_fasta_dir.mkdir(parents=True, exist_ok=True)
        for cid, members in enumerate(result.clusters):
            write_fasta(
                (FastaRecord(records[i].name, records[i].sequence) for i in members),
                args.clusters_fasta_dir / f"cluster_{cid:05d}.fa",
            )

    if args.representatives:
        from repro.cluster import select_representatives

        reps = select_representatives(
            collection, result.clusters, strategy="connected", merges=result.merges
        )
        write_fasta(
            (
                FastaRecord(
                    records[rep].name,
                    records[rep].sequence,
                    description=f"cluster_{cid} size={len(result.clusters[cid])}",
                )
                for cid, rep in enumerate(reps)
            ),
            args.representatives,
        )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.simulate import ErrorModel, ReadParams

    sub = args.error_rate / 2
    indel = args.error_rate / 4
    # Exon sizes scale with the read length so the default coverage gives
    # overlapping reads regardless of the regime (mRNA ≈ 2-6 read lengths).
    exon_lo = max(60, int(args.read_length * 0.7))
    exon_hi = max(exon_lo + 1, int(args.read_length * 1.6))
    params = BenchmarkParams(
        n_genes=args.genes,
        mean_ests_per_gene=args.coverage,
        read_params=ReadParams(
            mean_length=args.read_length,
            sd_length=args.read_length * 0.12,
            min_length=max(40, int(args.read_length * 0.3)),
        ),
        error_model=ErrorModel(sub, indel, indel),
        n_exons_range=(1, 3),
        exon_len_range=(exon_lo, exon_hi),
    )
    bench = make_benchmark(params, rng=args.seed)
    write_fasta(
        (
            FastaRecord(f"EST{i:05d}", bench.collection.est_string(i))
            for i in range(bench.n_ests)
        ),
        args.fasta,
    )
    _log.info(
        "benchmark written",
        ests=bench.n_ests,
        bases=bench.collection.total_chars,
        genes=len(bench.genes),
        path=args.fasta,
    )
    if args.truth:
        args.truth.write_text(
            "\n".join(
                f"EST{i:05d}\t{gene}" for i, gene in enumerate(bench.true_labels)
            )
            + "\n"
        )
        _log.info("ground truth written", path=args.truth)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    pred = _read_assignments(args.predicted)
    truth = _read_assignments(args.truth)
    names = sorted(truth)
    missing = [n for n in names if n not in pred]
    if missing:
        raise SystemExit(
            f"{len(missing)} ESTs missing from {args.predicted} (e.g. {missing[0]})"
        )
    pred_ids = {c: k for k, c in enumerate(dict.fromkeys(pred[n] for n in names))}
    true_ids = {c: k for k, c in enumerate(dict.fromkeys(truth[n] for n in names))}
    report = assess_clustering(
        [pred_ids[pred[n]] for n in names],
        [true_ids[truth[n]] for n in names],
    )
    print(report)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    records = load_jsonl(args.trace)
    problems = validate_records(records)
    if problems:
        for problem in problems:
            _log.error("schema problem", detail=problem)
        raise SystemExit(f"{args.trace}: {len(problems)} schema problem(s)")
    print(summarise(records))
    if args.timeline:
        from repro.telemetry import TraceRecorder, render_timeline
        from repro.telemetry.trace import TraceEvent

        trace = TraceRecorder(
            events=[
                TraceEvent(
                    r["event"], r["actor"], r["ts"], r.get("end", r["ts"]),
                    r.get("detail", ""),
                )
                for r in records
                if r.get("kind") == "trace"
            ]
        )
        print()
        print(render_timeline(trace, max_events=args.timeline))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.telemetry import analyze_trace
    from repro.telemetry.analyze import conservation_section

    records = load_jsonl(args.trace)
    problems = validate_records(records)
    for problem in problems:
        _log.warning("schema problem", detail=problem)
    print(analyze_trace(records))
    if args.strict_conservation:
        _, errors = conservation_section(records)
        if errors:
            _log.error(
                "work-unit conservation violated",
                problems=errors,
                trace=args.trace,
            )
            return 1
    return 0


def _cmd_perfetto(args: argparse.Namespace) -> int:
    from repro.telemetry import export_chrome_trace

    records = load_jsonl(args.trace)
    problems = validate_records(records)
    for problem in problems:
        _log.warning("schema problem", detail=problem)
    output = args.output
    if output is None:
        output = args.trace.with_suffix(".perfetto.json")
    n_events = export_chrome_trace(records, output)
    _log.info("perfetto trace written", events=n_events, path=output)
    return 0


def _cmd_postmortem(args: argparse.Namespace) -> int:
    from repro.telemetry import build_postmortem

    report, ok = build_postmortem(args.directory, tail=args.tail)
    print(report)
    return 0 if ok else 1


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.telemetry import diff_traces

    report, regressions = diff_traces(
        load_jsonl(args.baseline),
        load_jsonl(args.candidate),
        threshold=args.threshold,
    )
    print(report)
    if regressions:
        _log.error(
            "latency regressions",
            n=regressions,
            baseline=args.baseline,
            candidate=args.candidate,
        )
        return 1
    return 0


def _fetch_state(url: str) -> dict:
    import json
    from urllib.request import urlopen

    with urlopen(url.rstrip("/") + "/state", timeout=10) as resp:
        return json.loads(resp.read().decode())


def _cmd_monitor(args: argparse.Namespace) -> int:
    import time

    from repro.telemetry import render_progress_table, replay_live_records

    if args.target.startswith(("http://", "https://")):
        while True:
            state = _fetch_state(args.target)
            print(render_progress_table(state))
            if args.watch <= 0 or state.get("finished"):
                return 0
            time.sleep(args.watch)
            print()
    records = load_jsonl(Path(args.target))
    problems = validate_records(records)
    for problem in problems:
        _log.warning("schema problem", detail=problem)
    state = replay_live_records(records)
    print(render_progress_table(state.as_dict()))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "evaluate":
        return _cmd_evaluate(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "perfetto":
        return _cmd_perfetto(args)
    if args.command == "postmortem":
        return _cmd_postmortem(args)
    if args.command == "diff":
        return _cmd_diff(args)
    if args.command == "monitor":
        return _cmd_monitor(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-report; exit quietly
        # (devnull keeps the interpreter from re-raising at shutdown).
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(0)
