"""End-to-end benchmark of record: ``pace-est cluster`` at 550 bp reads.

One run generates a synthetic EST world from ``--seed`` with
``repro.simulate.make_benchmark`` (550 bp reads, 2% error), writes it as
FASTA, and then, for ``--seconds`` seconds, starts ``pace-est cluster`` on
it as a fresh process with the CLI's defaults plus the workload's flags.
Each process is timed from outside: wall time around spawn and reap, CPU
time and peak resident set from ``os.wait4`` (which folds in every child
the CLI reaped, so multiprocessing slaves count).  Every output TSV is
checked: it names each input EST exactly once, and its partition equals
the in-process sequential ``PaceClusterer`` partition of the same input
whenever that oracle is run (always on the multiprocessing workload and in
traced runs).  Failed invocations (timeout, non-zero exit, failed check)
count in ``failed`` and never feed the medians.

With ``--trace 1`` the run also starts the in-process probes of
``probe.py`` on the same input and reports the layer split instead of the
end-to-end metrics: the layer seconds plus ``core.startup_s`` plus
``core.other_s`` add up to the traced process's wall time by construction,
and the run fails its check when ``core.other_s`` exceeds
``OTHER_SHARE_MAX`` of it.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload pileup550 --seed 1 --seconds 56 --trace 0
    python3 perfbench/run.py --describe      # every metric with its unit
    python3 perfbench/run.py --record        # rewrite perfbench/workloads.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Work files go to
``.perfbench_work/`` in the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Every run ends within this many seconds of its start, whatever happens.
HARD_LIMIT_S = 170.0
#: Set-up (world generation + FASTA) is repeated this often; the median counts.
SETUP_REPEATS = 15
#: Largest share of the traced wall time the layer split may leave unexplained.
OTHER_SHARE_MAX = 0.10
#: Processors and engine of the parallel layer probe when a workload runs
#: sequentially: one master plus two slaves.
PARALLEL_PROBE_ARGS = ["--parallel", "3", "--machine", "multiprocessing"]


@dataclass(frozen=True)
class Workload:
    why: str
    #: ``BenchmarkParams`` fields that differ from the simulator's defaults
    #: (550 bp reads, 2% error, 2-5 exons of 200-500 bp, Zipf skew 1.2).
    params: dict
    #: ``pace-est cluster`` flags beyond the input and output paths.
    cli_args: list[str] = field(default_factory=list)

    @property
    def parallel(self) -> bool:
        return "--parallel" in self.cli_args


WORKLOADS: dict[str, Workload] = {
    "pileup550": Workload(
        why="two genes each covered 90 times: quadratic pair stream (~48%), "
        ">99% of pairs skipped as co-clustered; moves with pair and selection changes",
        params={
            "n_genes": 2,
            "mean_ests_per_gene": 90.0,
            "expression_skew": 0.0,
            "n_exons_range": (2, 2),
            "exon_len_range": (300, 500),
        },
    ),
    "zipf550-mp": Workload(
        why="paper-like Zipf-skewed expression on the multiprocessing engine "
        "(master + 2 slaves): the only path through spawn, shm, pipes and WORKBUF dispatch",
        params={"n_genes": 10, "mean_ests_per_gene": 10.0, "expression_skew": 1.2},
        cli_args=["--parallel", "3", "--machine", "multiprocessing"],
    ),
}

#: name -> (unit, meaning).  End-to-end metrics are reported with
#: ``--trace 0``, per-layer metrics with ``--trace 1``.
END_TO_END: dict[str, tuple[str, str]] = {
    "cluster_s": ("s", "median wall time of one pace-est cluster process, spawn to reap"),
    "cpu_s": ("s", "median user+system CPU time of the process tree (wait4)"),
    "peak_rss_mb": ("MB", "median of the largest resident set of any process in the run (wait4 ru_maxrss)"),
    "setup_s": ("s", f"median of {SETUP_REPEATS} set-ups: generate the world and write the FASTA"),
    "cc_pct": ("%", "Table 2 correlation coefficient of the output against simulator ground truth"),
}
PER_LAYER: dict[str, tuple[str, str]] = {
    "sequence.read_s": ("s", "read_fasta + EstCollection.from_records"),
    "sequence.kbp": ("kbp", "input bases (forward strands)"),
    "sequence.ests": ("count", "input ESTs"),
    "suffix.index_s": ("s", "SuffixArrayGst.build"),
    "suffix.index_mb": ("MB", "bytes held by the index's arrays (computed from their sizes)"),
    "suffix.index_peak_mb": ("MB", "tracemalloc peak during SuffixArrayGst.build"),
    "suffix.forest_s": ("s", "pair generator construction (building the LCP forests)"),
    "suffix.forest_nodes": ("count", "LCP forest nodes"),
    "pairs.gen_s": ("s", "time inside pulls from generator.pairs(), timed per batchsize chunk"),
    "pairs.generated": ("count", "promising pairs generated"),
    "pairs.nodes": ("count", "forest nodes processed by the generator"),
    "pairs.per_s": ("1/s", "pairs generated per second of pairs.gen_s"),
    "cluster.select_s": ("s", "same_cluster / same_cluster_batch (pair selection)"),
    "cluster.skip_frac": ("ratio", "pairs skipped as co-clustered / pairs generated"),
    "cluster.union_s": ("s", "ClusterManager.merge (union-find)"),
    "cluster.merges": ("count", "cluster merges"),
    "align.kernel_s": ("s", "align_and_decide / align_and_decide_batch"),
    "align.pairs": ("count", "pairs aligned"),
    "align.accept_frac": ("ratio", "accepted / aligned (useful work / attempts)"),
    "align.dp_cells": ("count", "DP cells computed by the alignment kernel"),
    "align.cells_per_s": ("1/s", "align.dp_cells / align.kernel_s"),
    "core.startup_s": ("s", "traced process: spawn until imports are done and the run begins"),
    "core.other_s": ("s", "traced wall - core.startup_s - sum of the layer seconds above"),
    "trace.wall_s": ("s", "wall time of the traced sequential process (what the layers add up to)"),
    "trace.overhead_frac": ("ratio", "traced wall / untraced cluster_s median - 1 (parallel traced wall on the multiprocessing workload)"),
    "parallel.startup_s": ("s", "run_parallel start to the first slave compute event"),
    "parallel.master_busy_frac": ("ratio", "master compute time / run_parallel wall"),
    "parallel.slave_busy_frac": ("ratio", "mean slave compute time / run_parallel wall"),
    "parallel.slave_imbalance": ("ratio", "max / mean slave compute time"),
    "parallel.messages": ("count", "protocol messages exchanged (messages.exchanged)"),
    "parallel.rtt_p50_ms": ("ms", "median slave request round trip (latency.rtt.seconds)"),
    "parallel.rtt_p99_ms": ("ms", "p99 slave request round trip"),
    "parallel.rtt_samples": ("count", "round trips observed"),
    "parallel.queue_master_p99_ms": ("ms", "p99 WORKBUF queueing delay (latency.queue_master.seconds)"),
    "parallel.queue_master_samples": ("count", "WORKBUF queueing delays observed"),
    "parallel.extra_aligned": ("count", "pairs aligned by the multiprocessing run - by the sequential run"),
    "parallel.speedup_vs_seq": ("ratio", "sequential process wall / multiprocessing process wall, same input"),
    "ov_pct": ("%", "Table 2 over-prediction of the untraced outputs"),
    "un_pct": ("%", "Table 2 under-prediction of the untraced outputs"),
    "fail_frac": ("ratio", "failed / attempted untraced invocations"),
    "e2e.samples": ("count", "untraced invocations that fed the medians"),
}


# ---------------------------------------------------------------------- #
# world set-up


def world_params(workload: Workload):
    from repro.simulate import BenchmarkParams

    return BenchmarkParams(**workload.params)


def make_world(workload: Workload, seed: int, fasta: Path) -> list[int]:
    """Generate the workload's world for ``seed``, write it to ``fasta``
    and return the true gene label of each EST (in file order)."""
    from repro.sequence import FastaRecord, write_fasta
    from repro.simulate import make_benchmark

    bench = make_benchmark(world_params(workload), rng=seed)
    write_fasta(
        (
            FastaRecord(f"EST{i:05d}", bench.collection.est_string(i))
            for i in range(bench.n_ests)
        ),
        fasta,
    )
    return bench.true_labels


def bench_env() -> dict:
    """The environment block recorded beside the workloads (the same
    fields as ``benchmarks/_common.bench_env``)."""
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


# ---------------------------------------------------------------------- #
# timed child processes


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    ok: bool
    reason: str = ""
    stdout: str = ""
    spawned: float = 0.0  # time.monotonic() at spawn


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def run_timed(argv: list[str], log: Path, timeout: float) -> Proc:
    """Run ``argv`` in its own session; time it, reap it with ``wait4``,
    and kill its whole process group if it outlives ``timeout``."""
    timeout = max(1.0, timeout)
    with open(log, "wb") as err:
        spawned = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=err,
            env=child_env(),
            cwd=ROOT,
            start_new_session=True,
        )
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            _kill_group(proc.pid)

        timer = threading.Timer(timeout, kill)
        timer.start()
        # The probes print one short JSON line, well inside the pipe buffer,
        # so the child never blocks on stdout before it is reaped.
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out = proc.stdout.read().decode(errors="replace")
        proc.stdout.close()
    _kill_group(proc.pid)  # strays left by a crashed child, if any
    res = Proc(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        ok=proc.returncode == 0 and not timed_out.is_set(),
        stdout=out,
        spawned=spawned,
    )
    if timed_out.is_set():
        res.reason = f"timeout after {timeout:.0f}s"
    elif proc.returncode != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-3:]
        res.reason = f"exit {proc.returncode}: " + " | ".join(tail)
    return res


def _kill_group(pgid: int) -> None:
    """SIGKILL a process group and wait until it is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


# ---------------------------------------------------------------------- #
# output checks


def read_partition(tsv: Path, names: list[str]) -> frozenset:
    """The partition a ``name<TAB>cluster`` TSV describes; raises
    ``ValueError`` unless it names every input EST exactly once."""
    known = set(names)
    seen: set[str] = set()
    groups: dict[str, set[str]] = {}
    for lineno, line in enumerate(tsv.read_text().splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected name<TAB>cluster")
        name, cid = parts
        if name not in known:
            raise ValueError(f"line {lineno}: unknown EST {name!r}")
        if name in seen:
            raise ValueError(f"line {lineno}: EST {name!r} listed twice")
        seen.add(name)
        groups.setdefault(cid, set()).add(name)
    if len(seen) != len(known):
        raise ValueError(f"{len(known) - len(seen)} input ESTs missing")
    return frozenset(frozenset(g) for g in groups.values())


def quality(partition: frozenset, names: list[str], truth: list[int]):
    from repro.metrics import assess_clustering

    index = {name: i for i, name in enumerate(names)}
    labels = [0] * len(names)
    for cid, group in enumerate(sorted(partition, key=min)):
        for name in group:
            labels[index[name]] = cid
    return assess_clustering(labels, truth)


# ---------------------------------------------------------------------- #
# one run


class Run:
    def __init__(self, name: str, seed: int, seconds: float) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.dir = WORK / f"{name}-{seed}-{os.getpid()}"
        self.fasta = self.dir / "input.fa"
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.samples: list[Proc] = []
        self.reference: frozenset | None = None  # first partition seen
        self.oracle: frozenset | None = None
        self.oracle_aligned = 0
        self.durations: list[float] = []  # every invocation, failed ones too
        self.names: list[str] = []
        self.truth: list[int] = []
        self.setup_s = 0.0

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def setup(self) -> None:
        """Generate the world ``SETUP_REPEATS`` times (identical bytes
        each time, or the run fails) and keep the median time."""
        self.dir.mkdir(parents=True, exist_ok=True)
        times, texts = [], set()
        for k in range(SETUP_REPEATS):
            path = self.fasta if k == 0 else self.dir / "setup-check.fa"
            t0 = time.perf_counter()
            truth = make_world(self.workload, self.seed, path)
            times.append(time.perf_counter() - t0)
            texts.add(path.read_bytes())
            if k == 0:
                self.truth = truth
        if len(texts) != 1:
            self.problems.append("world generation is not deterministic")
        self.setup_s = statistics.median(times)
        from repro.sequence import read_fasta

        self.names = [r.name for r in read_fasta(self.fasta)]

    def check(self, tsv: Path, label: str) -> frozenset | None:
        try:
            part = read_partition(tsv, self.names)
        except (OSError, ValueError) as exc:
            self.problems.append(f"{label}: {exc}")
            return None
        if self.oracle is not None and part != self.oracle:
            self.problems.append(f"{label}: partition differs from the sequential oracle")
            return None
        if self.reference is None:
            self.reference = part
        elif part != self.reference:
            self.problems.append(f"{label}: partition differs from the run's first output")
            return None
        return part

    def probe(self, mode: str, cli_args: list[str]) -> tuple[Proc, dict | None]:
        """Start one ``probe.py`` mode as a timed process; check its TSV."""
        tsv = self.dir / f"{mode}.tsv"
        argv = [sys.executable, str(HERE / "probe.py"), mode, str(self.fasta)]
        if mode != "index-peak":
            argv += [str(tsv), *cli_args]
        proc = run_timed(argv, self.dir / f"{mode}.log", self.remaining() - 5)
        if not proc.ok:
            self.problems.append(f"probe {mode}: {proc.reason}")
            return proc, None
        try:
            data = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            self.problems.append(f"probe {mode}: no JSON result")
            return proc, None
        if mode != "index-peak":
            data["partition"] = self.check(tsv, f"probe {mode}")
            if data["partition"] is None:
                return proc, None
        return proc, data

    def run_oracle(self) -> Proc | None:
        """The sequential ``PaceClusterer`` on the same input: every later
        output of this run must reproduce its partition."""
        proc, data = self.probe("oracle", self.workload.cli_args)
        if data is None:
            return None
        self.oracle = data["partition"]
        self.oracle_aligned = data["aligned"]
        return proc

    def invoke_cli(self) -> None:
        """One gated ``pace-est cluster`` invocation."""
        self.attempted += 1
        tsv = self.dir / f"cluster-{self.attempted}.tsv"
        argv = [
            sys.executable, "-m", "repro.cli", "cluster", str(self.fasta),
            "-o", str(tsv), *self.workload.cli_args,
        ]
        proc = run_timed(argv, self.dir / "cluster.log", self.remaining() - 5)
        self.durations.append(proc.wall_s)
        label = f"cluster run {self.attempted}"
        if not proc.ok:
            self.problems.append(f"{label}: {proc.reason}")
        elif self.check(tsv, label) is not None:
            self.samples.append(proc)
            tsv.unlink()
            return
        self.failed += 1

    def timed_loop(self, window: float, at_least: int = 1) -> None:
        """Invoke the CLI until ``window`` seconds are spent, never starting
        one the window cannot hold (by the median so far) once ``at_least``
        have been made."""
        t_end = time.perf_counter() + window
        while True:
            expected = statistics.median(self.durations) if self.durations else 0.0
            if self.attempted >= at_least and expected > t_end - time.perf_counter():
                break
            if self.remaining() < max(expected, 1.0) + 10:
                break
            self.invoke_cli()

    def median(self, attr: str) -> float:
        return statistics.median(getattr(p, attr) for p in self.samples)

    # ------------------------------------------------------------------ #

    def end_to_end(self) -> dict:
        if self.workload.parallel:
            self.run_oracle()
        self.timed_loop(self.seconds)
        if not self.samples:
            return {}
        q = quality(self.reference, self.names, self.truth)
        return {
            "cluster_s": self.median("wall_s"),
            "cpu_s": self.median("cpu_s"),
            "peak_rss_mb": self.median("peak_rss_mb"),
            "setup_s": self.setup_s,
            "cc_pct": q.cc,
        }

    def traced(self) -> dict:
        """The probes first, then untraced invocations for the rest of the
        window (at least two) as the baseline of ``trace.overhead_frac``."""
        t0 = time.perf_counter()
        oracle = self.run_oracle()
        layer_proc, layer = self.probe("layers", self.workload.cli_args)
        par_args = self.workload.cli_args if self.workload.parallel else PARALLEL_PROBE_ARGS
        par_proc, par = self.probe("parallel", par_args)
        _peak_proc, peak = self.probe("index-peak", [])
        self.timed_loop(self.seconds - (time.perf_counter() - t0), at_least=2)
        if not self.samples or None in (oracle, layer, par, peak):
            return {}
        cluster_s = self.median("wall_s")
        q = quality(self.reference, self.names, self.truth)

        wall = layer_proc.wall_s
        startup = layer["ready"] - layer_proc.spawned
        other = wall - startup - sum(layer["layers"].values())
        if other > OTHER_SHARE_MAX * wall:
            self.problems.append(
                f"layer split leaves core.other_s = {other:.3f}s of {wall:.3f}s "
                f"traced wall unexplained (limit {OTHER_SHARE_MAX:.0%})"
            )
        traced_wall = par_proc.wall_s if self.workload.parallel else wall
        out = dict(layer["layers"])
        out.update(layer["counts"])
        out.update(peak)
        out.update(par["counts"])
        out.update(
            {
                "sequence.ests": len(self.names),
                "core.startup_s": startup,
                "core.other_s": other,
                "trace.wall_s": wall,
                "trace.overhead_frac": traced_wall / cluster_s - 1.0,
                "parallel.extra_aligned": par["aligned"] - self.oracle_aligned,
                "parallel.speedup_vs_seq": oracle.wall_s / par_proc.wall_s,
                "ov_pct": q.ov,
                "un_pct": q.un,
                "fail_frac": self.failed / self.attempted,
                "e2e.samples": len(self.samples),
            }
        )
        return out


# ---------------------------------------------------------------------- #
# reporting


def describe() -> int:
    """Print every metric with its unit; fail if BENCHMARK.json disagrees."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        print(f"{key}:")
        for name, (unit, meaning) in table.items():
            print(f"  {name:<32s} {unit:<6s} {meaning}")
        if listed != {n: u for n, (u, _m) in table.items()}:
            print(f"  BENCHMARK.json {key} does not match run.py", file=sys.stderr)
            ok = False
    print("workloads:")
    for name, w in WORKLOADS.items():
        print(f"  {name:<12s} {w.why}")
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        print("  BENCHMARK.json workloads do not match run.py", file=sys.stderr)
        ok = False
    return 0 if ok else 1


def record(seeds: range = range(1, 11)) -> int:
    """Rewrite ``workloads.json``: generator parameters, CLI flags, EST
    count and input kbp per seed, and the environment."""
    from dataclasses import asdict

    from repro.simulate import make_benchmark

    out = {"env": bench_env(), "seeds": list(seeds), "workloads": {}}
    for name, w in WORKLOADS.items():
        ests, kbp = [], []
        for seed in seeds:
            bench = make_benchmark(world_params(w), rng=seed)
            ests.append(bench.n_ests)
            kbp.append(round(bench.collection.total_chars / 1000.0, 3))
        out["workloads"][name] = {
            "why": w.why,
            "generator": asdict(world_params(w)),
            "cli_args": w.cli_args,
            "ests": ests,
            "kbp": kbp,
        }
    path = HERE / "workloads.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def report(run: Run, metrics: dict, table: dict) -> None:
    print(f"workload {run.name} seed {run.seed}: {len(run.names)} ESTs, "
          f"cli args {run.workload.cli_args or '(defaults)'}")
    print(f"invocations: {run.attempted} attempted, {run.failed} failed, "
          f"{len(run.samples)} in the medians")
    if run.samples:
        print("  wall s: " + " ".join(f"{p.wall_s:.3f}" for p in run.samples))
    for name, value in metrics.items():
        print(f"  {name:<32s} {value:>14.6g} {table[name][0]}")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--describe", action="store_true",
                    help="print every metric with its unit and exit")
    ap.add_argument("--record", action="store_true",
                    help="rewrite perfbench/workloads.json and exit")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.describe:
        return describe()
    if args.record:
        return record()
    if args.workload is None:
        ap.error("--workload is required")

    run = Run(args.workload, args.seed, args.seconds)
    try:
        run.setup()
        metrics = run.traced() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    table = PER_LAYER if args.trace else END_TO_END
    complete = set(metrics) == set(table)
    if not complete:
        run.problems.append("no complete set of metrics was measured")
    report(run, metrics, table)
    if not complete:
        return 1
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": table[name][0]} for name in table
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
