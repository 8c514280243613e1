"""The single configuration surface of the clustering system.

Paper-derived defaults: window ``w = 8`` ("a window size of eight is used
in partitioning the ESTs into buckets", §4.2), ``batchsize = 60`` ("batch
size is chosen to be sixty pairs"; Fig. 8 locates the optimum at 40–60),
and a ψ threshold sized to the read regime (long exact matches are
abundant between true overlaps at 1–2% error).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.align.extend import BandPolicy
from repro.align.scoring import AcceptanceCriteria, ScoringParams
from repro.util.validation import check_positive

__all__ = ["ClusteringConfig"]


@dataclass(frozen=True)
class ClusteringConfig:
    """Parameters of a clustering run (sequential or parallel)."""

    #: Bucket window w: suffixes are partitioned on their first w characters.
    w: int = 8
    #: Promising-pair threshold ψ: minimum maximal-common-substring length.
    psi: int = 25
    #: Pairs per master→slave work message (Fig. 8 sweeps this).
    batchsize: int = 60
    #: GST backend: "suffix_array" (production) or "tree" (paper-faithful).
    backend: str = "suffix_array"
    #: Master-side pair selection: skip pairs already co-clustered.
    skip_clustered: bool = True
    #: Align by banded seed extension (Fig. 5a); False = whole-string DP.
    use_seed_extension: bool = True
    #: Seed-extension scorer: "banded" (optimal affine score within the
    #: band) or "kdiff" (greedy minimum-edit, O(k^2) work — the fast path;
    #: quality-equivalent at EST error rates, see benchmarks/bench_engines).
    align_engine: str = "banded"
    #: DP group size for the batched alignment engine
    #: (:class:`repro.align.batch.BatchPairAligner`, the default): pairs
    #: are aligned a batch at a time, their extensions in vectorised
    #: band-coordinate groups of up to this many.  ``0`` selects the
    #: per-pair oracle loop (:class:`repro.align.extend.PairAligner` over
    #: the full-width scalar kernel) — same partition, several times slower.
    align_batch: int = 64
    #: Promising-pair generation engine over the suffix-array backend:
    #: "vector" (:class:`repro.pairs.batch.VectorPairGenerator`, the
    #: default: depth-batched numpy sweeps over flat lset arenas) or
    #: "scalar" (:class:`repro.pairs.sa_generator.SaPairGenerator`, the
    #: node-at-a-time oracle the vector stream is tested against — same
    #: pairs, same order, several times slower).  The tree backend has no
    #: LCP forests, so it needs an explicit ``pair_engine="scalar"``.
    pair_engine: str = "vector"
    scoring: ScoringParams = field(default_factory=ScoringParams)
    acceptance: AcceptanceCriteria = field(default_factory=AcceptanceCriteria)
    band_policy: BandPolicy = field(default_factory=BandPolicy)
    #: Capacity of the master's WORKBUF, in pairs (§3.3).
    workbuf_capacity: int = 4096
    #: Capacity of each slave's PAIRBUF, in pairs (§3.3).
    pairbuf_capacity: int = 1024
    #: Live run monitor HTTP port (``/metrics``, ``/healthz``, ``/state``).
    #: ``None`` disables monitoring entirely (the hot paths stay untouched);
    #: ``0`` binds an OS-assigned port.
    monitor_port: int | None = None
    #: Live monitor sample interval in seconds (per-slave resource/progress
    #: samples and master status lines).  Ignored when monitoring is off.
    monitor_interval: float = 1.0
    #: Publish the built index (sequence arena, suffix/LCP arrays, per-slave
    #: flat forests) in named shared-memory segments and have slave
    #: processes attach by descriptor instead of receiving copies — makes
    #: per-slave spawn payload O(1) in dataset size.  Only the real
    #: multiprocessing backend consults this; ``False`` restores the legacy
    #: whole-object handoff.
    shared_arenas: bool = True
    #: Master work-allocation policy (:mod:`repro.parallel.dispatch`):
    #: "paper" (the §3.3 formula, reproduction-faithful default), "jbsq"
    #: / "jbsq:<k>" (join-bounded-shortest-queue over in-flight batches),
    #: or "pace" (straggler-aware grant shrinking from rtt quantiles).
    dispatch_policy: str = "paper"
    #: Number of master shards (:mod:`repro.parallel.shards`).  ``1`` is
    #: the paper's single master; ``N > 1`` partitions bucket ownership,
    #: WORKBUF, dispatch and the union–find across N masters, each driving
    #: a disjoint subset of slaves, with periodic cross-shard union
    #: merging.  Must not exceed the slave count of the run.
    master_shards: int = 1
    #: Cross-shard merge cadence in seconds (virtual seconds under the
    #: simulator, wall seconds under the multiprocessing backend).  A pure
    #: latency/throughput knob: any cadence yields the same partition.
    shard_sync_interval: float = 0.25
    #: Causal work-unit tracing (:mod:`repro.telemetry.causal`): mint a
    #: work-unit id per generated pair batch and record its lifecycle
    #: (generated → dispatched → aligned → absorbed/requeued/pruned) into
    #: the telemetry event stream.  Requires telemetry to be enabled on
    #: the run; off by default so reference traces stay byte-identical.
    causal_tracing: bool = False
    #: Directory for crash flight-recorder dumps
    #: (:mod:`repro.telemetry.flight`): each process keeps a bounded ring
    #: of recent protocol events and dumps it there on crash,
    #: fault-tolerance transitions, or SIGTERM.  ``None`` disables the
    #: recorders entirely.
    flight_dir: str | None = None

    def __post_init__(self) -> None:
        check_positive("w", self.w)
        check_positive("psi", self.psi)
        check_positive("batchsize", self.batchsize)
        check_positive("align_batch", self.align_batch, strict=False)
        check_positive("workbuf_capacity", self.workbuf_capacity)
        check_positive("pairbuf_capacity", self.pairbuf_capacity)
        if self.monitor_port is not None:
            check_positive("monitor_port", self.monitor_port, strict=False)
        check_positive("monitor_interval", self.monitor_interval)
        check_positive("master_shards", self.master_shards)
        check_positive("shard_sync_interval", self.shard_sync_interval)
        if self.psi < self.w:
            raise ValueError(
                f"psi ({self.psi}) must be >= w ({self.w}): buckets split the "
                f"GST at depth w, so shallower nodes are unavailable"
            )
        if self.backend not in ("suffix_array", "tree"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.align_engine not in ("banded", "kdiff"):
            raise ValueError(f"unknown align_engine {self.align_engine!r}")
        if self.pair_engine not in ("scalar", "vector"):
            raise ValueError(f"unknown pair_engine {self.pair_engine!r}")
        if self.pair_engine == "vector" and self.backend != "suffix_array":
            raise ValueError(
                "pair_engine 'vector' requires the suffix_array backend: the "
                "vectorised generator runs on LCP-interval forests, which the "
                "tree backend does not build"
            )
        # The policy-name grammar is duplicated from repro.parallel.dispatch
        # (importing it here would be circular: repro.parallel pulls in the
        # engines, which import this module).  parse_policy re-validates at
        # instantiation time, so the two can never silently diverge.
        name, _, arg = self.dispatch_policy.partition(":")
        if name not in ("paper", "jbsq", "pace"):
            raise ValueError(
                f"unknown dispatch_policy {self.dispatch_policy!r} "
                f"(expected 'paper', 'jbsq', 'jbsq:<k>' or 'pace')"
            )
        if arg:
            if name != "jbsq" or not arg.isdigit() or int(arg) < 1:
                raise ValueError(
                    f"bad dispatch_policy argument in {self.dispatch_policy!r}: "
                    f"only 'jbsq:<k>' with integer k >= 1 takes one"
                )

    @classmethod
    def small_reads(cls, **overrides) -> "ClusteringConfig":
        """Defaults scaled to the short-read test regime
        (:meth:`repro.simulate.ReadParams.short_reads`)."""
        base = dict(
            w=6,
            psi=15,
            acceptance=AcceptanceCriteria(min_score_ratio=0.8, min_overlap=30),
        )
        base.update(overrides)
        return cls(**base)
