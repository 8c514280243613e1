"""Batched pairwise alignment — the vectorised hot path.

The paper's Table 3 shows pairwise alignment dominating the clustering
cost, and §3.3 already moves pairs around in batches (WORKBUF grants of
``batchsize`` pairs).  :class:`BatchPairAligner` exploits that batching on
the compute side: instead of aligning one pair at a time with fresh numpy
allocations per extension, it

- slices both extensions of every pair out of the collection's shared
  ``int8`` arena (:meth:`~repro.sequence.collection.EstCollection.arena`) —
  no per-pair re-encoding;
- sorts the extensions by shape so similarly-sized ones land in the same
  group (padding waste stays low);
- runs each group through :func:`~repro.align.banded.extend_overlap_group`,
  one 2-D numpy sweep per DP row over only the ``2·band + 1`` in-band
  cells, instead of a Python-level loop per pair over full-width rows.

The group kernel performs bitwise-identical float arithmetic to the scalar
kernel, so a :class:`BatchPairAligner` returns exactly the
:class:`~repro.align.scoring.AlignmentResult` the per-pair
:class:`~repro.align.extend.PairAligner` would — the per-pair engine stays
in the tree as the reference oracle (tests/test_batch_align.py asserts the
equivalence property).

:func:`make_aligner` is the one construction point the drivers share: it
reads :attr:`~repro.core.config.ClusteringConfig.align_batch` and returns
the batched engine (group size = that value) or the per-pair reference.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.align.banded import extend_overlap_group
from repro.align.extend import BAND_WIDTH_BUCKETS, BandPolicy, PairAligner
from repro.align.overlaps import classify_pattern
from repro.align.scoring import AcceptanceCriteria, AlignmentResult, ScoringParams
from repro.pairs.pair import Pair
from repro.sequence.collection import EstCollection
from repro.telemetry import Telemetry
from repro.util.validation import check_positive

if TYPE_CHECKING:
    from repro.core.config import ClusteringConfig

__all__ = ["BatchPairAligner", "make_aligner", "ALIGN_BATCH_SIZE_BUCKETS"]

#: Histogram bounds for alignment batch sizes: powers of two around the
#: default ``batchsize = 60`` work grant, with partial final batches small.
ALIGN_BATCH_SIZE_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class BatchPairAligner(PairAligner):
    """Vectorised batch aligner, result-identical to :class:`PairAligner`.

    ``group_size`` bounds how many extensions share one 2-D DP sweep; the
    sweep runs as many rows as the member that needs the most and as wide
    as the widest band, so groups of shape-sorted extensions keep the padding
    overhead small while amortising numpy dispatch over the whole group.
    """

    def __init__(
        self,
        collection: EstCollection,
        params: ScoringParams | None = None,
        criteria: AcceptanceCriteria | None = None,
        band_policy: BandPolicy | None = None,
        *,
        use_seed_extension: bool = True,
        engine: str = "banded",
        telemetry: Telemetry | None = None,
        group_size: int = 64,
    ) -> None:
        super().__init__(
            collection,
            params,
            criteria,
            band_policy,
            use_seed_extension=use_seed_extension,
            engine=engine,
            telemetry=telemetry,
        )
        check_positive("group_size", group_size)
        self.group_size = group_size

    # ------------------------------------------------------------------ #

    def align_and_decide_batch(
        self, pairs: Sequence[Pair]
    ) -> list[tuple[AlignmentResult, bool]]:
        """Align a whole batch of promising pairs in grouped 2-D DP sweeps."""
        pairs = list(pairs)
        if not pairs:
            return []
        if self.telemetry is not None:
            self.telemetry.observe(
                "align.batch_size", len(pairs), ALIGN_BATCH_SIZE_BUCKETS
            )
        if not self.use_seed_extension or self.engine != "banded":
            # Only the banded engine has a group kernel; the full-DP and
            # kdiff configurations fall back to the per-pair reference.
            return [self.align_and_decide(pair) for pair in pairs]

        arena, offsets = self.collection.arena()
        params = self.params
        n = len(pairs)
        # Two extension slots per pair: 2k = right of the seed, 2k+1 = left
        # (on reversed prefixes), exactly as PairAligner._seed_extend.
        ext: list[tuple[float, int, int, int] | None] = [None] * (2 * n)
        bands_r = [0] * n
        bands_l = [0] * n
        ext_lens: list[tuple[int, int]] = [(0, 0)] * (2 * n)
        str_lens: list[tuple[int, int]] = [(0, 0)] * n
        jobs: list[tuple[int, int, int, np.ndarray, np.ndarray, int]] = []
        for k, pair in enumerate(pairs):
            a0 = int(offsets[pair.string_a])
            a1 = int(offsets[pair.string_a + 1])
            b0 = int(offsets[pair.string_b])
            b1 = int(offsets[pair.string_b + 1])
            seed = pair.length
            str_lens[k] = (a1 - a0, b1 - b0)
            rx = arena[a0 + pair.offset_a + seed : a1]
            ry = arena[b0 + pair.offset_b + seed : b1]
            band_r = self.band_policy.band_for(min(len(rx), len(ry)))
            lx = arena[a0 : a0 + pair.offset_a][::-1]
            ly = arena[b0 : b0 + pair.offset_b][::-1]
            band_l = self.band_policy.band_for(min(len(lx), len(ly)))
            bands_r[k] = band_r
            bands_l[k] = band_l
            if self.telemetry is not None:
                self.telemetry.observe("align.band_width", band_r, BAND_WIDTH_BUCKETS)
                self.telemetry.observe("align.band_width", band_l, BAND_WIDTH_BUCKETS)
            for slot, ex, ey, band in (
                (2 * k, rx, ry, band_r),
                (2 * k + 1, lx, ly, band_l),
            ):
                ext_lens[slot] = (len(ex), len(ey))
                if len(ex) == 0 or len(ey) == 0:
                    # The boundary is already an end: nothing to extend into.
                    ext[slot] = (0.0, 0, 0, 0)
                else:
                    jobs.append((len(ex), len(ey), slot, ex, ey, band))

        # Sort by the rows the kernel sweeps, min(lx, ly + band), then by
        # band (descending), so each group wastes few rows and columns on
        # its smaller members.  The slot makes keys unique before the
        # (uncomparable) array elements.
        jobs.sort(key=lambda job: (-min(job[0], job[1] + job[5]), -job[5], job[2]))
        for start in range(0, len(jobs), self.group_size):
            chunk = jobs[start : start + self.group_size]
            scores, cxs, cys, cells = extend_overlap_group(
                [job[3] for job in chunk],
                [job[4] for job in chunk],
                np.fromiter((job[5] for job in chunk), np.int64, count=len(chunk)),
                params,
            )
            for t, job in enumerate(chunk):
                ext[job[2]] = (
                    float(scores[t]),
                    int(cxs[t]),
                    int(cys[t]),
                    int(cells[t]),
                )

        out: list[tuple[AlignmentResult, bool]] = []
        n_accepted = 0
        for k, pair in enumerate(pairs):
            right = ext[2 * k]
            left = ext[2 * k + 1]
            seed = pair.length
            la, lb = str_lens[k]
            score = params.match * seed + left[0] + right[0]
            a_start = pair.offset_a - left[1]
            a_end = pair.offset_a + seed + right[1]
            b_start = pair.offset_b - left[2]
            b_end = pair.offset_b + seed + right[2]
            dp_cells = left[3] + right[3] + seed
            result = AlignmentResult(
                score=score,
                a_start=a_start,
                a_end=a_end,
                b_start=b_start,
                b_end=b_end,
                pattern=classify_pattern(a_start, a_end, la, b_start, b_end, lb),
                dp_cells=dp_cells,
            )
            self.alignments_performed += 1
            self.dp_cells_total += dp_cells
            self.model_cells_total += (
                min(ext_lens[2 * k]) * (2 * bands_r[k] + 1)
                + min(ext_lens[2 * k + 1]) * (2 * bands_l[k] + 1)
                + seed
            )
            accepted = self.accept(result)
            if accepted:
                n_accepted += 1
            out.append((result, accepted))
        if self.telemetry is not None:
            if n_accepted:
                self.telemetry.count("align.accepted", n_accepted)
            if n_accepted < n:
                self.telemetry.count("align.rejected", n - n_accepted)
        return out


def make_aligner(
    collection: EstCollection,
    config: "ClusteringConfig",
    *,
    telemetry: Telemetry | None = None,
) -> PairAligner:
    """The pair aligner a :class:`ClusteringConfig` asks for.

    ``config.align_batch > 0`` selects the batched engine with that DP
    group size; ``0`` keeps the per-pair reference engine.  All clustering
    drivers (sequential pipeline, simulated machine, multiprocessing
    slaves) construct their aligner here so the two engines stay
    interchangeable.
    """
    kwargs = dict(
        params=config.scoring,
        criteria=config.acceptance,
        band_policy=config.band_policy,
        use_seed_extension=config.use_seed_extension,
        engine=config.align_engine,
        telemetry=telemetry,
    )
    if config.align_batch:
        return BatchPairAligner(collection, group_size=config.align_batch, **kwargs)
    return PairAligner(collection, **kwargs)
