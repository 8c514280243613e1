"""Pairwise alignment substrate: affine-gap scoring, banded seed extension
(Fig. 5a), full-DP reference engines, and overlap-pattern classification
(Fig. 5b)."""

from repro.align.banded import (
    ExtensionResult,
    extend_overlap,
    extend_overlap_group,
)
from repro.align.batch import BatchPairAligner, make_aligner
from repro.align.extend import BandPolicy, PairAligner
from repro.align.full_dp import extend_overlap_ref, global_align_score, overlap_align
from repro.align.kdiff import kdiff_extend, score_ops
from repro.align.overlaps import classify_pattern
from repro.align.scoring import (
    AcceptanceCriteria,
    AlignmentResult,
    OverlapPattern,
    ScoringParams,
)

__all__ = [
    "ExtensionResult",
    "extend_overlap",
    "extend_overlap_group",
    "BatchPairAligner",
    "make_aligner",
    "BandPolicy",
    "PairAligner",
    "extend_overlap_ref",
    "kdiff_extend",
    "score_ops",
    "global_align_score",
    "overlap_align",
    "classify_pattern",
    "AcceptanceCriteria",
    "AlignmentResult",
    "OverlapPattern",
    "ScoringParams",
]
