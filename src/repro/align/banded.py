"""Banded affine-gap extension dynamic programming.

The paper computes pairwise alignment "by merely extending the already
computed maximal substring match at both ends using gaps and mismatches",
further restricted to a band around the diagonal "where the band size is
determined by the number of errors tolerated" (§3.3, Fig. 5a).

:func:`extend_overlap` is that primitive for one direction: align a prefix
of ``x`` against a prefix of ``y`` such that the alignment *reaches the end
of at least one string* (overlap semantics — stopping mid-string would be
local alignment and would let bad pairs cherry-pick their best region),
maximising the affine-gap score within the band ``|i - j| ≤ band``.

Implementation: one numpy row per ``x`` character with three state rows
(match/mismatch M, gap-in-``y`` Ix, gap-in-``x`` Iy).  The within-row
recurrence of Iy (horizontal affine gaps) is vectorised with the classic
prefix-max trick: ``Iy[j] = open + (j-1)·ext + max_{k<j}(M[k] - k·ext)``.
``dp_cells`` reports the number of in-band cells — the work a C
implementation pays and the measure the banding ablation sweeps.

:func:`extend_overlap` computes each row at full width and masks it down
to the band; it is the reference oracle.  :func:`extend_overlap_group` is
the production kernel: it aligns a group of extensions at once and stores
only the ``2·band + 1`` in-band cells of each row, with bit-identical
results.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.align.scoring import ScoringParams

__all__ = [
    "extend_overlap",
    "extend_overlap_group",
    "ExtensionResult",
    "NEG_INF",
]

NEG_INF = -1.0e18


class ExtensionResult(tuple):
    """``(score, consumed_x, consumed_y, dp_cells)`` with named access."""

    __slots__ = ()

    def __new__(cls, score: float, consumed_x: int, consumed_y: int, dp_cells: int):
        return super().__new__(cls, (score, consumed_x, consumed_y, dp_cells))

    score = property(lambda self: self[0])
    consumed_x = property(lambda self: self[1])
    consumed_y = property(lambda self: self[2])
    dp_cells = property(lambda self: self[3])


def extend_overlap(
    x: np.ndarray,
    y: np.ndarray,
    params: ScoringParams,
    band: int,
) -> ExtensionResult:
    """Best banded extension of the seed boundary into ``x`` and ``y``.

    The alignment starts exactly at position (0, 0) (the seed edge) and
    must consume *all* of ``x`` or *all* of ``y``; the other string may be
    left partially unconsumed (it continues beyond the overlap).  Returns
    the best score and how much of each string the overlap consumed.
    """
    if band < 0:
        raise ValueError(f"band must be >= 0, got {band}")
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    lx, ly = len(x), len(y)
    if lx == 0 or ly == 0:
        # One side has nothing to extend into: the boundary is an end.
        return ExtensionResult(0.0, 0, 0, 0)

    match, mis = params.match, params.mismatch
    go, ge = params.gap_open, params.gap_extend
    js = np.arange(ly + 1, dtype=np.int64)

    # Row 0: only leading gaps in x (consuming y) are possible.
    m_row = np.full(ly + 1, NEG_INF)
    ix_row = np.full(ly + 1, NEG_INF)
    iy_row = np.full(ly + 1, NEG_INF)
    m_row[0] = 0.0
    if ly >= 1:
        iy_row[1:] = go + (js[1:] - 1) * ge
    _apply_band(m_row, ix_row, iy_row, 0, band, ly)

    dp_cells = int(min(ly, band)) + 1
    # Candidate ends in the last column (j = ly) of every row.
    best = NEG_INF
    best_i, best_j = 0, 0
    if abs(0 - ly) <= band:
        col_best = max(m_row[ly], ix_row[ly], iy_row[ly])
        if col_best > best:
            best, best_i, best_j = col_best, 0, ly

    for i in range(1, lx + 1):
        sub = np.where(x[i - 1] == y, match, mis)
        prev_best = np.maximum(np.maximum(m_row, ix_row), iy_row)
        new_m = np.full(ly + 1, NEG_INF)
        new_m[1:] = prev_best[:-1] + sub
        new_ix = np.maximum(np.maximum(m_row, iy_row) + go, ix_row + ge)
        # Band mask before the horizontal scan so out-of-band cells cannot
        # feed in-band gap runs.
        new_iy = np.full(ly + 1, NEG_INF)
        _apply_band(new_m, new_ix, new_iy, i, band, ly)
        run = np.maximum.accumulate(np.maximum(new_m, new_ix) - js * ge)
        new_iy[1:] = go + (js[1:] - 1) * ge + run[:-1]
        _apply_band(new_m, new_ix, new_iy, i, band, ly)

        m_row, ix_row, iy_row = new_m, new_ix, new_iy
        lo = max(0, i - band)
        hi = min(ly, i + band)
        if hi >= lo:
            dp_cells += hi - lo + 1
        if abs(i - ly) <= band:
            col_best = max(m_row[ly], ix_row[ly], iy_row[ly])
            if col_best > best:
                best, best_i, best_j = col_best, i, ly

    # Candidate ends along the last row (all of x consumed).
    final = np.maximum(np.maximum(m_row, ix_row), iy_row)
    j_best = int(np.argmax(final))
    if final[j_best] > best:
        best, best_i, best_j = float(final[j_best]), lx, j_best

    if best <= NEG_INF / 2:
        # A band narrower than |lx - ly| excludes every valid end: the
        # overlap would need more indels than the error budget tolerates.
        # Report a pure-gap-run score to the nearer end — pessimistic and
        # guaranteed to fail acceptance, without poisoning ratios with -inf.
        if lx <= ly:
            best, best_i, best_j = go + max(lx - 1, 0) * ge, lx, 0
        else:
            best, best_i, best_j = go + max(ly - 1, 0) * ge, 0, ly
    return ExtensionResult(float(best), best_i, best_j, dp_cells)


def _apply_band(m_row, ix_row, iy_row, i: int, band: int, ly: int) -> None:
    """Mask cells outside |i - j| <= band to -inf in all three states."""
    lo = i - band
    hi = i + band
    if lo > 0:
        m_row[:lo] = NEG_INF
        ix_row[:lo] = NEG_INF
        iy_row[:lo] = NEG_INF
    if hi < ly:
        m_row[hi + 1 :] = NEG_INF
        ix_row[hi + 1 :] = NEG_INF
        iy_row[hi + 1 :] = NEG_INF


# --------------------------------------------------------------------------- #
# batched band-coordinate kernel
# --------------------------------------------------------------------------- #

#: DP rows whose substitution scores are built in one go: bounds the
#: ``(rows, g, W)`` scratch plane while amortising its construction.
SUB_CHUNK_ROWS = 64


def extend_overlap_group(
    xs: Sequence[np.ndarray],
    ys: Sequence[np.ndarray],
    bands: np.ndarray,
    params: ScoringParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised :func:`extend_overlap` over a group of extensions.

    Sweeps only the in-band cells, in *band coordinates*: with ``B`` the
    widest band of the group and ``W = 2B + 1``, column ``d ∈ [0, 2B]`` of
    DP row ``i`` stands for ``j = i - B + d``, and member ``k`` occupies
    plane row ``k``.  Each row costs O(g·W) instead of O(g·ly).  The three
    moves become: M reads the previous row at the same ``d``, Ix at
    ``d + 1``, and Iy is the scalar kernel's prefix-max scan, now along
    ``d``.

    Results are bit-identical to :func:`extend_overlap` (score, consumed
    x/y and ``dp_cells``) for any :class:`ScoringParams`, because every
    finite cell is computed by the same float operations from the same
    finite inputs:

    - the ``j·ge`` and ``go + (j-1)·ge`` terms are taken from absolute
      ``j`` (a sliding slice of one vector per group), not from ``d``;
    - invalid cells only ever hold -inf-like values that lose every
      ``max`` to a finite one: M at ``j ≤ 0`` and ``j > ly`` gets
      ``NEG_INF`` from the substitution plane, and a member whose band is
      narrower than ``B`` has Ix and Iy masked outside it (M there then
      only reads masked cells);
    - cells at ``j > ly`` may hold finite junk, which is harmless because
      DP values only flow to larger ``j`` and no candidate end reads them;
    - ties resolve in the scalar kernel's order: the first row whose
      ``j = ly`` cell is maximal, then the final row's first argmax,
      taken only if strictly better.

    The sweep stops at row ``max(min(lx, ly + b))``: past ``ly + b`` a
    member's band holds only ``j > ly``, so no candidate end is left.
    Memory stays O(g·W) row state plus an O(rows·g) candidate buffer;
    substitution scores are built :data:`SUB_CHUNK_ROWS` rows at a time.

    All ``xs[k]``/``ys[k]`` must be non-empty (callers shortcut empty
    extensions to ``ExtensionResult(0.0, 0, 0, 0)`` like the scalar path).

    Returns ``(score, consumed_x, consumed_y, dp_cells)`` arrays of length
    ``len(xs)``.
    """
    g = len(xs)
    if g != len(ys) or g != len(bands):
        raise ValueError(
            f"group size mismatch: {g} xs, {len(ys)} ys, {len(bands)} bands"
        )
    if g == 0:
        empty_f = np.empty(0)
        empty_i = np.empty(0, dtype=np.int64)
        return empty_f, empty_i, empty_i.copy(), empty_i.copy()
    bands = np.asarray(bands, dtype=np.int64)
    if bands.min() < 0:
        raise ValueError("band must be >= 0 for every group member")
    lxs = np.fromiter((len(x) for x in xs), dtype=np.int64, count=g)
    lys = np.fromiter((len(y) for y in ys), dtype=np.int64, count=g)
    if lxs.min() == 0 or lys.min() == 0:
        raise ValueError("empty extensions must be filtered before grouping")
    max_lx = int(lxs.max())
    big_b = int(bands.max())
    w = 2 * big_b + 1
    ar = np.arange(g)
    dd = np.arange(w)
    # Past row ly + b a member's band holds only j > ly: no candidate end
    # remains, so the sweep stops at the last row some member still needs.
    n_rows = int(np.minimum(lxs, lys + bands).max())

    # Row i reads y[j - 1] for j = i - B + d, i.e. ypad[k, i - 1 + d] with
    # y shifted right by B; -2 pads (j <= 0 or j > ly) and -1 pads x rows
    # past lx.  y beyond j = n_rows + B is never reached.
    xpad = np.full((g, n_rows), -1, dtype=np.int8)
    ypad = np.full((g, n_rows + 2 * big_b), -2, dtype=np.int8)
    for k in range(g):
        xk = xs[k][:n_rows]
        xpad[k, : len(xk)] = xk
        yk = ys[k][: n_rows + big_b]
        ypad[k, big_b : big_b + len(yk)] = yk
    ywin = np.lib.stride_tricks.sliding_window_view(ypad, w, axis=1)

    match, mis = params.match, params.mismatch
    go, ge = params.gap_open, params.gap_extend
    # jv[t] = j for row-i column d at t = i + d: the scalar kernel's
    # ``js * ge`` and ``go + (js - 1) * ge`` terms, on absolute j.
    jv = np.arange(-big_b, n_rows + big_b + 1, dtype=np.int64)
    jge = jv * ge
    jgo = go + (jv - 1) * ge

    # Row state, transposed so every shifted read is a contiguous slice:
    # plane row d, column k.  Spare row W stays -inf: the previous row's
    # j = i + B, outside every band, read by Ix at d = 2B.  Two buffer
    # sets (previous row, new row) swap each row; each set is held as the
    # views the sweep reads and writes, built once.
    state = np.full((2, 3, w + 1, g), NEG_INF)
    views = [
        (st[0, :w], st[1, :w], st[2, :w], st[0, 1:], st[1, 1:], st[2, 1:], st[2, 1:w])
        for st in state
    ]
    pb = np.empty((w, g))  # max(M, Ix, Iy) of the last finished row
    tmp = np.empty((w, g))
    run = np.empty((w, g))
    run_head = run[:-1]
    # Per-row (W, 1) columns of the j terms: row i reads jv[i : i + W].
    jge_rows = np.lib.stride_tricks.sliding_window_view(jge, w)[:, :, None]
    jgo_rows = np.lib.stride_tricks.sliding_window_view(jgo[1:], w - 1)[:, :, None]
    # Narrower members' bands.  Ix folds its mask into the gap terms (in
    # band the same go/ge is added; outside, -inf); Iy takes min() with a
    # cap of +inf (keep) or -inf (clear).  Both are exact on finite cells.
    mixed = bool(bands.min() != big_b)
    outb = np.abs(dd - big_b)[:, None] > bands[None, :]
    cap = np.where(outb, NEG_INF, np.inf)
    go_ix = np.where(outb, NEG_INF, go) if mixed else go
    ge_ix = np.where(outb, NEG_INF, ge) if mixed else ge

    # Row 0: only leading gaps in x (consuming y) are possible.
    m0, _, iy0 = views[0][:3]
    m0[big_b] = 0.0
    iy0[big_b + 1 : w] = jgo[big_b + 1 : w, None]
    if mixed:
        np.minimum(iy0, cap, out=iy0)
    np.maximum(m0, iy0, out=pb)

    # Each row's j = ly cell (the scalar kernel's last-column candidate),
    # gathered only over rows where some member's j = ly is in the window.
    cand = np.full((n_rows + 1, g), NEG_INF)
    r_lo = max(0, int(lys.min()) - big_b)
    r_hi = min(n_rows, int(lys.max()) + big_b)
    rows = np.arange(r_lo, r_hi + 1, dtype=np.int64)
    gidx = np.clip(lys[None, :] - rows[:, None] + big_b, 0, w - 1) * g + ar
    # Each member's final row (i = lx), kept when its sweep drains; a
    # member with lx > n_rows has no valid end there and keeps -inf.
    final = np.full((w, g), NEG_INF)
    ends = {int(n): np.nonzero(lxs == n)[0] for n in np.unique(lxs)}
    if r_lo == 0:
        pb.take(gidx[0], out=cand[0])

    prev, cur = views
    sub = None
    for i in range(1, n_rows + 1):
        r = (i - 1) % SUB_CHUNK_ROWS
        if r == 0:
            i1 = min(n_rows, i - 1 + SUB_CHUNK_ROWS)
            win = ywin[:, i - 1 : i1].transpose(1, 2, 0)
            eq = np.empty(win.shape, dtype=bool)
            np.equal(win, xpad[:, i - 1 : i1].T[:, None, :], out=eq)
            sub = np.where(eq, float(match), float(mis))
            np.equal(win, -2, out=eq)
            np.copyto(sub, NEG_INF, where=eq)
        _, _, _, m_up, ix_up, iy_up, _ = prev
        new_m, new_ix, new_iy, _, _, _, new_iy_tail = cur
        np.add(pb, sub[r], out=new_m)  # M: previous row, same d
        np.maximum(m_up, iy_up, out=tmp)  # Ix: previous row, d + 1
        np.add(tmp, go_ix, out=tmp)
        np.add(ix_up, ge_ix, out=new_ix)
        np.maximum(new_ix, tmp, out=new_ix)
        np.maximum(new_m, new_ix, out=pb)
        np.subtract(pb, jge_rows[i], out=run)  # Iy: prefix max along d
        np.maximum.accumulate(run, axis=0, out=run)
        np.add(jgo_rows[i], run_head, out=new_iy_tail)
        if mixed:
            np.minimum(new_iy, cap, out=new_iy)
        np.maximum(pb, new_iy, out=pb)
        prev, cur = cur, prev

        if r_lo <= i <= r_hi:
            pb.take(gidx[i - r_lo], out=cand[i])
        idx = ends.get(i)
        if idx is not None:
            final[:, idx] = pb[:, idx]

    # Last-column candidates: rows 0..lx within the member's band; the
    # first maximal row wins, as with the scalar kernel's strict-> scan.
    all_rows = np.arange(n_rows + 1, dtype=np.int64)[:, None]
    cand[(all_rows > lxs) | (np.abs(all_rows - lys) > bands)] = NEG_INF
    best_i = np.argmax(cand, axis=0)
    best = cand[best_i, ar]
    best_j = lys.copy()
    # Final-row candidates (all of x consumed), taken only when strictly
    # better, at the first maximal j.
    jf = lxs[None, :] - big_b + dd[:, None]
    final[outb | (jf < 0) | (jf > lys[None, :])] = NEG_INF
    d_best = np.argmax(final, axis=0)
    fin = final[d_best, ar]
    upd = fin > best
    best[upd] = fin[upd]
    best_i[upd] = lxs[upd]
    best_j[upd] = jf[d_best, ar][upd]

    # A band narrower than |lx - ly| excludes every valid end; mirror the
    # scalar kernel's pessimistic pure-gap fallback.
    bad = best <= NEG_INF / 2
    if bad.any():
        use_x = bad & (lxs <= lys)
        best[use_x] = go + (lxs[use_x] - 1) * ge
        best_i[use_x] = lxs[use_x]
        best_j[use_x] = 0
        use_y = bad & (lxs > lys)
        best[use_y] = go + (lys[use_y] - 1) * ge
        best_i[use_y] = 0
        best_j[use_y] = lys[use_y]

    # In-band cell counts, closed form over the (member, row) grid.
    rows = np.arange(1, max_lx + 1, dtype=np.int64)
    lo = rows[None, :] - bands[:, None]
    np.maximum(lo, 0, out=lo)
    hi = np.minimum(lys[:, None], rows[None, :] + bands[:, None])
    width = hi - lo + 1
    np.maximum(width, 0, out=width)
    width[rows[None, :] > lxs[:, None]] = 0
    dp_cells = width.sum(axis=1) + np.minimum(lys, bands) + 1

    return best, best_i, best_j, dp_cells
