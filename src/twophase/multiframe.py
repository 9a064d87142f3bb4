"""Combine two overlapping stratified sampling frames into one weighted set.

Records eligible for both frames are duplicated: the primary-frame draw
carries weight ``phi/pi_P`` and the secondary-frame draw
``(1-phi)/pi_S`` with ``phi = pi_P / (pi_P + pi_S)``, so each dual-frame
record contributes expected total weight exactly one (Hansen-Hurwitz).
Variance estimation clusters the duplicated rows by source record.

:func:`weighted_sample` is the weighted sample the experiment harness and
the CLI share (``raking.weighted_fit`` fits on it); :func:`hansen_hurwitz`
its weights; :func:`combine_frames` an id-keyed adapter of the weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from twophase.errors import LedgerError

__all__ = ["FrameDesign", "FrameRow", "FrameWeights", "WeightedSample",
           "combine_frames", "hansen_hurwitz", "weighted_sample"]


@dataclass(frozen=True)
class FrameRow:
    """One analysis row in the combined frame."""

    record_id: str
    frame: str
    weight: float
    stratum: str
    duplicated: bool


@dataclass
class FrameWeights:
    """Combined-frame rows in a fixed, reproducible order."""

    rows: list[FrameRow]

    def weights(self) -> np.ndarray:
        return np.array([r.weight for r in self.rows], dtype=np.float64)


def hansen_hurwitz(pi_primary: np.ndarray, pi_secondary: np.ndarray,
                   primary_rows: np.ndarray, secondary_rows: np.ndarray) -> np.ndarray:
    """Hansen-Hurwitz weights for the draws of two stratified frames.

    ``pi_primary`` and ``pi_secondary`` hold, per record row, the
    final-design inclusion probability ``n_s / N_s`` in each frame;
    ``pi_secondary`` is nan outside the secondary frame, which must lie
    inside the primary one.  ``primary_rows`` and ``secondary_rows`` are
    the rows drawn in each frame, in the caller's order.  Returns one
    weight per combined row: the primary draws, then the secondary
    draws, each in the order given.  A record drawn in both frames gets
    one row per frame; its single set of validated values backs both.
    """
    pi_p = np.asarray(pi_primary, dtype=np.float64)
    pi_s = np.asarray(pi_secondary, dtype=np.float64)
    outside = np.flatnonzero(np.isfinite(pi_s) & ~np.isfinite(pi_p))
    if outside.size:
        raise ValueError(
            f"secondary frame is not a subset of the primary frame: rows {outside[:3]}")
    for name, pi, rows in (("primary", pi_p, primary_rows),
                           ("secondary", pi_s, secondary_rows)):
        bad = np.flatnonzero(~((pi[rows] > 0) & (pi[rows] <= 1)))
        if bad.size:
            raise ValueError(f"pi of {name}-frame draw at row {rows[bad[0]]} "
                             "must lie in (0, 1]")
    p_o, p_a = pi_p[primary_rows], pi_s[primary_rows]
    dual = np.isfinite(p_a)
    w_primary = np.where(dual, (p_o / (p_o + p_a)) / p_o, 1.0 / p_o)
    p_o, p_a = pi_p[secondary_rows], pi_s[secondary_rows]
    phi = p_o / (p_o + p_a)
    w_secondary = (1.0 - phi) / p_a
    # Expected-weight identity: pi_O*(phi/pi_O) + pi_A*((1-phi)/pi_A) == 1.
    assert np.all(np.abs(p_o * (phi / p_o) + p_a * w_secondary - 1.0) < 1e-12)
    return np.concatenate([w_primary, w_secondary])


@dataclass(frozen=True)
class FrameDesign:
    """One frame's final design over population rows."""

    name: str
    pi: np.ndarray        # inclusion probability per row, nan outside the frame
    leaf: np.ndarray      # design stratum label per row
    sampled: np.ndarray   # bool per row: drawn in this frame


@dataclass
class WeightedSample:
    """Draws with their weights; a record's draws form one variance cluster."""

    rows: np.ndarray            # population row per draw
    frame: np.ndarray           # frame name per draw
    weights: np.ndarray
    strata: np.ndarray          # variance stratum per draw
    analysis_rows: np.ndarray   # population rows of the analysis frame


def weighted_sample(frames, analysis, *, order=None, validated=None, ids=None,
                    ) -> tuple[WeightedSample, WeightedSample]:
    """Every draw of one or two frames, and the draws inside the analysis frame.

    ``frames`` holds one :class:`FrameDesign`, or a primary one and a
    secondary one inside it.  Each frame's draws enter in ``order`` (a
    permutation of the rows; default row order), primary first, with
    :func:`hansen_hurwitz` weights (``1/pi`` for one frame) and strata
    ``leaf`` (one frame) or ``name:leaf``.  ``analysis`` marks the
    analysis frame's rows; with ``validated`` given, its draws must be
    validated.  ``ids`` name rows in the LedgerErrors raised.
    """
    analysis = np.asarray(analysis, dtype=bool)
    n = analysis.size
    ids = range(n) if ids is None else ids
    order = np.arange(n) if order is None else np.asarray(order)
    drawn = [order[f.sampled[order]] for f in frames]
    pi_s, s_rows = np.full(n, np.nan), np.empty(0, dtype=np.intp)
    if len(frames) == 2:
        pi_s, s_rows = frames[1].pi, drawn[1]
        outside = np.flatnonzero(np.isfinite(pi_s) & ~np.isfinite(frames[0].pi))
        if outside.size:
            raise LedgerError(f"record {ids[outside[0]]!r} is in frame {frames[1].name!r} "
                              f"but not in the primary frame {frames[0].name!r}")
    weights = hansen_hurwitz(frames[0].pi, pi_s, drawn[0], s_rows)
    rows = np.concatenate(drawn)
    frame = np.repeat([f.name for f in frames], [r.size for r in drawn])
    strata = np.concatenate([f.leaf[r] for f, r in zip(frames, drawn)])
    if len(frames) == 2:  # each distinct frame:leaf label formatted once
        leaves, leaf_code = np.unique(strata, return_inverse=True)
        codes, label_code = np.unique(np.repeat([0, leaves.size], [r.size for r in drawn])
                                      + leaf_code, return_inverse=True)
        strata = np.array([f"{frames[c // leaves.size].name}:{leaves[c % leaves.size]}"
                           for c in codes.tolist()])[label_code]
    keep = analysis[rows]
    if validated is not None:
        bad = np.flatnonzero(keep & ~np.asarray(validated, dtype=bool)[rows])
        if bad.size:
            raise LedgerError(f"record {ids[rows[bad[0]]]!r} drawn in frame "
                              f"{str(frame[bad[0]])!r} is not validated; reveal phase-2 "
                              "data before estimating")
    analysis_rows = np.flatnonzero(analysis)
    return (WeightedSample(rows, frame, weights, strata, analysis_rows),
            WeightedSample(rows[keep], frame[keep], weights[keep], strata[keep],
                           analysis_rows))


def combine_frames(primary_frame: str, secondary_frame: str,
                   pi_primary: dict[str, float], pi_secondary: dict[str, float],
                   sampled_primary: dict[str, str], sampled_secondary: dict[str, str],
                   ) -> FrameWeights:
    """Id-keyed :func:`hansen_hurwitz`.

    Parameters
    ----------
    pi_primary : sampling probability per primary-frame member id.
    pi_secondary : sampling probability per secondary-frame member id
        (its keys define dual-frame membership; the secondary frame must
        be a subset of the primary frame).
    sampled_primary, sampled_secondary : drawn record id -> design
        stratum id, one entry per draw in that frame.

    Rows list the primary draws, then the secondary draws, each sorted
    by record id; a record drawn in both frames is flagged ``duplicated``.
    """
    ids = sorted(set(pi_primary) | set(pi_secondary)
                 | set(sampled_primary) | set(sampled_secondary))
    row = {rid: i for i, rid in enumerate(ids)}

    def per_row(pi):
        out = np.full(len(ids), np.nan)
        for rid, p in pi.items():
            out[row[rid]] = p
        return out

    primary = sorted(sampled_primary)
    secondary = sorted(sampled_secondary)
    pi_s = per_row(pi_secondary)
    weights = hansen_hurwitz(per_row(pi_primary), pi_s,
                             np.array([row[rid] for rid in primary], dtype=np.intp),
                             np.array([row[rid] for rid in secondary], dtype=np.intp))
    rows = [FrameRow(rid, primary_frame, float(w), sampled_primary[rid],
                     bool(np.isfinite(pi_s[row[rid]])))
            for rid, w in zip(primary, weights)]
    rows += [FrameRow(rid, secondary_frame, float(w), sampled_secondary[rid], True)
             for rid, w in zip(secondary, weights[len(primary):])]
    return FrameWeights(rows=rows)
