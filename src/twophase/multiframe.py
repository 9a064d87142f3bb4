"""Combine two overlapping stratified sampling frames into one weighted set.

Records eligible for both frames are duplicated: the primary-frame draw
carries weight ``phi/pi_P`` and the secondary-frame draw
``(1-phi)/pi_S`` with ``phi = pi_P / (pi_P + pi_S)``, so each dual-frame
record contributes expected total weight exactly one (Hansen-Hurwitz).
Variance estimation clusters the duplicated rows by source record.

:func:`hansen_hurwitz` is the array core the experiment harness and the
CLI share; :func:`combine_frames` is its id-keyed adapter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FrameRow", "FrameWeights", "combine_frames", "hansen_hurwitz"]


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

    def strata_keys(self) -> np.ndarray:
        """Each row's own frame and design stratum, as ``frame:stratum``."""
        return np.array([f"{r.frame}:{r.stratum}" for r in self.rows])

    def cluster_ids(self) -> np.ndarray:
        """Source record per row: a record drawn in both frames is one cluster."""
        return np.array([r.record_id for r in self.rows])


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
