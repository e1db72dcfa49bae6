"""Confusion matrices and derived rates for the H/D decision.

Matrix layout: rows are the predicted label, columns the true label, both in
the order (H, D). Percentage matrices are column-normalized (each true-class
column sums to 100) and rounded half-up to two decimals. H is the positive
class, so TPR is the true-H recall; the true-D recall is reported both as TNR
and, for readability, as the damage detection rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .common import LABELS, write_json
from .dataset import Frames
from .errors import DataError


@dataclass(frozen=True)
class ConfusionMatrix:
    """2x2 counts; counts[predicted][true] with (H, D) ordering."""

    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    tpr: float
    tnr: float
    damage_detection_rate: float
    percentages: np.ndarray
    support: dict[str, int]
    counts: np.ndarray


def confusion(predictions, truths) -> ConfusionMatrix:
    """Tally predicted-vs-true class indices (0 = H, 1 = D)."""
    pred, true = np.asarray(predictions), np.asarray(truths)
    if len(pred) != len(true):
        raise DataError(
            f"{len(pred)} predictions vs {len(true)} truths")
    both = np.concatenate([pred, true])
    bad = both[~np.isin(both, (0, 1))]
    if bad.size:
        raise DataError(
            f"label must be class index 0 (H) or 1 (D), got {bad[0].item()!r}")
    counts = np.bincount(2 * pred.astype(np.int64) + true.astype(np.int64),
                         minlength=4)
    return ConfusionMatrix(counts=counts.reshape(2, 2))


def round_half_up(value: float, decimals: int = 2) -> float:
    scale = 10 ** decimals
    return math.floor(value * scale + 0.5) / scale


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Accuracy, per-class recalls and the column-normalized percentage matrix."""
    counts = cm.counts
    column_sums = counts.sum(axis=0)
    if column_sums[0] == 0 or column_sums[1] == 0:
        empty = "H" if column_sums[0] == 0 else "D"
        raise DataError(f"no samples with true label {empty}")
    percentages = np.array([
        [round_half_up(100.0 * counts[r, c] / column_sums[c]) for c in range(2)]
        for r in range(2)
    ])
    accuracy = 100.0 * (counts[0, 0] + counts[1, 1]) / cm.total
    tpr = 100.0 * counts[0, 0] / column_sums[0]
    tnr = 100.0 * counts[1, 1] / column_sums[1]
    return MetricsReport(
        accuracy=accuracy,
        tpr=tpr,
        tnr=tnr,
        damage_detection_rate=tnr,
        percentages=percentages,
        support={"H": int(column_sums[0]), "D": int(column_sums[1])},
        counts=counts,
    )


def report_to_dict(report: MetricsReport) -> dict:
    return {
        "counts": report.counts.tolist(),
        "percentages": report.percentages.tolist(),
        "accuracy": round_half_up(report.accuracy),
        "tpr": round_half_up(report.tpr),
        "tnr": round_half_up(report.tnr),
        "damage_detection_rate": round_half_up(report.damage_detection_rate),
        "support": report.support,
    }


def report_to_text(report: MetricsReport) -> str:
    c = report.counts
    p = report.percentages
    lines = [
        "                 true H     true D",
        f"  predicted H  {c[0, 0]:9d}  {c[0, 1]:9d}",
        f"  predicted D  {c[1, 0]:9d}  {c[1, 1]:9d}",
        "",
        "                 true H     true D   [% of column]",
        f"  predicted H  {p[0, 0]:8.2f}%  {p[0, 1]:8.2f}%",
        f"  predicted D  {p[1, 0]:8.2f}%  {p[1, 1]:8.2f}%",
        "",
        f"  accuracy               {round_half_up(report.accuracy):6.2f}%",
        f"  TPR (healthy recall)   {round_half_up(report.tpr):6.2f}%",
        f"  TNR (damaged recall)   {round_half_up(report.tnr):6.2f}%",
        f"  damage detection rate  {round_half_up(report.damage_detection_rate):6.2f}%",
        f"  support                H={report.support['H']} D={report.support['D']}",
    ]
    return "\n".join(lines) + "\n"


def write_report(report: MetricsReport, json_path, text_path) -> None:
    write_json(json_path, report_to_dict(report))
    Path(text_path).write_text(report_to_text(report), encoding="utf-8")


def export_scatter(frames: Frames, coeff_pair: tuple[int, int], path) -> int:
    """Write one tab-separated row per frame for a 2-D coefficient view.

    Coefficient indices are 1-based (c1..c13); returns the row count.
    """
    a, b = coeff_pair
    for index in (a, b):
        if index < 1:
            raise DataError(f"coefficient index must be >= 1, got {index}")
    num_coeffs = frames.coeffs.shape[1]
    if a > num_coeffs or b > num_coeffs:
        raise DataError(
            f"coefficient index out of range: frames have {num_coeffs} "
            f"coefficients, requested ({a}, {b})")
    lines = [f"c{a}\tc{b}\tlabel\tchannel"]
    lines.extend(
        f"{x!r}\t{y!r}\t{LABELS[label]}\t{frames.channel_ids[channel]}"
        for x, y, label, channel in zip(
            frames.coeffs[:, a - 1].tolist(), frames.coeffs[:, b - 1].tolist(),
            frames.labels.tolist(), frames.channels.tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(frames)
