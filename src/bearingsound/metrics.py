"""The H/D confusion matrix and the report record built from it.

Matrix layout: rows are the predicted label, columns the true label, both in
the order (H, D). ``metrics`` turns the counts into the one record that
report.json holds and every other output reads: column-normalized
percentages (each true-class column sums to 100), accuracy, TPR and TNR, each
rounded half-up to two decimals there and nowhere else. H is the positive
class, so TPR is the true-H recall; the true-D recall is reported both as TNR
and, for readability, as the damage detection rate.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .common import LABELS, write_json
from .dataset import Frames
from .errors import DataError


def confusion(predictions, truths) -> np.ndarray:
    """2x2 int64 counts[predicted][true] of class indices (0 = H, 1 = D)."""
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
    return counts.reshape(2, 2)


def round_half_up(value: float, decimals: int = 2) -> float:
    scale = 10 ** decimals
    return math.floor(value * scale + 0.5) / scale


def metrics(counts) -> dict:
    """report.json's record of 2x2 counts: the counts, the column-normalized
    percentages, accuracy, TPR, TNR (again as damage_detection_rate) and
    each true class's support, every rate rounded half-up once."""
    counts = np.asarray(counts)
    column_sums = counts.sum(axis=0)
    if column_sums[0] == 0 or column_sums[1] == 0:
        empty = "H" if column_sums[0] == 0 else "D"
        raise DataError(f"no samples with true label {empty}")
    percentages = [
        [round_half_up(100.0 * n / total) for n, total in zip(row, column_sums)]
        for row in counts]
    return {
        "counts": counts.tolist(),
        "percentages": percentages,
        "accuracy": round_half_up(100.0 * np.trace(counts) / counts.sum()),
        "tpr": percentages[0][0],
        "tnr": percentages[1][1],
        "damage_detection_rate": percentages[1][1],
        "support": {"H": int(column_sums[0]), "D": int(column_sums[1])},
    }


def report_to_text(report: dict) -> str:
    c, p = report["counts"], report["percentages"]
    lines = [
        "                 true H     true D",
        f"  predicted H  {c[0][0]:9d}  {c[0][1]:9d}",
        f"  predicted D  {c[1][0]:9d}  {c[1][1]:9d}",
        "",
        "                 true H     true D   [% of column]",
        f"  predicted H  {p[0][0]:8.2f}%  {p[0][1]:8.2f}%",
        f"  predicted D  {p[1][0]:8.2f}%  {p[1][1]:8.2f}%",
        "",
        f"  accuracy               {report['accuracy']:6.2f}%",
        f"  TPR (healthy recall)   {report['tpr']:6.2f}%",
        f"  TNR (damaged recall)   {report['tnr']:6.2f}%",
        f"  damage detection rate  {report['damage_detection_rate']:6.2f}%",
        f"  support                H={report['support']['H']} D={report['support']['D']}",
    ]
    return "\n".join(lines) + "\n"


def write_report(report: dict, out_dir) -> None:
    """report.json and report.txt in out_dir, which is made if missing."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "report.json", report)
    (out_dir / "report.txt").write_text(report_to_text(report), encoding="utf-8")


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
