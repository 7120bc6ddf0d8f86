"""Segmentation quality metrics: confusion matrices, IoU reports, training
stability, and per-class transfer gains between runs."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import sgt


def confusion_matrix(pred: np.ndarray, gt: np.ndarray, classes: int) -> np.ndarray:
    """(classes, classes) count matrix, rows ground truth, columns prediction."""
    pred = np.asarray(pred).reshape(-1)
    gt = np.asarray(gt).reshape(-1)
    if pred.shape != gt.shape:
        raise ValueError(f"prediction size {pred.shape} != ground truth size {gt.shape}")
    for name, arr in (("prediction", pred), ("ground truth", gt)):
        if arr.min() < 0 or arr.max() >= classes:
            raise ValueError(
                f"{name} labels outside [0, {classes}): range "
                f"[{arr.min()}, {arr.max()}]"
            )
    idx = gt.astype(np.int64) * classes + pred.astype(np.int64)
    return np.bincount(idx, minlength=classes * classes).reshape(classes, classes)


@dataclass
class MetricReport:
    iou: np.ndarray  # (classes,) float64, nan where the union is empty
    miou: float
    pixel_count: int
    classes: int
    miou_subset: float | None = None
    subset: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        d = {
            "iou": [None if math.isnan(v) else float(v) for v in self.iou],
            "miou": self.miou,
            "pixel_count": self.pixel_count,
            "classes": self.classes,
        }
        if self.subset is not None:
            d["subset"] = list(self.subset)
            d["miou_subset"] = self.miou_subset
        return d


def iou_report(cm: np.ndarray, subset: tuple[int, ...] | None = None) -> MetricReport:
    """Per-class intersection-over-union from a confusion matrix.

    Classes whose union is empty (absent from both prediction and ground
    truth) carry nan and are excluded from means. A subset restricts the
    extra ``miou_subset`` average to the listed class ids.
    """
    cm = np.asarray(cm, dtype=np.int64)
    classes = cm.shape[0]
    if cm.shape != (classes, classes):
        raise ValueError(f"confusion matrix must be square, got {cm.shape}")
    tp = np.diag(cm).astype(np.float64)
    union = cm.sum(axis=0) + cm.sum(axis=1) - np.diag(cm)
    iou = np.full(classes, np.nan)
    nonempty = union > 0
    iou[nonempty] = tp[nonempty] / union[nonempty]
    if not nonempty.any():
        raise ValueError("all class unions are empty; nothing to score")
    report = MetricReport(
        iou=iou,
        miou=float(np.nanmean(iou)),
        pixel_count=int(cm.sum()),
        classes=classes,
    )
    if subset is not None:
        subset = tuple(int(c) for c in subset)
        if any(not 0 <= c < classes for c in subset) or not subset:
            raise ValueError(f"subset {subset} not within [0, {classes})")
        sub = iou[list(subset)]
        report.subset = subset
        report.miou_subset = float(np.nanmean(sub)) if not np.isnan(sub).all() else float("nan")
    return report


def evaluate_predictions(pred: np.ndarray, gt: np.ndarray, classes: int) -> MetricReport:
    return iou_report(confusion_matrix(pred, gt, classes))


def stability_index(miou_series, window_fraction: float = 1.0 / 3.0) -> float:
    """Population standard deviation of the final stretch of an evaluation
    series; lower means a steadier finish. The window is the last
    ceil(len * window_fraction) points and must hold at least 5."""
    series = np.asarray(list(miou_series), dtype=np.float64)
    if not 0 < window_fraction <= 1:
        raise ValueError(f"window_fraction must be in (0, 1], got {window_fraction}")
    n = math.ceil(len(series) * window_fraction)
    if n < 5:
        raise ValueError(
            f"stability window holds {n} points, need at least 5; "
            f"series length {len(series)}"
        )
    window = series[-n:]
    return float(np.std(window))


@dataclass
class TransferGain:
    gain: np.ndarray  # (classes,) adapted iou - baseline iou, nan where undefined
    negative_classes: tuple[int, ...]  # classes the adaptation made worse

    def to_dict(self) -> dict:
        return {
            "gain": [None if math.isnan(v) else float(v) for v in self.gain],
            "negative_classes": list(self.negative_classes),
        }


def transfer_gain(adapted: MetricReport, baseline: MetricReport) -> TransferGain:
    """Per-class IoU change from baseline to adapted; flags negative transfer."""
    if adapted.classes != baseline.classes:
        raise ValueError(
            f"class counts differ: {adapted.classes} vs {baseline.classes}"
        )
    gain = adapted.iou - baseline.iou
    negative = tuple(int(c) for c in np.where(gain < 0)[0])
    return TransferGain(gain=gain, negative_classes=negative)


def write_report(report: MetricReport, out_dir) -> None:
    """Write report.json and a per-class report.csv into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with sgt.atomic_open(out / "report.json") as f:
        f.write(json.dumps(report.to_dict(), indent=2))
    with sgt.atomic_open(out / "report.csv", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["class", "iou"])
        for c, v in enumerate(report.iou):
            writer.writerow([c, "" if math.isnan(v) else f"{v:.6f}"])
        writer.writerow(["miou", f"{report.miou:.6f}"])


def read_report(path) -> MetricReport:
    """The report that :func:`write_report` put in ``report.json``."""
    d = json.loads(Path(path).read_text())
    iou = np.array([math.nan if v is None else v for v in d["iou"]], dtype=np.float64)
    return MetricReport(iou=iou, miou=d["miou"], pixel_count=d["pixel_count"],
                        classes=d["classes"])
