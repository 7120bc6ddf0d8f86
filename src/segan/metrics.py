"""Segmentation quality metrics: confusion matrices, IoU reports and
per-class transfer gains between runs, plus the ``report.json`` codec."""

from __future__ import annotations

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

    def to_dict(self) -> dict:
        return {
            "iou": [None if math.isnan(v) else float(v) for v in self.iou],
            "miou": self.miou,
            "pixel_count": self.pixel_count,
            "classes": self.classes,
        }


def iou_report(cm: np.ndarray) -> MetricReport:
    """Per-class intersection-over-union from a confusion matrix.

    Classes whose union is empty (absent from both prediction and ground
    truth) carry nan and are excluded from the mean.
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
    return MetricReport(
        iou=iou,
        miou=float(np.nanmean(iou)),
        pixel_count=int(cm.sum()),
        classes=classes,
    )


@dataclass
class TransferGain:
    gain: np.ndarray  # (classes,) adapted iou - baseline iou, nan where undefined


def transfer_gain(adapted: MetricReport, baseline: MetricReport) -> TransferGain:
    """Per-class IoU change from baseline to adapted; a negative gain is
    negative transfer."""
    if adapted.classes != baseline.classes:
        raise ValueError(
            f"class counts differ: {adapted.classes} vs {baseline.classes}"
        )
    return TransferGain(gain=adapted.iou - baseline.iou)


def write_report(report: MetricReport, out_dir) -> None:
    """Write report.json and a per-class report.csv into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sgt.write_json(out / "report.json", report.to_dict())
    rows = [[c, "" if math.isnan(v) else f"{v:.6f}"] for c, v in enumerate(report.iou)]
    sgt.write_csv(out / "report.csv", ["class", "iou"], rows + [["miou", f"{report.miou:.6f}"]])


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float)


def read_report(path) -> MetricReport:
    """The report that :func:`write_report` put in ``report.json``. A missing
    key raises ``KeyError``, a value of the wrong type or size ``ValueError``."""
    d = json.loads(Path(path).read_text())
    iou, miou, pixel_count, classes = d["iou"], d["miou"], d["pixel_count"], d["classes"]
    if not isinstance(iou, list) or not all(v is None or _is_number(v) for v in iou):
        raise ValueError(f"iou must be a list of numbers and nulls, got {iou!r}")
    if not _is_int(classes) or classes != len(iou):
        raise ValueError(f"classes must be the integer {len(iou)} (the length of iou), "
                         f"got {classes!r}")
    if not _is_number(miou):
        raise ValueError(f"miou must be a number, got {miou!r}")
    if not _is_int(pixel_count) or pixel_count < 0:
        raise ValueError(f"pixel_count must be a non-negative integer, got {pixel_count!r}")
    return MetricReport(iou=np.array([math.nan if v is None else v for v in iou], np.float64),
                        miou=miou, pixel_count=pixel_count, classes=classes)
