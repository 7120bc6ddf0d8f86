"""Confusion matrices, IoU reports, transfer gains and the stability index
(``references.py``) against counting oracles and hand-worked values."""

import csv
import json

import numpy as np
import pytest

from segan.metrics import confusion_matrix, iou_report, transfer_gain, write_report

from references import negative_classes, stability_index


def _evaluate(pred, gt, classes):
    return iou_report(confusion_matrix(pred, gt, classes))


# ---------------------------------------------------------------------------
# confusion matrix


def test_perfect_prediction_gives_diagonal_matrix():
    gt = np.array([[0, 1], [2, 3]])
    cm = confusion_matrix(gt, gt, classes=4)
    assert np.array_equal(cm, np.eye(4, dtype=np.int64))


def test_single_pixel_off_diagonal_cell():
    # one pixel predicted 1 with ground truth 0 lands in cm[0, 1]
    cm = confusion_matrix(np.array([1]), np.array([0]), classes=2)
    assert np.array_equal(cm, [[0, 1], [0, 0]])


def test_confusion_matrix_matches_counting_oracle():
    rng = np.random.default_rng(0)
    pred = rng.integers(0, 5, size=(7, 9))
    gt = rng.integers(0, 5, size=(7, 9))
    cm = confusion_matrix(pred, gt, classes=5)
    for g in range(5):
        for p in range(5):
            assert cm[g, p] == int(np.sum((gt == g) & (pred == p)))
    assert cm.sum() == 63


def test_confusion_matrix_input_validation():
    with pytest.raises(ValueError, match="!="):
        confusion_matrix(np.zeros(3, dtype=int), np.zeros(4, dtype=int), classes=2)
    with pytest.raises(ValueError, match="outside"):
        confusion_matrix(np.array([5]), np.array([0]), classes=4)
    with pytest.raises(ValueError, match="outside"):
        confusion_matrix(np.array([0]), np.array([-1]), classes=4)


# ---------------------------------------------------------------------------
# IoU


def test_perfect_prediction_scores_one():
    gt = np.array([[0, 1], [2, 3]])
    report = _evaluate(gt, gt, classes=4)
    np.testing.assert_allclose(report.iou, 1.0)
    assert report.miou == 1.0
    assert report.pixel_count == 4


def test_hand_case_half_and_two_thirds():
    # pred [0,0,1,1] vs gt [0,1,1,1]:
    # class 0: tp=1, union=2 -> 0.5; class 1: tp=2, union=3 -> 2/3
    report = _evaluate(np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1]), classes=2)
    np.testing.assert_allclose(report.iou, [0.5, 2.0 / 3.0])
    assert report.miou == pytest.approx(7.0 / 12.0, rel=1e-12)
    assert report.miou == pytest.approx(0.58333, abs=1e-5)


def test_random_maps_match_counting_oracle():
    rng = np.random.default_rng(1)
    for trial in range(100):
        classes = int(rng.integers(2, 6))
        pred = rng.integers(0, classes, size=30)
        gt = rng.integers(0, classes, size=30)
        report = _evaluate(pred, gt, classes)
        for c in range(classes):
            tp = int(np.sum((pred == c) & (gt == c)))
            union = int(np.sum((pred == c) | (gt == c)))
            if union == 0:
                assert np.isnan(report.iou[c])
            else:
                assert report.iou[c] == pytest.approx(tp / union, rel=1e-12)


def test_absent_class_is_excluded_from_mean():
    # class 2 never appears in either map: nan, and miou averages the rest
    pred = np.array([0, 0, 1, 1])
    gt = np.array([0, 1, 1, 0])
    report = _evaluate(pred, gt, classes=3)
    assert np.isnan(report.iou[2])
    np.testing.assert_allclose(report.iou[:2], [1.0 / 3.0, 1.0 / 3.0])
    assert report.miou == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_all_empty_unions_rejected():
    with pytest.raises(ValueError, match="empty"):
        iou_report(np.zeros((3, 3), dtype=np.int64))


def test_label_permutation_equivariance():
    rng = np.random.default_rng(2)
    pred = rng.integers(0, 4, size=50)
    gt = rng.integers(0, 4, size=50)
    base = _evaluate(pred, gt, 4)
    perm = np.array([2, 3, 1, 0])
    permuted = _evaluate(perm[pred], perm[gt], 4)
    np.testing.assert_allclose(permuted.iou[perm], base.iou, rtol=1e-12)
    assert permuted.miou == pytest.approx(base.miou, rel=1e-12)


def test_non_square_matrix_rejected():
    with pytest.raises(ValueError, match="square"):
        iou_report(np.zeros((2, 3), dtype=np.int64))


# ---------------------------------------------------------------------------
# stability index


def test_constant_series_has_zero_stability_index():
    assert stability_index([0.5] * 15) == 0.0


def test_hand_series_population_std():
    # window = last 5 of 15 points: {40, 50, 60, 50, 40} -> std = sqrt(56)
    series = [0.0] * 10 + [40.0, 50.0, 60.0, 50.0, 40.0]
    want = float(np.sqrt(np.mean((np.array([40, 50, 60, 50, 40]) - 48.0) ** 2)))
    assert stability_index(series) == pytest.approx(want, rel=1e-12)


def test_stability_translation_invariance():
    rng = np.random.default_rng(3)
    series = rng.random(18)
    assert stability_index(series + 0.37) == pytest.approx(
        stability_index(series), abs=1e-12
    )


def test_stability_window_is_a_plain_slice():
    rng = np.random.default_rng(4)
    series = rng.random(30)
    n = int(np.ceil(30 / 3))
    assert stability_index(series) == pytest.approx(
        float(np.std(series[-n:])), rel=1e-12
    )
    # early values cannot influence the index
    tampered = series.copy()
    tampered[: 30 - n] += 100.0
    assert stability_index(tampered) == stability_index(series)


def test_stability_requires_five_window_points():
    with pytest.raises(ValueError, match="at least 5"):
        stability_index([0.1] * 12)  # ceil(12/3) = 4
    with pytest.raises(ValueError, match="window_fraction"):
        stability_index([0.1] * 20, window_fraction=0.0)
    assert stability_index([0.1] * 5, window_fraction=1.0) == 0.0


# ---------------------------------------------------------------------------
# transfer gain


def test_zero_gain_for_identical_reports():
    gt = np.array([0, 1, 2, 0, 1, 2])
    report = _evaluate(gt, gt, 3)
    tg = transfer_gain(report, report)
    np.testing.assert_allclose(tg.gain, 0.0)
    assert negative_classes(tg.gain) == ()


def test_hand_gains_flag_negative_class():
    adapted = _evaluate(np.array([0, 1, 1, 0]), np.array([0, 1, 0, 1]), 2)
    baseline = _evaluate(np.array([0, 1, 0, 1]), np.array([0, 1, 0, 1]), 2)
    tg = transfer_gain(adapted, baseline)
    # both classes drop from 1.0 to 1/3
    np.testing.assert_allclose(tg.gain, [1.0 / 3.0 - 1.0] * 2)
    assert negative_classes(tg.gain) == (0, 1)


def test_mean_gain_matches_miou_difference_when_no_nans():
    rng = np.random.default_rng(5)
    gt = rng.integers(0, 3, size=60)
    adapted = _evaluate(rng.integers(0, 3, size=60), gt, 3)
    baseline = _evaluate(rng.integers(0, 3, size=60), gt, 3)
    tg = transfer_gain(adapted, baseline)
    assert not np.isnan(tg.gain).any()
    assert float(tg.gain.mean()) == pytest.approx(adapted.miou - baseline.miou, rel=1e-9)


def test_class_count_mismatch_rejected():
    a = _evaluate(np.array([0, 1]), np.array([0, 1]), 2)
    b = _evaluate(np.array([0, 1, 2]), np.array([0, 1, 2]), 3)
    with pytest.raises(ValueError, match="class counts"):
        transfer_gain(a, b)


# ---------------------------------------------------------------------------
# report files


def test_write_report_produces_consistent_json_and_csv(tmp_path):
    pred = np.array([0, 0, 1, 1])
    gt = np.array([0, 1, 1, 1])
    report = _evaluate(pred, gt, classes=2)
    write_report(report, tmp_path)

    payload = json.loads((tmp_path / "report.json").read_text())
    assert set(payload) == {"iou", "miou", "pixel_count", "classes"}
    np.testing.assert_allclose(payload["iou"], report.iou)
    assert payload["miou"] == report.miou
    assert payload["pixel_count"] == 4

    with open(tmp_path / "report.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["class", "iou"]
    assert rows[1] == ["0", f"{report.iou[0]:.6f}"]
    assert rows[-1] == ["miou", f"{report.miou:.6f}"]


def test_write_report_blanks_nan_classes(tmp_path):
    report = _evaluate(np.array([0, 1]), np.array([0, 1]), classes=3)
    write_report(report, tmp_path)
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["iou"][2] is None
    with open(tmp_path / "report.csv") as f:
        rows = list(csv.reader(f))
    assert rows[3] == ["2", ""]
