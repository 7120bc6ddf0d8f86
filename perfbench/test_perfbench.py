"""The benchmark's own test.

    python3 -m pytest perfbench -q

Runs every workload end to end at toy size, traced and untraced, and shows
that each output check fails once its input is perturbed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracles  # noqa: E402
from run import END_TO_END, unit_of  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*args, cwd=ROOT):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_runs_at_toy_size(workload, trace):
    proc = run_benchmark("--workload", workload, "--seed", "3", "--seconds", "0.1",
                         "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in END_TO_END)


def test_benchmark_json_matches_the_code():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    for m in BENCHMARK["per_layer"]:
        assert unit_of(m["name"]) == m["unit"], m["name"]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("--workload", "adapt", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# each check holds on the program's output and fails on a perturbed one


def _conv_case(stride=2, pad=1, dtype=np.float32):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 9, 8, 3)).astype(dtype)
    w = (rng.standard_normal((4, 4, 3, 5)) / 7).astype(dtype)
    ho, wo = oracles.conv_out_hw(9, 8, 4, 4, stride, pad)
    g = rng.standard_normal((2, ho, wo, 5)).astype(dtype)
    return x, w, g, stride, pad


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
def test_conv_forward_oracle(stride, pad):
    from segan import kernels

    x, w, _, stride, pad = _conv_case(stride, pad)
    out = kernels.conv2d_forward(x, w, stride, pad)
    assert oracles.check_conv_forward(x, w, stride, pad, out, "float32") == []
    assert oracles.check_conv_forward(x, w, stride, pad, out + 1e-3, "float32")
    shifted = np.roll(out, 1, axis=2)
    assert oracles.check_conv_forward(x, w, stride, pad, shifted, "float32")


def test_adjoint_oracles():
    from segan import kernels

    x, w, g, stride, pad = _conv_case()
    gx = kernels.conv2d_bwd_input(g, w, x.shape[1:3], stride, pad)
    gw = kernels.conv2d_bwd_weight(x, g, w.shape[:2], stride, pad)
    assert oracles.check_adjoint(x, w, g, stride, pad, gx, gw, "float32") == []
    gx_bad = gx.copy()
    gx_bad[0, 3, 3, 1] += 0.5
    assert len(oracles.check_adjoint(x, w, g, stride, pad, gx_bad, None, "float32")) == 1
    assert len(oracles.check_adjoint(x, w, g, stride, pad, None, gw * 1.01, "float32")) == 1


def test_miou_oracle_against_the_program():
    from segan.metrics import confusion_matrix, iou_report

    rng = np.random.default_rng(2)
    labels = rng.integers(0, 4, (5, 16, 16)).astype(np.uint8)
    pred = np.where(rng.random(labels.shape) < 0.7, labels, rng.integers(0, 4, labels.shape))
    pred = pred.astype(np.uint8)
    report = iou_report(confusion_matrix(pred, labels, 4)).to_dict()
    assert oracles.check_miou(pred, labels, 4, report) == []
    swapped = pred.copy()
    swapped[pred == 1], swapped[pred == 2] = 2, 1
    assert oracles.check_miou(swapped, labels, 4, report)


def test_gen_bound_oracle_against_the_program():
    from segan.bounds import BoundSpec, bound_report

    spec = BoundSpec(s=(2.1, 1.7, 3.0), b=(1.0, 0.4, 2.2), rho=(1.0, 1.0, 0.25), width=4096,
                     x_norm=12.5, epsilon=1.0, n=10**8, delta=0.05, phi=0.01)
    bounds = {"spec": spec.to_dict(), "statement": bound_report(spec, "statement").to_dict()}
    assert oracles.check_gen_bound(bounds) == []
    bounds["spec"]["s"][0] *= 1.01
    assert oracles.check_gen_bound(bounds)


def test_spectral_norm_oracle_against_the_program():
    from segan.networks import ConvOperator, spectral_norm

    rng = np.random.default_rng(5)
    weights = [rng.standard_normal((4, 4, 2, 3)) / 5, rng.standard_normal((4, 4, 3, 4)) / 5]
    hw, reported = (12, 12), []
    for w, size in zip(weights, oracles.layer_geometry(weights, hw, 2, 1)):
        reported.append(spectral_norm(ConvOperator(w, size, 2, 1), iters=500))
    brackets = oracles.norm_brackets(weights, hw, 2, 1)
    assert all(exact is not None for _, _, exact in brackets)
    assert oracles.check_spectral_norms(brackets, reported) == []
    for factor in (1.01, 0.95):
        assert oracles.check_spectral_norms(brackets, [reported[0] * factor, reported[1]])


def test_spectral_bracket_without_dense_operator(monkeypatch):
    rng = np.random.default_rng(6)
    weights = [rng.standard_normal((4, 4, 2, 3)) / 5]
    (_, _, exact), = oracles.norm_brackets(weights, (12, 12), 2, 1)
    monkeypatch.setattr(oracles, "DENSE_LIMIT", 0)
    brackets = oracles.norm_brackets(weights, (12, 12), 2, 1)
    assert brackets[0][2] is None
    assert oracles.check_spectral_norms(brackets, [exact]) == []
    assert oracles.check_spectral_norms(brackets, [exact * 10])
    assert oracles.check_spectral_norms(brackets, [exact / 10])


def test_dense_operator_matches_the_program():
    from segan.networks import ConvOperator, materialize

    w = np.random.default_rng(8).standard_normal((4, 4, 2, 3))
    ours = oracles.dense_conv_matrix(w, (6, 6), 2, 1)
    np.testing.assert_allclose(ours, materialize(ConvOperator(w, (6, 6), 2, 1)), atol=1e-12)


def test_array_equality_check():
    a = np.random.default_rng(1).random((3, 4)).astype(np.float32)
    assert oracles.check_arrays_equal("x", a, a.copy()) == []
    b = a.copy()
    b.view(np.uint32)[1, 2] ^= 1  # one bit
    assert oracles.check_arrays_equal("x", b, a)
    assert oracles.check_arrays_equal("x", a.astype(np.float64), a)


def test_style_checks_against_the_program():
    from segan.datagen import appearance_gap

    rng = np.random.default_rng(4)
    src = rng.random((3, 8, 8, 3)).astype(np.float32)
    tgt = rng.random((3, 8, 8, 3)).astype(np.float32) ** 2
    labels = rng.integers(0, 4, (3, 8, 8)).astype(np.uint8)
    assert oracles.check_styled(src * 0.9, src, labels, labels.copy()) == []
    assert oracles.check_styled(src * 1.5, src, labels, labels)
    assert oracles.check_styled(src[:, :4], src, labels, labels)
    moved = labels.copy()
    moved[0, 0, 0] ^= 1
    assert oracles.check_styled(src, src, labels, moved)
    gap = appearance_gap(src, tgt)
    assert oracles.check_gap("raw", gap, src, tgt) == []
    assert oracles.check_gap("raw", gap + 1e-6, src, tgt)


def test_loss_progress_check():
    rows = [{"iter": "40", "loss_seg": "0.32"}, {"iter": "80", "loss_seg": "0.37"}]
    assert oracles.check_loss_progress(rows, 4) == []
    assert oracles.check_loss_progress([*rows, {"iter": "120", "loss_seg": "1.4"}], 4)
    assert oracles.check_loss_progress([*rows, {"iter": "120", "loss_seg": "nan"}], 4)
    assert oracles.check_loss_progress([], 4)
