"""Run-configuration parsing and the command-line workflow.

CLI tests call ``cli.main`` in process and assert on exit codes and the
files each subcommand leaves behind; one test goes through the installed
console script to cover packaging and the backend environment flag.
"""

import csv
import json
import math
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from segan import cli
from segan.config import ConfigError, RunConfig, load_config, parse_config
from segan.datagen import benchmark_shifts


# ---------------------------------------------------------------------------
# config parsing


def test_empty_config_is_all_defaults():
    cfg = parse_config({})
    assert cfg == RunConfig()
    assert load_config(None) == RunConfig()


def test_seed_propagates_to_stages():
    cfg = parse_config({"seed": 7})
    assert cfg.train.seed == 7 and cfg.tgstn.seed == 7
    again = cfg.with_seed(9)
    assert again.seed == 9 and again.train.seed == 9 and again.tgstn.seed == 9
    assert cfg.with_seed(None).seed == 7


def test_config_dict_round_trip():
    cfg = parse_config(
        {
            "seed": 5,
            "dataset": {
                "n_source": 12,
                "height": 32,
                "width": 32,
                "target": {
                    "appearance": {"brightness": 0.2, "blur": 0.5},
                    "layout": [
                        {
                            "prob": 0.8,
                            "mean": [0.4, 0.6],
                            "cov": [[0.01, 0.0], [0.0, 0.02]],
                            "size_range": [0.1, 0.2],
                        }
                    ],
                },
            },
            "networks": {"segnet_widths": [8, 16, 16]},
            "train": {"maxiter": 50, "lambda_adv": 0.01},
            "tgstn": {"epochs": 2},
            "bounds": {"epsilon": 0.5, "tight_sigmoid": True},
        }
    )
    assert cfg.dataset.n_source == 12
    assert cfg.dataset.target.appearance.brightness == 0.2
    assert cfg.dataset.target.layout.priors[0].mean == (0.4, 0.6)
    assert cfg.networks.segnet_widths == (8, 16, 16)
    assert cfg.train.maxiter == 50
    assert cfg.bounds.tight_sigmoid is True
    twice = parse_config(cfg.to_dict())
    assert twice == cfg
    assert twice.to_dict() == cfg.to_dict()


@pytest.mark.parametrize(
    "data, path_fragment",
    [
        ({"trian": {}}, "trian"),
        ({"train": {"lr_studnet": 0.1}}, "train.lr_studnet"),
        ({"dataset": {"target": {"appearence": {}}}}, "dataset.target.appearence"),
        ({"dataset": {"target": {"layout": [{"porb": 1.0}]}}}, "dataset.target.layout[0].porb"),
    ],
)
def test_unknown_keys_fail_with_dotted_path(data, path_fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert err.value.path == path_fragment


@pytest.mark.parametrize(
    "data, path_fragment, msg",
    [
        ({"train": {"maxiter": 1.5}}, "train.maxiter", "integer"),
        ({"train": {"maxiter": True}}, "train.maxiter", "integer"),
        ({"train": {"lr_student": "fast"}}, "train.lr_student", "number"),
        ({"networks": {"segnet_widths": [16, "x"]}}, "networks.segnet_widths", "list of numbers"),
        ({"networks": {"stylegen_residual": 1}}, "networks.stylegen_residual", "boolean"),
        ({"dataset": {"classes": 1}}, "dataset.classes", "at least 2"),
        ({"dataset": {"target": {"layout": [{"cov": [[1.0]]}]}}}, "dataset.target.layout[0].cov", "2x2"),
        ({"bounds": {"m_policy": "guess"}}, "bounds.m_policy", "zero"),
        ({"train": {"seed": 3}}, "train.seed", "root"),
        ({"tgstn": {"seed": 3}}, "tgstn.seed", "root"),
        ({"train": []}, "train", "object"),
    ],
)
def test_invalid_values_fail_with_dotted_path(data, path_fragment, msg):
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert err.value.path == path_fragment
    assert msg in str(err.value)


def test_dataset_domain_defaults_are_the_stock_benchmark():
    src, tgt = benchmark_shifts()
    cfg = parse_config({})
    assert cfg.dataset.source == src and cfg.dataset.target == tgt
    # field-level fallback: a partial appearance override keeps the other
    # stock target fields, an explicit layout replaces the stock priors
    cfg = parse_config({"dataset": {"target": {"appearance": {"brightness": 0.3}}}})
    assert cfg.dataset.target.appearance.brightness == 0.3
    assert cfg.dataset.target.appearance.blur == tgt.appearance.blur
    assert cfg.dataset.target.layout == tgt.layout
    prior = {"prob": 1.0, "mean": [0.5, 0.5], "cov": [[0.01, 0.0], [0.0, 0.01]],
             "size_range": [0.1, 0.2]}
    cfg = parse_config({"dataset": {"target": {"layout": [prior]}}})
    assert len(cfg.dataset.target.layout.priors) == 1
    assert cfg.dataset.source == src


def test_semantic_errors_are_config_errors():
    with pytest.raises(ConfigError, match="prob"):
        parse_config({"dataset": {"source": {"layout": [{"prob": 1.5}]}}})
    with pytest.raises(ConfigError, match="alpha"):
        parse_config({"train": {"alpha": 2.0}})


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")


# ---------------------------------------------------------------------------
# CLI workflow


TINY = {
    "seed": 3,
    "dataset": {
        "n_source": 6,
        "n_target": 6,
        "height": 32,
        "width": 32,
        "target": {"appearance": {"brightness": 0.15, "palette_rotation": 0.5}},
    },
    "train": {
        "maxiter": 10,
        "st_maxiter": 4,
        "eval_interval": 5,
        "eval_count": 2,
        "batch_source": 2,
        "batch_target": 2,
        "lambda_adv": 0.01,
    },
    "tgstn": {"epochs": 1},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Config file plus a generated dataset shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(TINY))
    data = root / "data"
    assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(data)]) == 0
    return {"root": root, "config": str(cfg_path), "data": str(data)}


@pytest.fixture(scope="module")
def trained(workdir):
    """An adversarial run whose checkpoint feeds eval and bounds tests."""
    out = workdir["root"] / "run_at"
    code = cli.main(
        ["train", "--config", workdir["config"], "--data", workdir["data"],
         "--mode", "at", "--out", str(out)]
    )
    assert code == 0
    return out


def test_gen_data_writes_dataset_and_manifest(workdir):
    data = workdir["root"] / "data"
    assert sorted(p.name for p in data.iterdir()) == ["dataset.sgt", "run_manifest.json"]
    manifest = json.loads((data / "run_manifest.json").read_text())
    assert manifest["command"] == "gen-data"
    assert manifest["seed"] == 3
    assert manifest["versions"]["tensor_format"] == "SGT1"
    assert manifest["versions"]["dataset_format"] == "segan-dataset-v2"
    assert manifest["versions"]["checkpoint_format"] == "segan-checkpoint-v1"
    assert 0 <= manifest["shift_severity"]["appearance_gap"]
    assert manifest["config"]["dataset"]["n_source"] == 6


def test_gen_data_refuses_populated_dir_without_force(workdir, capsys):
    code = cli.main(
        ["gen-data", "--config", workdir["config"], "--out", workdir["data"]]
    )
    assert code == 4
    assert "--force" in capsys.readouterr().err


def test_gen_data_rerun_is_byte_identical(workdir, tmp_path):
    other = tmp_path / "data2"
    assert cli.main(["gen-data", "--config", workdir["config"], "--out", str(other)]) == 0
    first = workdir["root"] / "data"
    names = sorted(str(p.relative_to(first)) for p in first.rglob("*") if p.is_file())
    assert names == sorted(str(p.relative_to(other)) for p in other.rglob("*") if p.is_file())
    for name in names:
        if name == "run_manifest.json":  # contains wall-clock duration
            continue
        assert (first / name).read_bytes() == (other / name).read_bytes(), name


def test_config_errors_exit_2(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dataset": {"classes": 1}}))
    assert cli.main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "dataset.classes" in capsys.readouterr().err

    notjson = tmp_path / "broken.json"
    notjson.write_text("{oops")
    assert cli.main(["gen-data", "--config", str(notjson), "--out", str(tmp_path / "o2")]) == 2


def test_missing_dataset_exits_4(workdir, tmp_path, capsys):
    code = cli.main(
        ["train", "--config", workdir["config"], "--data", str(tmp_path / "nope"),
         "--mode", "noadapt", "--out", str(tmp_path / "o")]
    )
    assert code == 4
    assert "i/o error" in capsys.readouterr().err


def test_container_mixups_and_truncation_exit_4(workdir, tmp_path, capsys):
    dataset_file = workdir["root"] / "data" / "dataset.sgt"
    code = cli.main(
        ["eval", "--data", workdir["data"], "--checkpoint", str(dataset_file),
         "--out", str(tmp_path / "o")]
    )
    assert code == 4
    assert "holds no networks" in capsys.readouterr().err

    cut = tmp_path / "cut"
    cut.mkdir()
    buf = dataset_file.read_bytes()
    (manifest_len,) = struct.unpack_from("<I", buf, 0)
    (cut / "dataset.sgt").write_bytes(buf[: 4 + manifest_len + 7])  # inside a tensor header
    code = cli.main(
        ["train", "--config", workdir["config"], "--data", str(cut),
         "--mode", "noadapt", "--out", str(tmp_path / "o2")]
    )
    assert code == 4
    assert "truncated" in capsys.readouterr().err


def test_train_writes_reports_and_logs(trained):
    for name in ("report.json", "report.csv", "train_log.csv", "checkpoint.sgt",
                 "run.json", "run_manifest.json"):
        assert (trained / name).exists(), name
    report = json.loads((trained / "report.json").read_text())
    assert 0.0 <= report["miou"] <= 1.0
    assert len(report["iou"]) == 4
    assert report["mode"] == "at"
    rows = (trained / "train_log.csv").read_text().splitlines()
    assert rows[0].split(", ")[0] == "iter"
    # log rows at eval_interval=5 for 10 iterations, plus the final row
    # is already on the interval
    assert [r.split(",")[0] for r in rows[1:]] == ["5", "10"]


def test_twin_train_runs_are_bit_identical(workdir, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main(
            ["train", "--config", workdir["config"], "--data", workdir["data"],
             "--mode", "noadapt", "--out", str(out)]
        )
        assert code == 0
        outs.append(out)
    a, b = outs
    assert (a / "checkpoint.sgt").read_bytes() == (b / "checkpoint.sgt").read_bytes()
    assert (a / "train_log.csv").read_text() == (b / "train_log.csv").read_text()
    assert (a / "report.json").read_text() == (b / "report.json").read_text()


def test_styled_modes_demand_a_style_source(workdir, tmp_path, capsys):
    code = cli.main(
        ["train", "--config", workdir["config"], "--data", workdir["data"],
         "--mode", "at-se-aug", "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "--tgstn" in capsys.readouterr().err


def test_oracle_style_mode_runs(workdir, tmp_path):
    code = cli.main(
        ["train", "--config", workdir["config"], "--data", workdir["data"],
         "--mode", "at-se-aug", "--oracle-style", "--out", str(tmp_path / "o")]
    )
    assert code == 0


def test_numeric_abort_exits_3_with_payload(workdir, tmp_path):
    cfg = dict(TINY)
    cfg["train"] = dict(TINY["train"], lr_student=1e9, maxiter=40)
    cfg_path = tmp_path / "diverge.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    code = cli.main(
        ["train", "--config", str(cfg_path), "--data", workdir["data"],
         "--mode", "noadapt", "--out", str(out)]
    )
    assert code == 3
    payload = json.loads((out / "numeric_abort.json").read_text())
    assert payload["iteration"] >= 1
    bad = [v for v in payload["losses"].values() if isinstance(v, str)]
    assert bad and all(("nan" in v or "inf" in v) for v in bad)


def test_eval_report_and_mst_flag(workdir, trained, tmp_path):
    plain = tmp_path / "plain"
    code = cli.main(
        ["eval", "--data", workdir["data"], "--checkpoint", str(trained / "checkpoint.sgt"),
         "--out", str(plain)]
    )
    assert code == 0
    unit = tmp_path / "unit"
    code = cli.main(
        ["eval", "--data", workdir["data"], "--checkpoint", str(trained / "checkpoint.sgt"),
         "--mst", "1.0", "--out", str(unit)]
    )
    assert code == 0
    r_plain = json.loads((plain / "report.json").read_text())
    r_unit = json.loads((unit / "report.json").read_text())
    assert r_plain["miou"] == r_unit["miou"]
    assert r_plain["mst"] is None and r_unit["mst"] == [1.0]
    # eval covers the whole target split
    assert r_plain["pixel_count"] == 6 * 32 * 32

    assert cli.main(
        ["eval", "--data", workdir["data"], "--checkpoint", str(trained / "checkpoint.sgt"),
         "--mst", "0,1", "--out", str(tmp_path / "bad")]
    ) == 2


def test_eval_rejects_class_mismatched_checkpoint(workdir, trained, tmp_path, capsys):
    cfg = dict(TINY)
    prior = {"prob": 0.9, "mean": [0.5, 0.5], "cov": [[0.008, 0.0], [0.0, 0.008]],
             "size_range": [0.1, 0.2]}
    cfg["dataset"] = dict(
        TINY["dataset"], classes=3,
        source={"layout": [prior, prior]}, target={"layout": [prior, prior]},
    )
    cfg_path = tmp_path / "c3.json"
    cfg_path.write_text(json.dumps(cfg))
    data3 = tmp_path / "data3"
    assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(data3)]) == 0
    code = cli.main(
        ["eval", "--data", str(data3), "--checkpoint", str(trained / "checkpoint.sgt"),
         "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "classes" in capsys.readouterr().err


def test_bounds_payload_is_internally_consistent(workdir, trained, tmp_path):
    out = tmp_path / "bounds"
    code = cli.main(
        ["bounds", "--config", workdir["config"], "--data", workdir["data"],
         "--checkpoint", str(trained / "checkpoint.sgt"), "--out", str(out)]
    )
    assert code == 0
    payload = json.loads((out / "bounds.json").read_text())
    spec = payload["spec"]
    stmt = payload["statement"]
    proof = payload["proof_final_line"]
    assert stmt["variant"] == "statement" and proof["variant"] == "proof-final-line"
    # recompute both covering numbers from the measured spec
    lead = math.log(2 * spec["width"] ** 2) * spec["x_norm"] ** 2 / spec["epsilon"] ** 2
    gain = (np.prod(spec["rho"]) * np.prod(spec["s"])) ** 2
    ratios = [b / s for b, s in zip(spec["b"], spec["s"])]
    assert math.isclose(
        stmt["log_cover"], lead * gain * sum(r ** (2 / 3) for r in ratios) ** 3, rel_tol=1e-9
    )
    assert math.isclose(
        proof["log_cover"], lead * gain * sum(r**2 for r in ratios), rel_tol=1e-9
    )
    # R = eps * sqrt(log_cover) by construction
    assert math.isclose(stmt["log_cover"], (stmt["R"] / spec["epsilon"]) ** 2, rel_tol=1e-12)
    # under the zero reference policy b == s, so the mixes are 5^3 and 5
    assert math.isclose(stmt["log_cover"] / proof["log_cover"], 25.0, rel_tol=1e-9)
    assert stmt["rademacher"] > 0 and stmt["gen_bound"] > 0
    assert proof["gen_bound"] <= stmt["gen_bound"]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["gen_bound"] == stmt["gen_bound"]


def test_bounds_demands_discriminator(workdir, tmp_path, capsys):
    # a no-adaptation checkpoint carries no discriminator
    out = tmp_path / "noadapt"
    assert cli.main(
        ["train", "--config", workdir["config"], "--data", workdir["data"],
         "--mode", "noadapt", "--out", str(out)]
    ) == 0
    code = cli.main(
        ["bounds", "--data", workdir["data"],
         "--checkpoint", str(out / "checkpoint.sgt"), "--out", str(tmp_path / "b")]
    )
    assert code == 2
    assert "discriminator" in capsys.readouterr().err


def test_train_tgstn_then_styled_training(workdir, tmp_path):
    out = tmp_path / "tgstn"
    code = cli.main(
        ["train-tgstn", "--config", workdir["config"], "--data", workdir["data"],
         "--out", str(out)]
    )
    assert code == 0
    assert (out / "tgstn.sgt").exists()
    log = (out / "tgstn_log.csv").read_text().splitlines()
    assert log[0] == "iter, lr_gen, lr_disc, loss_style, loss_sem, loss_per"
    assert len(log) == 1 + 1 * (6 // 2)  # epochs * (n_source // batch_source)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert set(manifest["appearance_gap"]) == {"raw", "styled"}

    styled = tmp_path / "styled_run"
    code = cli.main(
        ["train", "--config", workdir["config"], "--data", workdir["data"],
         "--mode", "full", "--tgstn", str(out / "tgstn.sgt"), "--out", str(styled)]
    )
    assert code == 0

    both = cli.main(
        ["train", "--config", workdir["config"], "--data", workdir["data"],
         "--mode", "full", "--tgstn", str(out / "tgstn.sgt"), "--oracle-style",
         "--out", str(tmp_path / "x")]
    )
    assert both == 2


def test_train_tgstn_batch_above_source_count_exits_2(workdir, tmp_path, capsys, monkeypatch):
    def no_pretraining(*args, **kwargs):
        pytest.fail("phi pretraining ran before the batch check")

    monkeypatch.setattr(cli, "pretrain_phi", no_pretraining)
    cfg = dict(TINY, tgstn={"epochs": 1, "batch_source": 7})
    cfg_path = tmp_path / "big_batch.json"
    cfg_path.write_text(json.dumps(cfg))
    code = cli.main(
        ["train-tgstn", "--config", str(cfg_path), "--data", workdir["data"],
         "--out", str(tmp_path / "o")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "batch_source is 7" in err and "n_source=6" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_export_plots_cross_checks(workdir, tmp_path):
    runs = {}
    for mode in ("noadapt", "at"):
        out = tmp_path / mode
        assert cli.main(
            ["train", "--config", workdir["config"], "--data", workdir["data"],
             "--mode", mode, "--out", str(out)]
        ) == 0
        runs[mode] = out
    plots = tmp_path / "plots"
    code = cli.main(
        ["export-plots", "--runs", str(runs["noadapt"]), str(runs["at"]),
         "--out", str(plots)]
    )
    assert code == 0

    with open(plots / "table3_ablation.csv", newline="") as f:
        table = list(csv.DictReader(f))
    by_mode = {row["mode"]: float(row["miou"]) for row in table}
    for mode, out in runs.items():
        assert by_mode[mode] == json.loads((out / "report.json").read_text())["miou"]

    with open(plots / "fig6_stability.csv", newline="") as f:
        fig6 = list(csv.reader(f))
    assert fig6[0] == ["iter", "noadapt-s3", "at-s3"]
    assert [row[0] for row in fig6[1:]] == ["5", "10"]

    with open(plots / "fig7_gains.csv", newline="") as f:
        fig7 = list(csv.reader(f))
    assert fig7[0] == ["class", "at-s3"]
    base = json.loads((runs["noadapt"] / "report.json").read_text())["iou"]
    adapted = json.loads((runs["at"] / "report.json").read_text())["iou"]
    for row in fig7[1:]:
        c = int(row[0])
        if base[c] is None or adapted[c] is None:
            assert row[1] == ""
        else:
            assert math.isclose(float(row[1]), adapted[c] - base[c], rel_tol=1e-12)


def test_export_plots_missing_run_dir_exits_4(workdir, tmp_path, capsys):
    code = cli.main(
        ["export-plots", "--runs", str(tmp_path / "ghost"), "--out", str(tmp_path / "p")]
    )
    assert code == 4
    assert "missing" in capsys.readouterr().err


def test_parser_level_errors_raise_system_exit():
    with pytest.raises(SystemExit) as err:
        cli.main(["train", "--out", "x"])  # --data and --mode are required
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 2


def test_console_script_with_numpy_backend(workdir, tmp_path):
    exe = shutil.which("segan")
    assert exe, "console script not installed"
    env = dict(os.environ, SEGAN_BACKEND="numpy")
    ver = subprocess.run([exe, "--version"], capture_output=True, text=True, env=env)
    assert ver.returncode == 0 and ver.stdout.startswith("segan ")
    out = tmp_path / "sub"
    res = subprocess.run(
        [exe, "train", "--config", workdir["config"], "--data", workdir["data"],
         "--mode", "noadapt", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 0, res.stderr
    assert (out / "checkpoint.sgt").exists()
    # backend choice cannot change results
    ref = tmp_path / "ref"
    assert cli.main(
        ["train", "--config", workdir["config"], "--data", workdir["data"],
         "--mode", "noadapt", "--out", str(ref)]
    ) == 0
    a = (out / "report.json").read_text()
    b = (ref / "report.json").read_text()
    assert a == b
