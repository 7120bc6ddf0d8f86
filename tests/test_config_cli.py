"""Run-configuration parsing and the command-line workflow.

CLI tests call ``cli.main`` in process and assert on exit codes and the
files each subcommand leaves behind; one test goes through the installed
console script to cover packaging.
"""

import csv
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from segan import cli, datagen, sgt
from segan.bounds import BoundsConfig, measure_discriminator
from segan.config import ConfigError, RunConfig, load_config, parse_config
from segan.datagen import ClassPrior, benchmark_shifts
from segan.networks import ModelBundle, SegNetSpec, build_segnet, predict_segmentation
from segan.trainer import (apply_style_generator, load_bundle, pretrain_phi, run_ablation,
                           save_bundle, train_tgstn)
from segan.utils import derive_seed

from references import MALFORMED_DATASETS, checkpoint_corruptions, resave_dataset

SRC_ROOT = Path(__file__).resolve().parents[1] / "src"
PAPER_CONFIG = SRC_ROOT.parent / "configs" / "paper.json"


# ---------------------------------------------------------------------------
# config parsing


def test_empty_config_is_all_defaults():
    cfg = parse_config({})
    assert cfg == RunConfig()
    assert load_config(None) == RunConfig()


def test_paper_config_sets_only_train_and_tgstn_values_off_their_defaults():
    # the defaults are desk-scale and the paper-scale values are this one
    # file, so each value it holds moves a default and none restates one
    data = json.loads(PAPER_CONFIG.read_text())
    cfg, default = load_config(PAPER_CONFIG), RunConfig()
    assert set(data) == {"train", "tgstn"}
    for sect, values in data.items():
        for key, value in values.items():
            got, stock = getattr(getattr(cfg, sect), key), getattr(getattr(default, sect), key)
            assert got == value != stock, f"{sect}.{key}"
    assert replace(cfg, train=default.train, tgstn=default.tgstn) == default


def test_seed_propagates_to_stages(workdir, tmp_path):
    cfg = parse_config({"seed": 7})
    assert cfg.with_seed(9).seed == 9
    assert cfg.with_seed(None).seed == 7
    # --seed reaches every stage: the CLI's nets equal the library's at seed 9
    cfg = load_config(workdir["config"])
    ds = datagen.load_dataset(workdir["data"])
    argv = ["--config", workdir["config"], "--data", workdir["data"], "--seed", "9"]
    assert cli.main(["train", *argv, "--mode", "noadapt", "--out", str(tmp_path / "t")]) == 0
    _, bundle, _ = run_ablation("noadapt", ds, cfg.train, 9)
    loaded, _ = load_bundle(tmp_path / "t" / "checkpoint.sgt")
    for name, arr in bundle.student.values.items():
        assert np.array_equal(loaded.student.values[name], arr), name
    assert cli.main(["train-tgstn", *argv, "--out", str(tmp_path / "g")]) == 0
    phi = pretrain_phi(ds, 9, networks=cfg.networks)
    gen, _ = train_tgstn(cfg.tgstn, ds, phi, 9, networks=cfg.networks)
    loaded, _ = load_bundle(tmp_path / "g" / "tgstn.sgt")
    for name, arr in gen.values.items():
        assert np.array_equal(loaded.generator.values[name], arr), name


def test_config_dict_round_trip():
    cfg = parse_config(
        {
            "seed": 5,
            "dataset": {
                "n_source": 12,
                "height": 32,
                "width": 32,
                "classes": 2,
                "source": {"layout": [{"prob": 0.9}]},
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
            "train": {"maxiter": 50, "lambda_adv": 0.02},
            "tgstn": {"epochs": 2},
            "bounds": {"epsilon": 0.5, "tight_sigmoid": True},
        }
    )
    assert cfg.dataset.n_source == 12
    assert cfg.dataset.target.appearance.brightness == 0.2
    assert cfg.dataset.target.layout[0].mean == (0.4, 0.6)
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
        ({"bounds": {"m_seed": 0}}, "bounds.m_seed"),
        ({"train": {"adv_target_only": True}}, "train.adv_target_only"),
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
        ({"train": {"at": False}}, "train.at", "--mode"),
        ({"train": {"se": True}}, "train.se", "--mode"),
        ({"train": {"aug": False}}, "train.aug", "--mode"),
        ({"train": {"st": True}}, "train.st", "--mode"),
        ({"train": {"mst": False}}, "train.mst", "--mode"),
        # The id predates the path narrowing from the section to the field; kept stable.
        pytest.param({"tgstn": {"lr_gen": -0.1}}, "tgstn.lr_gen", "lr_gen must be >= 0",
                     id="data16-tgstn-lr_gen must be >= 0"),
        ({"networks": {"segnet_widths": [8.5, 16, 16]}}, "networks.segnet_widths", "integers"),
        ({"bounds": {"power_iters": 0}}, "bounds.power_iters", ">= 1"),
        ({"train": {"checkpoint_interval": -5}}, "train.checkpoint_interval", ">= 0"),
        ({"dataset": {"classes": 9}}, "dataset.classes", "at most 8 classes"),
        ({"dataset": {"classes": 3}}, "dataset.source.layout", "need 2 class priors, got 3"),
        ({"dataset": {"classes": 3, "source": {"layout": [{}, {}]}}}, "dataset.target.layout",
         "need 2 class priors, got 3"),
        ({"dataset": {"source": {"layout": [{"cov": [[1.0, 2.0], [2.0, 1.0]]}, {}, {}]}}},
         "dataset.source.layout[0]", "positive semi-definite"),
        # Python's json reads NaN and Infinity
        ({"train": {"mst_scales": [1.0, float("nan")]}}, "train.mst_scales", "finite numbers"),
        ({"bounds": {"epsilon": float("inf")}}, "bounds.epsilon", "finite number"),
        ({"train": {"st_lr": None}}, "train.st_lr", "finite number"),
    ],
)
def test_invalid_values_fail_with_dotted_path(data, path_fragment, msg):
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert err.value.path == path_fragment
    assert msg in str(err.value)


def test_written_config_leaves_out_what_the_program_sets():
    written = RunConfig().to_dict()
    assert not {"seed", "at", "se", "aug", "st", "mst"} & set(written["train"])
    assert "seed" not in written["tgstn"] and "m_seed" not in written["bounds"]
    assert parse_config(written) == RunConfig()


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
    cfg = parse_config({"dataset": {"target": {"layout": [prior] * 3}}})
    assert cfg.dataset.target.layout == (ClassPrior(**prior),) * 3 != tgt.layout
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
    "train": {"maxiter": 10, "st_maxiter": 4, "eval_interval": 5, "eval_count": 2},
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


@pytest.mark.parametrize("where", ["flag", "file"])
@pytest.mark.parametrize(
    "argv",
    [["gen-data"], ["train-tgstn", "--data", "d"], ["train", "--data", "d", "--mode", "at"],
     ["eval", "--data", "d", "--checkpoint", "c"], ["bounds", "--data", "d", "--checkpoint", "c"],
     ["export-plots", "--runs", "r"]],
    ids=lambda argv: argv[0],
)
def test_negative_seed_is_a_config_error_before_out_exists(tmp_path, capsys, argv, where):
    # the seed is checked with the config, before any input is read
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": -3}))
    seed = ["--seed", "-1"] if where == "flag" else ["--config", str(config)]
    assert cli.main([*argv, *seed, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: seed: ")
    assert ("got -1" if where == "flag" else "got -3") in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_config_errors_exit_2(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dataset": {"classes": 1}}))
    assert cli.main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "dataset.classes" in capsys.readouterr().err

    assert not (tmp_path / "o").exists()

    notjson = tmp_path / "broken.json"
    notjson.write_text("{oops")
    assert cli.main(["gen-data", "--config", str(notjson), "--out", str(tmp_path / "o2")]) == 2


@pytest.mark.parametrize(
    "dataset, path",
    [({"classes": 9}, "dataset.classes"), ({"classes": 3}, "dataset.source.layout"),
     ({"target": {"layout": [{}, {}, {"cov": [[1.0, 2.0], [2.0, 1.0]]}]}},
      "dataset.target.layout[2]")],
    ids=["palette", "layout", "covariance"],
)
def test_gen_data_datasets_it_cannot_render_exit_2(tmp_path, capsys, dataset, path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dataset": dataset}))
    out = tmp_path / "o"
    assert cli.main(["gen-data", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and path in err and "Traceback" not in err
    assert not out.exists()


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


def test_corrupt_checkpoint_containers_exit_4(workdir, tmp_path, capsys):
    # a checkpoint cut at every byte, and each tensor header's dtype and ndim
    # bytes flipped: each one is an i/o error, never a traceback or exit 2
    path = tmp_path / "ckpt.sgt"
    sgt.save_checkpoint(path, {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                               "labels": np.array([0, 1, 3, 2], dtype=np.uint8)}, {"seed": 1})
    bad, out = tmp_path / "bad.sgt", tmp_path / "o"
    wrong = []
    for case, data in checkpoint_corruptions(path.read_bytes()):
        bad.write_bytes(data)
        code = cli.main(["eval", "--data", workdir["data"], "--checkpoint", str(bad),
                         "--out", str(out)])
        err = capsys.readouterr().err
        if code != 4 or not err.startswith("i/o error:") or "Traceback" in err:
            wrong.append((case, code, err))
    assert wrong == []
    assert not out.exists()


def test_malformed_dataset_manifest_exits_4(workdir, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    manifest = json.dumps(
        {"format": "segan-checkpoint-v1", "meta": {"format": "segan-dataset-v2"}}
    ).encode()
    (bad / "dataset.sgt").write_bytes(struct.pack("<I", len(manifest)) + manifest)
    code = cli.main(
        ["train", "--config", workdir["config"], "--data", str(bad),
         "--mode", "noadapt", "--out", str(tmp_path / "o")]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert "tensors" in err and "Traceback" not in err


def test_train_writes_reports_and_logs(trained):
    report = json.loads((trained / "report.json").read_text())
    assert 0.0 <= report["miou"] <= 1.0
    assert len(report["iou"]) == 4
    record = json.loads((trained / "run_manifest.json").read_text())
    assert record["mode"] == "at" and record["miou"] == report["miou"]
    rows = (trained / "train_log.csv").read_text().splitlines()
    assert rows[0].split(",")[0] == "iter"
    # log rows at eval_interval=5 for 10 iterations, plus the final row
    # is already on the interval
    assert [r.split(",")[0] for r in rows[1:]] == ["5", "10"]


def test_train_run_has_one_record(workdir, tmp_path):
    out = tmp_path / "at-se"
    assert cli.main(
        ["train", "--config", workdir["config"], "--data", workdir["data"],
         "--mode", "at-se", "--out", str(out)]
    ) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "checkpoint.sgt", "report.csv", "report.json", "run_manifest.json", "train_log.csv"]
    record = json.loads((out / "run_manifest.json").read_text())
    cfg = load_config(workdir["config"])
    assert (record["command"], record["mode"], record["seed"]) == ("train", "at-se", 3)
    assert parse_config(record["config"]) == cfg
    assert "out" not in record
    # the mode is written only in the record
    for name in ("report.json", "report.csv", "train_log.csv", "checkpoint.sgt"):
        assert b"at-se" not in (out / name).read_bytes(), name
    assert set(json.loads((out / "report.json").read_text())) == {
        "iou", "miou", "pixel_count", "classes"}
    # the checkpoint holds what load_bundle and bounds read, and the trained nets
    loaded, meta = load_bundle(out / "checkpoint.sgt")
    assert set(meta) == {"specs", "seed", "iteration"}
    assert (meta["seed"], meta["iteration"]) == (3, 10)
    ds = datagen.load_dataset(workdir["data"])
    _, bundle, _ = run_ablation("at-se", ds, cfg.train, 3)
    for comp in ("student", "teacher", "disc"):
        for name, arr in getattr(bundle, comp).values.items():
            assert np.array_equal(getattr(loaded, comp).values[name], arr), (comp, name)
    plots = tmp_path / "plots"
    assert cli.main(["export-plots", "--runs", str(out), "--out", str(plots)]) == 0
    with open(plots / "fig6_stability.csv", newline="") as f:
        assert next(csv.reader(f)) == ["iter", "at-se-s3"]


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
    assert not (tmp_path / "o").exists()


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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(
            ["train", "--config", str(cfg_path), "--data", workdir["data"],
             "--mode", "noadapt", "--out", str(out)]
        )
    assert code == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    payload = json.loads((out / "numeric_abort.json").read_text())
    assert payload["iteration"] >= 1
    bad = [v for v in payload["losses"].values() if isinstance(v, str)]
    assert bad and all(("nan" in v or "inf" in v) for v in bad)


@pytest.mark.parametrize(
    "command, section, key, net",
    [("train", "train", "lr_student", "student/"), ("train-tgstn", "tgstn", "lr_gen", "gen/")],
)
def test_non_finite_parameters_exit_3_with_payload(workdir, tmp_path, capsys,
                                                    command, section, key, net):
    cfg = dict(TINY, **{section: dict(TINY[section], **{key: 1e39})})
    cfg_path = tmp_path / "overflow.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    argv = [command, "--config", str(cfg_path), "--data", workdir["data"], "--out", str(out)]
    if command == "train":
        argv += ["--mode", "noadapt"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    payload = json.loads((out / "numeric_abort.json").read_text())
    assert payload["iteration"] == 1
    assert payload["params"] and all(p.startswith(net) for p in payload["params"])
    assert all(isinstance(v, float) for v in payload["losses"].values())
    err = capsys.readouterr().err
    assert "numeric_abort.json" in err and "Traceback" not in err


def test_ablation_flags_in_a_config_exit_2(workdir, tmp_path, capsys):
    cfg = dict(TINY, train=dict(TINY["train"], at=False, se=False, aug=False))
    cfg_path = tmp_path / "flags.json"
    cfg_path.write_text(json.dumps(cfg))
    code = cli.main(
        ["train", "--config", str(cfg_path), "--data", workdir["data"],
         "--mode", "full", "--oracle-style", "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "train.at" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
    m_plain = json.loads((plain / "run_manifest.json").read_text())
    m_unit = json.loads((unit / "run_manifest.json").read_text())
    assert m_plain["inputs"]["mst"] is None and m_unit["inputs"]["mst"] == [1.0]
    assert m_unit["inputs"]["checkpoint"] == str(trained / "checkpoint.sgt")
    # eval covers the whole target split
    assert r_plain["pixel_count"] == 6 * 32 * 32

    for scales in ("0,1", "nan", "inf", "1,inf"):
        assert cli.main(
            ["eval", "--data", workdir["data"], "--checkpoint", str(trained / "checkpoint.sgt"),
             "--mst", scales, "--out", str(tmp_path / "bad")]
        ) == 2, scales
        assert not (tmp_path / "bad").exists(), scales


@pytest.fixture(scope="module")
def stock_eval(tmp_path_factory):
    """The stock 200+200-scene dataset and a checkpoint of a fresh stock
    segmenter."""
    root = tmp_path_factory.mktemp("stock")
    assert cli.main(["gen-data", "--out", str(root / "data")]) == 0
    save_bundle(root / "checkpoint.sgt",
                ModelBundle(student=build_segnet(SegNetSpec(), seed=4)), seed=1)
    return root


def test_stock_dataset_load_holds_none_of_its_arrays(stock_eval):
    # a load that copied the arrays peaked at 20.35 MiB; a mapped load holds
    # only the metadata
    datagen.load_dataset(stock_eval / "data")  # warm-up
    tracemalloc.start()
    try:
        ds = datagen.load_dataset(stock_eval / "data")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.n_source == ds.n_target == 200
    assert peak < 2**20, peak / 2**20


def test_rewriting_a_loaded_dataset_leaves_its_arrays(workdir, tmp_path):
    # every writer replaces a file by rename, and a map keeps the file it
    # was made from
    data = tmp_path / "data"
    argv = ["gen-data", "--config", workdir["config"], "--out", str(data)]
    assert cli.main(argv) == 0
    ds = datagen.load_dataset(data)
    first = {name: arr.tobytes() for name, arr in ds.arrays.items()}
    assert cli.main([*argv, "--force", "--seed", "4"]) == 0
    for name, arr in ds.arrays.items():
        assert arr.tobytes() == first[name], name
    again = datagen.load_dataset(data)
    assert again.seed == 4 and again.source_images().tobytes() != first["source/images"]


@pytest.mark.parametrize("mst", [[], ["--mst", "0.75,1,1.25"]], ids=["single", "mst"])
def test_eval_holds_no_dataset_array(stock_eval, tmp_path, mst):
    # loading both domains peaked at 23.6 MiB (24.9 MiB with --mst), copying
    # the target alone at 11.9 (13.3), mapping it at 1.7 (3.2), mapping and
    # checking both at 1.9 (3.4): no array is copied
    runs = iter(range(2))

    def run():
        return cli.main(["eval", "--data", str(stock_eval / "data"),
                         "--checkpoint", str(stock_eval / "checkpoint.sgt"),
                         "--out", str(tmp_path / f"e{next(runs)}"), *mst])

    assert run() == 0  # warm-up
    tracemalloc.start()
    try:
        code = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert (tmp_path / "e0" / "report.json").read_bytes() == (
        tmp_path / "e1" / "report.json").read_bytes()
    assert peak < 6 * 2**20, peak / 2**20


@pytest.mark.parametrize(
    "edit, match",
    [(lambda a: a["source/images"].__setitem__((1, 2, 3, 0), np.nan),
      "'source/images' holds non-finite values"),
     (lambda a: a["source/labels"].__setitem__((1, 2, 3), 4),
      "source labels reach 4, but the dataset has 4 classes")],
    ids=["nan-image", "label-range"],
)
@pytest.mark.parametrize("command", [["eval"], ["eval", "--mst", "0.75,1"], ["bounds"]],
                         ids=["eval", "eval-mst", "bounds"])
def test_a_bad_source_payload_fails_every_command(workdir, trained, tmp_path, capsys, command,
                                                  edit, match):
    # every command loads and checks both domains, including the ones that
    # read the target alone
    tensors, meta = sgt.load_checkpoint(workdir["root"] / "data" / "dataset.sgt")
    tensors = {name: arr.copy() for name, arr in tensors.items()}
    edit(tensors)
    (tmp_path / "data").mkdir()
    sgt.save_checkpoint(tmp_path / "data" / "dataset.sgt", tensors, meta)
    code = cli.main([*command, "--config", workdir["config"], "--data", str(tmp_path / "data"),
                     "--checkpoint", str(trained / "checkpoint.sgt"),
                     "--out", str(tmp_path / "o")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and match in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("edit, match", MALFORMED_DATASETS)
@pytest.mark.parametrize("command", ["eval", "bounds"])
def test_a_malformed_dataset_fails_eval_and_bounds(workdir, trained, tmp_path, capsys, command,
                                                   edit, match):
    # eval and bounds load the whole container as train does, so each
    # malformed dataset fails them at the load, before the class check
    data = resave_dataset(tmp_path / "data", edit)
    code = cli.main([command, "--config", workdir["config"], "--data", str(data),
                     "--checkpoint", str(trained / "checkpoint.sgt"),
                     "--out", str(tmp_path / "o")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and re.search(match, err) and "Traceback" not in err
    assert not (tmp_path / "o").exists()


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


def test_bounds_checks_out_before_it_loads_anything(workdir, trained, tmp_path, monkeypatch,
                                                    capsys):
    out = tmp_path / "b"
    out.mkdir()
    (out / "keep").write_text("x")

    def unreachable(path):
        raise AssertionError("bounds loaded its checkpoint before it checked --out")

    monkeypatch.setattr(cli, "load_bundle", unreachable)
    code = cli.main(["bounds", "--config", workdir["config"], "--data", workdir["data"],
                     "--checkpoint", str(trained / "checkpoint.sgt"), "--out", str(out)])
    assert code == 4
    assert "not empty" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["keep"]


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


@pytest.mark.parametrize(
    "edit",
    [
        lambda t, meta: meta["specs"]["student"].pop("kind"),
        lambda t, meta: meta["specs"]["student"].update(kind="UNet"),
        lambda t, meta: meta["specs"]["student"].update(depth=3),
        lambda t, meta: meta["specs"]["student"].update(widths="16,32,32"),
        lambda t, meta: meta.update(specs=[meta["specs"]["student"]]),
        lambda t, meta: t["student/conv0/w"].__setitem__((0, 0, 0, 0), np.nan),
        lambda t, meta: t["disc/conv0/w"].__setitem__((0, 0, 0, 0), -np.inf),
        lambda t, meta: t.pop("student/head/w"),
        lambda t, meta: t.__setitem__("student/extra/w", np.zeros(3, np.float32)),
        lambda t, meta: t.__setitem__("student/head/b", np.zeros(5, np.float32)),
        lambda t, meta: meta["specs"]["student"].update(widths=[16, 32, 64]),
        lambda t, meta: t.__setitem__("critic/w", np.zeros(3, np.float32)),
        lambda t, meta: meta["specs"]["disc"].update(stride=0),
        lambda t, meta: (meta["specs"]["disc"].update(in_channels=3),
                         t.update({"disc/conv0/w": t["disc/conv0/w"][:, :, :3]})),
    ],
    ids=["no-kind", "unknown-kind", "unknown-field", "string-widths", "specs-list",
         "nan-weight", "inf-weight", "missing-tensor", "extra-tensor", "shape-disagrees",
         "widths-disagree", "tensor-of-no-net", "disc-stride-zero", "disc-channels-disagree"],
)
@pytest.mark.parametrize("command", ["eval", "bounds"])
def test_malformed_checkpoint_specs_exit_4(workdir, trained, tmp_path, capsys, command, edit):
    tensors, meta = sgt.load_checkpoint(trained / "checkpoint.sgt")
    tensors = {name: arr.copy() for name, arr in tensors.items()}  # the edits write in place
    edit(tensors, meta)
    bad = tmp_path / "bad.sgt"
    sgt.save_checkpoint(bad, tensors, meta)
    code = cli.main([command, "--data", workdir["data"], "--checkpoint", str(bad),
                     "--out", str(tmp_path / "o")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_a_disc_kernel_that_collapses_a_layer_exits_2(workdir, trained, tmp_path, capsys):
    # a checkpoint's disc spec may set any kernel; at kernel 7 the 32x32
    # input collapses at the fifth layer, which the size check reports
    tensors, meta = sgt.load_checkpoint(trained / "checkpoint.sgt")
    meta["specs"]["disc"]["kernel"] = 7
    for name, arr in tensors.items():
        if name.startswith("disc/") and name.endswith("/w"):
            tensors[name] = np.full((7, 7, *arr.shape[2:]), 0.01, dtype=np.float32)
    bad = tmp_path / "k7.sgt"
    sgt.save_checkpoint(bad, tensors, meta)
    code = cli.main(["bounds", "--data", workdir["data"], "--checkpoint", str(bad),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "collapses" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_an_internal_value_error_is_no_config_error(workdir, trained, tmp_path, capsys,
                                                    monkeypatch):
    # exit 2 is for input that does not fit; a ValueError from the
    # program's own code is a bug and ends in a traceback
    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "evaluate_student", broken)
    with pytest.raises(ValueError, match="internal"):
        cli.main(["eval", "--data", workdir["data"], "--checkpoint",
                  str(trained / "checkpoint.sgt"), "--out", str(tmp_path / "o")])
    assert "config error:" not in capsys.readouterr().err


def _segan_env(blas_threads):
    """The environment of a subprocess that imports ``segan`` from this
    checkout, with ``OPENBLAS_NUM_THREADS`` set to ``blas_threads`` or, for
    None, unset."""
    env = dict(os.environ, PYTHONPATH=str(SRC_ROOT))
    env.pop("OPENBLAS_NUM_THREADS", None)
    return env if blas_threads is None else {**env, "OPENBLAS_NUM_THREADS": blas_threads}


def test_bounds_json_does_not_depend_on_the_blas_thread_count(workdir, trained, tmp_path):
    # BLAS's threaded dot rounded the input norm differently at 1 and at 2
    # or more threads; the norms on the bound's path are numpy's own sums
    runs = {}
    for threads in ("1", "2", "4"):
        out = tmp_path / f"b{threads}"
        res = subprocess.run(
            [sys.executable, "-m", "segan.cli", "bounds", "--config", workdir["config"],
             "--data", workdir["data"], "--checkpoint", str(trained / "checkpoint.sgt"),
             "--out", str(out)],
            env=_segan_env(threads), capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        runs[threads] = (out / "bounds.json").read_bytes()
        record = json.loads((out / "run_manifest.json").read_text())
        assert record["openblas_num_threads"] == threads
    assert runs["1"] == runs["2"] == runs["4"]


def test_importing_segan_pins_blas_to_one_thread_unless_set():
    code = "import os, segan, numpy; print(os.environ['OPENBLAS_NUM_THREADS'])"
    for given, expected in ((None, "1"), ("3", "3")):
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=_segan_env(given), check=True)
        assert res.stdout.strip() == expected, given


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


def _config_file(tmp_path, **sections) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(TINY, **sections)))
    return str(path)


@pytest.mark.parametrize(
    "side, argv, message",
    [
        (30, ["train", "--mode", "noadapt"], "30x30 not divisible by 4"),
        (16, ["train", "--mode", "at"], "16x16 smaller than minimum 32"),
        (16, ["train-tgstn"], "16x16 smaller than minimum 32"),
        (30, ["eval", "--checkpoint"], "30x30 not divisible by 4"),
        (30, ["bounds", "--checkpoint"], "30x30 not divisible by 4"),
        (16, ["bounds", "--checkpoint"], "16x16 smaller than minimum 32"),
    ],
    ids=["train-30", "train-at-16", "tgstn-16", "eval-30", "bounds-30", "bounds-16"],
)
def test_dataset_sizes_the_nets_cannot_take_exit_2(trained, tmp_path, capsys, side, argv,
                                                    message):
    config = _config_file(tmp_path, dataset=dict(TINY["dataset"], height=side, width=side))
    data = str(tmp_path / "data")
    assert cli.main(["gen-data", "--config", config, "--out", data]) == 0
    if argv[-1] == "--checkpoint":
        argv = argv + [str(trained / "checkpoint.sgt")]
    code = cli.main([*argv, "--config", config, "--data", data, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv, sections, seed, code, first_line",
    [
        (["train-tgstn"], {"networks": {"stylegen_widths": [0]}}, None, 2,
         "config error: networks.stylegen_widths: "),
        (["train", "--mode", "at"], {"networks": {"disc_widths": [8, 16]}}, None, 2,
         "config error: networks.disc_widths: "),
        (["train", "--mode", "noadapt"], {"networks": {"segnet_widths": []}}, None, 2,
         "config error: networks.segnet_widths: "),
        (["train", "--mode", "noadapt"], {"networks": {"segnet_downsample": 5}}, None, 2,
         "config error: networks.segnet_downsample: "),
        (["train", "--mode", "full-mst", "--oracle-style"],
         {"train": dict(TINY["train"], mst_scales=[-1.0])}, None, 2,
         "config error: train.mst_scales: "),
        (["train", "--mode", "full-mst", "--oracle-style"],
         {"train": dict(TINY["train"], mst_scales=[])}, None, 2,
         "config error: train.mst_scales: "),
        (["train-tgstn"], {"tgstn": {"epochs": 1, "lr_gen": -0.1}}, None, 2,
         "config error: tgstn.lr_gen: "),
        (["train", "--mode", "noadapt"], {"train": dict(TINY["train"], alpha=2)}, None, 2,
         "config error: train.alpha: "),
        (["train", "--mode", "noadapt"], {"train": dict(TINY["train"], eval_count=-3)}, None,
         2, "config error: train.eval_count: "),
        (["bounds"], {"bounds": {"n": 10}}, None, 2, "config error: bounds.n: "),
        (["bounds"], {}, -1, 4, "i/o error: "),
        (["bounds"], {}, 1.5, 4, "i/o error: "),
        (["bounds"], {}, True, 4, "i/o error: "),
    ],
    ids=["stylegen-widths", "disc-widths", "segnet-widths", "segnet-downsample",
         "mst-negative", "mst-empty", "tgstn-lr", "train-alpha", "train-eval-count",
         "bounds-n", "checkpoint-seed-negative", "checkpoint-seed-fraction",
         "checkpoint-seed-bool"],
)
def test_bad_values_exit_at_their_path_before_out_exists(workdir, trained, tmp_path, capsys,
                                                         argv, sections, seed, code,
                                                         first_line):
    argv = [*argv, "--config", _config_file(tmp_path, **sections), "--data", workdir["data"]]
    if argv[0] == "bounds":
        checkpoint = trained / "checkpoint.sgt"
        if seed is not None:
            tensors, meta = sgt.load_checkpoint(checkpoint)
            checkpoint = tmp_path / "reseeded.sgt"
            sgt.save_checkpoint(checkpoint, tensors, dict(meta, seed=seed))
        argv += ["--checkpoint", str(checkpoint)]
    assert cli.main([*argv, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err.splitlines()[0].startswith(first_line) and "Traceback" not in err
    assert seed is None or "reseeded.sgt: metadata seed must be" in err
    assert not (tmp_path / "o").exists()


def test_bounds_takes_the_bounds_section_whole(workdir, trained, tmp_path):
    bounds = {"epsilon": 0.5, "n": 10**9, "delta": 0.1, "phi": 0.01, "m_policy": "init",
              "tight_sigmoid": True, "power_iters": 7, "batch_count": 3}
    config = _config_file(tmp_path, bounds=bounds)
    cfg = load_config(config)
    assert all(getattr(cfg.bounds, f.name) != getattr(BoundsConfig(), f.name)
               for f in fields(BoundsConfig))
    out = tmp_path / "b"
    assert cli.main(["bounds", "--config", config, "--data", workdir["data"],
                     "--checkpoint", str(trained / "checkpoint.sgt"), "--out", str(out)]) == 0
    bundle, meta = load_bundle(trained / "checkpoint.sgt")
    ds = datagen.load_dataset(workdir["data"])
    probs, _ = predict_segmentation(bundle.student, ds.target_images()[:3])
    spec = measure_discriminator(bundle.disc, probs, cfg.bounds, derive_seed(meta["seed"], "disc"))
    assert json.loads((out / "bounds.json").read_text())["spec"] == spec.to_dict()


def test_train_and_tgstn_take_the_networks_section_whole(workdir, tmp_path):
    networks = {"segnet_widths": [8, 16], "segnet_downsample": 1,
                "disc_widths": [4, 8, 8, 8, 1], "stylegen_widths": [8],
                "stylegen_residual": False}
    config = _config_file(tmp_path, networks=networks)
    cfg = load_config(config)
    ds = datagen.load_dataset(workdir["data"])
    argv = ["--config", config, "--data", workdir["data"]]

    assert cli.main(["train", *argv, "--mode", "at", "--out", str(tmp_path / "t")]) == 0
    _, bundle, _ = run_ablation("at", ds, cfg.train, cfg.seed, networks=cfg.networks)
    loaded, _ = load_bundle(tmp_path / "t" / "checkpoint.sgt")
    assert loaded.student.spec == cfg.networks.segnet_spec(ds.classes)
    assert loaded.disc.spec == cfg.networks.disc_spec(ds.classes)
    for comp in ("student", "disc"):
        for name, arr in getattr(bundle, comp).values.items():
            assert np.array_equal(getattr(loaded, comp).values[name], arr), (comp, name)

    assert cli.main(["train-tgstn", *argv, "--out", str(tmp_path / "g")]) == 0
    phi = pretrain_phi(ds, cfg.seed, networks=cfg.networks)
    gen, _ = train_tgstn(cfg.tgstn, ds, phi, cfg.seed, networks=cfg.networks)
    loaded, _ = load_bundle(tmp_path / "g" / "tgstn.sgt")
    assert loaded.generator.spec == cfg.networks.stylegen_spec()
    for name, arr in gen.values.items():
        assert np.array_equal(loaded.generator.values[name], arr), name


def test_train_tgstn_then_styled_training(workdir, tmp_path):
    out = tmp_path / "tgstn"
    code = cli.main(
        ["train-tgstn", "--config", workdir["config"], "--data", workdir["data"],
         "--out", str(out)]
    )
    assert code == 0
    assert (out / "tgstn.sgt").exists()
    log = (out / "tgstn_log.csv").read_text().splitlines()
    assert log[0] == "iter,lr_gen,lr_disc,loss_style,loss_sem,loss_per"
    assert len(log) == 1 + 1 * (6 // 2)  # epochs * (n_source // batch_source)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert set(manifest["appearance_gap"]) == {"raw", "styled"}
    # the gaps summed over inference slices equal those of the whole stacks
    ds = datagen.load_dataset(workdir["data"])
    src, tgt = ds.source_images(), ds.target_images()
    styled_src = apply_style_generator(load_bundle(out / "tgstn.sgt")[0].generator, src)
    assert manifest["appearance_gap"] == {"raw": datagen.appearance_gap(src, tgt),
                                          "styled": datagen.appearance_gap(styled_src, tgt)}

    assert set(load_bundle(out / "tgstn.sgt")[1]) == {"specs", "seed"}

    styled = tmp_path / "styled_run"
    code = cli.main(
        ["train", "--config", workdir["config"], "--data", workdir["data"],
         "--mode", "full", "--tgstn", str(out / "tgstn.sgt"), "--out", str(styled)]
    )
    assert code == 0
    loaded, meta = load_bundle(styled / "checkpoint.sgt")
    assert meta["iteration"] == 14  # maxiter + st_maxiter
    assert loaded.teacher is not None and loaded.disc is not None

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
    assert err.startswith("config error: tgstn.batch_source: ")
    assert "batch_source is 7" in err and "n_source=6" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("domain", ["source", "target"])
def test_train_batch_above_domain_count_exits_2(workdir, tmp_path, capsys, monkeypatch, domain):
    # a source batch of 10^6 once ended in "Unable to allocate 11.4 GiB" from
    # the batch generator, after --out was made
    def no_training(*args, **kwargs):
        pytest.fail("training ran before the batch check")

    monkeypatch.setattr(cli, "run_ablation", no_training)
    cfg = dict(TINY, train={**TINY["train"], f"batch_{domain}": 10**6})
    cfg_path = tmp_path / "big_batch.json"
    cfg_path.write_text(json.dumps(cfg))
    code = cli.main(
        ["train", "--config", str(cfg_path), "--data", workdir["data"], "--mode", "full",
         "--oracle-style", "--out", str(tmp_path / "o")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: train.batch_{domain}: ")
    assert f"batch_{domain} is 1000000" in err and f"n_{domain}=6" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_train_noadapt_leaves_its_unfed_target_batch_unchecked(workdir, tmp_path):
    # noadapt feeds no target batch, so a target batch above n_target=6 runs
    cfg_path = tmp_path / "big_target.json"
    cfg_path.write_text(json.dumps(dict(TINY, train={**TINY["train"], "batch_target": 7})))
    code = cli.main(
        ["train", "--config", str(cfg_path), "--data", workdir["data"], "--mode", "noadapt",
         "--out", str(tmp_path / "o")]
    )
    assert code == 0
    assert (tmp_path / "o" / "checkpoint.sgt").exists()


def test_train_tgstn_runs_on_one_scene_per_domain(tmp_path):
    # phi pretrains with the default batches of 2, which draw with
    # replacement; the config's train batches are not read
    cfg = dict(TINY, dataset={**TINY["dataset"], "n_source": 1, "n_target": 1},
               tgstn={"epochs": 1, "batch_source": 1})
    cfg_path = tmp_path / "one_scene.json"
    cfg_path.write_text(json.dumps(cfg))
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(data)]) == 0
    code = cli.main(
        ["train-tgstn", "--config", str(cfg_path), "--data", str(data),
         "--out", str(tmp_path / "g")]
    )
    assert code == 0
    assert (tmp_path / "g" / "tgstn.sgt").exists()


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


def test_every_csv_of_a_session_reads_as_a_plain_table(workdir, tmp_path):
    argv = ["--config", workdir["config"], "--data", workdir["data"]]
    for mode in ("noadapt", "full"):
        assert cli.main(["train", *argv, "--mode", mode, "--oracle-style",
                         "--out", str(tmp_path / mode)]) == 0
    assert cli.main(["eval", *argv, "--checkpoint", str(tmp_path / "full" / "checkpoint.sgt"),
                     "--out", str(tmp_path / "eval")]) == 0
    assert cli.main(["train-tgstn", *argv, "--out", str(tmp_path / "tgstn")]) == 0
    assert cli.main(["export-plots", "--runs", str(tmp_path / "noadapt"), str(tmp_path / "full"),
                     "--out", str(tmp_path / "plots")]) == 0
    segan_log = ["iter", "lr_student", "lr_disc", "loss_seg", "loss_con", "loss_adv_g",
                 "loss_adv_d", "miou_eval", "stage"]
    expected = {
        "noadapt/train_log.csv": segan_log,
        "full/train_log.csv": segan_log,
        "noadapt/report.csv": ["class", "iou"],
        "full/report.csv": ["class", "iou"],
        "eval/report.csv": ["class", "iou"],
        "tgstn/tgstn_log.csv": ["iter", "lr_gen", "lr_disc", "loss_style", "loss_sem",
                                "loss_per"],
        "plots/fig6_stability.csv": ["iter", "noadapt-s3", "full-s3"],
        "plots/table3_ablation.csv": ["mode", "seed", "miou"],
        "plots/fig7_gains.csv": ["class", "full-s3"],
    }
    tables = {}
    for path in sorted(tmp_path.rglob("*.csv")):
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            rows = list(reader)
        name = path.relative_to(tmp_path).as_posix()
        assert reader.fieldnames == expected.get(name), name
        # a row with more or fewer cells than the header reads a None key or value
        assert rows and all(None not in row and None not in row.values() for row in rows), name
        assert b"\r" not in path.read_bytes(), name
        tables[name] = rows
    assert sorted(tables) == sorted(expected)
    # maxiter 10 at eval_interval 5, then st_maxiter 4 of self-training
    assert [(r["iter"], r["stage"]) for r in tables["full/train_log.csv"]] == [
        ("5", "adversarial"), ("10", "adversarial"), ("14", "self_train")]
    assert {r["stage"] for r in tables["noadapt/train_log.csv"]} == {"adversarial"}


def test_export_plots_missing_run_dir_exits_4(workdir, tmp_path, capsys):
    code = cli.main(
        ["export-plots", "--runs", str(tmp_path / "ghost"), "--out", str(tmp_path / "p")]
    )
    assert code == 4
    assert "missing" in capsys.readouterr().err


def test_export_plots_run_without_record_exits_4(tmp_path, capsys):
    # a record is written last, so a directory without one is an unfinished run
    run = tmp_path / "run"
    run.mkdir()
    (run / "train_log.csv").write_text("iter,miou_eval\n5,0.5\n")
    (run / "report.json").write_text(json.dumps(
        {"iou": [0.5, None], "miou": 0.5, "pixel_count": 10, "classes": 2}))
    code = cli.main(["export-plots", "--runs", str(run), "--out", str(tmp_path / "p")])
    assert code == 4
    assert "missing run_manifest.json" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def _report(**fields):
    return json.dumps({"iou": [0.5, None], "miou": 0.5, "pixel_count": 10, "classes": 2,
                       **fields})


def _fake_run(run, **files):
    """A run directory that export-plots accepts, with ``files`` replaced."""
    files = {"run_manifest.json": json.dumps({"mode": "at", "seed": 3}),
             "train_log.csv": "iter,miou_eval\n5,0.5\n", "report.json": _report(), **files}
    run.mkdir()
    for name, text in files.items():
        (run / name).write_text(text)
    return run


@pytest.mark.parametrize(
    "name, text, key",
    [
        ("run_manifest.json", "{}", "'mode'"),
        ("train_log.csv", "iter,miou_train\n5,0.5\n", "'miou_eval'"),
        ("report.json", "{}", "'iou'"),
    ],
)
def test_export_plots_malformed_run_files_exit_4(tmp_path, capsys, name, text, key):
    run = _fake_run(tmp_path / "run", **{name: text})
    code = cli.main(["export-plots", "--runs", str(run), "--out", str(tmp_path / "p")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "Traceback" not in err
    assert str(run / name) in err and f"missing key {key}" in err
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("report.json", _report(classes="2"), "classes must be the integer 2"),
        ("report.json", _report(pixel_count=[10, 0]), "pixel_count must be a non-negative"),
        ("report.json", _report(iou=[0.5, None, 0.25]), "classes must be the integer 3"),
        ("run_manifest.json", json.dumps({"mode": "bogus", "seed": 3}), "mode must be one of"),
        ("run_manifest.json", json.dumps({"mode": "at", "seed": "3"}), "seed must be an integer"),
        ("report.json", _report(iou=[0.5, None, 0.25], classes=3),
         "3 classes, but {good} has 2"),
    ],
    ids=["classes-string", "pixel-count-list", "iou-length", "mode-bogus", "seed-string",
         "class-counts-differ"],
)
def test_export_plots_invalid_run_values_exit_4(tmp_path, capsys, name, text, message):
    # a good run comes first, so any file written before the check would show
    good = _fake_run(tmp_path / "good")
    run = _fake_run(tmp_path / "run", **{name: text})
    code = cli.main(["export-plots", "--runs", str(good), str(run), "--out", str(tmp_path / "p")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "Traceback" not in err
    assert f"{run / name}: {message.format(good=good)}" in err
    assert not (tmp_path / "p").exists()


def test_parser_level_errors_raise_system_exit():
    with pytest.raises(SystemExit) as err:
        cli.main(["train", "--out", "x"])  # --data and --mode are required
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 2


def test_console_script_run_matches_in_process_run(workdir, tmp_path):
    exe = shutil.which("segan")
    assert exe, "console script not installed"
    ver = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert ver.returncode == 0 and ver.stdout.startswith("segan ")
    out = tmp_path / "sub"
    res = subprocess.run(
        [exe, "train", "--config", workdir["config"], "--data", workdir["data"],
         "--mode", "noadapt", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    assert (out / "checkpoint.sgt").exists()
    ref = tmp_path / "ref"
    assert cli.main(
        ["train", "--config", workdir["config"], "--data", workdir["data"],
         "--mode", "noadapt", "--out", str(ref)]
    ) == 0
    a = (out / "report.json").read_text()
    b = (ref / "report.json").read_text()
    assert a == b
