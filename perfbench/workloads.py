"""The three workloads: their configs, set-up commands, rounds and checks.

Every workload is a closed sequence of ``segan`` commands run through
``segan.cli.main`` in the benchmark's process, the way a user runs the
program, plus (for ``measure``) the dataset writer and reader the CLI uses.
A round is one pass over that sequence; all rounds of a run are identical.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

from oracles import (
    check_arrays_equal,
    check_gap,
    check_gen_bound,
    check_loss_progress,
    check_miou,
    check_spectral_norms,
    check_styled,
    histogram_gap,
    norm_brackets,
)

# Hyperparameters of the acceptance sweep. The CLI's built-in defaults are
# the paper-scale ones and do not train at this size, so every run passes
# them explicitly.
TRAIN = {
    "lr_student": 0.1, "momentum": 0.9, "lr_disc": 1e-3, "lambda_adv": 0.01,
    "lambda_con": 3.0, "alpha": 0.95, "st_lr": 0.01, "eval_interval": 40,
    "eval_count": 16, "batch_source": 2, "batch_target": 2,
}
TGSTN = {"lambda_sem": 1.0, "lambda_per": 0.1}
MST_SCALES = "0.75,1.0,1.25"

# Toy sizes, for the benchmark's own test: each workload end to end in seconds.
TOY_DATASET = {"height": 32, "width": 32, "n_source": 6, "n_target": 6}


@dataclass
class Run:
    """Paths and inputs of one benchmark run."""

    root: Path
    seed: int
    found: list[str] = field(default_factory=list)  # observations that are not failures
    state: dict = field(default_factory=dict)  # in-memory inputs and outputs kept for checks

    @property
    def config(self) -> Path:
        return self.root / "config.json"

    def setup_dir(self, i: int = 0) -> Path:
        return self.root / f"setup{i}"

    @property
    def data(self) -> Path:
        return self.setup_dir() / "data"

    def round_dir(self, k: int) -> Path:
        return self.root / "rounds" / str(k)

    def cli(self, *args) -> list[str]:
        return [args[0], "--config", str(self.config), "--seed", str(self.seed), *args[1:]]


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _generate(run: Run):
    """The workload's dataset, generated in-process from the same config the
    CLI reads."""
    from segan import datagen
    from segan.config import load_config

    cfg = load_config(run.config).with_seed(run.seed)
    d = cfg.dataset
    return datagen.generate_dataset(d.source, d.target, d.n_source, d.n_target, seed=cfg.seed,
                                    h=d.height, w=d.width, classes=d.classes)


class Workload:
    name = ""
    artifacts: tuple[str, ...] = ()

    def config(self, toy: bool) -> dict:
        raise NotImplementedError

    def setup_commands(self, run: Run, i: int) -> list[list[str]]:
        return [run.cli("gen-data", "--out", str(run.setup_dir(i) / "data"), "--force")]

    def prepare(self, run: Run) -> None:
        """Untimed in-process inputs of the rounds."""

    def round(self, run: Run, k: int, op) -> None:
        raise NotImplementedError

    def check(self, run: Run, k: int) -> list[str]:
        raise NotImplementedError


class Adapt(Workload):
    """segan train --mode full --oracle-style on the stock 200+200 scenes."""

    name = "adapt"
    artifacts = ("checkpoint.sgt", "report.json", "train_log.csv")

    def config(self, toy):
        if toy:
            train = {**TRAIN, "maxiter": 8, "st_maxiter": 4, "eval_interval": 4, "eval_count": 4}
            return {"dataset": TOY_DATASET, "train": train}
        return {"train": {**TRAIN, "maxiter": 40, "st_maxiter": 40}}

    def round(self, run, k, op):
        op("train", run.cli("train", "--data", str(run.data), "--mode", "full",
                            "--oracle-style", "--out", str(run.round_dir(k))))

    def check(self, run, k):
        from segan import datagen
        from segan.networks import predict_segmentation
        from segan.trainer import load_bundle

        out = run.round_dir(k)
        with open(out / "train_log.csv", newline="") as f:
            rows = list(csv.DictReader(f, skipinitialspace=True))
        ds = datagen.load_dataset(run.data)
        fails = check_loss_progress(rows, ds.classes)
        first, last = float(rows[0]["loss_seg"]), float(rows[-1]["loss_seg"])
        run.found.append(f"loss_seg {first:.4f} at iter {rows[0]['iter']} -> {last:.4f} "
                         f"at iter {rows[-1]['iter']} ({'lower' if last < first else 'not lower'})")
        bundle, _ = load_bundle(out / "checkpoint.sgt")
        _, pred = predict_segmentation(bundle.student, ds.target_images())
        fails += check_miou(pred, ds.eval_target_labels(), ds.classes, _read_json(out / "report.json"))
        return fails


class Style(Workload):
    """segan train-tgstn on 24+24 scenes: phi pretraining, then TGSTN."""

    name = "style"
    artifacts = ("tgstn.sgt", "tgstn_log.csv")

    def config(self, toy):
        if toy:
            return {"dataset": TOY_DATASET, "train": TRAIN, "tgstn": {**TGSTN, "epochs": 1}}
        return {"dataset": {"n_source": 24, "n_target": 24}, "train": TRAIN,
                "tgstn": {**TGSTN, "epochs": 5}}

    def prepare(self, run):
        run.state["generated"] = _generate(run)

    def round(self, run, k, op):
        op("train_tgstn", run.cli("train-tgstn", "--data", str(run.data),
                                  "--out", str(run.round_dir(k))))

    def check(self, run, k):
        from segan import datagen
        from segan.trainer import apply_style_generator, load_bundle

        out = run.round_dir(k)
        ds = datagen.load_dataset(run.data)
        bundle, _ = load_bundle(out / "tgstn.sgt")
        src, tgt = ds.source_images(), ds.target_images()
        styled = apply_style_generator(bundle.generator, src)
        fails = check_styled(styled, src, run.state["generated"].source_labels(), ds.source_labels())
        gaps = _read_json(out / "run_manifest.json")["appearance_gap"]
        fails += check_gap("raw", gaps["raw"], src, tgt)
        fails += check_gap("styled", gaps["styled"], styled, tgt)
        raw, new = histogram_gap(src, tgt), histogram_gap(styled, tgt)
        run.found.append(f"appearance gap raw {raw:.4f} -> styled {new:.4f} "
                         f"({'closer' if new < raw else 'not closer'})")
        return fails


class Measure(Workload):
    """Dataset round trip, single- and multi-scale eval, and bounds on a
    checkpoint made in set-up by a short ``segan train --mode at``."""

    name = "measure"
    artifacts = ("eval/report.json", "eval_mst/report.json", "bounds/bounds.json")

    def config(self, toy):
        if toy:
            train = {**TRAIN, "maxiter": 4, "eval_interval": 4, "eval_count": 4}
            return {"dataset": TOY_DATASET, "train": train, "bounds": {"power_iters": 200}}
        return {"train": {**TRAIN, "maxiter": 20}, "bounds": {"power_iters": 200}}

    def checkpoint(self, run: Run, i: int = 0) -> Path:
        return run.setup_dir(i) / "ckpt" / "checkpoint.sgt"

    def setup_commands(self, run, i):
        return super().setup_commands(run, i) + [
            run.cli("train", "--data", str(run.setup_dir(i) / "data"), "--mode", "at",
                    "--out", str(run.setup_dir(i) / "ckpt"), "--force"),
        ]

    def prepare(self, run):
        run.state["generated"] = _generate(run)

    def round(self, run, k, op):
        from segan import datagen

        out = run.round_dir(k)
        ckpt = str(self.checkpoint(run))
        op("save_dataset", lambda: datagen.save_dataset(run.state["generated"], out / "data"))
        run.state["loaded"] = op("load_dataset", lambda: datagen.load_dataset(out / "data"))
        op("eval", run.cli("eval", "--data", str(run.data), "--checkpoint", ckpt,
                           "--out", str(out / "eval")))
        op("eval_mst", run.cli("eval", "--data", str(run.data), "--checkpoint", ckpt,
                               "--mst", MST_SCALES, "--out", str(out / "eval_mst")))
        op("bounds", run.cli("bounds", "--data", str(run.data), "--checkpoint", ckpt,
                             "--out", str(out / "bounds")))

    def check(self, run, k):
        from segan import datagen
        from segan.networks import multi_scale_predict, predict_segmentation
        from segan.trainer import load_bundle

        out = run.round_dir(k)
        gen, loaded = run.state["generated"], run.state["loaded"]
        fails = []
        for what in ("source_images", "source_labels", "target_images", "eval_target_labels"):
            fails += check_arrays_equal(f"round-trip {what}", getattr(loaded, what)(), getattr(gen, what)())

        ds = datagen.load_dataset(run.data)
        bundle, _ = load_bundle(self.checkpoint(run))
        images, labels = ds.target_images(), ds.eval_target_labels()
        _, pred = predict_segmentation(bundle.student, images)
        fails += check_miou(pred, labels, ds.classes, _read_json(out / "eval" / "report.json"))
        scales = [float(s) for s in MST_SCALES.split(",")]
        _, pred = multi_scale_predict(bundle.student, images, scales)
        fails += check_miou(pred, labels, ds.classes, _read_json(out / "eval_mst" / "report.json"))

        bounds = _read_json(out / "bounds" / "bounds.json")
        fails += check_gen_bound(bounds)
        disc = bundle.disc
        weights = [disc.values[f"conv{i}/w"] for i in range(len(disc.spec.widths))]
        brackets = norm_brackets(weights, (ds.h, ds.w), disc.spec.stride, 1, seed=run.seed)
        for key in ("s", "b"):  # b_i uses the all-zero reference, so A_i - M_i = A_i
            fails += check_spectral_norms(brackets, bounds["spec"][key])
        return fails


WORKLOADS = {w.name: w for w in (Adapt(), Style(), Measure())}
