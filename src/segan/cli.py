"""Command-line entry point.

Subcommands: ``gen-data``, ``train-tgstn``, ``train``, ``eval``, ``bounds``,
``export-plots``. Every run refuses to write into a populated output
directory unless ``--force`` is given and leaves a ``run_manifest.json``
describing the resolved configuration.

Exit codes: 0 success, 2 configuration error, 3 numeric abort during
training, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, datagen, sgt
from .bounds import bound_report, measure_discriminator
from .config import ConfigError, RunConfig, load_config
from .metrics import MetricReport, transfer_gain, write_report
from .networks import ModelBundle, predict_segmentation
from .trainer import (
    NumericAbort,
    check_tgstn_batches,
    evaluate_student,
    load_bundle,
    oracle_style_fn,
    pretrain_phi,
    resolve_mode,
    run_ablation,
    save_bundle,
    tgstn_style_fn,
    train_tgstn,
)
from .utils import derive_seed

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

CLI_MODES = ("noadapt", "at", "at-se", "at-se-aug", "full", "full-mst")

_VERSIONS = {
    "segan": __version__,
    "dataset_format": datagen.DATASET_FORMAT,
    "checkpoint_format": sgt.CHECKPOINT_FORMAT,
    "tensor_format": sgt.MAGIC.decode(),
}


class OutputDirError(OSError):
    pass


def _prepare_out(path: str, force: bool) -> Path:
    out = Path(path)
    if out.exists():
        if not out.is_dir():
            raise OutputDirError(f"output path {out} exists and is not a directory")
        if any(out.iterdir()) and not force:
            raise OutputDirError(
                f"output directory {out} is not empty; pass --force to overwrite"
            )
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(
    out: Path, command: str, cfg: RunConfig, started: float, inputs: dict, extra: dict | None = None
) -> None:
    manifest = {
        "command": command,
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        "inputs": inputs,
        "out": str(out),
        "versions": _VERSIONS,
        "duration_sec": round(time.time() - started, 3),
    }
    if extra:
        manifest.update(extra)
    (out / "run_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _mode_to_trainer(mode: str) -> str:
    return {"at-se": "at+se", "at-se-aug": "at+se+aug", "full-mst": "full+mst"}.get(mode, mode)


def _style_fn(args, ds, cfg: RunConfig, needs_aug: bool):
    if args.oracle_style and args.tgstn:
        raise ConfigError("", "--oracle-style and --tgstn are mutually exclusive")
    if args.oracle_style:
        return oracle_style_fn(ds)
    if args.tgstn:
        bundle, _ = load_bundle(args.tgstn)
        if bundle.generator is None:
            raise ConfigError("", f"checkpoint {args.tgstn} holds no style generator")
        return tgstn_style_fn(bundle.generator)
    if needs_aug:
        raise ConfigError(
            "", "this mode styles source images; pass --tgstn <checkpoint> or --oracle-style"
        )
    return None


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    started = time.time()
    cfg = load_config(args.config).with_seed(args.seed)
    out = _prepare_out(args.out, args.force)
    d = cfg.dataset
    ds = datagen.generate_dataset(
        d.source, d.target, d.n_source, d.n_target, seed=cfg.seed,
        h=d.height, w=d.width, classes=d.classes,
    )
    datagen.save_dataset(ds, out)
    sev = datagen.shift_severity(ds)
    _write_manifest(
        out, "gen-data", cfg, started, inputs={"config": args.config},
        extra={"shift_severity": {"appearance_gap": sev.appearance_gap,
                                  "layout_gap": sev.layout_gap}},
    )
    print(f"wrote {ds.n_source}+{ds.n_target} scenes to {out}")
    return EXIT_OK


def cmd_train_tgstn(args) -> int:
    started = time.time()
    cfg = load_config(args.config).with_seed(args.seed)
    ds = datagen.load_dataset(args.data)
    check_tgstn_batches(cfg.tgstn, ds)
    out = _prepare_out(args.out, args.force)
    phi = pretrain_phi(
        ds, cfg.seed, seg_spec=cfg.networks.segnet_spec(ds.classes)
    )
    gen, log = train_tgstn(
        cfg.tgstn, ds, phi,
        gen_spec=cfg.networks.stylegen_spec(),
        disc_spec=cfg.networks.disc_spec(3),
    )
    save_bundle(out / "tgstn.sgt", ModelBundle(generator=gen),
                seed=cfg.seed, config=cfg.to_dict()["tgstn"])
    log.to_csv(out / "tgstn_log.csv")
    src = ds.source_images()
    gap_raw = datagen.appearance_gap(src, ds.target_images())
    gap_styled = datagen.appearance_gap(
        np.asarray(tgstn_style_fn(gen)(src)), ds.target_images()
    )
    _write_manifest(
        out, "train-tgstn", cfg, started,
        inputs={"config": args.config, "data": args.data},
        extra={"appearance_gap": {"raw": gap_raw, "styled": gap_styled}},
    )
    print(f"appearance gap {gap_raw:.4f} -> {gap_styled:.4f}; checkpoint in {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    started = time.time()
    cfg = load_config(args.config).with_seed(args.seed)
    ds = datagen.load_dataset(args.data)
    out = _prepare_out(args.out, args.force)
    mode = _mode_to_trainer(args.mode)
    _, _, needs_aug, _, _ = resolve_mode(mode)
    style_fn = _style_fn(args, ds, cfg, needs_aug)
    try:
        report, bundle, log = run_ablation(
            mode, ds, cfg.train, style_fn=style_fn, out_dir=out,
            seg_spec=cfg.networks.segnet_spec(ds.classes),
            disc_spec=cfg.networks.disc_spec(ds.classes),
        )
    except NumericAbort as abort:
        payload = out / "numeric_abort.json"
        losses = {
            k: v if np.isfinite(v) else repr(float(v)) for k, v in abort.losses.items()
        }
        payload.write_text(
            json.dumps({"iteration": abort.iteration, "losses": losses}, indent=2) + "\n"
        )
        print(f"numeric abort at iteration {abort.iteration}; details in {payload}",
              file=sys.stderr)
        return EXIT_NUMERIC
    write_report(report, out, extra={"mode": args.mode, "seed": cfg.seed})
    _write_manifest(
        out, "train", cfg, started,
        inputs={"config": args.config, "data": args.data,
                "tgstn": args.tgstn, "oracle_style": args.oracle_style},
        extra={"mode": args.mode, "miou": report.miou},
    )
    print(f"mode {args.mode}: final target mIoU {report.miou:.4f}; artifacts in {out}")
    return EXIT_OK


def _parse_scales(text: str) -> tuple[float, ...]:
    try:
        scales = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ConfigError("", f"--mst expects comma-separated numbers, got {text!r}")
    if not scales or any(s <= 0 for s in scales):
        raise ConfigError("", f"--mst scales must be positive, got {text!r}")
    return scales


def cmd_eval(args) -> int:
    started = time.time()
    cfg = load_config(args.config).with_seed(args.seed)
    bundle, meta = load_bundle(args.checkpoint)
    ds = datagen.load_dataset(args.data)
    if bundle.student is None:
        raise ConfigError("", f"checkpoint {args.checkpoint} holds no segmenter")
    if bundle.student.spec.class_count != ds.classes:
        raise ConfigError(
            "",
            f"checkpoint emits {bundle.student.spec.class_count} classes, "
            f"dataset has {ds.classes}",
        )
    out = _prepare_out(args.out, args.force)
    scales = _parse_scales(args.mst) if args.mst else None
    report = evaluate_student(bundle.student, ds, count=0, scales=scales)
    write_report(report, out, extra={"checkpoint": str(args.checkpoint),
                                     "mst": list(scales) if scales else None})
    _write_manifest(
        out, "eval", cfg, started,
        inputs={"checkpoint": str(args.checkpoint), "data": args.data},
        extra={"miou": report.miou},
    )
    print(f"target mIoU {report.miou:.4f}; report in {out}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    started = time.time()
    cfg = load_config(args.config).with_seed(args.seed)
    bundle, meta = load_bundle(args.checkpoint)
    ds = datagen.load_dataset(args.data)
    if bundle.disc is None:
        raise ConfigError("", f"checkpoint {args.checkpoint} holds no discriminator")
    if bundle.student is None:
        raise ConfigError("", f"checkpoint {args.checkpoint} holds no segmenter")
    out = _prepare_out(args.out, args.force)
    b = cfg.bounds
    images = ds.target_images()[: b.batch_count]
    probs, _ = predict_segmentation(bundle.student, images)
    train_seed = meta.get("seed", cfg.seed)
    spec = measure_discriminator(
        bundle.disc, probs,
        m_policy=b.m_policy,
        init_seed=derive_seed(train_seed, "disc"),
        epsilon=b.epsilon, n=b.n, delta=b.delta, phi=b.phi,
        tight_sigmoid=b.tight_sigmoid, power_iters=b.power_iters,
    )
    payload = {
        "spec": spec.to_dict(),
        "statement": bound_report(spec, "statement").to_dict(),
        "proof_final_line": bound_report(spec, "proof-final-line").to_dict(),
    }
    (out / "bounds.json").write_text(json.dumps(payload, indent=2) + "\n")
    _write_manifest(
        out, "bounds", cfg, started,
        inputs={"checkpoint": str(args.checkpoint), "data": args.data},
        extra={"gen_bound": payload["statement"]["gen_bound"]},
    )
    print(f"gen_bound {payload['statement']['gen_bound']:.6g}; bounds.json in {out}")
    return EXIT_OK


def _load_run(run_dir: Path) -> dict:
    log_path = run_dir / "train_log.csv"
    report_path = run_dir / "report.json"
    run_path = run_dir / "run.json"
    for p in (log_path, report_path, run_path):
        if not p.exists():
            raise FileNotFoundError(f"run directory {run_dir} is missing {p.name}")
    run_info = json.loads(run_path.read_text())
    report = json.loads(report_path.read_text())
    iters, mious = [], []
    with open(log_path, newline="") as f:
        for row in csv.DictReader(f, skipinitialspace=True):
            iters.append(int(row["iter"]))
            mious.append(float(row["miou_eval"]))
    return {
        "dir": run_dir,
        "mode": run_info["mode"],
        "seed": run_info["seed"],
        "curve": dict(zip(iters, mious)),
        "miou": report["miou"],
        "iou": report["iou"],
    }


def cmd_export_plots(args) -> int:
    started = time.time()
    cfg = load_config(args.config).with_seed(args.seed)
    runs = [_load_run(Path(d)) for d in args.runs]
    out = _prepare_out(args.out, args.force)

    labels = [f"{r['mode']}-s{r['seed']}" for r in runs]
    all_iters = sorted({i for r in runs for i in r["curve"]})
    with open(out / "fig6_stability.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["iter"] + labels)
        for it in all_iters:
            w.writerow([it] + [r["curve"].get(it, "") for r in runs])

    with open(out / "table3_ablation.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["mode", "seed", "miou"])
        for r in runs:
            w.writerow([r["mode"], r["seed"], r["miou"]])

    baselines = {r["seed"]: r for r in runs if resolve_mode(_mode_to_trainer(r["mode"]))
                 == (False, False, False, False, False)}
    adapted = [r for r in runs if r["seed"] in baselines and r is not baselines[r["seed"]]]
    classes = len(runs[0]["iou"]) if runs else 0
    with open(out / "fig7_gains.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["class"] + [f"{r['mode']}-s{r['seed']}" for r in adapted])
        for c in range(classes):
            row: list = [c]
            for r in adapted:
                base = baselines[r["seed"]]["iou"][c]
                cur = r["iou"][c]
                row.append("" if base is None or cur is None else cur - base)
            w.writerow(row)

    _write_manifest(out, "export-plots", cfg, started,
                    inputs={"runs": [str(d) for d in args.runs]})
    print(f"wrote fig6_stability.csv, table3_ablation.csv, fig7_gains.csv to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segan",
        description="Cross-domain segmentation trainer and bound calculator.",
    )
    parser.add_argument("--version", action="version", version=f"segan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="root seed override")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--force", action="store_true",
                       help="allow writing into a populated output directory")

    p = sub.add_parser("gen-data", help="render the synthetic two-domain benchmark")
    common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-tgstn", help="train the style transfer generator")
    common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.set_defaults(func=cmd_train_tgstn)

    p = sub.add_parser("train", help="train the segmenter in an ablation mode")
    common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--mode", required=True, choices=CLI_MODES)
    p.add_argument("--tgstn", default=None, help="style generator checkpoint")
    p.add_argument("--oracle-style", action="store_true",
                   help="style source images with the generating appearance shift")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mst", default=None, help="comma-separated test scales")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bounds", help="measure a discriminator and compute bounds")
    common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("export-plots", help="bundle run artifacts into plot CSVs")
    common(p)
    p.add_argument("--runs", nargs="+", required=True, help="training run directories")
    p.set_defaults(func=cmd_export_plots)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except sgt.FormatError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
