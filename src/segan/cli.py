"""Command-line entry point.

Subcommands: ``gen-data``, ``train-tgstn``, ``train``, ``eval``, ``bounds``,
``export-plots``. Every run refuses to write into a populated output
directory unless ``--force`` is given.

Each run's one record is ``run_manifest.json``, written last, so it is
present only for a complete run. It holds the command, the ablation
``mode`` (for ``train``), the root seed, the resolved configuration, the
inputs, the format versions, the ``OPENBLAS_NUM_THREADS`` value in effect
(importing ``segan`` sets it to 1 unless it is already set), the duration
and the command's result (``miou``, ``gen_bound``, ``appearance_gap`` or
``shift_severity``). No other file repeats these facts: a ``train``
directory holds ``train_log.csv``, ``checkpoint.sgt`` (whose metadata keeps
the network specs, seed and iteration), ``report.json``, ``report.csv`` and
the record.

The text artifacts have one dialect per format, written by
:func:`segan.sgt.write_csv` and :func:`segan.sgt.write_json`: CSV tables
(the training logs, ``report.csv`` and the ``export-plots`` tables) are
comma-separated with a line feed per row, and JSON records are indented by
two spaces and end in a newline. ``train_log.csv`` holds both stages of a
``train`` run, and its last column, ``stage``, names each row's stage
(``adversarial`` or ``self_train``).

Exit codes: 0 success, 2 configuration error, 3 numeric abort (a non-finite
loss or parameter in ``train`` or ``train-tgstn``), 4 I/O error. Only
``ConfigError`` maps to exit 2; any other ``ValueError`` is a bug and
propagates.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__, datagen, sgt
from .bounds import VARIANTS, bound_report, covering_bound, measure_discriminator
from .config import ConfigError, RunConfig, load_config
from .metrics import read_report, transfer_gain, write_report
from .networks import ModelBundle, infer_in_slices, predict_segmentation, stylegen_forward
from .trainer import (
    MODES,
    NumericAbort,
    check_batches,
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

_VERSIONS = {
    "segan": __version__,
    "dataset_format": datagen.DATASET_FORMAT,
    "checkpoint_format": sgt.CHECKPOINT_FORMAT,
    "tensor_format": sgt.MAGIC.decode(),
}


class OutputDirError(OSError):
    pass


def _check_out(path: str, force: bool) -> Path:
    """Reject an output path that is a file, or a populated directory
    without ``force``; the directory is not created."""
    out = Path(path)
    if out.exists():
        if not out.is_dir():
            raise OutputDirError(f"output path {out} exists and is not a directory")
        if any(out.iterdir()) and not force:
            raise OutputDirError(
                f"output directory {out} is not empty; pass --force to overwrite"
            )
    return out


def _prepare_out(path: str, force: bool) -> Path:
    out = _check_out(path, force)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_record(out: Path, command: str, cfg: RunConfig, started: float, inputs: dict,
                  **result) -> None:
    """Write the run's one record, ``run_manifest.json``; call it last."""
    record = {
        "command": command,
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        "inputs": inputs,
        "versions": _VERSIONS,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "duration_sec": round(time.time() - started, 3),
        **result,
    }
    sgt.write_json(out / "run_manifest.json", record)


def _check_size(ds, *specs) -> None:
    """Reject, before any output exists, a dataset whose images one of the
    nets cannot take: a segmenter needs sides that are multiples of its
    stride, a discriminator sides of at least its minimum input."""
    for spec in specs:
        try:
            spec.check_size(ds.h, ds.w)
        except ValueError as exc:
            raise ConfigError("", f"the dataset's {ds.h}x{ds.w} images do not fit: {exc}") from None


def _style_fn(args, ds, needs_aug: bool):
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
    _write_record(
        out, "gen-data", cfg, started, inputs={"config": args.config},
        shift_severity={"appearance_gap": sev.appearance_gap, "layout_gap": sev.layout_gap},
    )
    print(f"wrote {ds.n_source}+{ds.n_target} scenes to {out}")
    return EXIT_OK


def cmd_train_tgstn(args) -> int:
    started = time.time()
    cfg = load_config(args.config).with_seed(args.seed)
    ds = datagen.load_dataset(args.data)
    check_batches("tgstn", ds, cfg.tgstn.batch_source, None)
    _check_size(ds, cfg.networks.segnet_spec(ds.classes), cfg.networks.disc_spec(3))
    out = _prepare_out(args.out, args.force)
    phi = pretrain_phi(ds, cfg.seed, networks=cfg.networks)
    gen, log = train_tgstn(cfg.tgstn, ds, phi, cfg.seed, networks=cfg.networks)
    save_bundle(out / "tgstn.sgt", ModelBundle(generator=gen), seed=cfg.seed)
    log.to_csv(out / "tgstn_log.csv")
    # the styled source's color counts are summed over the generator's
    # inference slices, so no styled stack is held
    src, tgt = ds.source_images(), ds.target_images()
    counts = {"raw": datagen.color_counts(src), "target": datagen.color_counts(tgt)}
    sgt.release_pages(src, tgt)
    counts["styled"] = sum(datagen.color_counts(styled)
                           for _, styled in infer_in_slices(gen, "gen", stylegen_forward, src))
    gaps = {k: datagen.count_gap(counts[k], counts["target"]) for k in ("raw", "styled")}
    _write_record(
        out, "train-tgstn", cfg, started,
        inputs={"config": args.config, "data": args.data},
        appearance_gap=gaps,
    )
    print(f"appearance gap {gaps['raw']:.4f} -> {gaps['styled']:.4f}; checkpoint in {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    started = time.time()
    cfg = load_config(args.config).with_seed(args.seed)
    ds = datagen.load_dataset(args.data)
    at, _, needs_aug, _, _ = resolve_mode(args.mode)
    specs = [cfg.networks.segnet_spec(ds.classes)]
    if at:
        specs.append(cfg.networks.disc_spec(ds.classes))
    _check_size(ds, *specs)
    # every mode past noadapt feeds target batches
    check_batches("train", ds, cfg.train.batch_source, cfg.train.batch_target if at else None)
    style_fn = _style_fn(args, ds, needs_aug)
    out = _prepare_out(args.out, args.force)
    report, bundle, log = run_ablation(args.mode, ds, cfg.train, cfg.seed, style_fn=style_fn,
                                       out_dir=out, networks=cfg.networks)
    log.to_csv(out / "train_log.csv")
    save_bundle(out / "checkpoint.sgt", bundle, seed=cfg.seed,
                iteration=log.rows[-1]["iter"])
    write_report(report, out)
    _write_record(
        out, "train", cfg, started,
        inputs={"config": args.config, "data": args.data,
                "tgstn": args.tgstn, "oracle_style": args.oracle_style},
        mode=args.mode, miou=report.miou,
    )
    print(f"mode {args.mode}: final target mIoU {report.miou:.4f}; artifacts in {out}")
    return EXIT_OK


def _parse_scales(text: str) -> tuple[float, ...]:
    try:
        scales = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ConfigError("", f"--mst expects comma-separated numbers, got {text!r}")
    if not scales or not all(0 < s < math.inf for s in scales):
        raise ConfigError("", f"--mst scales must be positive and finite, got {text!r}")
    return scales


def cmd_eval(args) -> int:
    started = time.time()
    cfg = load_config(args.config).with_seed(args.seed)
    bundle, _ = load_bundle(args.checkpoint)
    ds = datagen.load_dataset(args.data)
    if bundle.student is None:
        raise ConfigError("", f"checkpoint {args.checkpoint} holds no segmenter")
    if bundle.student.spec.class_count != ds.classes:
        raise ConfigError(
            "",
            f"checkpoint emits {bundle.student.spec.class_count} classes, "
            f"dataset has {ds.classes}",
        )
    _check_size(ds, bundle.student.spec)
    scales = _parse_scales(args.mst) if args.mst else None
    out = _prepare_out(args.out, args.force)
    report = evaluate_student(bundle.student, ds, count=0, scales=scales)
    write_report(report, out)
    _write_record(
        out, "eval", cfg, started,
        inputs={"checkpoint": str(args.checkpoint), "data": args.data,
                "mst": list(scales) if scales else None},
        miou=report.miou,
    )
    print(f"target mIoU {report.miou:.4f}; report in {out}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    started = time.time()
    cfg = load_config(args.config).with_seed(args.seed)
    out = _check_out(args.out, args.force)  # created once the payload is computed
    bundle, meta = load_bundle(args.checkpoint)
    ds = datagen.load_dataset(args.data)
    if bundle.disc is None:
        raise ConfigError("", f"checkpoint {args.checkpoint} holds no discriminator")
    if bundle.student is None:
        raise ConfigError("", f"checkpoint {args.checkpoint} holds no segmenter")
    _check_size(ds, bundle.student.spec, bundle.disc.spec)
    probs, _ = predict_segmentation(bundle.student, ds.target_images()[: cfg.bounds.batch_count])
    init_seed = derive_seed(meta.get("seed", cfg.seed), "disc")
    spec = measure_discriminator(bundle.disc, probs, cfg.bounds, init_seed)
    for variant in VARIANTS:
        R = covering_bound(spec, variant)[1]
        if spec.n < 3 * R:  # the closed form of the bound needs n >= 3R
            raise ConfigError("bounds.n", f"sample size {spec.n} is below 3R = {3 * R:.3g} "
                                          f"of the {variant} bound")
    payload = {
        "spec": spec.to_dict(),
        "statement": bound_report(spec, "statement").to_dict(),
        "proof_final_line": bound_report(spec, "proof-final-line").to_dict(),
    }
    out.mkdir(parents=True, exist_ok=True)
    sgt.write_json(out / "bounds.json", payload)
    _write_record(
        out, "bounds", cfg, started,
        inputs={"checkpoint": str(args.checkpoint), "data": args.data},
        gen_bound=payload["statement"]["gen_bound"],
    )
    print(f"gen_bound {payload['statement']['gen_bound']:.6g}; bounds.json in {out}")
    return EXIT_OK


@contextmanager
def _run_file(path: Path):
    """Report a run file that lacks a key or holds a malformed value as a
    ``FormatError`` naming the file."""
    try:
        yield
    except KeyError as exc:
        raise sgt.FormatError(f"{path}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise sgt.FormatError(f"{path}: {exc}") from None


def _load_run(run_dir: Path) -> dict:
    log_path = run_dir / "train_log.csv"
    report_path = run_dir / "report.json"
    record_path = run_dir / "run_manifest.json"
    for p in (log_path, report_path, record_path):
        if not p.exists():
            raise FileNotFoundError(f"run directory {run_dir} is missing {p.name}")
    with _run_file(record_path):
        record = json.loads(record_path.read_text())
        mode, seed = record["mode"], record["seed"]
        if mode not in MODES:
            raise ValueError(f"mode must be one of {', '.join(MODES)}, got {mode!r}")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"seed must be an integer, got {seed!r}")
    iters, mious = [], []
    with _run_file(log_path), open(log_path, newline="") as f:
        for row in csv.DictReader(f, skipinitialspace=True):
            iters.append(int(row["iter"]))
            mious.append(float(row["miou_eval"]))
    with _run_file(report_path):
        report = read_report(report_path)
    return {
        "dir": run_dir,
        "mode": mode,
        "seed": seed,
        "curve": dict(zip(iters, mious)),
        "report": report,
    }


def cmd_export_plots(args) -> int:
    started = time.time()
    cfg = load_config(args.config).with_seed(args.seed)
    runs = [_load_run(Path(d)) for d in args.runs]
    classes = runs[0]["report"].classes
    for r in runs[1:]:
        with _run_file(r["dir"] / "report.json"):
            if r["report"].classes != classes:
                raise ValueError(f"{r['report'].classes} classes, but {runs[0]['dir']} "
                                 f"has {classes}")
    out = _prepare_out(args.out, args.force)

    labels = [f"{r['mode']}-s{r['seed']}" for r in runs]
    all_iters = sorted({i for r in runs for i in r["curve"]})
    sgt.write_csv(out / "fig6_stability.csv", ["iter"] + labels,
                  ([it] + [r["curve"].get(it, "") for r in runs] for it in all_iters))
    sgt.write_csv(out / "table3_ablation.csv", ["mode", "seed", "miou"],
                  ([r["mode"], r["seed"], r["report"].miou] for r in runs))

    baselines = {r["seed"]: r for r in runs if r["mode"] == "noadapt"}
    adapted = [r for r in runs if r["seed"] in baselines and r is not baselines[r["seed"]]]
    gains = [transfer_gain(r["report"], baselines[r["seed"]]["report"]).gain for r in adapted]
    sgt.write_csv(out / "fig7_gains.csv",
                  ["class"] + [f"{r['mode']}-s{r['seed']}" for r in adapted],
                  ([c] + ["" if np.isnan(g[c]) else float(g[c]) for g in gains]
                   for c in range(classes)))

    _write_record(out, "export-plots", cfg, started,
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
    p.add_argument("--mode", required=True, choices=MODES)
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
    except NumericAbort as abort:
        payload = Path(args.out) / "numeric_abort.json"
        losses = {k: v if np.isfinite(v) else repr(v) for k, v in abort.losses.items()}
        sgt.write_json(payload, {"iteration": abort.iteration, "losses": losses,
                                 "params": abort.params})
        print(f"{abort}; details in {payload}", file=sys.stderr)
        return EXIT_NUMERIC
    except ConfigError as exc:
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
