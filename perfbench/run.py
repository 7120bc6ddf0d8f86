"""One benchmark run of one workload.

    python3 perfbench/run.py --workload adapt --seed 1 --seconds 18 --trace 0

A run makes its inputs from ``--seed``, sets the workload up three times in
fresh processes (``setup_s`` is the median), runs one untimed warm-up round
that also records the conv shapes the kernel oracles replay, then repeats
timed rounds until ``--seconds`` have passed. It checks the last round's
outputs, checks that every round wrote the same artifacts as the warm-up,
and prints the figures, ending with one JSON line:

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, from rounds with no
wrapper installed. With ``--trace 1`` the program's public functions are
wrapped (see tracing.py) and the metrics are per layer: the median over the
timed rounds, plus a few ``setup.*`` figures from one in-process set-up.
Outputs go to ``.perfbench_runs/`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SETUP_LAYERS = ("datagen.generate_s", "datagen.save_s", "sgt.files_written",
                "sgt.bytes_written", "trace.wall_s")
SETUP_ONLY = ("datagen.generate_s",)  # no round generates data; reported as setup.*


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (("gflop_per_s", "GFLOP/s"), ("images_per_s", "images/s"), ("_ms", "ms"),
                         ("_s", "s"), ("_gflop", "GFLOP"), ("_per_step", "calls/step")):
        if name.endswith(suffix):
            return unit
    return "bytes" if "bytes" in name else "count"


class OperationFailed(Exception):
    pass


class Runner:
    """Runs a round's operations, times them, and counts failures."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.times: dict[str, float] = {}

    def __call__(self, name: str, action):
        from segan import cli

        self.attempted += 1
        span = self.tracer.span(f"op.{name}") if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span:
                if callable(action):
                    result = action()
                else:
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main(action)
                    if code != 0:
                        raise OperationFailed(f"segan {' '.join(action)} exited with {code}")
                    result = None
        except Exception as exc:  # one failed operation must not end the run
            self.failed += 1
            print(f"operation {name} failed: {exc!r}", file=sys.stderr)
            return None
        self.times[name] = time.perf_counter() - start
        return result


def digests(run, workload, k: int) -> dict[str, str]:
    out = run.round_dir(k)
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in workload.artifacts if (out / name).exists()}


def kernel_oracles(shapes: set) -> list[str]:
    """Replay each recorded conv configuration on seeded inputs (batch 2)
    against the scipy reference and the adjoint identities."""
    import numpy as np
    from segan import kernels
    from oracles import check_adjoint, check_conv_forward, conv_out_hw

    fails = []
    for kind, sample, w_shape, stride, pad, dtype in sorted(shapes):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, *sample)).astype(dtype)
        w = (rng.standard_normal(w_shape) / np.sqrt(np.prod(w_shape[:3]))).astype(dtype)
        ho, wo = conv_out_hw(sample[0], sample[1], w_shape[0], w_shape[1], stride, pad)
        g = rng.standard_normal((2, ho, wo, w_shape[3])).astype(dtype)
        label = f"{kind} x{sample} w{w_shape} s{stride} p{pad} {dtype}"
        if kind == "forward":
            found = check_conv_forward(x, w, stride, pad, kernels.conv2d_forward(x, w, stride, pad), dtype)
        elif kind == "bwd_input":
            gx = kernels.conv2d_bwd_input(g, w, sample[:2], stride, pad)
            found = check_adjoint(x, w, g, stride, pad, gx, None, dtype)
        else:
            gw = kernels.conv2d_bwd_weight(x, g, w_shape[:2], stride, pad)
            found = check_adjoint(x, w, g, stride, pad, None, gw, dtype)
        fails += [f"{label}: {f}" for f in found]
    return fails


def set_up(run, workload, tracer) -> float | None:
    """Median wall time of the set-ups, or None when traced (one in-process
    set-up, traced, instead)."""
    from prepare import main as prepare_in_process

    if tracer is not None:
        with tracer.span("setup"), contextlib.redirect_stdout(io.StringIO()):
            code = prepare_in_process(workload.setup_commands(run, 0))
        if code != 0:
            raise SystemExit(f"set-up failed with exit code {code}")
        return None
    times = []
    for i in range(SETUP_REPEATS):
        commands = json.dumps(workload.setup_commands(run, i))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "prepare.py"), commands],
                              cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed with exit code {proc.returncode}")
        if i:
            shutil.rmtree(run.setup_dir(i))
    return statistics.median(times)


def timed_rounds(run, workload, runner, tracer, seconds, reference, fails):
    """Rounds until ``seconds`` have passed (at least one). Returns the round
    wall times, each operation's times and the last round's number."""
    walls: list[float] = []
    op_times: dict[str, list[float]] = {}
    if tracer:
        tracer.install()
    try:
        start = time.perf_counter()
        k = 0
        while not walls or time.perf_counter() - start < seconds:
            k += 1
            failed_before = runner.failed
            gc.collect()  # garbage of earlier rounds is not this round's cost
            span = tracer.span("round") if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            with span:
                workload.round(run, k, runner)
            walls.append(time.perf_counter() - t0)
            for name, t in runner.times.items():
                op_times.setdefault(name, []).append(t)
            runner.times.clear()
            if (reference is not None and runner.failed == failed_before
                    and digests(run, workload, k) != reference):
                fails.append(f"round {k} wrote other artifacts than the warm-up round")
            if k > 1:
                shutil.rmtree(run.round_dir(k - 1))
    finally:
        if tracer:
            tracer.restore()
    return walls, op_times, k


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the benchmark's test")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import segan.cli  # the program under test, from this checkout only
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(segan.cli.__file__).resolve().parents:
        print(f"segan was imported from {segan.cli.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from tracing import Tracer, conv_shapes, layer_metrics
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    with contextlib.chdir(ROOT):  # relative paths keep reports equal across checkouts
        tag = f"{'toy-' if args.toy else ''}{workload.name}-s{args.seed}-t{args.trace}"
        run = Run(root=Path(".perfbench_runs") / tag, seed=args.seed)
        shutil.rmtree(run.root, ignore_errors=True)
        run.root.mkdir(parents=True)
        run.config.write_text(json.dumps(workload.config(args.toy), indent=2) + "\n")

        tracer = Tracer() if args.trace else None
        phases = {"start": time.perf_counter()}
        workload.prepare(run)
        if tracer:
            tracer.install()
        try:
            setup_s = set_up(run, workload, tracer)
        finally:
            if tracer:
                tracer.restore()

        phases["set-up"] = time.perf_counter()
        fails: list[str] = []
        shapes: set = set()
        warm_up = Runner()
        with conv_shapes(shapes):
            workload.round(run, 0, warm_up)
        # A failed operation fails in every round; it is counted in the timed ones.
        reference = None if warm_up.failed else digests(run, workload, 0)
        shutil.rmtree(run.round_dir(0))
        phases["warm-up"] = time.perf_counter()

        runner = Runner(tracer)
        walls, op_times, k = timed_rounds(run, workload, runner, tracer, args.seconds,
                                          reference, fails)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        phases["rounds"] = time.perf_counter()

        if runner.failed == 0:
            fails += kernel_oracles(shapes)
            fails += workload.check(run, k)
        phases["checks"] = time.perf_counter()
        # The datasets are 21 MB a copy at stock size; a run keeps its reports only.
        shutil.rmtree(run.data, ignore_errors=True)
        shutil.rmtree(run.round_dir(k) / "data", ignore_errors=True)

        print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  rounds {k}  "
              f"attempted {runner.attempted}  failed {runner.failed}")
        if tracer:
            per_round = [layer_metrics(tracer, r) for r in tracer.roots("round")]
            metrics = {name: statistics.median(m[name] for m in per_round)
                       for name in per_round[0] if name not in SETUP_ONLY}
            setup = layer_metrics(tracer, tracer.roots("setup")[0])
            metrics.update({f"setup.{name}": setup[name] for name in SETUP_LAYERS})
            tracer.dump(run.root / "trace.json")
            units = {name: unit_of(name) for name in metrics}
        else:
            metrics = {"setup_s": setup_s, "wall_s": statistics.median(walls),
                       "peak_rss_mb": peak_rss_mb}
            units = END_TO_END
            print("round wall times  " + " ".join(f"{t:.3f}" for t in walls) + " s")
            for name, times in op_times.items():
                print(f"op {name:<14} {statistics.median(times):.4f} s  (median of {len(times)})")
        for name, value in metrics.items():
            print(f"{name:<28} {value:.6g} {units[name]}")
        print(f"conv configurations checked  {len(shapes)}")
        marks = list(phases.items())
        print("phases  " + "  ".join(f"{name} {t - prev:.1f} s"
                                     for (_, prev), (name, t) in zip(marks, marks[1:])))
        for note in run.found:
            print(f"observed: {note}")
        for name, digest in sorted(digests(run, workload, k).items()):
            print(f"artifact {name} sha256 {digest}")
        for f in fails:
            print(f"CHECK FAILED: {f}")
        print(json.dumps({
            "correct": not fails,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
