"""Every workload, untraced and traced, in one command.

    python3 perfbench/all.py [--seed 1] [--seconds 20]

Runs ``run.py`` once per workload with ``--trace 0`` and once with
``--trace 1``, one after the other, and prints each end-to-end metric by name
and unit, each run's attempted and failed operations, whether its checks
passed, and the tracing overhead: the traced median round time
(``trace.wall_s``) minus the untraced one (``wall_s``). Exits non-zero when a
run fails or a check does not hold.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} trace {trace}: exit code {proc.returncode}\n{proc.stderr}")
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    args = parser.parse_args(argv)

    ok = True
    for w in BENCHMARK["workloads"]:
        plain = run(w["name"], args.seed, args.seconds, 0)
        traced = run(w["name"], args.seed, args.seconds, 1)
        for trace, result in ((0, plain), (1, traced)):
            if result is None:
                ok = False
                continue
            ok &= result["correct"] and result["failed"] == 0
            print(f"{w['name']:<8} trace {trace}  correct {result['correct']}  "
                  f"attempted {result['attempted']}  failed {result['failed']}")
        if plain is not None:
            for name, m in plain["metrics"].items():
                print(f"{w['name']:<8} {name:<14} {m['value']:>12.4f} {m['unit']}")
        if plain is not None and traced is not None:
            untraced = plain["metrics"]["wall_s"]["value"]
            overhead = traced["metrics"]["trace.wall_s"]["value"] - untraced
            print(f"{w['name']:<8} {'tracing overhead':<14} {overhead:>12.4f} s "
                  f"({100 * overhead / untraced:+.1f}% of wall_s)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
