"""Benchmark entry point for delaymix: replays generated streams through the
engine's public entry points and prints one JSON result line.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh process (worker.py), one after another, so
peak RSS and set-up time are per workload. With --trace 0 the result holds
the end-to-end metrics, with --trace 1 the per-layer metrics. The exit code
is 0 when every forecast check passed, 1 when one failed, and 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOAD_NAMES = ("regime_switch", "steady_mimo", "cli_multi_horizon")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 55
WORKER_TIMEOUT_S = 170


def run_workload(name: str, args) -> tuple[int, dict | None]:
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {name} did not finish within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 2, None
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        valid = done.returncode in (0, 1) and isinstance(result["correct"], bool)
    except (IndexError, ValueError, TypeError, KeyError):
        valid = False
    if not valid:
        print(f"error: {name} exited with code {done.returncode} and no result", file=sys.stderr)
        return 2, None
    print("\n".join(lines[:-1]), flush=True)
    return done.returncode, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="delaymix streaming benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "delaymix" / "__init__.py").is_file():
        print(f"error: delaymix sources not found under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    status, results = 0, {}
    for name in names:
        code, result = run_workload(name, args)
        if result is None:
            return code
        status = max(status, code)
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }))
    return status


if __name__ == "__main__":
    sys.exit(main())
