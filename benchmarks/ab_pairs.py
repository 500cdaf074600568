"""Pairwise A/B of the repository benchmark: a base revision vs. the working tree.

Checks ``--base`` out in a detached ``git worktree`` under ``.bench_build/``
and runs the unchanged ``perfbench/run.py`` of each side, in its own
checkout, once per pair with the same seed on both sides. The side that
runs first alternates from pair to pair, so a slow phase of a shared
machine lands on both sides alike. For every end-to-end metric of
``BENCHMARK.json`` it prints each side's median and quartiles, the
change's median gain, the base's quartile spread, the metric's bound and
how many pairs the change won, then each side's failed operations. Every
run lasts the benchmark's own ``run_seconds``::

    python benchmarks/ab_pairs.py --base HEAD~1 --workload batch-scan --pairs 10
    make perf-ab BASE=HEAD~1 WORKLOAD=batch-scan PAIRS=10

The change side is the working tree at the repository root (``HEAD`` plus
any uncommitted edits). A gain counts only when the change wins at least
nine pairs in ten and its median gain exceeds the base's quartile spread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def add_worktree(rev: str) -> Path:
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    path = BUILD / f"ab-{sha[:12]}"
    if path.exists():
        git("worktree", "remove", "--force", str(path))
    BUILD.mkdir(exist_ok=True)
    git("worktree", "add", "--detach", str(path), sha)
    return path


def run_bench(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced run of ``checkout``'s own benchmark; its JSON line."""
    env = dict(os.environ)
    # each side must import the program from its own checkout only
    env.pop("PYTHONPATH", None)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"ab_pairs: no result from {checkout} (exit {done.returncode}):\n"
                         f"{done.stdout[-2000:]}{done.stderr[-2000:]}") from None
    if done.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"ab_pairs: run in {checkout} failed its gate "
                         f"(exit {done.returncode}):\n{done.stdout[-2000:]}")
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metrics: list[dict], base: list[dict], head: list[dict]) -> list[str]:
    lines = [f"{'metric':<16}{'base q1/med/q3':>30}{'change q1/med/q3':>30}"
             f"{'gain':>9}{'base IQR':>10}{'bound':>8}{'wins':>8}"]
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        b = [run["metrics"][name]["value"] for run in base]
        h = [run["metrics"][name]["value"] for run in head]
        bq, hq = quartiles(b), quartiles(h)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
        gain = (bq[1] - hq[1] if lower else hq[1] - bq[1]) / bq[1] if bq[1] else 0.0
        spread = (bq[2] - bq[0]) / bq[1] if bq[1] else 0.0
        lines.append(
            f"{name:<16}{'/'.join(f'{v:.4g}' for v in bq):>30}"
            f"{'/'.join(f'{v:.4g}' for v in hq):>30}"
            f"{gain:>+9.1%}{spread:>10.1%}{metric['bound']:>8.0%}{f'{wins}/{len(b)}':>8}"
        )
    failed = ("/".join(str(sum(run[key] for run in runs)) for key in ("failed", "attempted"))
              for runs in (base, head))
    lines.append("failed/attempted ops: base {}, change {}".format(*failed))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", default="batch-scan")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1,
                        help="pair i runs both sides with seed first-seed + i")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base_dir = add_worktree(args.base)
    base_runs, head_runs = [], []
    try:
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            sides = [("base", base_dir, base_runs), ("change", ROOT, head_runs)]
            if pair % 2:
                sides.reverse()
            for _label, checkout, runs in sides:
                runs.append(run_bench(checkout, args.workload, seed, spec["run_seconds"]))
            tx_base, tx_head = (runs[-1]["metrics"]["tx_per_s"]["value"]
                                for runs in (base_runs, head_runs))
            print(f"pair {pair + 1}/{args.pairs} seed {seed} ({sides[0][0]} first): "
                  f"tx_per_s base {tx_base:.1f} change {tx_head:.1f}", flush=True)
    finally:
        git("worktree", "remove", "--force", str(base_dir))

    print(f"\n{args.workload}: base {args.base} vs. working tree, {args.pairs} pair(s) "
          f"of {spec['run_seconds']} s, cpu_count {len(os.sched_getaffinity(0))}")
    for line in summarize(spec["end_to_end"], base_runs, head_runs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
