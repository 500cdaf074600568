"""Tiny-scale wild-scan bench smoke: regenerate ``BENCH_wildscan.json``.

Runs in a few seconds, so it doubles as the determinism check for the
sharded engine (it raises if ``jobs`` changes any detection)::

    PYTHONPATH=src python benchmarks/run_smoke.py
    PYTHONPATH=src python benchmarks/run_smoke.py --scale 0.02 --repeats 3

``--stream`` benches the streaming pipeline instead (and asserts its
batch-identity contract), regenerating ``BENCH_stream.json``::

    PYTHONPATH=src python benchmarks/run_smoke.py --stream

``--windowed`` benches cross-transaction windowed detection
(``BENCH_windowed.json``): a schedule carrying labelled split attacks is
streamed with the window off and on — per-transaction identity vs. the
batch engine always asserted both ways, the split rounds must be missed
per-tx and fully recovered by the windowed matcher::

    PYTHONPATH=src python benchmarks/run_smoke.py --windowed

``--cluster`` benches the distributed scan (coordinator + local workers,
identity-vs-batch always on, plus a killed-worker fault run that must
requeue and still merge identically), regenerating ``BENCH_cluster.json``::

    PYTHONPATH=src python benchmarks/run_smoke.py --cluster

``--elastic`` extends the cluster bench with an autoscaled run: scale
from zero to two workers against queue depth, kill one mid-shard, and
re-admit it on probation — identity still asserted, scaling counters
recorded under ``elastic_run``::

    PYTHONPATH=src python benchmarks/run_smoke.py --elastic

``--resume`` benches the durable run ledger (cold journaled scan vs.
resuming an interrupted one vs. a no-op resume of a complete journal,
identity always asserted), regenerating ``BENCH_resume.json``::

    PYTHONPATH=src python benchmarks/run_smoke.py --resume

``--service`` benches the resident scan service (one in-process server,
clients over TCP): cold submit-to-result latency, queue wait under a
concurrent burst, and duplicate coalescing — identity vs. the standalone engine always
asserted — regenerating ``BENCH_service.json``::

    PYTHONPATH=src python benchmarks/run_smoke.py --service

``--fullscale`` runs the end-to-end full-scale bench (sequential vs.
parallel vs. pre-screen-off, identity always asserted via the wire
encoding), regenerating ``BENCH_fullscale.json``
and ``PROFILE_wildscan.json``. The default ``--scale 1.0`` takes
minutes; pass a smaller scale for a quick pass::

    PYTHONPATH=src python benchmarks/run_smoke.py --fullscale
    PYTHONPATH=src python benchmarks/run_smoke.py --fullscale --scale 0.05

``--robustness`` runs the adversarial-robustness bench
(``BENCH_robustness.json``): the FlashSyn-style mutation sweep over one
representative attack per pattern family, scored as per-family ×
per-mutation recall — unmutated attacks must hit 1.0 recall per family,
every documented evasion cell must hit 0.0, and two sweeps must score
identically::

    PYTHONPATH=src python benchmarks/run_smoke.py --robustness

``--failover`` runs the survivability bench (SIGKILL the forked primary
coordinator mid-scan, hot standby adopts the journal, multi-address
workers reconnect, identity always asserted; plus compacted-vs-
uncompacted ledger open timings), regenerating ``BENCH_failover.json``::

    PYTHONPATH=src python benchmarks/run_smoke.py --failover
    PYTHONPATH=src python benchmarks/run_smoke.py --failover --autoscale

or via ``make bench-smoke`` / ``make stream-smoke`` / ``make
windowed-smoke`` / ``make cluster-smoke`` / ``make elastic-smoke`` /
``make resume-smoke`` / ``make service-smoke`` / ``make
fullscale-smoke`` / ``make failover-smoke`` / ``make
robustness-smoke`` / ``make profile``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engine.bench import (
    DEFAULT_ARTIFACT,
    DEFAULT_CLUSTER_ARTIFACT,
    DEFAULT_FAILOVER_ARTIFACT,
    DEFAULT_FULLSCALE_ARTIFACT,
    DEFAULT_RESUME_ARTIFACT,
    DEFAULT_ROBUSTNESS_ARTIFACT,
    DEFAULT_SERVICE_ARTIFACT,
    DEFAULT_STREAM_ARTIFACT,
    DEFAULT_WINDOWED_ARTIFACT,
    run_cluster_bench,
    run_failover_bench,
    run_fullscale_bench,
    run_resume_bench,
    run_robustness_bench,
    run_service_bench,
    run_stream_bench,
    run_wildscan_bench,
    run_windowed_bench,
    write_artifact,
)
from repro.runtime.profile import DEFAULT_PROFILE_ARTIFACT


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=None,
                        help="population scale (1.0 = the paper's 272,984 txs; "
                        "default 0.01, or 1.0 with --fullscale)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--jobs", type=int, nargs="+", default=None,
                        help="jobs values to time (default: 1 4, or "
                        "1 <cpu_count> with --fullscale)")
    parser.add_argument("--shards", type=int, default=None,
                        help="pin the shard count (default: automatic)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="repetitions per jobs value (best is kept)")
    parser.add_argument("--stream", action="store_true",
                        help="bench the streaming pipeline (BENCH_stream.json) "
                        "instead of the batch engine")
    parser.add_argument("--windowed", action="store_true",
                        help="bench cross-transaction windowed detection "
                        "(BENCH_windowed.json): split attacks missed per-tx, "
                        "recovered by the sliding-window matcher; per-tx "
                        "identity vs. the batch engine asserted with the "
                        "window off and on")
    parser.add_argument("--split-attacks", type=int, default=2,
                        help="windowed only: labelled split-attack groups "
                        "appended to the schedule (default 2)")
    parser.add_argument("--window-blocks", type=int, default=None,
                        help="windowed only: sliding window size in emitted "
                        "blocks (default: the engine's)")
    parser.add_argument("--cluster", action="store_true",
                        help="bench the distributed scan (BENCH_cluster.json): "
                        "1 vs 2 local workers plus a killed-worker fault run")
    parser.add_argument("--elastic", action="store_true",
                        help="cluster bench plus an autoscaled run (scale from "
                        "zero, kill, probation re-admission); implies --cluster")
    parser.add_argument("--resume", action="store_true",
                        help="bench the durable run ledger (BENCH_resume.json): "
                        "cold journaled scan vs. interrupted-and-resumed vs. "
                        "no-op resume of a complete journal")
    parser.add_argument("--interrupt-after", type=int, default=None,
                        help="resume only: shards pre-recorded before the "
                        "simulated kill (default: half the shard count)")
    parser.add_argument("--failover", action="store_true",
                        help="bench coordinator failover (BENCH_failover.json): "
                        "SIGKILL the forked primary mid-scan, standby adopts "
                        "the ledger, workers fail over; plus compacted-vs-"
                        "uncompacted ledger open timings")
    parser.add_argument("--autoscale", action="store_true",
                        help="failover only: run an ElasticPool on the adopted "
                        "coordinator as well")
    parser.add_argument("--robustness", action="store_true",
                        help="bench adversarial robustness "
                        "(BENCH_robustness.json): mutation sweep per attack "
                        "family with per-family recall/precision; baseline "
                        "recall 1.0 and documented evasions 0.0 asserted")
    parser.add_argument("--instances", type=int, default=2,
                        help="robustness only: attack instances per "
                        "(family, mutation) cell (default 2)")
    parser.add_argument("--benign", type=int, default=24,
                        help="robustness only: benign flash txs per family "
                        "in the precision pool (default 24)")
    parser.add_argument("--service", action="store_true",
                        help="bench the resident scan service "
                        "(BENCH_service.json): cold submit-to-result "
                        "latency over TCP, queue wait under a concurrent "
                        "burst, duplicate coalescing; identity vs. the "
                        "standalone engine always asserted")
    parser.add_argument("--burst", type=int, default=4,
                        help="service only: concurrent distinct submissions "
                        "in the burst phase (default 4)")
    parser.add_argument("--executors", type=int, default=2,
                        help="service only: concurrent scan executors "
                        "(default 2)")
    parser.add_argument("--fullscale", action="store_true",
                        help="bench the end-to-end scan (BENCH_fullscale.json "
                        "+ PROFILE_wildscan.json): sequential vs. parallel "
                        "vs. pre-screen-off, identity always asserted; "
                        "defaults to --scale 1.0")
    parser.add_argument("--profile-out", type=Path, default=None,
                        help="fullscale only: stage-profile artifact path "
                        "(default PROFILE_wildscan.json)")
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2],
                        help="cluster only: worker counts to time (default: 1 2)")
    parser.add_argument("--queue-depth", type=int, default=None,
                        help="stream only: per-worker bounded queue size")
    parser.add_argument("--block-size", type=int, default=None,
                        help="stream only: transactions per simulated block")
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    repo_root = Path(__file__).resolve().parent.parent
    if args.elastic:
        args.cluster = True
    if sum(
        (args.stream, args.windowed, args.cluster, args.resume, args.fullscale,
         args.failover, args.service, args.robustness)
    ) > 1:
        parser.error(
            "--stream, --windowed, --cluster/--elastic, --resume, "
            "--fullscale, --failover, --service and --robustness are "
            "mutually exclusive"
        )
    if args.scale is None:
        args.scale = 1.0 if args.fullscale else (0.02 if args.service else 0.01)
    jobs_values = tuple(args.jobs) if args.jobs is not None else (1, 4)
    if args.fullscale:
        report = run_fullscale_bench(
            scale=args.scale,
            seed=args.seed,
            jobs_values=tuple(args.jobs) if args.jobs is not None else None,
            shards=args.shards,
            profile_path=args.profile_out or repo_root / DEFAULT_PROFILE_ARTIFACT,
        )
        output = args.output or repo_root / DEFAULT_FULLSCALE_ARTIFACT
    elif args.failover:
        report = run_failover_bench(
            scale=args.scale,
            seed=args.seed,
            shards=args.shards if args.shards is not None else 8,
            workers=max(args.workers) if args.workers else 2,
            autoscale=args.autoscale,
        )
        output = args.output or repo_root / DEFAULT_FAILOVER_ARTIFACT
    elif args.robustness:
        report = run_robustness_bench(
            seed=args.seed,
            instances=args.instances,
            benign=args.benign,
        )
        output = args.output or repo_root / DEFAULT_ROBUSTNESS_ARTIFACT
    elif args.service:
        report = run_service_bench(
            scale=args.scale,
            seed=args.seed,
            shards=args.shards if args.shards is not None else 4,
            executors=args.executors,
            burst=args.burst,
        )
        output = args.output or repo_root / DEFAULT_SERVICE_ARTIFACT
    elif args.resume:
        report = run_resume_bench(
            scale=args.scale,
            seed=args.seed,
            shards=args.shards if args.shards is not None else 8,
            interrupt_after=args.interrupt_after,
        )
        output = args.output or repo_root / DEFAULT_RESUME_ARTIFACT
    elif args.cluster:
        report = run_cluster_bench(
            scale=args.scale,
            seed=args.seed,
            workers_values=tuple(args.workers),
            shards=args.shards,
            elastic=args.elastic,
        )
        output = args.output or repo_root / DEFAULT_CLUSTER_ARTIFACT
    elif args.windowed:
        report = run_windowed_bench(
            scale=args.scale,
            seed=args.seed,
            jobs_values=jobs_values,
            shards=args.shards,
            split_attacks=args.split_attacks,
            window_blocks=args.window_blocks,
            queue_depth=args.queue_depth,
            block_size=args.block_size,
        )
        output = args.output or repo_root / DEFAULT_WINDOWED_ARTIFACT
    elif args.stream:
        report = run_stream_bench(
            scale=args.scale,
            seed=args.seed,
            jobs_values=jobs_values,
            shards=args.shards,
            queue_depth=args.queue_depth,
            block_size=args.block_size,
        )
        output = args.output or repo_root / DEFAULT_STREAM_ARTIFACT
    else:
        report = run_wildscan_bench(
            scale=args.scale,
            seed=args.seed,
            jobs_values=jobs_values,
            shards=args.shards,
            repeats=args.repeats,
        )
        output = args.output or repo_root / DEFAULT_ARTIFACT
    path = write_artifact(report, output)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
