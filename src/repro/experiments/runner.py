"""Experiment CLI: regenerate every table and figure of the paper.

Usage::

    python -m repro.experiments all
    python -m repro.experiments table5 --scale 0.1
    leishen table4            # via the installed console script
"""

from __future__ import annotations

import argparse
import sys
import time

from ..workload.generator import WildScanConfig, WildScanner
from . import ablations, cluster, fig1, fig8, perf, robustness, scan, service, stream, table1, table4, table5, table6, table7

__all__ = ["main"]

_EXPERIMENTS = ("fig1", "table1", "table4", "table5", "table6", "table7", "fig8",
                "perf", "ablations")

#: the scan-service front (repro.experiments.service / repro.service).
_SERVICE_COMMANDS = ("serve", "submit", "status", "results")

#: experiments that take nothing from the command line.
_STATIC = {"fig1": fig1, "table1": table1, "table4": table4, "perf": perf,
           "ablations": ablations}

#: views of one wild-scan result: ``all`` scans once and renders each.
_WILD_SCAN_VIEWS = {"table5": table5, "table6": table6, "table7": table7, "fig8": fig8}


def _run_one(name: str, config: WildScanConfig, args, ledger: str | None) -> str:
    """Render one experiment that is not a view of the shared wild scan."""
    if name in _STATIC:
        return _STATIC[name].render()
    if name == "robustness":
        return robustness.render(
            seed=config.seed,
            instances=args.instances if args.instances is not None
            else robustness.DEFAULT_INSTANCES,
        )
    if name == "scan":
        return scan.render(config, ledger=ledger, profile_out=args.profile_out)
    if name == "stream":
        return stream.render(
            config, queue_depth=args.queue_depth, block_size=args.block_size,
            ledger=ledger, profile_out=args.profile_out, windowed=args.windowed,
            window_blocks=args.window_blocks or stream.DEFAULT_WINDOW_BLOCKS,
        )
    if name == "cluster":
        if args.connect:
            return cluster.render_worker(args.connect)
        if args.standby:
            return cluster.render_standby(
                config, primary=args.standby, host=args.host, port=args.port,
                heartbeat_timeout=args.heartbeat_timeout, ledger=ledger,
            )
        if args.serve:
            return cluster.render_serve(
                config, host=args.host, port=args.port,
                heartbeat_timeout=args.heartbeat_timeout, ledger=ledger,
                profile_out=args.profile_out,
            )
        return cluster.render_local(
            config, workers=args.workers,
            heartbeat_timeout=args.heartbeat_timeout,
            autoscale=args.autoscale, min_workers=args.min_workers,
            max_workers=args.max_workers, verify=not args.no_verify,
            ledger=ledger, profile_out=args.profile_out,
        )
    raise ValueError(f"unknown experiment {name!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="leishen",
        description="Regenerate the paper's tables and figures from the reproduction.",
    )
    parser.add_argument(
        "experiment",
        choices=(*_EXPERIMENTS, "robustness", "scan", "stream", "cluster",
                 *_SERVICE_COMMANDS, "all"),
        help="which table/figure to regenerate ('robustness' sweeps the "
        "adversarial mutation matrix and prints per-family "
        "precision/recall, 'scan' runs the batch wild scan, 'stream' "
        "the live streaming-detection pipeline, 'cluster' the "
        "distributed scan; 'serve' starts the resident scan service "
        "and 'submit'/'status'/'results' talk to it; none of these is "
        "part of 'all')",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.1,
        help="wild-scan population scale (1.0 = the paper's 272,984 txs)",
    )
    parser.add_argument("--full", action="store_true", help="shorthand for --scale 1.0")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the wild-scan experiments (table5/6/7, fig8); "
        "results are byte-identical for any value",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="pin the wild-scan shard count (default: automatic; the shard "
        "count, not --jobs, defines the deterministic partition)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=stream.DEFAULT_QUEUE_DEPTH,
        help="stream only: per-worker bounded queue size (backpressure knob)",
    )
    parser.add_argument(
        "--block-size",
        type=int,
        default=stream.DEFAULT_BLOCK_SIZE,
        help="stream only: transactions per simulated block",
    )
    parser.add_argument(
        "--windowed",
        action="store_true",
        help="stream only: also run the cross-transaction windowed matcher "
        "over a sliding block window (per-transaction results are "
        "byte-identical with or without it)",
    )
    parser.add_argument(
        "--window-blocks",
        type=int,
        default=None,
        help="stream --windowed: sliding window size in emitted blocks "
        f"(default {stream.DEFAULT_WINDOW_BLOCKS})",
    )
    parser.add_argument(
        "--split-attacks",
        type=int,
        default=0,
        help="stream only: append N labelled split-attack groups to the "
        "schedule, each spreading one attack across several transactions "
        "(invisible per-tx, detectable with --windowed)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="cluster only: local worker processes to spawn (default 2)",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="cluster only: coordinator mode — listen for remote workers "
        "on --host/--port instead of spawning local ones",
    )
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT[,HOST:PORT...]",
        default=None,
        help="cluster only: worker mode — serve a coordinator from the "
        "comma-separated address list (primary first, failover standbys "
        "after) until drained; a dead address rotates to the next",
    )
    parser.add_argument(
        "--standby",
        metavar="HOST:PORT",
        default=None,
        help="cluster only: hot-standby mode — follow the primary "
        "coordinator at HOST:PORT, probe its liveness, and adopt the "
        "shared --ledger journal when it dies, finishing the scan on "
        "this process's own --host/--port socket",
    )
    parser.add_argument(
        "--host",
        default="0.0.0.0",
        help="cluster --serve: interface to listen on (default 0.0.0.0)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=9733,
        help="cluster --serve: port to listen on (default 9733; 0 = ephemeral)",
    )
    parser.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=cluster.DEFAULT_HEARTBEAT_TIMEOUT,
        help="cluster only: seconds without a heartbeat before a worker's "
        "shards are requeued",
    )
    parser.add_argument(
        "--autoscale",
        action="store_true",
        help="cluster only: elastic worker pool — --workers becomes the "
        "initial pool size (0 scales from zero against queue depth), "
        "bounded by --min-workers/--max-workers, with idle drain and "
        "probation re-admission of excluded workers",
    )
    parser.add_argument(
        "--min-workers",
        type=int,
        default=0,
        help="cluster --autoscale: floor the pool never drains below "
        "(default 0)",
    )
    parser.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="cluster --autoscale: pool size cap (default max(--workers, 2))",
    )
    parser.add_argument(
        "--data-dir",
        metavar="DIR",
        default=".leishen-service",
        help="serve only: service data directory — one subdirectory per "
        "run holding its manifest and run ledger (default "
        ".leishen-service); a restarted service re-adopts what it finds",
    )
    parser.add_argument(
        "--executors",
        type=int,
        default=2,
        help="serve only: concurrent scan executors (default 2)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=16,
        help="serve only: admission queue bound — submissions beyond this "
        "are rejected loudly instead of piling up (default 16)",
    )
    parser.add_argument(
        "--backend",
        choices=("batch", "stream", "cluster"),
        default=None,
        help="serve: default execution backend for admitted runs; "
        "submit: backend for this run (default: the server's)",
    )
    parser.add_argument(
        "--address",
        metavar="HOST:PORT",
        default="127.0.0.1:9744",
        help="submit/status/results: the serving scan service "
        "(default 127.0.0.1:9744)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=7,
        help="wild-scan seed of table5/6/7, fig8, scan, stream, cluster "
        "and submit, and the robustness sweep seed (default 7); part of "
        "a scan's identity, so a ledger resumes and a re-submit "
        "coalesces only under the same seed/scale/shards",
    )
    parser.add_argument(
        "--instances",
        type=int,
        default=None,
        help="robustness only: attack instances per (family, mutation) "
        f"cell (default {robustness.DEFAULT_INSTANCES})",
    )
    parser.add_argument(
        "--run-id",
        metavar="RUN",
        default=None,
        help="status/results: the run to query (status without it lists "
        "every run)",
    )
    parser.add_argument(
        "--offset",
        type=int,
        default=0,
        help="results only: first detection index of the page (default 0)",
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=None,
        help="results only: page size (default: everything from --offset)",
    )
    parser.add_argument(
        "--wait",
        action="store_true",
        help="submit only: block until the run completes and print its "
        "summary",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="submit --wait: give up after this many seconds",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="cluster only: skip the batch-engine identity check "
        "(halves the runtime at large scales)",
    )
    parser.add_argument(
        "--ledger",
        metavar="PATH",
        default=None,
        help="scan/stream/cluster: journal completed shards to PATH "
        "(append-only JSONL run ledger); an existing ledger for the same "
        "config is resumed, a config mismatch is an error",
    )
    parser.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help="scan/stream/cluster: resume an existing run ledger at PATH "
        "(like --ledger, but the file must already exist)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="scan/stream/cluster: collect per-stage timers/counters and "
        "print the merged stage profile (results are unchanged)",
    )
    parser.add_argument(
        "--profile-out",
        metavar="PATH",
        default=None,
        help="scan/stream/cluster: also write the stage profile as a JSON "
        "artifact at PATH (implies --profile; default "
        "PROFILE_wildscan.json when --profile is given alone)",
    )
    parser.add_argument(
        "--no-prescreen",
        action="store_true",
        help="scan/stream/cluster: disable the flash-loan pre-screen fast "
        "path (results are byte-identical either way; for A/B timing)",
    )
    args = parser.parse_args(argv)
    if args.experiment in _SERVICE_COMMANDS:
        if args.executors < 1:
            parser.error(f"--executors must be >= 1, got {args.executors}")
        if args.max_queue < 1:
            parser.error(f"--max-queue must be >= 1, got {args.max_queue}")
        if args.offset < 0:
            parser.error(f"--offset must be >= 0, got {args.offset}")
        if args.limit is not None and args.limit < 1:
            parser.error(f"--limit must be >= 1, got {args.limit}")
        if args.experiment == "results" and args.run_id is None:
            parser.error("results requires --run-id (see 'status' for the list)")
        try:
            service.parse_address(args.address)
        except ValueError as exc:
            parser.error(f"--address: {exc}")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.shards is not None and args.shards < 1:
        parser.error(f"--shards must be >= 1, got {args.shards}")
    if args.queue_depth < 1:
        parser.error(f"--queue-depth must be >= 1, got {args.queue_depth}")
    if args.block_size < 1:
        parser.error(f"--block-size must be >= 1, got {args.block_size}")
    if args.window_blocks is not None and args.window_blocks < 1:
        parser.error(f"--window-blocks must be >= 1, got {args.window_blocks}")
    if args.split_attacks < 0:
        parser.error(f"--split-attacks must be >= 0, got {args.split_attacks}")
    if args.window_blocks is not None and not args.windowed:
        parser.error("--window-blocks requires --windowed")
    if args.instances is not None:
        if args.instances < 1:
            parser.error(f"--instances must be >= 1, got {args.instances}")
        if args.experiment != "robustness":
            parser.error("--instances only applies to robustness")
    if (args.windowed or args.split_attacks) and args.experiment != "stream":
        parser.error("--windowed/--window-blocks/--split-attacks only apply to stream")
    if args.autoscale:
        if args.workers < 0:
            parser.error(f"--workers must be >= 0 with --autoscale, got {args.workers}")
        if args.min_workers < 0:
            parser.error(f"--min-workers must be >= 0, got {args.min_workers}")
        if args.max_workers is not None and args.max_workers < 1:
            parser.error(f"--max-workers must be >= 1, got {args.max_workers}")
    elif args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if sum(map(bool, (args.serve, args.connect, args.standby))) > 1:
        parser.error("--serve, --connect and --standby are mutually exclusive")
    if args.autoscale and (args.serve or args.connect or args.standby):
        parser.error("--autoscale only applies to local cluster runs")
    if (args.serve or args.connect or args.standby) and args.experiment != "cluster":
        parser.error("--serve/--connect/--standby only apply to cluster")
    if args.ledger and args.resume:
        parser.error("--ledger and --resume are mutually exclusive")
    ledger = args.ledger or args.resume
    if ledger is not None and args.experiment not in ("scan", "stream", "cluster"):
        parser.error("--ledger/--resume only apply to scan, stream and cluster")
    if args.standby and ledger is None:
        parser.error("--standby requires --ledger/--resume (the shared journal)")
    if args.resume:
        import os

        if not os.path.exists(args.resume):
            parser.error(f"--resume: no ledger at {args.resume!r}")
    if ledger is not None and args.connect:
        parser.error("--ledger/--resume apply to the coordinator, not --connect")
    if args.profile_out is not None:
        args.profile = True
    elif args.profile:
        from ..runtime.profile import DEFAULT_PROFILE_ARTIFACT

        args.profile_out = DEFAULT_PROFILE_ARTIFACT
    if (args.profile or args.no_prescreen) and args.experiment not in (
        "scan", "stream", "cluster",
    ):
        parser.error("--profile/--no-prescreen only apply to scan, stream and cluster")
    config = WildScanConfig(
        scale=1.0 if args.full else args.scale, seed=args.seed,
        jobs=args.jobs, shards=args.shards,
        prescreen=not args.no_prescreen, profile=args.profile,
        split_attacks=args.split_attacks,
    )

    if args.experiment in _SERVICE_COMMANDS:
        start = time.perf_counter()
        if args.experiment == "serve":
            host, port = service.parse_address(args.address)
            output = service.render_serve(
                args.data_dir, host, port,
                executors=args.executors, max_queue=args.max_queue,
                backend=args.backend or "batch", cluster_workers=args.workers,
            )
        elif args.experiment == "submit":
            output = service.render_submit(
                args.address, config, backend=args.backend, jobs=args.jobs,
                wait=args.wait, timeout=args.timeout,
            )
        elif args.experiment == "status":
            output = service.render_status(args.address, run_id=args.run_id)
        else:
            output = service.render_results(
                args.address, args.run_id,
                offset=args.offset, limit=args.limit,
            )
        print(f"=== {args.experiment} ({time.perf_counter() - start:.1f}s) ===")
        print(output)
        print()
        return 0

    scanned = None
    names = list(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        start = time.perf_counter()
        if name in _WILD_SCAN_VIEWS:
            if scanned is None:
                scanned = WildScanner(config).run()
            output = _WILD_SCAN_VIEWS[name].render(scanned)
        else:
            output = _run_one(name, config, args, ledger)
        elapsed = time.perf_counter() - start
        print(f"=== {name} ({elapsed:.1f}s) ===")
        print(output)
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
