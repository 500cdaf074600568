"""Wild-scan throughput benchmark: sequential vs. sharded txs/sec.

Produces the ``BENCH_wildscan.json`` artifact that tracks the scan
engine's performance trajectory from PR 1 onward. Library-first so the
tier-1 suite, ``benchmarks/test_bench_wildscan.py`` and
``benchmarks/run_smoke.py`` all share one implementation::

    from repro.engine.bench import run_wildscan_bench, write_artifact

    report = run_wildscan_bench(scale=0.01, jobs_values=(1, 4))
    write_artifact(report, "BENCH_wildscan.json")
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

__all__ = [
    "effective_cpu_count",
    "run_wildscan_bench",
    "run_stream_bench",
    "run_windowed_bench",
    "run_cluster_bench",
    "run_resume_bench",
    "run_fullscale_bench",
    "run_failover_bench",
    "run_service_bench",
    "run_robustness_bench",
    "write_artifact",
    "DEFAULT_ARTIFACT",
    "DEFAULT_STREAM_ARTIFACT",
    "DEFAULT_WINDOWED_ARTIFACT",
    "DEFAULT_CLUSTER_ARTIFACT",
    "DEFAULT_RESUME_ARTIFACT",
    "DEFAULT_FULLSCALE_ARTIFACT",
    "DEFAULT_FAILOVER_ARTIFACT",
    "DEFAULT_SERVICE_ARTIFACT",
    "DEFAULT_ROBUSTNESS_ARTIFACT",
]

#: canonical artifact location (repo root, tracked across PRs).
DEFAULT_ARTIFACT = "BENCH_wildscan.json"

#: streaming-pipeline artifact (repo root, tracked across PRs).
DEFAULT_STREAM_ARTIFACT = "BENCH_stream.json"

#: cross-transaction windowed-detection artifact (repo root, tracked across PRs).
DEFAULT_WINDOWED_ARTIFACT = "BENCH_windowed.json"

#: distributed-scan artifact (repo root, tracked across PRs).
DEFAULT_CLUSTER_ARTIFACT = "BENCH_cluster.json"

#: run-ledger resume artifact (repo root, tracked across PRs).
DEFAULT_RESUME_ARTIFACT = "BENCH_resume.json"

#: full-scale (scale=1.0) end-to-end artifact (repo root, tracked across PRs).
DEFAULT_FULLSCALE_ARTIFACT = "BENCH_fullscale.json"

#: coordinator-failover survivability artifact (repo root, tracked across PRs).
DEFAULT_FAILOVER_ARTIFACT = "BENCH_failover.json"

#: resident scan-service artifact (repo root, tracked across PRs).
DEFAULT_SERVICE_ARTIFACT = "BENCH_service.json"

#: artifact written by :func:`run_robustness_bench`.
DEFAULT_ROBUSTNESS_ARTIFACT = "BENCH_robustness.json"


def effective_cpu_count() -> int:
    """CPUs this process may actually use.

    ``os.cpu_count()`` reports the host's cores, but cgroup/affinity
    limits (CI runners, containers, ``taskset``) can pin the process to
    fewer — the honest denominator for any speedup claim. Falls back to
    ``os.cpu_count()`` where affinity masks don't exist (e.g. macOS).
    """
    try:
        return len(os.sched_getaffinity(0)) or (os.cpu_count() or 1)
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def run_wildscan_bench(
    scale: float = 0.01,
    seed: int = 7,
    jobs_values: tuple[int, ...] = (1, 4),
    shards: int | None = None,
    repeats: int = 1,
) -> dict:
    """Time full wild scans (generate + execute + detect) per jobs value.

    Every run uses the same ``(seed, scale, shards)`` so the engine's
    determinism contract guarantees identical results — only wall-clock
    differs. ``shards`` defaults to the engine's auto rule; pass an
    explicit value (e.g. 8) to force sharding at tiny benchmark scales.
    Returns the report dict (see ``write_artifact`` for the schema).
    """
    from ..workload.generator import WildScanConfig, WildScanner

    runs = []
    reference_hashes: list[str] | None = None
    for jobs in jobs_values:
        config = WildScanConfig(scale=scale, seed=seed, jobs=jobs, shards=shards)
        best = None
        total = detected = 0
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            result = WildScanner(config).run()
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
            total, detected = result.total_transactions, result.detected_count
            hashes = [d.tx_hash for d in result.detections]
            if reference_hashes is None:
                reference_hashes = hashes
            elif hashes != reference_hashes:
                raise AssertionError(
                    f"determinism violation: jobs={jobs} changed the detections"
                )
        runs.append(
            {
                "jobs": jobs,
                "elapsed_s": round(best, 4),
                "txs_per_s": round(total / best, 1) if best else 0.0,
                "total_transactions": total,
                "detected": detected,
            }
        )
    by_jobs = {run["jobs"]: run for run in runs}
    speedup = None
    if 1 in by_jobs and len(by_jobs) > 1:
        fastest_parallel = min(
            (run for run in runs if run["jobs"] != 1), key=lambda run: run["elapsed_s"]
        )
        if fastest_parallel["elapsed_s"]:
            speedup = round(
                by_jobs[1]["elapsed_s"] / fastest_parallel["elapsed_s"], 2
            )
    return {
        "benchmark": "wildscan_throughput",
        "scale": scale,
        "seed": seed,
        "shards": shards,
        "cpu_count": effective_cpu_count(),
        "os_cpu_count": os.cpu_count(),
        "runs": runs,
        "speedup_best_parallel_vs_sequential": speedup,
    }


def run_stream_bench(
    scale: float = 0.01,
    seed: int = 7,
    jobs_values: tuple[int, ...] = (1, 4),
    shards: int | None = None,
    queue_depth: int | None = None,
    block_size: int | None = None,
) -> dict:
    """Time the streaming pipeline against the batch engine it must match.

    Runs the batch scan once as the reference, then a streaming run per
    ``jobs`` value with the same ``(seed, scale, shards)``; raises if any
    streaming run's detections differ from the batch result (the engine's
    identity contract), and records per-block latency percentiles,
    throughput and the queue high-watermark for ``BENCH_stream.json``.
    """
    from ..workload.generator import WildScanConfig, WildScanner
    from .stream import DEFAULT_BLOCK_SIZE, DEFAULT_QUEUE_DEPTH, StreamEngine

    queue_depth = queue_depth if queue_depth is not None else DEFAULT_QUEUE_DEPTH
    block_size = block_size if block_size is not None else DEFAULT_BLOCK_SIZE

    batch_config = WildScanConfig(scale=scale, seed=seed, jobs=1, shards=shards)
    start = time.perf_counter()
    batch = WildScanner(batch_config).run()
    batch_elapsed = time.perf_counter() - start
    reference_hashes = [d.tx_hash for d in batch.detections]

    runs = []
    for jobs in jobs_values:
        config = WildScanConfig(scale=scale, seed=seed, jobs=jobs, shards=shards)
        engine = StreamEngine(config, queue_depth=queue_depth, block_size=block_size)
        streamed = engine.run()
        hashes = [d.tx_hash for d in streamed.result.detections]
        if hashes != reference_hashes:
            raise AssertionError(
                f"identity violation: streaming at jobs={jobs} changed the "
                f"detections relative to the batch engine"
            )
        runs.append(
            {
                "jobs": jobs,
                "elapsed_s": round(streamed.elapsed_s, 4),
                "txs_per_s": round(streamed.txs_per_s, 1),
                "blocks": len(streamed.blocks),
                "block_latency_ms_p50": round(streamed.latency_percentile(0.50), 3),
                "block_latency_ms_p95": round(streamed.latency_percentile(0.95), 3),
                "max_queue_depth": streamed.max_queue_depth,
                "detected": streamed.result.detected_count,
                "total_transactions": streamed.total_transactions,
            }
        )
    return {
        "benchmark": "stream_throughput",
        "scale": scale,
        "seed": seed,
        "shards": shards,
        "queue_depth": queue_depth,
        "block_size": block_size,
        "cpu_count": effective_cpu_count(),
        "os_cpu_count": os.cpu_count(),
        "batch_elapsed_s": round(batch_elapsed, 4),
        "batch_detected": batch.detected_count,
        "runs": runs,
    }


def run_windowed_bench(
    scale: float = 0.01,
    seed: int = 7,
    jobs_values: tuple[int, ...] = (1, 4),
    shards: int | None = None,
    split_attacks: int = 2,
    window_blocks: int | None = None,
    queue_depth: int | None = None,
    block_size: int | None = None,
) -> dict:
    """Bench cross-transaction windowed detection for ``BENCH_windowed.json``.

    A batch reference run over a schedule carrying ``split_attacks``
    labelled split-attack groups, then per ``jobs`` value a windowed-off
    and a windowed-on streaming run of the same config. Three contracts
    are asserted on every invocation, strict mode or not:

    1. **per-tx identity** — both streaming runs' per-transaction
       detections match the batch reference exactly; enabling the
       window must never perturb the per-transaction results;
    2. **per-tx miss** — no transaction contributing to a labelled
       windowed detection appears in the per-transaction detections
       (each split round is individually benign, by construction);
    3. **windowed recall** — the windowed matcher recovers every
       labelled split group (recall 1.0 where per-tx recall is 0).

    Per-block latency percentiles for both modes land in the report so
    the window's overhead is visible; the latency *budget* only arms in
    ``benchmarks/test_bench_windowed.py`` behind ``REPRO_BENCH_STRICT=1``.
    """
    from ..leishen.window import windowed_recall
    from ..workload.generator import WildScanConfig, WildScanner
    from .stream import (
        DEFAULT_BLOCK_SIZE,
        DEFAULT_QUEUE_DEPTH,
        DEFAULT_WINDOW_BLOCKS,
        StreamEngine,
    )

    if split_attacks < 1:
        raise ValueError(f"split_attacks must be >= 1, got {split_attacks}")
    window_blocks = (
        window_blocks if window_blocks is not None else DEFAULT_WINDOW_BLOCKS
    )
    queue_depth = queue_depth if queue_depth is not None else DEFAULT_QUEUE_DEPTH
    block_size = block_size if block_size is not None else DEFAULT_BLOCK_SIZE

    batch_config = WildScanConfig(
        scale=scale, seed=seed, jobs=1, shards=shards, split_attacks=split_attacks
    )
    start = time.perf_counter()
    batch = WildScanner(batch_config).run()
    batch_elapsed = time.perf_counter() - start
    reference_hashes = [d.tx_hash for d in batch.detections]

    def stream_run(jobs: int, windowed: bool):
        config = WildScanConfig(
            scale=scale, seed=seed, jobs=jobs, shards=shards,
            split_attacks=split_attacks,
        )
        engine = StreamEngine(
            config, queue_depth=queue_depth, block_size=block_size,
            windowed=windowed, window_blocks=window_blocks,
        )
        streamed = engine.run()
        hashes = [d.tx_hash for d in streamed.result.detections]
        if hashes != reference_hashes:
            mode = "windowed" if windowed else "plain"
            raise AssertionError(
                f"identity violation: {mode} streaming at jobs={jobs} changed "
                f"the per-transaction detections relative to the batch engine"
            )
        return streamed

    runs = []
    for jobs in jobs_values:
        off = stream_run(jobs, windowed=False)
        on = stream_run(jobs, windowed=True)

        labelled = [d for d in on.windowed if d.split_group is not None]
        recall = windowed_recall(on.windowed, range(split_attacks))
        if recall < 1.0:
            raise AssertionError(
                f"windowed recall at jobs={jobs} is {recall:.0%}: the "
                f"window missed a labelled split-attack group"
            )
        split_txs = {tx for d in labelled for tx in d.tx_hashes}
        leaked = split_txs.intersection(reference_hashes)
        if leaked:
            raise AssertionError(
                f"per-tx contract violation: split-attack round(s) "
                f"{sorted(leaked)} were detected per-transaction — the "
                f"split scenario is not actually split"
            )
        runs.append(
            {
                "jobs": jobs,
                "off_elapsed_s": round(off.elapsed_s, 4),
                "on_elapsed_s": round(on.elapsed_s, 4),
                "off_block_latency_ms_p95": round(
                    off.latency_percentile(0.95), 3
                ),
                "on_block_latency_ms_p50": round(on.latency_percentile(0.50), 3),
                "on_block_latency_ms_p95": round(on.latency_percentile(0.95), 3),
                "windowed_detections": len(on.windowed),
                "labelled_detections": len(labelled),
                "split_recall_windowed": recall,
                "split_recall_per_tx": 0.0,
                "per_tx_detected": on.result.detected_count,
                "total_transactions": on.total_transactions,
            }
        )
    return {
        "benchmark": "windowed_detection",
        "scale": scale,
        "seed": seed,
        "shards": shards,
        "split_attacks": split_attacks,
        "window_blocks": window_blocks,
        "queue_depth": queue_depth,
        "block_size": block_size,
        "cpu_count": effective_cpu_count(),
        "os_cpu_count": os.cpu_count(),
        "batch_elapsed_s": round(batch_elapsed, 4),
        "batch_detected": batch.detected_count,
        "runs": runs,
    }


def run_cluster_bench(
    scale: float = 0.01,
    seed: int = 7,
    workers_values: tuple[int, ...] = (1, 2),
    shards: int | None = None,
    heartbeat_timeout: float | None = None,
    elastic: bool = False,
) -> dict:
    """Time distributed scans against the batch engine they must match.

    Runs the batch scan once as the reference, then a coordinator +
    local-workers run per ``workers`` value with the same
    ``(seed, scale, shards)``. The identity assertion is always on: any
    detection diverging from the batch result raises. A final
    fault-injection run kills one of two workers mid-shard and asserts
    the requeued, merged result *still* matches — the cluster's
    survival contract, pinned in ``BENCH_cluster.json`` on every smoke.

    ``elastic=True`` adds an autoscaled run: start with **zero** workers,
    let the :class:`~repro.cluster.autoscale.ElasticPool` scale to two
    against queue depth, kill one mid-shard (immediate exclusion at one
    strike), and let probation re-admit it — again asserting identity,
    with the scaling counters recorded under ``elastic_run``.
    """
    from ..cluster import ClusterWorker, WorkerKilled, run_cluster_scan
    from ..workload.generator import WildScanConfig, WildScanner

    def check_identity(result, label: str) -> None:
        hashes = [d.tx_hash for d in result.detections]
        if hashes != reference_hashes:
            raise AssertionError(
                f"identity violation: {label} changed the detections "
                f"relative to the batch engine"
            )

    batch_config = WildScanConfig(scale=scale, seed=seed, jobs=1, shards=shards)
    start = time.perf_counter()
    batch = WildScanner(batch_config).run()
    batch_elapsed = time.perf_counter() - start
    reference_hashes = [d.tx_hash for d in batch.detections]

    options = {}
    if heartbeat_timeout is not None:
        options["heartbeat_timeout"] = heartbeat_timeout

    runs = []
    for workers in workers_values:
        config = WildScanConfig(scale=scale, seed=seed, shards=shards)
        start = time.perf_counter()
        result, stats = run_cluster_scan(config, workers=workers, **options)
        elapsed = time.perf_counter() - start
        check_identity(result, f"cluster at workers={workers}")
        runs.append(
            {
                "workers": workers,
                "elapsed_s": round(elapsed, 4),
                "txs_per_s": round(result.total_transactions / elapsed, 1)
                if elapsed
                else 0.0,
                "total_transactions": result.total_transactions,
                "detected": result.detected_count,
                "requeues": stats.requeues,
                "heartbeat_requeues": stats.heartbeat_requeues,
                "duplicates_suppressed": stats.duplicates_suppressed,
                "worker_losses": stats.worker_losses,
            }
        )

    # fault injection: two workers, one dies mid-shard; the run must
    # survive (requeue) and still merge byte-identically.
    state = {"killed": False}

    def rigged_factory(index: int, address) -> ClusterWorker:
        def die(worker, shard, task):
            if not state["killed"] and task == 3:
                state["killed"] = True
                raise WorkerKilled()

        return ClusterWorker(
            address, name=f"bench-{index}", task_hook=die if index == 0 else None
        )

    config = WildScanConfig(scale=scale, seed=seed, shards=shards)
    start = time.perf_counter()
    result, stats = run_cluster_scan(
        config, workers=2, worker_factory=rigged_factory, **options
    )
    fault_elapsed = time.perf_counter() - start
    check_identity(result, "cluster with a killed worker")
    if state["killed"] and stats.worker_losses < 1:
        raise AssertionError("worker kill was not observed as a loss")
    fault_run = {
        "workers": 2,
        "killed_workers": 1 if state["killed"] else 0,
        "elapsed_s": round(fault_elapsed, 4),
        "requeues": stats.requeues,
        "worker_losses": stats.worker_losses,
        "duplicates_suppressed": stats.duplicates_suppressed,
        "detected": result.detected_count,
    }

    report = {
        "benchmark": "cluster_throughput",
        "scale": scale,
        "seed": seed,
        "shards": shards,
        "cpu_count": effective_cpu_count(),
        "os_cpu_count": os.cpu_count(),
        "batch_elapsed_s": round(batch_elapsed, 4),
        "batch_detected": batch.detected_count,
        "runs": runs,
        "fault_run": fault_run,
    }

    if elastic:
        # elastic autoscaling: scale from zero to two workers against
        # queue depth, kill one mid-shard (one strike excludes), let the
        # pool re-admit it on probation — identity must still hold.
        state = {"killed": False}

        def elastic_factory(index: int, address) -> ClusterWorker:
            def die(worker, shard, task):
                if index == 0 and not state["killed"] and task == 3:
                    state["killed"] = True
                    raise WorkerKilled()

            return ClusterWorker(address, name=f"elastic-{index}", task_hook=die)

        config = WildScanConfig(scale=scale, seed=seed, shards=shards)
        start = time.perf_counter()
        result, stats = run_cluster_scan(
            config,
            workers=0,
            autoscale=True,
            max_workers=2,
            autoscale_options={"poll_interval": 0.02, "probation_cooldown": 0.15},
            worker_factory=elastic_factory,
            max_worker_strikes=1,
            **options,
        )
        elastic_elapsed = time.perf_counter() - start
        check_identity(result, "elastic cluster with a killed worker")
        if state["killed"] and stats.worker_losses < 1:
            raise AssertionError("worker kill was not observed as a loss")
        report["elastic_run"] = {
            "initial_workers": 0,
            "max_workers": 2,
            "killed_workers": 1 if state["killed"] else 0,
            "elapsed_s": round(elastic_elapsed, 4),
            "detected": result.detected_count,
            "requeues": stats.requeues,
            "worker_losses": stats.worker_losses,
            "workers_excluded": stats.workers_excluded,
            "workers_spawned": stats.workers_spawned,
            "workers_drained": stats.workers_drained,
            "workers_readmitted": stats.workers_readmitted,
            "probation_passes": stats.probation_passes,
            "probation_failures": stats.probation_failures,
        }

    return report


def run_resume_bench(
    scale: float = 0.01,
    seed: int = 7,
    shards: int = 8,
    jobs: int = 1,
    interrupt_after: int | None = None,
) -> dict:
    """Time a journaled cold scan against resuming an interrupted one.

    Three runs over the same ``(seed, scale, shards)``, all journaled to
    a :class:`~repro.runtime.ledger.RunLedger`:

    1. **cold** — fresh ledger, every shard executed and recorded;
    2. **resumed** — a ledger pre-seeded with the first
       ``interrupt_after`` shards (default: half), simulating a run
       killed mid-flight; only the remainder is scheduled;
    3. **no-op resume** — the completed cold ledger reopened; zero
       shards execute and the result decodes straight from the journal.

    The identity assertion is always on: every run's detections must
    match the cold run bit for bit. Wall-clock only lands in the report
    (``speedup_resumed_vs_cold``); budget enforcement lives in
    ``benchmarks/test_bench_resume.py`` behind ``REPRO_BENCH_STRICT=1``.
    """
    import tempfile

    from ..runtime import RunLedger
    from ..workload.generator import WildScanConfig
    from .plan import build_schedule, shard_schedule
    from .scan import ScanEngine, run_shard

    if shards < 2:
        raise ValueError("run_resume_bench needs at least 2 shards")
    interrupted = interrupt_after if interrupt_after is not None else shards // 2
    if not 0 < interrupted < shards:
        raise ValueError(
            f"interrupt_after must fall inside (0, {shards}), got {interrupted}"
        )

    config = WildScanConfig(scale=scale, seed=seed, jobs=jobs, shards=shards)

    def check_identity(result, label: str) -> None:
        hashes = [d.tx_hash for d in result.detections]
        if hashes != reference_hashes:
            raise AssertionError(
                f"identity violation: {label} changed the detections "
                f"relative to the cold journaled run"
            )

    with tempfile.TemporaryDirectory(prefix="repro-resume-bench-") as tmp:
        tmp = Path(tmp)

        # 1. cold: journal every shard from scratch.
        cold_engine = ScanEngine(config, ledger=tmp / "cold.ledger")
        start = time.perf_counter()
        cold = cold_engine.run()
        cold_elapsed = time.perf_counter() - start
        reference_hashes = [d.tx_hash for d in cold.detections]

        # 2. resumed: pre-seed a ledger with the first ``interrupted``
        # shards (the work a killed run left behind), then resume.
        parts = shard_schedule(build_schedule(scale, seed), shards)
        seeded = RunLedger.create(tmp / "killed.ledger", config, shards)
        for index in range(interrupted):
            seeded.record(run_shard((config, index, shards, parts[index])))
        seeded.close()

        resumed_engine = ScanEngine(config, ledger=tmp / "killed.ledger")
        start = time.perf_counter()
        resumed = resumed_engine.run()
        resumed_elapsed = time.perf_counter() - start
        check_identity(resumed, f"resume after {interrupted} shards")

        # 3. no-op resume: the completed cold ledger schedules nothing.
        noop_engine = ScanEngine(config, ledger=tmp / "cold.ledger")
        start = time.perf_counter()
        noop = noop_engine.run()
        noop_elapsed = time.perf_counter() - start
        check_identity(noop, "no-op resume of a complete ledger")

        cold_ledger = cold_engine.ledger
        resumed_ledger = resumed_engine.ledger
        noop_ledger = noop_engine.ledger

    speedup = round(cold_elapsed / resumed_elapsed, 2) if resumed_elapsed else None
    return {
        "benchmark": "resume_ledger",
        "scale": scale,
        "seed": seed,
        "shards": shards,
        "jobs": jobs,
        "cpu_count": effective_cpu_count(),
        "os_cpu_count": os.cpu_count(),
        "cold_run": {
            "elapsed_s": round(cold_elapsed, 4),
            "shards_resumed": cold_ledger.resumed_count,
            "shards_recorded": cold_ledger.recorded_count,
            "total_transactions": cold.total_transactions,
            "detected": cold.detected_count,
        },
        "resumed_run": {
            "interrupted_after": interrupted,
            "elapsed_s": round(resumed_elapsed, 4),
            "shards_resumed": resumed_ledger.resumed_count,
            "shards_recorded": resumed_ledger.recorded_count,
            "detected": resumed.detected_count,
        },
        "noop_resume": {
            "elapsed_s": round(noop_elapsed, 4),
            "shards_resumed": noop_ledger.resumed_count,
            "shards_recorded": noop_ledger.recorded_count,
            "detected": noop.detected_count,
        },
        "speedup_resumed_vs_cold": speedup,
    }


def run_fullscale_bench(
    scale: float = 1.0,
    seed: int = 7,
    jobs_values: tuple[int, ...] | None = None,
    shards: int | None = None,
    profile_path: str | Path | None = None,
) -> dict:
    """The end-to-end full-scale benchmark: scale-1.0 scans, all paths.

    Three measured configurations over the same ``(seed, scale, shards)``:

    1. **sequential** (``jobs=1``) — the reference run; it also profiles
       (``profile=True``) and its merged stage profile is written to
       ``profile_path`` when given;
    2. **parallel** — one run per remaining ``jobs_values`` entry
       (default: the effective CPU count), chunk-submitted over the
       process pool;
    3. **pre-screen off** — the fastest jobs value with ``prescreen=False``.

    The identity assertion is always on: every run's detections must be
    byte-identical (via the wire encoding) to the sequential reference —
    across jobs counts and with/without pre-screen. Wall-clock lands in
    the report only; speedup enforcement lives in
    ``benchmarks/test_bench_fullscale.py`` behind
    ``REPRO_BENCH_STRICT=1`` (a 1-CPU runner cannot beat sequential).
    """
    from ..workload.generator import WildScanConfig
    from .scan import ScanEngine
    from .wire import detection_to_wire

    cpus = effective_cpu_count()
    if jobs_values is None:
        jobs_values = (1, cpus if cpus > 1 else 2)
    jobs_values = tuple(dict.fromkeys(jobs_values))
    if jobs_values[0] != 1:
        jobs_values = (1, *jobs_values)

    def fingerprint(result) -> str:
        return json.dumps(
            {
                "total": result.total_transactions,
                "detections": [detection_to_wire(d) for d in result.detections],
                "rows": {
                    name: [row.n, row.tp, row.fp]
                    for name, row in sorted(result.rows.items())
                },
            },
            sort_keys=True,
        )

    def timed_run(config):
        engine = ScanEngine(config)
        start = time.perf_counter()
        result = engine.run()
        return result, time.perf_counter() - start, engine

    runs = []
    reference = None
    total = detected = 0
    profiled_engine = None
    for jobs in jobs_values:
        config = WildScanConfig(
            scale=scale, seed=seed, jobs=jobs, shards=shards, profile=jobs == 1
        )
        result, elapsed, engine = timed_run(config)
        if jobs == 1:
            profiled_engine = engine
        fp = fingerprint(result)
        if reference is None:
            reference = fp
        elif fp != reference:
            raise AssertionError(
                f"identity violation: jobs={jobs} changed the detections"
            )
        total, detected = result.total_transactions, result.detected_count
        runs.append(
            {
                "jobs": jobs,
                "elapsed_s": round(elapsed, 4),
                "txs_per_s": round(total / elapsed, 1) if elapsed else 0.0,
                "total_transactions": total,
                "detected": detected,
            }
        )

    by_jobs = {run["jobs"]: run for run in runs}
    sequential_elapsed = by_jobs[1]["elapsed_s"]
    speedup = None
    parallel_runs = [run for run in runs if run["jobs"] != 1]
    if parallel_runs:
        fastest = min(parallel_runs, key=lambda run: run["elapsed_s"])
        if fastest["elapsed_s"]:
            speedup = round(sequential_elapsed / fastest["elapsed_s"], 2)
        fastest_jobs = fastest["jobs"]
    else:
        fastest_jobs = 1

    # 3. pre-screen off: the skip must be invisible in the result bytes.
    off_config = WildScanConfig(
        scale=scale, seed=seed, jobs=fastest_jobs, shards=shards, prescreen=False
    )
    off_result, off_elapsed, _ = timed_run(off_config)
    if fingerprint(off_result) != reference:
        raise AssertionError(
            "identity violation: disabling the pre-screen changed the detections"
        )

    report = {
        "benchmark": "fullscale_wildscan",
        "scale": scale,
        "seed": seed,
        "shards": shards,
        "cpu_count": cpus,
        "os_cpu_count": os.cpu_count(),
        "total_transactions": total,
        "detected": detected,
        "runs": runs,
        "speedup_best_parallel_vs_sequential": speedup,
        "prescreen_off_run": {
            "jobs": fastest_jobs,
            "elapsed_s": round(off_elapsed, 4),
            "identical": True,
        },
    }
    if profile_path is not None and profiled_engine.profile is not None:
        from ..runtime.profile import write_profile

        report["profile_artifact"] = str(
            write_profile(profiled_engine.profile, profile_path)
        )
    return report


def _failover_primary_main(
    path: str, port: int, scale: float, seed: int, shards: int | None
) -> None:
    """Forked child: a primary coordinator serving a journaled scan.

    The failover bench SIGKILLs this process mid-run — no cleanup, no
    goodbye, possibly a torn journal tail.
    """
    from ..cluster import Coordinator
    from ..workload.generator import WildScanConfig

    config = WildScanConfig(scale=scale, seed=seed, shards=shards)
    coordinator = Coordinator(
        config, host="127.0.0.1", port=port, ledger=path, local_fallback=False
    )
    coordinator.start()
    coordinator.run()


def _journaled_ledger_shards(path: Path) -> int:
    """Intact journaled shards (snapshot prefix + tail; torn tail ignored)."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (FileNotFoundError, UnicodeDecodeError):
        return 0
    count = 0
    for line in lines[1:]:
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            break
        if record.get("kind") == "shard":
            count += 1
        elif record.get("kind") == "snapshot":
            count += record.get("shards", 0)
    return count


def run_failover_bench(
    scale: float = 0.01,
    seed: int = 7,
    shards: int | None = 8,
    workers: int = 2,
    autoscale: bool = False,
    task_delay: float = 0.005,
    compact_shard_counts: tuple[int, ...] = (8, 32),
) -> dict:
    """The survivability benchmark: kill the primary, adopt, stay identical.

    Two measured sections for ``BENCH_failover.json``:

    1. **failover** — a primary coordinator runs a journaled scan in a
       forked child process while reconnecting workers (multi-address
       connect list: primary + standby) execute deliberately slowed
       shards. As soon as one shard is journaled the child is SIGKILLed.
       The hot standby's probe detects the refused serve socket, adopts
       the journal (resuming every journaled shard, truncating any torn
       tail), the workers fail over through their reconnect loop —
       optionally alongside an :class:`~repro.cluster.autoscale.ElasticPool`
       (``autoscale=True``) on the adopted coordinator — and the scan
       finishes. Recorded: detection/adoption/recovery wall-clock,
       shards journaled at the kill, resumed shards, worker failovers.
       Where ``fork`` is unavailable the kill degrades to a pre-seeded
       journal with a never-alive primary (``"real_kill": false``).
    2. **compaction** — for each shard count, a fully journaled ledger is
       timed through ``RunLedger.open()`` before and after compaction:
       open cost tracks the journaled *record* count, so the compacted
       file (one snapshot record) opens in near-constant time while the
       uncompacted cost grows with shard count.

    The identity assertions are always on: the failed-over merged result
    must be byte-identical (wire encoding) to an uninterrupted in-process
    run, and every compacted ledger must merge byte-identical to its
    uncompacted self. Recovery-time budgets live in
    ``benchmarks/test_bench_failover.py`` behind ``REPRO_BENCH_STRICT=1``.
    """
    import multiprocessing
    import signal
    import socket as socket_module
    import tempfile
    import threading

    from ..cluster import ClusterWorker, StandbyCoordinator
    from ..runtime import RunLedger
    from ..workload.generator import WildScanConfig
    from .plan import build_schedule, resolve_shard_count, shard_schedule
    from .scan import ScanEngine, run_shard
    from .wire import detection_to_wire

    def fingerprint(result) -> str:
        return json.dumps(
            {
                "total": result.total_transactions,
                "detections": [detection_to_wire(d) for d in result.detections],
                "rows": {
                    name: [row.n, row.tp, row.fp]
                    for name, row in sorted(result.rows.items())
                },
            },
            sort_keys=True,
        )

    def reserve_port() -> tuple[str, int]:
        probe = socket_module.socket(socket_module.AF_INET, socket_module.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        address = probe.getsockname()[:2]
        probe.close()
        return address

    config = WildScanConfig(scale=scale, seed=seed, shards=shards)
    start = time.perf_counter()
    reference_result = ScanEngine(config).run()
    uninterrupted_elapsed = time.perf_counter() - start
    reference = fingerprint(reference_result)

    # -- section 1: kill the primary mid-scan, adopt, finish ------------
    can_fork = "fork" in multiprocessing.get_all_start_methods()
    with tempfile.TemporaryDirectory(prefix="repro-failover-bench-") as tmp:
        path = Path(tmp) / "run.ledger"
        primary_address = reserve_port()
        child = None
        if can_fork:
            ctx = multiprocessing.get_context("fork")
            child = ctx.Process(
                target=_failover_primary_main,
                args=(str(path), primary_address[1], scale, seed, shards),
                daemon=True,
            )
            try:
                child.start()
            except (OSError, PermissionError):
                child = None  # sandboxed: degrade to the pre-seeded path
        real_kill = child is not None
        if not real_kill:
            # no forked primary to kill: emulate its remains — a journal
            # holding the first half of the shards (never-alive primary).
            tasks = build_schedule(scale, seed)
            count = resolve_shard_count(shards, len(tasks))
            parts = shard_schedule(tasks, count)
            seeded = RunLedger.create(path, config, count)
            for index in range(max(1, count // 2)):
                seeded.record(run_shard((config, index, count, parts[index])))
            seeded.close()

        standby = StandbyCoordinator(
            config,
            primary=primary_address,
            ledger=path,
            probe_interval=0.05,
            probe_failures=3,
            coordinator_options={"local_fallback": True},
        )
        standby.start()
        hook = (
            (lambda worker, shard, number: time.sleep(task_delay))
            if task_delay
            else None
        )
        fleet = []
        for index in range(workers):
            worker = ClusterWorker(
                [primary_address, standby.address],
                name=f"failover-{index}",
                connect_timeout=2.0,
                reconnect=True,
                reconnect_backoff=0.05,
                reconnect_max_delay=0.25,
                reconnect_tries=400,
                task_hook=hook,
            )
            box: list = []
            thread = threading.Thread(
                target=lambda w=worker, b=box: b.append(w.run()), daemon=True
            )
            thread.start()
            fleet.append((worker, thread, box))
        try:
            if real_kill:
                deadline = time.monotonic() + 300.0
                while time.monotonic() < deadline:
                    if _journaled_ledger_shards(path) >= 1:
                        break
                    if not child.is_alive():
                        break
                    time.sleep(0.01)
                kill_started = time.perf_counter()
                if child.is_alive():
                    os.kill(child.pid, signal.SIGKILL)
                child.join(timeout=10.0)
            else:
                kill_started = time.perf_counter()
            journaled_at_kill = _journaled_ledger_shards(path)
            if not standby.wait_for_primary_death(timeout=120.0):
                raise AssertionError("standby never detected the primary's death")
            detect_elapsed = time.perf_counter() - kill_started
            start = time.perf_counter()
            result = standby.adopt_and_run(
                timeout=600.0,
                autoscale=autoscale,
                max_workers=max(2, workers),
                autoscale_options={"poll_interval": 0.02} if autoscale else None,
            )
            adopted_elapsed = time.perf_counter() - start
            recovery_elapsed = time.perf_counter() - kill_started
        finally:
            for worker, _, _ in fleet:
                worker.stop()
            for _, thread, _ in fleet:
                thread.join(timeout=10.0)
            standby.shutdown()
            if child is not None and child.is_alive():
                child.terminate()
                child.join(timeout=5.0)

        if fingerprint(result) != reference:
            raise AssertionError(
                "identity violation: the failed-over scan changed the "
                "detections relative to an uninterrupted run"
            )
        stats = standby.stats
        failover_run = {
            "real_kill": real_kill,
            "workers": workers,
            "autoscale": autoscale,
            "journaled_at_kill": journaled_at_kill,
            "detect_s": round(detect_elapsed, 4),
            "adopted_run_s": round(adopted_elapsed, 4),
            "recovery_s": round(recovery_elapsed, 4),
            "resumed_shards": stats.resumed_shards,
            "assignments": stats.assignments,
            "duplicates_suppressed": stats.duplicates_suppressed,
            "local_fallback_shards": stats.local_fallback_shards,
            "worker_failovers": sum(
                box[0].failovers for _, _, box in fleet if box
            ),
            "identical": True,
        }

    # -- section 2: open()/replay cost, compacted vs uncompacted --------
    compaction_runs = []
    for requested in compact_shard_counts:
        tasks = build_schedule(scale, seed)
        count = resolve_shard_count(requested, len(tasks))
        compact_config = WildScanConfig(scale=scale, seed=seed, shards=requested)
        parts = shard_schedule(tasks, count)
        with tempfile.TemporaryDirectory(prefix="repro-compact-bench-") as tmp:
            ledger_path = Path(tmp) / "full.ledger"
            full = RunLedger.create(ledger_path, compact_config, count)
            for index in range(count):
                full.record(run_shard((compact_config, index, count, parts[index])))
            full.close()

            def open_best(repeats: int = 5) -> tuple[float, "RunLedger"]:
                best = None
                opened = None
                for _ in range(repeats):
                    if opened is not None:
                        opened.close()
                    began = time.perf_counter()
                    opened = RunLedger.open(
                        ledger_path, config=compact_config, shard_count=count
                    )
                    elapsed = time.perf_counter() - began
                    best = elapsed if best is None else min(best, elapsed)
                return best, opened

            uncompacted_open, opened = open_best()
            uncompacted_fp = fingerprint(opened.merge())
            opened.compact()  # fold the whole journal, rotate the file
            opened.close()
            compacted_open, opened = open_best()
            compacted_fp = fingerprint(opened.merge())
            opened.close()
            if compacted_fp != uncompacted_fp:
                raise AssertionError(
                    f"identity violation: compaction at {count} shards "
                    f"changed the merged result"
                )
        compaction_runs.append(
            {
                "shards": count,
                "uncompacted_records": count,
                "compacted_records": 1,
                "uncompacted_open_ms": round(uncompacted_open * 1000, 3),
                "compacted_open_ms": round(compacted_open * 1000, 3),
                "open_speedup": round(uncompacted_open / compacted_open, 2)
                if compacted_open
                else None,
                "identical": True,
            }
        )

    return {
        "benchmark": "coordinator_failover",
        "scale": scale,
        "seed": seed,
        "shards": shards,
        "cpu_count": effective_cpu_count(),
        "os_cpu_count": os.cpu_count(),
        "uninterrupted_elapsed_s": round(uninterrupted_elapsed, 4),
        "total_transactions": reference_result.total_transactions,
        "detected": reference_result.detected_count,
        "failover_run": failover_run,
        "compaction_runs": compaction_runs,
    }


def run_service_bench(
    scale: float = 0.02,
    seed: int = 7,
    shards: int = 4,
    executors: int = 2,
    burst: int = 4,
) -> dict:
    """Bench the resident scan service against a standalone engine run.

    One service process, talked to over its TCP protocol, measures the
    latencies a multi-tenant deployment cares about:

    1. **cold submit** — empty data dir: submit-to-result includes the
       world builds;
    2. **burst** — ``burst`` distinct configs submitted concurrently
       from separate client connections plus one duplicate of the first
       (which must coalesce, not scan): per-run queue wait is the gap
       between submission and execution start.

    Identity is always asserted: the cold run's paged-out detections
    must match a standalone :class:`ScanEngine` run of the same config
    wire-byte for wire-byte, and a paged fetch must equal the unpaged
    one. Wall-clock is recorded, not gated.
    """
    import tempfile
    import threading

    from ..service import ScanService, ServiceClient, ServiceServer
    from ..workload.generator import WildScanConfig
    from .scan import ScanEngine
    from .wire import detection_to_wire

    if burst < 2:
        raise ValueError(f"burst must be >= 2, got {burst}")

    cold_config = WildScanConfig(scale=scale, seed=seed, shards=shards)
    cold_reference = [
        detection_to_wire(d) for d in ScanEngine(cold_config).run().detections
    ]

    def check_identity(client, run_id: str) -> None:
        if client.results(run_id)["detections"] != cold_reference:
            raise AssertionError(
                "identity violation: the service's cold run diverged "
                "from the standalone engine"
            )
        paged: list[dict] = []
        offset = 0
        while True:
            chunk = client.results(run_id, offset=offset, limit=3)
            paged.extend(chunk["detections"])
            if chunk["next_offset"] is None:
                break
            offset = chunk["next_offset"]
        if paged != cold_reference:
            raise AssertionError(
                "identity violation: paged fetch of the cold run "
                "differs from the unpaged merge"
            )

    with tempfile.TemporaryDirectory(prefix="repro-service-bench-") as tmp:
        service = ScanService(tmp, executors=executors, max_queue=max(burst + 2, 8))
        with service, ServiceServer(service) as server:
            with ServiceClient(server.address) as client:
                # 1. cold: includes every shard's world build.
                start = time.perf_counter()
                cold_run = client.submit(cold_config)
                cold_view = client.wait(cold_run["run_id"], timeout=600)
                check_identity(client, cold_run["run_id"])
                cold_elapsed = time.perf_counter() - start
                if cold_view["state"] != "completed":
                    raise AssertionError(f"cold run ended {cold_view['state']}")

            # 2. burst: distinct configs from concurrent connections,
            # plus one duplicate that must coalesce instead of scanning.
            burst_configs = [
                WildScanConfig(scale=scale, seed=seed + 10 + i, shards=shards)
                for i in range(burst)
            ]
            burst_views: list[dict | None] = [None] * burst
            duplicate: dict = {}

            def submit_one(index: int) -> None:
                with ServiceClient(server.address) as worker_client:
                    run = worker_client.submit(burst_configs[index])
                    if index == 0:
                        duplicate.update(worker_client.submit(burst_configs[0]))
                    burst_views[index] = worker_client.wait(
                        run["run_id"], timeout=600
                    )

            threads = [
                threading.Thread(target=submit_one, args=(i,)) for i in range(burst)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            burst_elapsed = time.perf_counter() - start

            if not duplicate.get("coalesced"):
                raise AssertionError(
                    "duplicate burst submission did not coalesce onto the "
                    "in-flight run"
                )
            for view in burst_views:
                if view is None or view["state"] != "completed":
                    raise AssertionError("burst run did not complete")
            queue_waits = [
                round(view["started_at"] - view["submitted_at"], 4)
                for view in burst_views
            ]
            stats = service.stats()

    return {
        "benchmark": "scan_service",
        "scale": scale,
        "seed": seed,
        "shards": shards,
        "executors": executors,
        "cpu_count": effective_cpu_count(),
        "os_cpu_count": os.cpu_count(),
        "cold_run": {
            "submit_to_result_s": round(cold_elapsed, 4),
            "detected": len(cold_reference),
        },
        "burst": {
            "runs": burst,
            "elapsed_s": round(burst_elapsed, 4),
            "queue_wait_s": queue_waits,
            "max_queue_wait_s": max(queue_waits),
            "coalesced_duplicates": stats["counters"]["coalesced"],
        },
    }


def run_robustness_bench(
    seed: int = 7,
    instances: int = 2,
    benign: int = 24,
) -> dict:
    """The adversarial-robustness benchmark: mutation sweep + contract checks.

    Runs the per-family × per-mutation sweep of
    :mod:`repro.experiments.robustness` twice and asserts, always:

    1. **determinism** — both sweeps score identically cell for cell;
    2. **baseline recall** — every family's unmutated attack is detected
       by its own pattern on every instance (recall 1.0);
    3. **documented evasions** — every ``expect_evades`` cell of the
       mutation matrix has recall 0.0: the mutation provably pushes the
       attack below the pattern's thresholds;
    4. **controls** — ``scale_amounts``, ``add_round`` and
       ``provider_swap`` keep recall 1.0 for every family (thresholds
       are minima over counts/ratios, and patterns match trades, not
       providers);
    5. **execution** — no cell reverted: the fee subsidy guarantees a
       mutated attack *executes and evades* rather than failing.

    Wall-clock enforcement (the whole double sweep under the budget)
    only applies under ``REPRO_BENCH_STRICT=1``, like every other bench.
    """
    from ..experiments.robustness import run as run_sweep
    from ..workload.mutate import MUTATIONS

    def sweep():
        start = time.perf_counter()
        result = run_sweep(seed=seed, instances=instances, benign=benign)
        return result, time.perf_counter() - start

    result, elapsed = sweep()
    repeat, repeat_elapsed = sweep()

    def matrix(res) -> dict:
        return {
            f"{cell.family}/{cell.mutation}": {
                "instances": cell.instances,
                "hits": cell.hits,
                "recall": cell.recall,
                "reverted": cell.reverted,
                "patterns": dict(sorted(cell.patterns.items())),
            }
            for cell in res.cells
        }

    cells = matrix(result)
    if matrix(repeat) != cells:
        raise AssertionError(
            "determinism violation: two robustness sweeps with the same "
            "seed scored differently"
        )
    families = result.families()
    for family in families:
        for control in ("baseline", "scale_amounts", "add_round", "provider_swap"):
            cell = result.cell(family, control)
            if cell.recall != 1.0 or cell.reverted:
                raise AssertionError(
                    f"{family}/{control}: expected recall 1.0, got "
                    f"{cell.recall:.2f} ({cell.reverted} reverted) — "
                    f"patterns seen: {cell.patterns}"
                )
    for mutation in MUTATIONS:
        for family in mutation.expect_evades:
            cell = result.cell(family, mutation.key)
            if cell.recall != 0.0:
                raise AssertionError(
                    f"{family}/{mutation.key}: documented evasion did not "
                    f"evade — recall {cell.recall:.2f}"
                )
    reverted = {key: cell["reverted"] for key, cell in cells.items() if cell["reverted"]}
    if reverted:
        raise AssertionError(f"cells reverted despite fee subsidy: {reverted}")

    return {
        "benchmark": "robustness",
        "seed": seed,
        "instances_per_cell": instances,
        "benign_per_family": benign,
        "families": families,
        "mutations": [m.key for m in MUTATIONS],
        "cells": cells,
        "precision": {f: result.precision(f) for f in families},
        "benign_total": result.benign_total,
        "benign_flagged": dict(result.benign_flagged),
        "evading_cells": sorted(
            key for key, cell in cells.items()
            if cell["recall"] == 0.0 and not key.endswith("/baseline")
        ),
        "elapsed_s": round(elapsed, 4),
        "repeat_elapsed_s": round(repeat_elapsed, 4),
        "machine": {"cpus": os.cpu_count()},
    }


def write_artifact(report: dict, path: str | Path = DEFAULT_ARTIFACT) -> Path:
    """Write the benchmark report as a stable, diff-friendly JSON file."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
