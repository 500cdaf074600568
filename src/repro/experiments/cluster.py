"""Distributed wild scan — the cluster deployment mode as an experiment.

Not a paper table: this surface runs the paper's Sec. VI-C evaluation
across cluster workers (:mod:`repro.cluster`) and reports wall-clock,
fault counters and the identity check against the batch engine. Three
modes, selected by the CLI flags:

- ``--workers N`` (default): coordinator plus ``N`` locally spawned
  workers — the single-machine path;
- ``--serve``: coordinator only, listening for remote workers on
  ``--host``/``--port``;
- ``--connect HOST:PORT[,HOST:PORT...]``: worker only, serving whichever
  listed coordinator answers (primary first, failover standby next)
  until drained;
- ``--standby HOST:PORT``: hot-standby coordinator — follow the primary
  at that address, probe its liveness, and adopt the shared
  ``--ledger`` journal when it dies, finishing the scan.

``--autoscale`` turns the fixed local spawn into an elastic pool
(:mod:`repro.cluster.autoscale`): ``--workers`` becomes the initial pool
size (0 scales from zero against queue depth), bounded by
``--min-workers``/``--max-workers``, with idle drain and probation
re-admission of excluded workers.
"""

from __future__ import annotations

import time

from ..cluster.coordinator import DEFAULT_HEARTBEAT_TIMEOUT
from ..workload.generator import WildScanConfig, WildScanner

__all__ = [
    "DEFAULT_HEARTBEAT_TIMEOUT", "render_local", "render_serve", "render_standby",
    "render_worker",
]


def _parse_address(text: str, flag: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"{flag} expects HOST:PORT, got {text!r}")
    return host, int(port)


def _summary_lines(result, stats, elapsed: float, workers_label: str) -> list[str]:
    txs_per_s = result.total_transactions / elapsed if elapsed else 0.0
    lines = [
        f"Cluster scan — {result.total_transactions} txs across "
        f"{workers_label} in {elapsed:.2f}s ({txs_per_s:,.0f} txs/s)",
        f"detections: {result.detected_count} ({result.true_positives} true, "
        f"precision {result.precision:.1%})",
        "faults: "
        f"{stats.requeues} requeue(s) ({stats.heartbeat_requeues} via heartbeat "
        f"timeout), {stats.worker_losses} worker loss(es), "
        f"{stats.duplicates_suppressed} duplicate(s) suppressed, "
        f"{stats.workers_excluded} worker(s) excluded, "
        f"{stats.local_fallback_shards} shard(s) via local fallback",
    ]
    if stats.workers_spawned or stats.workers_drained or stats.workers_readmitted:
        lines.append(
            "elastic: "
            f"{stats.workers_spawned} worker(s) spawned, "
            f"{stats.workers_drained} drained, "
            f"{stats.workers_readmitted} readmitted on probation "
            f"({stats.probation_passes} passed, {stats.probation_failures} failed)"
        )
    if stats.resumed_shards:
        lines.append(
            f"ledger: {stats.resumed_shards} shard(s) resumed from the journal"
        )
    return lines


def render_local(
    config: WildScanConfig,
    workers: int = 2,
    heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
    autoscale: bool = False,
    min_workers: int = 0,
    max_workers: int | None = None,
    verify: bool = True,
    ledger=None,
    profile_out=None,
) -> str:
    """Coordinator + ``workers`` local workers; optionally verify against
    the batch engine (doubles the work — skip with ``--no-verify`` at
    full scale).

    ``ledger`` (a path or an open :class:`repro.runtime.RunLedger`)
    journals every completed shard; a killed coordinator resumes from
    the same path, scheduling only the shards the journal is missing.
    ``config.profile`` asks every worker for its per-shard stage profile
    (protocol v4) and prints the merged one.
    """
    from ..cluster import run_cluster_scan

    start = time.perf_counter()
    result, stats = run_cluster_scan(
        config,
        workers=workers,
        autoscale=autoscale,
        min_workers=min_workers,
        max_workers=max_workers,
        heartbeat_timeout=heartbeat_timeout,
        ledger=ledger,
    )
    elapsed = time.perf_counter() - start
    lines = _summary_lines(
        result, stats, elapsed, f"{stats.workers_seen} local worker(s)"
    )
    if verify:
        batch = WildScanner(config).run()
        identical = (
            [d.tx_hash for d in batch.detections]
            == [d.tx_hash for d in result.detections]
            and batch.total_transactions == result.total_transactions
        )
        if not identical:
            raise AssertionError(
                "identity violation: cluster scan diverged from ScanEngine.run()"
            )
        lines.append("identity: merged result byte-identical to the batch engine")
    if stats.profile is not None:
        from ..runtime.profile import render_profile, write_profile

        lines.append(render_profile(stats.profile))
        if profile_out is not None:
            lines.append(
                f"profile written to {write_profile(stats.profile, profile_out)}"
            )
    return "\n".join(lines)


def render_serve(
    config: WildScanConfig,
    host: str = "0.0.0.0",
    port: int = 9733,
    heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
    ledger=None,
    profile_out=None,
) -> str:
    """Coordinator-only mode: wait for remote workers, then merge."""
    from ..cluster import Coordinator

    coordinator = Coordinator(
        config, host=host, port=port, heartbeat_timeout=heartbeat_timeout,
        ledger=ledger,
    )
    bound_host, bound_port = coordinator.address
    print(
        f"coordinator serving {coordinator.shard_count} shard(s) on "
        f"{bound_host}:{bound_port} — connect workers with: "
        f"experiments cluster --connect {bound_host}:{bound_port}",
        flush=True,
    )
    start = time.perf_counter()
    with coordinator:
        result = coordinator.run()
    elapsed = time.perf_counter() - start
    lines = _summary_lines(
        result, coordinator.stats, elapsed,
        f"{coordinator.stats.workers_seen} remote worker(s)",
    )
    if coordinator.profile is not None:
        from ..runtime.profile import render_profile, write_profile

        lines.append(render_profile(coordinator.profile))
        if profile_out is not None:
            lines.append(
                f"profile written to {write_profile(coordinator.profile, profile_out)}"
            )
    return "\n".join(lines)


def render_standby(
    config: WildScanConfig,
    primary: str = "",
    host: str = "0.0.0.0",
    port: int = 0,
    heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
    ledger=None,
) -> str:
    """Hot-standby mode: follow the primary coordinator at ``primary``
    (``HOST:PORT``), adopt the shared ``ledger`` journal when the
    liveness probe declares it dead, and finish the scan on this
    standby's own serve socket. Workers should list both addresses:
    ``--connect PRIMARY,STANDBY``."""
    from ..cluster import StandbyCoordinator

    if ledger is None:
        raise ValueError("--standby requires --ledger/--resume (the shared journal)")
    standby = StandbyCoordinator(
        config,
        primary=_parse_address(primary, "--standby"),
        ledger=ledger,
        host=host,
        port=port,
        coordinator_options={"heartbeat_timeout": heartbeat_timeout},
    )
    standby.start()
    bound_host, bound_port = standby.address
    primary_host, primary_port = standby.primary
    print(
        f"standby following {primary_host}:{primary_port}, adoption address "
        f"{bound_host}:{bound_port} — point workers at both: --connect "
        f"{primary_host}:{primary_port},{bound_host}:{bound_port}",
        flush=True,
    )
    try:
        standby.wait_for_primary_death()
        detect_s = standby.death_detected_at - standby.started_at
        print(
            f"primary dead after {detect_s:.2f}s of following "
            f"({standby.probe_count} probe(s)) — adopting the journal",
            flush=True,
        )
        start = time.perf_counter()
        result = standby.adopt_and_run()
        elapsed = time.perf_counter() - start
        stats = standby.stats
    finally:
        standby.shutdown()
    lines = _summary_lines(
        result, stats, elapsed, f"{stats.workers_seen} failed-over worker(s)"
    )
    lines.append(
        f"failover: {stats.resumed_shards} shard(s) adopted from the dead "
        f"primary's journal, {stats.assignments} reassigned"
    )
    return "\n".join(lines)


def render_worker(connect: str) -> str:
    """Worker mode: serve a coordinator from the comma-separated
    ``HOST:PORT[,HOST:PORT...]`` list (primary first, standbys after)
    until drained; a dead address rotates to the next."""
    from ..cluster import ClusterWorker

    addresses = [
        _parse_address(entry.strip(), "--connect")
        for entry in connect.split(",") if entry.strip()
    ]
    if not addresses:
        raise ValueError(f"--connect expects HOST:PORT[,HOST:PORT...], got {connect!r}")
    summary = ClusterWorker(addresses).run()
    state = (
        "killed" if summary.killed
        else "coordinator vanished" if summary.disconnected
        else "drained"
    )
    failed_over = (
        f", {summary.failovers} coordinator failover(s)" if summary.failovers else ""
    )
    return (
        f"worker {summary.name}: {summary.shards_completed} shard(s) completed, "
        f"{summary.shard_errors} shard error(s), {summary.tasks_executed} task(s) "
        f"executed{failed_over} — {state}"
    )
