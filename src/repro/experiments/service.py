"""Scan-service CLI: run, submit to, and query the resident service.

Four subcommands front :mod:`repro.service`::

    leishen serve --data-dir svc --address 127.0.0.1:9744   # resident
    leishen submit --address 127.0.0.1:9744 --scale 0.05 --wait
    leishen status --address 127.0.0.1:9744 [--run-id run-...]
    leishen results --address 127.0.0.1:9744 --run-id run-... --limit 20

``serve`` owns the data dir: it adopts whatever ledgers a previous
process left (complete ones become servable, incomplete ones resume),
then listens for framed-JSON clients. ``submit`` names runs by config
digest, so re-submitting the same scan prints the *same* run id with
``coalesced`` set — nothing scans twice. ``results`` pages detections
out of the completed ledger; it never re-scans.
"""

from __future__ import annotations

import time

from ..workload.generator import WildScanConfig

__all__ = [
    "parse_address",
    "render_results",
    "render_serve",
    "render_status",
    "render_submit",
]


def parse_address(text: str) -> tuple[str, int]:
    """``HOST:PORT`` -> ``(host, port)`` (raises ValueError loudly)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def render_serve(
    data_dir: str,
    host: str = "127.0.0.1",
    port: int = 9744,
    *,
    executors: int = 2,
    max_queue: int = 16,
    backend: str = "batch",
    cluster_workers: int = 2,
    run_seconds: float | None = None,
    stop_event=None,
) -> str:
    """Run the service until interrupted (or ``run_seconds``/``stop_event``,
    both for tests driving the server from another thread).

    Prints the bound address up front so clients/scripts can connect,
    then blocks. Ctrl-C drains gracefully: active runs finish (their
    shards are journaled either way), queued runs stay queued on disk
    for the next start.
    """
    from ..service import ScanService, ServiceServer

    service = ScanService(
        data_dir,
        executors=executors,
        max_queue=max_queue,
        default_backend=backend,
        cluster_workers=cluster_workers,
    )
    lines = []
    with service:
        adopted = service.counters["adopted_resuming"]
        readopted = service.counters["adopted_completed"]
        with ServiceServer(service, host, port) as server:
            bound_host, bound_port = server.address
            print(
                f"scan service on {bound_host}:{bound_port} "
                f"(data dir {service.registry.data_dir}, "
                f"{executors} executor(s), backend {backend})",
                flush=True,
            )
            if adopted or readopted:
                print(
                    f"adopted from previous run: {readopted} completed, "
                    f"{adopted} resuming",
                    flush=True,
                )
            try:
                if stop_event is not None:
                    stop_event.wait(run_seconds)
                elif run_seconds is None:
                    while True:  # pragma: no cover - interactive loop
                        time.sleep(3600)
                else:
                    time.sleep(run_seconds)
            except KeyboardInterrupt:
                pass
        stats = service.stats()
        lines.append(
            f"drained: {stats['counters']['completed']} completed, "
            f"{stats['counters']['failed']} failed, "
            f"{stats['queue_depth']} still queued (kept for next start)"
        )
    return "\n".join(lines)


def render_submit(
    address: str,
    config: WildScanConfig,
    *,
    backend: str | None = None,
    jobs: int = 1,
    wait: bool = False,
    timeout: float | None = None,
) -> str:
    """Submit ``config`` as one scan job; with ``wait``, poll to
    completion and report."""
    from ..service import ServiceClient

    with ServiceClient(parse_address(address)) as client:
        run = client.submit(config, backend=backend, jobs=jobs)
        lines = [_run_line(run)]
        if run["coalesced"]:
            lines.append(
                "coalesced onto an existing run (same config digest) — "
                "nothing was re-queued"
            )
        if wait and run["state"] != "completed":
            run = client.wait(run["run_id"], timeout=timeout)
            lines.append(_run_line(run))
        if run["state"] == "completed" and run["summary"]:
            summary = run["summary"]
            lines.append(
                f"summary: {summary['detected']} detections over "
                f"{summary['total_transactions']} transactions "
                f"(precision {summary['precision']:.4f}); fetch with "
                f"'results --run-id {run['run_id']}'"
            )
        if run["state"] == "failed":
            lines.append(f"error: {run['error']}")
    return "\n".join(lines)


def render_status(address: str, run_id: str | None = None) -> str:
    """One run's status, or — without ``run_id`` — every known run."""
    from ..service import ServiceClient

    with ServiceClient(parse_address(address)) as client:
        if run_id is not None:
            return _run_line(client.status(run_id))
        views = client.runs()
        stats = client.stats()
    if not views:
        return "no runs submitted yet"
    lines = [_run_line(view) for view in views]
    counters = stats["counters"]
    lines.append(
        f"totals: {counters['submitted']} submitted, "
        f"{counters['coalesced']} coalesced, {counters['completed']} "
        f"completed, {counters['failed']} failed; queue depth "
        f"{stats['queue_depth']}"
    )
    return "\n".join(lines)


def render_results(
    address: str,
    run_id: str,
    offset: int = 0,
    limit: int | None = None,
) -> str:
    """One page of a completed run's detections, straight from the ledger."""
    from ..service import ServiceClient

    with ServiceClient(parse_address(address)) as client:
        page = client.results(run_id, offset=offset, limit=limit)
    summary = page["summary"]
    lines = [
        f"{page['run_id']}: {page['count']} of {page['total_detections']} "
        f"detections (offset {page['offset']}"
        + (
            f", next --offset {page['next_offset']})"
            if page["next_offset"] is not None
            else ", last page)"
        ),
        f"summary: {summary['detected']} detected / "
        f"{summary['total_transactions']} transactions, precision "
        f"{summary['precision']:.4f}",
    ]
    for det in page["detections"]:
        lines.append(
            f"  {det['tx_hash']}  {'+'.join(det['patterns'])}  "
            f"profit=${det['profit_usd']:,.0f}"
        )
    return "\n".join(lines)


def _run_line(view: dict) -> str:
    parts = [f"{view['run_id']}  {view['state']:<9}  backend={view['backend']}"]
    if view.get("queue_position"):
        parts.append(f"queue#{view['queue_position']}")
    if view.get("adopted"):
        parts.append("adopted")
    if view.get("shard_count") is not None:
        parts.append(
            f"shards={view['shard_count']} "
            f"(resumed {view['shards_resumed']}, ran {view['shards_recorded']})"
        )
    if view["state"] == "completed" and view.get("summary"):
        parts.append(f"detections={view['summary']['detected']}")
    return "  ".join(parts)
