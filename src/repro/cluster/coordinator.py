"""The cluster coordinator: shard queue, fault handling, deterministic merge.

The coordinator owns the canonical partition of one wild scan. It never
executes transactions itself (unless every worker is gone and local
fallback is enabled); it hands out pure-data shard descriptors
``(seed, scale, shard_index, shard_count)`` to whichever workers connect,
and merges the shard results they stream back::

        workers (N, anywhere)                coordinator (one)
    ┌─────────────────────────┐      ┌────────────────────────────────┐
    │ hello ──────────────────┼──────▶ register, welcome(config)      │
    │ ready ──────────────────┼──────▶ pop shard ──▶ assign(descriptor)│
    │ build_shard_context     │      │   pending ◀── requeue on loss, │
    │ execute/detect/finalize │      │   deque       timeout or error │
    │ result(shard, payload) ─┼──────▶ completed[shard] (first wins)  │
    │ heartbeat (always) ─────┼──────▶ last_seen[worker]              │
    └─────────────────────────┘      │ merge by shard index ──▶ result │
                                     └────────────────────────────────┘

Fault model (every transition keeps the merge deterministic):

- **lost worker** — its connection drops: every shard it was running is
  requeued and the worker earns a strike;
- **slow worker** — no heartbeat for ``heartbeat_timeout``: its shards
  are requeued *speculatively*; the connection stays open, so if the
  straggler eventually answers, whichever completion lands first wins
  and the other is suppressed (``duplicates_suppressed``);
- **failing shard** — a worker reports ``shard-error``: requeue + strike;
  a shard assigned more than ``max_shard_attempts`` times aborts the run
  (a poisoned shard must fail loudly, not spin forever);
- **failing worker** — ``max_worker_strikes`` strikes exclude the worker:
  it is drained on its next request and never assigned again — until an
  elastic pool (:mod:`repro.cluster.autoscale`) grants it *probation*
  after a cooldown: one trial shard, success clears the strikes, any
  further fault re-excludes immediately;
- **no workers left** — with ``local_fallback`` the coordinator runs the
  remaining shards in-process (the run *completes*, merely slower),
  otherwise it raises :class:`ClusterError`. While an
  :class:`~repro.cluster.autoscale.ElasticPool` is attached the fallback
  is deferred: the pool can still spawn or re-admit capacity.

Liveness: while a worker is parked waiting for work the coordinator
park-pings it every heartbeat interval, so a worker can bound its reads
and detect a silently-dead coordinator host; the monitor loop waits on
the shared condition (never a bare ``sleep``), so ``shutdown()`` wakes
it immediately even with very large heartbeat timeouts.

Because ``completed`` maps shard index → exactly one result and the merge
(:func:`repro.engine.scan.merge_shard_results`) orders by shard index,
the merged ``WildScanResult`` is byte-identical to ``ScanEngine.run()``
for the same ``(seed, scale, shards)`` no matter how many workers served
the run, which of them died, or in what order results arrived.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from ..engine.plan import build_full_schedule
from ..engine.scan import merge_shard_results, run_shard
from ..engine.wire import config_to_wire, shard_result_from_wire, shard_result_to_wire
from .protocol import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    ProtocolError,
    recv_message,
    send_message,
)

__all__ = ["CapacitySnapshot", "ClusterError", "ClusterStats", "Coordinator"]

#: default bound on assignments per shard before the run aborts.
DEFAULT_MAX_SHARD_ATTEMPTS = 5

#: default strikes (losses / shard errors) before a worker is excluded.
DEFAULT_MAX_WORKER_STRIKES = 3

#: default seconds without a heartbeat before a worker's shards requeue.
DEFAULT_HEARTBEAT_TIMEOUT = 10.0


class ClusterError(RuntimeError):
    """The cluster run cannot complete (poisoned shard, no workers, ...)."""


@dataclass(slots=True)
class ClusterStats:
    """Fault/requeue counters for one coordinated run (bench-visible)."""

    workers_seen: int = 0
    assignments: int = 0
    requeues: int = 0
    heartbeat_requeues: int = 0
    worker_losses: int = 0
    shard_errors: int = 0
    duplicates_suppressed: int = 0
    workers_excluded: int = 0
    local_fallback_shards: int = 0
    #: elastic-pool scaling events (repro.cluster.autoscale)
    workers_spawned: int = 0
    workers_drained: int = 0
    workers_readmitted: int = 0
    probation_passes: int = 0
    probation_failures: int = 0
    #: shards loaded from a run ledger instead of executed (resume).
    resumed_shards: int = 0
    #: merged per-stage profile payload after a ``config.profile`` run
    #: (``None`` otherwise — which is what bench artifacts record, since
    #: benches never profile; observability only, never result identity).
    profile: dict | None = None

    def to_dict(self) -> dict:
        return {
            "workers_seen": self.workers_seen,
            "assignments": self.assignments,
            "requeues": self.requeues,
            "heartbeat_requeues": self.heartbeat_requeues,
            "worker_losses": self.worker_losses,
            "shard_errors": self.shard_errors,
            "duplicates_suppressed": self.duplicates_suppressed,
            "workers_excluded": self.workers_excluded,
            "local_fallback_shards": self.local_fallback_shards,
            "workers_spawned": self.workers_spawned,
            "workers_drained": self.workers_drained,
            "workers_readmitted": self.workers_readmitted,
            "probation_passes": self.probation_passes,
            "probation_failures": self.probation_failures,
            "resumed_shards": self.resumed_shards,
            "profile": self.profile,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ClusterStats":
        """Rebuild stats from :meth:`to_dict` output (bench artifacts)."""
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown ClusterStats fields: {sorted(unknown)}")
        return cls(**payload)


@dataclass(frozen=True, slots=True)
class CapacitySnapshot:
    """Point-in-time queue-depth/capacity view for autoscaling policies.

    ``pending + running`` (:attr:`demand`) against ``len(live_workers)``
    is what :class:`~repro.cluster.autoscale.ElasticPool` scales on.
    """

    shard_count: int
    completed: int
    #: incomplete shards sitting in the queue, waiting for a worker.
    pending: int
    #: shards currently assigned to a connected worker.
    running: int
    #: connected, assignable workers (not excluded, not retiring).
    live_workers: tuple[str, ...]
    #: live workers with no shard in flight.
    idle_workers: tuple[str, ...]
    #: connected workers that were asked to drain and will disconnect.
    retiring_workers: tuple[str, ...]
    #: excluded worker name -> seconds since the exclusion.
    excluded_ages: dict[str, float]
    stopping: bool
    failed: bool

    @property
    def outstanding(self) -> int:
        return self.shard_count - self.completed

    @property
    def demand(self) -> int:
        """Shards that still need a worker: ``pending + running``."""
        return self.pending + self.running

    @property
    def finished(self) -> bool:
        return self.failed or self.completed == self.shard_count

    def to_dict(self) -> dict:
        """JSON-safe view (scaling-policy logs, bench artifacts)."""
        return {
            "shard_count": self.shard_count,
            "completed": self.completed,
            "pending": self.pending,
            "running": self.running,
            "live_workers": list(self.live_workers),
            "idle_workers": list(self.idle_workers),
            "retiring_workers": list(self.retiring_workers),
            "excluded_ages": dict(self.excluded_ages),
            "stopping": self.stopping,
            "failed": self.failed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CapacitySnapshot":
        """Rebuild a snapshot from :meth:`to_dict` output."""
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown CapacitySnapshot fields: {sorted(unknown)}")
        missing = known - set(payload)
        if missing:
            raise ValueError(f"missing CapacitySnapshot fields: {sorted(missing)}")
        payload = dict(payload)
        for key in ("live_workers", "idle_workers", "retiring_workers"):
            payload[key] = tuple(payload[key])
        return cls(**payload)


@dataclass(slots=True)
class _WorkerState:
    """Coordinator-side view of one worker identity (stable across
    reconnects: strikes and exclusion follow the name, not the socket)."""

    name: str
    conn: socket.socket | None = None
    last_seen: float = 0.0
    #: shards the coordinator is currently counting on this worker for.
    shards: set[int] = field(default_factory=set)
    strikes: int = 0
    excluded: bool = False
    completed: int = 0
    #: when the exclusion happened (monotonic), for probation cooldowns.
    excluded_at: float = 0.0
    #: re-admitted on trial: one clean shard clears the strikes, any
    #: fault re-excludes immediately.
    probation: bool = False
    #: asked to drain (elastic scale-down); cleared on reconnect.
    retiring: bool = False


class Coordinator:
    """Serves one wild scan to a fleet of cluster workers.

    Usage (see also :func:`repro.cluster.local.run_cluster_scan` for the
    single-call convenience wrapper)::

        with Coordinator(config, port=0) as coordinator:
            host, port = coordinator.address     # workers connect here
            result = coordinator.run()           # blocks until merged
    """

    def __init__(
        self,
        config,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        heartbeat_interval: float | None = None,
        max_shard_attempts: int = DEFAULT_MAX_SHARD_ATTEMPTS,
        max_worker_strikes: int = DEFAULT_MAX_WORKER_STRIKES,
        local_fallback: bool = True,
        ledger=None,
        server_socket: socket.socket | None = None,
        failover_addresses=None,
    ) -> None:
        if heartbeat_timeout <= 0:
            raise ValueError(f"heartbeat_timeout must be > 0, got {heartbeat_timeout}")
        if max_shard_attempts < 1:
            raise ValueError(
                f"max_shard_attempts must be >= 1, got {max_shard_attempts}"
            )
        if max_worker_strikes < 1:
            raise ValueError(
                f"max_worker_strikes must be >= 1, got {max_worker_strikes}"
            )
        self.config = config
        self.heartbeat_timeout = heartbeat_timeout
        self.heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else max(0.05, heartbeat_timeout / 4)
        )
        self.max_shard_attempts = max_shard_attempts
        self.max_worker_strikes = max_worker_strikes
        self.local_fallback = local_fallback
        self.stats = ClusterStats()

        _, self.shard_count = build_full_schedule(config)

        #: the run ledger (``None`` for unjournaled runs): every completed
        #: shard payload is journaled, and shards already in the journal
        #: are never queued — a SIGKILLed coordinator resumes by pointing
        #: a new one at the same ledger path.
        self.ledger = None
        if ledger is not None:
            # lazy import: repro.runtime imports the engine at load time,
            # so the import-time dependency must stay one-directional.
            from ..runtime.ledger import ensure_ledger

            self.ledger = ensure_ledger(ledger, config, self.shard_count)

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._completed: dict[int, dict] = {}
        #: per-shard profile payloads reported by workers/fallback when
        #: ``config.profile``; merged into :attr:`profile` after ``run``.
        #: Kept out of ``_completed`` (and therefore the ledger journal):
        #: profiles are observability, never part of result identity.
        self._profiles: dict[int, dict] = {}
        #: merged per-stage profile after a ``config.profile`` run
        #: (``None`` otherwise; ledger-resumed shards carry no profile,
        #: which ``counters["shards_profiled"]`` makes visible).
        self.profile = None
        if self.ledger is not None:
            # Seed completion from the journal (possibly another
            # coordinator's — the hot-standby adoption path).
            self._completed.update(self.ledger.completed_payloads)
            self.stats.resumed_shards = len(self._completed)
        self._pending: deque[int] = deque(
            index for index in range(self.shard_count) if index not in self._completed
        )
        self._attempts: dict[int, int] = {i: 0 for i in range(self.shard_count)}
        self._workers: dict[str, _WorkerState] = {}
        self._failure: BaseException | None = None
        self._stopping = False
        self._threads: list[threading.Thread] = []
        self._pool = None  # attached ElasticPool, if any

        #: standby coordinator addresses broadcast to workers in the
        #: welcome, so a fleet pointed at the primary alone still learns
        #: where to reconnect if the primary dies (protocol v5).
        self.failover_addresses: list[tuple[str, int]] = [
            (str(a), int(p)) for a, p in (failover_addresses or [])
        ]
        if server_socket is not None:
            # Adopt a pre-bound listening socket: the hot-standby bound
            # and advertised this address while the primary was alive,
            # so workers' connect lists stay valid across adoption.
            self._server = server_socket
        else:
            self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._server.bind((host, port))
            self._server.listen(16)
        self._server.settimeout(0.2)
        self.address: tuple[str, int] = self._server.getsockname()[:2]
        self._started = False

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "Coordinator":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def start(self) -> None:
        """Start accepting workers (idempotent)."""
        if self._started:
            return
        self._started = True
        for target, name in (
            (self._accept_loop, "cluster-accept"),
            (self._monitor_loop, "cluster-monitor"),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)

    def shutdown(self) -> None:
        """Graceful drain: stop assigning, wake waiters, close sockets."""
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=5.0)
        with self._lock:
            conns = [w.conn for w in self._workers.values() if w.conn is not None]
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        try:
            self._server.close()
        except OSError:
            pass

    # -- the run ---------------------------------------------------------

    def run(self, timeout: float | None = None):
        """Block until every shard is merged; return the ``WildScanResult``.

        ``timeout`` bounds the wait: on expiry the remaining shards run
        in-process when ``local_fallback`` is enabled, otherwise
        :class:`ClusterError` is raised. The same fallback fires early if
        every worker that ever connected is gone or excluded.
        """
        self.start()
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            with self._cond:
                while True:
                    if self._failure is not None:
                        raise self._failure
                    if len(self._completed) == self.shard_count:
                        break
                    if self._stopping:
                        raise ClusterError("coordinator shut down mid-run")
                    if self._no_capacity_locked():
                        self._run_fallback_locked("no workers left")
                        continue
                    if deadline is not None and time.monotonic() >= deadline:
                        self._run_fallback_locked(f"timeout after {timeout}s")
                        continue
                    self._cond.wait(0.1)
                if self.ledger is None:
                    outcomes = [
                        shard_result_from_wire(self._completed[index])
                        for index in range(self.shard_count)
                    ]
                else:
                    outcomes = None
        finally:
            self.shutdown()
        if self.config.profile:
            from ..runtime.profile import merge_profiles

            with self._lock:
                self.profile = merge_profiles(
                    [self._profiles[i] for i in sorted(self._profiles)]
                )
                self.stats.profile = self.profile
        if outcomes is None:
            # journaled run: the merge decodes from the ledger, so a
            # resumed run and an uninterrupted one produce the identical
            # result from the identical bytes.
            return self.ledger.merge()
        return merge_shard_results(self.config, outcomes)

    def _no_capacity_locked(self) -> bool:
        """True when work remains but no worker can ever pick it up."""
        pool = self._pool
        if pool is not None and pool.active:
            return False  # an elastic pool can still spawn or re-admit
        if not self._workers:
            return False  # nobody connected yet; keep waiting
        for worker in self._workers.values():
            if worker.conn is not None and not worker.excluded:
                return False
        return True

    def _run_fallback_locked(self, reason: str) -> None:
        """Run every not-yet-completed shard in-process (or abort)."""
        if not self.local_fallback:
            raise ClusterError(f"cluster run cannot complete: {reason}")
        remaining = [
            index for index in range(self.shard_count) if index not in self._completed
        ]
        # Drop the lock while executing: handler threads must stay able
        # to deliver results (delivered ones are then skipped here).
        self._cond.release()
        try:
            parts = self._schedule_parts()
            for index in remaining:
                with self._lock:
                    if index in self._completed:
                        continue
                outcome = run_shard(
                    (self.config, index, self.shard_count, parts[index])
                )
                with self._cond:
                    if index in self._completed:
                        self.stats.duplicates_suppressed += 1
                    else:
                        payload = shard_result_to_wire(outcome)
                        self._completed[index] = payload
                        self.stats.local_fallback_shards += 1
                        self._journal_locked(index, payload)
                        if outcome.profile is not None:
                            self._profiles[index] = outcome.profile
                    self._cond.notify_all()
        finally:
            self._cond.acquire()

    def _schedule_parts(self) -> list[list]:
        from ..engine.plan import shard_schedule

        tasks, _ = build_full_schedule(self.config)
        return shard_schedule(tasks, self.shard_count)

    # -- elastic capacity & admission (repro.cluster.autoscale) ----------

    def attach_pool(self, pool) -> None:
        """Register an elastic pool: defers no-capacity fallback to it."""
        with self._cond:
            self._pool = pool
            self._cond.notify_all()

    def detach_pool(self, pool) -> None:
        with self._cond:
            if self._pool is pool:
                self._pool = None
            self._cond.notify_all()

    def queue_depth(self) -> int:
        """Shards that still need a worker: ``pending + running``."""
        return self.capacity_snapshot().demand

    def capacity_snapshot(self) -> CapacitySnapshot:
        """Consistent queue/worker view for scaling decisions."""
        with self._lock:
            now = time.monotonic()
            pending = sum(
                1 for shard in set(self._pending) if shard not in self._completed
            )
            live: list[str] = []
            idle: list[str] = []
            retiring: list[str] = []
            excluded: dict[str, float] = {}
            running = 0
            for worker in self._workers.values():
                if worker.excluded:
                    excluded[worker.name] = now - worker.excluded_at
                    continue
                if worker.conn is None:
                    continue
                running += len(worker.shards)
                if worker.retiring:
                    retiring.append(worker.name)
                    continue
                live.append(worker.name)
                if not worker.shards:
                    idle.append(worker.name)
            return CapacitySnapshot(
                shard_count=self.shard_count,
                completed=len(self._completed),
                pending=pending,
                running=running,
                live_workers=tuple(live),
                idle_workers=tuple(idle),
                retiring_workers=tuple(retiring),
                excluded_ages=excluded,
                stopping=self._stopping,
                failed=self._failure is not None,
            )

    def grant_probation(self, name: str) -> bool:
        """Re-admit an excluded worker for one trial shard.

        Success (a clean ``result``) clears its strikes; any further
        fault re-excludes it immediately. Returns False when the worker
        is unknown or not currently excluded.
        """
        with self._cond:
            worker = self._workers.get(name)
            if worker is None or not worker.excluded:
                return False
            worker.excluded = False
            worker.probation = True
            worker.retiring = False
            self.stats.workers_readmitted += 1
            self._cond.notify_all()
        return True

    def request_drain(self, name: str) -> bool:
        """Ask a live worker to retire: it is drained on its next
        ``ready`` instead of being parked. Cleared if it reconnects."""
        with self._cond:
            worker = self._workers.get(name)
            if (
                worker is None
                or worker.conn is None
                or worker.retiring
                or worker.excluded
            ):
                return False
            worker.retiring = True
            self.stats.workers_drained += 1
            self._cond.notify_all()
        return True

    def record_worker_spawned(self, count: int = 1) -> None:
        """Count pool-spawned workers so scaling shows up in the stats."""
        with self._lock:
            self.stats.workers_spawned += count

    # -- accept / monitor threads ---------------------------------------

    def _accept_loop(self) -> None:
        while True:
            with self._lock:
                if self._stopping:
                    return
            try:
                conn, _addr = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.settimeout(None)
            thread = threading.Thread(
                target=self._serve, args=(conn,), name="cluster-conn", daemon=True
            )
            thread.start()

    def _monitor_loop(self) -> None:
        """Requeue the shards of workers that stopped heartbeating."""
        interval = max(0.05, self.heartbeat_timeout / 4)
        with self._cond:
            while not self._stopping:
                now = time.monotonic()
                requeued = False
                for worker in self._workers.values():
                    if worker.conn is None or not worker.shards:
                        continue
                    if now - worker.last_seen <= self.heartbeat_timeout:
                        continue
                    # speculative requeue: keep the connection open — a
                    # late result is suppressed, an early one wins.
                    for shard in sorted(worker.shards):
                        self._requeue_locked(shard, heartbeat=True)
                    worker.shards.clear()
                    requeued = True
                if requeued:
                    self._cond.notify_all()
                # wait on the condition, never a bare sleep: shutdown()
                # flips _stopping and notifies, so even a 60 s heartbeat
                # timeout cannot stall the 5 s thread join.
                self._cond.wait(interval)

    # -- per-connection handler -----------------------------------------

    def _serve(self, conn: socket.socket) -> None:
        worker: _WorkerState | None = None
        try:
            hello = recv_message(conn)
            if hello.get("type") != "hello" or "worker" not in hello:
                raise ProtocolError(f"expected hello, got {hello.get('type')!r}")
            if hello.get("protocol") != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"protocol mismatch: coordinator speaks {PROTOCOL_VERSION}, "
                    f"worker speaks {hello.get('protocol')!r}"
                )
            with self._cond:
                worker = self._workers.get(hello["worker"])
                if worker is None:
                    worker = _WorkerState(name=hello["worker"])
                    self._workers[worker.name] = worker
                    self.stats.workers_seen += 1
                worker.conn = conn
                worker.last_seen = time.monotonic()
                # a returning worker is a fresh admission: any pending
                # scale-down request died with the old connection.
                worker.retiring = False
                self._cond.notify_all()
            send_message(
                conn,
                {
                    "type": "welcome",
                    "protocol": PROTOCOL_VERSION,
                    "config": config_to_wire(self.config),
                    "shard_count": self.shard_count,
                    "heartbeat_interval": self.heartbeat_interval,
                    "failover": [list(a) for a in self.failover_addresses],
                },
            )
            while True:
                message = recv_message(conn)
                kind = message["type"]
                with self._cond:
                    worker.last_seen = time.monotonic()
                if kind == "heartbeat":
                    continue
                if kind == "ready":
                    if not self._handle_ready(conn, worker):
                        break
                elif kind == "result":
                    self._handle_result(worker, message)
                elif kind == "shard-error":
                    self._handle_shard_error(worker, message)
                elif kind == "bye":
                    break
                else:
                    raise ProtocolError(f"unexpected message type {kind!r}")
        except (ConnectionClosed, ProtocolError, OSError):
            if worker is not None:
                self._handle_loss(worker, conn)
        finally:
            with self._cond:
                if worker is not None and worker.conn is conn:
                    worker.conn = None
                self._cond.notify_all()
            try:
                conn.close()
            except OSError:
                pass

    def _handle_ready(self, conn: socket.socket, worker: _WorkerState) -> bool:
        """Assign the next shard, or drain. False means the worker is done."""
        last_ping = time.monotonic()
        while True:
            parked = False
            shard = None
            with self._cond:
                if (
                    self._stopping
                    or worker.excluded
                    or worker.retiring
                    or len(self._completed) == self.shard_count
                    or self._failure is not None
                ):
                    pass  # drain below
                elif self._pending:
                    shard = self._pending.popleft()
                    if shard in self._completed:
                        continue  # completed while queued (stale requeue)
                    self._attempts[shard] += 1
                    if self._attempts[shard] > self.max_shard_attempts:
                        self._failure = ClusterError(
                            f"shard {shard} still failing after "
                            f"{self.max_shard_attempts} attempts"
                        )
                        self._cond.notify_all()
                        shard = None
                    else:
                        worker.shards.add(shard)
                        worker.last_seen = time.monotonic()
                        self.stats.assignments += 1
                else:
                    # nothing pending but the run is live: a straggler's
                    # shard may yet requeue, so keep this worker parked.
                    self._cond.wait(0.1)
                    parked = True
            if parked:
                now = time.monotonic()
                if now - last_ping >= self.heartbeat_interval:
                    # park ping: gives the parked worker inbound traffic
                    # so its recv timeout only fires when this host is
                    # truly gone — and surfaces a dead parked worker as
                    # an OSError here instead of a silent leak.
                    last_ping = now
                    send_message(conn, {"type": "heartbeat"})
                continue
            if shard is None:
                send_message(conn, {"type": "drain"})
                return False
            assignment = {
                "type": "assign",
                "seed": self.config.seed,
                "scale": self.config.scale,
                "shard": shard,
                "shard_count": self.shard_count,
            }
            if self.config.profile:
                assignment["profile"] = True
            send_message(conn, assignment)
            return True

    def _handle_result(self, worker: _WorkerState, message: dict) -> None:
        shard = message["shard"]
        with self._cond:
            worker.shards.discard(shard)
            if worker.probation:
                # the trial shard came back clean: full re-admission.
                worker.probation = False
                worker.strikes = 0
                self.stats.probation_passes += 1
            if shard in self._completed:
                self.stats.duplicates_suppressed += 1
            else:
                payload = message["payload"]
                self._completed[shard] = payload
                worker.completed += 1
                self._journal_locked(shard, payload)
                profile = message.get("profile")
                if isinstance(profile, dict):
                    self._profiles[shard] = profile
            self._cond.notify_all()

    def _handle_shard_error(self, worker: _WorkerState, message: dict) -> None:
        shard = message["shard"]
        with self._cond:
            worker.shards.discard(shard)
            self.stats.shard_errors += 1
            self._requeue_locked(shard)
            self._strike_locked(worker)
            self._cond.notify_all()

    def _handle_loss(self, worker: _WorkerState, conn: socket.socket) -> None:
        with self._cond:
            if worker.conn is not conn:
                return  # a newer connection for this identity took over
            if self._stopping:
                # a drain raced the shutdown teardown (the socket was
                # already closed under us): the run is over and the
                # worker did nothing wrong — no loss, no strike.
                worker.shards.clear()
                self._cond.notify_all()
                return
            self.stats.worker_losses += 1
            for shard in sorted(worker.shards):
                self._requeue_locked(shard)
            worker.shards.clear()
            self._strike_locked(worker)
            self._cond.notify_all()

    def _journal_locked(self, shard: int, payload: dict) -> None:
        """Append a freshly completed shard payload to the run ledger.

        Called with the lock held, right after the shard enters
        ``_completed`` — the journal and the in-memory view can never
        disagree about which shards are done.
        """
        if self.ledger is not None:
            self.ledger.record_payload(shard, payload)

    def _requeue_locked(self, shard: int, heartbeat: bool = False) -> None:
        if shard in self._completed or shard in self._pending:
            return
        self._pending.append(shard)
        self.stats.requeues += 1
        if heartbeat:
            self.stats.heartbeat_requeues += 1

    def _strike_locked(self, worker: _WorkerState) -> None:
        worker.strikes += 1
        if worker.probation:
            # the probation trial failed: re-exclude immediately, no
            # matter how far the strike count is from the threshold.
            worker.probation = False
            worker.excluded = True
            worker.excluded_at = time.monotonic()
            self.stats.probation_failures += 1
            self.stats.workers_excluded += 1
            return
        if worker.strikes >= self.max_worker_strikes and not worker.excluded:
            worker.excluded = True
            worker.excluded_at = time.monotonic()
            self.stats.workers_excluded += 1
