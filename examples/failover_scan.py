"""Hot-standby failover: kill the coordinator mid-scan, lose nothing.

Run::

    python examples/failover_scan.py [scale]

Launches a journaled cluster scan with a primary coordinator, a hot
standby following it, and two workers whose connect lists carry *both*
addresses. Mid-scan the primary is shut down abruptly — no handoff, no
goodbye, exactly what a SIGKILL looks like from the outside. The
standby's liveness probe notices, adopts the shared run ledger (every
shard the primary journaled before dying replays from disk), and serves
the remainder on its own socket; the workers' reconnect loops rotate to
the standby address on their own. The merged result is byte-identical
to an uninterrupted in-process run — the journal makes that a
structural property, not a recovery heuristic.
"""

from __future__ import annotations

import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.cluster import ClusterWorker, Coordinator, StandbyCoordinator
from repro.engine.scan import ScanEngine
from repro.runtime import RunLedger
from repro.workload.generator import WildScanConfig

SHARDS = 6


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.005
    config = WildScanConfig(scale=scale, seed=7, shards=SHARDS)

    with tempfile.TemporaryDirectory(prefix="repro-failover-") as tmp:
        path = Path(tmp) / "run.ledger"
        ledger = RunLedger.create(path, config, SHARDS)

        # primary + hot standby share the journal path; the standby
        # binds its socket up front but opens the ledger only on adoption.
        primary = Coordinator(config, ledger=ledger, local_fallback=False)
        primary.start()
        standby = StandbyCoordinator(
            config,
            primary=primary.address,
            ledger=path,
            probe_interval=0.05,
            probe_failures=3,
            coordinator_options={"local_fallback": True},
        )
        standby.start()
        print(
            f"primary {primary.address[0]}:{primary.address[1]}, "
            f"standby {standby.address[0]}:{standby.address[1]} "
            f"(journal: {path.name})"
        )

        # two workers, each carrying BOTH addresses in its connect list.
        addresses = [primary.address, standby.address]

        def run_worker(index: int) -> None:
            def hook(worker, shard, number):
                time.sleep(0.002)  # slow tasks so the kill lands mid-scan

            while True:
                summary = ClusterWorker(
                    addresses, name=f"worker-{index}", task_hook=hook
                ).run()
                if summary.shards_completed or summary.killed:
                    return
                time.sleep(0.05)  # both ends were between phases; retry

        threads = [
            threading.Thread(target=run_worker, args=(i,), daemon=True)
            for i in range(2)
        ]
        for thread in threads:
            thread.start()

        # wait for the primary to journal at least one shard, then kill it.
        while len(RunLedger.open(path).completed_shards()) < 1:
            time.sleep(0.01)
        journaled = len(RunLedger.open(path).completed_shards())
        primary.shutdown()
        print(f"primary killed with {journaled} shard(s) journaled")

        assert standby.wait_for_primary_death(timeout=30.0)
        detect_s = standby.death_detected_at - standby.started_at
        print(f"standby detected the death ({detect_s:.2f}s after launch) — adopting")

        result = standby.adopt_and_run(timeout=120.0)
        stats = standby.stats
        standby.shutdown()
        for thread in threads:
            thread.join(timeout=10.0)
        print(
            f"adopted run: {stats.resumed_shards} shard(s) replayed from the "
            f"journal, {stats.assignments} reassigned, "
            f"{stats.duplicates_suppressed} late duplicate(s) suppressed"
        )

        replay = RunLedger.open(path, config=config, shard_count=SHARDS)
        print(
            f"journal after the scan: {replay.completed_count} of "
            f"{replay.shard_count} shard(s) journaled"
        )
        replay.close()

        cold = ScanEngine(config).run()
        identical = (
            [d.tx_hash for d in cold.detections]
            == [d.tx_hash for d in result.detections]
            and cold.total_transactions == result.total_transactions
        )
        print(f"byte-identical to an uninterrupted run: {identical}")
        if not identical:
            raise SystemExit(1)


if __name__ == "__main__":
    main()
