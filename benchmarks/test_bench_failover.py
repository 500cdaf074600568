"""Coordinator-failover survivability bench: adoption, identity, timings.

Kills a forked primary coordinator mid-scan (SIGKILL, no cleanup), lets
the hot standby adopt the journal and the multi-address workers fail
over, and writes ``BENCH_failover.json`` at the repo root. The identity
assertions are always on (``run_failover_bench`` raises on any divergence); the
recovery-time budget only arms with ``REPRO_BENCH_STRICT=1``, like the
other timing benches.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.engine.bench import (
    DEFAULT_FAILOVER_ARTIFACT,
    run_failover_bench,
    write_artifact,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

STRICT = os.environ.get("REPRO_BENCH_STRICT") == "1"

#: with the bench's probe settings (0.05s interval, 3 strikes) death
#: detection is sub-second; the full recovery — detect, adopt (journal
#: replay), re-serve the remaining shards of a scale-0.01 scan — must
#: land under this many seconds when the strict budget is armed.
STRICT_MAX_RECOVERY_S = 60.0

SHARDS = 8


def test_bench_failover_identity_and_counters():
    report = run_failover_bench(scale=0.01, seed=7, shards=SHARDS)
    write_artifact(report, REPO_ROOT / DEFAULT_FAILOVER_ARTIFACT)

    # run_failover_bench already raised on any divergence; double-check
    # the recorded counters tell the same story.
    failover = report["failover_run"]
    assert failover["identical"] is True
    assert failover["resumed_shards"] >= 1
    assert failover["journaled_at_kill"] >= 1
    assert failover["resumed_shards"] >= failover["journaled_at_kill"]
    assert failover["recovery_s"] >= failover["detect_s"]

    if not STRICT:
        return  # timings recorded; budget enforced only under REPRO_BENCH_STRICT=1
    assert failover["recovery_s"] < STRICT_MAX_RECOVERY_S, (
        f"recovery took {failover['recovery_s']}s, over the "
        f"{STRICT_MAX_RECOVERY_S}s budget"
    )


def test_bench_failover_single_adoption(benchmark):
    """Wall-clock of one standby adoption (pytest-benchmark timing):
    pre-seeded journal, never-alive primary, local fallback finishes."""
    import socket
    import tempfile

    from repro.cluster import StandbyCoordinator
    from repro.engine.plan import build_schedule, shard_schedule
    from repro.engine.scan import run_shard
    from repro.runtime import RunLedger
    from repro.workload.generator import WildScanConfig

    config = WildScanConfig(scale=0.005, seed=7, shards=4)
    parts = shard_schedule(build_schedule(config.scale, config.seed), 4)

    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    dead_primary = probe.getsockname()[:2]
    probe.close()

    with tempfile.TemporaryDirectory(prefix="repro-failover-bench-") as tmp:
        path = Path(tmp) / "run.ledger"
        seeded = RunLedger.create(path, config, 4)
        for index in (0, 1):
            seeded.record(run_shard((config, index, 4, parts[index])))
        seeded.close()

        def adopt():
            standby = StandbyCoordinator(
                config,
                primary=dead_primary,
                ledger=path,
                probe_interval=0.02,
                probe_failures=1,
                coordinator_options={"local_fallback": True},
            )
            standby.start()
            assert standby.wait_for_primary_death(timeout=30.0)
            try:
                return standby.adopt_and_run(timeout=1.0)
            finally:
                standby.shutdown()

        result = benchmark.pedantic(adopt, rounds=1, iterations=1)
        assert result.total_transactions > 0
