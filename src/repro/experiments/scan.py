"""Batch wild scan — the Sec. VI-C evaluation as a standalone experiment.

Not a paper table: ``experiments scan`` runs the sharded batch engine
directly and reports totals, wall-clock and — when journaling to a run
ledger (``--ledger``/``--resume``) — how many shards were loaded from
the journal versus freshly executed. It is the smallest surface for the
durable-run workflow::

    experiments scan --scale 0.1 --ledger run.ledger   # journal as you go
    # ... SIGKILL mid-run ...
    experiments scan --scale 0.1 --resume run.ledger   # finish the rest
"""

from __future__ import annotations

import time

from ..workload.generator import WildScanConfig

__all__ = ["render"]


def _maybe_compacting(ledger, config, compact_every: int | None):
    """Wrap a path-``ledger`` in a compacting :class:`RunLedger`."""
    if compact_every is None:
        return ledger
    from ..runtime import RunLedger

    if ledger is None:
        raise ValueError("--compact-every requires --ledger/--resume")
    if isinstance(ledger, RunLedger):
        return ledger
    return RunLedger.for_config(ledger, config, compact_every=compact_every)


def render(config: WildScanConfig, ledger=None, compact_every: int | None = None,
           profile_out=None) -> str:
    """Run the batch scan for ``config`` and summarise it.

    ``ledger`` is a path (or an open :class:`repro.runtime.RunLedger`):
    completed shards are journaled as they finish and already-journaled
    shards are skipped, so a killed run resumes where it left off.
    ``compact_every`` folds the journal into a snapshot record every N
    appended shards (``--compact-every``), keeping replay cost flat.
    ``config.prescreen``/``config.profile`` are execution knobs only —
    neither changes a result byte; a profiled run also prints the merged
    stage profile and writes it to ``profile_out`` when given.
    """
    from ..engine import ScanEngine

    engine = ScanEngine(config, ledger=_maybe_compacting(ledger, config, compact_every))
    start = time.perf_counter()
    result = engine.run()
    elapsed = time.perf_counter() - start
    txs_per_s = result.total_transactions / elapsed if elapsed else 0.0
    lines = [
        f"Wild scan at scale {config.scale} — {result.total_transactions} txs "
        f"in {elapsed:.2f}s ({txs_per_s:,.0f} txs/s, jobs={config.jobs})",
        f"detections: {result.detected_count} ({result.true_positives} true, "
        f"precision {result.precision:.1%})",
    ]
    if engine.ledger is not None:
        lines.append(
            f"ledger: {engine.ledger.path} — "
            f"{engine.ledger.resumed_count} shard(s) resumed from the journal, "
            f"{engine.ledger.recorded_count} freshly executed and recorded"
        )
    if engine.profile is not None:
        from ..runtime.profile import render_profile, write_profile

        lines.append(render_profile(engine.profile))
        if profile_out is not None:
            lines.append(f"profile written to {write_profile(engine.profile, profile_out)}")
    return "\n".join(lines)
