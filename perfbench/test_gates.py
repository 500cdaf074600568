"""The benchmark's own tests: a corrupted result must fail its gate, and
the span recorder's self-time arithmetic must hold.

Run from the repository root::

    python3 -m pytest perfbench/test_gates.py -q
"""

from __future__ import annotations

import copy
import time
from dataclasses import replace

import pytest

import gates
from spans import Tracer
from workloads import BatchScan, ReplayMixed, ServiceClosed, StreamPaced

from repro.engine.scan import ScanEngine
from repro.workload.generator import WildScanConfig


class SmallBatch(BatchScan):
    scale = 0.002


@pytest.fixture(scope="module")
def small_scan():
    return ScanEngine(WildScanConfig(scale=0.002, seed=3, jobs=1)).run()


def test_scan_fingerprint_sees_every_corruption(small_scan):
    clean = gates.scan_fingerprint(small_scan)
    assert gates.scan_fingerprint(copy.deepcopy(small_scan)) == clean

    dropped = copy.deepcopy(small_scan)
    dropped.detections.pop()
    recounted = copy.deepcopy(small_scan)
    next(iter(recounted.rows.values())).fp += 1
    relabelled = copy.deepcopy(small_scan)
    relabelled.detections[0].patterns = ("KRP", "MBS", "SBS")
    shrunk = copy.deepcopy(small_scan)
    shrunk.total_transactions -= 1
    for corrupted in (dropped, recounted, relabelled, shrunk):
        with pytest.raises(gates.GateError):
            gates.check_fingerprint("scan", gates.scan_fingerprint(corrupted), clean)


def test_batch_gate_fails_on_a_corrupted_scan():
    workload = SmallBatch(3, 1)
    state = workload.setup()
    scan = ScanEngine(state["configs"][1]).run()
    good = gates.scan_fingerprint(scan)
    workload.check(state, {"fingerprints": [(1, good), (1, good)]})
    corrupted = copy.deepcopy(scan)
    corrupted.detections[-1].profit_usd += 1.0
    with pytest.raises(gates.GateError):
        workload.check(state, {"fingerprints": [(1, good),
                                                (1, gates.scan_fingerprint(corrupted))]})
    with pytest.raises(gates.GateError):  # a scan checked against another mix's reference
        workload.check(state, {"fingerprints": [(0, good)]})


def test_replay_gate_fails_on_a_flipped_verdict():
    workload = ReplayMixed(3, 1)
    workload.scale = 0.002
    state = workload.setup()
    verdicts = workload.direct_verdicts(state)
    good = gates.verdicts_fingerprint(verdicts)
    workload.check(state, {"fingerprints": [good]})
    flipped = [list(v) for v in verdicts]
    flipped[0][2] = not flipped[0][2]
    with pytest.raises(gates.GateError):
        workload.check(state, {"fingerprints": [good, gates.verdicts_fingerprint(flipped)]})


def test_service_gate_fails_on_a_stale_refetch(small_scan):
    workload = ServiceClosed(3, 1)
    fingerprint = gates.detections_fingerprint(small_scan.detections)
    refetched = gates.detections_fingerprint(small_scan.detections[:-1])
    runs = [(0, "run-0", gates.detections_fingerprint(
        ScanEngine(workload._config(0)).run().detections))]
    ok = {"errors": [], "runs": runs, "refetch": [(True, True, fingerprint, fingerprint)]}
    workload.check(None, ok)
    for refetch in ((True, True, refetched, fingerprint), (False, True, fingerprint, fingerprint)):
        with pytest.raises(gates.GateError):
            workload.check(None, dict(ok, refetch=[refetch]))
    wrong = [(0, "run-0", fingerprint)]
    with pytest.raises(gates.GateError):
        workload.check(None, dict(ok, runs=wrong, refetch=[]))


def test_stream_gate_fails_without_windowed_recall():
    from repro.engine.stream import StreamEngine

    workload = StreamPaced(3, 1)
    workload.split_attacks = 2
    state = workload.setup()
    cfg, blocks = workload.stream_input(state, 0)
    streamed = StreamEngine(cfg, block_size=workload.block_size,
                            windowed=True).run(source=iter(blocks))
    segment = {"result": streamed, "latency_ms": [1.0] * len(blocks),
               "blocks_fed": len(blocks), "segment": 0}
    workload.check(state, {"segments": [segment, segment]})
    missed = replace(streamed, windowed=streamed.windowed[1:])
    unemitted = dict(segment, latency_ms=segment["latency_ms"][1:])
    for corrupted in (dict(segment, result=missed), unemitted):
        with pytest.raises(gates.GateError):
            workload.check(state, {"segments": [segment, corrupted]})


def test_self_time_excludes_child_spans():
    tracer = Tracer()

    def child():
        time.sleep(0.02)

    traced_child = tracer.wrap(child, "child")

    def parent():
        time.sleep(0.01)
        traced_child()
        traced_child()

    tracer.wrap(parent, "parent", new_op=True)()
    rows = {tracer.names[row[2]]: row for row in tracer.rows()}
    parent_row = rows["parent"]
    duration = parent_row[4] - parent_row[3]
    assert 0.009e9 < parent_row[5] < 0.02e9  # self: the parent's own sleep only
    assert duration > 0.049e9
    children = [row for row in tracer.rows() if tracer.names[row[2]] == "child"]
    assert len(children) == 2
    assert all(row[1] == parent_row[0] and row[6] == parent_row[0] for row in children)
