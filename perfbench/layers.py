"""Which program functions the traced run wraps, and the per-layer
metrics computed from the spans they record.

Each layer is named after the module it measures. ``install`` wraps the
public entry points the workloads reach (and the one stream merger hook,
``StreamEngine._emit``, which has no public equivalent); ``layer_metrics``
turns the recorded spans into the ``per_layer`` metrics of
``BENCHMARK.json``. A layer that a workload does not reach reports ``0``.
"""

from __future__ import annotations

import importlib
from collections import defaultdict

from common import median
from spans import Tracer

#: the root span of each workload: the unit whose wall time the layer
#: spans must cover (``trace.unattributed_share`` is its self time over
#: its duration).
ROOT_SPANS = {
    "batch-scan": "scan.run_shard",
    "stream-paced": "stream.run",
    "replay-mixed": "replay.pass",
    "service-closed": "service.execute",
}

#: the attribution check: a traced run fails when more of its root
#: spans' wall time than this is covered by no layer span.
UNATTRIBUTED_LIMIT = 0.05

LEISHEN_STAGES = ("identify", "tag", "simplify", "trades", "match", "heuristic", "profit")


def install(tracer: Tracer) -> None:
    """Wrap every measured entry point of the program."""
    mod = importlib.import_module
    plan, scan, stream = mod("repro.engine.plan"), mod("repro.engine.scan"), mod("repro.engine.stream")
    wire, ledger_mod = mod("repro.engine.wire"), mod("repro.runtime.ledger")
    service_mod, client_mod = mod("repro.service.service"), mod("repro.service.client")
    profiles, attacks = mod("repro.workload.profiles"), mod("repro.workload.attacks")
    count = tracer.count

    # workload / engine.plan
    tracer.patch_function(
        [plan, scan, stream, service_mod], "build_full_schedule", "plan.schedule",
        after=lambda result, args: count("plan.tasks", len(result[0])),
    )
    tracer.patch_method(attacks.WildAttackInjector, "execute", "workload.tx")
    tracer.patch_method(attacks.WildAttackInjector, "execute_split", "workload.tx")
    for attr in ("profile_migration", "profile_yield_strategy"):
        tracer.patch_function([profiles], attr, "workload.tx")
    tracer.patch(profiles, "BENIGN_PROFILES", tuple(
        (label, weight, tracer.wrap(fn, "workload.tx"))
        for label, weight, fn in profiles.BENIGN_PROFILES
    ))

    # engine.scan
    tracer.patch_method(scan.ScanEngine, "run", "scan.run")
    tracer.patch_function([scan], "run_shard", "scan.run_shard")
    tracer.patch_function([scan, stream], "build_shard_context", "scan.build_context")
    tracer.patch_function([scan, stream], "execute_task", "scan.execute_task", new_op=True)
    tracer.patch_function([scan, stream], "detect_task", "scan.detect_task")
    tracer.patch_function([scan, stream], "finalize_shard", "scan.finalize")
    tracer.patch_function([scan, stream, ledger_mod], "merge_shard_results", "scan.merge")

    # chain
    from repro.chain.chain import Chain
    from repro.chain.state import StateJournal

    def transact_outcome(trace, args):
        if not trace.success:
            count("chain.reverted_tx")

    tracer.patch_method(Chain, "transact", "chain.transact", after=transact_outcome,
                        error_count="chain.reverted_tx")
    tracer.patch_method(Chain, "call", "chain.call", aggregate=True)
    for attr in ("checkpoint", "commit", "rollback"):
        tracer.patch_method(StateJournal, attr, f"chain.journal.{attr}", aggregate=True)

    # defi / tokens
    from repro.defi.balancer import BalancerPool
    from repro.defi.curve import StableSwapPool
    from repro.defi.uniswap import UniswapV2Pair
    from repro.tokens.deflationary import DeflationaryERC20
    from repro.tokens.erc20 import ERC20

    tracer.patch_method(UniswapV2Pair, "swap", "defi.amm_swap")
    tracer.patch_method(BalancerPool, "swapExactAmountIn", "defi.amm_swap")
    tracer.patch_method(StableSwapPool, "exchange", "defi.amm_swap")
    tracer.patch_method(ERC20, "_move", "tokens.erc20_transfer", aggregate=True)
    tracer.patch_method(DeflationaryERC20, "_move", "tokens.erc20_transfer", aggregate=True)

    # leishen
    from repro.leishen.detector import LeiShen
    from repro.leishen.heuristics import YieldAggregatorHeuristic
    from repro.leishen.identify import FlashLoanIdentifier
    from repro.leishen.patterns import PatternMatcher
    from repro.leishen.prescreen import PreScreen
    from repro.leishen.profit import ProfitAnalyzer
    from repro.leishen.simplify import TransferSimplifier
    from repro.leishen.tagging import AccountTagger
    from repro.leishen.trades import TradeIdentifier
    from repro.leishen.window import WindowedMatcher

    from repro.world import DeFiWorld

    tracer.patch_method(DeFiWorld, "detector", "leishen.build")

    def analyzed(report, args):
        if report is not None:
            count("leishen.reports")
            if report.is_attack:
                count("leishen.attacks")

    tracer.patch_method(LeiShen, "analyze", "leishen.analyze", after=analyzed)
    tracer.patch_method(
        FlashLoanIdentifier, "identify", "leishen.identify",
        after=lambda loans, args: count("leishen.identified") if loans else None,
    )
    tracer.patch_method(AccountTagger, "tag_transfers", "leishen.tag")
    tracer.patch_method(TransferSimplifier, "simplify", "leishen.simplify")
    tracer.patch_method(TradeIdentifier, "identify", "leishen.trades")
    tracer.patch_method(PatternMatcher, "match", "leishen.match")
    tracer.patch_method(YieldAggregatorHeuristic, "apply", "leishen.heuristic")
    tracer.patch_method(ProfitAnalyzer, "breakdown", "leishen.profit")
    tracer.patch_method(
        PreScreen, "admits", "leishen.prescreen",
        after=lambda admitted, args: None if admitted else count("leishen.screened"),
    )

    # leishen.window
    def observed(detections, args):
        count("window.observations", len(args[2]))
        count("window.detections", len(detections))

    tracer.patch_method(WindowedMatcher, "observe_block", "window.observe_block", after=observed)

    # engine.stream
    tracer.patch_method(stream.StreamEngine, "run", "stream.run")
    tracer.patch_method(stream.StreamEngine, "_emit", "stream.merger")
    tracer.patch(stream, "screen_blocks", tracer.wrap_generator(stream.screen_blocks,
                                                                "stream.screen_blocks"))

    # runtime (ledger) and engine.wire
    tracer.patch_method(ledger_mod.RunLedger, "record", "ledger.record")
    tracer.patch_method(ledger_mod.RunLedger, "merge", "ledger.merge")
    tracer.patch_method(ledger_mod.RunLedger, "resume_or_create", "ledger.open")
    tracer.patch_method(ledger_mod.RunLedger, "close", "ledger.close")
    tracer.patch_function([wire, service_mod], "detection_to_wire", "wire.encode")
    tracer.patch_function([wire, ledger_mod], "shard_result_to_wire", "wire.encode")
    tracer.patch_function([wire, client_mod], "config_to_wire", "wire.encode")

    # service
    tracer.patch_method(service_mod.ScanService, "_execute", "service.execute", new_op=True)
    tracer.patch_method(service_mod.ScanService, "submit", "service.submit")
    tracer.patch_method(service_mod.ScanService, "results", "service.results")
    tracer.patch_method(service_mod.ScanService, "wait", "service.wait")
    tracer.patch_method(client_mod.ServiceClient, "request", "service.client.request")


class _Spans:
    """Per-name aggregates and raw intervals of one traced run."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = tracer.names
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.intervals = defaultdict(list)  # name -> [(start, end)]
        keep = {"scan.run", "scan.run_shard", "stream.run",
                "scan.build_context", "scan.merge", "plan.schedule"}
        for _sid, _parent, nid, start, end, self_ns, _op, _thread in tracer.rows():
            name = self.names[nid]
            self.calls[name] += 1
            self.total_ns[name] += end - start
            self.self_ns[name] += self_ns
            if name in keep:
                self.intervals[name].append((start, end))
        for nid, (n, total, own) in tracer.sums.items():
            name = self.names[nid]
            self.calls[name] += n
            self.total_ns[name] += total
            self.self_ns[name] += own

    def self_s(self, *names: str) -> float:
        return sum(self.self_ns[name] for name in names) / 1e9

    def total_s(self, *names: str) -> float:
        return sum(self.total_ns[name] for name in names) / 1e9

    def median_ms(self, name: str) -> float:
        spans = self.intervals.get(name)
        return median([(end - start) / 1e6 for start, end in spans]) if spans else 0.0

    def within(self, name: str, start: int, end: int):
        return [s for s in self.intervals.get(name, ()) if start <= s[0] and s[1] <= end]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, workload: str, context: dict) -> dict:
    """Every per-layer metric from the traced spans plus the values the
    workload measured itself (``context``: stream, service and ledger
    numbers, and ``trace.overhead_ratio``)."""
    spans = _Spans(tracer)
    counters = tracer.counters
    calls = spans.calls
    metrics: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        metrics[name] = (float(value), unit)

    schedules = calls["plan.schedule"]
    put("plan.schedule_ms", spans.median_ms("plan.schedule"), "ms")
    put("plan.tasks", _ratio(counters.get("plan.tasks", 0), schedules), "count")
    put("workload.self_s", spans.self_s("workload.tx", "scan.execute_task"), "s")

    put("scan.build_context_ms", spans.median_ms("scan.build_context"), "ms")
    for stage in ("execute_task", "detect_task"):
        put(f"scan.{stage}.calls", calls[f"scan.{stage}"], "count")
        put(f"scan.{stage}.self_s", spans.self_s(f"scan.{stage}"), "s")
    put("scan.merge_ms", spans.median_ms("scan.merge"), "ms")
    spreads = []
    for start, end in spans.intervals.get("scan.run", ()):
        shards = [e - s for s, e in spans.within("scan.run_shard", start, end)]
        if len(shards) > 1 and min(shards) > 0:
            spreads.append(max(shards) / min(shards))
    put("scan.shard_wall_s.max_over_min", median(spreads) if spreads else 0.0, "ratio")

    put("chain.transact.calls", calls["chain.transact"], "count")
    put("chain.call.calls", calls["chain.call"], "count")
    put("chain.call.self_s", spans.self_s("chain.call"), "s")
    for attr, label in (("checkpoint", "checkpoints"), ("commit", "commits"),
                        ("rollback", "rollbacks")):
        put(f"chain.journal.{label}", calls[f"chain.journal.{attr}"], "count")
    put("chain.journal.self_s", spans.self_s(
        "chain.journal.checkpoint", "chain.journal.commit", "chain.journal.rollback"), "s")
    put("chain.reverted_tx", counters.get("chain.reverted_tx", 0), "count")

    put("defi.amm_swap.calls", calls["defi.amm_swap"], "count")
    put("defi.amm_swap.self_s", spans.self_s("defi.amm_swap"), "s")
    put("tokens.erc20_transfer.calls", calls["tokens.erc20_transfer"], "count")
    put("tokens.erc20_transfer.self_s", spans.self_s("tokens.erc20_transfer"), "s")

    for stage in LEISHEN_STAGES:
        put(f"leishen.{stage}.self_s", spans.self_s(f"leishen.{stage}"), "s")
    put("leishen.analyze_other.self_s", spans.self_s("leishen.analyze"), "s")
    put("leishen.flash_loan_ratio",
        _ratio(counters.get("leishen.identified", 0), calls["leishen.analyze"]), "ratio")
    put("leishen.attack_ratio",
        _ratio(counters.get("leishen.attacks", 0), counters.get("leishen.reports", 0)), "ratio")
    put("leishen.prescreen_reject_ratio",
        _ratio(counters.get("leishen.screened", 0), calls["leishen.prescreen"]), "ratio")

    put("window.observe_block.self_s", spans.self_s("window.observe_block"), "s")
    put("window.observations", counters.get("window.observations", 0), "count")
    put("window.detections", counters.get("window.detections", 0), "count")

    put("stream.feeder_lag_ms_p99", context.get("stream.feeder_lag_ms_p99", 0.0), "ms")
    put("stream.queue_depth_max", context.get("stream.queue_depth_max", 0), "count")
    busy_s = spans.total_s("scan.build_context", "scan.execute_task", "scan.detect_task",
                           "scan.finalize")
    stream_s = sum(e - s for s, e in spans.intervals.get("stream.run", ())) / 1e9
    workers = context.get("stream.workers", 0)
    put("stream.worker_busy_share",
        _ratio(busy_s, workers * stream_s) if workload == "stream-paced" else 0.0, "ratio")
    put("stream.merger.self_s", spans.self_s("stream.merger"), "s")

    put("ledger.record.calls", calls["ledger.record"], "count")
    put("ledger.record.self_s", spans.self_s("ledger.record"), "s")
    put("ledger.merge.self_s", spans.self_s("ledger.merge"), "s")
    put("ledger.bytes_written", context.get("ledger.bytes_written", 0), "B")
    put("wire.encode.calls", calls["wire.encode"], "count")
    put("wire.encode.self_s", spans.self_s("wire.encode"), "s")

    for name, unit in (("service.queue_wait_ms_p50", "ms"), ("service.coalesced", "count"),
                       ("service.warm_hit_ratio", "ratio"),
                       ("service.results_cache_hit_ratio", "ratio"), ("service.stop_s", "s")):
        put(name, context.get(name, 0.0), unit)

    root = ROOT_SPANS[workload]
    put("trace.overhead_ratio", context.get("trace.overhead_ratio", 0.0), "ratio")
    put("trace.unattributed_share",
        _ratio(spans.self_s(root), spans.total_s(root)), "ratio")
    return metrics
