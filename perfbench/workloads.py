"""The four workloads: how each sets up, what it times, and its gate.

Every workload is driven from outside through the program's public entry
points and makes its inputs from the ``--seed`` it is given. ``setup``
builds everything the timed phase needs and may be called several times
(the benchmark reports the median set-up time); ``measure`` runs the
timed phase for a number of seconds and returns its samples; ``check``
is the correctness gate and raises :class:`gates.GateError`;
``end_to_end`` turns the samples into the reported metrics;
``op_cost`` is the per-operation cost the traced run compares with an
untraced run to report the tracing overhead.

See ``NOTES.md`` for why each workload exists.
"""

from __future__ import annotations

import importlib
import random
from array import array
import shutil
import threading
import time

import gates
from common import WORK, Speed, cpu_count, median, named_percentile

from repro.engine.plan import build_full_schedule
from repro.engine.scan import ScanEngine
from repro.workload.generator import WildScanConfig

#: the paper's full population; scales below are shares of it.
FULL_POPULATION = 272_984


class Workload:
    name = ""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.jobs = cpu_count()

    def inputs(self, state) -> dict:
        """The input size, for the run record."""
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def measure(self, state, seconds: float, tracer=None) -> dict:
        """The timed phase; ``tracer`` (traced runs only) records the
        spans of the benchmark's own code."""
        raise NotImplementedError

    def check(self, state, samples: dict) -> None:
        raise NotImplementedError

    def end_to_end(self, samples: dict) -> dict:
        raise NotImplementedError

    def op_cost(self, samples: dict) -> float:
        raise NotImplementedError

    def context(self, state, samples: dict) -> dict:
        """Values for the per-layer metrics that only the workload sees."""
        return {}

    def teardown(self, state) -> dict:
        """Release what ``setup`` made; returns measured teardown numbers."""
        return {}

    def discard(self, state):
        """Release a set-up that the timed phase will not use; may return
        a thread the caller joins before exiting."""
        self.teardown(state)
        return None


# ---------------------------------------------------------------------------
# batch-scan
# ---------------------------------------------------------------------------


class BatchScan(Workload):
    """The headline history scan, in process (``jobs=1``).

    A two-process pool on a shared 2-vCPU host measured the host's
    scheduler more than the program: its scans spread by half between
    runs of the same code, and probing the machine's speed did not
    steady them. In one process the probes do."""

    name = "batch-scan"
    scale = 0.01
    #: the scans of a run cycle through this many schedules (seed
    #: ``seed * 1000 + i`` for the ``i``-th), so a run averages over
    #: several transaction mixes, not one.
    mixes = 5

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.jobs = 1

    def config(self, mix: int = 0) -> WildScanConfig:
        return WildScanConfig(scale=self.scale, seed=self.seed * 1000 + mix, jobs=self.jobs)

    def reference_key(self, mix: int) -> str:
        return gates.reference_key(seed=self.seed * 1000 + mix, scale=self.scale)

    def inputs(self, state) -> dict:
        return {"scale": self.scale, "transactions": state["transactions"],
                "shards": state["shards"], "jobs": self.jobs}

    def setup(self):
        # the modules a shard imports lazily are loaded first, as a CLI
        # scan has them, so the first timed scan does not import them
        for module in ("repro.leishen.heuristics", "repro.leishen.prescreen",
                       "repro.leishen.profit", "repro.workload.attacks"):
            importlib.import_module(module)
        configs = [self.config(mix) for mix in range(self.mixes)]
        # every mix has the same population size
        tasks, shards = build_full_schedule(configs[0])
        return {"configs": configs, "transactions": len(tasks), "shards": shards}

    def measure(self, state, seconds: float, tracer=None) -> dict:
        configs = state["configs"]
        speed = Speed()
        walls, scaled, fingerprints, transactions = [], [], [], 0
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            mix = len(walls) % len(configs)
            started = time.perf_counter()
            result = ScanEngine(configs[mix]).run()
            wall = time.perf_counter() - started
            walls.append(wall)
            scaled.append(wall * speed.factor())
            transactions += result.total_transactions
            fingerprints.append((mix, gates.scan_fingerprint(result)))
        return {"walls": walls, "scaled": scaled, "fingerprints": fingerprints,
                "transactions": transactions, "per_scan": state["transactions"]}

    def check(self, state, samples: dict) -> None:
        expected = {}
        for index, (mix, got) in enumerate(samples["fingerprints"]):
            if mix not in expected:
                expected[mix] = gates.pinned(self.name, self.reference_key(mix))
                if expected[mix] is None:
                    # no pin for this seed: a fresh scan of the same
                    # config is the reference
                    expected[mix] = gates.scan_fingerprint(
                        ScanEngine(state["configs"][mix]).run())
            gates.check_fingerprint(f"batch-scan scan {index}", got, expected[mix])

    def end_to_end(self, samples: dict) -> dict:
        walls, scaled, per_scan = samples["walls"], samples["scaled"], samples["per_scan"]
        tx_per_s = median(per_scan / wall for wall in scaled)
        return {
            "tx_per_s": (tx_per_s, "tx/s"),
            "latency_ms_p50": (median(scaled) * 1e3, "ms"),
            "_attempted": samples["transactions"],
            "_failed": 0,
            "_lines": [
                f"scan_tx_per_s {tx_per_s:.1f} tx/s at the reference speed "
                f"(median of {len(walls)} scans of {per_scan} tx; raw "
                f"{median(per_scan / wall for wall in walls):.1f} tx/s)",
                f"scan_wall_ms_p50 {median(scaled) * 1e3:.1f} ms at the reference speed "
                f"(raw {median(walls) * 1e3:.1f} ms)",
            ],
        }

    def op_cost(self, samples: dict) -> float:
        return median(samples["scaled"]) / samples["per_scan"]


# ---------------------------------------------------------------------------
# stream-paced
# ---------------------------------------------------------------------------


class StreamPaced(Workload):
    """The live-monitor path: an open-loop block source at a fixed rate."""

    name = "stream-paced"
    #: offered load: about half the unpaced capacity of two workers in the
    #: slowest phases of a shared 2-vCPU VM (~800 tx/s; ~1,900 tx/s at
    #: best). Near capacity, queueing makes latency grow faster than the
    #: machine slows, which the speed probes cannot take out.
    rate_tx_per_s = 400
    block_size = 8
    split_attacks = 8
    #: a block emitted later than this after its due time counts as failed.
    latency_limit_ms = 500.0
    #: the run is a series of streams of this many seconds each. Each has
    #: its own schedule (seed ``seed * 1000 + i`` for the ``i``-th), so one
    #: run averages over several transaction mixes, not one.
    segment_seconds = 4
    #: blocks fed unpaced at the start of each stream, before any due
    #: time: they make the workers build their shard worlds, which would
    #: otherwise stall the first timed blocks.
    warmup_blocks = 4

    def scale(self) -> float:
        return round(self.rate_tx_per_s * self.segment_seconds / FULL_POPULATION, 5)

    def config(self, segment: int = 0) -> WildScanConfig:
        return WildScanConfig(scale=self.scale(), seed=self.seed * 1000 + segment,
                              jobs=self.jobs, split_attacks=self.split_attacks)

    def reference_key(self, segment: int) -> str:
        return gates.reference_key(seed=self.seed * 1000 + segment, scale=self.scale(),
                                   split_attacks=self.split_attacks)

    def inputs(self, state) -> dict:
        return {"scale": self.scale(), "transactions_per_stream": state["transactions"],
                "shards": state["shards"], "workers": self.jobs,
                "rate_tx_per_s": self.rate_tx_per_s, "block_size": self.block_size,
                "warmup_blocks": self.warmup_blocks, "latency_limit_ms": self.latency_limit_ms,
                "split_attacks": self.split_attacks}

    def setup(self):
        state = {"streams": {}}
        self.stream_input(state, 0)
        return state

    def stream_input(self, state, segment: int):
        """The config and block list of one stream, made on first use."""
        from repro.engine.stream import schedule_block_stream

        if segment not in state["streams"]:
            cfg = self.config(segment)
            tasks, shards = build_full_schedule(cfg)
            state["streams"][segment] = (cfg, list(schedule_block_stream(tasks, self.block_size)))
            state["transactions"], state["shards"] = len(tasks), shards
        return state["streams"][segment]

    def stream(self, cfg, blocks, tracer=None) -> dict:
        """One stream over the whole schedule.

        The first ``warmup_blocks`` go in as fast as the engine takes
        them; once they are all emitted, the source yields block ``i`` of
        the rest at ``start + i * block_size / rate`` whatever the engine
        is doing. A timed block's latency runs from that due time to its
        ``on_block`` emission, so a stall also counts against the blocks
        queued behind it."""
        from repro.engine.stream import StreamEngine

        warm = min(self.warmup_blocks, len(blocks) - 1)
        interval = self.block_size / self.rate_tx_per_s
        warmed = threading.Event()
        due, lag, latency, sizes = [], [], [], []
        emitted = [0]
        clock = {}

        def source():
            yield from blocks[:warm]
            # bounded, so an engine that fails during warm-up cannot hang
            # the source; the gate then reports the missing blocks
            warmed.wait(60.0)
            start = clock["start"] = time.perf_counter()
            for index, block in enumerate(blocks[warm:]):
                due_at = start + index * interval
                delay = due_at - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                due.append(due_at)
                lag.append(time.perf_counter() - due_at)
                yield block

        def on_block(stats, detections):
            emitted[0] += 1
            if emitted[0] == warm:
                warmed.set()
            elif emitted[0] > warm:
                latency.append((time.perf_counter() - due[len(latency)]) * 1e3)
                sizes.append(stats.transactions)

        if tracer is not None:
            # the source's waits and lateness are the benchmark's, not the
            # engine's: attribute them to a span of their own
            source = tracer.wrap_generator(source, "bench.source")
        engine = StreamEngine(cfg, block_size=self.block_size, windowed=True)
        result = engine.run(source=source(), on_block=on_block)
        return {
            "result": result,
            "latency_ms": latency,
            "lag_ms": [value * 1e3 for value in lag],
            "blocks_fed": len(blocks) - warm,
            "transactions": sum(sizes),
            "elapsed_s": time.perf_counter() - clock["start"],
            "detect_ms": sum(stats.detect_ms for stats in result.blocks),
            "detect_tx": sum(stats.transactions for stats in result.blocks),
        }

    def measure(self, state, seconds: float, tracer=None) -> dict:
        """Streams until ``seconds`` have passed. Block latency is not
        scaled by the machine's speed (see ``Speed``): at this load it
        follows the handoffs between the engine's threads, not the
        interpreter's speed, and the probes only added noise to it."""
        segments = []
        deadline = time.perf_counter() + seconds
        while not segments or time.perf_counter() + self.segment_seconds / 2 < deadline:
            index = len(segments)
            segment = self.stream(*self.stream_input(state, index), tracer)
            segment["segment"] = index
            segments.append(segment)
        return {"segments": segments}

    def check(self, state, samples: dict) -> None:
        from repro.leishen.window import windowed_recall

        for index, segment in enumerate(samples["segments"]):
            expected = gates.pinned(self.name, self.reference_key(segment["segment"]))
            if expected is None:
                cfg, _ = self.stream_input(state, segment["segment"])
                expected = gates.scan_fingerprint(ScanEngine(cfg).run())
            streamed = segment["result"]
            gates.require(len(segment["latency_ms"]) == segment["blocks_fed"],
                          f"stream-paced stream {index}: a fed block was never emitted")
            gates.check_fingerprint(f"stream-paced stream {index} vs batch",
                                    gates.scan_fingerprint(streamed.result), expected)
            recall = windowed_recall(streamed.windowed, range(self.split_attacks))
            gates.require(recall == 1.0,
                          f"stream-paced stream {index}: windowed recall {recall} != 1.0")

    @staticmethod
    def _pooled(samples: dict, key: str) -> list:
        return [value for segment in samples["segments"] for value in segment[key]]

    def end_to_end(self, samples: dict) -> dict:
        segments = samples["segments"]
        latency = self._pooled(samples, "latency_ms")
        lag = self._pooled(samples, "lag_ms")
        late = sum(1 for value in latency if value > self.latency_limit_ms)
        fed = sum(segment["blocks_fed"] for segment in segments)
        missing = fed - len(latency)
        p99 = named_percentile(latency, 0.99)
        lag99 = named_percentile(lag, 0.99)
        tx_per_s = (sum(segment["transactions"] for segment in segments)
                    / sum(segment["elapsed_s"] for segment in segments))
        return {
            "tx_per_s": (tx_per_s, "tx/s"),
            "latency_ms_p50": (median(latency), "ms"),
            "_attempted": fed,
            "_failed": late + missing,
            "_lines": [
                f"block_latency_ms_p50 {median(latency):.3f} ms "
                f"(n={len(latency)} blocks in {len(segments)} streams)",
                f"block_latency_ms_p99 {_fmt(p99)} ms",
                f"stream_tx_per_s {tx_per_s:.1f} tx/s at a fixed offered "
                f"{self.rate_tx_per_s} tx/s, {self.block_size} tx per block",
                f"feeder_lag_ms_p99 {_fmt(lag99)} ms (how late the open-loop source ran)",
                f"latency limit {self.latency_limit_ms:.0f} ms: {late} late, "
                f"{missing} never emitted",
            ],
        }

    def op_cost(self, samples: dict) -> float:
        segments = samples["segments"]
        return (sum(segment["detect_ms"] for segment in segments)
                / max(1, sum(segment["detect_tx"] for segment in segments)))

    def context(self, state, samples: dict) -> dict:
        lag = self._pooled(samples, "lag_ms")
        lag99 = named_percentile(lag, 0.99)
        return {
            "stream.feeder_lag_ms_p99": lag99 if lag99 is not None else max(lag),
            "stream.queue_depth_max": max(segment["result"].max_queue_depth
                                          for segment in samples["segments"]),
            "stream.workers": samples["segments"][0]["result"].jobs,
        }


# ---------------------------------------------------------------------------
# replay-mixed
# ---------------------------------------------------------------------------


class ReplayMixed(Workload):
    """Recorded mixed history replayed through a fresh detector per pass."""

    name = "replay-mixed"
    scale = 0.03
    shards = 8
    #: share of the recorded transactions that the benchmark adds and that
    #: borrow no flash loan (EOA ERC20 transfers and router swaps). Not
    #: one half exactly: the latency median would then sit on the boundary
    #: between cheap rejections and full analyses and jump between seeds.
    plain_share = 0.4
    block_size = 16

    def config(self) -> WildScanConfig:
        return WildScanConfig(scale=self.scale, seed=self.seed, shards=self.shards,
                              keep_history=True)

    def inputs(self, state) -> dict:
        return {"scale": self.scale, "shard": f"0 of {self.shards}",
                "transactions": len(state["traces"]), "plain_transactions": state["plain"],
                "blocks": len(state["blocks"])}

    def setup(self):
        from repro.chain.explorer import ChainExplorer
        from repro.engine.plan import shard_schedule
        from repro.engine.scan import build_shard_context, execute_task

        cfg = self.config()
        tasks, shard_count = build_full_schedule(cfg)
        ctx = build_shard_context(cfg, 0, shard_count)
        world = ctx.market.world
        chain = world.chain
        traffic = _PlainTraffic(ctx.market, random.Random(f"replay-mixed:{self.seed}"))
        chain.mine()  # the world's own set-up transactions stay out of the replay
        first_block = chain.block_number
        # after each scheduled transaction, two draws of probability p add
        # on average share / (1 - share) plain ones
        p = self.plain_share / (1.0 - self.plain_share) / 2
        in_block = 0
        for task in shard_schedule(tasks, shard_count)[0]:
            execute_task(ctx, task)
            in_block += 1
            for _ in range(2):
                if traffic.rng.random() < p:
                    traffic.transact()
                    in_block += 1
            if in_block >= self.block_size:
                chain.mine()
                in_block = 0
        chain.mine()
        blocks = list(ChainExplorer(chain).blocks_between(first_block, chain.block_number))
        traces = [trace for _, block in blocks for trace in block]
        return {"world": world, "blocks": blocks, "traces": traces,
                "plain": traffic.count}

    def _pass(self, state, tracer=None):
        """One replay through ``screen_blocks`` with a fresh detector.

        The source hands ``screen_blocks`` one transaction per pull, so
        the time between pulls is one transaction's detection latency,
        flash loan or not."""
        from repro.engine import stream

        pulls = []
        clock = time.perf_counter

        def source():
            for number, traces in state["blocks"]:
                for trace in traces:
                    pulls.append(clock())
                    yield number, (trace,)

        def replay():
            detector = state["world"].detector()
            return {item.report.tx_hash: item.report
                    for item in stream.screen_blocks(detector, source())}

        if tracer is not None:
            replay = tracer.wrap(replay, "replay.pass")
        started = clock()
        screened = replay()
        ended = clock()
        pulls.append(ended)
        latency_us = [(b - a) * 1e6 for a, b in zip(pulls, pulls[1:])]
        return ended - started, latency_us, screened

    def verdicts(self, state, screened) -> list:
        out = []
        for trace in state["traces"]:
            report = screened.get(trace.tx_hash)
            out.append((trace.tx_hash, report is not None,
                        report is not None and report.is_attack,
                        sorted(report.patterns) if report is not None else []))
        return out

    def direct_verdicts(self, state) -> list:
        """The reference: the detector called on every recorded
        transaction directly, without ``screen_blocks``."""
        detector = state["world"].detector()
        screened = {}
        for trace in state["traces"]:
            report = detector.analyze(trace)
            if report is not None:
                screened[trace.tx_hash] = report
        return self.verdicts(state, screened)

    def measure(self, state, seconds: float, tracer=None) -> dict:
        self._pass(state)  # warm-up, not counted
        speed = Speed()
        # compact arrays: a run keeps ~10^5 samples, and their memory
        # must not make peak_rss_mb follow the machine's speed
        walls, scaled, latency, fingerprints = [], [], array("d"), []
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            wall, per_tx, screened = self._pass(state, tracer)
            factor = speed.factor()
            walls.append(wall)
            scaled.append(wall * factor)
            latency.extend(value * factor for value in per_tx)
            fingerprints.append(gates.verdicts_fingerprint(self.verdicts(state, screened)))
        return {"walls": walls, "scaled": scaled, "latency_us": latency,
                "fingerprints": fingerprints, "per_pass": len(state["traces"])}

    def check(self, state, samples: dict) -> None:
        key = gates.reference_key(seed=self.seed, scale=self.scale,
                                  plain_share=self.plain_share)
        expected = gates.pinned(self.name, key)
        if expected is None:
            expected = gates.verdicts_fingerprint(self.direct_verdicts(state))
        for index, got in enumerate(samples["fingerprints"]):
            gates.check_fingerprint(f"replay-mixed pass {index} verdicts", got, expected)

    def end_to_end(self, samples: dict) -> dict:
        walls, scaled, latency = samples["walls"], samples["scaled"], samples["latency_us"]
        per_pass = samples["per_pass"]
        tx_per_s = median(per_pass / wall for wall in scaled)
        p99 = named_percentile(latency, 0.99)
        return {
            "tx_per_s": (tx_per_s, "tx/s"),
            "latency_ms_p50": (median(latency) / 1e3, "ms"),
            "_attempted": len(latency),
            "_failed": 0,
            "_lines": [
                f"replay_tx_per_s {tx_per_s:.1f} tx/s at the reference speed (median of "
                f"{len(walls)} passes of {per_pass} tx; raw "
                f"{median(per_pass / wall for wall in walls):.1f} tx/s)",
                f"replay_detect_us_p50 {median(latency):.2f} us at the reference speed "
                f"(n={len(latency)} tx)",
                f"replay_detect_us_p99 {_fmt(p99)} us at the reference speed",
            ],
        }

    def op_cost(self, samples: dict) -> float:
        return median(samples["scaled"]) / samples["per_pass"]


class _PlainTraffic:
    """Benchmark-made transactions that borrow no flash loan: ERC20
    transfers between EOAs and single-hop router swaps, sent through
    ``Chain.transact`` like any user transaction."""

    def __init__(self, market, rng: random.Random) -> None:
        world = market.world
        self.rng = rng
        self.chain = world.chain
        self.router = world.dex_router()
        self.tokens = [market.usdc, market.dai, market.weth]
        self.pairs = {(market.weth, market.usdc): market.pool_weth_usdc,
                      (market.weth, market.dai): market.pool_weth_dai}
        self.users = [self.chain.create_eoa(f"plain-user-{i}") for i in range(16)]
        for user in self.users:
            for token in self.tokens:
                world.fund_token(user, token, 10_000_000 * token.unit)
                world.approve(user, token, self.router.address)
        self.count = 0

    def transact(self) -> None:
        rng = self.rng
        sender = rng.choice(self.users)
        if rng.random() < 0.5:
            token = rng.choice(self.tokens)
            receiver = rng.choice([user for user in self.users if user != sender])
            amount = rng.randint(1, 1_000) * token.unit
            self.chain.transact(sender, token.address, "transfer", receiver, amount)
        else:
            (weth, stable), pair = rng.choice(list(self.pairs.items()))
            token_in = weth if rng.random() < 0.5 else stable
            amount = rng.randint(1, 50) * (weth.unit if token_in is weth else 1_500 * stable.unit)
            self.chain.transact(sender, self.router.address, "swapExactTokensForTokens",
                                amount, 0, (pair.address,), token_in.address)
        self.count += 1


# ---------------------------------------------------------------------------
# service-closed
# ---------------------------------------------------------------------------


class ServiceClosed(Workload):
    """Two closed-loop clients against an in-process scan service."""

    name = "service-closed"
    scale = 0.002
    shards = 2
    clients = 2
    page_size = 16
    #: new configs per run checked against a standalone ScanEngine scan.
    standalone_checks = 6
    round_seconds = 2

    def inputs(self, state) -> dict:
        tasks, _ = build_full_schedule(self._config(0))
        return {"scale": self.scale, "shards": self.shards, "clients": self.clients,
                "executors": self.jobs, "page_size": self.page_size,
                "transactions_per_run": len(tasks)}

    def _config(self, index: int) -> WildScanConfig:
        return WildScanConfig(scale=self.scale, seed=self.seed * 1_000_000 + index,
                              shards=self.shards)

    def setup(self):
        from repro.service.client import ServiceClient
        from repro.service.server import ServiceServer
        from repro.service.service import ScanService

        WORK.mkdir(parents=True, exist_ok=True)
        data_dir = WORK / f"service-{time.time_ns()}"
        service = ScanService(data_dir, executors=self.jobs)
        service.start()
        server = ServiceServer(service)
        server.start()
        clients = [ServiceClient(server.address) for _ in range(self.clients)]
        # one run brings the service to its steady state (imports, warm
        # snapshot cache) before anything is timed
        warm = clients[0].submit(self._config(999_999))
        clients[0].request("wait", run_id=warm["run_id"])
        return {"service": service, "server": server, "clients": clients,
                "data_dir": data_dir, "next": 0, "lock": threading.Lock()}

    def _client_loop(self, state, client, deadline: float, out: dict, rng, history) -> None:
        from repro.service.service import ServiceError

        while time.perf_counter() < deadline:
            with state["lock"]:
                index = state["next"]
                state["next"] += 1
            try:
                started = time.perf_counter()
                run = client.submit(self._config(index))
                view = client.request("wait", run_id=run["run_id"])["run"]
                ran = time.perf_counter()
                detections = client.fetch_detections(run["run_id"], self.page_size)
                fetched = time.perf_counter()
                out["attempted"] += 3
                if view["state"] != "completed":
                    out["failed"] += 1
                    continue
                out["run_ms"].append((ran - started) * 1e3)
                out["fetch_ms"].append((fetched - ran) * 1e3)
                out["queue_ms"].append((view["started_at"] - view["submitted_at"]) * 1e3)
                out["transactions"] += view["summary"]["total_transactions"]
                fingerprint = gates.detections_fingerprint(detections)
                out["runs"].append((index, run["run_id"], fingerprint))
                history.append((index, run["run_id"], fingerprint))
                # the read path: re-submit an older config, which coalesces
                # onto its completed run, and page it again
                if len(history) > 1:
                    old_index, old_id, first = history[rng.randrange(len(history) - 1)]
                    again = client.submit(self._config(old_index))
                    started = time.perf_counter()
                    detections = client.fetch_detections(old_id, self.page_size)
                    out["fetch_ms"].append((time.perf_counter() - started) * 1e3)
                    out["attempted"] += 2
                    out["refetch"].append((again["coalesced"], again["run_id"] == old_id,
                                           gates.detections_fingerprint(detections), first))
            except ServiceError as exc:  # admission or request error: refused
                out["failed"] += 1
                out["errors"].append(repr(exc))

    def measure(self, state, seconds: float, tracer=None) -> dict:
        """The clients run in rounds of ``round_seconds``; between rounds,
        with the service idle, the machine's speed is probed."""

        def tally():
            return {"run_ms": [], "fetch_ms": [], "queue_ms": [], "runs": [], "refetch": [],
                    "errors": [], "attempted": 0, "failed": 0, "transactions": 0}

        out = dict(tally(), scaled_run_ms=[], scaled_fetch_ms=[], rounds=[])
        lanes = range(len(state["clients"]))
        rngs = [random.Random(f"service-closed:{self.seed}:{lane}") for lane in lanes]
        histories = [[] for _ in lanes]
        out["stats_before"] = state["service"].stats()
        speed = Speed()
        deadline = time.perf_counter() + seconds
        while not out["rounds"] or time.perf_counter() + self.round_seconds / 2 < deadline:
            tallies = [tally() for _ in lanes]
            started = time.perf_counter()
            threads = [
                threading.Thread(target=self._client_loop,
                                 args=(state, state["clients"][lane],
                                       started + self.round_seconds, tallies[lane],
                                       rngs[lane], histories[lane]),
                                 name=f"bench-client-{lane}")
                for lane in lanes
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - started
            factor = speed.factor()
            for lane in tallies:
                for key, value in lane.items():
                    out[key] = out[key] + value
                out["scaled_run_ms"] += [value * factor for value in lane["run_ms"]]
                out["scaled_fetch_ms"] += [value * factor for value in lane["fetch_ms"]]
            out["rounds"].append((elapsed, factor, sum(lane["transactions"] for lane in tallies)))
        out["elapsed_s"] = sum(elapsed for elapsed, _, _ in out["rounds"])
        out["stats_after"] = state["service"].stats()
        return out

    def check(self, state, samples: dict) -> None:
        gates.require(not samples["errors"], f"service-closed: refused {samples['errors'][:3]}")
        gates.require(samples["runs"], "service-closed: no run completed")
        for coalesced, same_run, got, first in samples["refetch"]:
            gates.require(coalesced and same_run,
                          "service-closed: a re-submitted config did not coalesce")
            gates.check_fingerprint("service-closed re-fetch", got, first)
        runs = sorted(samples["runs"])
        step = max(1, len(runs) // self.standalone_checks)
        for index, _, got in runs[::step][:self.standalone_checks]:
            standalone = ScanEngine(self._config(index)).run()
            gates.check_fingerprint(f"service-closed run {index} vs standalone scan", got,
                                    gates.detections_fingerprint(standalone.detections))

    def end_to_end(self, samples: dict) -> dict:
        runs, elapsed = len(samples["run_ms"]), samples["elapsed_s"]
        scaled_s = sum(wall * factor for wall, factor, _ in samples["rounds"])
        tx_per_s = samples["transactions"] / scaled_s
        run_ms = median(samples["scaled_run_ms"])
        return {
            "tx_per_s": (tx_per_s, "tx/s"),
            "latency_ms_p50": (run_ms, "ms"),
            "_attempted": samples["attempted"],
            "_failed": samples["failed"],
            "_lines": [
                f"service_run_ms_p50 {run_ms:.2f} ms at the reference speed "
                f"(n={runs} runs in {len(samples['rounds'])} rounds; raw "
                f"{median(samples['run_ms']):.2f} ms)",
                f"service_fetch_ms_p50 {median(samples['scaled_fetch_ms']):.3f} ms at the "
                f"reference speed (n={len(samples['fetch_ms'])} fetches; raw "
                f"{median(samples['fetch_ms']):.3f} ms)",
                f"service_runs_per_s {runs / scaled_s:.3f} 1/s at the reference speed "
                f"(raw {runs / elapsed:.3f} 1/s)",
                f"service_tx_per_s {tx_per_s:.1f} tx/s at the reference speed "
                f"(raw {samples['transactions'] / elapsed:.1f} tx/s)",
            ],
        }

    def op_cost(self, samples: dict) -> float:
        return median(samples["scaled_run_ms"])

    def context(self, state, samples: dict) -> dict:
        before, after = samples["stats_before"], samples["stats_after"]

        def delta(section, key):
            return after[section][key] - before[section][key]

        warm_hits = delta("counters", "warm_hits")
        warm = warm_hits + delta("counters", "warm_misses")
        result_hits = delta("results_cache", "hits")
        lookups = result_hits + delta("results_cache", "misses")
        registry = state["service"].registry
        written = sum(
            registry.ledger_path(run_id).stat().st_size
            for _, run_id, _ in samples["runs"]
            if registry.ledger_path(run_id).exists()
        )
        return {
            "service.queue_wait_ms_p50": median(samples["queue_ms"]),
            "service.coalesced": delta("counters", "coalesced"),
            "service.warm_hit_ratio": warm_hits / warm if warm else 0.0,
            "service.results_cache_hit_ratio": result_hits / lookups if lookups else 0.0,
            "ledger.bytes_written": written,
        }

    def teardown(self, state) -> dict:
        """Clients close first; then the server and the service stop. The
        stop is timed and reported as ``service.stop_s``, never folded
        into an end-to-end metric."""
        for client in state["clients"]:
            client.close()
        started = time.perf_counter()
        state["server"].stop()
        state["service"].shutdown()
        stop_s = time.perf_counter() - started
        shutil.rmtree(state["data_dir"], ignore_errors=True)
        return {"service.stop_s": stop_s}

    def discard(self, state) -> None:
        # stopping takes seconds (a known shutdown defect); stop unused
        # set-ups in the background and let the caller join the thread
        thread = threading.Thread(target=self.teardown, args=(state,),
                                  name="bench-discard")
        thread.start()
        return thread


def _fmt(value) -> str:
    return "n/a (fewer than 10 samples beyond)" if value is None else f"{value:.2f}"


WORKLOADS = {cls.name: cls for cls in (BatchScan, StreamPaced, ReplayMixed, ServiceClosed)}
