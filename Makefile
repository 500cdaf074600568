PYTHON ?= python
PYTHONPATH := src

.PHONY: test bench bench-smoke stream-smoke windowed-smoke cluster-smoke elastic-smoke resume-smoke service-smoke failover-smoke fullscale-smoke robustness-smoke profile perf-ab

## tier-1 test suite (what CI gates on); the windowed and robustness
## benches ride along because their recall/identity assertions are
## contracts, not timings
test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q tests benchmarks/test_bench_windowed.py benchmarks/test_bench_robustness.py

## full benchmark suite (pytest-benchmark timings + wild-scan throughput)
bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks -q

## tiny-scale wild-scan bench; regenerates BENCH_wildscan.json in seconds
bench-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/run_smoke.py

## tiny-scale streaming scan bench; regenerates BENCH_stream.json and
## asserts stream == batch detections (the identity contract)
stream-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/run_smoke.py --stream

## cross-transaction windowed detection bench; regenerates
## BENCH_windowed.json — labelled split attacks are missed per-tx and
## recovered by the sliding-window matcher, per-tx identity vs. the
## batch engine asserted with the window off and on
windowed-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/run_smoke.py --windowed

## tiny-scale distributed scan bench; regenerates BENCH_cluster.json,
## asserts cluster == batch detections (1 and 2 workers) and that a
## killed worker is requeued without changing the merged result
cluster-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/run_smoke.py --cluster

## cluster-smoke plus an elastic autoscaling run: scale from zero to two
## workers against queue depth, kill one mid-shard, re-admit it on
## probation — identity still asserted, counters land in BENCH_cluster.json
elastic-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/run_smoke.py --elastic

## durable run-ledger bench; regenerates BENCH_resume.json, asserts a
## resumed run merges byte-identically to an uninterrupted one and
## records resumed-vs-cold wall-clock plus shards-skipped counters
resume-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/run_smoke.py --resume

## resident scan-service bench; regenerates BENCH_service.json — cold
## submit-to-result latency over the TCP protocol, queue wait under a
## concurrent burst, duplicate coalescing; identity vs. the standalone
## engine always asserted
service-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/run_smoke.py --service

## coordinator-failover survivability bench; regenerates
## BENCH_failover.json — SIGKILLs the forked primary mid-scan, the hot
## standby adopts the journal and multi-address workers reconnect
## (identity always asserted)
failover-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/run_smoke.py --failover

## end-to-end full-scale bench (sequential vs. parallel vs. pre-screen
## off, identity always asserted); regenerates
## BENCH_fullscale.json and PROFILE_wildscan.json. Scale 1.0 takes
## minutes — override with e.g. `make fullscale-smoke SCALE=0.05`
SCALE ?= 1.0
fullscale-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/run_smoke.py --fullscale --scale $(SCALE)

## adversarial-robustness bench; regenerates BENCH_robustness.json —
## FlashSyn-style mutation sweep per attack family: unmutated attacks
## at 1.0 recall per family, every documented evasion cell at 0.0,
## two sweeps byte-identical
robustness-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/run_smoke.py --robustness

## per-stage profile of the batch wild scan at a moderate scale; prints
## the stage table and writes PROFILE_wildscan.json
profile:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.experiments scan --scale 0.1 --profile

## pairwise A/B of the repository benchmark (perfbench/run.py) between
## BASE and the working tree: alternating run order, one seed per pair;
## prints each end-to-end metric's median, quartiles and win count
WORKLOAD ?= batch-scan
PAIRS ?= 10
perf-ab:
	@test -n "$(BASE)" || { echo "usage: make perf-ab BASE=<rev> [WORKLOAD=batch-scan] [PAIRS=10]"; exit 2; }
	$(PYTHON) benchmarks/ab_pairs.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS)
