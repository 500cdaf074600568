"""The repository's benchmark: one workload per run, end-to-end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-scan --seed 1 --seconds 30 --trace 0

Workloads: ``batch-scan``, ``stream-paced``, ``replay-mixed`` and
``service-closed`` (see ``NOTES.md``). With ``--trace 0`` the run prints
every end-to-end metric; with ``--trace 1`` it measures untraced for
half the time (the base of ``trace.overhead_ratio``), then wraps the
program's layer entry points (``layers.py``), measures for the other
half and prints every per-layer metric. Every run checks its output against the pinned
reference (``reference.json``) and prints a run record.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

from common import WORK, Speed, median, peak_rss_mb, program_available, run_record

#: a run sets up at least ``MIN_SETUPS`` times and for at least
#: ``SETUP_SECONDS`` (at most ``MAX_SETUPS`` times) and reports the median:
#: a set-up of a few milliseconds needs many samples.
MIN_SETUPS, SETUP_SECONDS, MAX_SETUPS = 5, 1.0, 100


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not program_available():
        print("perfbench: no program under src/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    import gates
    import layers
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; pick one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    discards = []

    # set-up time too is reported at the reference speed: probed before
    # the first set-up and after the last
    speed = Speed()
    setup_s, state = [], None
    began = time.perf_counter()
    while len(setup_s) < MAX_SETUPS and (
            len(setup_s) < MIN_SETUPS or time.perf_counter() - began < SETUP_SECONDS):
        if state is not None:
            discards.append(workload.discard(state))
            # a discarded set-up must not count in the next one's memory
            state = None
            gc.collect()
        started = time.perf_counter()
        state = workload.setup()
        setup_s.append(time.perf_counter() - started)
    setup_factor = speed.factor()

    error = None
    seconds = args.seconds / 2 if args.trace else args.seconds
    try:
        samples = workload.measure(state, seconds)
        # memory peaks are read before the gates, whose reference scans
        # would otherwise count
        rss_mb = peak_rss_mb()
        workload.check(state, samples)
        if args.trace:
            traced = Tracer()
            layers.install(traced)
            try:
                traced_samples = workload.measure(state, seconds, traced)
            finally:
                traced.uninstall()
            traced.collect()
            workload.check(state, traced_samples)
            context = workload.context(state, traced_samples)
    except gates.GateError as exc:
        error = str(exc)
    finally:
        context_teardown = workload.teardown(state)
        for thread in discards:
            if thread is not None:
                thread.join()

    record = run_record(args.workload, args.seed, args.seconds, bool(args.trace),
                        workload.inputs(state))
    print("run_record " + json.dumps(record, sort_keys=True))
    if error is not None:
        print(f"GATE FAILED: {error}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    # end-to-end figures always come from an untraced measurement
    e2e = workload.end_to_end(samples)
    for line in e2e["_lines"]:
        print(line)
    attempted, failed = e2e["_attempted"], e2e["_failed"]
    print(f"failed_ops_frac {failed / attempted:.6f} ({failed}/{attempted})")

    if not args.trace:
        metrics = {
            "setup_s": (median(setup_s) * setup_factor, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "tx_per_s": e2e["tx_per_s"],
            "latency_ms_p50": e2e["latency_ms_p50"],
        }
        print(f"setup_s {median(setup_s) * setup_factor:.4f} s at the reference speed "
              f"(median of {len(setup_s)} set-ups; raw {median(setup_s):.4f} s)")
        print(f"peak_rss_mb {rss_mb:.1f} MB")
        correct = True
    else:
        context.update(context_teardown)
        context["trace.overhead_ratio"] = (workload.op_cost(traced_samples)
                                           / workload.op_cost(samples))
        metrics = layers.layer_metrics(traced, args.workload, context)
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
        share = metrics["trace.unattributed_share"][0]
        correct = share <= layers.UNATTRIBUTED_LIMIT
        if not correct:
            print(f"ATTRIBUTION FAILED: {share:.3f} of {layers.ROOT_SPANS[args.workload]} "
                  f"wall time is in no layer span (limit {layers.UNATTRIBUTED_LIMIT})")
        traced.dump(WORK / f"trace-{args.workload}.spans")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
