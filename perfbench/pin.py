"""Regenerate ``reference.json``: the pinned fingerprints the gates check.

Usage (from the repository root)::

    python3 perfbench/pin.py --seeds 0-19

Each fingerprint comes from a reference path of the program, never from
the path a workload times: the in-process batch engine for
``batch-scan`` and for the batch-equivalent result of ``stream-paced``, and the
detector called directly on every recorded transaction for
``replay-mixed``. ``service-closed`` needs no pin: every run checks its
paged detections against standalone scans of the same configs.

Re-pin only when a change is meant to alter results; a pin that moves
otherwise is the regression the gates exist to catch.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import replace

from common import use_program

use_program()

import gates  # noqa: E402
from workloads import BatchScan, ReplayMixed, StreamPaced  # noqa: E402

from repro.engine.scan import ScanEngine  # noqa: E402

#: streams pinned per seed for ``stream-paced``: a 30-second run makes
#: about seven; later ones are checked against a scan made in the run.
STREAMS_PINNED = 12


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    args = parser.parse_args(argv)
    seconds = 1  # no input size depends on the run length
    reference = gates.load_reference()
    for seed in seed_range(args.seeds):
        batch = BatchScan(seed, seconds)
        for mix in range(batch.mixes):
            reference.setdefault(batch.name, {})[batch.reference_key(mix)] = (
                gates.scan_fingerprint(ScanEngine(batch.config(mix)).run()))

        stream = StreamPaced(seed, seconds)
        for segment in range(STREAMS_PINNED):
            reference.setdefault(stream.name, {})[stream.reference_key(segment)] = (
                gates.scan_fingerprint(ScanEngine(replace(stream.config(segment), jobs=1)).run()))

        replay = ReplayMixed(seed, seconds)
        key = gates.reference_key(seed=seed, scale=replay.scale,
                                  plain_share=replay.plain_share)
        reference.setdefault(replay.name, {})[key] = gates.verdicts_fingerprint(
            replay.direct_verdicts(replay.setup()))
        print(f"seed {seed} pinned", flush=True)
    gates.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
