"""Correctness gates: fingerprints of each workload's output and the
checks every run makes against them.

A fingerprint is a SHA-256 over canonical JSON, so two results match
only when every Table V count, every detection's wire form and every
per-transaction verdict agree. Pinned fingerprints live in
``reference.json`` (regenerate with ``python3 perfbench/pin.py``); a
seed without a pin is checked against a reference computed in the same
run through another path of the program.
"""

from __future__ import annotations

import hashlib
import json

from common import BENCH_DIR, use_program

use_program()
# bound at import, before any tracing is installed, so fingerprinting
# never records spans of its own
from repro.engine.wire import detection_to_wire  # noqa: E402

REFERENCE_FILE = BENCH_DIR / "reference.json"


class GateError(AssertionError):
    """A workload's output disagrees with its reference."""


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def scan_fingerprint(result) -> str:
    """Table V rows, population and every detection's wire form."""
    return _digest({
        "total_transactions": result.total_transactions,
        "rows": {name: [row.n, row.tp, row.fp] for name, row in sorted(result.rows.items())},
        "detections": [detection_to_wire(d) for d in result.detections],
    })


def detections_fingerprint(detections) -> str:
    """The paged form a service client sees: detections only."""
    return _digest([detection_to_wire(d) for d in detections])


def verdicts_fingerprint(verdicts) -> str:
    """``verdicts``: ``(tx_hash, flash_loan, attack, patterns)`` per transaction."""
    return _digest([[tx, bool(fl), bool(attack), list(patterns)]
                    for tx, fl, attack, patterns in verdicts])


def load_reference() -> dict:
    if not REFERENCE_FILE.is_file():
        return {}
    return json.loads(REFERENCE_FILE.read_text())


def reference_key(**params) -> str:
    """Stable key of one input configuration, e.g. ``seed=3,scale=0.02``."""
    return ",".join(f"{name}={params[name]}" for name in sorted(params))


def pinned(workload: str, key: str) -> str | None:
    return load_reference().get(workload, {}).get(key)


def require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def check_fingerprint(what: str, got: str, expected: str) -> None:
    require(got == expected, f"{what}: fingerprint {got[:16]} != reference {expected[:16]}")
