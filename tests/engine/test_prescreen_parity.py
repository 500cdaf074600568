"""Pre-screen parity: execution knobs never touch results.

For a fixed ``(seed, scale, shards)`` the published scan result is
byte-identical — via the wire encoding, the strictest equality the repo
has — whether or not the pre-screen runs, and at any ``jobs`` value.
"""

from __future__ import annotations

import json

import pytest

from repro.engine.scan import ScanEngine
from repro.engine.wire import detection_to_wire
from repro.workload.generator import WildScanConfig, WildScanner


def fingerprint(result) -> str:
    """The scan result's full wire identity as one comparable string."""
    return json.dumps(
        {
            "total": result.total_transactions,
            "detections": [detection_to_wire(d) for d in result.detections],
            "rows": {
                name: [row.n, row.tp, row.fp]
                for name, row in sorted(result.rows.items())
            },
        },
        sort_keys=True,
    )


def scan(**overrides) -> str:
    defaults = dict(scale=0.003, seed=7, jobs=1, shards=4)
    defaults.update(overrides)
    return fingerprint(WildScanner(WildScanConfig(**defaults)).run())


class TestPreScreenParity:
    @pytest.mark.parametrize("seed,scale", [(7, 0.003), (3, 0.005), (11, 0.002)])
    def test_byte_identical_across_seeds_and_scales(self, seed, scale):
        # property-style sweep: the screen may only skip work it can
        # prove irrelevant, so every (seed, scale) cell must agree.
        on = scan(seed=seed, scale=scale, prescreen=True)
        off = scan(seed=seed, scale=scale, prescreen=False)
        assert on == off

    def test_byte_identical_across_jobs(self):
        assert scan(jobs=1, prescreen=True) == scan(jobs=2, prescreen=True)
        assert scan(jobs=2, prescreen=True) == scan(jobs=2, prescreen=False)

    def test_prescreen_counters_surface_in_profile(self):
        engine = ScanEngine(
            WildScanConfig(scale=0.003, seed=7, jobs=1, shards=4, profile=True)
        )
        engine.run()
        counters = engine.profile["counters"]
        # the wild population is all flash-loan txs by construction, so
        # the screen's role here is fast-confirm: everything admitted.
        assert counters["prescreen_admitted"] == counters["transactions"]
        assert counters["prescreen_screened"] == 0

