"""The scan path stays stdlib-only: a scan never loads numpy.

numpy adds about 12 MB of resident memory to every scan process, and
nothing in the detection pipeline needs it. The scan runs in a fresh
interpreter so imports made by other tests cannot mask a regression.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import sys
from repro.engine.scan import ScanEngine
from repro.workload.generator import WildScanConfig

result = ScanEngine(WildScanConfig(scale=0.002, seed=7, shards=2)).run()
assert result.total_transactions > 0
print("numpy" in sys.modules)
"""


def test_scan_does_not_import_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    assert completed.stdout.strip() == "False"
