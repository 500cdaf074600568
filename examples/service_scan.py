"""Resident scan service: submit, coalesce, restart, page.

Run::

    python examples/service_scan.py [scale]

Stands up the whole multi-tenant stack in one process — a
:class:`~repro.service.ScanService` over a data directory, fronted by a
framed-JSON TCP :class:`~repro.service.ServiceServer` — and walks the
lifecycle a long-lived deployment cares about:

1. submit a scan over TCP and poll it to completion;
2. submit the *same* config again — it coalesces onto the completed run
   (the run id is the config digest, so nothing scans twice);
3. stop the service, start a fresh one over the same data dir — the new
   process adopts the persisted ledgers and serves the old results
   without re-scanning;
4. page the detections out of the completed ledger.
"""

from __future__ import annotations

import sys
import tempfile

from repro.service import ScanService, ServiceClient, ServiceServer
from repro.workload.generator import WildScanConfig


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.02

    with tempfile.TemporaryDirectory(prefix="repro-service-") as data_dir:
        with ScanService(data_dir, executors=2) as service:
            with ServiceServer(service) as server:
                host, port = server.address
                print(f"scan service on {host}:{port} (data dir {data_dir})\n")
                with ServiceClient(server.address) as client:
                    # 1. submit and poll to completion.
                    config = WildScanConfig(scale=scale, seed=7, shards=4)
                    run = client.submit(config)
                    print(f"submitted {run['run_id']} ({run['state']})")
                    done = client.wait(run["run_id"])
                    summary = done["summary"]
                    print(
                        f"  completed: {summary['detected']} detections / "
                        f"{summary['total_transactions']} txs\n"
                    )

                    # 2. duplicate submit: coalesces, nothing re-scans.
                    again = client.submit(config)
                    print(
                        f"resubmitted the same config -> {again['run_id']} "
                        f"(coalesced={again['coalesced']}, "
                        f"state={again['state']})\n"
                    )
                    cold_id = run["run_id"]

        # 3. restart: a new service over the same data dir adopts the
        # persisted ledgers and serves results without re-scanning.
        with ScanService(data_dir, executors=2) as revived:
            with ServiceServer(revived) as server:
                with ServiceClient(server.address) as client:
                    view = client.status(cold_id)
                    print(
                        f"after restart: {cold_id} is {view['state']} "
                        f"(served from the persisted ledger)"
                    )

                    # 4. page the detections straight out of the journal.
                    page = client.results(cold_id, offset=0, limit=5)
                    print(
                        f"  page 1: {page['count']} of "
                        f"{page['total_detections']} detections"
                    )
                    for det in page["detections"]:
                        print(
                            f"    {det['tx_hash'][:18]}...  "
                            f"{'+'.join(det['patterns'])}  "
                            f"${det['profit_usd']:,.0f}"
                        )
                    if page["next_offset"] is not None:
                        print(f"  next page at offset {page['next_offset']}")


if __name__ == "__main__":
    main()
