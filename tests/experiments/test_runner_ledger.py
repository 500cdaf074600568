"""CLI surface of the run ledger: --ledger / --resume on scan/stream/cluster."""

from __future__ import annotations

import pytest

from repro.experiments.runner import main


class TestScanSubcommand:
    def test_scan_renders_without_ledger(self, capsys):
        assert main(["scan", "--scale", "0.005", "--shards", "4"]) == 0
        out = capsys.readouterr().out
        assert "Wild scan at scale 0.005" in out
        assert "ledger:" not in out

    def test_scan_journal_then_resume(self, tmp_path, capsys):
        path = str(tmp_path / "run.ledger")
        assert main(["scan", "--scale", "0.005", "--shards", "4",
                     "--ledger", path]) == 0
        first = capsys.readouterr().out
        assert "0 shard(s) resumed" in first
        assert "4 freshly executed" in first

        assert main(["scan", "--scale", "0.005", "--shards", "4",
                     "--resume", path]) == 0
        second = capsys.readouterr().out
        assert "4 shard(s) resumed" in second
        assert "0 freshly executed" in second


class TestStreamSubcommand:
    def test_stream_journal_then_resume(self, tmp_path, capsys):
        path = str(tmp_path / "run.ledger")
        args = ["stream", "--scale", "0.005", "--shards", "4", "--jobs", "2"]
        assert main([*args, "--ledger", path]) == 0
        first = capsys.readouterr().out
        assert "4 freshly executed" in first
        assert main([*args, "--resume", path]) == 0
        second = capsys.readouterr().out
        assert "4 shard(s) resumed" in second


class TestClusterSubcommand:
    def test_cluster_journal_then_resume(self, tmp_path, capsys):
        path = str(tmp_path / "run.ledger")
        args = ["cluster", "--scale", "0.005", "--shards", "4",
                "--workers", "2", "--no-verify"]
        assert main([*args, "--ledger", path]) == 0
        capsys.readouterr()
        assert main([*args, "--resume", path]) == 0
        second = capsys.readouterr().out
        assert "4 shard(s) resumed from the journal" in second


class TestSeedFlag:
    def test_scan_ledger_is_written_under_the_given_seed(self, tmp_path, capsys):
        """``--seed`` reaches the scan: the ledger header binds seed 3."""
        from repro.runtime import RunLedger
        from repro.workload.generator import WildScanConfig

        path = str(tmp_path / "run.ledger")
        assert main(["scan", "--scale", "0.005", "--shards", "4",
                     "--seed", "3", "--ledger", path]) == 0
        capsys.readouterr()
        replay = RunLedger.open(
            path, config=WildScanConfig(scale=0.005, seed=3, shards=4),
            shard_count=4,
        )
        replay.close()

    def test_table_experiments_scan_under_the_given_seed(self, capsys):
        # Table VII's profit figures differ between seeds 3 and 7
        from repro.experiments import table7
        from repro.workload.generator import WildScanConfig, WildScanner

        assert main(["table7", "--scale", "0.005", "--shards", "4",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        expected = table7.render(
            WildScanner(WildScanConfig(scale=0.005, seed=3, shards=4)).run()
        )
        assert expected in out


class TestScanConfigFlags:
    def test_stream_windowed_recovers_split_attacks(self, capsys):
        assert main(["stream", "--scale", "0.005", "--shards", "4",
                     "--windowed", "--split-attacks", "1"]) == 0
        out = capsys.readouterr().out
        assert "windowed recall on 1 labelled split attack(s): 100%" in out

    def test_scan_profile_out_writes_the_profile(self, tmp_path, capsys):
        import json

        path = tmp_path / "profile.json"
        assert main(["scan", "--scale", "0.005", "--shards", "4",
                     "--profile-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"profile written to {path}" in out
        artifact = json.loads(path.read_text())
        assert artifact["artifact"] == "stage_profile"
        assert artifact["counters"]["transactions"] > 0
        assert artifact["counters"]["prescreen_admitted"] > 0

    def test_no_prescreen_admits_nothing(self, tmp_path, monkeypatch, capsys):
        import json

        from repro.runtime.profile import DEFAULT_PROFILE_ARTIFACT

        monkeypatch.chdir(tmp_path)  # --profile alone writes to the cwd
        assert main(["scan", "--scale", "0.005", "--shards", "4",
                     "--no-prescreen", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "stage profile" in out
        counters = json.loads((tmp_path / DEFAULT_PROFILE_ARTIFACT).read_text())["counters"]
        assert counters["transactions"] > 0
        assert counters.get("prescreen_admitted", 0) == 0


class TestStandbyCLI:
    def test_standby_adopts_a_complete_journal(self, tmp_path, capsys):
        """End-to-end --standby: the primary address is already dead and
        the journal already complete, so adoption merges immediately."""
        import socket

        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        dead = "%s:%d" % probe.getsockname()[:2]
        probe.close()

        path = str(tmp_path / "run.ledger")
        assert main(["scan", "--scale", "0.005", "--shards", "4",
                     "--ledger", path]) == 0
        capsys.readouterr()

        assert main(["cluster", "--scale", "0.005", "--shards", "4",
                     "--standby", dead, "--host", "127.0.0.1", "--port", "0",
                     "--resume", path]) == 0
        out = capsys.readouterr().out
        assert "standby following" in out
        assert "adopting the journal" in out
        assert "4 shard(s) adopted from the dead primary's journal" in out


class TestFlagValidation:
    def test_ledger_and_resume_mutually_exclusive(self, tmp_path):
        path = str(tmp_path / "run.ledger")
        with pytest.raises(SystemExit):
            main(["scan", "--ledger", path, "--resume", path])

    def test_resume_requires_existing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["scan", "--resume", str(tmp_path / "absent.ledger")])

    def test_ledger_rejected_for_table_experiments(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["table4", "--ledger", str(tmp_path / "run.ledger")])

    def test_ledger_rejected_for_worker_mode(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cluster", "--connect", "127.0.0.1:9", "--ledger",
                  str(tmp_path / "run.ledger")])

    def test_standby_requires_ledger(self):
        with pytest.raises(SystemExit):
            main(["cluster", "--standby", "127.0.0.1:9733"])

    def test_standby_and_serve_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cluster", "--standby", "127.0.0.1:9733", "--serve",
                  "--ledger", str(tmp_path / "run.ledger")])

    def test_standby_rejected_outside_cluster(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["scan", "--standby", "127.0.0.1:9733",
                  "--ledger", str(tmp_path / "run.ledger")])

    def test_connect_rejects_malformed_address_list(self):
        with pytest.raises(ValueError, match="--connect expects HOST:PORT"):
            main(["cluster", "--connect", "127.0.0.1:9733,badaddress"])

    def test_config_mismatch_fails_loudly(self, tmp_path, capsys):
        from repro.runtime import LedgerError

        path = str(tmp_path / "run.ledger")
        assert main(["scan", "--scale", "0.005", "--shards", "4",
                     "--ledger", path]) == 0
        capsys.readouterr()
        with pytest.raises(LedgerError, match="config digest mismatch"):
            main(["scan", "--scale", "0.01", "--shards", "4",
                  "--resume", path])
