"""Pattern-registry identity: digests, wire round-trips, compatibility.

The enabled-pattern set and every per-pattern threshold are part of a
scan's identity: two runs that would match different patterns must never
share a ``config_digest`` (the run ledger and the scan service both key
on it). Conversely the *default* selection must digest byte-identically
to what older builds wrote, or every existing ledger and artifact would
be orphaned by a refactor that changed no behaviour.
"""

from __future__ import annotations

import pytest

from repro.engine.wire import (
    config_digest,
    config_from_wire,
    config_to_wire,
    detection_from_wire,
    detection_to_wire,
)
from repro.leishen.registry import ALL_PATTERN_KEYS, PatternSettings
from repro.workload.generator import Detection, WildScanConfig
from repro.workload.profiles import GroundTruth

#: the digest of the all-defaults config, pinned across PRs: a refactor
#: that shifts it silently orphans every ledger written before it.
DEFAULT_DIGEST = "de714eea7fd338ee534d3797436ab318f3e52654ba3bb252912d145abb05ed03"

#: same pin for the benchmark config every BENCH_*.json artifact uses.
BENCH_DIGEST = "cb02b363f73eaf3f0d1fed8946fedc76a279af943e8d60b41d0256f70869254a"


class TestDigestPins:
    def test_default_config_digest_is_stable(self):
        assert config_digest(WildScanConfig()) == DEFAULT_DIGEST

    def test_bench_config_digest_is_stable(self):
        assert config_digest(WildScanConfig(scale=0.01, seed=7)) == BENCH_DIGEST

    def test_jobs_is_not_identity(self):
        assert config_digest(WildScanConfig(jobs=8)) == DEFAULT_DIGEST

    def test_explicit_default_settings_digest_as_the_default(self):
        """One digest per default scan, however its settings are spelled."""
        config = WildScanConfig(pattern_config=PatternSettings())
        assert config_digest(config) == DEFAULT_DIGEST


class TestDigestSensitivity:
    def test_enabled_set_changes_digest(self):
        base = WildScanConfig(pattern_config=PatternSettings())
        widened = WildScanConfig(
            pattern_config=PatternSettings(enabled=ALL_PATTERN_KEYS)
        )
        assert config_digest(base) != config_digest(widened)

    def test_threshold_changes_digest(self):
        base = WildScanConfig(pattern_config=PatternSettings())
        tuned = WildScanConfig(
            pattern_config=PatternSettings.make(
                params={"KRP": {"min_buys": 6}}
            )
        )
        assert config_digest(base) != config_digest(tuned)

    def test_registry_version_changes_digest(self):
        base = WildScanConfig(pattern_config=PatternSettings())
        bumped = WildScanConfig(
            pattern_config=PatternSettings(registry_version=99)
        )
        assert config_digest(base) != config_digest(bumped)

    def test_adversarial_tail_changes_digest(self):
        assert config_digest(WildScanConfig(adversarial=3)) != DEFAULT_DIGEST


class TestWireRoundTrips:
    def test_settings_round_trip(self):
        settings = PatternSettings.make(
            enabled=("KRP", "SANDWICH"),
            params={"KRP": {"min_buys": 7}, "SANDWICH": {"amount_tolerance": 0.02}},
        )
        config = WildScanConfig(pattern_config=settings, adversarial=4)
        decoded = config_from_wire(config_to_wire(config))
        assert decoded.pattern_config == settings
        assert decoded.adversarial == 4

    def test_flat_pattern_config_payload_rejected(self):
        """The flat four-threshold encoding older builds wrote is no
        longer read: a v2 payload carrying it fails loudly."""
        payload = config_to_wire(WildScanConfig())
        payload["pattern_config"] = {
            "krp_min_buys": 6, "sbs_min_volatility": 0.28,
            "sbs_amount_tolerance": 0.001, "mbs_min_rounds": 3,
        }
        with pytest.raises(ValueError):
            config_from_wire(payload)

    def test_default_payload_omits_optional_fields(self):
        payload = config_to_wire(WildScanConfig())
        assert "adversarial" not in payload
        truth = detection_to_wire(
            Detection(tx_hash="0x1", patterns=("KRP",), truth=GroundTruth(is_attack=False, profile="benign"))
        )["truth"]
        assert "family" not in truth

    def test_truth_family_round_trips(self):
        detection = Detection(
            tx_hash="0x2",
            patterns=("SANDWICH",),
            truth=GroundTruth(is_attack=True, profile="sandwich", family="SANDWICH"),
        )
        decoded = detection_from_wire(detection_to_wire(detection))
        assert decoded.truth.family == "SANDWICH"

    def test_settings_payload_with_unknown_field_rejected(self):
        # the default settings encode as null, so take non-default ones
        payload = config_to_wire(
            WildScanConfig(pattern_config=PatternSettings(enabled=("KRP",)))
        )
        payload["pattern_config"]["surprise"] = 1
        with pytest.raises(ValueError, match="unknown field"):
            config_from_wire(payload)
