"""Pattern registry: plugin set, settings normalization, the matcher seam."""

import pytest

from repro.chain import Address
from repro.leishen import PatternMatcher, Trade, TradeKind
from repro.leishen.registry import (
    ALL_PATTERN_KEYS,
    PAPER_PATTERN_KEYS,
    REGISTRY_VERSION,
    PatternRegistry,
    PatternSettings,
    default_registry,
)
from repro.engine.wire import config_from_wire, config_to_wire
from repro.workload.generator import WildScanConfig

X = Address("0x" + "aa" * 20)
Q = Address("0x" + "bb" * 20)
BORROWER = "0xatk"


def buy(seq, amount_q, amount_x, buyer=BORROWER, seller="Pool"):
    return Trade(seq=seq, kind=TradeKind.SWAP, buyer=buyer, seller=seller,
                 amount_sell=amount_q, token_sell=Q, amount_buy=amount_x, token_buy=X)


def sell(seq, amount_x, amount_q, buyer=BORROWER, seller="Venue"):
    return Trade(seq=seq, kind=TradeKind.SWAP, buyer=buyer, seller=seller,
                 amount_sell=amount_x, token_sell=X, amount_buy=amount_q, token_buy=Q)


class TestDefaultRegistry:
    def test_ships_every_pattern_in_order(self):
        assert default_registry().keys() == ALL_PATTERN_KEYS

    def test_paper_keys_are_the_default_prefix(self):
        assert ALL_PATTERN_KEYS[:3] == PAPER_PATTERN_KEYS == ("KRP", "SBS", "MBS")

    def test_select_preserves_enabled_order(self):
        registry = default_registry()
        selected = registry.select(("MBS", "KRP"))
        assert tuple(p.key for p in selected) == ("MBS", "KRP")

    def test_unknown_key_is_loud(self):
        with pytest.raises(KeyError, match="unknown pattern key"):
            default_registry().get("NOPE")

    def test_duplicate_key_rejected(self):
        krp = default_registry().get("KRP")
        with pytest.raises(ValueError, match="duplicate pattern key"):
            PatternRegistry([krp, krp])


class TestPatternSettings:
    def test_none_normalizes_to_paper_defaults(self):
        """``null`` on the config wire decodes to the paper defaults."""
        payload = config_to_wire(WildScanConfig())
        assert payload["pattern_config"] is None
        settings = config_from_wire(payload).pattern_config
        assert settings == PatternSettings()
        assert settings.enabled == PAPER_PATTERN_KEYS
        assert settings.registry_version == REGISTRY_VERSION

    def test_settings_pass_through_unchanged(self):
        settings = PatternSettings(enabled=("KRP",))
        assert PatternMatcher(settings).settings is settings

    def test_make_sorts_params_structurally(self):
        a = PatternSettings.make(params={"SBS": {"min_volatility": 0.5},
                                         "KRP": {"min_buys": 6}})
        b = PatternSettings.make(params={"KRP": {"min_buys": 6},
                                         "SBS": {"min_volatility": 0.5}})
        assert a == b and hash(a) == hash(b)


class TestMatcherSeam:
    def krp_series(self, n=6):
        trades = [buy(i, (100 + 10 * i) * 10, 10) for i in range(n)]
        trades.append(sell(n, 50, 5_000))
        return trades

    def test_default_matcher_runs_paper_patterns(self):
        matches = PatternMatcher().match(self.krp_series(), BORROWER)
        assert {m.pattern for m in matches} == {"KRP"}

    def test_disabled_pattern_never_fires(self):
        settings = PatternSettings(enabled=("SBS", "MBS"))
        assert PatternMatcher(settings).match(self.krp_series(), BORROWER) == []

    def test_threshold_override_via_namespaced_params(self):
        series = self.krp_series(n=4)  # four buys: below the paper's 5
        assert PatternMatcher().match(series, BORROWER) == []
        loose = PatternSettings.make(enabled=("KRP",), params={"KRP": {"min_buys": 4}})
        matches = PatternMatcher(loose).match(series, BORROWER)
        assert {m.pattern for m in matches} == {"KRP"}
