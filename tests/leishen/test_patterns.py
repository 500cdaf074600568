"""KRP / SBS / MBS pattern matchers (paper Sec. IV-B)."""

import pytest

from repro.chain import Address
from repro.leishen import AttackPattern, PatternMatcher, PatternSettings, Trade, TradeKind

X = Address("0x" + "aa" * 20)  # target token
Q = Address("0x" + "bb" * 20)  # quote token
BORROWER = "0xatk"


def buy(seq, amount_q, amount_x, buyer=BORROWER, seller="Pool"):
    return Trade(seq=seq, kind=TradeKind.SWAP, buyer=buyer, seller=seller,
                 amount_sell=amount_q, token_sell=Q, amount_buy=amount_x, token_buy=X)


def sell(seq, amount_x, amount_q, buyer=BORROWER, seller="Pool"):
    return Trade(seq=seq, kind=TradeKind.SWAP, buyer=buyer, seller=seller,
                 amount_sell=amount_x, token_sell=X, amount_buy=amount_q, token_buy=Q)


@pytest.fixture()
def matcher():
    return PatternMatcher()


class TestKRP:
    def make_series(self, n, rising=True):
        trades = []
        for i in range(n):
            price = 100 + (10 * i if rising else -10 * i)
            trades.append(buy(i, price * 10, 10))
        trades.append(sell(n, 50, 5_000, seller="Venue"))
        return trades

    def test_five_rising_buys_match(self, matcher):
        matches = matcher.match(self.make_series(5), BORROWER)
        assert any(m.pattern == AttackPattern.KRP for m in matches)

    def test_four_buys_insufficient(self, matcher):
        matches = matcher.match(self.make_series(4), BORROWER)
        assert not any(m.pattern == AttackPattern.KRP for m in matches)

    def test_falling_price_no_match(self, matcher):
        matches = matcher.match(self.make_series(6, rising=False), BORROWER)
        assert not any(m.pattern == AttackPattern.KRP for m in matches)

    def test_mixed_sellers_not_grouped(self, matcher):
        trades = []
        for i in range(6):
            trades.append(buy(i, (100 + 10 * i) * 10, 10, seller=f"Pool{i % 2}"))
        trades.append(sell(6, 30, 4_000))
        matches = matcher.match(trades, BORROWER)
        assert not any(m.pattern == AttackPattern.KRP for m in matches)

    def test_sell_before_buys_no_match(self, matcher):
        trades = [sell(0, 50, 5_000)] + [buy(i + 1, (100 + 10 * i) * 10, 10) for i in range(6)]
        matches = matcher.match(trades, BORROWER)
        assert not any(m.pattern == AttackPattern.KRP for m in matches)

    def test_threshold_configurable(self):
        matcher = PatternMatcher(PatternSettings.make(params={"KRP": {"min_buys": 3}}))
        matches = matcher.match(self.make_series(3), BORROWER)
        assert any(m.pattern == AttackPattern.KRP for m in matches)

    def test_other_buyers_ignored(self, matcher):
        trades = [buy(i, (100 + 10 * i) * 10, 10, buyer="somebody") for i in range(6)]
        trades.append(sell(6, 50, 5_000, buyer="somebody"))
        assert matcher.match(trades, BORROWER) == []

    def test_bzx2_style_consecutive_rise_matches(self, matcher):
        # the bZx-2 shape: every buy at or above the previous price, with
        # a plateau in the middle (same pool quote twice running), ending
        # strictly above the start — still a kept-raising series.
        prices = [100, 110, 110, 125, 140]
        trades = [buy(i, p * 10, 10) for i, p in enumerate(prices)]
        trades.append(sell(len(prices), 50, 5_000, seller="Venue"))
        matches = matcher.match(trades, BORROWER)
        assert any(m.pattern == AttackPattern.KRP for m in matches)

    def test_dip_in_middle_no_match(self, matcher):
        # regression: the matcher used to compare only the endpoints, so
        # a series that dipped mid-way (e.g. two unrelated buy runs
        # concatenated) still read as "rising". The price must climb
        # consecutively, not merely end above where it started.
        prices = [100, 140, 90, 120, 150]
        trades = [buy(i, p * 10, 10) for i, p in enumerate(prices)]
        trades.append(sell(len(prices), 50, 5_000, seller="Venue"))
        matches = matcher.match(trades, BORROWER)
        assert not any(m.pattern == AttackPattern.KRP for m in matches)

    def test_flat_series_no_match(self, matcher):
        # nondecreasing alone is not enough: an all-plateau series never
        # raised the price at all.
        trades = [buy(i, 100 * 10, 10) for i in range(5)]
        trades.append(sell(5, 50, 5_000, seller="Venue"))
        matches = matcher.match(trades, BORROWER)
        assert not any(m.pattern == AttackPattern.KRP for m in matches)


class TestSBS:
    def triple(self, p1=10.0, p2=15.0, p3=12.0, amount=100, raise_buyer="bZx"):
        return [
            buy(1, int(p1 * amount), amount),                       # t1 by borrower
            buy(2, int(p2 * 500), 500, buyer=raise_buyer),          # t2 raise (any app)
            sell(3, amount, int(p3 * amount)),                      # t3 symmetric sell
        ]

    def test_canonical_triple_matches(self, matcher):
        matches = matcher.match(self.triple(), BORROWER)
        assert any(m.pattern == AttackPattern.SBS for m in matches)

    def test_raise_by_victim_app_matches(self, matcher):
        """bZx-1: the raise trade is executed by the venue, not the borrower."""
        matches = matcher.match(self.triple(raise_buyer="bZx"), BORROWER)
        assert any(m.pattern == AttackPattern.SBS for m in matches)

    def test_below_28pct_volatility_no_match(self, matcher):
        matches = matcher.match(self.triple(p1=10.0, p2=12.0, p3=11.0), BORROWER)
        assert not any(m.pattern == AttackPattern.SBS for m in matches)

    def test_sell_price_above_raise_no_match(self, matcher):
        matches = matcher.match(self.triple(p3=16.0), BORROWER)
        assert not any(m.pattern == AttackPattern.SBS for m in matches)

    def test_sell_price_below_buy_no_match(self, matcher):
        matches = matcher.match(self.triple(p3=9.0), BORROWER)
        assert not any(m.pattern == AttackPattern.SBS for m in matches)

    def test_asymmetric_amounts_no_match(self, matcher):
        trades = self.triple()
        trades[2] = sell(3, 90, int(12.0 * 90))  # sells 90, bought 100
        matches = matcher.match(trades, BORROWER)
        assert not any(m.pattern == AttackPattern.SBS for m in matches)

    def test_amount_tolerance_accepts_dust_difference(self, matcher):
        trades = self.triple()
        trades[2] = sell(3, 99_950, int(12.0 * 99_950))
        trades[0] = buy(1, int(10.0 * 100_000), 100_000)
        matches = matcher.match(trades, BORROWER)
        assert any(m.pattern == AttackPattern.SBS for m in matches)

    def test_wrong_order_no_match(self, matcher):
        t1, t2, t3 = self.triple()
        reordered = [
            Trade(seq=1, kind=t2.kind, buyer=t2.buyer, seller=t2.seller,
                  amount_sell=t2.amount_sell, token_sell=t2.token_sell,
                  amount_buy=t2.amount_buy, token_buy=t2.token_buy),
            Trade(seq=2, kind=t1.kind, buyer=t1.buyer, seller=t1.seller,
                  amount_sell=t1.amount_sell, token_sell=t1.token_sell,
                  amount_buy=t1.amount_buy, token_buy=t1.token_buy),
            t3,
        ]
        matches = matcher.match(reordered, BORROWER)
        assert not any(m.pattern == AttackPattern.SBS for m in matches)


class TestMBS:
    def rounds(self, n, profitable=True, seller="Vault"):
        trades = []
        for i in range(n):
            buy_price, sell_price = (10, 11) if profitable else (11, 10)
            trades.append(buy(2 * i, buy_price * 100, 100, seller=seller))
            trades.append(sell(2 * i + 1, 100, sell_price * 100, seller=seller))
        return trades

    def test_three_profitable_rounds_match(self, matcher):
        matches = matcher.match(self.rounds(3), BORROWER)
        assert any(m.pattern == AttackPattern.MBS for m in matches)

    def test_two_rounds_insufficient(self, matcher):
        matches = matcher.match(self.rounds(2), BORROWER)
        assert not any(m.pattern == AttackPattern.MBS for m in matches)

    def test_unprofitable_rounds_no_match(self, matcher):
        matches = matcher.match(self.rounds(5, profitable=False), BORROWER)
        assert not any(m.pattern == AttackPattern.MBS for m in matches)

    def test_mixed_sellers_not_rounds(self, matcher):
        trades = self.rounds(2, seller="V1") + self.rounds(1, seller="V2")
        matches = matcher.match(trades, BORROWER)
        assert not any(m.pattern == AttackPattern.MBS for m in matches)

    def test_round_count_reported(self, matcher):
        matches = matcher.match(self.rounds(4), BORROWER)
        mbs = next(
            m for m in matches
            if m.pattern == AttackPattern.MBS and m.target_token == X
        )
        assert mbs.detail("n_rounds") == 4

    def test_mirror_quote_rounds_also_reported(self, matcher):
        """Selling the target back is buying the quote: the mirror-image
        round series on the quote token is reported as a second match of
        the same pattern (harmless for per-transaction verdicts)."""
        matches = matcher.match(self.rounds(4), BORROWER)
        tokens = {m.target_token for m in matches if m.pattern == AttackPattern.MBS}
        assert tokens == {X, Q}

    def test_threshold_configurable(self):
        matcher = PatternMatcher(PatternSettings.make(params={"MBS": {"min_rounds": 2}}))
        matches = matcher.match(self.rounds(2), BORROWER)
        assert any(m.pattern == AttackPattern.MBS for m in matches)


class TestGeneral:
    def test_untaggable_borrower_matches_nothing(self, matcher):
        trades = [buy(0, 1000, 100), sell(1, 100, 1100)]
        assert matcher.match(trades, None) == []

    def test_empty_trades(self, matcher):
        assert matcher.match([], BORROWER) == []
