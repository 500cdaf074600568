"""Lending market, liquidations, and the bZx-style margin venue."""

import pytest

from repro.chain import ETH, Revert
from repro.defi import DexSpotOracle


@pytest.fixture()
def lending(world):
    weth = world.weth
    usdc = world.new_token("USDC", 6)
    market = world.lending_market(
        prices={weth.address: 1.0, usdc.address: (1 / 1500) * 10**12},
        funding={weth: 10_000 * ETH, usdc: 10_000_000 * usdc.unit},
    )
    borrower = world.create_attacker("borrower")
    world.fund_weth(borrower, 1_000 * ETH)
    world.approve(borrower, weth, market.address)
    world.approve(borrower, usdc, market.address)
    return world, weth, usdc, market, borrower


class TestBorrow:
    def test_collateralized_borrow(self, lending):
        world, weth, usdc, market, borrower = lending
        world.chain.transact(
            borrower, market.address, "borrow",
            weth.address, 100 * ETH, usdc.address, 100_000 * usdc.unit,
        )
        assert usdc.balance_of(borrower) == 100_000 * usdc.unit
        assert market.debt_of(borrower, usdc.address) == 100_000 * usdc.unit
        assert market.collateral_of(borrower, weth.address) == 100 * ETH

    def test_undercollateralized_reverts(self, lending):
        world, weth, usdc, market, borrower = lending
        with pytest.raises(Revert, match="undercollateralized"):
            world.chain.transact(
                borrower, market.address, "borrow",
                weth.address, 1 * ETH, usdc.address, 10_000 * usdc.unit,
            )

    def test_repay_and_withdraw(self, lending):
        world, weth, usdc, market, borrower = lending
        world.chain.transact(
            borrower, market.address, "borrow",
            weth.address, 100 * ETH, usdc.address, 50_000 * usdc.unit,
        )
        world.chain.transact(borrower, market.address, "repay", usdc.address, 50_000 * usdc.unit)
        world.chain.transact(borrower, market.address, "withdraw_collateral", weth.address, 100 * ETH)
        assert market.debt_of(borrower, usdc.address) == 0
        assert weth.balance_of(borrower) == 1_000 * ETH

    def test_withdraw_with_outstanding_debt_blocked(self, lending):
        world, weth, usdc, market, borrower = lending
        world.chain.transact(
            borrower, market.address, "borrow",
            weth.address, 100 * ETH, usdc.address, 50_000 * usdc.unit,
        )
        with pytest.raises(Revert, match="outstanding debt"):
            world.chain.transact(
                borrower, market.address, "withdraw_collateral", weth.address, 100 * ETH
            )

    def test_withdraw_blocked_until_callers_own_debt_is_repaid(self, lending):
        world, weth, usdc, market, borrower = lending
        other = world.create_attacker("other-borrower")
        world.fund_weth(other, 1_000 * ETH)
        world.approve(other, weth, market.address)
        world.approve(other, usdc, market.address)
        for account in (borrower, other):
            world.chain.transact(
                account, market.address, "borrow",
                weth.address, 100 * ETH, usdc.address, 50_000 * usdc.unit,
            )
        world.chain.transact(borrower, market.address, "repay", usdc.address, 20_000 * usdc.unit)
        with pytest.raises(Revert, match="outstanding debt"):
            world.chain.transact(
                borrower, market.address, "withdraw_collateral", weth.address, 100 * ETH
            )
        world.chain.transact(borrower, market.address, "repay", usdc.address, 30_000 * usdc.unit)
        # another account's outstanding debt does not block this one
        world.chain.transact(borrower, market.address, "withdraw_collateral", weth.address, 100 * ETH)
        assert weth.balance_of(borrower) == 1_000 * ETH
        with pytest.raises(Revert, match="outstanding debt"):
            world.chain.transact(
                other, market.address, "withdraw_collateral", weth.address, 100 * ETH
            )


class TestLiquidation:
    def test_liquidator_seizes_with_bonus(self, lending):
        world, weth, usdc, market, borrower = lending
        world.chain.transact(
            borrower, market.address, "borrow",
            weth.address, 100 * ETH, usdc.address, 90_000 * usdc.unit,
        )
        liquidator = world.create_attacker("liq")
        usdc.mint(liquidator, 90_000 * usdc.unit)
        world.approve(liquidator, usdc, market.address)
        world.chain.transact(
            liquidator, market.address, "liquidate",
            borrower, usdc.address, 30_000 * usdc.unit, weth.address,
        )
        seized = weth.balance_of(liquidator)
        fair = 30_000 * usdc.unit * (1 / 1500) * 10**12
        assert seized == pytest.approx(fair * 1.05, rel=1e-6)

    def test_liquidate_beyond_debt_reverts(self, lending):
        world, weth, usdc, market, borrower = lending
        liquidator = world.create_attacker("liq")
        with pytest.raises(Revert):
            world.chain.transact(
                liquidator, market.address, "liquidate",
                borrower, usdc.address, 1, weth.address,
            )


@pytest.fixture()
def venue(world):
    weth = world.weth
    tkn = world.new_token("VTK")
    pool = world.dex_pair(tkn, weth, 1_000_000 * tkn.unit, 10_000 * ETH)
    venue = world.margin_venue([pool], funding={weth: 100_000 * ETH, tkn: 2_000_000 * tkn.unit})
    trader = world.create_attacker("mt")
    world.fund_weth(trader, 10_000 * ETH)
    world.approve(trader, weth, venue.address)
    world.approve(trader, tkn, venue.address)
    return world, weth, tkn, pool, venue, trader


class TestMarginVenue:
    def test_margin_trade_uses_venue_cash(self, venue):
        world, weth, tkn, pool, v, trader = venue
        world.chain.transact(
            trader, v.address, "open_margin_position",
            weth.address, 100 * ETH, pool.address, 5,
        )
        assert v.position_of(trader, tkn.address) > 0

    def test_leverage_bounds(self, venue):
        world, weth, _, pool, v, trader = venue
        with pytest.raises(Revert, match="leverage"):
            world.chain.transact(
                trader, v.address, "open_margin_position",
                weth.address, 10 * ETH, pool.address, 9,
            )

    def test_margin_trade_moves_pool_price(self, venue):
        world, weth, tkn, pool, v, trader = venue
        before = pool.spot_price(tkn.address, weth.address)
        world.chain.transact(
            trader, v.address, "open_margin_position",
            weth.address, 1_000 * ETH, pool.address, 5,
        )
        assert pool.spot_price(tkn.address, weth.address) > before

    def test_oracle_swap_at_spot(self, venue):
        world, weth, tkn, pool, v, trader = venue
        spot = pool.spot_price(weth.address, tkn.address)
        world.chain.transact(
            trader, v.address, "oracle_swap", weth.address, 10 * ETH, tkn.address
        )
        assert tkn.balance_of(trader) == int(10 * ETH * spot)

    def test_borrow_against_uses_manipulable_oracle(self, venue):
        world, weth, tkn, pool, v, trader = venue
        tkn.mint(trader, 10_000 * tkn.unit)
        base = weth.balance_of(trader)
        world.chain.transact(
            trader, v.address, "borrow_against", tkn.address, 10_000 * tkn.unit, weth.address
        )
        fair_gain = weth.balance_of(trader) - base
        # pump the oracle pool (buy TKN with 4,000 WETH from a second actor)
        pumper = world.create_attacker("pump")
        world.fund_weth(pumper, 5_000 * ETH)
        out = pool.get_amount_out(4_000 * ETH, weth.address)
        world.chain.transact(pumper, weth.address, "transfer", pool.address, 4_000 * ETH)
        out0, out1 = (out, 0) if pool.token0 == tkn.address else (0, out)
        world.chain.transact(pumper, pool.address, "swap", out0, out1, pumper)
        # the same collateral now fetches a much larger loan
        tkn.mint(trader, 10_000 * tkn.unit)
        before = weth.balance_of(trader)
        world.chain.transact(
            trader, v.address, "borrow_against", tkn.address, 10_000 * tkn.unit, weth.address
        )
        assert weth.balance_of(trader) - before > fair_gain * 1.5


class TestDexSpotOracle:
    def test_direct_pricing(self, venue):
        world, weth, tkn, pool, *_ = venue
        oracle = DexSpotOracle([pool])
        assert oracle.price(tkn.address, weth.address) == pytest.approx(0.01)
        assert oracle.price(tkn.address, tkn.address) == 1.0

    def test_two_hop_pricing(self, world):
        weth = world.weth
        a = world.new_token("HOPA")
        b = world.new_token("HOPB")
        pool_a = world.dex_pair(a, weth, 1_000_000 * a.unit, 10_000 * ETH)
        pool_b = world.dex_pair(b, weth, 2_000_000 * b.unit, 10_000 * ETH)
        oracle = DexSpotOracle([pool_a, pool_b])
        # a = 0.01 WETH, b = 0.005 WETH -> a/b = 2
        assert oracle.price(a.address, b.address) == pytest.approx(2.0, rel=1e-6)

    def test_unknown_pair_raises(self, world):
        oracle = DexSpotOracle([])
        with pytest.raises(LookupError):
            oracle.price(world.weth.address, world.new_token("ZZ").address)
