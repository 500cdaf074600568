"""Pre-screen soundness: a rejected trace provably holds no flash loan.

The screen's contract is one-sided — ``admits(trace) == False`` implies
``FlashLoanIdentifier.identify(trace) == []`` — so these tests pin the
necessary-condition side (known attacks from all three providers are
always admitted) and the rejection side (plain swaps/transfers are
screened out). The engine-level byte-parity property lives in
``tests/engine/test_prescreen_parity.py``.
"""

from __future__ import annotations

import pytest

from repro.leishen import FlashLoanIdentifier
from repro.leishen.prescreen import PreScreen
from repro.study.scenarios import SCENARIO_BUILDERS


@pytest.fixture(scope="module")
def outcomes():
    """One scenario per provider fingerprint (dYdX, Uniswap, AAVE)."""
    return {
        key: SCENARIO_BUILDERS[key]()
        for key in ("bzx1", "harvest", "valuedefi")
    }


class TestAdmits:
    @pytest.mark.parametrize("key", ["bzx1", "harvest", "valuedefi"])
    def test_known_attack_never_screened_out(self, outcomes, key):
        # The screen is consulted before any tagging; losing a real
        # attack here would silently change scan results.
        assert PreScreen().admits(outcomes[key].trace)

    @pytest.mark.parametrize("key", ["bzx1", "harvest", "valuedefi"])
    def test_identifier_agrees_with_admit(self, outcomes, key):
        trace = outcomes[key].trace
        assert FlashLoanIdentifier().identify(trace) != []
        assert PreScreen().admits(trace)

    def test_plain_swap_screened_out(self, world):
        token = world.new_token("PSC")
        pair = world.dex_pair(token, world.weth, 10**6 * token.unit, 10**4 * 10**18)
        trader = world.create_attacker("t")
        token.mint(trader, 10**6 * token.unit)
        router = world.dex_router()
        world.approve(trader, token, router.address)
        trace = world.chain.transact(
            trader, router.address, "swapExactTokensForTokens",
            100 * token.unit, 0, (pair.address,), token.address,
        )
        screen = PreScreen()
        assert not screen.admits(trace)
        assert screen.screened == 1 and screen.admitted == 0
        # soundness: the identifier agrees the rejection was safe
        assert FlashLoanIdentifier().identify(trace) == []

    def test_plain_transfer_screened_out(self, world):
        token = world.new_token("PS2")
        a = world.create_attacker("a")
        b = world.create_attacker("b")
        token.mint(a, 100)
        trace = world.chain.transact(a, token.address, "transfer", b, 10)
        assert not PreScreen().admits(trace)

    def test_counters_accumulate(self, outcomes, world):
        screen = PreScreen()
        token = world.new_token("PS3")
        a = world.create_attacker("a")
        token.mint(a, 100)
        plain = world.chain.transact(a, token.address, "transfer", a, 10)
        for outcome in outcomes.values():
            assert screen.admits(outcome.trace)
        assert not screen.admits(plain)
        assert screen.admitted == 3
        assert screen.screened == 1

