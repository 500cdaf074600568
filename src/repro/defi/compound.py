"""Compound-style collateralized lending market.

Models the asset flows of supply/borrow/repay/redeem. The borrow path is
the one the bZx-1 attacker used as the *first symmetrical trade*: deposit
5,500 ETH of collateral, walk out with 112 WBTC (paper Fig. 3, step 2) —
at the app-transfer level that is ETH in, WBTC out, i.e. a swap shape.

Prices come from a pluggable oracle so scenarios can point the market at
a manipulated DEX pool or at a fair reference price.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..chain.contract import Msg, external
from ..chain.types import Address
from .base import DeFiProtocol

if TYPE_CHECKING:  # pragma: no cover
    from ..chain.chain import Chain

__all__ = ["LendingMarket"]

#: loan-to-value expressed in basis points (75% like Compound's majors).
DEFAULT_LTV_BPS = 7_500


class LendingMarket(DeFiProtocol):
    """A two-sided lending market over arbitrary ERC20 collateral/debt pairs."""

    APP_NAME = "Compound"

    def __init__(
        self,
        chain: "Chain",
        address: Address,
        price_of: Callable[[Address], float],
        ltv_bps: int = DEFAULT_LTV_BPS,
    ) -> None:
        """``price_of(token)`` returns the token's reference price in a
        common unit (e.g. ETH); only price *ratios* matter."""
        super().__init__(chain, address)
        self.price_of = price_of
        self.ltv_bps = ltv_bps
        #: every token this market was ever asked to lend: a superset of
        #: the tokens any account can owe, kept outside journaled storage
        #: because a stale extra entry only costs one empty debt read.
        self._lent_tokens: set[Address] = set()

    # -- liquidity -------------------------------------------------------

    @external
    def supply(self, msg: Msg, token: Address, amount: int) -> None:
        """Lend assets into the market (LPs; also scenario seeding)."""
        self.pull_token(token, msg.sender, amount)
        self.storage.add(("cash", token), amount)
        self.emit("Mint", minter=msg.sender, amount=amount, token=token)

    # -- borrowing ----------------------------------------------------------

    @external
    def borrow(
        self,
        msg: Msg,
        collateral_token: Address,
        collateral_amount: int,
        borrow_token: Address,
        borrow_amount: int,
    ) -> None:
        """Post collateral and draw a loan in one call.

        Reverts if the requested loan exceeds the collateral value times
        the market's loan-to-value ratio, or the market lacks cash.
        """
        self.require(collateral_amount > 0 and borrow_amount > 0, "zero amounts")
        collateral_value = self.price_of(collateral_token) * collateral_amount
        borrow_value = self.price_of(borrow_token) * borrow_amount
        self.require(
            borrow_value * 10_000 <= collateral_value * self.ltv_bps,
            "undercollateralized",
        )
        self.require(
            self.storage.get(("cash", borrow_token), 0) >= borrow_amount,
            "insufficient market cash",
        )
        self._lent_tokens.add(borrow_token)
        self.pull_token(collateral_token, msg.sender, collateral_amount)
        self.storage.add(("collateral", msg.sender, collateral_token), collateral_amount)
        self.storage.add(("cash", collateral_token), collateral_amount)
        self.storage.add(("cash", borrow_token), -borrow_amount)
        self.storage.add(("debt", msg.sender, borrow_token), borrow_amount)
        self.push_token(borrow_token, msg.sender, borrow_amount)
        self.emit(
            "Borrow",
            borrower=msg.sender,
            borrowToken=borrow_token,
            borrowAmount=borrow_amount,
            collateralToken=collateral_token,
            collateralAmount=collateral_amount,
        )

    @external
    def liquidate(
        self,
        msg: Msg,
        borrower: Address,
        debt_token: Address,
        amount: int,
        collateral_token: Address,
    ) -> int:
        """Repay part of an underwater borrower's debt and seize collateral
        at a 5% bonus — the standard liquidation flow flash loans fund."""
        debt = self.storage.get(("debt", borrower, debt_token), 0)
        self.require(0 < amount <= debt, "liquidate exceeds debt")
        ratio = self.price_of(debt_token) / self.price_of(collateral_token)
        seized = int(amount * ratio * 1.05)
        posted = self.storage.get(("collateral", borrower, collateral_token), 0)
        self.require(seized <= posted, "not enough collateral")
        self.pull_token(debt_token, msg.sender, amount)
        self.storage.add(("cash", debt_token), amount)
        self.storage.set(("debt", borrower, debt_token), debt - amount)
        self.storage.set(("collateral", borrower, collateral_token), posted - seized)
        self.storage.add(("cash", collateral_token), -seized)
        self.push_token(collateral_token, msg.sender, seized)
        self.emit("LiquidateBorrow", liquidator=msg.sender, borrower=borrower, amount=amount)
        return seized

    @external
    def repay(self, msg: Msg, borrow_token: Address, amount: int) -> None:
        """Pay down debt."""
        debt = self.storage.get(("debt", msg.sender, borrow_token), 0)
        self.require(0 < amount <= debt, "repay exceeds debt")
        self.pull_token(borrow_token, msg.sender, amount)
        self.storage.add(("cash", borrow_token), amount)
        self.storage.set(("debt", msg.sender, borrow_token), debt - amount)
        self.emit("RepayBorrow", borrower=msg.sender, amount=amount)

    @external
    def withdraw_collateral(self, msg: Msg, collateral_token: Address, amount: int) -> None:
        """Reclaim collateral; only safe when no outstanding debt remains.

        Simplification: we require all debt repaid rather than re-running a
        portfolio health check per withdrawal.
        """
        posted = self.storage.get(("collateral", msg.sender, collateral_token), 0)
        self.require(0 < amount <= posted, "withdraw exceeds collateral")
        for token in self._lent_tokens:
            self.require(self.debt_of(msg.sender, token) <= 0, "outstanding debt")
        self.storage.set(("collateral", msg.sender, collateral_token), posted - amount)
        self.storage.add(("cash", collateral_token), -amount)
        self.push_token(collateral_token, msg.sender, amount)
        self.emit("RedeemCollateral", redeemer=msg.sender, amount=amount)

    # -- views ------------------------------------------------------------------

    def debt_of(self, account: Address, token: Address) -> int:
        return self.storage.get(("debt", account, token), 0)

    def collateral_of(self, account: Address, token: Address) -> int:
        return self.storage.get(("collateral", account, token), 0)

    def cash_of(self, token: Address) -> int:
        return self.storage.get(("cash", token), 0)
