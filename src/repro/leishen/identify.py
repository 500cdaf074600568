"""Flash loan transaction identification (paper Sec. V-A, Table II).

A transaction is a *flash loan transaction* when it matches a provider
fingerprint:

==========  =====================================  =======================
Provider    Functions                              Events
==========  =====================================  =======================
Uniswap     ``swap`` then ``uniswapV2Call``        —
AAVE        ``flashLoan``                          ``FlashLoan``
dYdX        ``Operate``/``Withdraw``/              ``LogOperation``/
            ``callFunction``/``Deposit``           ``LogWithdraw``/
                                                   ``LogCall``/``LogDeposit``
==========  =====================================  =======================

Identification also recovers the *flash loan borrower* — the contract the
provider calls back into — which downstream pattern matching anchors on.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chain.trace import TransactionTrace
from ..chain.types import Address

__all__ = ["FlashLoan", "FlashLoanIdentifier", "PROVIDERS"]

PROVIDERS = ("Uniswap", "AAVE", "dYdX")


@dataclass(frozen=True, slots=True)
class FlashLoan:
    """One identified flash loan inside a transaction."""

    provider: str
    provider_account: Address
    borrower: Address
    token: Address
    amount: int


class FlashLoanIdentifier:
    """Stateless matcher for the three provider fingerprints."""

    def identify(self, trace: TransactionTrace) -> list[FlashLoan]:
        """Return every flash loan taken in ``trace`` (possibly several:
        seven of the studied attacks borrow from more than one provider)."""
        loans: list[FlashLoan] = []
        loans.extend(self._identify_uniswap(trace))
        loans.extend(self._identify_aave(trace))
        loans.extend(self._identify_dydx(trace))
        return loans

    def is_flash_loan_transaction(self, trace: TransactionTrace) -> bool:
        """Whether any provider fingerprint matches ``trace``."""
        return bool(self.identify(trace))

    # -- Uniswap: swap followed by uniswapV2Call ---------------------------

    def _identify_uniswap(self, trace: TransactionTrace) -> list[FlashLoan]:
        loans: list[FlashLoan] = []
        open_swaps: list = []
        for call in trace.calls:
            if call.function == "swap":
                open_swaps.append(call)
            elif call.function == "uniswapV2Call":
                matching = [c for c in open_swaps if c.callee == call.caller]
                if not matching:
                    continue
                swap_call = matching[-1]
                token, amount = self._loaned_asset(trace, swap_call.callee, call.callee, call.seq)
                loans.append(
                    FlashLoan(
                        provider="Uniswap",
                        provider_account=swap_call.callee,
                        borrower=call.callee,
                        token=token,
                        amount=amount,
                    )
                )
        return loans

    # -- AAVE: flashLoan function + FlashLoan event ---------------------------

    def _identify_aave(self, trace: TransactionTrace) -> list[FlashLoan]:
        if "flashLoan" not in trace.called_functions():
            return []
        loans: list[FlashLoan] = []
        for log in trace.logs:
            if log.event == "FlashLoan":
                loans.append(
                    FlashLoan(
                        provider="AAVE",
                        provider_account=log.emitter,
                        borrower=log.param("target"),
                        token=log.param("reserve"),
                        amount=log.param("amount", 0),
                    )
                )
        return loans

    # -- dYdX: the Operate/Withdraw/callFunction/Deposit quadruple --------------

    def _identify_dydx(self, trace: TransactionTrace) -> list[FlashLoan]:
        events = trace.emitted_events()
        required = {"LogOperation", "LogWithdraw", "LogCall", "LogDeposit"}
        if not required <= events:
            return []
        loans: list[FlashLoan] = []
        for log in trace.logs:
            if log.event == "LogWithdraw":
                loans.append(
                    FlashLoan(
                        provider="dYdX",
                        provider_account=log.emitter,
                        borrower=log.param("account"),
                        token=log.param("market"),
                        amount=log.param("amount", 0),
                    )
                )
        return loans

    # -- helpers --------------------------------------------------------------

    @staticmethod
    def _loaned_asset(
        trace: TransactionTrace, pair: Address, borrower: Address, before_seq: int
    ) -> tuple[Address, int]:
        """The optimistic transfer a pair sent the borrower before calling back."""
        for transfer in reversed(trace.transfers):
            if (
                transfer.seq < before_seq
                and transfer.sender == pair
                and transfer.receiver == borrower
            ):
                return transfer.token, transfer.amount
        # Flash swap where funds were sent elsewhere: fall back to unknown.
        return Address("0x" + "0" * 40), 0
