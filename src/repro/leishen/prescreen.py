"""Cheap flash-loan pre-screen over raw traces (scan hot-path filter).

The naive scan would run every transaction through tagging,
simplification and trade identification just so
:class:`~repro.leishen.identify.FlashLoanIdentifier` can return an empty
list. This module front-loads that verdict with a single fused pass over
``trace.calls`` and ``trace.logs`` checking the *necessary* conditions of
the three provider fingerprints of Table II: a ``swap`` call preceding a
``uniswapV2Call`` call, a ``flashLoan`` call plus a ``FlashLoan`` event,
or the full dYdX ``LogOperation``/``LogWithdraw``/``LogCall``/
``LogDeposit`` event quadruple. A transaction failing all three can
*provably* not be identified as a flash-loan transaction, so the scan may
skip it without changing any result byte — the parity guarantee
``tests/engine/test_prescreen_parity.py`` pins.
"""

from __future__ import annotations

from ..chain.trace import TransactionTrace

__all__ = ["PreScreen"]


class PreScreen:
    """Front-of-pipeline flash-loan transaction filter.

    ``admits(trace)`` returns ``False`` only when the trace provably
    cannot be identified as a flash-loan transaction (no provider
    fingerprint's necessary markers are present), so screening is
    result-transparent by construction.
    """

    __slots__ = ("admitted", "screened")

    def __init__(self) -> None:
        #: lifetime counters (observability; surfaced by ``--profile``).
        self.admitted = 0
        self.screened = 0

    def admits(self, trace: TransactionTrace) -> bool:
        """``False`` iff ``trace`` provably contains no flash loan.

        One fused pass over calls, then (only if needed) one over logs,
        mirroring the necessary conditions of the three Table II
        fingerprints exactly.
        """
        saw_swap = saw_flash_loan_call = False
        for call in trace.calls:
            function = call.function
            if function == "swap":
                saw_swap = True
            elif function == "uniswapV2Call":
                if saw_swap:
                    # necessary condition of the Uniswap fingerprint: a
                    # swap opened before the pair called back.
                    self.admitted += 1
                    return True
            elif function == "flashLoan":
                saw_flash_loan_call = True
        dydx_mask = 0
        for log in trace.logs:
            event = log.event
            if saw_flash_loan_call and event == "FlashLoan":
                self.admitted += 1
                return True
            if event == "LogOperation":
                dydx_mask |= 1
            elif event == "LogWithdraw":
                dydx_mask |= 2
            elif event == "LogCall":
                dydx_mask |= 4
            elif event == "LogDeposit":
                dydx_mask |= 8
            if dydx_mask == 15:
                self.admitted += 1
                return True
        self.screened += 1
        return False
