"""The LeiShen detection pipeline (paper Fig. 5).

``LeiShen.analyze(trace)`` runs the full three-step pipeline on one
transaction:

1. *transfer history extraction* — the substrate already records ordered
   account-level transfers (Sec. V-A);
2. *application-level asset transfer construction* — account tagging plus
   the three simplification rules (Sec. V-B);
3. *attack pattern identification* — trade action identification and
   KRP/SBS/MBS matching anchored on the flash-loan borrower (Sec. V-C).

Transactions that are not flash loan transactions yield ``None``; flash
loan transactions yield an :class:`~repro.leishen.report.AttackReport`
whose ``is_attack`` reflects whether any pattern matched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import TYPE_CHECKING

from ..chain.trace import TransactionTrace
from ..chain.types import Address, ZERO_ADDRESS
from .identify import FlashLoanIdentifier
from .labels import LabelDatabase
from .patterns import PatternMatcher
from .registry import PatternSettings
from .report import AttackReport
from .simplify import SimplifierConfig, TransferSimplifier
from .tagging import AccountTagger
from .trades import TradeIdentifier

if TYPE_CHECKING:  # pragma: no cover
    from ..chain.chain import Chain

__all__ = ["LeiShen", "LeiShenConfig"]


@dataclass(slots=True)
class LeiShenConfig:
    """End-to-end detector configuration."""

    simplifier: SimplifierConfig = field(default_factory=SimplifierConfig)
    #: pattern selection + thresholds (the default is the paper's).
    patterns: PatternSettings = field(default_factory=PatternSettings)
    #: ablation switch: skip tagging/simplification and run patterns on
    #: raw account-level transfers (DESIGN.md ablation 1).
    use_app_level_transfers: bool = True


class LeiShen:
    """The detector. One instance per chain; reusable across transactions."""

    def __init__(
        self,
        chain: "Chain",
        config: LeiShenConfig | None = None,
        labels: LabelDatabase | None = None,
    ) -> None:
        self.chain = chain
        self.config = config or LeiShenConfig()
        self.identifier = FlashLoanIdentifier()
        self.tagger = AccountTagger(chain, labels)
        self.simplifier = TransferSimplifier(self.config.simplifier)
        self.trade_identifier = TradeIdentifier()
        self.matcher = PatternMatcher(self.config.patterns)
        #: optional :class:`~repro.runtime.profile.StageProfiler`;
        #: ``None`` keeps the pipeline free of timing overhead.
        self.profiler = None

    # ------------------------------------------------------------------

    def analyze(self, trace: TransactionTrace) -> AttackReport | None:
        """Run the pipeline; ``None`` when ``trace`` is not a flash loan tx."""
        if not trace.success:
            return None
        prof = self.profiler
        now = perf_counter_ns if prof is not None else None
        if prof is None:
            flash_loans = self.identifier.identify(trace)
        else:
            started = now()
            flash_loans = self.identifier.identify(trace)
            prof.add("identify", now() - started)
        if not flash_loans:
            return None
        # Seven of the 22 studied flpAttacks borrow from more than one
        # provider, and the borrowing contracts need not coincide — anchor
        # pattern matching on every distinct borrower, not just the first.
        borrowers: list[Address] = []
        for loan in flash_loans:
            if loan.borrower not in borrowers:
                borrowers.append(loan.borrower)
        if prof is not None:
            started = now()
        tagged = self.tagger.tag_transfers(trace.transfers)
        if prof is not None:
            prof.add("tag", now() - started)
            started = now()
        if self.config.use_app_level_transfers:
            app_transfers = self.simplifier.simplify(tagged)
        else:
            # Ablation: account-level "tags" are the raw addresses.
            from .simplify import AppTransfer

            app_transfers = [
                AppTransfer(
                    seq=t.seq,
                    sender=str(t.sender),
                    receiver=str(t.receiver) if t.receiver != ZERO_ADDRESS else "BlackHole",
                    amount=t.amount,
                    token=t.token,
                )
                for t in trace.transfers
            ]
        if prof is not None:
            prof.add("simplify", now() - started)
            started = now()
        trades = self.trade_identifier.identify(app_transfers)
        if prof is not None:
            prof.add("trades", now() - started)
            started = now()
        if self.config.use_app_level_transfers:
            borrower_tags = tuple(self.tagger.tag_of(b) for b in borrowers)
        else:
            borrower_tags = tuple(str(b) for b in borrowers)
        matches: list = []
        seen_tags: set = set()
        for tag in borrower_tags:
            if tag is None or tag in seen_tags:
                continue  # untaggable borrower, or same creation-root tag
            seen_tags.add(tag)
            matches.extend(self.matcher.match(trades, tag))
        if prof is not None:
            prof.add("match", now() - started)
        report = AttackReport(
            tx_hash=trace.tx_hash,
            flash_loans=flash_loans,
            borrower=borrowers[0],
            borrower_tag=borrower_tags[0],
            trades=trades,
            matches=matches,
            borrowers=tuple(borrowers),
            borrower_tags=borrower_tags,
            profit_flows=self._group_net_flows(trace, borrowers),
        )
        return report

    @staticmethod
    def _group_net_flows(
        trace: TransactionTrace, borrowers: list[Address]
    ) -> dict[Address, int]:
        """Net asset deltas of the borrower group; intra-group transfers
        cancel, so multi-provider attacks report one coherent profit view."""
        if len(borrowers) == 1:
            return trace.net_flows(borrowers[0])
        group = set(borrowers)
        flows: dict[Address, int] = {}
        for transfer in trace.transfers:
            if transfer.receiver in group:
                flows[transfer.token] = flows.get(transfer.token, 0) + transfer.amount
            if transfer.sender in group:
                flows[transfer.token] = flows.get(transfer.token, 0) - transfer.amount
        return {token: delta for token, delta in flows.items() if delta != 0}

    def detect(self, trace: TransactionTrace) -> bool:
        """Convenience: is this transaction a detected flpAttack?"""
        report = self.analyze(trace)
        return report is not None and report.is_attack

    # -- evaluation hygiene ------------------------------------------------

    def remove_attacker_labels(self, addresses: list[Address]) -> None:
        """Strip labels added to attacker accounts after publication
        (paper Sec. VI-B removes attacker tags before detection)."""
        self.tagger.labels.remove_all(addresses)
        self.tagger.invalidate()
