"""Attack pattern matching (paper Sec. IV-B).

Three patterns summarized from the 22 real-world flpAttacks:

- **KRP — Keep Raising Price**: >= 5 buys of a target token from the same
  seller at rising prices, followed by a sell (bZx-2's 18 x 20 ETH trades);
- **SBS — Symmetrical Buying and Selling**: buy an amount of the target
  token, raise its price with a second buy (>= 28% dearer), then sell
  exactly the first amount at the elevated price (bZx-1);
- **MBS — Multi-Round Buying and Selling**: >= 3 profitable buy-then-sell
  rounds against the same seller (Harvest Finance's three vault rounds).

Implementation notes (documented deviations):

- The paper's formal SBS text says the borrower makes all three trades,
  but its own running example (bZx-1) has the price-raising middle trade
  executed *by bZx* with the attacker's margin deposit. We therefore
  require the borrower only on the symmetrical trades ``trade_1`` /
  ``trade_3``; ``trade_2`` may be any application's buy of the target
  token, which is what makes the bZx-1 detection in Table IV work.
- Amount equality in SBS condition (a) uses a small relative tolerance
  (default 0.1%, the same bound as the inter-app merge rule) because
  transfer fees make exact integer equality brittle.

The matching logic itself lives in :mod:`repro.leishen.registry` as
pluggable pattern classes; :class:`PatternMatcher` is the thin façade
that selects and runs the enabled plugins. Pattern identity is the
registry *key* string everywhere; :class:`AttackPattern` is a
``StrEnum`` over the paper keys so ``match.pattern == AttackPattern.KRP``
and plain ``"KRP"`` comparisons are interchangeable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

from ..chain.types import Address
from .registry import PatternSettings, default_registry
from .tagging import Tag
from .trades import Trade

__all__ = ["AttackPattern", "PatternMatch", "PatternMatcher"]


class AttackPattern(enum.StrEnum):
    """The paper's three pattern keys (see the registry for the full set)."""

    KRP = "KRP"
    SBS = "SBS"
    MBS = "MBS"


@dataclass(frozen=True, slots=True)
class PatternMatch:
    """One matched pattern on one target token.

    ``pattern`` is the plugin's registry key (``"KRP"``, ``"SBS"``,
    ``"MBS"``, ``"SANDWICH"``, …); the :class:`AttackPattern` members
    compare equal to the paper keys.
    """

    pattern: str
    target_token: Address
    trades: tuple[Trade, ...]
    details: tuple[tuple[str, float | int | str], ...] = field(default_factory=tuple)

    def detail(self, key: str, default=None):
        for k, v in self.details:
            if k == key:
                return v
        return default


class PatternMatcher:
    """Runs the enabled registry patterns over a transaction's trade list."""

    def __init__(self, settings: PatternSettings = PatternSettings()) -> None:
        self.settings = settings
        self.registry = default_registry()
        self._patterns = self.registry.select(settings.enabled)

    def match(self, trades: Sequence[Trade], borrower: Tag) -> list[PatternMatch]:
        """All pattern matches for the given flash-loan borrower tag."""
        if borrower is None:
            return []
        ordered = sorted(trades, key=lambda t: t.seq)
        matches: list[PatternMatch] = []
        for pattern in self._patterns:
            matches.extend(pattern.match(ordered, borrower, self.settings))
        return matches
