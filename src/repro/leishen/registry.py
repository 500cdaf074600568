"""Pluggable attack-pattern registry.

The paper's three behaviour patterns (KRP/SBS/MBS) were originally
private methods on :class:`~repro.leishen.patterns.PatternMatcher`.
They live here now as standalone plugin classes behind a small
:class:`Pattern` protocol, so new families (sandwich/frontrunning,
infinite-mint, donation-style share inflation) plug in beside them
without touching the matcher, the windowed merger, the prescreen, or
the baselines.

Identity model
--------------

A pattern is identified everywhere by its registry ``key`` (a short
upper-case string: ``"KRP"``, ``"SBS"``, ``"MBS"``, ``"SANDWICH"``,
``"MINT"``, ``"DONATION"``). Detections, windowed observations, wire
payloads, and ground-truth labels all carry these keys; the
:class:`~repro.leishen.patterns.AttackPattern` enum is a thin
``StrEnum`` alias over the paper keys kept for ergonomic comparisons.

Configuration is namespaced per pattern key via
:class:`PatternSettings` — a frozen, hashable value carrying the
*enabled* key tuple (match order!) and per-pattern parameter
overrides. ``PatternSettings()`` is the paper's selection and
thresholds; with the default registry its results are byte-identical
to the pre-registry matcher.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Protocol, Sequence, runtime_checkable

from ..chain.types import Address
from .tagging import Tag
from .trades import Trade, TradeKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (patterns imports this module)
    from .patterns import PatternMatch

__all__ = [
    "ALL_PATTERN_KEYS",
    "PAPER_PATTERN_KEYS",
    "REGISTRY_VERSION",
    "Pattern",
    "PatternPlugin",
    "PatternRegistry",
    "PatternSettings",
    "default_registry",
]

#: Bumped whenever a plugin's matching semantics change; part of the
#: run identity whenever a :class:`PatternSettings` is in play.
REGISTRY_VERSION = 1

#: The paper's three patterns, in the match order the pre-registry
#: matcher used (KRP, then SBS, then MBS) — the default enabled set.
PAPER_PATTERN_KEYS: tuple[str, ...] = ("KRP", "SBS", "MBS")

#: Every pattern the default registry ships.
ALL_PATTERN_KEYS: tuple[str, ...] = PAPER_PATTERN_KEYS + ("SANDWICH", "MINT", "DONATION")


@dataclass(frozen=True, slots=True)
class PatternSettings:
    """Namespaced pattern configuration: enabled keys + per-key params.

    Frozen and built from nested tuples so it hashes and equality-
    compares structurally — it participates in ``config_digest`` (the
    run identity), so two runs with different enabled sets or
    thresholds are different runs.
    """

    #: Pattern keys to run, in match order.
    enabled: tuple[str, ...] = PAPER_PATTERN_KEYS
    #: ``((pattern_key, ((param, value), ...)), ...)`` sorted by key.
    params: tuple[tuple[str, tuple[tuple[str, float | int], ...]], ...] = ()
    #: Registry semantics version the settings were authored against.
    registry_version: int = REGISTRY_VERSION

    @classmethod
    def make(
        cls,
        enabled: Sequence[str] | None = None,
        params: Mapping[str, Mapping[str, float | int]] | None = None,
        registry_version: int = REGISTRY_VERSION,
    ) -> "PatternSettings":
        """Build settings from friendly dict/list inputs.

        A param equal to its default-registry plugin's default is
        dropped: spelling a default out is the same scan, so it must
        carry the same ``config_digest``.
        """
        keys = tuple(enabled) if enabled is not None else PAPER_PATTERN_KEYS
        packed = []
        registry = default_registry()
        for key, values in sorted((params or {}).items()):
            defaults = registry.get(key).defaults if key in registry.keys() else {}
            kept = tuple(
                (name, value)
                for name, value in sorted(values.items())
                if name not in defaults or defaults[name] != value
            )
            if kept:
                packed.append((key, kept))
        return cls(enabled=keys, params=tuple(packed), registry_version=registry_version)

    def params_for(self, key: str) -> dict[str, float | int]:
        for pattern_key, values in self.params:
            if pattern_key == key:
                return dict(values)
        return {}

    def param(self, key: str, name: str, default: float | int) -> float | int:
        return self.params_for(key).get(name, default)


@runtime_checkable
class Pattern(Protocol):
    """One pluggable behaviour pattern.

    ``match`` receives the transaction's trades *already sorted by
    seq* plus the flash-loan borrower tag, and returns zero or more
    :class:`~repro.leishen.patterns.PatternMatch` whose ``pattern``
    field is this plugin's ``key``.
    """

    key: str
    defaults: Mapping[str, float | int]

    def match(
        self,
        trades: Sequence[Trade],
        borrower: Tag,
        settings: PatternSettings,
    ) -> "list[PatternMatch]":
        ...


class PatternPlugin:
    """Base class wiring parameter lookup for concrete plugins."""

    key: str = ""
    defaults: Mapping[str, float | int] = {}

    def config(self, settings: PatternSettings) -> dict[str, float | int]:
        return {**self.defaults, **settings.params_for(self.key)}


def _match(pattern: str, token: Address, trades, details) -> "PatternMatch":
    from .patterns import PatternMatch

    return PatternMatch(
        pattern=pattern, target_token=token, trades=tuple(trades), details=tuple(details)
    )


# -- KRP — Keep Raising Price -------------------------------------------------


class KeepRaisingPrice(PatternPlugin):
    """>= ``min_buys`` buys from one seller at rising prices, then a sell."""

    key = "KRP"
    defaults = {"min_buys": 5}

    def match(self, trades, borrower, settings):
        cfg = self.config(settings)
        min_buys = cfg["min_buys"]
        matches: "list[PatternMatch]" = []
        tokens = {t.token_buy for t in trades if t.buyer == borrower}
        for token in tokens:
            buys = [t for t in trades if t.buyer == borrower and t.token_buy == token]
            sells = [t for t in trades if t.buyer == borrower and t.token_sell == token]
            if not sells:
                continue
            for sell in sells:
                prior = [b for b in buys if b.seq < sell.seq]
                by_seller: dict[Tag, list[Trade]] = {}
                for buy in prior:
                    by_seller.setdefault(buy.seller, []).append(buy)
                for seller, series in by_seller.items():
                    if len(series) < min_buys:
                        continue
                    # condition (b): buys at *rising* prices. The rise
                    # must hold across the whole series, not merely
                    # endpoint-to-endpoint — a mid-series dip means the
                    # price was not being kept raised (and endpoint
                    # comparison alone admits ordinary oscillating trade
                    # sequences as false positives). Plateaus are
                    # tolerated (oracle-rate buys repeat a price), but
                    # the series overall must strictly rise.
                    rates = [buy.sell_rate for buy in series]
                    rising = rates[0] < rates[-1] and all(
                        earlier <= later for earlier, later in zip(rates, rates[1:])
                    )
                    first, last = series[0], series[-1]
                    if rising:
                        matches.append(
                            _match(
                                self.key,
                                token,
                                (*series, sell),
                                (
                                    ("n_buys", len(series)),
                                    ("first_rate", first.sell_rate),
                                    ("last_rate", last.sell_rate),
                                    ("seller", str(seller)),
                                ),
                            )
                        )
                        break  # one match per (token, sell) is enough
                else:
                    continue
                break  # token matched; move on
        return matches


# -- SBS — Symmetrical Buying and Selling -------------------------------------


class SymmetricBuySell(PatternPlugin):
    """Buy, let any app raise the price >= ``min_volatility``, sell the same amount."""

    key = "SBS"
    defaults = {"min_volatility": 0.28, "amount_tolerance": 0.001}

    def match(self, trades, borrower, settings):
        cfg = self.config(settings)
        matches: "list[PatternMatch]" = []
        tokens = {t.token_buy for t in trades if t.buyer == borrower}
        for token in tokens:
            own_buys = [t for t in trades if t.buyer == borrower and t.token_buy == token]
            own_sells = [t for t in trades if t.buyer == borrower and t.token_sell == token]
            any_buys = [t for t in trades if t.token_buy == token]
            found = self._find_triple(
                token, own_buys, own_sells, any_buys,
                tol=cfg["amount_tolerance"], min_volatility=cfg["min_volatility"],
            )
            if found is not None:
                matches.append(found)
        return matches

    def _find_triple(self, token, own_buys, own_sells, any_buys, *, tol, min_volatility):
        for t1 in own_buys:
            for t3 in own_sells:
                if t3.seq <= t1.seq:
                    continue
                if t1.token_sell != t3.token_buy:
                    continue  # different quote currency; rates not comparable
                big = max(t1.amount_buy, t3.amount_sell)
                if big == 0 or abs(t1.amount_buy - t3.amount_sell) / big > tol:
                    continue
                for t2 in any_buys:
                    if not (t1.seq < t2.seq < t3.seq) or t2 is t1:
                        continue
                    if t2.token_sell != t1.token_sell:
                        continue
                    p1, p2 = t1.sell_rate, t2.sell_rate
                    p3 = t3.amount_buy / t3.amount_sell if t3.amount_sell else float("inf")
                    if not (p1 < p3 < p2):
                        continue
                    if p1 <= 0 or (p2 - p1) / p1 < min_volatility:
                        continue
                    return _match(
                        self.key,
                        token,
                        (t1, t2, t3),
                        (
                            ("buy_rate", p1),
                            ("raise_rate", p2),
                            ("sell_rate", p3),
                            ("volatility", (p2 - p1) / p1),
                        ),
                    )
        return None


# -- MBS — Multi-Round Buying and Selling -------------------------------------


class MultiRoundBuySell(PatternPlugin):
    """>= ``min_rounds`` profitable buy-then-sell rounds against one seller."""

    key = "MBS"
    defaults = {"min_rounds": 3}

    def match(self, trades, borrower, settings):
        cfg = self.config(settings)
        matches: "list[PatternMatch]" = []
        pairs = {
            (t.token_buy, t.seller)
            for t in trades
            if t.buyer == borrower and t.seller is not None
        }
        for token, seller in pairs:
            relevant = [
                t
                for t in trades
                if t.buyer == borrower
                and t.seller == seller
                and (t.token_buy == token or t.token_sell == token)
            ]
            rounds = self._count_profitable_rounds(relevant, token)
            if len(rounds) >= cfg["min_rounds"]:
                flat = tuple(trade for pair in rounds for trade in pair)
                matches.append(
                    _match(
                        self.key,
                        token,
                        flat,
                        (
                            ("n_rounds", len(rounds)),
                            ("seller", str(seller)),
                        ),
                    )
                )
        return matches

    @staticmethod
    def _count_profitable_rounds(
        trades: list[Trade], token: Address
    ) -> list[tuple[Trade, Trade]]:
        """Pair alternating buy/sell trades into profitable rounds."""
        rounds: list[tuple[Trade, Trade]] = []
        pending_buy: Trade | None = None
        for trade in trades:
            if trade.token_buy == token:
                pending_buy = trade
            elif trade.token_sell == token and pending_buy is not None:
                buy, sell = pending_buy, trade
                same_quote = buy.token_sell == sell.token_buy
                profitable = buy.sell_rate < sell.buy_rate
                if same_quote and profitable:
                    rounds.append((buy, sell))
                pending_buy = None
        return rounds


# -- SANDWICH — frontrun / backrun around a victim buy ------------------------


class SandwichFrontrun(PatternPlugin):
    """Borrower buys, a *different* account buys at or above the borrower's
    price on the same venue, and the borrower exits symmetrically at a
    profit — the classic frontrun/backrun sandwich.

    Distinguished from SBS by the victim trade: SBS requires the
    middle trade to raise the price *above* the borrower's exit
    (``p1 < p3 < p2``); a sandwich exits *after* the victim pushed the
    price, so the exit rate exceeds the victim's (``p3 >= p2``), and the
    middle trade must come from a non-borrower account.
    """

    key = "SANDWICH"
    defaults = {"amount_tolerance": 0.01}

    def match(self, trades, borrower, settings):
        cfg = self.config(settings)
        tol = cfg["amount_tolerance"]
        matches: "list[PatternMatch]" = []
        tokens = {t.token_buy for t in trades if t.buyer == borrower}
        for token in tokens:
            own_buys = [t for t in trades if t.buyer == borrower and t.token_buy == token]
            own_sells = [t for t in trades if t.buyer == borrower and t.token_sell == token]
            victim_buys = [
                t for t in trades if t.token_buy == token and t.buyer != borrower
            ]
            found = self._find_sandwich(token, own_buys, own_sells, victim_buys, tol)
            if found is not None:
                matches.append(found)
        return matches

    def _find_sandwich(self, token, own_buys, own_sells, victim_buys, tol):
        for t1 in own_buys:
            for t3 in own_sells:
                if t3.seq <= t1.seq:
                    continue
                if t1.token_sell != t3.token_buy:
                    continue  # different quote; rates not comparable
                if t1.seller != t3.seller:
                    continue  # frontrun and backrun hit the same venue
                big = max(t1.amount_buy, t3.amount_sell)
                if big == 0 or abs(t1.amount_buy - t3.amount_sell) / big > tol:
                    continue
                if t3.buy_rate <= t1.sell_rate:
                    continue  # exit not profitable; no sandwich payoff
                for t2 in victim_buys:
                    if not (t1.seq < t2.seq < t3.seq):
                        continue
                    if t2.seller != t1.seller or t2.token_sell != t1.token_sell:
                        continue
                    if t2.sell_rate < t1.sell_rate:
                        continue  # victim paid less than the frontrun; no squeeze
                    return _match(
                        self.key,
                        token,
                        (t1, t2, t3),
                        (
                            ("front_rate", t1.sell_rate),
                            ("victim_rate", t2.sell_rate),
                            ("exit_rate", t3.buy_rate),
                        ),
                    )
        return None


# -- MINT — infinite mint / unbacked supply dump ------------------------------


class InfiniteMint(PatternPlugin):
    """Borrower dumps a token it never (meaningfully) acquired in-trade.

    An unprotected-mint exploit conjures supply out of thin air, so the
    attacker's trade flow shows >= ``min_dumps`` sells of the token
    with bought-back volume at most ``max_buyback`` of the sold volume.
    Profitable flows on real attacks (KRP/SBS quote legs) buy back at
    least what they sold, so they stay well clear of the ratio.
    """

    key = "MINT"
    defaults = {"min_dumps": 2, "max_buyback": 0.5}

    def match(self, trades, borrower, settings):
        cfg = self.config(settings)
        min_dumps = cfg["min_dumps"]
        max_buyback = cfg["max_buyback"]
        matches: "list[PatternMatch]" = []
        tokens = {t.token_sell for t in trades if t.buyer == borrower}
        for token in tokens:
            sells = [t for t in trades if t.buyer == borrower and t.token_sell == token]
            if len(sells) < min_dumps:
                continue
            buys = [t for t in trades if t.buyer == borrower and t.token_buy == token]
            total_sold = sum(t.amount_sell for t in sells)
            total_bought = sum(t.amount_buy for t in buys)
            if total_sold <= 0 or total_bought > total_sold * max_buyback:
                continue
            matches.append(
                _match(
                    self.key,
                    token,
                    tuple(sells),
                    (
                        ("n_dumps", len(sells)),
                        ("buyback_ratio", total_bought / total_sold),
                    ),
                )
            )
        return matches


# -- DONATION — single-round share-price inflation ----------------------------


class DonationInflation(PatternPlugin):
    """One mint/remove round of a share token at an outsized gain.

    The single-round analogue of MBS: manipulate a vault's pricing
    source, deposit while shares are cheap, withdraw the *same* share
    amount for >= ``min_gain`` more underlying than deposited. MBS
    needs three such rounds; donation-style attacks take the whole
    profit in one, which the round-count threshold never sees. Honest
    LP cycles and yield strategies round-trip at near-zero gain.
    """

    key = "DONATION"
    defaults = {"amount_tolerance": 0.001, "min_gain": 0.25}

    def match(self, trades, borrower, settings):
        cfg = self.config(settings)
        tol = cfg["amount_tolerance"]
        min_gain = cfg["min_gain"]
        matches: "list[PatternMatch]" = []
        deposits = [
            t
            for t in trades
            if t.buyer == borrower and t.kind is TradeKind.MINT_LIQUIDITY
        ]
        removals = [
            t
            for t in trades
            if t.buyer == borrower and t.kind is TradeKind.REMOVE_LIQUIDITY
        ]
        seen: set[Address] = set()
        for t1 in deposits:
            if t1.token_buy in seen:
                continue
            for t2 in removals:
                if t2.seq <= t1.seq:
                    continue
                if t2.token_sell != t1.token_buy or t2.token_buy != t1.token_sell:
                    continue  # not the same share/underlying pair
                if t1.seller != t2.seller:
                    continue
                big = max(t1.amount_buy, t2.amount_sell)
                if big == 0 or abs(t1.amount_buy - t2.amount_sell) / big > tol:
                    continue  # share amounts must round-trip
                if t1.amount_sell <= 0:
                    continue
                gain = (t2.amount_buy - t1.amount_sell) / t1.amount_sell
                if gain < min_gain:
                    continue
                seen.add(t1.token_buy)
                matches.append(
                    _match(
                        self.key,
                        t1.token_buy,
                        (t1, t2),
                        (
                            ("gain", gain),
                            ("deposit", float(t1.amount_sell)),
                        ),
                    )
                )
                break
        return matches


# -- registry -----------------------------------------------------------------


class PatternRegistry:
    """Ordered, keyed collection of pattern plugins."""

    def __init__(self, patterns: Sequence[Pattern], version: int = REGISTRY_VERSION):
        self.version = version
        self._patterns: dict[str, Pattern] = {}
        for pattern in patterns:
            if pattern.key in self._patterns:
                raise ValueError(f"duplicate pattern key {pattern.key!r}")
            self._patterns[pattern.key] = pattern

    def keys(self) -> tuple[str, ...]:
        return tuple(self._patterns)

    def get(self, key: str) -> Pattern:
        try:
            return self._patterns[key]
        except KeyError:
            raise KeyError(
                f"unknown pattern key {key!r}; registered: {sorted(self._patterns)}"
            ) from None

    def select(self, enabled: Sequence[str]) -> tuple[Pattern, ...]:
        """Plugins for the enabled keys, *in enabled order* (= match order)."""
        return tuple(self.get(key) for key in enabled)


_DEFAULT_REGISTRY = PatternRegistry(
    [
        KeepRaisingPrice(),
        SymmetricBuySell(),
        MultiRoundBuySell(),
        SandwichFrontrun(),
        InfiniteMint(),
        DonationInflation(),
    ]
)


def default_registry() -> PatternRegistry:
    return _DEFAULT_REGISTRY
