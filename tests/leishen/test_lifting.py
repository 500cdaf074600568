"""Differential fuzz of transfer simplification and trade identification.

:class:`TransferSimplifier` and :class:`TradeIdentifier` evaluate their
rules row by row. This file restates the same rules column-wise, as
numpy masks over interned tag/token codes, and requires the two
formulations to agree exactly on randomized transfer batches (huge int
amounts, boundary tolerances, BlackHole/WETH/None tags). Amount
comparisons (merge tolerance, fee-burn ratio) stay on the original
Python ints, because token amounts overflow int64.

The column-wise reference exists only here as a test oracle; the
package itself never imports numpy.
"""

from __future__ import annotations

import random

import pytest

from repro.chain import Address, ETHER
from repro.leishen import (
    AppTransfer,
    BLACKHOLE_TAG,
    SimplifierConfig,
    TaggedTransfer,
    TradeIdentifier,
    TransferSimplifier,
)
from repro.leishen.trades import Trade, TradeKind

np = pytest.importorskip("numpy")

WETH_TOKEN = Address("0x" + "ee" * 20)
TOKENS = (ETHER, WETH_TOKEN, *(Address("0x" + f"{i:02x}" * 20) for i in (1, 2, 3)))
TAGS = (None, "A", "B", "Kyber", "Uniswap", "Wrapped Ether", BLACKHOLE_TAG)
ACCT = Address("0x" + "99" * 20)
CONFIG = SimplifierConfig(weth_tokens=frozenset({WETH_TOKEN}))
#: batch-size scale of the fuzz inputs.
ROWS = 32
#: interner codes: ``None`` and "never seen in this batch" (matches nothing).
NONE_CODE, ABSENT_CODE = -1, -2


def random_tagged(rng: random.Random, n: int) -> list[TaggedTransfer]:
    rows = []
    for seq in range(n):
        # amounts span int64-overflowing token units and tiny dust, with
        # occasional near-duplicates of the previous amount to land in
        # (and just outside) the merge tolerance / fee-burn ratio.
        if rows and rng.random() < 0.3:
            base = rows[-1].amount
            amount = max(1, base + rng.choice((0, 1, -1, base // 1000, base // 4)))
        else:
            amount = rng.choice((1, 7, 10**3, 10**18, 3 * 10**26))
        rows.append(
            TaggedTransfer(
                seq=seq,
                tag_sender=rng.choice(TAGS),
                tag_receiver=rng.choice(TAGS),
                amount=amount,
                token=rng.choice(TOKENS),
                sender=ACCT,
                receiver=ACCT,
            )
        )
    return rows


def to_app(rows: list[TaggedTransfer]) -> list[AppTransfer]:
    return [
        AppTransfer(
            seq=row.seq, sender=row.tag_sender, receiver=row.tag_receiver,
            amount=row.amount, token=row.token,
        )
        for row in rows
    ]


# -- column-wise reference ------------------------------------------------


def lift(triples):
    """Intern ``(sender, receiver, token)`` triples into three code
    arrays plus the tag table (senders and receivers share one)."""
    tags: dict = {}
    tokens: dict = {}

    def tag_code(tag):
        return NONE_CODE if tag is None else tags.setdefault(tag, len(tags))

    columns = [
        (tag_code(s), tag_code(r), tokens.setdefault(t, len(tokens)))
        for s, r, t in triples
    ]
    senders, receivers, token_codes = np.array(columns, dtype=np.int64).reshape(-1, 3).T
    return senders, receivers, token_codes, tags


def within_tolerance(first: int, second: int) -> bool:
    big = max(first, second)
    return big != 0 and abs(first - second) / big <= CONFIG.merge_tolerance


def reference_simplify(rows: list[TaggedTransfer]) -> list[AppTransfer]:
    s, r, _, tags = lift([(t.tag_sender, t.tag_receiver, t.token) for t in rows])
    weth = tags.get(CONFIG.weth_tag, ABSENT_CODE)
    keep = ~((s != NONE_CODE) & (s == r)) & (s != weth) & (r != weth)
    out = [
        AppTransfer(
            t.seq, t.tag_sender, t.tag_receiver, t.amount,
            ETHER if t.token in CONFIG.weth_tokens else t.token,
        )
        for t, kept in zip(rows, keep.tolist())
        if kept
    ]
    return reference_merge(out)


def reference_merge(transfers: list[AppTransfer]) -> list[AppTransfer]:
    while len(transfers) >= 2:
        s, r, tok, _ = lift([(t.sender, t.receiver, t.token) for t in transfers])
        hop = (
            (tok[:-1] == tok[1:])
            & (r[:-1] != NONE_CODE)
            & (r[:-1] == s[1:])
            & (r[:-1] != s[:-1])
            & (r[:-1] != r[1:])
        ).tolist()
        merged: list[AppTransfer] = []
        i = 0
        while i < len(transfers):
            first = transfers[i]
            if i + 1 < len(transfers) and hop[i]:
                second = transfers[i + 1]
                if within_tolerance(first.amount, second.amount):
                    merged.append(
                        AppTransfer(
                            first.seq, first.sender, second.receiver,
                            second.amount, first.token,
                        )
                    )
                    i += 2
                    continue
            merged.append(first)
            i += 1
        if len(merged) == len(transfers):
            break
        transfers = [t for t in merged if t.sender is None or t.sender != t.receiver]
    return transfers


SWAP2, MINT2, MINT2_REV, REMOVE2, REMOVE2_REV = 1, 2, 3, 4, 5
SWAP3, MINT3, REMOVE3 = 1, 2, 3


def shape_codes(s, r, tok, bh):
    """Table III shape of the 2- and 3-window at every start index;
    ``np.select`` keeps the first matching condition, i.e. the object
    path's match priority."""
    n = len(s)
    shape2 = np.zeros(n, dtype=np.int64)
    shape3 = np.zeros(n, dtype=np.int64)
    known = (s != NONE_CODE) & (r != NONE_CODE)
    if n >= 2:
        s1, r1, t1 = s[:-1], r[:-1], tok[:-1]
        s2, r2, t2 = s[1:], r[1:], tok[1:]
        base = known[:-1] & known[1:] & (t1 != t2)
        shape2[:-1] = np.select(
            [
                base & (s1 == r2) & (r1 == s2) & (s1 != bh) & (r1 != bh),
                base & (s2 == bh) & (r2 == s1) & (r1 != bh) & (s1 != bh),
                base & (s1 == bh) & (r1 == s2) & (r2 != bh) & (s2 != bh),
                base & (r1 == bh) & (r2 == s1) & (s1 != bh) & (s2 != bh),
                base & (r2 == bh) & (r1 == s2) & (s2 != bh) & (s1 != bh),
            ],
            [SWAP2, MINT2, MINT2_REV, REMOVE2, REMOVE2_REV],
        )
    if n >= 3:
        s1, r1, t1 = s[:-2], r[:-2], tok[:-2]
        s2, r2, t2 = s[1:-1], r[1:-1], tok[1:-1]
        s3, r3, t3 = s[2:], r[2:], tok[2:]
        base = (
            known[:-2] & known[1:-1] & known[2:]
            & (t1 != t2) & (t1 != t3) & (t2 != t3)
        )
        shape3[:-2] = np.select(
            [
                base & (s1 == r2) & (r2 == r3) & (r1 == s2) & (s2 == s3)
                & (s1 != bh) & (r1 != bh),
                base & (s1 == s2) & (s1 == r3) & (r1 == r2) & (s3 == bh)
                & (s1 != bh) & (r1 != bh),
                base & (r1 == bh) & (r2 == s1) & (r3 == s1) & (s2 == s3)
                & (s1 != bh) & (s2 != bh),
            ],
            [SWAP3, MINT3, REMOVE3],
        )
    return shape2, shape3


def build2(shape: int, t1: AppTransfer, t2: AppTransfer) -> Trade:
    if shape == SWAP2:
        return Trade(
            seq=t1.seq, kind=TradeKind.SWAP, buyer=t1.sender, seller=t1.receiver,
            amount_sell=t1.amount, token_sell=t1.token,
            amount_buy=t2.amount, token_buy=t2.token,
        )
    if shape in (MINT2, MINT2_REV):
        deposit, minted = (t1, t2) if shape == MINT2 else (t2, t1)
        return Trade(
            seq=min(t1.seq, t2.seq), kind=TradeKind.MINT_LIQUIDITY,
            buyer=deposit.sender, seller=deposit.receiver,
            amount_sell=deposit.amount, token_sell=deposit.token,
            amount_buy=minted.amount, token_buy=minted.token,
        )
    burned, payout = (t1, t2) if shape == REMOVE2 else (t2, t1)
    return Trade(
        seq=min(t1.seq, t2.seq), kind=TradeKind.REMOVE_LIQUIDITY,
        buyer=burned.sender, seller=payout.sender,
        amount_sell=burned.amount, token_sell=burned.token,
        amount_buy=payout.amount, token_buy=payout.token,
    )


def build3(shape: int, t1: AppTransfer, t2: AppTransfer, t3: AppTransfer) -> Trade:
    kind = {
        SWAP3: TradeKind.SWAP,
        MINT3: TradeKind.MINT_LIQUIDITY,
        REMOVE3: TradeKind.REMOVE_LIQUIDITY,
    }[shape]
    bought, extra = (t3, t2) if shape == MINT3 else (t2, t3)
    return Trade(
        seq=t1.seq, kind=kind, buyer=t1.sender,
        seller=t2.sender if shape == REMOVE3 else t1.receiver,
        amount_sell=t1.amount, token_sell=t1.token,
        amount_buy=bought.amount, token_buy=bought.token,
        extra_legs=((extra.token, extra.amount),),
    )


def reference_identify(transfers: list[AppTransfer]) -> list[Trade]:
    s, r, tok, tags = lift([(t.sender, t.receiver, t.token) for t in transfers])
    bh = tags.get(BLACKHOLE_TAG, ABSENT_CODE)
    burn = np.zeros(len(transfers), dtype=bool)
    burn[1:] = (
        (r[1:] == bh)
        & (tok[1:] == tok[:-1])
        & ((s[1:] == s[:-1]) | (s[1:] == r[:-1]))
    )
    for idx in np.nonzero(burn)[0].tolist():
        ratio = TradeIdentifier.FEE_BURN_RATIO
        burn[idx] = transfers[idx].amount <= transfers[idx - 1].amount * ratio
    kept = np.nonzero(~burn)[0]
    transfers = [transfers[i] for i in kept.tolist()]
    shape2, shape3 = shape_codes(s[kept], r[kept], tok[kept], bh)
    trades: list[Trade] = []
    i = 0
    while i < len(transfers):
        if shape3[i]:
            trades.append(build3(int(shape3[i]), *transfers[i : i + 3]))
            i += 3
        elif shape2[i]:
            trades.append(build2(int(shape2[i]), *transfers[i : i + 2]))
            i += 2
        else:
            i += 1
    return trades


# -- equality -------------------------------------------------------------


class TestSimplifyEquality:
    @pytest.mark.parametrize("seed", range(25))
    def test_vector_matches_object_path(self, seed):
        rng = random.Random(seed)
        rows = random_tagged(rng, rng.randrange(0, 3 * ROWS))
        assert reference_simplify(rows) == TransferSimplifier(CONFIG).simplify(rows)


class TestIdentifyEquality:
    @pytest.mark.parametrize("seed", range(25))
    def test_vector_matches_object_path(self, seed):
        rng = random.Random(2000 + seed)
        transfers = to_app(random_tagged(rng, rng.randrange(0, 3 * ROWS)))
        assert reference_identify(transfers) == TradeIdentifier().identify(transfers)

    @pytest.mark.parametrize("seed", range(10))
    def test_full_pipeline_equality(self, seed):
        # simplify -> identify, both stages on each path, end to end.
        rng = random.Random(3000 + seed)
        rows = random_tagged(rng, rng.randrange(4, 2 * ROWS))
        via_reference = reference_identify(reference_simplify(rows))
        via_object = TradeIdentifier().identify(
            TransferSimplifier(CONFIG).simplify(rows)
        )
        assert via_reference == via_object
