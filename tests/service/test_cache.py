"""TTL + LRU semantics of the service's results cache."""

from __future__ import annotations

import threading

import pytest

from repro.service.cache import TTLCache


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_put_get_roundtrip():
    cache = TTLCache(4)
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert cache.get("missing") is None
    assert cache.get("missing", "fallback") == "fallback"
    assert "a" in cache and "missing" not in cache
    assert len(cache) == 1


def test_lru_eviction_order():
    cache = TTLCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")  # refresh a's recency; b becomes LRU
    cache.put("c", 3)
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert cache.stats()["evictions"] == 1


def test_ttl_expiry_with_fake_clock():
    clock = FakeClock()
    cache = TTLCache(4, ttl=10.0, clock=clock)
    cache.put("a", 1)
    clock.advance(9.9)
    assert cache.get("a") == 1
    clock.advance(0.2)
    assert cache.get("a") is None
    assert cache.stats()["expirations"] == 1


def test_get_refreshes_recency_not_deadline():
    clock = FakeClock()
    cache = TTLCache(4, ttl=10.0, clock=clock)
    cache.put("a", 1)
    clock.advance(6.0)
    assert cache.get("a") == 1  # read does not reset the deadline
    clock.advance(6.0)
    assert cache.get("a") is None


def test_put_resets_deadline():
    clock = FakeClock()
    cache = TTLCache(4, ttl=10.0, clock=clock)
    cache.put("a", 1)
    clock.advance(6.0)
    cache.put("a", 2)
    clock.advance(6.0)
    assert cache.get("a") == 2


def test_purge_counts_expired_only():
    clock = FakeClock()
    cache = TTLCache(4, ttl=5.0, clock=clock)
    cache.put("old", 1)
    clock.advance(6.0)
    cache.put("fresh", 2)
    assert cache.purge() == 1
    assert cache.keys() == ["fresh"]


def test_pop_and_clear():
    cache = TTLCache(4)
    cache.put("a", 1)
    assert cache.pop("a") == 1
    assert cache.pop("a", "gone") == "gone"
    cache.put("b", 2)
    cache.clear()
    assert len(cache) == 0


def test_validation():
    with pytest.raises(ValueError, match="max_entries"):
        TTLCache(0)
    with pytest.raises(ValueError, match="ttl"):
        TTLCache(4, ttl=0)


def test_stats_shape():
    cache = TTLCache(2, ttl=60.0)
    cache.put("a", 1)
    cache.get("a")
    cache.get("b")
    stats = cache.stats()
    assert stats == {
        "entries": 1,
        "max_entries": 2,
        "ttl_s": 60.0,
        "hits": 1,
        "misses": 1,
        "evictions": 0,
        "expirations": 0,
    }


def test_concurrent_mutation_is_safe():
    cache = TTLCache(8)
    errors: list[Exception] = []

    def worker(base: int) -> None:
        try:
            for i in range(200):
                key = (base + i) % 12
                cache.put(key, i)
                cache.get(key)
                cache.get((key + 1) % 12)
        except Exception as exc:  # pragma: no cover - only on race
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(cache) <= 8


def test_pop_accounting_matches_get():
    """``hits + misses == lookups`` must hold across get *and* pop.

    Regression: ``pop`` used to bypass the counters entirely, so a
    pop-heavy caller read a hit rate computed over a fraction of its
    actual lookups.
    """
    clock = FakeClock()
    cache = TTLCache(4, ttl=10.0, clock=clock)
    cache.put("live", 1)
    cache.put("stale", 2)

    assert cache.pop("live") == 1          # live pop: a hit
    assert cache.pop("absent") is None     # absent pop: a miss
    clock.advance(11.0)
    assert cache.pop("stale", "d") == "d"  # expired pop: expiration + miss
    assert cache.get("also-absent") is None

    stats = cache.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 3
    assert stats["expirations"] == 1
    assert stats["hits"] + stats["misses"] == 4  # one per lookup above


def test_contains_is_a_pure_read():
    """``in`` never mutates the store nor any counter.

    Regression: ``__contains__`` used to delete expired entries and bump
    the expiration counter, so a membership probe raced concurrent
    ``get`` calls and double-counted expirations.
    """
    clock = FakeClock()
    cache = TTLCache(4, ttl=10.0, clock=clock)
    cache.put("a", 1)
    before = cache.stats()

    assert "a" in cache
    assert "missing" not in cache
    clock.advance(11.0)
    assert "a" not in cache      # expired reads as absent...
    assert len(cache) == 1       # ...but stays resident: no mutation
    assert cache.stats() == {**before, "entries": 1}

    # the entry is still reaped by the mutating paths, exactly once.
    assert cache.get("a") is None
    stats = cache.stats()
    assert stats["expirations"] == 1
    assert len(cache) == 0


def test_expired_entry_counted_once_across_probe_then_get():
    clock = FakeClock()
    cache = TTLCache(4, ttl=5.0, clock=clock)
    cache.put("k", 1)
    clock.advance(6.0)
    for _ in range(3):
        assert "k" not in cache  # probes must not stack expirations
    assert cache.pop("k") is None
    assert cache.stats()["expirations"] == 1
