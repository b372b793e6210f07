"""KV (row) cache: point results only, write coherence."""

from __future__ import annotations

from repro.cache.kv_cache import KVCache


class TestKVCache:
    def test_put_get(self):
        c = KVCache(4096, entry_charge=1024)
        c.put("a", "1")
        assert c.get("a") == "1"
        assert c.get("b") is None

    def test_budget_in_entries(self):
        c = KVCache(2048, entry_charge=1024)
        for k in "abc":
            c.put(k, k)
        assert len(c) == 2
        assert c.used_bytes <= c.budget_bytes

    def test_on_write_refreshes_resident_only(self):
        c = KVCache(4096)
        c.put("a", "old")
        c.on_write("a", "new")
        c.on_write("not-cached", "x")
        assert c.get("a") == "new"
        assert c.get("not-cached") is None

    def test_on_delete_invalidates(self):
        c = KVCache(4096)
        c.put("a", "1")
        c.on_delete("a")
        assert c.get("a") is None
        assert c.stats.invalidations == 1

    def test_contains_no_stats(self):
        c = KVCache(4096)
        c.put("a", "1")
        assert "a" in c and "b" not in c
        assert c.stats.lookups == 0

    def test_resize(self):
        c = KVCache(4096, entry_charge=1024)
        for k in "abcd":
            c.put(k, k)
        c.resize(1024)
        assert len(c) == 1
        assert c.budget_bytes == 1024

    def test_occupancy(self):
        c = KVCache(2048, entry_charge=1024)
        c.put("a", "1")
        assert c.occupancy == 0.5
