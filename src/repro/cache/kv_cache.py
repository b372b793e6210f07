"""Point-lookup result cache (RocksDB row-cache analogue).

Stores ``key -> value`` pairs produced by point lookups.  Scans never
consult it — the paper's KV Cache baseline exists precisely to show
that a pure point-result cache is blind to range traffic.
"""

from __future__ import annotations

from repro.cache.base import BudgetedCache
from repro.lsm.options import ENTRY_CHARGE


class KVCache(BudgetedCache[str, str]):
    """Byte-budgeted LRU key-value result cache.

    Parameters
    ----------
    budget_bytes:
        Capacity.
    entry_charge:
        Logical bytes per entry (key + value size).
    """

    def __init__(self, budget_bytes: int, entry_charge: int = ENTRY_CHARGE) -> None:
        super().__init__(budget_bytes, entry_charge)

    def on_write(self, key: str, value: str) -> None:
        """Refresh a resident entry after an upstream put (stale otherwise)."""
        if key in self._data:
            self.put(key, value)

    def on_delete(self, key: str) -> None:
        """Invalidate after an upstream delete."""
        self.remove(key)
