"""Bloom filter for SSTable point-lookup pruning.

Standard k-hash bloom filter over a Python ``bytearray`` bit vector.
Hashing uses double hashing (Kirsch–Mitzenmacher) on top of two salted
FNV-1a digests, which keeps construction fast and dependency-free while
giving the usual ``(1 - e^{-kn/m})^k`` false-positive behaviour.

The paper enables 10 bits per key, which it treats as "FPR close to
zero" in the reward model; :func:`theoretical_fpr` exposes the analytic
rate so tests can validate the measured one against it.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence

import numpy as np

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

#: Golden-ratio mix distinguishing a filter's second base hash; shared
#: with batch callers that precompute digests (see ``fnv1a_batch_multi``).
GOLDEN_GAMMA = 0x9E3779B97F4A7C15

#: Batches at or below this size take the scalar hash loop — numpy's
#: fixed per-call overhead beats its per-key savings under ~8 keys.
_SCALAR_BATCH_MAX = 7


def _fnv1a(data: bytes, salt: int) -> int:  # hot-path
    """64-bit FNV-1a hash of ``data`` seeded with ``salt``."""
    h = (_FNV_OFFSET ^ salt) & _MASK64
    prime = _FNV_PRIME
    mask = _MASK64
    for byte in data:
        h = ((h ^ byte) * prime) & mask
    return h


def fnv1a(data: bytes, salt: int = 0) -> int:
    """Public 64-bit salted FNV-1a hash (shared by sketches and shards)."""
    return _fnv1a(data, salt)


def fnv1a_batch_multi(
    datas: Sequence[bytes], salts: Sequence[int]
) -> "np.ndarray":  # hot-path
    """Salted FNV-1a of every input under every salt in one 2D pass.

    Returns a ``(len(salts), len(datas))`` uint64 array where
    ``out[j][i] == fnv1a(datas[i], salts[j])`` exactly.  Because the
    salt only perturbs the hash basis, one fold loop over byte
    positions serves every salt simultaneously — the numpy xor/multiply
    broadcasts over the whole salts x inputs matrix, amortizing numpy's
    per-call overhead across every salt (or bloom filter) at once.
    """
    m, n = len(salts), len(datas)
    if m == 0 or n == 0:
        return np.empty((m, n), dtype=np.uint64)
    basis = np.uint64(_FNV_OFFSET) ^ np.asarray(salts, dtype=np.uint64)
    h = np.repeat(basis[:, None], n, axis=1)
    lengths = [len(d) for d in datas]
    max_len = max(lengths)
    if max_len == 0:
        return h
    min_len = min(lengths)
    if min_len == max_len:
        buf = (
            np.frombuffer(b"".join(datas), dtype=np.uint8)
            .reshape(n, max_len)
            .astype(np.uint64)
        )
        lens = None
    else:
        buf = np.zeros((n, max_len), dtype=np.uint64)
        for i, data in enumerate(datas):
            if data:
                buf[i, : len(data)] = np.frombuffer(data, dtype=np.uint8)
        lens = np.asarray(lengths, dtype=np.int64)
    prime = np.uint64(_FNV_PRIME)
    for pos in range(max_len):
        col = buf[:, pos]
        if lens is None or pos < min_len:
            h = (h ^ col) * prime
        else:
            h = np.where(lens > pos, (h ^ col) * prime, h)
    return h


def optimal_num_hashes(bits_per_key: int) -> int:
    """Optimal number of hash functions for a given bits-per-key budget."""
    if bits_per_key <= 0:
        return 0
    return max(1, round(bits_per_key * math.log(2)))


def theoretical_fpr(bits_per_key: int) -> float:
    """Analytic false-positive rate for the optimal hash count."""
    if bits_per_key <= 0:
        return 1.0
    k = optimal_num_hashes(bits_per_key)
    return (1.0 - math.exp(-k / bits_per_key)) ** k


class BloomFilter:
    """Immutable-after-build bloom filter keyed by string keys.

    Parameters
    ----------
    num_keys:
        Expected number of keys; sizes the bit vector.
    bits_per_key:
        Memory budget.  ``0`` disables the filter (every probe returns
        "maybe present").
    seed:
        Salt mixed into both base hashes, so different trees don't share
        collision patterns.
    """

    __slots__ = ("_bits", "_num_bits", "_num_hashes", "_seed", "bits_per_key")

    def __init__(self, num_keys: int, bits_per_key: int = 10, seed: int = 0) -> None:
        self.bits_per_key = bits_per_key
        self._seed = seed
        self._num_hashes = optimal_num_hashes(bits_per_key)
        num_bits = max(64, num_keys * bits_per_key) if bits_per_key > 0 else 0
        self._num_bits = num_bits
        self._bits = bytearray((num_bits + 7) // 8) if num_bits else bytearray()

    @classmethod
    def build(
        cls, keys: Iterable[str], bits_per_key: int = 10, seed: int = 0
    ) -> "BloomFilter":
        """Build a filter sized for and populated with ``keys``.

        Population is vectorized: both base digests for every key come
        from one :func:`fnv1a_batch_multi` pass and the k probe
        positions from k numpy ops over the batch, so flush and
        compaction pay one fold loop per SSTable instead of two Python
        hash loops per key.  Bits are a set-union, so ordering is
        irrelevant — the filter is bit-identical to scalar :meth:`add`
        calls.
        """
        key_list = list(keys)
        bloom = cls(len(key_list), bits_per_key=bits_per_key, seed=seed)
        n = len(key_list)
        num_bits = bloom._num_bits
        if not num_bits or n == 0:
            return bloom
        if n <= _SCALAR_BATCH_MAX:
            for key in key_list:
                bloom.add(key)
            return bloom
        datas = [key.encode("utf-8") for key in key_list]
        digests = fnv1a_batch_multi(datas, [seed, seed ^ GOLDEN_GAMMA])
        h1 = digests[0]
        h2 = digests[1] | np.uint64(1)
        nb = np.uint64(num_bits)
        num_hashes = bloom._num_hashes
        pos = np.empty((num_hashes, n), dtype=np.uint64)
        for i in range(num_hashes):
            pos[i] = h1 % nb
            h1 = h1 + h2  # uint64 wrap == the scalar path's & _MASK64
        bits = bloom._bits
        for p in pos.reshape(-1).tolist():  # plain ints (PERF001)
            bits[p >> 3] |= 1 << (p & 7)
        return bloom

    def add(self, key: str) -> None:  # hot-path
        """Insert ``key`` into the filter."""
        num_bits = self._num_bits
        if not num_bits:
            return
        data = key.encode("utf-8")
        seed = self._seed
        h1 = _fnv1a(data, seed)
        h2 = _fnv1a(data, seed ^ 0x9E3779B97F4A7C15) | 1
        bits = self._bits
        pos = h1 % num_bits
        for _ in range(self._num_hashes):
            bits[pos >> 3] |= 1 << (pos & 7)
            h1 = (h1 + h2) & _MASK64
            pos = h1 % num_bits

    def may_contain(self, key: str) -> bool:  # hot-path
        """Return False only if ``key`` is definitely absent."""
        num_bits = self._num_bits
        if not num_bits:
            return True
        data = key.encode("utf-8")
        seed = self._seed
        h1 = _fnv1a(data, seed)
        h2 = _fnv1a(data, seed ^ 0x9E3779B97F4A7C15) | 1
        bits = self._bits
        pos = h1 % num_bits
        for _ in range(self._num_hashes):
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
            h1 = (h1 + h2) & _MASK64
            pos = h1 % num_bits
        return True

    def may_contain_hashed(self, h1: int, h2: int) -> bool:  # hot-path
        """:meth:`may_contain` from precomputed base digests.

        ``h1`` and ``h2`` are the key's two salted FNV-1a digests
        (salts ``seed`` and ``seed ^ GOLDEN_GAMMA``, as plain ints).
        Batch callers compute digests for many (key, filter) pairs in
        one :func:`fnv1a_batch_multi` pass and leave only the bit
        tests here; the result is bit-identical to ``may_contain(key)``.
        """
        num_bits = self._num_bits
        if not num_bits:
            return True
        h2 |= 1
        bits = self._bits
        pos = h1 % num_bits
        for _ in range(self._num_hashes):
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
            h1 = (h1 + h2) & _MASK64
            pos = h1 % num_bits
        return True

    def may_contain_batch(self, keys: Sequence[str]) -> List[bool]:
        """Per-key :meth:`may_contain` (batched callers hash through
        :func:`fnv1a_batch_multi` and :meth:`may_contain_hashed`)."""
        return [self.may_contain(key) for key in keys]

    def __contains__(self, key: str) -> bool:
        return self.may_contain(key)

    @property
    def seed(self) -> int:
        """The salt mixed into both base hashes (digest precompute key)."""
        return self._seed

    @property
    def size_bytes(self) -> int:
        """Size of the bit vector in bytes."""
        return len(self._bits)

    @property
    def num_hashes(self) -> int:
        """Number of hash probes per key."""
        return self._num_hashes
