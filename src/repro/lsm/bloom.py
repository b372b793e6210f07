"""Bloom filter for SSTable point-lookup pruning.

Standard k-hash bloom filter over a Python ``bytearray`` bit vector.
Hashing uses double hashing (Kirsch–Mitzenmacher) on top of two salted
FNV-1a digests, which keeps construction fast and dependency-free while
giving the usual ``(1 - e^{-kn/m})^k`` false-positive behaviour.

FNV-1a is a left fold over bytes, so ``fnv1a(P + S, salt)`` is
:func:`fnv1a_from` over ``S`` started from ``fnv1a(P, salt)``.  A built
filter stores its keys' common prefix and both salts' states after it;
every key of an SSTable, and every probe that passes the table's
``first_key``/``last_key`` range check, starts with that prefix, so
builds and probes fold only the suffix (about 4 of 24 bytes on the
benchmark workloads).  A probe key without the prefix folds in full.
The digests, and so every bit, are those of the full key.

The paper enables 10 bits per key, which it treats as "FPR close to
zero" in the reward model; :func:`theoretical_fpr` exposes the analytic
rate so tests can validate the measured one against it.
"""

from __future__ import annotations

import math
import os
from typing import List, Sequence

import numpy as np

from repro.errors import InvariantError

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

#: Golden-ratio mix distinguishing a filter's second base hash; shared
#: with batch callers that precompute digests (see ``fnv1a_batch_multi``).
GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def fnv1a_from(h: int, data: bytes) -> int:  # hot-path
    """Continue a 64-bit FNV-1a fold from state ``h`` over ``data``."""
    prime = _FNV_PRIME
    mask = _MASK64
    for byte in data:
        h = ((h ^ byte) * prime) & mask
    return h


def fnv1a(data: bytes, salt: int = 0) -> int:
    """Public 64-bit salted FNV-1a hash (shared by sketches and shards)."""
    return fnv1a_from((_FNV_OFFSET ^ salt) & _MASK64, data)


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

    __slots__ = (
        "_bits", "_num_bits", "_num_hashes", "_seed", "bits_per_key",
        "_prefix", "_state1", "_state2",
    )

    def __init__(self, num_keys: int, bits_per_key: int = 10, seed: int = 0) -> None:
        self.bits_per_key = bits_per_key
        self._seed = seed
        self._num_hashes = optimal_num_hashes(bits_per_key)
        num_bits = max(64, num_keys * bits_per_key) if bits_per_key > 0 else 0
        self._num_bits = num_bits
        self._bits = bytearray((num_bits + 7) // 8) if num_bits else bytearray()
        # The keys' common prefix and the two salts' FNV-1a states after it.
        self._prefix = ""
        self._state1 = fnv1a(b"", seed)
        self._state2 = fnv1a(b"", seed ^ GOLDEN_GAMMA)

    @classmethod
    def build(
        cls, keys: Sequence[str], bits_per_key: int = 10, seed: int = 0
    ) -> "BloomFilter":
        """Build a filter sized for and populated with ``keys``.

        Stores the keys' common prefix (``os.path.commonprefix`` compares
        only the least and greatest key) and both states after it, then
        folds every key's suffix from those states in one
        :func:`fnv1a_batch_multi` pass, derives all k probe positions in
        one broadcast and sets the bits with one ``np.packbits``.  Below
        four keys a per-key scalar loop is up to 13 µs faster, but
        under 2 % of builds are that small on any benchmark workload, so
        there is one path (see ``docs/performance.md``).
        """
        n = len(keys)
        bloom = cls(n, bits_per_key=bits_per_key, seed=seed)
        num_bits = bloom._num_bits
        if not num_bits or n == 0:
            return bloom
        prefix = os.path.commonprefix(keys)
        head = prefix.encode("utf-8")
        bloom._prefix = prefix
        bloom._state1 = state1 = fnv1a(head, seed)
        bloom._state2 = state2 = fnv1a(head, seed ^ GOLDEN_GAMMA)
        cut = len(prefix)
        datas = [key[cut:].encode("utf-8") for key in keys]
        # The salt ``state ^ _FNV_OFFSET`` starts the fold at ``state``.
        digests = fnv1a_batch_multi(datas, [state1 ^ _FNV_OFFSET, state2 ^ _FNV_OFFSET])
        # Probe i sits at (h1 + i*h2) % m; uint64 wraps like the probe's
        # & _MASK64, so this equals the probe's running sum.
        steps = np.arange(bloom._num_hashes, dtype=np.uint64)[:, None]
        hit = np.zeros(num_bits, dtype=bool)
        hit[(digests[0] + steps * (digests[1] | np.uint64(1))) % np.uint64(num_bits)] = True
        bloom._bits = bytearray(np.packbits(hit, bitorder="little"))
        return bloom

    def may_contain(self, key: str) -> bool:  # hot-path
        """Return False only if ``key`` is definitely absent.

        A key with the stored prefix folds only its suffix; ``h2`` is
        folded only after the first bit test passes.
        """
        num_bits = self._num_bits
        if not num_bits:
            return True
        prefix = self._prefix
        if key.startswith(prefix):
            data = key[len(prefix) :].encode("utf-8")
            state1 = self._state1
            state2 = self._state2
        else:  # fold the whole key from the salts' bases, as fnv1a does
            data = key.encode("utf-8")
            state1 = (_FNV_OFFSET ^ self._seed) & _MASK64
            state2 = (_FNV_OFFSET ^ self._seed ^ GOLDEN_GAMMA) & _MASK64
        h1 = fnv1a_from(state1, data)
        bits = self._bits
        pos = h1 % num_bits
        if not bits[pos >> 3] & (1 << (pos & 7)):
            return False
        h2 = fnv1a_from(state2, data) | 1
        for _ in range(self._num_hashes - 1):
            h1 = (h1 + h2) & _MASK64
            pos = h1 % num_bits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
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

    def check_invariants(self, first_key: str, last_key: str) -> None:
        """The prefix starts both bounding keys; the states are its digests."""
        prefix = self._prefix
        if not (first_key.startswith(prefix) and last_key.startswith(prefix)):
            raise InvariantError(
                f"BloomFilter: prefix {prefix!r} does not start key range "
                f"[{first_key!r}..{last_key!r}]"
            )
        head = prefix.encode("utf-8")
        for name, state, salt in (
            ("state1", self._state1, self._seed),
            ("state2", self._state2, self._seed ^ GOLDEN_GAMMA),
        ):
            if state != fnv1a(head, salt):
                raise InvariantError(
                    f"BloomFilter: {name} {state:#x} is not the FNV-1a state "
                    f"after prefix {prefix!r} ({fnv1a(head, salt):#x})"
                )

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
