"""Bloom filter: no false negatives, bounded false positives, and
prefix-resumed hashing bit-identical to full-key digests."""

from __future__ import annotations

import os

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lsm.bloom import (
    GOLDEN_GAMMA,
    BloomFilter,
    fnv1a,
    fnv1a_batch_multi,
    optimal_num_hashes,
    theoretical_fpr,
)
from repro.workloads.keys import key_of

MASK64 = (1 << 64) - 1


def reference_bits(keys, bits_per_key, seed):
    """The filter's bit vector, filled key by key from full-key digests."""
    shape = BloomFilter(len(keys), bits_per_key=bits_per_key, seed=seed)
    num_bits = shape._num_bits
    bits = bytearray(len(shape._bits))
    if not num_bits:
        return bits
    for key in keys:
        data = key.encode("utf-8")
        h1 = fnv1a(data, seed)
        h2 = fnv1a(data, seed ^ GOLDEN_GAMMA) | 1
        for _ in range(shape.num_hashes):
            pos = h1 % num_bits
            bits[pos >> 3] |= 1 << (pos & 7)
            h1 = (h1 + h2) & MASK64
    return bits


def reference_probe(bloom, key):
    """``may_contain`` from the key's full-key digests and the bit vector."""
    num_bits = bloom._num_bits
    if not num_bits:
        return True
    data = key.encode("utf-8")
    h1 = fnv1a(data, bloom.seed)
    h2 = fnv1a(data, bloom.seed ^ GOLDEN_GAMMA) | 1
    for _ in range(bloom.num_hashes):
        pos = h1 % num_bits
        if not bloom._bits[pos >> 3] & (1 << (pos & 7)):
            return False
        h1 = (h1 + h2) & MASK64
    return True


class TestConstruction:
    def test_build_sizes_for_keys(self):
        bloom = BloomFilter.build([f"k{i}" for i in range(100)], bits_per_key=10)
        assert bloom.size_bytes >= 100 * 10 // 8

    def test_zero_bits_disables_filter(self):
        bloom = BloomFilter(100, bits_per_key=0)
        assert bloom.may_contain("anything")
        assert bloom.size_bytes == 0

    def test_num_hashes_optimal(self):
        assert optimal_num_hashes(10) == 7
        assert optimal_num_hashes(0) == 0
        assert optimal_num_hashes(1) == 1

    def test_theoretical_fpr_10_bits_is_small(self):
        assert theoretical_fpr(10) < 0.01
        assert theoretical_fpr(0) == 1.0


class TestMembership:
    def test_no_false_negatives(self):
        keys = [f"key{i:05d}" for i in range(500)]
        bloom = BloomFilter.build(keys, bits_per_key=10)
        assert all(k in bloom for k in keys)

    def test_false_positive_rate_near_theory(self):
        keys = [f"key{i:05d}" for i in range(2000)]
        bloom = BloomFilter.build(keys, bits_per_key=10, seed=3)
        absent = [f"absent{i:05d}" for i in range(5000)]
        fp = sum(1 for k in absent if k in bloom)
        measured = fp / len(absent)
        assert measured < 3 * max(theoretical_fpr(10), 1e-3)

    def test_different_seeds_differ(self):
        keys = [f"k{i}" for i in range(200)]
        b1 = BloomFilter.build(keys, bits_per_key=8, seed=1)
        b2 = BloomFilter.build(keys, bits_per_key=8, seed=2)
        probes = [f"q{i}" for i in range(2000)]
        r1 = [p in b1 for p in probes]
        r2 = [p in b2 for p in probes]
        assert r1 != r2  # collision patterns must not be shared


class TestHash:
    def test_fnv1a_deterministic(self):
        assert fnv1a(b"abc", 1) == fnv1a(b"abc", 1)

    def test_fnv1a_salt_changes_hash(self):
        assert fnv1a(b"abc", 1) != fnv1a(b"abc", 2)

    def test_fnv1a_fits_64_bits(self):
        assert 0 <= fnv1a(b"x" * 100, 7) < (1 << 64)

    def test_fnv1a_is_stable(self):
        # Known-answer: FNV-1a 64 of the empty string is the offset basis.
        # Shard placement hashes keys with this function.
        assert fnv1a("".encode("utf-8")) == 0xCBF29CE484222325
        assert fnv1a("a".encode("utf-8")) == 0xAF63DC4C8601EC8C


@settings(max_examples=50, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=30), min_size=1, max_size=50, unique=True))
def test_property_inserted_keys_always_found(keys):
    bloom = BloomFilter.build(keys, bits_per_key=10)
    assert all(bloom.may_contain(k) for k in keys)


class TestBatchHashing:
    def test_fnv1a_batch_multi_equals_scalar_grid(self):
        datas = [f"key-{i}".encode() for i in range(11)]
        salts = [0, 7, GOLDEN_GAMMA]
        matrix = fnv1a_batch_multi(datas, salts).tolist()
        for j, salt in enumerate(salts):
            for i, data in enumerate(datas):
                assert matrix[j][i] == fnv1a(data, salt)

    def test_fnv1a_batch_multi_ragged_lengths(self):
        datas = [b"", b"a", b"abcdefghij" * 4, b"xy"]
        salts = [3, 4]
        matrix = fnv1a_batch_multi(datas, salts).tolist()
        for j, salt in enumerate(salts):
            assert matrix[j] == [fnv1a(d, salt) for d in datas]

    def test_fnv1a_batch_multi_empty(self):
        assert fnv1a_batch_multi([], [1]).shape == (1, 0)
        assert fnv1a_batch_multi([b"a"], []).shape == (0, 1)


class TestBatchProbing:
    def test_may_contain_batch_equals_scalar(self):
        keys = [f"k{i}" for i in range(60)]
        bloom = BloomFilter.build(keys[:30], bits_per_key=10, seed=5)
        probes = keys + [f"other-{i}" for i in range(40)]
        assert bloom.may_contain_batch(probes) == [
            bloom.may_contain(k) for k in probes
        ]

    def test_may_contain_hashed_equals_may_contain(self):
        bloom = BloomFilter.build([f"k{i}" for i in range(25)], seed=9)
        seed = bloom.seed
        for key in [f"k{i}" for i in range(25)] + ["absent-a", "absent-b"]:
            data = key.encode("utf-8")
            h1 = fnv1a(data, seed)
            h2 = fnv1a(data, seed ^ GOLDEN_GAMMA)
            assert bloom.may_contain_hashed(h1, h2) == bloom.may_contain(key)

    def test_vectorized_build_is_bit_identical_to_scalar_adds(self):
        keys = [f"key-{i:04d}" for i in range(100)]
        built = BloomFilter.build(keys, bits_per_key=10, seed=4)
        assert built._bits == reference_bits(keys, 10, 4)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.text(min_size=0, max_size=24), min_size=8, max_size=40),
    st.integers(min_value=0, max_value=2**32),
)
def test_property_batch_probe_equals_scalar(keys, seed):
    """The batched probe (one ``fnv1a_batch_multi`` digest pass, then
    ``may_contain_hashed``) matches the scalar probe for arbitrary keys."""
    bloom = BloomFilter.build(keys[: len(keys) // 2], bits_per_key=8, seed=seed)
    datas = [k.encode("utf-8") for k in keys]
    h1, h2 = fnv1a_batch_multi(datas, [bloom.seed, bloom.seed ^ GOLDEN_GAMMA]).tolist()
    assert [bloom.may_contain_hashed(a, b) for a, b in zip(h1, h2)] == [
        bloom.may_contain(k) for k in keys
    ]


# -- prefix-resumed hashing against the full-key oracle ------------------------

#: Workload keys over a range: a long shared prefix, a few varying digits.
workload_keys = st.builds(
    lambda start, n, step: [key_of(start + i * step) for i in range(n)],
    st.integers(min_value=0, max_value=10**12),
    st.integers(min_value=1, max_value=80),
    st.integers(min_value=1, max_value=5000),
)
#: Multi-byte UTF-8 keys around a shared stem (either may be empty).
utf8_keys = st.builds(
    lambda stem, tails: [stem + tail for tail in tails],
    st.text(alphabet="aé中𝄞", max_size=5),
    st.lists(st.text(alphabet="aé中𝄞z", max_size=4), min_size=1, max_size=30),
)
#: Builds of one to seven keys of either kind.
small_keys = st.lists(
    st.one_of(st.text(max_size=6), st.builds(key_of, st.integers(0, 10**6))),
    min_size=1,
    max_size=7,
)
key_sets = st.one_of(workload_keys, utf8_keys, small_keys)


def probes_around(keys):
    """The keys, plus probes inside, outside and straddling their prefix."""
    prefix = os.path.commonprefix(keys)
    probes = list(keys) + ["", prefix, prefix + "\x00", prefix + "é9", "~~", key_of(7)]
    for i in range(len(prefix)):
        probes.append(prefix[:i])  # stops inside the prefix
        probes.append(prefix[:i] + "\uffff" + prefix[i + 1 :])  # diverges inside it
    return probes


@settings(max_examples=150, deadline=None)
@given(key_sets, st.sampled_from([0, 1, 4, 10]), st.integers(min_value=0, max_value=2**32))
@example(keys=[""], bits_per_key=10, seed=0)
@example(keys=["", "é", "é中"], bits_per_key=10, seed=0)
def test_property_build_bits_match_full_key_oracle(keys, bits_per_key, seed):
    bloom = BloomFilter.build(keys, bits_per_key=bits_per_key, seed=seed)
    assert bloom._bits == reference_bits(keys, bits_per_key, seed)


@settings(max_examples=150, deadline=None)
@given(key_sets, st.sampled_from([0, 1, 4, 10]), st.integers(min_value=0, max_value=2**32))
@example(keys=[""], bits_per_key=10, seed=0)
@example(keys=[key_of(10), key_of(19)], bits_per_key=0, seed=0)
def test_property_probe_matches_full_key_oracle(keys, bits_per_key, seed):
    bloom = BloomFilter.build(keys, bits_per_key=bits_per_key, seed=seed)
    for probe in probes_around(keys):
        assert bloom.may_contain(probe) == reference_probe(bloom, probe), probe
