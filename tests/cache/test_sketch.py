"""Count-Min sketch: bounds, decay, conservative update."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.admission import FrequencyAdmission
from repro.cache.sketch import CountMinSketch
from repro.errors import CacheError
from repro.lsm.bloom import fnv1a
from repro.workloads.keys import key_of


class TestBasics:
    def test_counts_single_key(self):
        sk = CountMinSketch(width=256, depth=4, seed=1)
        for _ in range(5):
            sk.increment("a")
        assert sk.estimate("a") == 5
        assert sk.total == 5

    def test_unseen_key_estimates_low(self):
        sk = CountMinSketch(width=1024, depth=4, seed=1)
        for i in range(50):
            sk.increment(f"k{i}")
        assert sk.estimate("never-seen") <= 2  # collisions only

    def test_normalized(self):
        sk = CountMinSketch(width=256, depth=4, seed=1)
        assert sk.normalized("a") == 0.0
        for _ in range(4):
            sk.increment("a")
        sk.increment("b")
        assert abs(sk.normalized("a") - 4 / 5) < 1e-9

    def test_reset(self):
        sk = CountMinSketch(width=64, depth=2, seed=1)
        sk.increment("a")
        sk.reset()
        assert sk.estimate("a") == 0 and sk.total == 0

    def test_size_bytes(self):
        sk = CountMinSketch(width=128, depth=4)
        assert sk.size_bytes == 128 * 4 * 8  # int64 counters

    def test_validation(self):
        with pytest.raises(CacheError):
            CountMinSketch(width=0)
        with pytest.raises(CacheError):
            CountMinSketch(saturation=1)


class TestDecay:
    def test_saturation_halves_everything(self):
        sk = CountMinSketch(width=256, depth=4, saturation=8, seed=1)
        sk.increment("bg")  # background key
        for _ in range(8):
            new_est = sk.increment("hot")
        assert sk.decays_total == 1
        assert new_est == 4  # reported post-decay
        assert sk.estimate("hot") <= 4
        assert sk.total <= 5

    def test_decay_keeps_relative_order(self):
        sk = CountMinSketch(width=512, depth=4, saturation=8, seed=2)
        for _ in range(7):
            sk.increment("hot")
        for _ in range(2):
            sk.increment("warm")
        sk.increment("hot")  # decay fires
        assert sk.estimate("hot") > sk.estimate("warm")

    def test_normalized_bounded_through_heavy_decay(self):
        # Regression for the old min(1.0, ...) clamp: conservative
        # update + lockstep halving keep estimate <= total through any
        # number of decays, so no clamp is needed for a healthy sketch.
        sk = CountMinSketch(width=64, depth=4, saturation=4, seed=5)
        for i in range(200):
            sk.increment(f"k{i % 7}")
        assert sk.decays_total > 0
        for i in range(7):
            assert 0.0 <= sk.normalized(f"k{i}") <= 1.0

    def test_normalized_raises_on_corrupted_bookkeeping(self):
        # The clamp used to mask exactly this: counters exceeding the
        # global total.  The decay-aware bound must raise instead.
        sk = CountMinSketch(width=64, depth=4, seed=5)
        for _ in range(6):
            sk.increment("a")
        sk.total = 3  # simulate drifted bookkeeping (estimate("a") == 6)
        with pytest.raises(CacheError, match="exceeds the global total"):
            sk.normalized("a")


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from([f"k{i}" for i in range(12)]), max_size=60))
def test_property_never_underestimates(keys):
    """With saturation high enough to never decay, estimate >= true count."""
    sk = CountMinSketch(width=64, depth=4, saturation=1000, seed=3)
    true = {}
    for k in keys:
        sk.increment(k)
        true[k] = true.get(k, 0) + 1
    for k, count in true.items():
        assert sk.estimate(k) >= count
    assert sk.total == len(keys)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.sampled_from([f"k{i}" for i in range(6)]), max_size=40),
    st.integers(min_value=0, max_value=2**32),
)
# Duplicates plus saturation 3 force mid-batch decay epochs.
@example(keys=[f"k{i % 3}" for i in range(25)], seed=3)
def test_property_batch_equals_scalar_replay(keys, seed):
    """The admission batch path == the scalar loop exactly, for any key
    sequence (duplicates included) across any decay epochs."""
    batched = CountMinSketch(width=32, depth=3, saturation=3, seed=seed)
    scalar = CountMinSketch(width=32, depth=3, saturation=3, seed=seed)
    batch_admit = FrequencyAdmission(batched, threshold=0.2)
    scalar_admit = FrequencyAdmission(scalar, threshold=0.2)
    assert batch_admit.observe_and_decide_batch(keys) == [
        scalar_admit.observe_and_decide(k) for k in keys
    ]
    assert batched._rows_tab == scalar._rows_tab
    assert batched.total == scalar.total
    assert batched.decays_total == scalar.decays_total
    assert batch_admit.admitted_total == scalar_admit.admitted_total
    assert batch_admit.rejected_total == scalar_admit.rejected_total
    probe = [f"k{i}" for i in range(6)]
    assert [batched.estimate(k) for k in probe] == [scalar.estimate(k) for k in probe]


@st.composite
def shrinking_sequences(draw):
    """A long first key, keys cutting its prefix shorter and shorter, a
    prefix-free key, the empty key, then anything."""
    first = draw(st.text(alphabet="k0123456789é中", min_size=12, max_size=30))
    cuts = sorted(draw(st.lists(st.integers(0, len(first)), max_size=8)), reverse=True)
    seq = [first] + [first[:cut] + draw(st.text(max_size=5)) for cut in cuts]
    seq += ["Z" + draw(st.text(max_size=5)), ""]
    return seq + draw(st.lists(st.text(max_size=8), max_size=6))


@settings(max_examples=100, deadline=None)
@given(shrinking_sequences(), st.integers(min_value=0, max_value=2**32), st.integers(1, 5000))
@example(keys=[key_of(123456789), key_of(123450000), "Zx", "", key_of(5)], seed=0, width=4096)
def test_property_columns_equal_full_key_digests(keys, seed, width):
    """Columns resumed after the running prefix equal full-key digests."""
    sk = CountMinSketch(width=width, depth=4, seed=seed)
    for key in keys:
        data = key.encode("utf-8")
        assert sk.columns(key) == tuple(fnv1a(data, salt) % width for salt in sk._salts)
