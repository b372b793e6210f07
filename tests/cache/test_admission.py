"""Admission control: frequency gating and the a/b partial-scan policy."""

from __future__ import annotations

import pytest

from repro.cache.admission import FrequencyAdmission, PartialScanAdmission
from repro.cache.sketch import CountMinSketch
from repro.errors import CacheError


def fresh_admission(threshold=0.0):
    return FrequencyAdmission(CountMinSketch(width=512, depth=4, seed=1), threshold)


class TestFrequencyAdmission:
    def test_zero_threshold_admits_everything(self):
        fa = fresh_admission(0.0)
        assert all(fa.observe_and_decide(f"k{i}") for i in range(20))
        assert fa.admitted_total == 20

    def test_high_threshold_rejects_cold_keys(self):
        fa = fresh_admission(0.5)
        for i in range(10):
            fa.observe_and_decide(f"cold{i}")
        # After 10 distinct misses, any single cold key is 1/11 < 0.5.
        assert fa.observe_and_decide("cold-new") is False
        assert fa.rejected_total >= 1

    def test_hot_key_crosses_threshold(self):
        fa = fresh_admission(0.3)
        for i in range(4):
            fa.observe_and_decide(f"noise{i}")
        for _ in range(5):
            decision = fa.observe_and_decide("hot")
        assert decision is True  # 6/(4+6) > 0.3 modulo decay

    def test_threshold_clamped(self):
        fa = fresh_admission()
        fa.set_threshold(5.0)
        assert fa.threshold == 1.0
        fa.set_threshold(-1.0)
        assert fa.threshold == 0.0

    def test_nan_threshold_rejected(self):
        with pytest.raises(CacheError):
            fresh_admission().set_threshold(float("nan"))

    def test_counting_continues_even_at_zero_threshold(self):
        fa = fresh_admission(0.0)
        for _ in range(3):
            fa.observe_and_decide("k")
        assert fa.sketch.estimate("k") == 3


class TestPartialScanAdmission:
    def test_short_scans_fully_admitted(self):
        psa = PartialScanAdmission(a=16, b=0.5)
        assert psa.admit_count(10) == 10
        assert psa.admit_count(16) == 16

    def test_long_scans_partially_admitted(self):
        psa = PartialScanAdmission(a=16, b=0.5)
        assert psa.admit_count(64) == 24  # 0.5 * (64 - 16)

    def test_b_zero_admits_nothing_beyond_a(self):
        psa = PartialScanAdmission(a=16, b=0.0)
        assert psa.admit_count(64) == 0
        assert psa.admit_count(8) == 8

    def test_b_one_is_nearly_full(self):
        psa = PartialScanAdmission(a=0, b=1.0)
        assert psa.admit_count(64) == 64

    def test_admit_count_capped_at_length(self):
        psa = PartialScanAdmission(a=0, b=1.0)
        assert psa.admit_count(5) == 5

    def test_zero_length(self):
        assert PartialScanAdmission().admit_count(0) == 0
        assert PartialScanAdmission().admit_count(-3) == 0

    def test_params_clamped(self):
        psa = PartialScanAdmission(a=-5, b=7.0)
        assert psa.a == 0.0 and psa.b == 1.0

    def test_nan_rejected(self):
        with pytest.raises(CacheError):
            PartialScanAdmission(a=float("nan"), b=0.5)
