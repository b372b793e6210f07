"""Percentiles, spreads, cost terms and the reference check."""

from __future__ import annotations

import pytest
from repro.bench.simclock import ClockReading, CostModel, elapsed_us
from repro.workloads.generator import Operation
from repro.workloads.keys import key_of, value_of

import child
import metrics
from workloads import WORKLOADS


def test_exact_percentiles_are_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert metrics.exact_percentile(samples, 0.50) == 3.0
    assert metrics.exact_percentile(samples, 0.99) == 5.0
    assert metrics.exact_percentile(samples, 0.20) == 1.0
    assert metrics.exact_percentile(samples, 0.21) == 2.0
    assert metrics.exact_percentile(list(range(1, 101)), 0.99) == 99
    assert metrics.exact_percentile([7.0], 0.5) == 7.0
    assert metrics.exact_percentile([], 0.5) == 0.0


def test_iqr_frac_matches_statistics_quantiles():
    assert metrics.iqr_frac([10.0]) == 0.0
    assert metrics.iqr_frac([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def test_cost_terms_cover_every_price_in_the_cost_model():
    before = ClockReading()
    fields = list(before.__dataclass_fields__)
    after = ClockReading(**{f: 3 + i for i, f in enumerate(fields)})
    terms, total = metrics.checked_cost_terms([(before, after)])
    assert set(terms) == set(metrics.COST_TERMS)
    assert total == pytest.approx(elapsed_us(before, after, CostModel()))
    broken = dict(metrics.cost_terms(before, after), l2=0.0)
    assert sum(broken.values()) != pytest.approx(total)


def test_reference_check_counts_wrong_outputs():
    workload = WORKLOADS["mixed_write"]
    ops = [
        Operation("put", key_of(1), value="new"),  # warm-up: moves the model only
        Operation("get", key_of(1)),
        Operation("delete", key_of(2)),
        Operation("scan", key_of(1), length=2),
        Operation("get", key_of(2)),
    ]
    scan = [(key_of(1), "new"), (key_of(3), value_of(3))]
    assert child.check_outputs(workload, ops, 1, ["new", scan, None]) == (0, [])
    wrong, examples = child.check_outputs(workload, ops, 1, ["stale", scan, value_of(2)])
    assert wrong == 2 and len(examples) == 2


def test_batched_reference_check_reads_before_writes():
    workload = WORKLOADS["batch_mixed"]
    batch = [Operation("get", key_of(i % 7)) for i in range(workload.batch_size - 1)]
    batch.append(Operation("put", key_of(0), value="late"))
    ops = batch + [Operation("get", key_of(0))] * workload.batch_size
    first = [value_of(i % 7) for i in range(workload.batch_size - 1)]
    second = ["late"] * workload.batch_size
    assert child.check_outputs(workload, ops, 0, [first, second]) == (0, [])
