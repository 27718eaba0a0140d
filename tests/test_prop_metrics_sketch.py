"""Property-based tests for the log-bucketed quantile sketch (S18).

Two contracts, checked on adversarial streams:

* **accuracy** — for any stream of non-negative floats and any rank,
  the estimate is within the configured relative error of the exact
  nearest-rank quantile (DDSketch's defining guarantee);
* **mergeability** — splitting a stream at any point and merging the
  two sketches is *bucket-exact* equal to sketching the whole stream,
  so per-shard sketches can be combined without widening the error.
"""

import math
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics import QuantileSketch

# Positive magnitudes across ~12 orders of magnitude, plus exact zeros:
# log-bucketed sketches earn their keep (or break) at extreme spread.
magnitudes = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=1e6,
              allow_nan=False, allow_infinity=False),
)
streams = st.lists(magnitudes, min_size=1, max_size=300)
accuracies = st.sampled_from([0.005, 0.01, 0.05])
ranks = st.floats(min_value=0.0, max_value=1.0,
                  allow_nan=False, allow_infinity=False)


def exact_quantile(values, q):
    ordered = sorted(values)
    if q <= 0:
        return ordered[0]
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


@given(streams, ranks, accuracies)
@settings(max_examples=200, deadline=None)
def test_quantile_within_relative_error(values, q, alpha):
    sk = QuantileSketch(relative_accuracy=alpha)
    sk.add_many(values)
    exact = exact_quantile(values, q)
    assert abs(sk.quantile(q) - exact) <= alpha * exact + 1e-9


@given(streams, st.integers(min_value=0, max_value=300))
@settings(max_examples=200, deadline=None)
def test_merge_of_split_equals_whole(values, cut):
    cut = min(cut, len(values))
    whole = QuantileSketch()
    whole.add_many(values)
    left, right = QuantileSketch(), QuantileSketch()
    left.add_many(values[:cut])
    right.add_many(values[cut:])
    merged = left.merge(right)
    assert merged == whole
    assert merged.count == whole.count
    assert merged.min_value == whole.min_value
    assert merged.max_value == whole.max_value


@given(streams)
@settings(max_examples=100, deadline=None)
def test_quantile_monotone_and_bounded(values):
    sk = QuantileSketch()
    sk.add_many(values)
    estimates = sk.quantiles([i / 10 for i in range(11)])
    assert estimates == sorted(estimates)
    assert estimates[0] >= 0.0
    assert estimates[-1] <= max(values) * 1.0000001


@given(magnitudes, st.integers(min_value=1, max_value=50))
@settings(max_examples=100, deadline=None)
def test_weighted_add_equals_repeats(value, repeat):
    weighted = QuantileSketch()
    weighted.add(value, count=repeat)
    repeated = QuantileSketch()
    for _ in range(repeat):
        repeated.add(value)
    assert weighted == repeated
    assert weighted.count == repeat


def test_workload_family_streams_within_bound():
    """Acceptance: p50/p99 within the configured relative error on the
    uniform / zipf / gravity / adversarial hop- and latency-shaped
    streams (deterministic seeds, heavier than the hypothesis sweep)."""
    rng = random.Random(1789)
    zipf_tail = [1.0 / (i + 1) ** 1.1 * 1e4 for i in range(4000)]
    rng.shuffle(zipf_tail)
    families = {
        "uniform": [rng.uniform(0.5, 500.0) for _ in range(4000)],
        "zipf": zipf_tail,
        "gravity": [rng.expovariate(1 / 80.0) * rng.expovariate(1 / 80.0)
                    for _ in range(4000)],
        "adversarial": [10.0 ** rng.randint(-6, 6) for _ in range(4000)],
    }
    alpha = 0.005
    for name, values in families.items():
        sk = QuantileSketch(relative_accuracy=alpha)
        sk.add_many(values)
        for q in (0.5, 0.99):
            exact = exact_quantile(values, q)
            err = abs(sk.quantile(q) - exact)
            assert err <= alpha * exact + 1e-9, (name, q, err)


# Bulk ingestion (`add_many`) against the per-value path it must equal:
# zeros, negatives (clamped into the zero bucket) and sub-trackable
# magnitudes included, through every container `serve_pairs` and the
# tests hand it, and on top of a sketch that already holds samples.
signed = st.one_of(
    magnitudes,
    st.just(-0.0),
    st.floats(min_value=-1e6, max_value=1e-11,
              allow_nan=False, allow_infinity=False),
)


@given(st.lists(signed, max_size=200), st.lists(signed, max_size=20),
       accuracies, st.sampled_from([list, tuple, iter,
                                    lambda xs: array("d", xs)]))
@settings(max_examples=200, deadline=None)
def test_bulk_ingestion_equals_per_value_add(values, already, alpha, box):
    bulk = QuantileSketch(relative_accuracy=alpha)
    single = QuantileSketch(relative_accuracy=alpha)
    for sk in (bulk, single):
        for v in already:
            sk.add(v)
    bulk.add_many(box(values))
    for v in values:
        single.add(v)
    assert bulk == single  # alpha, count, zero bucket, every log bucket
    assert bulk.bucket_bounds() == single.bucket_bounds()
    assert bulk.min_value == single.min_value
    assert bulk.max_value == single.max_value
    # One running sum against sum() of the batch: same terms, another
    # association.
    scale = sum(abs(v) for v in values + already)
    assert bulk.total == pytest.approx(single.total, abs=1e-9 * scale + 1e-12)
