// ConcurrentHistogram's saturation contract and the mergeable snapshot
// that carries the per-shard queue-wait histograms: counts near
// UINT64_MAX must stick at the ceiling instead of wrapping (a wrapped
// count would silently break the accounting identity and every
// quantile that divides by it), and merging shard snapshots must
// saturate the same way while reproducing the single-histogram
// quantile walk.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "serve/serve_metrics.hpp"

namespace pftk::serve {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

TEST(ConcurrentHistogram, CountSaturatesAtUint64MaxInsteadOfWrapping) {
  ConcurrentHistogram h({1.0, 2.0});
  h.observe_n(0.5, kMax - 2);
  EXPECT_EQ(h.count(), kMax - 2);
  // Three more observations would wrap a naive fetch_add to 1.
  h.observe_n(0.5, 3);
  EXPECT_EQ(h.count(), kMax);
  EXPECT_EQ(h.bucket_counts()[0], kMax);
  // Once pinned, further observations leave the ceiling untouched.
  h.observe(0.5);
  EXPECT_EQ(h.count(), kMax);
  EXPECT_EQ(h.bucket_counts()[0], kMax);
}

TEST(ConcurrentHistogram, BucketAndRejectedSaturateIndependently) {
  ConcurrentHistogram h({1.0});
  h.observe_n(10.0, kMax - 1);  // +inf bucket near ceiling
  h.observe_n(10.0, 5);
  EXPECT_EQ(h.bucket_counts()[1], kMax);
  EXPECT_EQ(h.count(), kMax);
  // Rejected counter has its own ceiling.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  h.observe_n(nan, kMax - 1);
  h.observe_n(nan, 4);
  EXPECT_EQ(h.rejected(), kMax);
  // Rejections never touch the buckets or the count.
  EXPECT_EQ(h.count(), kMax);
}

TEST(ConcurrentHistogram, QuantileStillAnswersAtTheCeiling) {
  ConcurrentHistogram h({1.0, 2.0, 4.0});
  h.observe_n(0.5, kMax - 1);
  h.observe_n(0.5, 10);
  // A wrapped count would make the quantile walk terminate in the wrong
  // bucket; the saturated histogram keeps every sample in [0, 1].
  EXPECT_GT(h.quantile(0.5), 0.0);
  EXPECT_LE(h.quantile(0.99), 1.0);
}

TEST(HistogramSnapshot, MergeSaturatesCounts) {
  ConcurrentHistogram a({1.0}), b({1.0});
  a.observe_n(0.5, kMax - 3);
  b.observe_n(0.5, 10);
  HistogramSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.count, kMax);
  EXPECT_EQ(merged.buckets[0], kMax);
}

TEST(HistogramSnapshot, MergeMatchesSingleHistogramQuantiles) {
  // Two shards observing disjoint halves of a workload must merge to
  // the same quantiles as one histogram that saw everything.
  const auto bounds = default_queue_wait_bounds_ms();
  ConcurrentHistogram whole(bounds), shard_a(bounds), shard_b(bounds);
  for (int i = 1; i <= 100; ++i) {
    const double x = 0.01 * static_cast<double>(i);
    whole.observe(x);
    (i % 2 == 0 ? shard_a : shard_b).observe(x);
  }
  HistogramSnapshot merged = shard_a.snapshot();
  merged.merge(shard_b.snapshot());
  EXPECT_EQ(merged.count, whole.count());
  EXPECT_DOUBLE_EQ(merged.quantile(0.5), whole.quantile(0.5));
  EXPECT_DOUBLE_EQ(merged.quantile(0.99), whole.quantile(0.99));
}

TEST(HistogramSnapshot, MergeRejectsMismatchedBounds) {
  ConcurrentHistogram a({1.0}), b({2.0});
  HistogramSnapshot s = a.snapshot();
  EXPECT_THROW(s.merge(b.snapshot()), std::invalid_argument);
}

TEST(ServeSummary, CarriesMergedQueueWaitQuantiles) {
  ServeTotals totals;
  totals.requests.store(4);
  totals.served.store(4);
  ConcurrentHistogram latency(default_latency_bounds());
  ConcurrentHistogram queue_wait(default_queue_wait_bounds_ms());
  for (int i = 0; i < 100; ++i) {
    queue_wait.observe(0.2);  // 200 µs of queueing
  }
  const ServeSummary summary = summarize(totals, latency, queue_wait.snapshot());
  EXPECT_TRUE(summary.accounting_ok());
  EXPECT_GT(summary.queue_wait_p50_ms, 0.0);
  EXPECT_GE(summary.queue_wait_p99_ms, summary.queue_wait_p50_ms);
  // And the human-readable report mentions it.
  EXPECT_NE(summary.describe().find("queue wait"), std::string::npos);
}

TEST(BusyRetryHint, ColdShardNeverQuotesZero) {
  // Before the first request completes the service EWMA is still 0.0;
  // the hint must floor at 1 ms, not tell clients to hammer back in 0.
  EXPECT_EQ(busy_retry_hint_ms(0.0, 64), 1u);
  EXPECT_EQ(busy_retry_hint_ms(0.0, 0), 1u);
}

TEST(BusyRetryHint, ScalesWithQueueDrainEstimate) {
  // 2 ms EWMA × depth 64 → 128 ms to drain a full queue.
  EXPECT_EQ(busy_retry_hint_ms(0.002, 64), 128u);
  // Sub-millisecond estimates round down onto the floor.
  EXPECT_EQ(busy_retry_hint_ms(1e-6, 100), 1u);
}

TEST(BusyRetryHint, WedgedShardIsCappedAtThirtySeconds) {
  EXPECT_EQ(busy_retry_hint_ms(10.0, 4096), 30000u);
  // Pathological inputs (poisoned EWMA) clamp instead of propagating.
  EXPECT_EQ(busy_retry_hint_ms(std::numeric_limits<double>::infinity(), 64),
            30000u);
  EXPECT_EQ(busy_retry_hint_ms(std::numeric_limits<double>::quiet_NaN(), 64),
            1u);
}

TEST(ServeMetrics, FlushFailuresRoundTripThroughTheBundle) {
  ServeTotals totals;
  totals.metrics_flush_failures = 3;
  ConcurrentHistogram latency(default_latency_bounds());
  ConcurrentHistogram queue_wait(default_queue_wait_bounds_ms());
  const auto bundle = make_bundle(totals, latency, queue_wait.snapshot());
  const auto* m = bundle.metrics.find("pftk_serve_metrics_flush_failures_total");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->value, 3.0);
  EXPECT_EQ(summary_from_metrics(bundle.metrics).metrics_flush_failures, 3u);
}

TEST(ServeMetrics, BundleExportsQueueWaitHistogram) {
  ServeTotals totals;
  ConcurrentHistogram latency(default_latency_bounds());
  ConcurrentHistogram queue_wait(default_queue_wait_bounds_ms());
  queue_wait.observe(0.5);
  const auto bundle = make_bundle(totals, latency, queue_wait.snapshot());
  const auto* m = bundle.metrics.find("pftk_serve_queue_wait_ms");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, 1u);
  EXPECT_EQ(m->bounds, default_queue_wait_bounds_ms());
}

}  // namespace
}  // namespace pftk::serve
