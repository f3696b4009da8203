// The serve counter table and ConcurrentHistogram's saturation
// contract. The daemon's bundle bytes are pinned by a golden test; each
// table row must round-trip through the obs file; counts near
// UINT64_MAX must stick at the ceiling instead of wrapping (a wrapped
// count would silently break the accounting identity and every
// quantile that divides by it), and merging shard snapshots as
// MetricValues must saturate the same way while reproducing the
// single-histogram quantile walk.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "robust/supervisor/supervisor.hpp"
#include "serve/serve_metrics.hpp"

namespace pftk::serve {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

// The golden daemon bundle: every counter set to a distinct nonzero
// value (the identity still holds), fixed latency and queue-wait
// observations including a rejected NaN and a +inf-bucket sample.
void fill_golden(ServeTotals& t, ConcurrentHistogram& latency,
                 ConcurrentHistogram& queue_wait) {
  t.requests = 101;
  t.served = 60;
  t.shed = 20;
  t.deadline_missed = 12;
  t.internal_errors = 9;
  t.protocol_errors = 3;
  t.oversized = 4;
  t.pings = 5;
  t.connections = 6;
  t.rejected_connections = 7;
  t.disconnects = 8;
  t.batches = 10;
  t.batched_requests = 11;
  t.calib_chunks = 13;
  t.degraded = 14;
  t.degrade_transitions = 15;
  t.queue_peak = 16;
  t.metrics_flushes = 17;
  t.metrics_flush_failures = 18;
  for (const double x : {3e-4, 2e-3, 2e-3, 0.75, 5.0}) {
    latency.observe(x);
  }
  latency.observe(std::numeric_limits<double>::quiet_NaN());
  for (const double x : {0.02, 0.3, 0.3, 7.0, 2000.0}) {
    queue_wait.observe(x);
  }
}

std::string to_jsonl(const obs::ObsBundle& bundle) {
  std::ostringstream os;
  obs::write_obs_jsonl(os, bundle);
  return os.str();
}

constexpr const char* kGoldenServeBundle = R"golden({"schema":"pftk-obs/1","kind":"header","source":"serve","events_dropped":0}
{"kind":"metric","type":"counter","name":"pftk_serve_requests_total","help":"Requests admitted to a queueing decision","value":101}
{"kind":"metric","type":"counter","name":"pftk_serve_served_total","help":"Requests answered OK","value":60}
{"kind":"metric","type":"counter","name":"pftk_serve_shed_total","help":"Requests shed with BUSY at the admission watermark","value":20}
{"kind":"metric","type":"counter","name":"pftk_serve_deadline_missed_total","help":"Requests shed after their deadline expired","value":12}
{"kind":"metric","type":"counter","name":"pftk_serve_internal_errors_total","help":"Requests answered ERR INTERNAL","value":9}
{"kind":"metric","type":"counter","name":"pftk_serve_protocol_errors_total","help":"Lines rejected with BADREQ","value":3}
{"kind":"metric","type":"counter","name":"pftk_serve_oversized_lines_total","help":"Lines rejected with TOOBIG at the byte cap","value":4}
{"kind":"metric","type":"counter","name":"pftk_serve_pings_total","help":"PING round trips","value":5}
{"kind":"metric","type":"counter","name":"pftk_serve_connections_total","help":"Clients accepted","value":6}
{"kind":"metric","type":"counter","name":"pftk_serve_rejected_connections_total","help":"Clients turned away over the client cap","value":7}
{"kind":"metric","type":"counter","name":"pftk_serve_client_disconnects_total","help":"Clients lost on the response path","value":8}
{"kind":"metric","type":"counter","name":"pftk_serve_batches_total","help":"Same-key MODEL batches drained together","value":10}
{"kind":"metric","type":"counter","name":"pftk_serve_batched_requests_total","help":"Requests evaluated inside those batches","value":11}
{"kind":"metric","type":"counter","name":"pftk_serve_calib_chunks_total","help":"CALIB trace chunks parsed (deadline checkpoints)","value":13}
{"kind":"metric","type":"counter","name":"pftk_serve_metrics_flushes_total","help":"Durable metrics snapshots written","value":17}
{"kind":"metric","type":"counter","name":"pftk_serve_metrics_flush_failures_total","help":"Metrics snapshot writes that failed (the previous one stays)","value":18}
{"kind":"metric","type":"counter","name":"pftk_serve_degraded_total","help":"Requests answered on the degraded approx path","value":14}
{"kind":"metric","type":"counter","name":"pftk_serve_degrade_transitions_total","help":"Local degraded-mode on/off flips (shed-rate watermark)","value":15}
{"kind":"metric","type":"gauge","name":"pftk_serve_queue_peak","help":"High-water queued requests over every shard","value":16}
{"kind":"metric","type":"histogram","name":"pftk_serve_latency_seconds","help":"Admission-to-response latency (wall seconds)","bounds":[0.0001,0.00025000000000000001,0.00050000000000000001,0.001,0.0025000000000000001,0.0050000000000000001,0.01,0.025000000000000001,0.050000000000000003,0.10000000000000001,0.25,0.5,1,2.5],"buckets":[0,0,1,0,2,0,0,0,0,0,0,0,1,0,1],"count":5,"sum":5.7542999999999997,"rejected":1}
{"kind":"metric","type":"histogram","name":"pftk_serve_queue_wait_ms","help":"Admission-to-dequeue wait (milliseconds, merged shards)","bounds":[0.01,0.025000000000000001,0.050000000000000003,0.10000000000000001,0.25,0.5,1,2.5,5,10,25,50,100,250,1000],"buckets":[0,1,0,0,0,2,0,0,0,1,0,0,0,0,0,1],"count":5,"sum":2007.6199999999999,"rejected":0}
)golden";

constexpr const char* kGoldenSupervisorBundle = R"golden({"schema":"pftk-obs/1","kind":"header","source":"serve","events_dropped":0}
{"kind":"metric","type":"counter","name":"pftk_serve_worker_forks_total","help":"Worker processes forked (initial + restarts)","value":9}
{"kind":"metric","type":"counter","name":"pftk_serve_worker_restarts_total","help":"Worker restarts after crash/error exits","value":4}
{"kind":"metric","type":"counter","name":"pftk_serve_worker_crashes_total","help":"Worker exits classified as crashes","value":2}
{"kind":"metric","type":"counter","name":"pftk_serve_worker_stalls_total","help":"Workers SIGKILLed for heartbeat silence","value":1}
{"kind":"metric","type":"counter","name":"pftk_serve_probe_failures_total","help":"Self-PING liveness probe failures","value":3}
{"kind":"metric","type":"counter","name":"pftk_serve_supervisor_degrade_transitions_total","help":"Fleet degrade-flag flips driven by restart pressure","value":6}
)golden";

constexpr const char* kGoldenDescribe = R"golden(requests 101 = served 60 + shed 20 + deadline-missed 12 + internal 9
protocol errors 3, oversized 4, pings 5, connections 6 (rejected 7, lost 8)
batches 10 covering 11 request(s), calib chunks 13, queue peak 16, metrics flush failures 18
degraded answers 14 (mode flips 15)
latency p50 2.125 ms, p99 2500 ms (histogram estimate)
queue wait p50 0.4375 ms, p99 1000 ms (merged shards, histogram estimate))golden";

TEST(ServeMetricsGolden, ServeAndSupervisorBundleBytesArePinned) {
  ServeTotals totals;
  ConcurrentHistogram latency(default_latency_bounds());
  ConcurrentHistogram queue_wait(default_queue_wait_bounds_ms());
  fill_golden(totals, latency, queue_wait);
  const obs::ObsBundle bundle = make_bundle(totals, latency, queue_wait.snapshot());
  EXPECT_EQ(to_jsonl(bundle), kGoldenServeBundle);

  robust::SupervisorStats stats;
  stats.forks = 9;
  stats.restarts = 4;
  stats.crashes = 2;
  stats.error_exits = 1;
  stats.clean_exits = 5;
  stats.stalls = 1;
  stats.probe_failures = 3;
  stats.degrade_transitions = 6;
  EXPECT_EQ(to_jsonl(supervisor_bundle(stats)), kGoldenSupervisorBundle);

  // The summary text and its histogram-estimated quantiles, both from
  // the live totals and read back from the bundle.
  const ServeSummary live = summarize(totals, latency, queue_wait.snapshot());
  EXPECT_EQ(live.describe(), kGoldenDescribe);
  const ServeSummary back = summary_from_metrics(bundle.metrics);
  for (const ServeSummary* s : {&live, &back}) {
    EXPECT_EQ(s->latency_p50_s, 0.0021250000000000002);
    EXPECT_EQ(s->latency_p99_s, 2.5);
    EXPECT_EQ(s->queue_wait_p50_ms, 0.4375);
    EXPECT_EQ(s->queue_wait_p99_ms, 1000.0);
  }
}

TEST(ConcurrentHistogram, CountSaturatesAtUint64MaxInsteadOfWrapping) {
  ConcurrentHistogram h({1.0, 2.0});
  h.observe_n(0.5, kMax - 2);
  EXPECT_EQ(h.snapshot().count, kMax - 2);
  // Three more observations would wrap a naive fetch_add to 1.
  h.observe_n(0.5, 3);
  EXPECT_EQ(h.snapshot().count, kMax);
  EXPECT_EQ(h.snapshot().buckets[0], kMax);
  // Once pinned, further observations leave the ceiling untouched.
  h.observe(0.5);
  EXPECT_EQ(h.snapshot().count, kMax);
  EXPECT_EQ(h.snapshot().buckets[0], kMax);
}

TEST(ConcurrentHistogram, BucketAndRejectedSaturateIndependently) {
  ConcurrentHistogram h({1.0});
  h.observe_n(10.0, kMax - 1);  // +inf bucket near ceiling
  h.observe_n(10.0, 5);
  EXPECT_EQ(h.snapshot().buckets[1], kMax);
  EXPECT_EQ(h.snapshot().count, kMax);
  // Rejected counter has its own ceiling.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  h.observe_n(nan, kMax - 1);
  h.observe_n(nan, 4);
  EXPECT_EQ(h.snapshot().rejected, kMax);
  // Rejections never touch the buckets or the count.
  EXPECT_EQ(h.snapshot().count, kMax);
}

TEST(ConcurrentHistogram, QuantileStillAnswersAtTheCeiling) {
  ConcurrentHistogram h({1.0, 2.0, 4.0});
  h.observe_n(0.5, kMax - 1);
  h.observe_n(0.5, 10);
  // A wrapped count would make the quantile walk terminate in the wrong
  // bucket; the saturated histogram keeps every sample in [0, 1].
  EXPECT_GT(h.snapshot().quantile(0.5), 0.0);
  EXPECT_LE(h.snapshot().quantile(0.99), 1.0);
}

TEST(HistogramMerge, SaturatesCounts) {
  ConcurrentHistogram a({1.0}), b({1.0});
  a.observe_n(0.5, kMax - 3);
  b.observe_n(0.5, 10);
  obs::MetricValue merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.count, kMax);
  EXPECT_EQ(merged.buckets[0], kMax);
}

TEST(HistogramMerge, MatchesSingleHistogramQuantiles) {
  // Two shards observing disjoint halves of a workload must merge to
  // the same quantiles as one histogram that saw everything.
  const auto bounds = default_queue_wait_bounds_ms();
  ConcurrentHistogram whole(bounds), shard_a(bounds), shard_b(bounds);
  for (int i = 1; i <= 100; ++i) {
    const double x = 0.01 * static_cast<double>(i);
    whole.observe(x);
    (i % 2 == 0 ? shard_a : shard_b).observe(x);
  }
  obs::MetricValue merged = shard_a.snapshot();
  merged.merge(shard_b.snapshot());
  EXPECT_EQ(merged.count, whole.snapshot().count);
  EXPECT_DOUBLE_EQ(merged.quantile(0.5), whole.snapshot().quantile(0.5));
  EXPECT_DOUBLE_EQ(merged.quantile(0.99), whole.snapshot().quantile(0.99));
}

TEST(HistogramMerge, RejectsMismatchedBounds) {
  ConcurrentHistogram a({1.0}), b({2.0});
  obs::MetricValue s = a.snapshot();
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

TEST(ServeMetrics, EveryCounterRoundTripsThroughTheObsFile) {
  // Each input goes make_bundle -> write_obs_jsonl -> read_obs_jsonl ->
  // summary_from_metrics, and every table row must read back its value.
  const auto only_flush_failures = [](ServeTotals& t) {
    t.metrics_flush_failures = 3;
  };
  const auto every_row_distinct = [](ServeTotals& t) {
    std::uint64_t next = 1000;
    for_each_counter(
        [&next](const MetricRow&, std::atomic<std::uint64_t>& v) {
          v = next;
          next += 7;
        },
        t);
  };
  const std::vector<std::function<void(ServeTotals&)>> inputs = {
      only_flush_failures, every_row_distinct};
  for (const auto& fill : inputs) {
    ServeTotals totals;
    fill(totals);
    ConcurrentHistogram latency(default_latency_bounds());
    ConcurrentHistogram queue_wait(default_queue_wait_bounds_ms());
    std::stringstream file(to_jsonl(make_bundle(totals, latency, queue_wait.snapshot())));
    obs::ObsReadReport report;
    const obs::ObsBundle back = obs::read_obs_jsonl(file, &report);
    ASSERT_TRUE(report.clean()) << report.first_error;
    const ServeSummary summary = summary_from_metrics(back.metrics);
    std::size_t rows = 0;
    for_each_counter(
        [&rows](const MetricRow& row, const std::uint64_t& got,
                const std::atomic<std::uint64_t>& want) {
          EXPECT_EQ(got, want.load()) << row.name;
          ++rows;
        },
        summary, totals);
    EXPECT_EQ(rows, back.metrics.metrics.size() - 2);  // + two histograms
  }
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
