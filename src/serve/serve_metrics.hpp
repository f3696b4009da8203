// Serving-path accounting: exact, lock-free, crash-flushable.
//
// The daemon's robustness contract is an *accounting identity*: every
// admitted request is answered exactly once, so at any quiescent point
//
//   requests == served + shed + deadline_missed + internal_errors
//
// holds to the unit (asserted by tests and the selftest). The campaign
// obs registry cannot carry this — its shards are single-writer and the
// daemon's reader threads are one-per-connection — so serving counters
// are plain relaxed atomics (any thread may bump any counter) plus a
// bucket-atomic latency histogram, and a MetricsSnapshot is *derived*
// from them at flush time. Flushes go through save_obs_file →
// atomic_write_file, so the metrics file on disk is always a complete,
// parseable pftk-obs/1 bundle — even when the process is killed between
// flushes, the previous snapshot survives intact.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace pftk::robust {
struct SupervisorStats;
}  // namespace pftk::robust

namespace pftk::serve {

/// Latency histogram with atomically-updated buckets: safe for any
/// number of concurrent observers, mergeable into the obs snapshot
/// format. Bounds follow the obs convention (inclusive `le` edges, an
/// implicit +inf bucket); non-finite observations are rejected+counted.
/// All counters saturate at UINT64_MAX instead of wrapping, so a
/// pathological observation count degrades to a stuck ceiling rather
/// than a silently small (and identity-violating) value.
class ConcurrentHistogram {
 public:
  /// @throws std::invalid_argument on unsorted/non-finite bounds.
  explicit ConcurrentHistogram(std::vector<double> bounds);

  void observe(double x) noexcept { observe_n(x, 1); }

  /// Observes `x` with weight `n` (n pre-bucketed identical samples).
  /// Exists for bulk recording and so tests can reach the UINT64_MAX
  /// saturation region without 2^64 calls.
  void observe_n(double x, std::uint64_t n) noexcept;

  /// Point-in-time copy of every counter as an unnamed histogram
  /// MetricValue: shards merge through MetricValue::merge, quantiles
  /// come from MetricValue::quantile.
  [[nodiscard]] obs::MetricValue snapshot() const;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  ///< bounds + inf
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<std::uint64_t> rejected_{0};
};

/// The default request-latency edges, 100 µs to 2.5 s.
[[nodiscard]] std::vector<double> default_latency_bounds();

/// The default queue-wait edges in *milliseconds*, 10 µs to 1 s —
/// finer at the bottom than the latency edges because queue wait is the
/// overload signal: it inflates long before end-to-end latency blows
/// through its buckets.
[[nodiscard]] std::vector<double> default_queue_wait_bounds_ms();

/// One exported serve metric: its pftk_serve_* name, help text and kind.
struct MetricRow {
  const char* name;
  const char* help;
  obs::MetricKind kind = obs::MetricKind::kCounter;
};

/// Every serving counter, declared once. ServeTotals holds them as
/// relaxed atomics that any thread bumps by name; ServeSummary holds
/// plain values. for_each_counter is the table that exports them.
template <class T>
struct ServeCounters {
  // Admission-identity counters (requests = sum of the next four).
  T requests{};         ///< parsed + admitted to a queue decision
  T served{};           ///< answered OK
  T shed{};             ///< answered BUSY at the watermark
  T deadline_missed{};  ///< answered DEADLINE_EXCEEDED
  T internal_errors{};  ///< answered ERR INTERNAL
  // Outside the identity: never admitted, or not requests at all.
  T protocol_errors{};       ///< BADREQ answers
  T oversized{};             ///< TOOBIG answers
  T pings{};                 ///< PING round trips
  T connections{};           ///< accepted clients
  T rejected_connections{};  ///< over max_clients
  T disconnects{};           ///< write-side client losses
  // Batching effectiveness.
  T batches{};           ///< multi-request drains
  T batched_requests{};  ///< requests inside them
  T calib_chunks{};      ///< trace chunks parsed
  T metrics_flushes{};
  T metrics_flush_failures{};
  // Graceful degradation (inside the identity: a degraded answer is
  // still `served`; this counts how many were answered on the eq-33
  // approx path instead of the full eq-32 model).
  T degraded{};
  T degrade_transitions{};  ///< local watermark flips
  // High-water mark over every shard queue (gauge semantics).
  T queue_peak{};
};

/// Calls `f(row, c.field...)` once per counter, in export order, passing
/// the same field of every `c`. The only place a serve counter is named.
template <class F, class... C>
void for_each_counter(F&& f, C&&... c) {
  f(MetricRow{"pftk_serve_requests_total",
              "Requests admitted to a queueing decision"},
    c.requests...);
  f(MetricRow{"pftk_serve_served_total", "Requests answered OK"}, c.served...);
  f(MetricRow{"pftk_serve_shed_total",
              "Requests shed with BUSY at the admission watermark"},
    c.shed...);
  f(MetricRow{"pftk_serve_deadline_missed_total",
              "Requests shed after their deadline expired"},
    c.deadline_missed...);
  f(MetricRow{"pftk_serve_internal_errors_total",
              "Requests answered ERR INTERNAL"},
    c.internal_errors...);
  f(MetricRow{"pftk_serve_protocol_errors_total", "Lines rejected with BADREQ"},
    c.protocol_errors...);
  f(MetricRow{"pftk_serve_oversized_lines_total",
              "Lines rejected with TOOBIG at the byte cap"},
    c.oversized...);
  f(MetricRow{"pftk_serve_pings_total", "PING round trips"}, c.pings...);
  f(MetricRow{"pftk_serve_connections_total", "Clients accepted"},
    c.connections...);
  f(MetricRow{"pftk_serve_rejected_connections_total",
              "Clients turned away over the client cap"},
    c.rejected_connections...);
  f(MetricRow{"pftk_serve_client_disconnects_total",
              "Clients lost on the response path"},
    c.disconnects...);
  f(MetricRow{"pftk_serve_batches_total",
              "Same-key MODEL batches drained together"},
    c.batches...);
  f(MetricRow{"pftk_serve_batched_requests_total",
              "Requests evaluated inside those batches"},
    c.batched_requests...);
  f(MetricRow{"pftk_serve_calib_chunks_total",
              "CALIB trace chunks parsed (deadline checkpoints)"},
    c.calib_chunks...);
  f(MetricRow{"pftk_serve_metrics_flushes_total",
              "Durable metrics snapshots written"},
    c.metrics_flushes...);
  f(MetricRow{"pftk_serve_metrics_flush_failures_total",
              "Metrics snapshot writes that failed (the previous one stays)"},
    c.metrics_flush_failures...);
  f(MetricRow{"pftk_serve_degraded_total",
              "Requests answered on the degraded approx path"},
    c.degraded...);
  f(MetricRow{"pftk_serve_degrade_transitions_total",
              "Local degraded-mode on/off flips (shed-rate watermark)"},
    c.degrade_transitions...);
  f(MetricRow{"pftk_serve_queue_peak",
              "High-water queued requests over every shard",
              obs::MetricKind::kGauge},
    c.queue_peak...);
}

/// The two serve histograms, exported after the counters.
inline constexpr MetricRow kLatencyRow{
    "pftk_serve_latency_seconds", "Admission-to-response latency (wall seconds)",
    obs::MetricKind::kHistogram};
inline constexpr MetricRow kQueueWaitRow{
    "pftk_serve_queue_wait_ms",
    "Admission-to-dequeue wait (milliseconds, merged shards)",
    obs::MetricKind::kHistogram};

/// Every serving counter, updated with relaxed atomics from any thread.
struct ServeTotals : ServeCounters<std::atomic<std::uint64_t>> {
  void bump_queue_peak(std::uint64_t depth) noexcept {
    std::uint64_t seen = queue_peak.load(std::memory_order_relaxed);
    while (depth > seen &&
           !queue_peak.compare_exchange_weak(seen, depth,
                                             std::memory_order_relaxed)) {
    }
  }

  /// The accounting identity the overload tests assert.
  [[nodiscard]] bool accounting_ok() const noexcept {
    return requests.load() == served.load() + shed.load() +
                                  deadline_missed.load() + internal_errors.load();
  }
};

/// Plain-value copy of the totals for reports and summaries.
struct ServeSummary : ServeCounters<std::uint64_t> {
  double latency_p50_s = 0.0;  ///< histogram-estimated
  double latency_p99_s = 0.0;
  double queue_wait_p50_ms = 0.0;  ///< admission-to-dequeue, merged shards
  double queue_wait_p99_ms = 0.0;

  [[nodiscard]] bool accounting_ok() const noexcept {
    return requests == served + shed + deadline_missed + internal_errors;
  }
  [[nodiscard]] std::string describe() const;
};

/// `queue_wait` is the merged snapshot of every shard's queue-wait
/// histogram (Server::merged_queue_wait()).
[[nodiscard]] ServeSummary summarize(const ServeTotals& totals,
                                     const ConcurrentHistogram& latency,
                                     const obs::MetricValue& queue_wait);

/// Renders totals + latency + queue wait as a pftk-obs/1 bundle (source
/// "serve"): one metric per for_each_counter row, then the histograms.
[[nodiscard]] obs::ObsBundle make_bundle(const ServeTotals& totals,
                                         const ConcurrentHistogram& latency,
                                         const obs::MetricValue& queue_wait);

/// Reconstructs a summary from a pftk_serve_* metrics snapshot — the
/// inverse of make_bundle, used by the supervisor parent to check the
/// accounting identity fleet-wide after merging the per-worker snapshot
/// files. Metrics absent from the snapshot read as zero.
[[nodiscard]] ServeSummary summary_from_metrics(
    const obs::MetricsSnapshot& metrics);

/// Renders the supervisor parent's SupervisorStats as the
/// pftk_serve_worker_* counters it merges into the fleet bundle.
[[nodiscard]] obs::ObsBundle supervisor_bundle(
    const robust::SupervisorStats& stats);

/// The BUSY `retry_ms=` backpressure hint: estimated queue drain time
/// from the shard's service-time EWMA, clamped to [1, 30000] so a cold
/// shard (no completed request yet, EWMA still 0) never tells clients
/// to retry in 0 ms and a wedged shard never quotes minutes.
[[nodiscard]] std::uint64_t busy_retry_hint_ms(double service_ewma_s,
                                               std::size_t queue_depth);

}  // namespace pftk::serve
