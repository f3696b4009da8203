#include "serve/serve_metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "robust/supervisor/supervisor.hpp"

namespace pftk::serve {

namespace {

/// fetch_add through obs::saturating_add: a bucket clamps at UINT64_MAX
/// instead of wrapping to a silently small count.
void saturating_fetch_add(std::atomic<std::uint64_t>& a,
                          std::uint64_t n) noexcept {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (cur != UINT64_MAX &&
         !a.compare_exchange_weak(cur, obs::saturating_add(cur, n),
                                  std::memory_order_relaxed)) {
  }
}

/// A counter or gauge metric for `row` holding `value`.
obs::MetricValue row_metric(const MetricRow& row, std::uint64_t value) {
  obs::MetricValue m;
  m.name = row.name;
  m.help = row.help;
  m.kind = row.kind;
  m.value = static_cast<double>(value);
  return m;
}

/// `histogram` renamed to `row`.
obs::MetricValue row_metric(const MetricRow& row, obs::MetricValue histogram) {
  histogram.name = row.name;
  histogram.help = row.help;
  return histogram;
}

/// The supervisor parent's exported counters, one row per
/// robust::SupervisorStats member.
struct SupervisorRow {
  std::uint64_t robust::SupervisorStats::*field;
  MetricRow row;
};
constexpr SupervisorRow kSupervisorRows[] = {
    {&robust::SupervisorStats::forks,
     {"pftk_serve_worker_forks_total",
      "Worker processes forked (initial + restarts)"}},
    {&robust::SupervisorStats::restarts,
     {"pftk_serve_worker_restarts_total",
      "Worker restarts after crash/error exits"}},
    {&robust::SupervisorStats::crashes,
     {"pftk_serve_worker_crashes_total", "Worker exits classified as crashes"}},
    {&robust::SupervisorStats::stalls,
     {"pftk_serve_worker_stalls_total",
      "Workers SIGKILLed for heartbeat silence"}},
    {&robust::SupervisorStats::probe_failures,
     {"pftk_serve_probe_failures_total", "Self-PING liveness probe failures"}},
    {&robust::SupervisorStats::degrade_transitions,
     {"pftk_serve_supervisor_degrade_transitions_total",
      "Fleet degrade-flag flips driven by restart pressure"}},
};

}  // namespace

ConcurrentHistogram::ConcurrentHistogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (!std::isfinite(bounds_[i]) ||
        (i > 0 && !(bounds_[i] > bounds_[i - 1]))) {
      throw std::invalid_argument(
          "ConcurrentHistogram: bounds must be finite and strictly increasing");
    }
  }
}

void ConcurrentHistogram::observe_n(double x, std::uint64_t n) noexcept {
  if (n == 0) {
    return;
  }
  if (!std::isfinite(x)) {
    saturating_fetch_add(rejected_, n);
    return;
  }
  // Inclusive upper edges, like the obs registry: x == edge lands in
  // that edge's bucket.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  saturating_fetch_add(buckets_[idx], n);
  saturating_fetch_add(count_, n);
  sum_.fetch_add(x * static_cast<double>(n), std::memory_order_relaxed);
}

obs::MetricValue ConcurrentHistogram::snapshot() const {
  obs::MetricValue snap;
  snap.kind = obs::MetricKind::kHistogram;
  snap.bounds = bounds_;
  for (const auto& bucket : buckets_) {
    snap.buckets.push_back(bucket.load(std::memory_order_relaxed));
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.rejected = rejected_.load(std::memory_order_relaxed);
  return snap;
}

std::vector<double> default_latency_bounds() {
  return {1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2,
          2.5e-2, 5e-2, 0.1,  0.25, 0.5,    1.0,  2.5};
}

std::vector<double> default_queue_wait_bounds_ms() {
  return {0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
          2.5,  5.0,   10.0, 25.0, 50.0, 100.0, 250.0, 1000.0};
}

ServeSummary summarize(const ServeTotals& totals,
                       const ConcurrentHistogram& latency,
                       const obs::MetricValue& queue_wait) {
  ServeSummary s;
  for_each_counter(
      [](const MetricRow&, std::uint64_t& out,
         const std::atomic<std::uint64_t>& in) {
        out = in.load(std::memory_order_relaxed);
      },
      s, totals);
  const obs::MetricValue lat = latency.snapshot();
  s.latency_p50_s = lat.quantile(0.50);
  s.latency_p99_s = lat.quantile(0.99);
  s.queue_wait_p50_ms = queue_wait.quantile(0.50);
  s.queue_wait_p99_ms = queue_wait.quantile(0.99);
  return s;
}

std::string ServeSummary::describe() const {
  std::ostringstream os;
  os << "requests " << requests << " = served " << served << " + shed " << shed
     << " + deadline-missed " << deadline_missed << " + internal "
     << internal_errors << (accounting_ok() ? "" : "  [ACCOUNTING MISMATCH]")
     << "\n"
     << "protocol errors " << protocol_errors << ", oversized " << oversized
     << ", pings " << pings << ", connections " << connections << " (rejected "
     << rejected_connections << ", lost " << disconnects << ")\n"
     << "batches " << batches << " covering " << batched_requests
     << " request(s), calib chunks " << calib_chunks << ", queue peak "
     << queue_peak << ", metrics flush failures " << metrics_flush_failures
     << "\n"
     << "degraded answers " << degraded << " (mode flips "
     << degrade_transitions << ")\n"
     << "latency p50 " << latency_p50_s * 1e3 << " ms, p99 "
     << latency_p99_s * 1e3 << " ms (histogram estimate)\n"
     << "queue wait p50 " << queue_wait_p50_ms << " ms, p99 "
     << queue_wait_p99_ms << " ms (merged shards, histogram estimate)";
  return os.str();
}

obs::ObsBundle make_bundle(const ServeTotals& totals,
                           const ConcurrentHistogram& latency,
                           const obs::MetricValue& queue_wait) {
  obs::ObsBundle bundle;
  bundle.source = "serve";
  auto& out = bundle.metrics.metrics;
  for_each_counter(
      [&out](const MetricRow& row, const std::atomic<std::uint64_t>& v) {
        out.push_back(row_metric(row, v.load(std::memory_order_relaxed)));
      },
      totals);
  out.push_back(row_metric(kLatencyRow, latency.snapshot()));
  out.push_back(row_metric(kQueueWaitRow, queue_wait));
  return bundle;
}

ServeSummary summary_from_metrics(const obs::MetricsSnapshot& metrics) {
  ServeSummary s;
  for_each_counter(
      [&metrics](const MetricRow& row, std::uint64_t& out) {
        const obs::MetricValue* m = metrics.find(row.name);
        out = m == nullptr ? 0 : static_cast<std::uint64_t>(m->value);
      },
      s);
  if (const obs::MetricValue* m = metrics.find(kLatencyRow.name)) {
    s.latency_p50_s = m->quantile(0.50);
    s.latency_p99_s = m->quantile(0.99);
  }
  if (const obs::MetricValue* m = metrics.find(kQueueWaitRow.name)) {
    s.queue_wait_p50_ms = m->quantile(0.50);
    s.queue_wait_p99_ms = m->quantile(0.99);
  }
  return s;
}

obs::ObsBundle supervisor_bundle(const robust::SupervisorStats& stats) {
  obs::ObsBundle bundle;
  bundle.source = "serve";
  for (const SupervisorRow& r : kSupervisorRows) {
    bundle.metrics.metrics.push_back(row_metric(r.row, stats.*r.field));
  }
  return bundle;
}

std::uint64_t busy_retry_hint_ms(double service_ewma_s,
                                 std::size_t queue_depth) {
  double est_ms = service_ewma_s * static_cast<double>(queue_depth) * 1e3;
  // NaN (poisoned EWMA) falls to the floor; ±inf is handled by the
  // clamp itself, so an overflowed estimate still quotes the cap.
  if (std::isnan(est_ms)) {
    est_ms = 0.0;
  }
  return static_cast<std::uint64_t>(std::clamp(est_ms, 1.0, 30000.0));
}

}  // namespace pftk::serve
