// Shared plumbing for the end-to-end benchmark: clocks, process
// counters, exact order statistics, the per-run Outcome (metrics,
// attempted/failed operations, provenance facts) and the traced-run
// session that arms the flight recorder, exports pftk-spans/1 and
// profiles it.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/flight/prof.hpp"

namespace e2e {

namespace obs = ::pftk::obs;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User + system CPU seconds of the whole process (every thread).
[[nodiscard]] double cpu_seconds();

/// Peak resident set size of the process, MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();

/// Exact order statistic: the sorted sample at index min(n-1, floor(q*n))
/// — the rule serve::run_load uses for its p50/p99. 0 when empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Mean of the best half of `values`, at least one value: the lowest
/// when lower is better, else the highest. 0 when empty.
[[nodiscard]] double best_half(std::vector<double> values, bool lower_is_better);

/// Host speed calibration. The host's speed drifts over minutes by more
/// than the bounds allow, in the fast passes too, so every time the
/// benchmark reports is scaled to a nominal host: multiplied by
/// kCalibrationSeconds / the best half of the calibration kernel's
/// times in the same run. The kernel is a fixed mix of the operations
/// the workloads spend their time on (a binary heap of event times, an
/// open-addressing hash table, integer mixing) over storage allocated
/// once, built from this directory alone: no change to the program
/// changes its speed.
inline constexpr double kCalibrationSeconds = 0.014;

/// Runs the calibration kernel `n` times and keeps each time for
/// host_scale().
void calibrate(int n);

/// kCalibrationSeconds / best half of every calibration time so far
/// (1 before the first): multiply a time by it, divide a rate by it.
[[nodiscard]] double host_scale();

/// FNV-1a over bytes (determinism digests; not cryptographic).
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t h = 14695981039346656037ULL);

[[nodiscard]] std::uint64_t file_size(const std::filesystem::path& path);
[[nodiscard]] std::string read_file(const std::filesystem::path& path);

/// Median seconds per call of `fn`, timed in `blocks` blocks of `reps`
/// back-to-back calls (a block amortizes the clock read; the median
/// over blocks drops the ones a stray interrupt landed in).
[[nodiscard]] double median_call_seconds(int blocks, int reps,
                                         const std::function<void()>& fn);

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;  ///< do the set-up, report its digest, exit
  std::filesystem::path work_dir;   ///< scratch files, removed at exit
  std::filesystem::path spans_dir;  ///< traced runs' pftk-spans/1 files
};

/// Runs this binary again with `args`, waits for it, and returns its
/// wall time (spawn to exit) and standard output. Throws when it cannot
/// be started or exits non-zero.
struct Spawned {
  double seconds = 0.0;
  std::string out;
};
[[nodiscard]] Spawned spawn_self(const std::vector<std::string>& args);

/// Everything one run reports.
class Outcome {
 public:
  void set(const std::string& name, double value) { metrics_[name] = value; }
  [[nodiscard]] double get(const std::string& name) const;

  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Counts one failed operation and logs why on stderr.
  void fail(const std::string& why);
  void check(bool ok, const std::string& why) {
    if (!ok) {
      fail(why);
    }
  }

  /// A provenance fact about this workload (threads, bytes, counts).
  void fact(const std::string& key, const std::string& value) {
    facts_.emplace_back(key, value);
  }

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& facts()
      const noexcept {
    return facts_;
  }

 private:
  std::map<std::string, double> metrics_;
  std::vector<std::pair<std::string, std::string>> facts_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Wall and CPU time of one timed pass.
class PassTimer {
 public:
  PassTimer() : start_(Clock::now()), cpu_start_(cpu_seconds()) {}
  [[nodiscard]] double wall() const { return since(start_); }
  [[nodiscard]] double cpu() const { return cpu_seconds() - cpu_start_; }

 private:
  Clock::time_point start_;
  double cpu_start_;
};

/// What one timed pass contributes to the run's end-to-end metrics.
struct PassRecord {
  double wall = 0.0;     ///< timed seconds
  double cpu = 0.0;      ///< process CPU seconds over the same span
  double work = 0.0;     ///< units throughput_per_s counts
  double written = 0.0;  ///< bytes write_mb_per_s counts ...
  double write_s = 0.0;  ///< ... per these seconds
  double read = 0.0;     ///< bytes read_mb_per_s counts ...
  double read_s = 0.0;   ///< ... per these seconds
  double p50_ms = 0.0;   ///< this pass's latency order statistics
  double p99_ms = 0.0;
};

/// The host's speed moves in phases: within a run, passes fall in a
/// fast and a slow cluster, and how many land in each changes from run
/// to run, so a total over passes follows the host; the faster half
/// drops the slow cluster whenever it is the smaller one, and the fast
/// cluster moves only with the host's slower drift, which host_scale()
/// partly cancels. report() therefore writes each time and
/// rate metric as the mean of its best half of per-pass values (at
/// least one pass): lowest for times, highest for rates, scaled by
/// host_scale(). setup_s is the best half of the set-up samples the
/// same way, and rss_peak_mb the median pass peak.
struct RunTotals {
  std::vector<double> rss_mb;  ///< per pass, from repeat_for
  std::vector<double> setup_s;
  std::vector<PassRecord> passes;
  /// For a pass that repeats a fixed list of items: item_ms[i] holds
  /// item i's time in every pass. When set, latency_p50_ms and
  /// latency_p99_ms are order statistics over the items of each item's
  /// best half, instead of the passes' own p50/p99.
  std::vector<std::vector<double>> item_ms;

  void report(Outcome& out) const;
};

/// Calls `pass(i)` while another pass fits in `seconds`, and at least
/// `min_passes` times, timing the calibration kernel three times before
/// each. Returns each pass's peak resident memory, MB. Before every
/// pass the allocator returns freed memory (malloc_trim) and the peak
/// mark is reset (/proc/self/clear_refs): otherwise how much freed
/// memory the allocator keeps resident after one pass decides the next
/// passes' peaks, and that depends on the process's history.
std::vector<double> repeat_for(double seconds, int min_passes,
                               const std::function<void(int)>& pass);

/// The metric names and units, in BENCHMARK.json order.
struct MetricSpec {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// A traced run: clears and arms the flight recorder on construction;
/// finish() disarms, writes the spans through the pftk-spans/1 exporter,
/// reads the file back with the same loader `pftk prof` uses, profiles
/// it and fills the obs.* and bench.unattributed_frac metrics. The
/// benchmark's own root span must be named `root`.
class TraceSession {
 public:
  TraceSession(std::string root, std::size_t ring_capacity);
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  obs::flight::ProfReport finish(const std::filesystem::path& path,
                                 std::string_view source, Outcome& out);

 private:
  std::string root_;
  bool finished_ = false;
};

/// Aggregates from a profile; 0 when the span name is absent.
[[nodiscard]] double inclusive_s(const obs::flight::ProfReport& report,
                                 std::string_view name);
[[nodiscard]] std::uint64_t span_count(const obs::flight::ProfReport& report,
                                       std::string_view name);

void run_section3(const Options& options, Outcome& out);
void run_capture_io(const Options& options, Outcome& out);
void run_serve_mix(const Options& options, Outcome& out);
void run_explore(const Options& options, Outcome& out);

}  // namespace e2e
