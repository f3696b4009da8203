#include "harness.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "obs/flight/flight_recorder.hpp"
#include "obs/flight/span_export.hpp"

namespace e2e {

double cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's peak when that
  // was larger.
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      in >> kib;
      return kib * 1024.0 / 1e6;
    }
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  const std::size_t idx = std::min(
      samples.size() - 1, static_cast<std::size_t>(q * static_cast<double>(samples.size())));
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return h;
}

std::uint64_t file_size(const std::filesystem::path& path) {
  return static_cast<std::uint64_t>(std::filesystem::file_size(path));
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + path.string());
  }
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

double median_call_seconds(int blocks, int reps, const std::function<void()>& fn) {
  std::vector<double> per_call;
  per_call.reserve(static_cast<std::size_t>(blocks));
  for (int b = 0; b < blocks; ++b) {
    const auto start = Clock::now();
    for (int r = 0; r < reps; ++r) {
      fn();
    }
    per_call.push_back(since(start) / reps);
  }
  return median(std::move(per_call));
}

namespace {

std::vector<double>& calibration_samples() {
  static std::vector<double> samples;
  return samples;
}

/// One run of the calibration kernel; returns its wall time.
double calibration_once() {
  constexpr std::size_t kTable = 1 << 16;  // 512 KiB of slots
  constexpr std::size_t kHeapMax = 256;
  static std::vector<std::uint64_t> table(kTable);
  static std::vector<double> heap(kHeapMax + 1);
  const auto start = Clock::now();
  std::fill(table.begin(), table.end(), 0);
  std::size_t heap_size = 0;
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t hits = 0;
  double now = 0.0;
  for (int i = 0; i < 200000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap[heap_size++] = now + static_cast<double>(x % 1000003) * 1e-6;
    std::push_heap(heap.begin(), heap.begin() + static_cast<std::ptrdiff_t>(heap_size),
                   std::greater<>());
    if (heap_size > kHeapMax) {
      std::pop_heap(heap.begin(), heap.begin() + static_cast<std::ptrdiff_t>(heap_size),
                    std::greater<>());
      now = heap[--heap_size];
    }
    const std::uint64_t key = (x >> 20) % 40000 + 1;
    for (std::size_t slot = (key * 0x9E3779B97F4A7C15ULL) >> 48;;
         slot = (slot + 1) & (kTable - 1)) {
      if (table[slot] == key) {
        ++hits;
        break;
      }
      if (table[slot] == 0) {
        table[slot] = key;
        break;
      }
    }
  }
  const double seconds = since(start);
  volatile double sink = now + static_cast<double>(hits);
  (void)sink;
  return seconds;
}

}  // namespace

void calibrate(int n) {
  for (int i = 0; i < n; ++i) {
    calibration_samples().push_back(calibration_once());
  }
}

double host_scale() {
  const auto& samples = calibration_samples();
  return samples.empty() ? 1.0 : kCalibrationSeconds / best_half(samples, true);
}

Spawned spawn_self(const std::vector<std::string>& args) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe2 failed");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  std::vector<std::string> argv_storage = {"pftk_e2e"};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_storage) {
    argv.push_back(a.data());
  }
  argv.push_back(nullptr);
  Spawned spawned;
  const auto start = Clock::now();
  pid_t pid = 0;
  const int rc = ::posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc == 0) {
    char buf[4096];
    for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) > 0;) {
      spawned.out.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fds[0]);
  int status = 0;
  if (rc != 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up child process failed");
  }
  spawned.seconds = since(start);
  return spawned;
}

double Outcome::get(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second;
}

void Outcome::fail(const std::string& why) {
  ++failed_;
  std::cerr << "pftk_e2e: FAILED: " << why << "\n";
}

double best_half(std::vector<double> values, bool lower_is_better) {
  if (values.empty()) {
    return 0.0;
  }
  if (lower_is_better) {
    std::sort(values.begin(), values.end());
  } else {
    std::sort(values.begin(), values.end(), std::greater<>());
  }
  const std::size_t k = (values.size() + 1) / 2;
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    sum += values[i];
  }
  return sum / static_cast<double>(k);
}

void RunTotals::report(Outcome& out) const {
  const double scale = host_scale();
  if (!setup_s.empty()) {
    out.set("setup_s", best_half(setup_s, true) * scale);
    out.fact("setup_samples", std::to_string(setup_s.size()));
  }
  const auto join = [](const std::vector<double>& values) {
    std::string joined;
    for (const double v : values) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.4f", joined.empty() ? "" : " ", v);
      joined += buf;
    }
    return joined;
  };
  std::vector<double> wall, cpu, throughput, write_rate, read_rate, p50, p99;
  for (const PassRecord& p : passes) {
    wall.push_back(p.wall);
    cpu.push_back(p.cpu);
    throughput.push_back(p.work / p.wall);
    write_rate.push_back(p.written / 1e6 / p.write_s);
    read_rate.push_back(p.read / 1e6 / p.read_s);
    p50.push_back(p.p50_ms);
    p99.push_back(p.p99_ms);
  }
  out.set("wall_s", best_half(wall, true) * scale);
  out.set("cpu_s", best_half(cpu, true) * scale);
  out.set("throughput_per_s", best_half(throughput, false) / scale);
  out.set("write_mb_per_s", best_half(write_rate, false) / scale);
  out.set("read_mb_per_s", best_half(read_rate, false) / scale);
  if (!item_ms.empty()) {
    std::vector<double> best;
    for (const auto& times : item_ms) {
      best.push_back(best_half(times, true));
    }
    out.set("latency_p50_ms", quantile(best, 0.50) * scale);
    out.set("latency_p99_ms", quantile(best, 0.99) * scale);
  } else {
    out.set("latency_p50_ms", best_half(p50, true) * scale);
    out.set("latency_p99_ms", best_half(p99, true) * scale);
    out.fact("pass_p50_ms", join(p50));
    out.fact("pass_p99_ms", join(p99));
  }
  out.set("rss_peak_mb", median(rss_mb));
  out.fact("passes", std::to_string(passes.size()));
  out.fact("best_half_passes", std::to_string((passes.size() + 1) / 2));
  out.fact("host_scale", std::to_string(scale));
  out.fact("calibration_samples", std::to_string(calibration_samples().size()));
  out.fact("pass_wall_s", join(wall));
  out.fact("pass_rss_mb", join(rss_mb));
}

std::vector<double> repeat_for(double seconds, int min_passes,
                               const std::function<void(int)>& pass) {
  const auto start = Clock::now();
  std::vector<double> durations;
  std::vector<double> rss_mb;
  for (int i = 0;; ++i) {
    // Stop when the next pass, at the median length so far, would end
    // past the budget: a run measures at most `seconds` (min_passes aside).
    if (i >= min_passes && since(start) + median(durations) > seconds) {
      return rss_mb;
    }
    // Start every pass from the same allocator state, as a fresh process
    // would: hand freed heap memory back, then reset VmHWM to the
    // current RSS so the peak read after the pass is this pass's own.
    calibrate(3);
    ::malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
    const auto pass_start = Clock::now();
    pass(i);
    durations.push_back(since(pass_start));
    rss_mb.push_back(peak_rss_mb());
  }
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},          {"wall_s", "s"},
      {"throughput_per_s", "1/s"}, {"cpu_s", "s"},
      {"rss_peak_mb", "MB"},     {"write_mb_per_s", "MB/s"},
      {"read_mb_per_s", "MB/s"}, {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"sim.run_s", "s"},
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.packets_per_s", "1/s"},
      {"sim.packets_sent", "count"},
      {"sim.timeouts", "count"},
      {"sim.construct_us", "us"},
      {"exp.items", "count"},
      {"exp.attempts", "count"},
      {"exp.unique_sim_frac", "fraction"},
      {"exp.journal_bytes", "bytes"},
      {"exp.journal_flushes", "count"},
      {"exp.journal_s", "s"},
      {"trace.events_recorded", "count"},
      {"trace.format_s", "s"},
      {"trace.format_mb_per_s", "MB/s"},
      {"robust.durable_write_s", "s"},
      {"trace.map_s", "s"},
      {"trace.parse_s", "s"},
      {"trace.parse_mb_per_s", "MB/s"},
      {"trace.lines_dropped", "count"},
      {"trace.bytes_dropped", "bytes"},
      {"trace.suspect_final", "count"},
      {"trace.summarize_s", "s"},
      {"trace.intervals_s", "s"},
      {"core.evals", "count"},
      {"core.ns_per_eval", "ns"},
      {"core.score_s", "s"},
      {"core.inverse_calls", "count"},
      {"core.inverse_us", "us"},
      {"serve.requests", "count"},
      {"serve.served", "count"},
      {"serve.shed", "count"},
      {"serve.deadline_missed", "count"},
      {"serve.internal", "count"},
      {"serve.batch_frac", "fraction"},
      {"serve.queue_wait_p50_ms", "ms"},
      {"serve.queue_wait_p99_ms", "ms"},
      {"serve.queue_peak", "count"},
      {"serve.calib_chunks", "count"},
      {"serve.calib_p50_ms", "ms"},
      {"serve.parse_ns", "ns"},
      {"serve.format_ns", "ns"},
      {"mc.states", "count"},
      {"mc.branches", "count"},
      {"mc.terminals", "count"},
      {"mc.pruned", "count"},
      {"mc.truncated", "count"},
      {"mc.prune_frac", "fraction"},
      {"mc.us_per_branch", "us"},
      {"obs.spans", "count"},
      {"obs.spans_dropped", "count"},
      {"bench.trace_overhead_frac", "fraction"},
      {"bench.unattributed_frac", "fraction"},
  };
  return specs;
}

TraceSession::TraceSession(std::string root, std::size_t ring_capacity)
    : root_(std::move(root)) {
  auto& recorder = obs::flight::Recorder::instance();
  recorder.disarm();
  recorder.clear();
  recorder.arm(ring_capacity);
}

TraceSession::~TraceSession() {
  if (!finished_) {
    obs::flight::Recorder::instance().disarm();
  }
}

obs::flight::ProfReport TraceSession::finish(const std::filesystem::path& path,
                                             std::string_view source, Outcome& out) {
  auto& recorder = obs::flight::Recorder::instance();
  recorder.disarm();
  finished_ = true;
  const obs::flight::DrainedSpans drained = recorder.drain();
  std::filesystem::create_directories(path.parent_path());
  obs::flight::save_spans_file(path.string(), drained, source);
  // Profile what was written, through the reader `pftk prof` uses, so a
  // file prof cannot read fails the run instead of passing silently.
  const obs::flight::DrainedSpans loaded = obs::flight::load_spans_file(path.string());
  out.check(loaded.spans.size() == drained.spans.size() &&
                loaded.dropped == drained.dropped,
            "spans file does not round-trip through load_spans_file");
  const obs::flight::ProfReport report = obs::flight::profile_spans(loaded);
  out.set("obs.spans", static_cast<double>(loaded.spans.size()));
  out.set("obs.spans_dropped", static_cast<double>(loaded.dropped));
  out.check(loaded.dropped == 0, "flight recorder dropped spans");
  for (const auto& stats : report.names) {
    if (stats.name == root_) {
      out.set("bench.unattributed_frac",
              stats.inclusive_ns == 0 ? 0.0
                                      : static_cast<double>(stats.exclusive_ns) /
                                            static_cast<double>(stats.inclusive_ns));
    }
  }
  out.check(span_count(report, root_) == 1, "traced run has no root span " + root_);
  out.fact("spans_file", path.string());
  return report;
}

double inclusive_s(const obs::flight::ProfReport& report, std::string_view name) {
  for (const auto& stats : report.names) {
    if (stats.name == name) {
      return static_cast<double>(stats.inclusive_ns) * 1e-9;
    }
  }
  return 0.0;
}

std::uint64_t span_count(const obs::flight::ProfReport& report, std::string_view name) {
  for (const auto& stats : report.names) {
    if (stats.name == name) {
      return stats.count;
    }
  }
  return 0;
}

}  // namespace e2e
