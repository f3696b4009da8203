// capture_io — the `pftk simulate ... FILE` -> `pftk analyze FILE` round
// trip. Set-up simulates one hour capture per Table II profile (more
// bytes than the last-level cache) and writes a seeded subset of damaged
// copies (CRLF line endings, a garbage line, a torn final record). The
// timed pass saves every capture with save_trace_file, then loads every
// file with load_trace_file_lenient and runs summarize_trace +
// analyze_intervals + the three models on it. Writes and reads of the
// same trace layer share one workload, so a gain in one direction that
// costs the other shows. sim (set-up only), serve and mc are bypassed.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <optional>
#include <sstream>

#include "core/model_registry.hpp"
#include "exp/path_profile.hpp"
#include "harness.hpp"
#include "obs/flight/flight_recorder.hpp"
#include "robust/durable_file.hpp"
#include "sim/connection.hpp"
#include "sim/rng.hpp"
#include "trace/interval_analyzer.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_reader_fast.hpp"
#include "trace/trace_recorder.hpp"
#include "trace/trace_summary.hpp"

namespace e2e {
namespace {

namespace exp = pftk::exp;
namespace model = pftk::model;
namespace robust = pftk::robust;
namespace sim = pftk::sim;
namespace trace = pftk::trace;
using obs::flight::Span;

constexpr double kDuration = 3600.0;
constexpr double kInterval = 100.0;

struct Capture {
  std::string label;
  int threshold = 3;
  std::vector<trace::TraceEvent> events;
  trace::TraceSummary summary;  ///< of the in-memory events
  std::string path;
};

enum class Damage { kCrlf, kGarbageLine, kTornFinal };

const char* damage_name(Damage d) {
  switch (d) {
    case Damage::kCrlf:
      return "crlf";
    case Damage::kGarbageLine:
      return "garbage_line";
    case Damage::kTornFinal:
      return "torn_final";
  }
  return "?";
}

/// A damaged copy of one capture and the report the damage must produce.
struct DamagedFile {
  std::size_t source = 0;  ///< index into the captures
  Damage damage = Damage::kCrlf;
  std::string path;
  std::uint64_t bytes = 0;
  std::size_t lines_dropped = 0;
  std::size_t bytes_dropped = 0;
  std::size_t first_error_line = 0;
  bool truncated = false;
  std::size_t events = 0;  ///< expected events parsed
};

/// What one load + analysis produced.
struct Analysis {
  std::vector<trace::TraceEvent> events;
  trace::TraceReadReport report;
  trace::TraceSummary summary;
  std::vector<trace::IntervalObservation> intervals;
  double rates[3] = {0.0, 0.0, 0.0};
};

std::uint64_t digest_events(const std::vector<trace::TraceEvent>& events) {
  std::uint64_t h = fnv1a({});
  for (const auto& e : events) {
    h = fnv1a({reinterpret_cast<const char*>(&e.t), sizeof e.t}, h);
    h = fnv1a({reinterpret_cast<const char*>(&e.seq), sizeof e.seq}, h);
    h = fnv1a({reinterpret_cast<const char*>(&e.value), sizeof e.value}, h);
    h = fnv1a({reinterpret_cast<const char*>(&e.cwnd), sizeof e.cwnd}, h);
    const std::uint64_t small = static_cast<std::uint64_t>(e.type) |
                                (static_cast<std::uint64_t>(e.retransmission) << 8) |
                                (static_cast<std::uint64_t>(e.duplicate) << 9) |
                                (static_cast<std::uint64_t>(e.consecutive) << 16) |
                                (static_cast<std::uint64_t>(e.in_flight) << 32);
    h = fnv1a({reinterpret_cast<const char*>(&small), sizeof small}, h);
  }
  return h;
}

/// Simulates the hour captures (the `pftk simulate` half, untimed).
std::vector<Capture> simulate_captures(std::uint64_t seed, const std::string& dir) {
  std::vector<Capture> captures;
  const auto profiles = exp::table2_profiles();
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const auto& profile = profiles[i];
    sim::Connection conn(exp::make_connection_config(
        profile, sim::derive_stream_seed(seed, 100 + static_cast<std::uint64_t>(i))));
    trace::TraceRecorder recorder;
    recorder.reserve(static_cast<std::size_t>(kDuration * 100.0));
    conn.set_observer(&recorder);
    (void)conn.run_for(kDuration);
    Capture capture;
    capture.label = profile.label();
    capture.threshold = profile.dupack_threshold();
    capture.events = recorder.events();
    capture.summary = trace::summarize_trace(capture.events, capture.threshold);
    capture.path = dir + "/capture-" + std::to_string(i) + ".tsv";
    captures.push_back(std::move(capture));
  }
  return captures;
}

/// Writes the seeded damaged copies: two of each kind, on distinct
/// captures, plus the exact report each must produce.
std::vector<DamagedFile> write_damaged(const std::vector<Capture>& captures,
                                       std::uint64_t seed, const std::string& dir) {
  sim::Rng rng(sim::derive_stream_seed(seed, 200));
  std::vector<std::size_t> order(captures.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  for (std::size_t i = order.size(); i > 1; --i) {  // Fisher-Yates
    const auto j = static_cast<std::size_t>(rng.uniform() * static_cast<double>(i));
    std::swap(order[i - 1], order[std::min(j, i - 1)]);
  }
  const Damage kinds[] = {Damage::kCrlf, Damage::kCrlf, Damage::kGarbageLine,
                          Damage::kGarbageLine, Damage::kTornFinal, Damage::kTornFinal};
  std::vector<DamagedFile> damaged;
  for (std::size_t k = 0; k < std::size(kinds); ++k) {
    const Capture& capture = captures[order[k]];
    std::ostringstream os;
    trace::write_trace(os, capture.events);
    std::string text = os.str();
    DamagedFile file;
    file.source = order[k];
    file.damage = kinds[k];
    file.path = dir + "/damaged-" + std::to_string(k) + "-" + damage_name(kinds[k]) + ".tsv";
    file.events = capture.events.size();
    if (kinds[k] == Damage::kCrlf) {
      std::string crlf;
      crlf.reserve(text.size() + capture.events.size() + 1);
      for (const char c : text) {
        if (c == '\n') {
          crlf += '\r';
        }
        crlf += c;
      }
      text = std::move(crlf);
    } else if (kinds[k] == Damage::kGarbageLine) {
      // After line L (1-based; line 1 is the header) insert one line no
      // record grammar accepts; it becomes line L + 1.
      const std::size_t lines = capture.events.size() + 1;
      const std::size_t after =
          1 + static_cast<std::size_t>(rng.uniform() * static_cast<double>(lines - 1));
      std::size_t pos = 0;
      for (std::size_t line = 0; line < after; ++line) {
        pos = text.find('\n', pos) + 1;
      }
      const std::string garbage = "X\tnot-a-record\t" + std::to_string(after) + "\n";
      text.insert(pos, garbage);
      file.lines_dropped = 1;
      file.bytes_dropped = garbage.size();
      file.first_error_line = after + 1;
    } else {
      // Cut the final record inside its time field: the kept prefix has
      // too few fields to parse, so the reader must drop it and flag the
      // file as truncated.
      const std::size_t last = text.rfind('\n', text.size() - 2) + 1;
      const std::size_t tab = text.find('\t', last);
      const std::size_t keep_time = 1 + static_cast<std::size_t>(rng.uniform() * 4.0);
      text.resize(tab + 1 + keep_time);
      file.lines_dropped = 1;
      file.bytes_dropped = text.size() - last;
      file.first_error_line = capture.events.size() + 1;
      file.truncated = true;
      file.events = capture.events.size() - 1;
    }
    std::ofstream(file.path, std::ios::binary) << text;
    file.bytes = text.size();
    damaged.push_back(std::move(file));
  }
  return damaged;
}

/// The `pftk analyze FILE` half: lenient load, Table II summary, Fig 7
/// intervals, the three models at the trace-level parameters.
Analysis analyze(const std::string& path, int threshold) {
  Analysis a;
  {
    const Span span("trace.load");
    a.events = trace::load_trace_file_lenient(path, &a.report);
  }
  {
    const Span span("trace.summarize");
    a.summary = trace::summarize_trace(a.events, threshold);
  }
  {
    const Span span("trace.intervals");
    a.intervals = trace::analyze_intervals(a.events, kDuration, kInterval, threshold);
  }
  model::ModelParams params;
  params.p = a.summary.observed_p;
  params.rtt = a.summary.avg_rtt;
  params.t0 = a.summary.avg_timeout;
  params.b = 2;
  params.wm = model::ModelParams::unlimited_window;
  if (params.valid()) {
    const Span span("core.eval");
    for (std::size_t m = 0; m < model::all_model_kinds.size(); ++m) {
      a.rates[m] = model::evaluate_model(model::all_model_kinds[m], params);
    }
  }
  return a;
}

/// Events equal at the file format's precision: integers exactly,
/// doubles within half a unit of the 9th decimal.
bool same_events(const std::vector<trace::TraceEvent>& got,
                 const std::vector<trace::TraceEvent>& want, std::size_t count) {
  if (got.size() != count || want.size() < count) {
    return false;
  }
  const auto close = [](double a, double b) {
    return std::fabs(a - b) <= 0.5e-9 + 1e-12 * std::fabs(b);
  };
  for (std::size_t i = 0; i < count; ++i) {
    const auto& g = got[i];
    const auto& w = want[i];
    if (g.type != w.type || g.seq != w.seq || g.retransmission != w.retransmission ||
        g.duplicate != w.duplicate || g.consecutive != w.consecutive ||
        g.in_flight != w.in_flight || !close(g.t, w.t) || !close(g.value, w.value) ||
        !close(g.cwnd, w.cwnd)) {
      return false;
    }
  }
  return true;
}

bool same_counts(const trace::TraceSummary& a, const trace::TraceSummary& b) {
  return a.packets_sent == b.packets_sent && a.loss_indications == b.loss_indications &&
         a.td_events == b.td_events && a.timeouts_by_depth == b.timeouts_by_depth &&
         a.observed_p == b.observed_p;
}

bool same_summary(const trace::TraceSummary& a, const trace::TraceSummary& b) {
  return same_counts(a, b) && a.avg_rtt == b.avg_rtt && a.avg_timeout == b.avg_timeout &&
         a.rtt_window_correlation == b.rtt_window_correlation;
}

struct PassResult {
  double write_s = 0.0;
  double read_s = 0.0;
  double cpu = 0.0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  std::vector<double> save_s;      ///< per clean capture
  std::vector<double> save_bytes;  ///< per clean capture
  std::vector<double> load_s;      ///< per file read: clean, then damaged
  std::vector<double> load_bytes;  ///< per file read
};

/// Gate state carried across passes: the first pass's loaded summaries
/// (every later pass must reproduce them bit for bit).
struct Reference {
  std::vector<std::optional<trace::TraceSummary>> clean;
};

void check_clean(const Capture& capture, const Analysis& a, std::size_t index,
                 Reference& ref, Outcome& out) {
  out.check(a.report.clean() && a.report.events_parsed == capture.events.size(),
            capture.label + ": clean capture read back with a dirty report: " +
                a.report.describe());
  out.check(same_events(a.events, capture.events, capture.events.size()),
            capture.label + ": events differ after the round trip");
  out.check(same_counts(a.summary, capture.summary),
            capture.label + ": summary differs from the in-memory capture's");
  out.check(std::isfinite(a.rates[0]) && a.rates[0] > 0.0 && std::isfinite(a.rates[1]) &&
                a.rates[1] > 0.0 && std::isfinite(a.rates[2]) && a.rates[2] > 0.0,
            capture.label + ": a model rate at the capture's parameters is not positive");
  if (!ref.clean[index]) {
    ref.clean[index] = a.summary;
  }
  out.check(same_summary(a.summary, *ref.clean[index]),
            capture.label + ": summary differs between passes");
}

void check_damaged(const Capture& source, const DamagedFile& file, const Analysis& a,
                   Outcome& out) {
  const auto& r = a.report;
  out.check(r.lines_dropped == file.lines_dropped && r.bytes_dropped == file.bytes_dropped &&
                r.truncated == file.truncated && !r.suspect_final_event &&
                r.first_error_line == file.first_error_line &&
                r.events_parsed == file.events,
            file.path + ": report '" + r.describe() + "' does not match the " +
                damage_name(file.damage) + " damage injected");
  out.check(same_events(a.events, source.events, file.events),
            file.path + ": salvaged events differ from the capture's");
}

PassResult run_pass(const std::vector<Capture>& captures,
                    const std::vector<DamagedFile>& damaged, Reference& ref, Outcome& out) {
  PassResult pass;
  {
    const PassTimer timer;
    for (std::size_t i = 0; i < captures.size(); ++i) {
      const auto start = Clock::now();
      {
        const Span span("trace.save");
        trace::save_trace_file(captures[i].path, captures[i].events);
      }
      pass.save_s.push_back(since(start));
    }
    pass.write_s = timer.wall();
    pass.cpu += timer.cpu();
  }
  for (const auto& capture : captures) {
    pass.bytes_written += file_size(capture.path);
    pass.save_bytes.push_back(static_cast<double>(file_size(capture.path)));
  }
  // Each file is timed on its own so the gate's comparisons between
  // files stay out of the read phase.
  for (std::size_t i = 0; i < captures.size(); ++i) {
    const PassTimer timer;
    const Analysis a = analyze(captures[i].path, captures[i].threshold);
    const double secs = timer.wall();
    pass.read_s += secs;
    pass.cpu += timer.cpu();
    pass.bytes_read += file_size(captures[i].path);
    pass.load_s.push_back(secs);
    pass.load_bytes.push_back(static_cast<double>(file_size(captures[i].path)));
    out.attempt();
    const Span span("bench.check");
    check_clean(captures[i], a, i, ref, out);
  }
  for (const auto& file : damaged) {
    const Capture& source = captures[file.source];
    const PassTimer timer;
    const Analysis a = analyze(file.path, source.threshold);
    const double secs = timer.wall();
    pass.read_s += secs;
    pass.cpu += timer.cpu();
    pass.bytes_read += file.bytes;
    pass.load_s.push_back(secs);
    pass.load_bytes.push_back(static_cast<double>(file.bytes));
    out.attempt();
    const Span span("bench.check");
    check_damaged(source, file, a, out);
  }
  return pass;
}

/// The traced run's re-drive of the layers save_trace_file and
/// load_trace_file_lenient reach only inside themselves: formatting,
/// the durable write, the mapping and the parse. Returns the bytes
/// formatted and parsed.
std::pair<std::uint64_t, std::uint64_t> redrive(const std::vector<Capture>& captures,
                                                const std::vector<DamagedFile>& damaged,
                                                Outcome& out) {
  std::uint64_t formatted = 0;
  std::uint64_t parsed = 0;
  trace::TraceReadReport totals;
  std::size_t suspect = 0;
  const auto map_and_parse = [&](const std::string& path) {
    trace::MmapFile map;
    {
      const Span span("trace.map");
      out.check(map.open(path), "cannot map " + path);
    }
    trace::TraceReadReport report;
    std::vector<trace::TraceEvent> events;
    {
      const Span span("trace.parse");
      events = trace::read_trace_buffer(map.view(), &report);
    }
    parsed += map.view().size();
    totals.lines_dropped += report.lines_dropped;
    totals.bytes_dropped += report.bytes_dropped;
    suspect += report.suspect_final_event ? 1 : 0;
    return std::make_pair(std::move(events), report);
  };
  for (const auto& capture : captures) {
    std::string text;
    {
      const Span span("trace.format");
      std::ostringstream os;
      trace::write_trace(os, capture.events);
      text = os.str();
    }
    formatted += text.size();
    {
      const Span span("robust.durable_write");
      robust::atomic_write_file(capture.path, text, "trace.write");
    }
    const auto [events, report] = map_and_parse(capture.path);
    out.check(report.clean() && same_events(events, capture.events, capture.events.size()),
              capture.label + ": re-driven write + parse differs from the capture");
  }
  for (const auto& file : damaged) {
    const auto [events, report] = map_and_parse(file.path);
    out.check(report.lines_dropped == file.lines_dropped &&
                  report.bytes_dropped == file.bytes_dropped,
              file.path + ": re-driven parse report differs from the damage injected");
  }
  out.set("trace.lines_dropped", static_cast<double>(totals.lines_dropped));
  out.set("trace.bytes_dropped", static_cast<double>(totals.bytes_dropped));
  out.set("trace.suspect_final", static_cast<double>(suspect));
  return {formatted, parsed};
}

}  // namespace

void run_capture_io(const Options& options, Outcome& out) {
  const std::string dir = options.work_dir.string();
  // Set-up: simulate every capture and write the damaged copies. The
  // digest lets the set-up repeats in child processes prove captures
  // are a pure function of the seed.
  const std::vector<Capture> captures = simulate_captures(options.seed, dir);
  const std::vector<DamagedFile> damaged = write_damaged(captures, options.seed, dir);
  std::uint64_t digest = fnv1a({});
  for (const auto& capture : captures) {
    digest = fnv1a(std::to_string(digest_events(capture.events)), digest);
  }
  for (const auto& file : damaged) {
    digest = fnv1a(read_file(file.path), digest);
  }
  out.fact("setup_digest", std::to_string(digest));
  if (options.setup_only) {
    return;
  }
  RunTotals samples;
  std::uint64_t events = 0;
  for (const auto& c : captures) {
    events += c.events.size();
  }
  out.fact("threads", "1 (+ chunk-parallel parse up to nproc)");
  out.fact("captures", std::to_string(captures.size()));
  out.fact("damaged_files", std::to_string(damaged.size()));
  out.fact("capture_events", std::to_string(events));

  Reference ref;
  ref.clean.resize(captures.size());
  std::uint64_t capture_bytes = 0;
  // Per file, every pass: [file][pass] seconds, and the file's bytes.
  std::vector<std::vector<double>> save_s;
  std::vector<std::vector<double>> load_s;
  std::vector<double> save_bytes;
  std::vector<double> load_bytes;
  const auto record = [&](const PassResult& pass) {
    const auto written = static_cast<double>(pass.bytes_written);
    const auto read = static_cast<double>(pass.bytes_read);
    samples.passes.push_back({pass.write_s + pass.read_s, pass.cpu, (written + read) / 1e6,
                              written, pass.write_s, read, pass.read_s});
    // A clean capture's latency: its save + its load and analysis.
    samples.item_ms.resize(pass.save_s.size());
    for (std::size_t i = 0; i < pass.save_s.size(); ++i) {
      samples.item_ms[i].push_back((pass.save_s[i] + pass.load_s[i]) * 1e3);
    }
    save_s.resize(pass.save_s.size());
    for (std::size_t i = 0; i < pass.save_s.size(); ++i) {
      save_s[i].push_back(pass.save_s[i]);
    }
    load_s.resize(pass.load_s.size());
    for (std::size_t i = 0; i < pass.load_s.size(); ++i) {
      load_s[i].push_back(pass.load_s[i]);
    }
    save_bytes = pass.save_bytes;
    load_bytes = pass.load_bytes;
    capture_bytes = pass.bytes_written;
  };
  // Like the latencies, the two rates are per file: bytes over the sum
  // of each file's best half of its save (load) times.
  const auto best_rate = [](const std::vector<std::vector<double>>& seconds,
                            const std::vector<double>& bytes) {
    double total_s = 0.0;
    for (const auto& times : seconds) {
      total_s += best_half(times, true);
    }
    return std::accumulate(bytes.begin(), bytes.end(), 0.0) / 1e6 / total_s / host_scale();
  };

  if (!options.trace) {
    samples.rss_mb = repeat_for(options.seconds, 3, [&](int) {
      record(run_pass(captures, damaged, ref, out));
    });
    samples.report(out);
    out.set("write_mb_per_s", best_rate(save_s, save_bytes));
    out.set("read_mb_per_s", best_rate(load_s, load_bytes));
    out.fact("latency_samples",
             std::to_string(captures.size()) + " clean captures, best half of each");
    out.fact("capture_bytes", std::to_string(capture_bytes));
    return;
  }

  (void)run_pass(captures, damaged, ref, out);  // warm-up
  const PassResult baseline = run_pass(captures, damaged, ref, out);
  TraceSession session("bench.capture_io", 1u << 18);
  double traced_wall = 0.0;
  std::pair<std::uint64_t, std::uint64_t> redriven;
  {
    const Span root("bench.capture_io");
    const PassResult traced = run_pass(captures, damaged, ref, out);
    traced_wall = traced.write_s + traced.read_s;
    redriven = redrive(captures, damaged, out);
  }
  const auto report = session.finish(
      options.spans_dir / ("capture_io-seed" + std::to_string(options.seed) + ".jsonl"),
      "e2e.capture_io", out);
  const double format_s = inclusive_s(report, "trace.format");
  const double parse_s = inclusive_s(report, "trace.parse");
  const auto [formatted, parsed] = redriven;
  out.set("trace.events_recorded", static_cast<double>(events));
  out.set("trace.format_s", format_s);
  out.set("trace.format_mb_per_s",
          static_cast<double>(formatted) / 1e6 / std::max(format_s, 1e-12));
  out.set("robust.durable_write_s", inclusive_s(report, "robust.durable_write"));
  out.set("trace.map_s", inclusive_s(report, "trace.map"));
  out.set("trace.parse_s", parse_s);
  out.set("trace.parse_mb_per_s", static_cast<double>(parsed) / 1e6 / std::max(parse_s, 1e-12));
  out.set("trace.summarize_s", inclusive_s(report, "trace.summarize"));
  out.set("trace.intervals_s", inclusive_s(report, "trace.intervals"));
  const auto evals = static_cast<double>(span_count(report, "core.eval") * 3);
  out.set("core.evals", evals);
  out.set("core.ns_per_eval", inclusive_s(report, "core.eval") * 1e9 / std::max(evals, 1.0));
  out.set("bench.trace_overhead_frac",
          traced_wall / (baseline.write_s + baseline.read_s) - 1.0);
}

}  // namespace e2e
