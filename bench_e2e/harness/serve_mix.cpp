// serve_mix — a closed loop against an in-process `pftk serve` Server on
// a unix socket. One connection runs serve::run_load (MODEL over a few
// parameter sets, so the PreparedCache stays hot and requests batch,
// every Nth request INVERSE, answers verified); then a second
// connection sends CALIB requests, one at a time, for 100-s captures of
// the Fig 8 paths generated at set-up. The request count is fixed and
// in-flight requests stay below the admission watermark, so a healthy
// run never sheds. Each verb exercises a different layer: MODEL the codec and
// batching, INVERSE the model kernel, CALIB the istream trace path.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <exception>
#include <optional>
#include <stdexcept>

#include "core/inverse_model.hpp"
#include "exp/path_profile.hpp"
#include "harness.hpp"
#include "obs/flight/flight_recorder.hpp"
#include "serve/load_client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/connection.hpp"
#include "sim/rng.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_recorder.hpp"
#include "trace/trace_summary.hpp"

namespace e2e {
namespace {

namespace exp = pftk::exp;
namespace model = pftk::model;
namespace serve = pftk::serve;
namespace sim = pftk::sim;
namespace trace = pftk::trace;
using obs::flight::Span;

// The mix, sized so each verb takes a comparable share of server time.
constexpr std::uint64_t kLoadRequests = 24000;  ///< MODEL + INVERSE per pass
constexpr int kInverseEvery = 4;                ///< every 4th is INVERSE
constexpr std::uint64_t kPipeline = 32;         ///< < queue depth 64 per shard
constexpr int kShards = 2;
constexpr int kCalibSeeds = 8;                  ///< captures per Fig 8 path
constexpr double kCalibDuration = 100.0;

/// The paper's six Fig 8 panels ("att -> sutton" stands in as manic ->
/// sutton, as in bench/fig8_short_traces).
constexpr std::pair<const char*, const char*> kFig8Paths[] = {
    {"manic", "ganef"}, {"manic", "mafalda"}, {"manic", "tove"},
    {"manic", "maria"}, {"manic", "sutton"},  {"void", "ganef"},
};

struct CalibCapture {
  std::string path;
  int threshold = 3;
  std::uint64_t bytes = 0;
  /// The capture_io analyze path's answer: load_trace_file_lenient +
  /// summarize_trace, rendered the way the server renders numbers.
  std::string p, rtt, t0;
};

/// A blocking line client over a unix stream socket.
class LineClient {
 public:
  explicit LineClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      const std::string why = std::strerror(errno);
      close();
      throw std::runtime_error("cannot connect to " + path + ": " + why);
    }
  }
  ~LineClient() { close(); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Sends one request line and returns the response line.
  std::string round_trip(const std::string& line) {
    const std::string wire = line + "\n";
    for (std::size_t sent = 0; sent < wire.size();) {
      const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        throw std::runtime_error("send failed: " + std::string(std::strerror(errno)));
      }
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const auto nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string response = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return response;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) {
        throw std::runtime_error("connection closed before a response");
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  void close() noexcept {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  int fd_ = -1;
  std::string buffer_;
};

std::vector<CalibCapture> make_calib_captures(std::uint64_t seed, const std::string& dir) {
  std::vector<CalibCapture> captures;
  std::uint64_t stream = 300;
  for (const auto& [sender, receiver] : kFig8Paths) {
    const exp::PathProfile profile = exp::profile_by_label(sender, receiver);
    for (int i = 0; i < kCalibSeeds; ++i) {
      sim::Connection conn(
          exp::make_connection_config(profile, sim::derive_stream_seed(seed, stream++)));
      trace::TraceRecorder recorder;
      conn.set_observer(&recorder);
      (void)conn.run_for(kCalibDuration);
      CalibCapture c;
      c.path = dir + "/calib-" + std::to_string(captures.size()) + ".tsv";
      c.threshold = profile.dupack_threshold();
      trace::save_trace_file(c.path, recorder.events());
      c.bytes = file_size(c.path);
      const auto loaded = trace::load_trace_file_lenient(c.path);
      const auto summary = trace::summarize_trace(loaded, c.threshold);
      c.p = serve::format_number(summary.observed_p);
      c.rtt = serve::format_number(summary.avg_rtt);
      c.t0 = serve::format_number(summary.avg_timeout);
      captures.push_back(std::move(c));
    }
  }
  return captures;
}

std::string calib_line(const CalibCapture& c, std::size_t id) {
  return "CALIB k" + std::to_string(id) + " trace=" + c.path +
         " dupack=" + std::to_string(c.threshold);
}

struct Pass {
  double setup = 0.0;  ///< start() until the first PING answer
  double wall = 0.0;
  double cpu = 0.0;
  serve::LoadReport load;
  serve::ServeSummary server;
  std::vector<double> calib_ms;
  std::uint64_t calib_sent = 0;
  std::uint64_t calib_ok = 0;
  std::uint64_t calib_mismatch = 0;
  std::string calib_error;
  std::uint64_t snapshot_bytes = 0;  ///< durable metrics written at drain
};

double start_and_ping(serve::Server& server, const std::string& socket) {
  const auto start = Clock::now();
  server.start();
  LineClient client(socket);
  const std::string pong = client.round_trip("PING p0");
  const double secs = since(start);
  if (pong.rfind("OK p0", 0) != 0) {
    throw std::runtime_error("PING answered '" + pong + "'");
  }
  return secs;
}

/// `pftk serve --shards 2 --metrics-out FILE`: defaults otherwise
/// (queue depth 64 per shard, no default deadline).
serve::ServeConfig server_config(const std::string& socket, const std::string& metrics_out) {
  serve::ServeConfig config;
  config.socket_path = socket;
  config.shards = kShards;
  config.metrics_out = metrics_out;
  return config;
}

/// One serve session: start, the two clients' closed loops, and the
/// graceful drain that writes the durable metrics snapshot.
Pass run_pass(const std::string& socket, const std::string& metrics_out,
              const std::vector<CalibCapture>& captures, std::uint64_t load_seed) {
  Pass pass;
  serve::Server server(server_config(socket, metrics_out));
  pass.setup = start_and_ping(server, socket);

  serve::LoadConfig load;
  load.socket_path = socket;
  load.requests = kLoadRequests;
  load.connections = 1;
  load.pipeline = kPipeline;
  load.seed = load_seed;
  load.param_sets = 4;
  load.inverse_every = kInverseEvery;
  load.verify = true;

  const PassTimer timer;
  {
    const Span span("serve.run_load");
    pass.load = serve::run_load(load);
  }
  // CALIB after the load, on a second connection. A CALIB request holds
  // a shard's worker for milliseconds; MODEL requests queued behind it
  // would put that wait, not the codec and batching path, into the
  // MODEL/INVERSE p99, in some runs and not in others.
  try {
    LineClient client(socket);
    for (std::size_t k = 0; k < captures.size(); ++k) {
      const auto start = Clock::now();
      std::string line;
      {
        const Span span("serve.calib_request");
        ++pass.calib_sent;
        line = client.round_trip(calib_line(captures[k], k));
      }
      pass.calib_ms.push_back(since(start) * 1e3);
      const serve::Response response = serve::parse_response(line);
      const std::string* p = response.find("p");
      const std::string* rtt = response.find("rtt");
      const std::string* t0 = response.find("t0");
      const std::string* dropped = response.find("lines_dropped");
      if (response.ok && p && rtt && t0 && dropped && *p == captures[k].p &&
          *rtt == captures[k].rtt && *t0 == captures[k].t0 && *dropped == "0") {
        ++pass.calib_ok;
      } else {
        ++pass.calib_mismatch;
      }
    }
  } catch (const std::exception& ex) {
    pass.calib_error = ex.what();
  }
  {
    const Span span("serve.drain");
    server.request_stop();
    pass.server = server.wait();
  }
  pass.wall = timer.wall();
  pass.cpu = timer.cpu();
  pass.snapshot_bytes = file_size(metrics_out);
  return pass;
}

void check_pass(const Pass& pass, std::size_t calib_count, Outcome& out) {
  const auto& l = pass.load;
  const auto& s = pass.server;
  out.attempt(l.sent + pass.calib_sent);
  out.check(pass.calib_error.empty(), "CALIB client: " + pass.calib_error);
  out.check(l.accounting_ok() && l.sent == kLoadRequests && l.ok == l.sent,
            "client identity sent == ok+busy+deadline+errors+lost broken or not all ok: " +
                l.describe());
  out.check(l.busy == 0 && l.lost == 0 && l.errors == 0 && l.deadline == 0 &&
                l.protocol_errors == 0,
            "load client saw busy/lost/errors: " + l.describe());
  out.check(l.verify_failures == 0,
            std::to_string(l.verify_failures) + " MODEL/INVERSE answers failed verification");
  out.check(s.accounting_ok() && s.shed == 0 && s.deadline_missed == 0 &&
                s.internal_errors == 0,
            "server identity requests == served+shed+deadline_missed+internal broken or "
            "nonzero: " + s.describe());
  out.check(s.requests == l.sent + pass.calib_sent && s.served == s.requests,
            "server and clients disagree on the request count");
  out.check(pass.calib_sent == calib_count, "not every CALIB request was sent");
  for (std::uint64_t i = 0; i < pass.calib_mismatch; ++i) {
    out.fail("CALIB answer differs from the capture_io analyze path's");
  }
}

/// The workload's own request lines (the load client's grammar and
/// parameter sets, plus the CALIB lines) for the codec micro-timings.
std::vector<std::string> workload_lines(std::uint64_t seed,
                                        const std::vector<CalibCapture>& captures) {
  sim::Rng rng(sim::derive_stream_seed(seed, 400));
  std::vector<std::string> lines;
  for (int i = 0; i < 512; ++i) {
    const int set = i % 4;
    const double rtt = 0.05 + 0.05 * static_cast<double>(set % 8);
    const double p = 0.0005 + rng.uniform() * (0.2 - 0.0005);
    const std::string common = " rtt=" + serve::format_number(rtt) +
                               " t0=" + serve::format_number(4.0 * rtt) +
                               " b=" + std::to_string(1 + set % 2) +
                               " wm=" + serve::format_number(8 << (set % 5));
    if (i % kInverseEvery == 0) {
      lines.push_back("INVERSE c0-" + std::to_string(i) +
                      " rate=" + serve::format_number(0.5 / (rtt * std::sqrt(p))) + common);
    } else {
      lines.push_back("MODEL c0-" + std::to_string(i) + " p=" + serve::format_number(p) +
                      common + " model=full");
    }
  }
  for (std::size_t k = 0; k < captures.size(); ++k) {
    lines.push_back(calib_line(captures[k], k));
  }
  return lines;
}

}  // namespace

void run_serve_mix(const Options& options, Outcome& out) {
  const std::string dir = options.work_dir.string();
  const std::string socket = dir + "/s.sock";
  const std::string metrics_out = dir + "/serve.obs.jsonl";
  const std::uint64_t load_seed = sim::derive_stream_seed(options.seed, 5);
  const std::vector<CalibCapture> captures = make_calib_captures(options.seed, dir);
  std::uint64_t calib_bytes = 0;
  for (const auto& c : captures) {
    calib_bytes += c.bytes;
  }
  out.fact("connections", "2 (1 run_load, 1 CALIB)");
  out.fact("server_shards", std::to_string(kShards));
  out.fact("load_requests", std::to_string(kLoadRequests));
  out.fact("calib_requests", std::to_string(captures.size()));
  out.fact("calib_bytes", std::to_string(calib_bytes));

  RunTotals samples;
  // Set-up alone, a few times: start() until the first PING is answered.
  for (int i = 0; i < 5; ++i) {
    serve::Server server(server_config(socket, metrics_out));
    samples.setup_s.push_back(start_and_ping(server, socket));
    server.request_stop();
    (void)server.wait();
  }

  if (!options.trace) {
    std::uint64_t latency_samples = 0;
    samples.rss_mb = repeat_for(options.seconds, 3, [&](int) {
      const Pass pass = run_pass(socket, metrics_out, captures, load_seed);
      check_pass(pass, captures.size(), out);
      samples.setup_s.push_back(pass.setup);
      // run_load's exact client-side order statistics of the session.
      samples.passes.push_back({pass.wall, pass.cpu,
                                static_cast<double>(pass.load.sent + pass.calib_sent),
                                static_cast<double>(pass.snapshot_bytes), pass.wall,
                                static_cast<double>(calib_bytes), pass.wall, pass.load.p50_ms,
                                pass.load.p99_ms});
      latency_samples = pass.load.ok;
    });
    samples.report(out);
    out.fact("latency_samples", std::to_string(latency_samples) + " per pass (MODEL+INVERSE)");
    return;
  }

  check_pass(run_pass(socket, metrics_out, captures, load_seed), captures.size(), out);  // warm-up
  const Pass baseline = run_pass(socket, metrics_out, captures, load_seed);
  check_pass(baseline, captures.size(), out);
  Pass traced;
  {
    TraceSession session("bench.serve_mix", 1u << 18);
    {
      const Span root("bench.serve_mix");
      traced = run_pass(socket, metrics_out, captures, load_seed);
    }
    const auto report = session.finish(
        options.spans_dir / ("serve_mix-seed" + std::to_string(options.seed) + ".jsonl"),
        "e2e.serve_mix", out);
    out.check(report.serve.present && report.serve.holds(),
              "accounting identity does not hold over the serve.req.* marker spans");
  }
  check_pass(traced, captures.size(), out);

  const auto& s = traced.server;
  out.set("serve.requests", static_cast<double>(s.requests));
  out.set("serve.served", static_cast<double>(s.served));
  out.set("serve.shed", static_cast<double>(s.shed));
  out.set("serve.deadline_missed", static_cast<double>(s.deadline_missed));
  out.set("serve.internal", static_cast<double>(s.internal_errors));
  out.set("serve.batch_frac", static_cast<double>(s.batched_requests) /
                                  static_cast<double>(std::max<std::uint64_t>(s.requests, 1)));
  out.set("serve.queue_wait_p50_ms", s.queue_wait_p50_ms);
  out.set("serve.queue_wait_p99_ms", s.queue_wait_p99_ms);
  out.set("serve.queue_peak", static_cast<double>(s.queue_peak));
  out.set("serve.calib_chunks", static_cast<double>(s.calib_chunks));
  out.set("serve.calib_p50_ms", median(traced.calib_ms));
  out.set("bench.trace_overhead_frac", traced.wall / baseline.wall - 1.0);
  // run_load's script sends INVERSE for request i when i % N == 0, i > 0.
  const std::uint64_t inverse_calls = (kLoadRequests - 1) / kInverseEvery;
  out.set("core.inverse_calls", static_cast<double>(inverse_calls));

  // Codec and kernel costs on the workload's own lines, untraced.
  const auto lines = workload_lines(options.seed, captures);
  std::vector<serve::Request> requests;
  for (const auto& line : lines) {
    requests.push_back(serve::parse_request(line));
  }
  std::size_t next = 0;
  out.set("serve.parse_ns", 1e9 * median_call_seconds(15, 2000, [&] {
            const serve::Request r = serve::parse_request(lines[next++ % lines.size()]);
            out.check(!r.id.empty(), "parse_request lost the id");
          }));
  out.set("serve.format_ns", 1e9 * median_call_seconds(15, 2000, [&] {
            const std::string line = serve::format_ok(
                "c0-1", {{"rate", serve::format_number(1234.5678 + static_cast<double>(next++))},
                         {"model", "full"}});
            out.check(!line.empty(), "format_ok returned nothing");
          }));
  // Unreachable targets legitimately answer inf; the sum only keeps
  // the calls observable.
  double sink = 0.0;
  out.set("core.inverse_us", 1e6 * median_call_seconds(15, 50, [&] {
            const serve::Request& r = requests[(next++ % 128) * kInverseEvery];
            sink += model::max_loss_for_rate(r.params, r.target_rate) +
                    model::required_window_for_rate(r.params, r.target_rate);
          }));
  out.fact("inverse_sum", serve::format_number(sink));
}

}  // namespace e2e
