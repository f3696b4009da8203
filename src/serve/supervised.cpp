#include "serve/supervised.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/flight/flight_recorder.hpp"
#include "robust/durable_file.hpp"
#include "robust/shutdown.hpp"

namespace pftk::serve {
namespace {

namespace flight = obs::flight;

/// Where worker `index` drains its snapshot: staged next to the merged
/// output when one was requested (kept after the merge — they are the
/// multi-file `pftk obs summarize` inputs), TMPDIR scratch otherwise.
std::string worker_snapshot_path(const SupervisedServeConfig& config,
                                 int index) {
  if (!config.serve.metrics_out.empty()) {
    return config.serve.metrics_out + ".w" + std::to_string(index);
  }
  const char* tmp = std::getenv("TMPDIR");
  std::ostringstream os;
  os << (tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") << "/pftk-sup-"
     << ::getpid() << "-w" << index << ".jsonl";
  return os.str();
}

/// One PING round trip through the public socket with a 1 s receive
/// budget. Runs in the parent's supervising thread: catches "every
/// worker heartbeats but none accepts" (e.g. all wedged past accept).
bool self_ping(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return false;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return false;
  }
  timeval tv{};
  tv.tv_sec = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const char ping[] = "PING sup\n";
  const char* p = ping;
  std::size_t left = sizeof(ping) - 1;
  while (left > 0) {
    const ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  char buf[64];
  const ssize_t n = ::recv(fd, buf, sizeof(buf) - 1, 0);
  ::close(fd);
  if (n <= 0) {
    return false;
  }
  buf[n] = '\0';
  return std::strncmp(buf, "OK sup", 6) == 0;
}

/// The child body: adopt the shared fd, serve until the supervisor's
/// SIGTERM flips the shutdown flag, drain, snapshot, exit 3. Runs after
/// fork — _exit()s through the supervisor, never unwinds into main().
int serve_worker(const SupervisedServeConfig& config, int listen_fd,
                 const robust::WorkerContext& ctx) {
  // The forked child inherited the parent's ShutdownGuard *state* (the
  // static flag), not its intent: re-arm fresh so only signals aimed at
  // this worker drain it.
  robust::ShutdownGuard::reset();
  robust::ShutdownGuard guard;
  try {
    ServeConfig wc = config.serve;
    wc.listen_fd = listen_fd;
    wc.degrade_flag = ctx.degraded;
    wc.metrics_out = worker_snapshot_path(config, ctx.index);
    // Drain-only snapshots: a crashed worker must contribute *nothing*
    // to the fleet merge, never a torn mid-run flush whose in-flight
    // requests would break the merged accounting identity.
    wc.metrics_every = 0;
    Server server(wc);
    server.start();
    const auto beat = std::chrono::duration<double, std::milli>(
        config.heartbeat_interval_ms > 0.0 ? config.heartbeat_interval_ms
                                           : 100.0);
    while (!robust::ShutdownGuard::stop_requested()) {
      ctx.heartbeat();
      std::this_thread::sleep_for(beat);
    }
    server.request_stop();
    const ServeSummary summary = server.wait();
    ctx.heartbeat();
    return summary.accounting_ok() ? robust::kExitInterrupted
                                   : robust::kExitFailure;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[worker %d] fatal: %s\n", ctx.index, e.what());
    return robust::kExitFailure;
  }
}

}  // namespace

void SupervisedServeConfig::validate() const {
  serve.validate();
  if (workers < 1 || workers > 256) {
    throw std::invalid_argument("serve: --workers must be in [1, 256]");
  }
  if (stall_timeout_ms < 0.0 || heartbeat_interval_ms < 0.0 ||
      self_ping_interval_ms < 0.0) {
    throw std::invalid_argument("serve: supervision intervals must be >= 0");
  }
  if (stall_timeout_ms > 0.0 && stall_timeout_ms <= heartbeat_interval_ms) {
    throw std::invalid_argument(
        "serve: --stall-timeout must exceed the heartbeat interval");
  }
  if (restart_budget < 1 || restart_window_s <= 0.0) {
    throw std::invalid_argument(
        "serve: restart budget/window must be positive");
  }
}

std::string SupervisedServeReport::describe() const {
  std::ostringstream os;
  os << fleet.describe() << "\n"
     << "supervision: forks " << stats.forks << " (restarts " << stats.restarts
     << ", crashes " << stats.crashes << ", stalls " << stats.stalls
     << ", probe failures " << stats.probe_failures << "), degrade flips "
     << stats.degrade_transitions << ", worker snapshots merged "
     << worker_snapshots
     << (gave_up ? "  [SUPERVISOR GAVE UP]" : "")
     << (fleet_accounting_ok ? "" : "  [FLEET ACCOUNTING MISMATCH]");
  return os.str();
}

SupervisedServeReport run_supervised_serve(const SupervisedServeConfig& config) {
  config.validate();
  const int listen_fd = Server::bind_listener(config.serve.socket_path);

  robust::SupervisorConfig sup;
  sup.workers = config.workers;
  sup.heartbeat_interval_ms = config.heartbeat_interval_ms;
  sup.stall_timeout_ms = config.stall_timeout_ms;
  sup.restart_budget = config.restart_budget;
  sup.restart_window_s = config.restart_window_s;
  sup.postmortem_path = config.postmortem_path;
  sup.disarm_restarted_failpoints = config.disarm_restarted_failpoints;
  sup.stop = config.stop;
  if (config.self_ping_interval_ms > 0.0) {
    sup.probe_interval_ms = config.self_ping_interval_ms;
    sup.probe = [path = config.serve.socket_path] { return self_ping(path); };
  }
  sup.event_hook = [&config](const robust::SupervisorEvent& ev) {
    flight::Recorder::instance().record_marker(
        std::string("sup.") + robust::SupervisorEvent::kind_name(ev.kind));
    if (config.log_events) {
      std::fprintf(stderr, "[supervisor] %.3fs %s\n", ev.t_s,
                   ev.describe().c_str());
    }
  };

  robust::Supervisor supervisor(std::move(sup));
  const robust::SupervisorResult result = supervisor.run(
      [&config, listen_fd](const robust::WorkerContext& ctx) {
        return serve_worker(config, listen_fd, ctx);
      });

  ::close(listen_fd);
  ::unlink(config.serve.socket_path.c_str());

  // Fold the surviving workers' drain snapshots plus the supervision
  // counters into one fleet bundle. A slot whose last generation crashed
  // never wrote its file — skipped, not an error. A snapshot with
  // dropped lines is skipped the same way: merging the salvaged part
  // would count a subset of a worker's requests.
  SupervisedServeReport report;
  report.gave_up = result.gave_up;
  report.stats = result.stats;
  obs::ObsBundle fleet;
  for (int w = 0; w < config.workers; ++w) {
    const std::string path = worker_snapshot_path(config, w);
    try {
      obs::ObsReadReport read;
      const obs::ObsBundle bundle = obs::load_obs_file(path, &read);
      if (!read.clean()) {
        std::fprintf(stderr,
                     "serve: worker snapshot %s dropped %zu of %zu lines (%s); "
                     "not merged\n",
                     path.c_str(), read.lines_dropped, read.lines_total,
                     read.first_error.c_str());
        continue;
      }
      obs::merge_obs_bundles(fleet, bundle);
      ++report.worker_snapshots;
    } catch (const std::exception&) {
      continue;  // no snapshot: worker crashed (or never reached drain)
    }
    if (config.serve.metrics_out.empty()) {
      ::unlink(path.c_str());  // scratch only; staged .wN files are kept
    }
  }
  obs::merge_obs_bundles(fleet, supervisor_bundle(result.stats));
  report.fleet = summary_from_metrics(fleet.metrics);
  report.fleet_accounting_ok = report.fleet.accounting_ok();
  if (!config.serve.metrics_out.empty()) {
    try {
      obs::save_obs_file(config.serve.metrics_out, fleet);
      report.merged_metrics_path = config.serve.metrics_out;
    } catch (const robust::IoError& e) {
      std::fprintf(stderr, "serve: fleet metrics write failed: %s\n", e.what());
    }
  }

  // Exit precedence: breaker give-up (4) dominates; a broken fleet
  // identity or drain error is a failure (1); an external stop that
  // drained cleanly is the repo-wide interrupted code (3).
  if (result.exit_code == robust::kExitSupervisorGaveUp) {
    report.exit_code = robust::kExitSupervisorGaveUp;
  } else if (result.exit_code == robust::kExitFailure ||
             !report.fleet_accounting_ok) {
    report.exit_code = robust::kExitFailure;
  } else {
    report.exit_code = result.exit_code;
  }
  return report;
}

}  // namespace pftk::serve
