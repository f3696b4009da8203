// `pftk serve --workers N` — self-healing multi-process serving.
//
// The parent binds the unix listen socket exactly once, then forks N
// workers through robust::Supervisor; every worker adopts the shared fd
// and accept()s from the same backlog, so a crashing worker (SIGSEGV,
// injected `serve.worker.crash`, OOM kill) loses only its own in-flight
// connections — the socket file, the backlog, and its siblings survive,
// and the load client reconnects into a healthy worker while the
// supervisor restarts the dead one under capped backoff.
//
// Accounting stays exact per *surviving* worker: each worker drains a
// durable pftk-obs/1 snapshot of its own totals at clean/interrupted
// exit, and the parent folds them (plus its supervisor_bundle) with
// the shard-merge semantics into one fleet bundle whose identity
//
//   requests == served + shed + deadline_missed + internal_errors
//
// is checked before the final exit code. A crashed worker contributes
// nothing — its counts die with it all-or-nothing, never a torn subset —
// so the merged identity holds on both sides of every crash.
//
// Degradation: the supervisor's restart-pressure flag (MAP_SHARED page)
// reaches every worker as ServeConfig::degrade_flag; while raised,
// MODEL answers come from the approximate eq-33 path tagged
// `degraded=1` instead of dying under the load that is killing
// siblings.
#pragma once

#include <atomic>
#include <string>

#include "robust/supervisor/supervisor.hpp"
#include "serve/serve_metrics.hpp"
#include "serve/server.hpp"

namespace pftk::serve {

struct SupervisedServeConfig {
  /// Per-worker daemon settings. `socket_path` is bound by the parent;
  /// `metrics_out` (optional) becomes the merged fleet snapshot, with
  /// per-worker drains staged at "<metrics_out>.w<idx>" (or TMPDIR
  /// scratch files when empty).
  ServeConfig serve;
  int workers = 2;

  /// Worker heartbeat cadence; silence past `stall_timeout_ms` is a
  /// SIGKILL + restart (0 disables stall detection).
  double heartbeat_interval_ms = 100.0;
  double stall_timeout_ms = 0.0;

  /// Fleet-wide circuit breaker (robust::SupervisorConfig semantics).
  int restart_budget = 16;
  double restart_window_s = 60.0;
  std::string postmortem_path;  ///< durable give-up snapshot (empty = skip)

  /// Self-PING probe through the public socket every this many ms
  /// (0 disables): catches "every worker wedged but heartbeating".
  double self_ping_interval_ms = 0.0;

  /// Restarted workers start with failpoints disarmed (breaker tests
  /// turn this off to force repeated crashes).
  bool disarm_restarted_failpoints = true;

  /// External shutdown flag (ShutdownGuard::stop_flag() in the CLI).
  const std::atomic<bool>* stop = nullptr;

  /// Supervisor event lines ("[supervisor] ...") go here when true.
  bool log_events = true;

  /// @throws model::ParamError / std::invalid_argument on bad settings.
  void validate() const;
};

struct SupervisedServeReport {
  /// Exit precedence: 4 (breaker gave up) > 1 (fleet identity broken or
  /// drain error) > 3 (interrupted drain) > 0.
  int exit_code = 0;
  bool gave_up = false;
  bool fleet_accounting_ok = true;
  robust::SupervisorStats stats;
  ServeSummary fleet;           ///< merged over surviving workers
  int worker_snapshots = 0;     ///< per-worker files merged
  std::string merged_metrics_path;  ///< where the fleet bundle landed ("" = none)

  [[nodiscard]] std::string describe() const;
};

/// Binds `config.serve.socket_path`, runs the supervised fleet until the
/// stop flag flips (or the breaker trips), merges the surviving workers'
/// snapshots, and returns the fleet report. Blocking.
/// @throws robust::IoError when the socket cannot be bound.
[[nodiscard]] SupervisedServeReport run_supervised_serve(
    const SupervisedServeConfig& config);

}  // namespace pftk::serve
