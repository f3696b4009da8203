// End-to-end chaos for the supervised worker pool (`pftk serve
// --workers N`): with a crash failpoint armed at every registered
// serve.* site, a fixed-seed load driven from outside must survive —
// the supervisor restarts every crashed worker, the client reconnects
// and keeps its ledger exact (sent == ok+busy+deadline+errors+lost),
// and the daemon drains to exit 3 with the merged fleet identity
// holding. Separately, a worker that crashes on *every* life trips the
// restart-budget breaker: exit 4 plus a durable parseable post-mortem.
//
// The daemon runs in a forked child (it is itself a multi-process
// supervisor); verdicts come back through the exit code and a status
// file the child writes after run_supervised_serve returns.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>

#include "obs/export.hpp"
#include "robust/failpoint.hpp"
#include "robust/shutdown.hpp"
#include "serve/load_client.hpp"
#include "serve/supervised.hpp"

namespace pftk::serve {
namespace {

std::string unique_path(const std::string& tag, const std::string& suffix) {
  return "/tmp/pftk_tsrv_" + tag + "_" + std::to_string(::getpid()) + suffix;
}

class ServeSupervisedTest : public ::testing::Test {
 protected:
  void SetUp() override { robust::FailpointRegistry::instance().disarm_all(); }
  void TearDown() override {
    robust::FailpointRegistry::instance().disarm_all();
  }
};

struct DaemonVerdict {
  int exit_code = -1;
  std::uint64_t restarts = 0;
  std::uint64_t crashes = 0;
  bool fleet_ok = false;
  int worker_snapshots = -1;
  bool have_status = false;
  std::string daemon_stderr;  ///< captured only when asked for
};

/// Forks the supervised daemon with `failpoint_spec` armed, runs
/// `driver` against it in this process, SIGTERMs the daemon, and
/// returns what the child reported.
DaemonVerdict run_supervised_chaos(const std::string& tag,
                                   const std::string& failpoint_spec,
                                   const SupervisedServeConfig& base,
                                   const std::function<void()>& driver,
                                   bool send_term = true,
                                   bool capture_stderr = false) {
  const std::string socket_path = unique_path(tag, ".sock");
  const std::string status_path = unique_path(tag, ".status");
  const std::string stderr_path = unique_path(tag, ".stderr");
  std::remove(socket_path.c_str());
  std::remove(status_path.c_str());

  const pid_t child = ::fork();
  EXPECT_GE(child, 0);
  if (child == 0) {
    if (capture_stderr) {
      (void)std::freopen(stderr_path.c_str(), "w", stderr);
    }
    if (!failpoint_spec.empty()) {
      robust::FailpointRegistry::instance().arm_specs(failpoint_spec);
    }
    robust::ShutdownGuard::reset();
    robust::ShutdownGuard guard;
    SupervisedServeConfig config = base;
    config.serve.socket_path = socket_path;
    config.stop = robust::ShutdownGuard::stop_flag();
    config.log_events = false;
    int code = 1;
    std::uint64_t restarts = 0;
    std::uint64_t crashes = 0;
    bool fleet_ok = false;
    int worker_snapshots = -1;
    try {
      const SupervisedServeReport report = run_supervised_serve(config);
      code = report.exit_code;
      restarts = report.stats.restarts;
      crashes = report.stats.crashes;
      fleet_ok = report.fleet_accounting_ok;
      worker_snapshots = report.worker_snapshots;
    } catch (...) {
      code = 99;
    }
    {
      std::ofstream os(status_path);
      os << restarts << " " << crashes << " " << (fleet_ok ? 1 : 0) << " "
         << worker_snapshots << "\n";
    }
    std::fflush(stderr);
    std::_Exit(code);
  }

  // Wait for the parent-bound socket, then drive the load.
  for (int i = 0; i < 500 && ::access(socket_path.c_str(), F_OK) != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(::access(socket_path.c_str(), F_OK), 0) << "daemon never bound";
  driver();

  if (send_term) {
    // Let any restart still pending its backoff land before the drain —
    // SIGTERM cancels scheduled restarts, and a fast load can finish
    // inside the backoff window of a crash it triggered near its end.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ::kill(child, SIGTERM);
  }
  int status = 0;
  EXPECT_EQ(::waitpid(child, &status, 0), child);

  DaemonVerdict verdict;
  if (WIFEXITED(status)) {
    verdict.exit_code = WEXITSTATUS(status);
  }
  std::ifstream is(status_path);
  if (is) {
    int ok = 0;
    is >> verdict.restarts >> verdict.crashes >> ok >> verdict.worker_snapshots;
    verdict.fleet_ok = ok == 1;
    verdict.have_status = static_cast<bool>(is);
  }
  std::remove(status_path.c_str());
  if (capture_stderr) {
    std::ifstream err(stderr_path);
    verdict.daemon_stderr.assign(std::istreambuf_iterator<char>(err),
                                 std::istreambuf_iterator<char>());
    std::remove(stderr_path.c_str());
  }
  return verdict;
}

LoadConfig chaos_load(const std::string& socket_path) {
  LoadConfig load;
  load.socket_path = socket_path;
  load.requests = 1500;
  load.connections = 2;
  load.pipeline = 16;
  load.seed = 1998;
  return load;
}

TEST_F(ServeSupervisedTest, SurvivesCrashAtEveryWorkerFailpointSite) {
  // Every registered serve.* site, including the dedicated worker-crash
  // site, kills a worker mid-load; the pool must absorb each one. The
  // trigger count is tuned to each site's evaluation rate: accept fires
  // once per connection (a handful per run), the rest fire per request
  // or per batch.
  struct Site {
    const char* name;
    int after;
    int connections;
  };
  // Trigger counts are tuned to each site's evaluation rate:
  // serve.accept fires once per connection, so six client connections
  // over two workers pigeonhole one worker past after=2; serve.read
  // batches ~pipeline requests per syscall; the rest fire per request
  // or per batch.
  const Site kSites[] = {{"serve.accept", 2, 6},
                         {"serve.read", 20, 2},
                         {"serve.write", 120, 2},
                         {"serve.enqueue", 120, 2},
                         {"serve.worker.crash", 20, 2}};
  for (std::size_t i = 0; i < std::size(kSites); ++i) {
    const Site& site = kSites[i];
    SCOPED_TRACE(site.name);
    SupervisedServeConfig config;
    config.workers = 2;
    config.serve.shards = 1;
    const std::string tag = std::string("site_") + std::to_string(i);
    const std::string spec = std::string(site.name) +
                             ":after=" + std::to_string(site.after) +
                             ":action=crash";

    LoadReport report;
    const DaemonVerdict verdict = run_supervised_chaos(
        tag, spec, config, [&] {
          LoadConfig load = chaos_load(unique_path(tag, ".sock"));
          load.connections = site.connections;
          report = run_load(load);
        });

    // The client ledger balances to the unit across the worker death —
    // in-flight requests become `lost`, never silent holes — and the
    // stream stays protocol- and verify-clean through the reconnect.
    EXPECT_TRUE(report.accounting_ok()) << report.describe();
    EXPECT_EQ(report.sent, 1500u) << report.describe();
    EXPECT_EQ(report.protocol_errors, 0u);
    EXPECT_EQ(report.verify_failures, 0u);

    // The daemon saw the crash, restarted the worker, drained to the
    // interrupted exit, and the merged fleet identity held.
    EXPECT_EQ(verdict.exit_code, 3);
    ASSERT_TRUE(verdict.have_status);
    EXPECT_GE(verdict.crashes, 1u);
    EXPECT_GE(verdict.restarts, 1u);
    EXPECT_TRUE(verdict.fleet_ok);
  }
}

TEST_F(ServeSupervisedTest, RepeatCrashesTripBreakerWithExitFourAndPostmortem) {
  const std::string postmortem = unique_path("breaker", ".postmortem");
  std::remove(postmortem.c_str());

  SupervisedServeConfig config;
  config.workers = 2;
  config.serve.shards = 1;
  config.restart_budget = 2;
  config.restart_window_s = 60.0;
  config.postmortem_path = postmortem;
  // Restarted generations keep the armed failpoint, so every life
  // crashes on its first request and the budget must run out.
  config.disarm_restarted_failpoints = false;

  const DaemonVerdict verdict = run_supervised_chaos(
      "breaker", "serve.worker.crash:after=0:action=crash", config,
      [&] {
        // Sustained load so each restarted worker gets a request to die
        // on. The client report is irrelevant here — the daemon is
        // *supposed* to go down.
        LoadConfig load = chaos_load(unique_path("breaker", ".sock"));
        load.requests = 20000;
        try {
          (void)run_load(load);
        } catch (const std::exception&) {
          // Socket vanishes once the breaker trips; expected.
        }
      },
      /*send_term=*/false);

  EXPECT_EQ(verdict.exit_code, 4);
  ASSERT_TRUE(verdict.have_status);
  // The breaker trips on the restart that would *exceed* the budget, so
  // exactly `restart_budget` restarts were granted before giving up.
  EXPECT_GE(verdict.restarts, 2u);

  std::ifstream is(postmortem);
  ASSERT_TRUE(is) << "missing post-mortem " << postmortem;
  std::ostringstream body;
  body << is.rdbuf();
  EXPECT_NE(body.str().find("\"schema\":\"pftk-postmortem/1\""),
            std::string::npos);
  EXPECT_NE(body.str().find("restart budget exhausted"), std::string::npos);
  std::remove(postmortem.c_str());
}

TEST_F(ServeSupervisedTest, DamagedWorkerSnapshotIsNamedAndNotMerged) {
  // A hand-damaged `.w0`: a snapshot of 7 requests, all served, whose
  // served line is torn. The salvaged part (7 requests, 0 served) would
  // break the fleet identity if merged; the parent must skip it like a
  // missing snapshot and name it on stderr. An injected write error
  // fails the worker's own drain snapshot, so the damaged file is what
  // the parent finds (the parent's merged-file write fails the same way,
  // which it reports and survives).
  const std::string metrics_out = unique_path("damaged", ".jsonl");
  const std::string w0 = metrics_out + ".w0";
  {
    ServeTotals totals;
    totals.requests = 7;
    totals.served = 7;
    ConcurrentHistogram latency(default_latency_bounds());
    ConcurrentHistogram queue_wait(default_queue_wait_bounds_ms());
    obs::save_obs_file(w0, make_bundle(totals, latency, queue_wait.snapshot()));
    std::ifstream in(w0);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t at = text.find("{\"kind\":\"metric\",\"type\":\"counter\","
                                     "\"name\":\"pftk_serve_served_total\"");
    ASSERT_NE(at, std::string::npos);
    text.erase(at + 30, text.find('\n', at) - (at + 30));
    std::ofstream(w0, std::ios::trunc) << text;
  }
  obs::ObsReadReport read;
  (void)obs::load_obs_file(w0, &read);
  ASSERT_EQ(read.lines_dropped, 1u) << "the hand damage must drop one line";

  SupervisedServeConfig config;
  config.workers = 1;
  config.serve.shards = 1;
  config.serve.metrics_out = metrics_out;
  const DaemonVerdict verdict = run_supervised_chaos(
      "damaged", "export.jsonl.write:after=0:action=error", config, [] {},
      /*send_term=*/true, /*capture_stderr=*/true);

  EXPECT_EQ(verdict.exit_code, 3) << verdict.daemon_stderr;
  ASSERT_TRUE(verdict.have_status);
  EXPECT_TRUE(verdict.fleet_ok) << "a torn snapshot was merged in part";
  EXPECT_EQ(verdict.worker_snapshots, 0);
  EXPECT_NE(verdict.daemon_stderr.find("worker snapshot " + w0), std::string::npos)
      << verdict.daemon_stderr;
  EXPECT_NE(verdict.daemon_stderr.find("not merged"), std::string::npos)
      << verdict.daemon_stderr;
  std::remove(w0.c_str());
  std::remove(metrics_out.c_str());
}

TEST_F(ServeSupervisedTest, ExternalDegradeFlagServesApproximateTagged) {
  // Drive the degrade path directly through ServeConfig::degrade_flag —
  // the same signal the supervisor raises — and check every answer is
  // the approximate model tagged degraded=1, still counted served, and
  // verified by the client against its own eq-33 expectations.
  std::atomic<std::uint32_t> flag{1};
  ServeConfig config;
  config.socket_path = unique_path("degraded", ".sock");
  config.shards = 1;
  config.degrade_flag = &flag;
  Server server(config);
  server.start();

  LoadConfig load;
  load.socket_path = config.socket_path;
  load.requests = 400;
  load.connections = 2;
  load.pipeline = 8;
  const LoadReport report = run_load(load);
  server.request_stop();
  const ServeSummary summary = server.wait();

  EXPECT_EQ(report.ok, 400u);
  EXPECT_EQ(report.degraded, 400u) << "answers not tagged degraded=1";
  EXPECT_EQ(report.verify_failures, 0u)
      << "degraded answers diverged from the local eq-33 expectation";
  EXPECT_EQ(summary.degraded, 400u);
  EXPECT_EQ(summary.served, 400u);  // degraded answers are still served
  EXPECT_TRUE(summary.accounting_ok());
}

}  // namespace
}  // namespace pftk::serve
