// explore — `pftk explore` at one thread on a config with more than 10^4
// states (16 packets, 16 loss choices, ACK loss branching). The only
// workload for the mc layer; it also uses sim differently from section3:
// thousands of short Connections built and torn down, not 72 long ones.
// Without faults the explorer draws no randomness, so the seed does not
// change the tree: it is echoed into ExploreConfig::seed only, and every
// seed explores the same states.
#include <optional>
#include <tuple>

#include "harness.hpp"
#include "mc/explorer.hpp"
#include "obs/export.hpp"
#include "obs/flight/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/standard_metrics.hpp"
#include "sim/connection.hpp"

namespace e2e {
namespace {

namespace mc = pftk::mc;
namespace sim = pftk::sim;
using obs::flight::Span;

/// The exact counts of the explored config (a pure function of it).
constexpr std::uint64_t kStates = 33437;
constexpr std::uint64_t kBranches = 33438;

mc::ExploreConfig explore_config(std::uint64_t seed) {
  mc::ExploreConfig config;
  config.packets = 16;
  config.loss_choices = 16;
  config.ack_loss = true;
  config.threads = 1;
  config.seed = seed;
  return config;
}

/// The Connection each branch builds, with a deliver-everything oracle
/// in place of the explorer's choice source.
sim::ConnectionConfig branch_connection_config(const mc::ExploreConfig& cfg) {
  sim::ConnectionConfig conn;
  conn.sender.initial_cwnd = 1.0;
  conn.sender.advertised_window = cfg.window;
  conn.sender.initial_rto = cfg.min_rto;
  conn.sender.min_rto = cfg.min_rto;
  conn.sender.timer_tick = 0.0;
  conn.sender.total_packets = cfg.packets;
  conn.receiver.ack_every = cfg.ack_every;
  conn.forward_link.propagation_delay = cfg.one_way_delay;
  conn.reverse_link.propagation_delay = cfg.one_way_delay;
  conn.seed = cfg.seed;
  conn.check_invariants = true;
  conn.forward_loss = sim::OracleLossSpec{[](sim::Time) { return false; }};
  conn.reverse_loss = sim::OracleLossSpec{[](sim::Time) { return false; }};
  return conn;
}

/// The `--metrics-out` snapshot `pftk explore` writes, and its read-back
/// (`pftk obs summarize`). Returns {bytes written, bytes read}.
std::pair<std::uint64_t, std::uint64_t> save_and_reload(const mc::ExploreStats& st,
                                                        const std::string& path) {
  obs::MetricsRegistry registry;
  const auto met = obs::StandardMetrics::register_on(registry);
  registry.freeze(1);
  auto& shard = registry.shard(0);
  shard.add(met.mc_explored_states, static_cast<double>(st.states));
  shard.add(met.mc_pruned, static_cast<double>(st.pruned));
  shard.add(met.mc_violations, static_cast<double>(st.violations));
  obs::ObsBundle bundle;
  bundle.source = "explore";
  bundle.metrics = registry.snapshot();
  obs::save_obs_file(path, bundle);
  const std::uint64_t written = file_size(path);
  (void)obs::load_obs_file(path);
  return {written, file_size(path)};
}

struct Pass {
  mc::ExploreResult result;
  double wall = 0.0;
  double cpu = 0.0;
  std::uint64_t written = 0;
  std::uint64_t read = 0;
};

Pass run_pass(const mc::ExploreConfig& config, const std::string& snapshot) {
  Pass pass;
  const PassTimer timer;
  {
    mc::Explorer explorer(config);
    const Span span("mc.run");
    pass.result = explorer.run();
  }
  {
    const Span span("obs.snapshot");
    std::tie(pass.written, pass.read) = save_and_reload(pass.result.stats, snapshot);
  }
  pass.wall = timer.wall();
  pass.cpu = timer.cpu();
  return pass;
}

void check_pass(const Pass& pass, Outcome& out) {
  const auto& r = pass.result;
  out.attempt();
  out.check(r.complete && !r.interrupted && r.violations.empty() && r.stats.violations == 0,
            "explore run incomplete or violated a property");
  out.check(r.stats.states == kStates && r.stats.branches == kBranches,
            "explore counted " + std::to_string(r.stats.states) + " states / " +
                std::to_string(r.stats.branches) + " branches, expected " +
                std::to_string(kStates) + " / " + std::to_string(kBranches));
}

}  // namespace

void run_explore(const Options& options, Outcome& out) {
  const mc::ExploreConfig config = explore_config(options.seed);
  const std::string snapshot = (options.work_dir / "explore.obs.jsonl").string();
  // Set-up: validating the config and constructing the Explorer.
  {
    const mc::Explorer explorer(config);
    out.fact("setup_digest", std::to_string(fnv1a(explorer.config().describe())));
  }
  if (options.setup_only) {
    return;
  }
  out.fact("threads", "1");
  out.fact("config", config.describe());
  out.fact("seed_changes_tree", "no");

  // The documented default config must still give exactly 246 states.
  {
    out.attempt();
    const mc::ExploreResult def = mc::Explorer(mc::ExploreConfig{}).run();
    out.check(def.complete && def.violations.empty() && def.stats.states == 246 &&
                  def.stats.branches == 247,
              "default explore config no longer gives 246 states / 247 branches");
  }

  RunTotals samples;

  if (!options.trace) {
    samples.rss_mb = repeat_for(options.seconds, 3, [&](int) {
      const Pass pass = run_pass(config, snapshot);
      check_pass(pass, out);
      // A pass is one explore call: its only latency sample.
      samples.passes.push_back({pass.wall, pass.cpu,
                                static_cast<double>(pass.result.stats.states),
                                static_cast<double>(pass.written), pass.wall,
                                static_cast<double>(pass.read), pass.wall, pass.wall * 1e3,
                                pass.wall * 1e3});
    });
    samples.report(out);
    return;
  }

  check_pass(run_pass(config, snapshot), out);  // warm-up
  const Pass baseline = run_pass(config, snapshot);
  check_pass(baseline, out);
  Pass traced;
  {
    TraceSession session("bench.explore", 1u << 20);
    {
      const Span root("bench.explore");
      traced = run_pass(config, snapshot);
    }
    const auto report = session.finish(
        options.spans_dir / ("explore-seed" + std::to_string(options.seed) + ".jsonl"),
        "e2e.explore", out);
    const double run_s = inclusive_s(report, "mc.run");
    const auto& st = traced.result.stats;
    out.set("mc.states", static_cast<double>(st.states));
    out.set("mc.branches", static_cast<double>(st.branches));
    out.set("mc.terminals", static_cast<double>(st.terminals));
    out.set("mc.pruned", static_cast<double>(st.pruned));
    out.set("mc.truncated", static_cast<double>(st.truncated));
    out.set("mc.prune_frac", static_cast<double>(st.pruned) /
                                 static_cast<double>(std::max<std::uint64_t>(st.branches, 1)));
    out.set("mc.us_per_branch",
            run_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(st.branches, 1)));
    out.set("sim.run_s", inclusive_s(report, "sim.run_slice"));
    out.set("bench.trace_overhead_frac", traced.wall / baseline.wall - 1.0);
  }
  check_pass(traced, out);

  const sim::ConnectionConfig conn_config = branch_connection_config(config);
  out.set("sim.construct_us", 1e6 * median_call_seconds(15, 200, [&] {
            std::optional<sim::Connection> conn(std::in_place, conn_config);
            (void)conn;
          }));
}

}  // namespace e2e
