// section3 — the paper's Section III regeneration, run the way users run
// it: `pftk campaign` with kind=hour, 3600 s, all 24 Table II profiles x
// models {full, approx, td}, one worker thread, checkpoint journal at
// the default fsync cadence; then every item scored for Fig 9. The sim
// layer does nearly all the work; the trace parser, serve and mc are
// bypassed.
#include <malloc.h>

#include <cmath>
#include <optional>
#include <set>
#include <utility>

#include "core/model_registry.hpp"
#include "exp/campaign/campaign_journal.hpp"
#include "exp/campaign/campaign_runner.hpp"
#include "exp/model_comparison.hpp"
#include "exp/path_profile.hpp"
#include "harness.hpp"
#include "obs/flight/flight_recorder.hpp"
#include "sim/connection.hpp"
#include "sim/rng.hpp"
#include "trace/interval_analyzer.hpp"
#include "trace/trace_recorder.hpp"
#include "trace/trace_summary.hpp"

namespace e2e {
namespace {

namespace campaign = pftk::exp::campaign;
namespace exp = pftk::exp;
namespace model = pftk::model;
namespace sim = pftk::sim;
namespace trace = pftk::trace;
using obs::flight::Span;

constexpr double kDuration = 3600.0;
constexpr double kInterval = 100.0;
constexpr std::size_t kCampaigns = 4;  ///< campaign seeds a run cycles through

campaign::CampaignSpec make_spec(std::uint64_t campaign_seed) {
  campaign::CampaignSpec spec;
  spec.kind = campaign::CampaignKind::kHourTrace;
  spec.duration = kDuration;
  spec.interval_length = kInterval;
  spec.profiles = exp::table2_profiles();
  spec.seeds = {campaign_seed};
  spec.models.assign(model::all_model_kinds.begin(), model::all_model_kinds.end());
  return spec;
}

struct Pass {
  campaign::CampaignResult result;
  std::vector<exp::ModelErrorRow> scores;
  campaign::JournalReplay replay;
  std::string journal;  ///< bytes on disk after the pass
  double wall = 0.0;
  double cpu = 0.0;
};

/// One timed pass: the campaign, Fig 9 scoring of every item, and the
/// journal read back the way `--resume` replays it.
Pass run_pass(campaign::CampaignRunner& runner, const std::string& journal_path) {
  Pass pass;
  const PassTimer timer;
  {
    const Span span("exp.campaign_run");
    pass.result = runner.run();
  }
  for (const auto& item : pass.result.items) {
    if (item.hour) {
      const Span span("core.score");
      pass.scores.push_back(exp::score_hour_trace(item.item.profile.label(),
                                                  item.hour->trace_params,
                                                  item.hour->intervals, kInterval));
    }
  }
  {
    const Span span("exp.journal_replay");
    pass.replay = campaign::replay_journal_file(journal_path);
  }
  pass.wall = timer.wall();
  pass.cpu = timer.cpu();
  pass.journal = read_file(journal_path);
  return pass;
}

/// The per-pass correctness gate.
void check_pass(const Pass& pass, std::size_t expected_items, const std::string& reference,
                Outcome& out) {
  const auto& items = pass.result.items;
  out.attempt(expected_items);
  out.check(items.size() == expected_items, "campaign expanded to the wrong item count");
  for (const auto& item : items) {
    out.check(item.ok() && item.hour.has_value() && !item.from_journal,
              "item " + item.item.key() + " not ok: " + item.error);
  }
  out.check(pass.scores.size() == items.size(), "not every item was scored");
  for (const auto& row : pass.scores) {
    out.check(row.observations > 0 && std::isfinite(row.avg_error[0]),
              "Fig 9 score of " + row.label + " is empty or not finite");
  }
  out.check(!pass.replay.truncated_tail && pass.replay.entries.size() == items.size(),
            "journal replay does not cover every item");
  for (std::size_t i = 0; i < pass.replay.entries.size() && i < items.size(); ++i) {
    out.check(pass.replay.entries[i].ok && pass.replay.entries[i].key == items[i].item.key(),
              "journal entry " + std::to_string(i) + " does not match its item");
  }
  out.check(reference.empty() || pass.journal == reference,
            "journal bytes differ between passes of one seed");
}

/// The traced run's re-drive: the layers the campaign reaches only
/// inside run() (Connection, TraceRecorder, analysis, models) driven
/// through their public functions for the same items, asserting the
/// results are identical to the campaign's.
void redrive(const campaign::CampaignSpec& spec, const Pass& pass, Outcome& out) {
  const auto& items = pass.result.items;
  const std::size_t models = spec.models.size();
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t recorded = 0;
  std::uint64_t evals = 0;
  double sink = 0.0;
  for (std::size_t first = 0; first + models <= items.size(); first += models) {
    const campaign::CampaignItem& item = items[first].item;
    const sim::ConnectionConfig config = exp::make_connection_config(item.profile, item.seed);
    std::optional<sim::Connection> conn;
    {
      const Span span("sim.construct");
      conn.emplace(config);
    }
    sim::WatchdogConfig watchdog = spec.watchdog;
    watchdog.max_wall_time = spec.deadline_s;
    conn->enable_watchdog(watchdog);
    trace::TraceRecorder recorder;
    recorder.reserve(static_cast<std::size_t>(kDuration * 100.0));
    conn->set_observer(&recorder);
    sim::ConnectionSummary run;
    {
      const Span span("sim.run");
      run = conn->run_for(kDuration);
    }
    events += conn->event_queue().executed();
    packets += run.packets_sent;
    timeouts += run.timeouts;
    recorded += recorder.events().size();

    const int threshold = item.profile.dupack_threshold();
    trace::TraceSummary summary;
    {
      const Span span("trace.summarize");
      summary = trace::summarize_trace(recorder.events(), threshold);
    }
    std::vector<trace::IntervalObservation> intervals;
    {
      const Span span("trace.intervals");
      intervals = trace::analyze_intervals(recorder.events(), kDuration, kInterval, threshold);
    }
    model::ModelParams params;
    params.p = summary.observed_p;
    params.rtt = summary.avg_rtt > 0.0 ? summary.avg_rtt : item.profile.nominal_rtt();
    params.t0 = summary.avg_timeout > 0.0 ? summary.avg_timeout : item.profile.min_rto;
    params.b = 2;
    params.wm = item.profile.advertised_window;

    std::vector<double> predicted(models);
    {
      const Span span("core.eval");
      for (std::size_t m = 0; m < models; ++m) {
        predicted[m] = model::evaluate_model(spec.models[m], params) * kDuration;
      }
      evals += models;
    }
    {
      // The per-interval evaluations Fig 9 scoring makes.
      const Span span("core.eval");
      for (const auto& obs_iv : intervals) {
        if (obs_iv.packets_sent == 0 || !(obs_iv.observed_p > 0.0)) {
          continue;
        }
        model::ModelParams at = params;
        at.p = obs_iv.observed_p;
        for (const model::ModelKind kind : spec.models) {
          sink += model::evaluate_model(kind, at);
          ++evals;
        }
      }
    }

    for (std::size_t m = 0; m < models; ++m) {
      const auto& got = items[first + m];
      const auto& metrics = got.metrics;
      out.check(metrics.packets_sent == summary.packets_sent && metrics.p == params.p &&
                    metrics.rtt == params.rtt && metrics.t0 == params.t0 &&
                    metrics.predicted == predicted[m],
                "re-driven item " + got.item.key() + " differs from the campaign's");
      out.check(got.hour && got.hour->intervals.size() == intervals.size(),
                "re-driven intervals of " + got.item.key() + " differ");
    }
  }
  out.check(std::isfinite(sink), "interval model evaluations are not finite");
  out.set("sim.events", static_cast<double>(events));
  out.set("sim.packets_sent", static_cast<double>(packets));
  out.set("sim.timeouts", static_cast<double>(timeouts));
  out.set("trace.events_recorded", static_cast<double>(recorded));
  out.set("core.evals", static_cast<double>(evals));
}

}  // namespace

void run_section3(const Options& options, Outcome& out) {
  // One malloc arena. The campaign's worker thread would otherwise
  // allocate from an arena of its own, and a live chunk near the top of
  // a dead worker's arena keeps everything below it resident; from then
  // on every pass's peak memory includes the last campaign's freed
  // trace buffers, and malloc_trim cannot return them. With one worker
  // and the main thread waiting on it, the single arena's lock is never
  // contended.
  ::mallopt(M_ARENA_MAX, 1);
  const std::string journal = (options.work_dir / "section3.jsonl").string();
  campaign::CampaignRunnerOptions runner_options;
  runner_options.threads = 1;
  runner_options.journal_path = journal;

  // Set-up: build each campaign's spec from the Table II catalogue and
  // construct its runner, as `pftk campaign` does before the first item
  // runs. Passes cycle through kCampaigns campaign seeds, so every item
  // of every seed runs a few times in a run: an item's best time is
  // steady against the host, and the items' p99 over several seeds is
  // steadier from seed to seed than over one.
  std::vector<campaign::CampaignSpec> specs;
  std::vector<campaign::CampaignRunner> runners;
  std::uint64_t digest = fnv1a({});
  for (std::uint64_t k = 0; k < kCampaigns; ++k) {
    specs.push_back(make_spec(sim::derive_stream_seed(options.seed, 3 + k)));
    runners.emplace_back(specs.back(), runner_options);
    for (const auto& item : specs.back().expand()) {
      digest = fnv1a(item.key(), digest);
    }
  }
  out.fact("setup_digest", std::to_string(digest));
  if (options.setup_only) {
    return;
  }
  const std::size_t expected_items = specs.front().item_count();
  out.fact("threads", "1");
  out.fact("items_per_pass", std::to_string(expected_items));
  out.fact("campaign_seeds", std::to_string(kCampaigns));

  // The first journal of each campaign seed; every later pass of that
  // seed must write the same bytes.
  std::vector<std::string> journals(kCampaigns);
  const auto pass_of = [&](std::size_t k) {
    Pass pass = run_pass(runners[k], journal);
    check_pass(pass, expected_items, journals[k], out);
    if (journals[k].empty()) {
      journals[k] = pass.journal;
    }
    return pass;
  };

  if (!options.trace) {
    RunTotals samples;
    samples.item_ms.resize(kCampaigns * expected_items);
    samples.rss_mb = repeat_for(options.seconds, kCampaigns + 1, [&](int i) {
      const std::size_t k = static_cast<std::size_t>(i) % kCampaigns;
      const Pass pass = pass_of(k);
      for (std::size_t j = 0; j < pass.result.items.size(); ++j) {
        samples.item_ms[k * expected_items + j].push_back(
            pass.result.items[j].span.total_seconds * 1e3);
      }
      samples.passes.push_back({pass.wall, pass.cpu,
                                static_cast<double>(pass.result.items.size()),
                                static_cast<double>(pass.result.journal_io.bytes), pass.wall,
                                static_cast<double>(pass.replay.valid_bytes), pass.wall});
    });
    samples.report(out);
    out.fact("latency_samples", std::to_string(kCampaigns * expected_items) +
                                    " items (seeds x items), best half of each");
    out.fact("journal_digest", std::to_string(fnv1a(journals[0])));
    return;
  }

  // Traced run: warm-up and an untraced baseline pass, then the same
  // pass with the flight recorder armed, then the re-drive of the inner
  // layers. All three passes share one seed, so their journals match.
  (void)pass_of(0);
  const Pass baseline = pass_of(0);
  TraceSession session("bench.section3", 1u << 18);
  Pass traced;
  double traced_wall = 0.0;
  {
    const Span root("bench.section3");
    const auto start = Clock::now();
    traced = run_pass(runners[0], journal);
    traced_wall = since(start);
    redrive(specs[0], traced, out);
  }
  const auto report = session.finish(
      options.spans_dir / ("section3-seed" + std::to_string(options.seed) + ".jsonl"),
      "e2e.section3", out);
  check_pass(traced, expected_items, journals[0], out);

  const double run_s = inclusive_s(report, "sim.run");
  out.set("sim.run_s", run_s);
  out.set("sim.ns_per_event", run_s * 1e9 / std::max(1.0, out.get("sim.events")));
  out.set("sim.packets_per_s", out.get("sim.packets_sent") / std::max(run_s, 1e-12));
  std::uint64_t attempts = 0;
  std::set<std::pair<std::string, std::uint64_t>> distinct;
  for (const auto& item : traced.result.items) {
    attempts += static_cast<std::uint64_t>(item.attempts);
    distinct.emplace(item.item.profile.label(), item.item.seed);
  }
  out.set("exp.items", static_cast<double>(traced.result.items.size()));
  out.set("exp.attempts", static_cast<double>(attempts));
  out.set("exp.unique_sim_frac", static_cast<double>(distinct.size()) /
                                     static_cast<double>(std::max<std::uint64_t>(attempts, 1)));
  out.set("exp.journal_bytes", static_cast<double>(traced.result.journal_io.bytes));
  out.set("exp.journal_flushes", static_cast<double>(traced.result.journal_io.flushes));
  out.set("exp.journal_s", inclusive_s(report, "campaign.journal_append"));
  out.set("trace.summarize_s", inclusive_s(report, "trace.summarize"));
  out.set("trace.intervals_s", inclusive_s(report, "trace.intervals"));
  out.set("core.ns_per_eval",
          inclusive_s(report, "core.eval") * 1e9 / std::max(1.0, out.get("core.evals")));
  out.set("core.score_s", inclusive_s(report, "core.score"));
  out.set("bench.trace_overhead_frac", traced_wall / baseline.wall - 1.0);
}

}  // namespace e2e
