// pftk_e2e — one run of one end-to-end workload.
//
//   pftk_e2e --workload section3|capture_io|serve_mix|explore --seed N
//            --seconds S --trace 0|1 [--work-dir DIR] [--spans-dir DIR]
//            [--setup-only 1]
//
// Prints a `workload {...}` provenance line, then, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics (tracing off); --trace 1
// re-runs the workload with the flight recorder armed and reports the
// per-layer metrics. Exit 0 with a result line, 1 on a harness error
// (no result line), 2 on bad arguments.
//
// setup_s of section3, capture_io and explore is the mean of the faster
// half of the wall times of child processes that start, do the
// workload's set-up (build its program objects and inputs), print the
// set-up digest and exit: process start and static initialization
// count, and work moved from a timed pass into a constructor shows.
// serve_mix measures its own set-up, start() until the first PING is
// answered. Every time is scaled by e2e::host_scale().
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

int usage() {
  std::cerr << "usage: pftk_e2e --workload section3|capture_io|serve_mix|explore "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] [--spans-dir DIR]\n";
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  options.work_dir = ".bench_build/work";
  options.spans_dir = ".bench_build/spans";
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        options.workload = value;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
      } else if (key == "--trace") {
        options.trace = value == "1";
      } else if (key == "--work-dir") {
        options.work_dir = value;
      } else if (key == "--spans-dir") {
        options.spans_dir = value;
      } else if (key == "--setup-only") {
        options.setup_only = value == "1";
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || !(options.seconds > 0.0)) {
    return usage();
  }

  void (*run)(const e2e::Options&, e2e::Outcome&) = nullptr;
  if (options.workload == "section3") {
    run = e2e::run_section3;
  } else if (options.workload == "capture_io") {
    run = e2e::run_capture_io;
  } else if (options.workload == "serve_mix") {
    run = e2e::run_serve_mix;
  } else if (options.workload == "explore") {
    run = e2e::run_explore;
  } else {
    return usage();
  }

  e2e::Outcome outcome;
  std::error_code ec;
  const std::filesystem::path work_root = options.work_dir;
  options.work_dir /= options.workload;
  std::filesystem::remove_all(options.work_dir, ec);
  std::filesystem::create_directories(options.work_dir);
  std::vector<double> setup_s;
  std::vector<std::string> setup_digests;
  try {
    int setup_children = 9;
    if (options.setup_only || options.trace || options.workload == "serve_mix") {
      setup_children = 0;
    } else if (options.workload == "capture_io") {
      setup_children = 3;  // each simulates 24 hour captures
    }
    for (int k = 0; k < setup_children; ++k) {
      e2e::calibrate(1);
      const e2e::Spawned child = e2e::spawn_self(
          {"--workload", options.workload, "--seed", std::to_string(options.seed),
           "--seconds", "1", "--trace", "0", "--setup-only", "1", "--work-dir",
           (work_root / ("setup-" + std::to_string(k))).string()});
      setup_s.push_back(child.seconds);
      setup_digests.push_back(child.out);
      std::filesystem::remove_all(work_root / ("setup-" + std::to_string(k)), ec);
    }
    run(options, outcome);
  } catch (const std::exception& ex) {
    std::cerr << "pftk_e2e: " << options.workload << ": " << ex.what() << "\n";
    std::filesystem::remove_all(options.work_dir, ec);
    return 1;
  }
  std::filesystem::remove_all(options.work_dir, ec);

  std::string own_digest;
  for (const auto& [key, value] : outcome.facts()) {
    if (key == "setup_digest") {
      own_digest = "setup_digest " + value + "\n";
    }
  }
  if (options.setup_only) {
    std::cout << own_digest << std::flush;
    return 0;
  }
  if (!setup_s.empty()) {
    outcome.set("setup_s", e2e::best_half(setup_s, true) * e2e::host_scale());
    outcome.fact("setup_samples", std::to_string(setup_s.size()) + " child processes");
    for (const auto& digest : setup_digests) {
      outcome.check(digest == own_digest,
                    "set-up in a child process differs from this process's set-up");
    }
  }

  std::string facts = "{\"workload\": " + json_string(options.workload) +
                      ", \"seed\": " + std::to_string(options.seed);
  for (const auto& [key, value] : outcome.facts()) {
    facts += ", " + json_string(key) + ": " + json_string(value);
  }
  std::cout << "workload " << facts << "}\n";

  const auto& specs =
      options.trace ? e2e::per_layer_metrics() : e2e::end_to_end_metrics();
  std::string metrics;
  for (const auto& spec : specs) {
    double value = outcome.get(spec.name);
    if (!std::isfinite(value)) {
      outcome.fail(std::string("metric ") + spec.name + " is not finite");
      value = 0.0;
    }
    if (!metrics.empty()) {
      metrics += ", ";
    }
    metrics += json_string(spec.name) + ": {\"value\": " + json_number(value) +
               ", \"unit\": " + json_string(spec.unit) + "}";
  }
  const bool correct = outcome.failed() == 0 && outcome.attempted() > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(outcome.attempted(), 1)
            << ", \"failed\": " << outcome.failed() << ", \"metrics\": {" << metrics
            << "}}" << std::endl;
  return 0;
}
