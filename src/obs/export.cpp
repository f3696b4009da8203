#include "obs/export.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "robust/durable_file.hpp"
#include "robust/line_codec.hpp"

namespace pftk::obs {

namespace {

using robust::format_double;
using robust::json_escape;
using robust::JsonLine;

// ---- record writers --------------------------------------------------

void write_metric_line(std::ostream& os, const MetricValue& mv) {
  os << "{\"kind\":\"metric\",\"type\":\""
     << (mv.kind == MetricKind::kCounter    ? "counter"
         : mv.kind == MetricKind::kGauge    ? "gauge"
                                            : "histogram")
     << "\",\"name\":\"" << json_escape(mv.name) << "\",\"help\":\""
     << json_escape(mv.help) << "\"";
  if (mv.kind == MetricKind::kHistogram) {
    os << ",\"bounds\":[";
    for (std::size_t i = 0; i < mv.bounds.size(); ++i) {
      os << (i ? "," : "") << format_double(mv.bounds[i]);
    }
    os << "],\"buckets\":[";
    for (std::size_t i = 0; i < mv.buckets.size(); ++i) {
      os << (i ? "," : "") << mv.buckets[i];
    }
    os << "],\"count\":" << mv.count << ",\"sum\":" << format_double(mv.sum)
       << ",\"rejected\":" << mv.rejected;
  } else {
    os << ",\"value\":" << format_double(mv.value);
  }
  os << "}\n";
}

void write_event_line(std::ostream& os, const ConnEvent& event) {
  os << "{\"kind\":\"event\",\"t\":" << format_double(event.t) << ",\"event\":\""
     << conn_event_name(event.kind) << "\",\"value\":" << format_double(event.value)
     << ",\"aux\":" << format_double(event.aux) << "}\n";
}

void write_span_line(std::ostream& os, const SpanRecord& span) {
  os << "{\"kind\":\"span\",\"name\":\"" << json_escape(span.name)
     << "\",\"outcome\":\"" << json_escape(span.outcome)
     << "\",\"attempts\":" << span.attempts
     << ",\"total_s\":" << format_double(span.total_seconds)
     << ",\"backoff_s\":" << format_double(span.backoff_seconds)
     << ",\"journal_writes\":" << span.journal_writes
     << ",\"journal_bytes\":" << span.journal_bytes << ",\"phases\":[";
  for (std::size_t i = 0; i < span.phases.size(); ++i) {
    const SpanPhase& phase = span.phases[i];
    os << (i ? "," : "") << "{\"phase\":\"" << json_escape(phase.name)
       << "\",\"s\":" << format_double(phase.seconds) << ",\"detail\":\""
       << json_escape(phase.detail) << "\"}";
  }
  os << "]}\n";
}

MetricValue parse_metric_line(const JsonLine& json) {
  MetricValue mv;
  const std::string& type = json.string("type");
  mv.kind = type == "counter"     ? MetricKind::kCounter
            : type == "gauge"     ? MetricKind::kGauge
            : type == "histogram" ? MetricKind::kHistogram
                                  : throw std::invalid_argument(
                                        "unknown metric type '" + type + "'");
  mv.name = json.string("name");
  mv.help = json.string("help");
  if (mv.kind == MetricKind::kHistogram) {
    mv.bounds = json.numbers("bounds");
    mv.buckets = json.integers<std::uint64_t>("buckets");
    mv.count = json.integer<std::uint64_t>("count");
    mv.sum = json.number("sum");
    mv.rejected = json.integer<std::uint64_t>("rejected");
    if (mv.buckets.size() != mv.bounds.size() + 1) {
      throw std::invalid_argument("histogram bucket/bound count mismatch");
    }
  } else {
    mv.value = json.number("value");
  }
  return mv;
}

ConnEvent parse_event_line(const JsonLine& json) {
  ConnEvent event;
  event.t = json.number("t");
  event.kind = conn_event_from_name(json.string("event"));
  event.value = json.number("value");
  event.aux = json.number("aux");
  return event;
}

SpanRecord parse_span_line(const JsonLine& json) {
  SpanRecord span;
  span.name = json.string("name");
  span.outcome = json.string("outcome");
  span.attempts = json.integer<int>("attempts");
  span.total_seconds = json.number("total_s");
  span.backoff_seconds = json.number("backoff_s");
  span.journal_writes = json.integer<std::uint64_t>("journal_writes");
  span.journal_bytes = json.integer<std::uint64_t>("journal_bytes");
  for (const JsonLine& obj : json.objects("phases")) {
    span.phases.push_back({obj.string("phase"), obj.number("s"), obj.string("detail")});
  }
  return span;
}

}  // namespace

void write_prometheus(std::ostream& os, const MetricsSnapshot& snapshot) {
  for (const MetricValue& mv : snapshot.metrics) {
    os << "# HELP " << mv.name << " " << mv.help << "\n"
       << "# TYPE " << mv.name << " "
       << (mv.kind == MetricKind::kCounter    ? "counter"
           : mv.kind == MetricKind::kGauge    ? "gauge"
                                              : "histogram")
       << "\n";
    if (mv.kind == MetricKind::kHistogram) {
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < mv.bounds.size(); ++i) {
        cumulative = saturating_add(cumulative, mv.buckets[i]);
        os << mv.name << "_bucket{le=\"" << format_double(mv.bounds[i]) << "\"} "
           << cumulative << "\n";
      }
      cumulative = saturating_add(cumulative, mv.buckets.back());
      os << mv.name << "_bucket{le=\"+Inf\"} " << cumulative << "\n"
         << mv.name << "_sum " << format_double(mv.sum) << "\n"
         << mv.name << "_count " << mv.count << "\n";
      if (mv.rejected > 0) {
        os << mv.name << "_rejected " << mv.rejected << "\n";
      }
    } else {
      os << mv.name << " " << format_double(mv.value) << "\n";
    }
  }
}

void write_obs_jsonl(std::ostream& os, const ObsBundle& bundle) {
  os << "{\"schema\":\"" << kObsSchema << "\",\"kind\":\"header\",\"source\":\""
     << json_escape(bundle.source) << "\",\"events_dropped\":" << bundle.events_dropped
     << "}\n";
  for (const MetricValue& mv : bundle.metrics.metrics) {
    write_metric_line(os, mv);
  }
  for (const ConnEvent& event : bundle.events) {
    write_event_line(os, event);
  }
  for (const SpanRecord& span : bundle.spans) {
    write_span_line(os, span);
  }
}

ObsBundle read_obs_jsonl(std::istream& is, ObsReadReport* report) {
  ObsBundle bundle;
  ObsReadReport local;
  ObsReadReport& rr = report != nullptr ? *report : local;
  rr = ObsReadReport{};

  std::string line;
  bool have_header = false;
  while (std::getline(is, line)) {
    ++rr.lines_total;
    if (line.empty()) {
      continue;
    }
    try {
      const JsonLine json(line);
      if (!have_header) {
        // The first non-empty line must be the header; anything else
        // means this is not an obs file at all.
        const std::string& schema = json.string("schema");
        if (schema != kObsSchema) {
          throw std::invalid_argument("unsupported obs schema '" + schema + "'");
        }
        bundle.source = json.string("source");
        bundle.events_dropped = json.integer<std::uint64_t>("events_dropped");
        have_header = true;
        ++rr.records_parsed;
        continue;
      }
      const std::string& kind = json.string("kind");
      if (kind == "metric") {
        bundle.metrics.metrics.push_back(parse_metric_line(json));
      } else if (kind == "event") {
        bundle.events.push_back(parse_event_line(json));
      } else if (kind == "span") {
        bundle.spans.push_back(parse_span_line(json));
      } else {
        throw std::invalid_argument("unknown record kind '" + kind + "'");
      }
      ++rr.records_parsed;
    } catch (const std::exception& ex) {
      if (!have_header) {
        throw std::invalid_argument(std::string("not a pftk-obs/1 file: ") +
                                    ex.what());
      }
      ++rr.lines_dropped;
      if (rr.first_error.empty()) {
        rr.first_error = "line " + std::to_string(rr.lines_total) + ": " + ex.what();
      }
    }
  }
  if (!have_header) {
    throw std::invalid_argument("not a pftk-obs/1 file: no header line");
  }
  return bundle;
}

bool is_prometheus_path(const std::string& path) noexcept {
  constexpr std::string_view kSuffix = ".prom";
  return path.size() >= kSuffix.size() &&
         path.compare(path.size() - kSuffix.size(), kSuffix.size(), kSuffix) == 0;
}

void save_obs_file(const std::string& path, const ObsBundle& bundle) {
  // Serialize in memory, then durably replace the target: write-temp +
  // fsync + atomic rename. A crash (or injected export.* failpoint)
  // mid-write never leaves a half-written export behind, and every
  // write/flush/close error surfaces as robust::IoError — which the
  // campaign failure taxonomy classifies instead of dropping.
  std::ostringstream os;
  const bool prometheus = is_prometheus_path(path);
  if (prometheus) {
    write_prometheus(os, bundle.metrics);
  } else {
    write_obs_jsonl(os, bundle);
  }
  robust::atomic_write_file(
      path, os.str(), prometheus ? "export.prom.write" : "export.jsonl.write");
}

ObsBundle load_obs_file(const std::string& path, ObsReadReport* report) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::invalid_argument("cannot open " + path);
  }
  return read_obs_jsonl(is, report);
}

void merge_obs_bundles(ObsBundle& bundle, const ObsBundle& other) {
  if (bundle.source.empty()) {
    bundle.source = other.source;
  } else if (!other.source.empty() && other.source != bundle.source) {
    bundle.source += "+" + other.source;
  }
  bundle.metrics.merge(other.metrics);
  bundle.events.insert(bundle.events.end(), other.events.begin(),
                       other.events.end());
  bundle.events_dropped += other.events_dropped;
  bundle.spans.insert(bundle.spans.end(), other.spans.begin(),
                      other.spans.end());
}

}  // namespace pftk::obs
