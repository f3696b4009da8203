#include "obs/flight/span_export.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "robust/durable_file.hpp"
#include "robust/failpoint.hpp"
#include "robust/line_codec.hpp"

namespace pftk::obs::flight {

namespace {

/// Microseconds with ns resolution kept as a fraction — Chrome's `ts`
/// is conventionally µs, and three decimals preserve the full clock.
std::string us_from_ns(std::uint64_t ns) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << ns / 1000 << '.';
  const auto frac = static_cast<unsigned>(ns % 1000);
  os << static_cast<char>('0' + frac / 100) << static_cast<char>('0' + frac / 10 % 10)
     << static_cast<char>('0' + frac % 10);
  return os.str();
}

}  // namespace

std::string render_chrome_json(const DrainedSpans& drained,
                               std::string_view source) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const DrainedSpan& span : drained.spans) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "\n{\"name\":\"" << robust::json_escape(span.name)
       << "\",\"cat\":\"pftk\",\"ph\":\"X\",\"ts\":" << us_from_ns(span.begin_ns)
       << ",\"dur\":" << us_from_ns(span.end_ns - span.begin_ns)
       << ",\"pid\":1,\"tid\":" << span.tid << ",\"args\":{\"arg\":" << span.arg
       << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":\""
     << kSpansSchema << "\",\"source\":\"" << robust::json_escape(source)
     << "\",\"spans\":" << drained.spans.size()
     << ",\"dropped\":" << drained.dropped << ",\"threads\":" << drained.threads
     << "}}\n";
  return os.str();
}

std::string render_spans_jsonl(const DrainedSpans& drained,
                               std::string_view source) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << "{\"schema\":\"" << kSpansSchema << "\",\"kind\":\"header\",\"source\":\""
     << robust::json_escape(source) << "\",\"spans\":" << drained.spans.size()
     << ",\"dropped\":" << drained.dropped << ",\"threads\":" << drained.threads
     << "}\n";
  for (const DrainedSpan& span : drained.spans) {
    os << "{\"kind\":\"span\",\"name\":\"" << robust::json_escape(span.name)
       << "\",\"tid\":" << span.tid << ",\"begin_ns\":" << span.begin_ns
       << ",\"end_ns\":" << span.end_ns << ",\"arg\":" << span.arg << "}\n";
  }
  return os.str();
}

void save_spans_file(const std::string& path, const DrainedSpans& drained,
                     std::string_view source) {
  static const bool site_registered = [] {
    robust::FailpointRegistry::instance().register_site(
        "flight.write", "atomic write of the flight-recorder span export");
    return true;
  }();
  (void)site_registered;
  const bool chrome =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  const std::string body = chrome ? render_chrome_json(drained, source)
                                  : render_spans_jsonl(drained, source);
  robust::atomic_write_file(path, body, "flight.write");
}

DrainedSpans load_spans_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw robust::IoError("cannot open span file '" + path + "'");
  }
  DrainedSpans out;
  std::string line;
  bool saw_header = false;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) {
      continue;
    }
    try {
      const robust::JsonLine json(line);
      if (!saw_header) {
        if (json.string("schema") != kSpansSchema) {
          throw std::invalid_argument("unsupported schema");
        }
        out.dropped = json.integer<std::uint64_t>("dropped");
        out.threads = json.integer<std::uint32_t>("threads");
        saw_header = true;
        continue;
      }
      if (json.string("kind") != "span") {
        throw std::invalid_argument("unexpected record kind");
      }
      DrainedSpan span;
      span.name = json.string("name");
      span.tid = json.integer<std::uint32_t>("tid");
      span.begin_ns = json.integer<std::uint64_t>("begin_ns");
      span.end_ns = json.integer<std::uint64_t>("end_ns");
      span.arg = json.integer<std::uint64_t>("arg");
      if (span.end_ns < span.begin_ns) {
        throw std::invalid_argument("span ends before it begins");
      }
      out.spans.push_back(std::move(span));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("span file '" + path + "' line " +
                                  std::to_string(lineno) + ": " + e.what());
    }
  }
  if (!saw_header) {
    throw std::invalid_argument("span file '" + path +
                                "' has no pftk-spans/1 header");
  }
  return out;
}

}  // namespace pftk::obs::flight
