// Round-trip and validation tests for the trace file format.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <limits>
#include <sstream>

#include "sim/connection.hpp"
#include "trace/loss_classifier.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_recorder.hpp"
#include "trace/trace_validator.hpp"
#include "robust/durable_file.hpp"

namespace pftk::trace {
namespace {

std::vector<TraceEvent> simulated_trace() {
  sim::ConnectionConfig cfg;
  cfg.sender.advertised_window = 16.0;
  cfg.forward_link.propagation_delay = 0.08;
  cfg.reverse_link.propagation_delay = 0.08;
  cfg.forward_loss = sim::BernoulliLossSpec{0.02};
  cfg.sender.min_rto = 1.0;
  cfg.seed = 77;
  sim::Connection conn(cfg);
  TraceRecorder rec;
  conn.set_observer(&rec);
  conn.run_for(120.0);
  return rec.events();
}

/// The ostream writer the to_chars formatter replaced, kept verbatim as
/// the byte oracle: std::fixed/setprecision(9) prints "%.9f".
std::string oracle_trace_text(std::span<const TraceEvent> events) {
  std::ostringstream os;
  os << "# pftk trace v1: S/A/T/F/R events, tab-separated, times in seconds\n";
  os << std::fixed << std::setprecision(9);
  for (const TraceEvent& e : events) {
    switch (e.type) {
      case TraceEventType::kSegmentSent:
        os << "S\t" << e.t << '\t' << e.seq << '\t' << (e.retransmission ? 1 : 0) << '\t'
           << e.in_flight << '\t' << e.cwnd << '\n';
        break;
      case TraceEventType::kAckReceived:
        os << "A\t" << e.t << '\t' << e.seq << '\t' << (e.duplicate ? 1 : 0) << '\n';
        break;
      case TraceEventType::kTimeout:
        os << "T\t" << e.t << '\t' << e.seq << '\t' << e.consecutive << '\t' << e.value
           << '\n';
        break;
      case TraceEventType::kFastRetransmit:
        os << "F\t" << e.t << '\t' << e.seq << '\n';
        break;
      case TraceEventType::kRttSample:
        os << "R\t" << e.t << '\t' << e.value << '\t' << e.in_flight << '\n';
        break;
    }
  }
  return os.str();
}

/// Records at every formatting extreme: signed zeros, 9th-decimal
/// rounding ties, the smallest subnormal, +-DBL_MAX (the longest line
/// the format has), +-inf, +-nan, integer limits, and both flags set on
/// records that print only one of them.
std::vector<TraceEvent> edge_trace() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const auto make = [](TraceEventType type, double t, double value, double cwnd) {
    TraceEvent e;
    e.type = type;
    e.t = t;
    e.value = value;
    e.cwnd = cwnd;
    return e;
  };
  std::vector<TraceEvent> events;
  const double ties[] = {0.0, -0.0, 0.0000000005, 1.0000000005, 3599.9999999995, 5e-324};
  for (const double v : ties) {
    for (const TraceEventType type :
         {TraceEventType::kSegmentSent, TraceEventType::kAckReceived, TraceEventType::kTimeout,
          TraceEventType::kFastRetransmit, TraceEventType::kRttSample}) {
      events.push_back(make(type, v, -v, v));
    }
  }
  for (const double v : {DBL_MAX, -DBL_MAX, kInf, -kInf, kNan, -kNan}) {
    for (const TraceEventType type :
         {TraceEventType::kSegmentSent, TraceEventType::kTimeout, TraceEventType::kRttSample}) {
      TraceEvent e = make(type, v, v, v);
      e.seq = std::numeric_limits<std::uint64_t>::max();
      e.in_flight = std::numeric_limits<std::size_t>::max();
      e.consecutive = std::signbit(v) ? INT_MIN : INT_MAX;
      e.retransmission = true;
      e.duplicate = true;
      events.push_back(e);
    }
  }
  TraceEvent ack = make(TraceEventType::kAckReceived, 1.5, 0.0, 0.0);
  ack.seq = std::numeric_limits<std::uint64_t>::max();
  ack.retransmission = true;
  ack.duplicate = true;
  events.push_back(ack);
  return events;
}

std::string read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

TEST(TraceIo, WriterBytesEqualTheOstreamOracle) {
  const std::vector<TraceEvent> edges = edge_trace();
  // The table must reach the longest line the format has: an S record
  // with -DBL_MAX in both doubles and both integers at their maximum.
  const std::string edge_text = oracle_trace_text(edges);
  std::size_t longest = 0;
  for (std::size_t pos = 0, end; (end = edge_text.find('\n', pos)) != std::string::npos;
       pos = end + 1) {
    longest = std::max(longest, end + 1 - pos);
  }
  EXPECT_EQ(longest, 688u);

  const std::string path = ::testing::TempDir() + "pftk_trace_io_oracle.tsv";
  for (const std::vector<TraceEvent>& events : {simulated_trace(), edges}) {
    const std::string expected = oracle_trace_text(events);
    std::ostringstream os;
    write_trace(os, events);
    EXPECT_EQ(os.str(), expected);
    save_trace_file(path, events);
    EXPECT_EQ(read_bytes(path), expected);
  }
  std::remove(path.c_str());
}

TEST(TraceIo, RoundTripPreservesEveryEvent) {
  const std::vector<TraceEvent> original = simulated_trace();
  ASSERT_GT(original.size(), 100u);

  std::stringstream buffer;
  write_trace(buffer, original);
  const std::vector<TraceEvent> reloaded = read_trace(buffer);

  ASSERT_EQ(reloaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(reloaded[i].type, original[i].type) << "event " << i;
    EXPECT_NEAR(reloaded[i].t, original[i].t, 1e-9) << "event " << i;
    EXPECT_EQ(reloaded[i].seq, original[i].seq) << "event " << i;
    EXPECT_EQ(reloaded[i].retransmission, original[i].retransmission) << "event " << i;
    EXPECT_EQ(reloaded[i].duplicate, original[i].duplicate) << "event " << i;
    EXPECT_EQ(reloaded[i].consecutive, original[i].consecutive) << "event " << i;
    EXPECT_EQ(reloaded[i].in_flight, original[i].in_flight) << "event " << i;
  }
}

TEST(TraceIo, AnalysisIsIdenticalOnReloadedTrace) {
  const std::vector<TraceEvent> original = simulated_trace();
  std::stringstream buffer;
  write_trace(buffer, original);
  const std::vector<TraceEvent> reloaded = read_trace(buffer);

  const LossAnalysis a = analyze_losses(original, 3);
  const LossAnalysis b = analyze_losses(reloaded, 3);
  EXPECT_EQ(a.total_indications(), b.total_indications());
  EXPECT_EQ(a.td_count, b.td_count);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
}

TEST(TraceIo, CommentsAndBlankLinesAreSkipped) {
  std::stringstream buffer;
  buffer << "# header\n\nS\t0.5\t0\t0\t1\t1.0\n# trailing comment\n";
  const auto events = read_trace(buffer);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, TraceEventType::kSegmentSent);
  EXPECT_NEAR(events[0].t, 0.5, 1e-12);
}

TEST(TraceIo, MalformedLinesAreRejectedWithLineNumbers) {
  {
    std::stringstream buffer("S\t0.5\t0\n");  // truncated S record
    EXPECT_THROW((void)read_trace(buffer), std::invalid_argument);
  }
  {
    std::stringstream buffer("X\t0.5\t0\t0\n");  // unknown tag
    try {
      (void)read_trace(buffer);
      FAIL() << "expected an exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
    }
  }
}

TEST(TraceIo, FileWrappersRejectBadPaths) {
  EXPECT_THROW(save_trace_file("/nonexistent/dir/trace.txt", {}), pftk::robust::IoError);
  EXPECT_THROW((void)load_trace_file_lenient("/nonexistent/dir/trace.txt"),
               std::invalid_argument);
}

// Fuzz-style table of corrupt single lines: strict must throw, lenient
// must skip exactly that line and say why.
TEST(TraceIo, MalformedLineTable) {
  const struct {
    const char* name;
    std::string line;
  } cases[] = {
      {"truncated S record", "S\t0.5\t0"},
      {"truncated A record", "A\t0.5\t1"},
      {"unknown tag", "X\t0.5\t0\t0"},
      {"binary garbage", "\x01\x02\xff\xfe"},
      {"negative timestamp", "S\t-1.0\t0\t0\t1\t1.0"},
      {"huge timestamp", "S\t1e15\t0\t0\t1\t1.0"},
      {"negative seq wraps to huge", "A\t0.5\t-3\t0"},
      {"timeout depth out of range", "T\t0.5\t0\t99\t1.0"},
      {"cwnd out of range", "S\t0.5\t0\t0\t1\t1e300"},
      {"non-numeric field", "S\t0.5\tzero\t0\t1\t1.0"},
      {"embedded NUL", std::string("S\t0.5\t0\t0\t1\t1.0").insert(3, 1, '\0')},
  };
  const std::string good = "S\t0.1\t0\t0\t1\t1.000000000\n";
  for (const auto& c : cases) {
    const std::string content = good + c.line + "\n" + good;
    {
      std::istringstream strict(content);
      EXPECT_THROW((void)read_trace(strict), std::invalid_argument) << c.name;
    }
    std::istringstream lenient(content);
    TraceReadReport report;
    const auto events = read_trace_lenient(lenient, &report);
    EXPECT_EQ(events.size(), 2u) << c.name;
    EXPECT_EQ(report.lines_total, 3u) << c.name;
    EXPECT_EQ(report.events_parsed, 2u) << c.name;
    EXPECT_EQ(report.lines_dropped, 1u) << c.name;
    EXPECT_EQ(report.bytes_dropped, c.line.size() + 1) << c.name;
    EXPECT_EQ(report.first_error_line, 2u) << c.name;
    EXPECT_FALSE(report.first_error.empty()) << c.name;
    EXPECT_FALSE(report.clean()) << c.name;
    EXPECT_FALSE(report.truncated) << c.name;
  }
}

TEST(TraceIo, LenientRecoversTheValidPrefixExactly) {
  const std::vector<TraceEvent> original = simulated_trace();
  std::stringstream buffer;
  write_trace(buffer, original);
  // Simulate disk-full corruption: garbage, then a record cut mid-field
  // with no trailing newline.
  buffer << "%%% corrupted tail %%%\nS\t99.0\t12";

  TraceReadReport report;
  const auto events = read_trace_lenient(buffer, &report);
  ASSERT_EQ(events.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(events[i].seq, original[i].seq) << "event " << i;
  }
  EXPECT_EQ(report.events_parsed, original.size());
  EXPECT_EQ(report.lines_dropped, 2u);
  // The torn final line has no newline on disk, so exactly its own
  // bytes are charged — no phantom terminator.
  EXPECT_EQ(report.bytes_dropped, std::string("%%% corrupted tail %%%\n").size() +
                                      std::string("S\t99.0\t12").size());
  EXPECT_TRUE(report.truncated);
}

TEST(TraceIo, LenientFileLoadKeepsTheValidPrefixOfACorruptCapture) {
  // A capture file with a disk-full signature: garbage lines, then a
  // final record cut mid-field with no trailing newline.
  const std::vector<TraceEvent> original = simulated_trace();
  const std::string path = ::testing::TempDir() + "pftk_trace_io_corrupt.tsv";
  save_trace_file(path, original);
  const std::string tail = "garbage line\nX\t1\t2\t3\nS\t99.0\t12";
  std::ofstream(path, std::ios::app) << tail;

  TraceReadReport report;
  const auto events = load_trace_file_lenient(path, &report);
  EXPECT_EQ(events.size(), original.size());
  EXPECT_EQ(report.events_parsed, original.size());
  EXPECT_EQ(report.lines_dropped, 3u);
  EXPECT_EQ(report.bytes_dropped, tail.size());
  EXPECT_TRUE(report.truncated);

  // A file with nothing salvageable reads as zero events, every line
  // charged.
  const std::string junk = ::testing::TempDir() + "pftk_trace_io_junk.tsv";
  std::ofstream(junk) << "not a trace at all\n<<<binary-ish>>>\n";
  TraceReadReport junk_report;
  EXPECT_TRUE(load_trace_file_lenient(junk, &junk_report).empty());
  EXPECT_EQ(junk_report.lines_dropped, 2u);
}

TEST(TraceIo, TruncationRequiresAnUnterminatedBadFinalLine) {
  {
    // Unterminated but parseable final line: the event is salvaged and
    // `truncated` stays false, but a mid-record cut whose surviving
    // prefix is field-complete looks identical — so the report flags
    // the last event as suspect and the read is not clean.
    std::istringstream is("S\t0.5\t0\t0\t1\t1.0\nA\t0.6\t1\t0");
    TraceReadReport report;
    const auto events = read_trace_lenient(is, &report);
    EXPECT_EQ(events.size(), 2u);
    EXPECT_FALSE(report.truncated);
    EXPECT_TRUE(report.suspect_final_event);
    EXPECT_FALSE(report.clean());
  }
  {
    // Terminated bad line mid-file: corruption, but not truncation.
    std::istringstream is("junk\nS\t0.5\t0\t0\t1\t1.0\n");
    TraceReadReport report;
    (void)read_trace_lenient(is, &report);
    EXPECT_FALSE(report.truncated);
    EXPECT_EQ(report.lines_dropped, 1u);
  }
}

TEST(TraceIo, CrlfLineEndingsAreTolerated) {
  std::istringstream is("# dos capture\r\nS\t0.5\t0\t0\t1\t1.0\r\n");
  TraceReadReport report;
  const auto events = read_trace_lenient(is, &report);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NEAR(events[0].t, 0.5, 1e-12);
  EXPECT_TRUE(report.clean());
}

TEST(TraceIo, LenientReportDescribesItself) {
  std::istringstream is("S\t0.5\t0\t0\t1\t1.0\njunk\n");
  TraceReadReport report;
  (void)read_trace_lenient(is, &report);
  const std::string text = report.describe();
  EXPECT_NE(text.find("dropped 1"), std::string::npos) << text;
  EXPECT_NE(text.find("line 2"), std::string::npos) << text;
}

TEST(TraceIo, LenientMatchesStrictOnCleanInput) {
  const std::vector<TraceEvent> original = simulated_trace();
  std::stringstream buffer;
  write_trace(buffer, original);
  const std::string content = buffer.str();

  std::istringstream strict_in(content);
  std::istringstream lenient_in(content);
  TraceReadReport report;
  const auto strict_events = read_trace(strict_in);
  const auto lenient_events = read_trace_lenient(lenient_in, &report);
  ASSERT_EQ(lenient_events.size(), strict_events.size());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.events_parsed, strict_events.size());
}

TEST(TraceValidator, CleanSimulatedTraceValidates) {
  const TraceValidation report = validate_trace(simulated_trace());
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? ""
                                   : report.violations.front().message);
}

TEST(TraceValidator, CatchesRegressingTimestamps) {
  std::vector<TraceEvent> ev(2);
  ev[0].type = TraceEventType::kSegmentSent;
  ev[0].t = 1.0;
  ev[1].type = TraceEventType::kSegmentSent;
  ev[1].t = 0.5;
  ev[1].seq = 1;
  const TraceValidation report = validate_trace(ev);
  EXPECT_FALSE(report.ok());
}

TEST(TraceValidator, CatchesRetransmissionOfUnsentData) {
  std::vector<TraceEvent> ev(1);
  ev[0].type = TraceEventType::kSegmentSent;
  ev[0].seq = 5;
  ev[0].retransmission = true;
  EXPECT_FALSE(validate_trace(ev).ok());
}

TEST(TraceValidator, CatchesOutOfOrderFirstTransmissions) {
  std::vector<TraceEvent> ev(1);
  ev[0].type = TraceEventType::kSegmentSent;
  ev[0].seq = 3;  // first send must be seq 0
  EXPECT_FALSE(validate_trace(ev).ok());
}

TEST(TraceValidator, CatchesAckOfUnsentData) {
  std::vector<TraceEvent> ev(2);
  ev[0].type = TraceEventType::kSegmentSent;
  ev[0].seq = 0;
  ev[1].type = TraceEventType::kAckReceived;
  ev[1].t = 0.1;
  ev[1].seq = 10;
  EXPECT_FALSE(validate_trace(ev).ok());
}

TEST(TraceValidator, CatchesBadTimeoutAndRttRecords) {
  std::vector<TraceEvent> ev(2);
  ev[0].type = TraceEventType::kTimeout;
  ev[0].consecutive = 0;
  ev[0].value = -1.0;
  ev[1].type = TraceEventType::kRttSample;
  ev[1].value = 0.0;
  const TraceValidation report = validate_trace(ev);
  EXPECT_GE(report.violations.size(), 3u);
}

TEST(TraceValidator, EmptyTraceIsValid) {
  EXPECT_TRUE(validate_trace({}).ok());
}

}  // namespace
}  // namespace pftk::trace
