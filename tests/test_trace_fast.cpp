// Corruption-matrix parity tests for the trace reader (mmap image +
// chunk-parallel parser, trace_reader_fast.*) against the istream
// reference reader, plus regression tests for the three silent-parse
// bugs fixed alongside it:
//   1. trailing garbage / merged records were accepted as valid events;
//   2. bytes_dropped miscounted CRLF (-1) and torn tails (+1);
//   3. an unterminated-but-parseable final line went unflagged.
// Every matrix case asserts identical events (bit-exact doubles) and an
// identical TraceReadReport, at one chunk and at many forced chunks, so
// the accounting is provably invariant to thread count. A CALIB column
// sends every case through a live serve::Server and requires the same
// damage fields and the same p/rtt/t0 as a library load.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "robust/durable_file.hpp"
#include "robust/failpoint.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_reader_fast.hpp"
#include "trace/trace_scan.hpp"
#include "trace/trace_summary.hpp"

namespace pftk::trace {
namespace {

constexpr const char* kGood1 = "S\t0.100000000\t1\t0\t1\t2.000000000\n";
constexpr const char* kGood2 = "A\t0.200000000\t1\t0\n";
constexpr const char* kGood3 = "T\t0.300000000\t2\t1\t1.500000000\n";
constexpr const char* kGood4 = "F\t0.400000000\t3\n";
constexpr const char* kGood5 = "R\t0.500000000\t0.210000000\t8\n";

std::string good_block() {
  return std::string("# header\n") + kGood1 + kGood2 + kGood3 + kGood4 + kGood5;
}

struct Parsed {
  std::vector<TraceEvent> events;
  TraceReadReport report;
};

Parsed reference_lenient(const std::string& content) {
  std::istringstream is(content);
  Parsed p;
  p.events = read_trace_lenient(is, &p.report);
  return p;
}

Parsed fast_lenient(const std::string& content, const FastReaderOptions& opts) {
  Parsed p;
  p.events = read_trace_buffer(content, &p.report, opts);
  return p;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_events_identical(const std::vector<TraceEvent>& a,
                             const std::vector<TraceEvent>& b,
                             const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type, b[i].type) << label << " event " << i;
    EXPECT_EQ(bits(a[i].t), bits(b[i].t)) << label << " event " << i;
    EXPECT_EQ(a[i].seq, b[i].seq) << label << " event " << i;
    EXPECT_EQ(a[i].retransmission, b[i].retransmission) << label << " event " << i;
    EXPECT_EQ(a[i].duplicate, b[i].duplicate) << label << " event " << i;
    EXPECT_EQ(a[i].consecutive, b[i].consecutive) << label << " event " << i;
    EXPECT_EQ(bits(a[i].value), bits(b[i].value)) << label << " event " << i;
    EXPECT_EQ(a[i].in_flight, b[i].in_flight) << label << " event " << i;
    EXPECT_EQ(bits(a[i].cwnd), bits(b[i].cwnd)) << label << " event " << i;
  }
}

void expect_reports_identical(const TraceReadReport& a, const TraceReadReport& b,
                              const std::string& label) {
  EXPECT_EQ(a.lines_total, b.lines_total) << label;
  EXPECT_EQ(a.events_parsed, b.events_parsed) << label;
  EXPECT_EQ(a.comment_lines, b.comment_lines) << label;
  EXPECT_EQ(a.lines_dropped, b.lines_dropped) << label;
  EXPECT_EQ(a.bytes_dropped, b.bytes_dropped) << label;
  EXPECT_EQ(a.first_error_line, b.first_error_line) << label;
  EXPECT_EQ(a.first_error, b.first_error) << label;
  EXPECT_EQ(a.truncated, b.truncated) << label;
  EXPECT_EQ(a.suspect_final_event, b.suspect_final_event) << label;
}

std::string write_temp(const std::string& name, const std::string& content) {
  const std::string path = testing::TempDir() + name;
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << content;
  return path;
}

/// The CALIB entry point as a matrix column: one live Server and one
/// connection, reused for every case. Each case is written to a file and
/// sent as a CALIB request; the answer must carry the reference report's
/// damage fields and the p/rtt/t0 that load_trace_file_lenient +
/// summarize_trace give for the same file.
class CalibColumn {
 public:
  CalibColumn() : server_(make_config()) {
    server_.start();
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  server_.config().socket_path.c_str());
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~CalibColumn() {
    ::close(fd_);
    server_.request_stop();
    (void)server_.wait();
    std::remove(path_.c_str());
  }
  CalibColumn(const CalibColumn&) = delete;
  CalibColumn& operator=(const CalibColumn&) = delete;

  [[nodiscard]] std::uint64_t slices_parsed() const {
    return server_.totals().calib_chunks.load();
  }

  void check(const std::string& content, const TraceReadReport& ref,
             const std::string& label) {
    ASSERT_TRUE(connected_) << label;
    (void)write_temp(kFile, content);
    const std::string request = "CALIB m trace=" + path_ + "\n";
    ASSERT_EQ(::send(fd_, request.data(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()))
        << label;
    const serve::Response resp = serve::parse_response(read_line());
    ASSERT_TRUE(resp.ok) << label;
    const auto field = [&](const char* key) {
      const std::string* v = resp.find(key);
      return v == nullptr ? std::string("<missing>") : *v;
    };
    EXPECT_EQ(field("lines_dropped"), std::to_string(ref.lines_dropped)) << label;
    EXPECT_EQ(field("bytes_dropped"), std::to_string(ref.bytes_dropped)) << label;
    EXPECT_EQ(field("truncated"), ref.truncated ? "1" : "0") << label;
    EXPECT_EQ(field("suspect_final"), ref.suspect_final_event ? "1" : "0") << label;
    const TraceSummary s = summarize_trace(load_trace_file_lenient(path_), 3);
    EXPECT_EQ(field("p"), serve::format_number(s.observed_p)) << label;
    EXPECT_EQ(field("rtt"), serve::format_number(s.avg_rtt)) << label;
    EXPECT_EQ(field("t0"), serve::format_number(s.avg_timeout)) << label;
  }

 private:
  static constexpr const char* kFile = "pftk_calib_matrix.tsv";

  static serve::ServeConfig make_config() {
    serve::ServeConfig config;
    config.socket_path =
        "/tmp/pftk_tfast_" + std::to_string(::getpid()) + ".sock";
    config.shards = 1;
    return config;
  }

  std::string read_line() {
    std::string line;
    char c = 0;
    while (::recv(fd_, &c, 1, 0) == 1 && c != '\n') {
      line += c;
    }
    return line;
  }

  serve::Server server_;
  std::string path_ = testing::TempDir() + kFile;
  int fd_ = -1;
  bool connected_ = false;
};

/// The fast reader over one input, at one chunk and at many forced tiny
/// chunks, and the CALIB column: events and every report field must
/// match the reference reader's.
void expect_full_parity(const std::string& content, const std::string& label,
                        CalibColumn& calib) {
  const Parsed ref = reference_lenient(content);
  const FastReaderOptions variants[] = {
      {.threads = 1, .min_chunk_bytes = 1u << 20},
      {.threads = 4, .min_chunk_bytes = 1},
      {.threads = 7, .min_chunk_bytes = 1},
  };
  for (const auto& opts : variants) {
    const std::string tag =
        label + " [j" + std::to_string(opts.threads) + "]";
    const Parsed fast = fast_lenient(content, opts);
    expect_events_identical(ref.events, fast.events, tag);
    expect_reports_identical(ref.report, fast.report, tag);
  }
  calib.check(content, ref.report, label + " [CALIB]");
}

// ---------------------------------------------------------------------------
// The corruption matrix.

TEST(TraceFastParity, CorruptionMatrix) {
  const std::string g = good_block();
  std::string nul_record = "S\t0.5\t0\t0\t1\t1.0";
  nul_record.insert(3, 1, '\0');
  const struct {
    const char* name;
    std::string content;
  } cases[] = {
      {"clean", g},
      {"empty input", ""},
      {"only comments", "# a\n# b\n"},
      {"unterminated comment", "# a\n# tail with no newline"},
      {"blank lines", "\n\n" + g + "\n\n"},
      {"trailing garbage", g + "F\t1.0\t5\tgarbage\n" + g},
      {"merged records", g + "S\t0.6\t4\t0\t1\t2.0\tS\t0.7\t5\t0\t1\t2.0\n"},
      {"merged F records", g + "F\t1.0\t5\tF\t1.1\t6\n"},
      {"extra numeric field", g + "A\t0.8\t2\t0\t7\n"},
      {"crlf clean", "# dos\r\nS\t0.5\t0\t0\t1\t1.0\r\n"},
      {"crlf dropped line", "junk\r\n" + g},
      {"crlf torn tail", g + "S\t0.9\t9\r"},
      {"embedded NUL", g + nul_record + "\n" + g},
      {"NUL inside comment", std::string("# co\0mment\n", 11) + g},
      {"whitespace-only line", g + " \t \n" + g},
      {"leading spaces valid", "  S\t0.5\t0\t0\t1\t1.0\n"},
      {"space then hash", " # not a comment\n" + g},
      {"unterminated parseable final", g + "A\t0.6\t1\t0"},
      {"unterminated bad final", g + "S\t99.0\t12"},
      {"negative seq wraps", g + "A\t0.5\t-3\t0\n"},
      {"u64 overflow", g + "A\t0.5\t9999999999999999999999999\t0\n"},
      {"int overflow flag", g + "A\t0.5\t1\t99999999999\n"},
      {"plus-signed time", "S\t+0.5\t0\t0\t1\t1.0\n"},
      {"inf duration", g + "R\t0.5\tinf\t3\n"},
      {"nan time", g + "S\tnan\t0\t0\t1\t1.0\n"},
      {"double overflow", g + "S\t1e999\t0\t0\t1\t1.0\n"},
      {"incomplete exponent", g + "S\t5e\t0\t0\t1\t1.0\n"},
      {"valid exponent", "R\t1.5e-2\t0.21\t8\n"},
      {"hex float", "S\t0x10\t0\t0\t1\t1.0\n"},
      {"hex float with p exponent", "S\t0x1.8p1\t0\t0\t1\t1.0\n"},
      {"bare 0x", "S\t0x\t0\t0\t1\t1.0\n"},
      {"trailing dot", "S\t5.\t0\t0\t1\t1.0\n"},
      {"leading dot", "S\t.5\t0\t0\t1\t1.0\n"},
      {"double dot", "S\t5.5.5\t0\t0\t1\t1.0\n"},
      {"timeout depth range", g + "T\t0.5\t0\t99\t1.0\n"},
      {"cwnd range", g + "S\t0.5\t0\t0\t1\t1e300\n"},
      {"huge time in range", "S\t999999999999.0\t0\t0\t1\t1.0\n"},
      {"time just out of range", "S\t1000000000001.0\t0\t0\t1\t1.0\n"},
      {"long mantissa", "S\t0.12345678901234567890123\t0\t0\t1\t1.0\n"},
      {"double tab separators", "S\t\t0.5\t0\t0\t1\t1.0\n"},
      {"huge garbage line", std::string(10000, 'x') + "\n" + g},
      {"binary garbage", std::string("\x01\x02\xff\xfe\n") + g},
  };
  CalibColumn calib;
  for (const auto& c : cases) {
    expect_full_parity(c.content, c.name, calib);
  }
}

TEST(TraceFastParity, TornTailAtEveryByteOffset) {
  const std::string prefix = good_block();
  const std::string last = "S\t12.345678901\t17\t1\t9\t23.000000000";
  CalibColumn calib;
  for (std::size_t cut = 0; cut <= last.size(); ++cut) {
    const std::string content = prefix + last.substr(0, cut);
    expect_full_parity(content, "torn tail cut=" + std::to_string(cut), calib);
  }
}

TEST(TraceFastParity, ChunkBoundarySweep) {
  // Boundaries at every alignment relative to the SWAR word and the
  // parser's record structure: force chunk splits at 1..64-byte grain
  // over a mixed clean/corrupt input and require exact parity.
  std::string content;
  for (int i = 0; i < 40; ++i) {
    content += good_block();
    if (i % 7 == 3) {
      content += "garbage line " + std::to_string(i) + "\n";
    }
  }
  content += "S\t99.0\t12";  // torn tail
  const Parsed ref = reference_lenient(content);
  for (std::size_t grain = 1; grain <= 64; ++grain) {
    const FastReaderOptions opts{.threads = 4,
                                 .min_chunk_bytes = grain * 16};
    const Parsed fast = fast_lenient(content, opts);
    const std::string tag = "grain=" + std::to_string(grain);
    expect_events_identical(ref.events, fast.events, tag);
    expect_reports_identical(ref.report, fast.report, tag);
  }
}

TEST(TraceFastParity, CalibSlicesALargeCaptureLikeOneRead) {
  // Over 2 MiB: CALIB parses it in more than one ~1 MiB slice, and the
  // folded slice reports must still be the one-read report, damage from
  // both slices and the torn tail included.
  std::string content;
  int block = 0;
  while (content.size() < (5u << 19)) {
    content += good_block();
    if (++block % 9000 == 1) {
      content += "garbage line " + std::to_string(block) + "\n";
    }
  }
  content += "S\t99.0\t12";
  CalibColumn calib;
  const Parsed ref = reference_lenient(content);
  ASSERT_GE(ref.report.lines_dropped, 3u);
  calib.check(content, ref.report, "large capture");
  EXPECT_EQ(calib.slices_parsed(), 2u);
}

TEST(TraceFastParity, ReportInvariantAcrossThreadCounts) {
  std::string content;
  for (int i = 0; i < 200; ++i) {
    content += good_block();
  }
  content += "junk\n" + good_block() + "S\t1.0\t1";
  const Parsed j1 = fast_lenient(content, {.threads = 1, .min_chunk_bytes = 1});
  const Parsed j4 = fast_lenient(content, {.threads = 4, .min_chunk_bytes = 1});
  const Parsed j16 = fast_lenient(content, {.threads = 16, .min_chunk_bytes = 1});
  expect_events_identical(j1.events, j4.events, "j1 vs j4");
  expect_reports_identical(j1.report, j4.report, "j1 vs j4");
  expect_events_identical(j1.events, j16.events, "j1 vs j16");
  expect_reports_identical(j1.report, j16.report, "j1 vs j16");
}

// ---------------------------------------------------------------------------
// Regression tests for the three fixed bugs. Each fails on the pre-fix
// parser (which accepted garbage tails, miscounted CRLF/torn bytes, and
// never flagged a parseable torn tail).

TEST(TraceParseBugfix, TrailingGarbageIsRejected) {
  {
    std::istringstream is("F\t1.0\t5\tgarbage\n");
    TraceReadReport rep;
    const auto events = read_trace_lenient(is, &rep);
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(rep.lines_dropped, 1u);
    EXPECT_EQ(rep.first_error, "trailing garbage");
  }
  {
    // Two records merged onto one line must not parse as the first one.
    std::istringstream is("F\t1.0\t5\tF\t1.1\t6\n");
    TraceReadReport rep;
    const auto events = read_trace_lenient(is, &rep);
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(rep.first_error, "trailing garbage");
  }
  {
    // Trailing whitespace is still fine.
    std::istringstream is("F\t1.0\t5 \t\n");
    TraceReadReport rep;
    const auto events = read_trace_lenient(is, &rep);
    EXPECT_EQ(events.size(), 1u);
    EXPECT_TRUE(rep.clean());
  }
  {
    std::istringstream is("F\t1.0\t5\tgarbage\n");
    EXPECT_THROW((void)read_trace(is), std::invalid_argument);
  }
}

TEST(TraceParseBugfix, BytesDroppedCountsActualDiskBytes) {
  {
    // CRLF dropped line: "junk\r\n" is 6 bytes on disk, not 5.
    std::istringstream is("junk\r\nS\t0.5\t0\t0\t1\t1.0\n");
    TraceReadReport rep;
    (void)read_trace_lenient(is, &rep);
    EXPECT_EQ(rep.lines_dropped, 1u);
    EXPECT_EQ(rep.bytes_dropped, std::string("junk\r\n").size());
  }
  {
    // Torn bad tail: "S\t9" is 3 bytes on disk — there is no newline.
    std::istringstream is("S\t0.5\t0\t0\t1\t1.0\nS\t9");
    TraceReadReport rep;
    (void)read_trace_lenient(is, &rep);
    EXPECT_EQ(rep.lines_dropped, 1u);
    EXPECT_EQ(rep.bytes_dropped, std::string("S\t9").size());
    EXPECT_TRUE(rep.truncated);
  }
}

TEST(TraceParseBugfix, UnterminatedParseableFinalLineIsSuspect) {
  std::istringstream is("S\t0.5\t0\t0\t1\t1.0\nA\t0.6\t1\t0");
  TraceReadReport rep;
  const auto events = read_trace_lenient(is, &rep);
  ASSERT_EQ(events.size(), 2u);  // still salvaged...
  EXPECT_FALSE(rep.truncated);
  EXPECT_TRUE(rep.suspect_final_event);  // ...but surfaced
  EXPECT_FALSE(rep.clean());
  EXPECT_NE(rep.describe().find("no newline"), std::string::npos) << rep.describe();
}

TEST(TraceReadReportMerge, LineAlignedSlicesFoldToTheWholeReport) {
  // Every split of a damaged input into three line-aligned slices: the
  // slices' reports fold to the whole input's report in either grouping,
  // and the empty report is the identity on both sides.
  const std::string content = good_block() + "junk\n" + good_block() +
                              "F\t1.0\t5\tgarbage\n" + kGood1 + "S\t99.0\t12";
  std::vector<std::size_t> cuts{0};
  for (std::size_t i = 0; i < content.size(); ++i) {
    if (content[i] == '\n') {
      cuts.push_back(i + 1);
    }
  }
  cuts.push_back(content.size());
  const Parsed whole = reference_lenient(content);
  for (std::size_t a = 0; a < cuts.size(); ++a) {
    for (std::size_t b = a; b < cuts.size(); ++b) {
      const std::string tag = "cuts " + std::to_string(cuts[a]) + "/" +
                              std::to_string(cuts[b]);
      const Parsed x = reference_lenient(content.substr(0, cuts[a]));
      const Parsed y = reference_lenient(content.substr(cuts[a], cuts[b] - cuts[a]));
      const Parsed z = reference_lenient(content.substr(cuts[b]));
      TraceReadReport left = x.report;
      left.merge(y.report).merge(z.report);
      TraceReadReport yz = y.report;
      yz.merge(z.report);
      TraceReadReport right = x.report;
      right.merge(yz);
      expect_reports_identical(whole.report, left, tag + " (x+y)+z");
      expect_reports_identical(whole.report, right, tag + " x+(y+z)");
    }
  }
  TraceReadReport empty;
  empty.merge(whole.report);
  expect_reports_identical(whole.report, empty, "empty+whole");
  TraceReadReport same = whole.report;
  same.merge(TraceReadReport{});
  expect_reports_identical(whole.report, same, "whole+empty");
}

// ---------------------------------------------------------------------------
// File-level loads: the mapped image, unmappable inputs, the failpoint.

TEST(TraceFastFile, MmapLoadMatchesReferenceReader) {
  std::string content;
  for (int i = 0; i < 50; ++i) {
    content += good_block();
  }
  content += "%%% corrupted tail %%%\nS\t99.0\t12";
  const std::string path = write_temp("pftk_fast_mmap.tsv", content);

  TraceReadReport fast_rep;
  const auto fast_events = load_trace_file_lenient(path, &fast_rep);
  const Parsed ref = reference_lenient(content);
  expect_events_identical(ref.events, fast_events, "mmap load");
  expect_reports_identical(ref.report, fast_rep, "mmap load");
  EXPECT_TRUE(fast_rep.truncated);
  std::remove(path.c_str());
}

TEST(TraceFastFile, LoadReportNamesTheReferenceStrictError) {
  const std::string content = good_block() + "X\t1\t2\t3\n" + good_block();
  const std::string path = write_temp("pftk_fast_first_error.tsv", content);
  TraceReadReport rep;
  (void)load_trace_file_lenient(path, &rep);
  std::string ref_what;
  try {
    std::istringstream is(content);
    (void)read_trace(is);
    FAIL() << "expected an exception";
  } catch (const std::invalid_argument& e) {
    ref_what = e.what();
  }
  EXPECT_EQ(rep.first_error_line, 7u);
  EXPECT_EQ(ref_what, "read_trace: line " + std::to_string(rep.first_error_line) +
                          ": " + rep.first_error);
  std::remove(path.c_str());
}

TEST(TraceFastFile, EmptyFileAndDeviceFallback) {
  const std::string path = write_temp("pftk_fast_empty.tsv", "");
  TraceReadReport rep;
  EXPECT_TRUE(load_trace_file_lenient(path, &rep).empty());
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.lines_total, 0u);
  std::remove(path.c_str());

  // /dev/null is a character device: not mappable, read into memory.
  TraceReadReport dev_rep;
  EXPECT_TRUE(load_trace_file_lenient("/dev/null", &dev_rep).empty());
  EXPECT_TRUE(dev_rep.clean());
}

TEST(TraceFastFile, PipeIsReadIntoMemoryWithTheSameReport) {
  // A pipe cannot be mapped: the load reads it into memory and parses
  // that copy, torn tail included.
  const std::string content = good_block() + "junk\n" + good_block() + "A\t0.6\t1\t0";
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], content.data(), content.size()),
            static_cast<ssize_t>(content.size()));
  ::close(fds[1]);
  TraceReadReport rep;
  const auto events =
      load_trace_file_lenient("/proc/self/fd/" + std::to_string(fds[0]), &rep);
  ::close(fds[0]);
  const Parsed ref = reference_lenient(content);
  expect_events_identical(ref.events, events, "pipe");
  expect_reports_identical(ref.report, rep, "pipe");
  EXPECT_TRUE(rep.suspect_final_event);
}

TEST(TraceFastFile, ReadFailpointCutsTheImageOnce) {
  const std::string content = good_block() + good_block();
  const std::string path = write_temp("pftk_fast_failpoint.tsv", content);
  auto& registry = robust::FailpointRegistry::instance();
  // Cuts at the start, mid-comment, mid-record, on a record boundary,
  // one byte short of the end, at the end and past it.
  const std::size_t boundary = content.find("A\t");
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{5}, std::size_t{20}, boundary,
        content.size() - 1, content.size(), content.size() + 100}) {
    const std::string tag = "cut=" + std::to_string(cut);
    registry.disarm_all();
    registry.arm_specs("trace.read:after=0:action=short_write:arg=" +
                       std::to_string(cut));
    TraceReadReport rep;
    const auto events = load_trace_file_lenient(path, &rep);
    EXPECT_EQ(registry.fired_count("trace.read"), 1u) << tag;
    EXPECT_EQ(registry.evaluation_count("trace.read"), 1u) << tag;
    const Parsed ref = reference_lenient(content.substr(0, std::min(cut, content.size())));
    expect_events_identical(ref.events, events, tag);
    expect_reports_identical(ref.report, rep, tag);
  }
  // A cut inside the second record's line leaves a torn, unparseable tail.
  registry.disarm_all();
  registry.arm_specs("trace.read:after=0:action=short_write:arg=" +
                     std::to_string(boundary + 4));
  TraceReadReport torn;
  (void)load_trace_file_lenient(path, &torn);
  EXPECT_TRUE(torn.truncated);

  registry.disarm_all();
  registry.arm_specs("trace.read:after=0:action=error");
  EXPECT_THROW((void)load_trace_file_lenient(path, &torn), robust::IoError);
  registry.disarm_all();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Scanner primitives.

TEST(TraceScan, FindNewlineMatchesMemchrEverywhere) {
  // Deterministic pseudo-random buffer with '\n' sprinkled at awkward
  // offsets (SWAR word edges, AVX lane edges, head/tail remainders).
  std::string buf(517, 'a');
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (char& c : buf) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    c = static_cast<char>('a' + (state >> 60));
  }
  for (std::size_t pos : {std::size_t{7}, std::size_t{8}, std::size_t{31},
                          std::size_t{32}, std::size_t{63}, std::size_t{64},
                          std::size_t{255}, std::size_t{516}}) {
    buf[pos] = '\n';
  }
  for (std::size_t start = 0; start <= buf.size(); ++start) {
    const void* hit = start < buf.size()
                          ? std::memchr(buf.data() + start, '\n', buf.size() - start)
                          : nullptr;
    const std::size_t expected =
        hit == nullptr
            ? std::string_view::npos
            : static_cast<std::size_t>(static_cast<const char*>(hit) - buf.data());
    EXPECT_EQ(find_newline(buf, start), expected) << "start=" << start;
  }
}

TEST(TraceScan, SplitLineAlignedCoversInputWithWholeLineChunks) {
  std::string content;
  for (int i = 0; i < 23; ++i) {
    content += "line number " + std::to_string(i) + "\n";
  }
  content += "torn";
  for (std::size_t want : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                           std::size_t{16}, std::size_t{1000}}) {
    const auto chunks = split_line_aligned(content, want);
    ASSERT_FALSE(chunks.empty()) << want;
    EXPECT_EQ(chunks.front().first, 0u);
    EXPECT_EQ(chunks.back().second, content.size());
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      EXPECT_LT(chunks[i].first, chunks[i].second) << "empty chunk " << i;
      if (i > 0) {
        EXPECT_EQ(chunks[i].first, chunks[i - 1].second) << "gap at " << i;
        EXPECT_EQ(content[chunks[i].first - 1], '\n') << "unaligned at " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The 4 GiB-boundary case: offsets past 2^32 must not wrap anywhere in
// the scanner or the chunk bookkeeping. Far too big for tier-1, so it
// only runs when explicitly requested.

TEST(TraceFastHuge, FourGiBBoundarySyntheticTrace) {
  if (std::getenv("PFTK_HUGE_TESTS") == nullptr) {
    GTEST_SKIP() << "set PFTK_HUGE_TESTS=1 to run the 4 GiB ingest test";
  }
  const std::string path = testing::TempDir() + "pftk_fast_4gib.tsv";
  const std::string block = good_block();
  constexpr std::uint64_t kTarget = (1ULL << 32) + (1ULL << 20);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    std::uint64_t written = 0;
    while (written < kTarget) {
      os << block;
      written += block.size();
    }
    os << "S\t99.0\t12";  // torn tail right past the 4 GiB boundary
  }
  const std::uint64_t blocks = (kTarget + block.size() - 1) / block.size();
  TraceReadReport rep;
  const auto events = load_trace_file_lenient(path, &rep);
  EXPECT_EQ(events.size(), blocks * 5);
  EXPECT_EQ(rep.lines_total, blocks * 6 + 1);
  EXPECT_EQ(rep.lines_dropped, 1u);
  EXPECT_TRUE(rep.truncated);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pftk::trace
