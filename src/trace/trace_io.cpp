#include "trace/trace_io.hpp"

#include <charconv>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "obs/flight/flight_recorder.hpp"
#include "robust/durable_file.hpp"
#include "trace/trace_reader_fast.hpp"

namespace pftk::trace {

namespace {

/// The classic-locale whitespace set — what `istream >>` skips.
bool is_ws(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// Parses one non-comment line into `event`; returns false with a
/// diagnostic in `error` if the line is malformed, not fully consumed,
/// or out of range. This is the reference parser; detail::parse_line_fast
/// mirrors it token for token (parity is tested).
bool parse_line(const std::string& line, TraceEvent& event, std::string& error) {
  if (line.find('\0') != std::string::npos) {
    error = "embedded NUL byte";
    return false;
  }
  std::istringstream ls(line);
  char tag = 0;
  ls >> tag;
  TraceEvent e;
  int flag = 0;
  switch (tag) {
    case 'S':
      e.type = TraceEventType::kSegmentSent;
      if (!(ls >> e.t >> e.seq >> flag >> e.in_flight >> e.cwnd)) {
        error = "malformed S record";
        return false;
      }
      e.retransmission = flag != 0;
      break;
    case 'A':
      e.type = TraceEventType::kAckReceived;
      if (!(ls >> e.t >> e.seq >> flag)) {
        error = "malformed A record";
        return false;
      }
      e.duplicate = flag != 0;
      break;
    case 'T':
      e.type = TraceEventType::kTimeout;
      if (!(ls >> e.t >> e.seq >> e.consecutive >> e.value)) {
        error = "malformed T record";
        return false;
      }
      break;
    case 'F':
      e.type = TraceEventType::kFastRetransmit;
      if (!(ls >> e.t >> e.seq)) {
        error = "malformed F record";
        return false;
      }
      break;
    case 'R':
      e.type = TraceEventType::kRttSample;
      if (!(ls >> e.t >> e.value >> e.in_flight)) {
        error = "malformed R record";
        return false;
      }
      break;
    default:
      error = std::string("unknown record tag '") + tag + "'";
      return false;
  }
  // The stream must be exhausted (whitespace-only tail allowed): a
  // field-complete prefix followed by more text is trailing garbage or
  // two records merged onto one line — corruption either way.
  char tail = 0;
  while (ls.get(tail)) {
    if (!is_ws(tail)) {
      error = "trailing garbage";
      return false;
    }
  }
  if (!detail::validate_event(e, error)) {
    return false;
  }
  event = e;
  return true;
}

enum class ReadMode { kStrict, kLenient };

std::vector<TraceEvent> read_trace_impl(std::istream& is, ReadMode mode,
                                        TraceReadReport* report) {
  std::vector<TraceEvent> out;
  TraceReadReport local;
  TraceReadReport& rep = report != nullptr ? *report : local;
  rep = TraceReadReport{};

  std::string line;
  bool final_line_unterminated = false;
  bool final_line_bad = false;
  bool final_line_event = false;
  while (std::getline(is, line)) {
    ++rep.lines_total;
    // A successful getline that also hit EOF read a line with no trailing
    // newline — on the last line that is the truncation signature.
    final_line_unterminated = is.eof();
    final_line_bad = false;
    final_line_event = false;
    // On-disk bytes of this line: content incl. any '\r', plus the '\n'
    // getline consumed unless the line was unterminated.
    const std::size_t disk_bytes = line.size() + (final_line_unterminated ? 0 : 1);
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();  // tolerate CRLF captures
    }
    if (line.empty() || line[0] == '#') {
      ++rep.comment_lines;
      continue;
    }
    TraceEvent event;
    std::string error;
    if (parse_line(line, event, error)) {
      out.push_back(event);
      ++rep.events_parsed;
      final_line_event = true;
      continue;
    }
    final_line_bad = true;
    ++rep.lines_dropped;
    rep.bytes_dropped += disk_bytes;
    if (rep.first_error_line == 0) {
      rep.first_error_line = rep.lines_total;
      rep.first_error = error;
    }
    if (mode == ReadMode::kStrict) {
      throw std::invalid_argument("read_trace: line " + std::to_string(rep.lines_total) +
                                  ": " + error);
    }
  }
  rep.truncated = final_line_unterminated && final_line_bad;
  rep.suspect_final_event = final_line_unterminated && final_line_event;
  return out;
}

/// Renders one record per line into a stack buffer with std::to_chars
/// and appends it to the capture text. Doubles take chars_format::fixed
/// at precision 9, which is specified to give the bytes of "%.9f" — the
/// same bytes an ostream prints under std::fixed/setprecision(9).
class TraceFormatter {
 public:
  explicit TraceFormatter(std::size_t events) {
    out_.reserve(kHeader.size() + events * kTypicalLineBytes);
    out_ += kHeader;
  }

  void add(const TraceEvent& e) {
    p_ = line_;
    switch (e.type) {
      case TraceEventType::kSegmentSent:
        put('S', e.t, e.seq, e.retransmission, e.in_flight, e.cwnd);
        break;
      case TraceEventType::kAckReceived:
        put('A', e.t, e.seq, e.duplicate);
        break;
      case TraceEventType::kTimeout:
        put('T', e.t, e.seq, e.consecutive, e.value);
        break;
      case TraceEventType::kFastRetransmit:
        put('F', e.t, e.seq);
        break;
      case TraceEventType::kRttSample:
        put('R', e.t, e.value, e.in_flight);
        break;
    }
    *p_++ = '\n';
    out_.append(line_, static_cast<std::size_t>(p_ - line_));
  }

  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  static constexpr std::string_view kHeader =
      "# pftk trace v1: S/A/T/F/R events, tab-separated, times in seconds\n";
  /// Lines of an hour-long capture average about 33 bytes (S records
  /// about 37). Pages the text never reaches stay untouched, so rounding
  /// up costs address space, not resident memory.
  static constexpr std::size_t kTypicalLineBytes = 48;
  /// Sign, every integer digit of DBL_MAX, point and 9 decimals: 320.
  static constexpr std::size_t kMaxDoubleChars =
      1 + (std::numeric_limits<double>::max_exponent10 + 1) + 1 + 9;
  static constexpr std::size_t kMaxIntChars = 20;  // UINT64_MAX; INT_MIN is 11
  /// Longest record, S: tag, five tabs, two doubles, two integers, a
  /// flag and the newline — 688 bytes.
  static constexpr std::size_t kMaxLineChars =
      1 + 5 + 2 * kMaxDoubleChars + 2 * kMaxIntChars + 1 + 1;

  /// Numbers may not take the last byte, which the next tab or the
  /// newline needs: a buffer short by even one byte fails to_chars on
  /// the longest line, and that garbles the output instead of writing
  /// past the array.
  [[nodiscard]] char* limit() { return line_ + sizeof(line_) - 1; }
  void field(double v) {
    p_ = std::to_chars(p_, limit(), v, std::chars_format::fixed, 9).ptr;
  }
  template <typename Int>
  void field(Int v) {
    p_ = std::to_chars(p_, limit(), v).ptr;
  }
  void field(bool flag) { *p_++ = flag ? '1' : '0'; }

  template <typename... Fields>
  void put(char tag, const Fields&... fields) {
    *p_++ = tag;
    ((*p_++ = '\t', field(fields)), ...);
  }

  std::string out_;
  char line_[kMaxLineChars];
  char* p_ = line_;
};

std::string format_trace(std::span<const TraceEvent> events) {
  TraceFormatter formatter(events.size());
  for (const TraceEvent& e : events) {
    formatter.add(e);
  }
  return formatter.take();
}

}  // namespace

TraceReadReport& TraceReadReport::merge(const TraceReadReport& next) {
  if (next.lines_total == 0) {
    return *this;  // an empty input: the identity
  }
  if (first_error_line == 0 && next.first_error_line != 0) {
    first_error_line = lines_total + next.first_error_line;
    first_error = next.first_error;
  }
  lines_total += next.lines_total;
  events_parsed += next.events_parsed;
  comment_lines += next.comment_lines;
  lines_dropped += next.lines_dropped;
  bytes_dropped += next.bytes_dropped;
  truncated = next.truncated;
  suspect_final_event = next.suspect_final_event;
  return *this;
}

std::string TraceReadReport::describe() const {
  std::ostringstream os;
  os << events_parsed << " events from " << lines_total << " lines";
  if (lines_dropped > 0) {
    os << "; dropped " << lines_dropped << " lines (" << bytes_dropped
       << " bytes), first error at line " << first_error_line << ": " << first_error;
  }
  if (truncated) {
    os << "; file appears truncated mid-record";
  }
  if (suspect_final_event) {
    os << "; final line has no newline — last event may be a torn prefix";
  }
  if (clean()) {
    os << "; clean";
  }
  return os.str();
}

void write_trace(std::ostream& os, std::span<const TraceEvent> events) {
  const std::string text = format_trace(events);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

std::vector<TraceEvent> read_trace(std::istream& is) {
  return read_trace_impl(is, ReadMode::kStrict, nullptr);
}

std::vector<TraceEvent> read_trace_lenient(std::istream& is, TraceReadReport* report) {
  return read_trace_impl(is, ReadMode::kLenient, report);
}

void save_trace_file(const std::string& path, std::span<const TraceEvent> events) {
  // Serialize in memory, then durably replace the target (write-temp +
  // fsync + atomic rename): a crash mid-save never corrupts an existing
  // trace, and write/close failures throw robust::IoError instead of
  // silently reporting success from an unflushed stream buffer.
  robust::atomic_write_file(path, format_trace(events), "trace.write");
}

std::vector<TraceEvent> load_trace_file_lenient(const std::string& path,
                                                TraceReadReport* report) {
  PFTK_SPAN("trace.ingest");
  const TraceImage image(path);
  return read_trace_buffer(image.view(), report);
}

}  // namespace pftk::trace
