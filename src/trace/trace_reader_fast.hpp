// The trace reader: mmap + zero-copy field decoding + chunk-parallel
// parsing. Every production path that reads a capture — library loads,
// `pftk analyze`, the serve CALIB verb — runs this parser; the istream
// readers in trace_io.hpp are kept only as the reference it is tested
// against.
//
// Pipeline: TraceImage maps the capture read-only (pipes and devices,
// which cannot be mapped, are read into memory instead), trace_scan
// splits the image into line-aligned chunks, and each chunk is decoded
// by a hand-rolled parser — no istringstream, no per-line std::string,
// numbers via std::from_chars with an exact small-decimal fast path.
// Per-chunk TraceReadReports fold through TraceReadReport::merge, so
// lenient accounting (lines/bytes dropped, first error, truncation
// flags) is byte-exact and invariant to thread count and to how a
// caller slices the image.
//
// Parity is a tested contract, not an aspiration: the corruption-matrix
// test (test_trace_fast) drives this reader, the reference reader and a
// live CALIB over clean, mangled, CRLF, NUL-bearing and torn-tail inputs
// — including every byte offset of a final-record cut — and requires
// identical TraceEvent vectors and identical reports at -j1 and -j4.
// `pftk bench` re-checks parity on every run and gates on it.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace_io.hpp"

namespace pftk::trace {

/// Read-only memory map of a regular file. RAII: the mapping is
/// released on destruction. Not a mapping? (pipe, device, missing
/// file) — open() returns false.
class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile();
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  /// Maps `path` read-only. Returns false (and maps nothing) when the
  /// file cannot be opened, is not a regular file, or mmap fails; an
  /// empty regular file succeeds with an empty view.
  [[nodiscard]] bool open(const std::string& path);

  /// Unmaps; safe to call repeatedly.
  void close() noexcept;

  [[nodiscard]] std::string_view view() const noexcept {
    return {data_, size_};
  }

 private:
  const char* data_ = nullptr;
  std::size_t size_ = 0;
};

/// The bytes of one capture, ready for read_trace_buffer: a read-only
/// mapping of a regular file, or a copy read into memory when the input
/// cannot be mapped (pipes, devices). Opening evaluates the `trace.read`
/// failpoint once: `short_write` cuts the image after `arg` bytes — a
/// torn capture — and `error`/`enospc` throw robust::IoError.
class TraceImage {
 public:
  /// @throws std::invalid_argument if `path` cannot be opened.
  explicit TraceImage(const std::string& path);
  TraceImage(const TraceImage&) = delete;
  TraceImage& operator=(const TraceImage&) = delete;

  [[nodiscard]] std::string_view view() const noexcept { return view_; }

 private:
  MmapFile map_;
  std::string copy_;
  std::string_view view_;
};

/// Tunables for the chunk-parallel buffer parser. Defaults are
/// production values; tests shrink min_chunk_bytes to force many-chunk
/// splits on small inputs.
struct FastReaderOptions {
  int threads = 0;  ///< worker count; <= 0 means hardware_concurrency
  /// A chunk is only worth a thread above this size; small inputs parse
  /// single-threaded regardless of `threads`.
  std::size_t min_chunk_bytes = 1u << 20;
};

/// Lenient parse of an in-memory trace image (a TraceImage view or any
/// buffer). Same salvage semantics and report accounting as
/// read_trace_lenient; never throws on content. A line-aligned slice of
/// an image parses to the events and report that slice contributes to
/// the whole: folding the slices' reports with TraceReadReport::merge
/// gives the whole image's report.
[[nodiscard]] std::vector<TraceEvent> read_trace_buffer(
    std::string_view data, TraceReadReport* report = nullptr,
    const FastReaderOptions& options = {});

namespace detail {

/// Range validation shared by the reference and fast parsers, applied in
/// a fixed order (cwnd, timeout depth, timestamp, seq, in-flight,
/// duration) so both emit the identical first diagnostic.
/// Returns false with the diagnostic in `error`.
bool validate_event(const TraceEvent& e, std::string& error);

/// Zero-copy parse of one line (terminator and any trailing '\r'
/// already stripped). Mirrors the reference parse_line exactly: same
/// accepted grammar, same diagnostics, including the
/// exhausted-after-fields "trailing garbage" rule.
bool parse_line_fast(const char* begin, const char* end, TraceEvent& event,
                     std::string& error);

}  // namespace detail

}  // namespace pftk::trace
