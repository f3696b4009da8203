// Trace serialization — the reproduction's "tcpdump file" format.
//
// The paper's workflow separates capture (tcpdump at the sender) from
// analysis (their programs, cross-checked against tcptrace). This module
// provides the same separation: a simulation can dump its sender-side
// trace to a text file and every analyzer (loss classifier, RTT
// estimator, interval segmentation) can run on the reloaded copy.
//
// Format: one event per line, tab-separated:
//   S <t> <seq> <rexmit 0|1> <in_flight> <cwnd>      segment sent
//   A <t> <cum> <dup 0|1>                            ack received
//   T <t> <seq> <consecutive> <rto>                  timeout (ground truth)
//   F <t> <seq>                                      fast rtx (ground truth)
//   R <t> <sample> <in_flight>                       rtt sample (ground truth)
// Lines starting with '#' are comments. Every double (times, cwnd, rto,
// sample) is written with fixed 9-digit precision, byte for byte what
// printf "%.9f" prints, so a round trip is loss-free for simulation
// scales; integers are plain decimal and flags are 0/1.
//
// Real capture files get truncated, hit disk-full mid-line, and pick up
// garbage; an hour of capture must not be voided by one bad line. Loads
// are therefore lenient: malformed lines are skipped and what was
// dropped (and whether the file looks truncated) is recorded in a
// TraceReadReport, so batch experiments recover the valid prefix and
// report exact losses, while user-facing entry points (`pftk analyze`,
// the serve CALIB verb) surface any report that is not clean().
// A record is only accepted when the whole line is consumed (trailing
// whitespace aside): trailing garbage and two records merged onto one
// line are corruption, not events.
//
// The istream readers here (a strict one that throws on the first bad
// line, and a lenient one) are the *reference* implementation. No
// production path runs them: load_trace_file_lenient and CALIB parse
// through the mmap + chunk-parallel reader in trace_reader_fast.hpp,
// which is held byte-identical to these readers by the corruption-matrix
// parity tests and the `pftk bench` parity gate.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "trace/trace_event.hpp"

namespace pftk::trace {

/// What a lenient read salvaged and what it had to discard.
struct TraceReadReport {
  std::size_t lines_total = 0;      ///< every line seen (incl. comments)
  std::size_t events_parsed = 0;    ///< records successfully decoded
  std::size_t comment_lines = 0;    ///< '#' and blank lines
  std::size_t lines_dropped = 0;    ///< malformed lines skipped
  /// On-disk bytes consumed by the skipped lines: content plus any '\r'
  /// plus the '\n' terminator when one existed (a torn final line
  /// contributes exactly its own bytes — there is no terminator).
  std::size_t bytes_dropped = 0;
  std::size_t first_error_line = 0; ///< 1-based; 0 = no errors
  std::string first_error;          ///< diagnostic for the first bad line
  /// True when the file ends mid-record (no trailing newline and the
  /// final line failed to parse) — the signature of a truncated capture.
  bool truncated = false;
  /// True when the final line has no newline yet parsed cleanly. The
  /// event was salvaged, but a mid-record cut whose surviving prefix is
  /// field-complete looks exactly like this, so the last event is
  /// suspect and analyses that care about tail integrity should drop it.
  bool suspect_final_event = false;

  /// Folds in the report of the input that directly follows this one
  /// (this input is empty or ends in '\n'): counts add, `next`'s line
  /// numbers are rebased past this input's lines, and the final-line
  /// flags are `next`'s. Associative, with the empty report as identity,
  /// so a capture read in line-aligned slices reports exactly what one
  /// read of the whole would.
  TraceReadReport& merge(const TraceReadReport& next);

  [[nodiscard]] bool clean() const noexcept {
    return lines_dropped == 0 && !truncated && !suspect_final_event;
  }
  /// One-line human-readable summary.
  [[nodiscard]] std::string describe() const;
};

/// Writes the trace, one event per line, preceded by a '#' header, with
/// one stream write of the formatted text.
/// @throws std::ios_base::failure on stream errors.
void write_trace(std::ostream& os, std::span<const TraceEvent> events);

/// Reference reader, strict: reads a trace written by write_trace.
/// @throws std::invalid_argument on any malformed line (with its number).
[[nodiscard]] std::vector<TraceEvent> read_trace(std::istream& is);

/// Reference reader, lenient: reads a trace, skipping malformed or
/// truncated lines instead of throwing. Never throws on content (only
/// on stream faults); fills `report` (if non-null) with what was
/// salvaged and dropped.
[[nodiscard]] std::vector<TraceEvent> read_trace_lenient(std::istream& is,
                                                         TraceReadReport* report = nullptr);

/// Durably writes the capture (write-temp + fsync + atomic rename).
void save_trace_file(const std::string& path, std::span<const TraceEvent> events);

/// Loads a capture leniently through the fast reader: a TraceImage
/// (mapped, or read into memory for pipes and devices) parsed by
/// read_trace_buffer. Fills `report` (if non-null) like
/// read_trace_lenient would.
/// @throws std::invalid_argument if the file cannot be opened.
[[nodiscard]] std::vector<TraceEvent> load_trace_file_lenient(
    const std::string& path, TraceReadReport* report = nullptr);

}  // namespace pftk::trace
