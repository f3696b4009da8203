// Wide newline scanning for the trace fast path.
//
// The mmap reader (trace_reader_fast.*) needs two primitives: "where is
// the next '\n'?" (hot: once per record, plus once per chunk boundary)
// and "split this mapping into line-aligned chunks" (once per file).
// find_newline is a wide memchr: it compares 8 input bytes per step with
// the classic SWAR zero-in-word trick; the scalar tail keeps it exact at
// any alignment and length. It lives in the header so the per-record
// call in the chunk parser inlines — taking it out of line costs ~10% of
// ingest throughput. A unit test cross-checks it byte-for-byte against
// std::memchr.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

namespace pftk::trace {

namespace scan_detail {

inline constexpr std::uint64_t kLowBits = 0x0101010101010101ULL;
inline constexpr std::uint64_t kHighBits = 0x8080808080808080ULL;

/// Nonzero iff some byte of `word` is zero (Mycroft's trick); the high
/// bit of each zero byte's lane is set in the result.
constexpr std::uint64_t zero_byte_mask(std::uint64_t word) noexcept {
  return (word - kLowBits) & ~word & kHighBits;
}

}  // namespace scan_detail

/// Index of the first '\n' at or after `pos`, or std::string_view::npos.
[[nodiscard]] inline std::size_t find_newline(std::string_view data,
                                              std::size_t pos = 0) noexcept {
  const char* const base = data.data();
  const char* p = base + pos;
  const char* const end = base + data.size();
  if (p >= end) {
    return std::string_view::npos;
  }

  // SWAR: 8 bytes per step. XOR maps '\n' bytes to zero; the zero-byte
  // mask's lowest set bit then indexes the first match (little-endian:
  // byte i of the word is bits [8i, 8i+8), so countr_zero/8 is exact).
  const std::uint64_t pattern =
      scan_detail::kLowBits * static_cast<unsigned char>('\n');
  while (p + 8 <= end) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    const std::uint64_t mask = scan_detail::zero_byte_mask(word ^ pattern);
    if (mask != 0) {
      return static_cast<std::size_t>(p - base) +
             (static_cast<std::size_t>(std::countr_zero(mask)) >> 3);
    }
    p += 8;
  }
  while (p < end) {
    if (*p == '\n') {
      return static_cast<std::size_t>(p - base);
    }
    ++p;
  }
  return std::string_view::npos;
}

/// Splits [0, data.size()) into at most `target_chunks` contiguous
/// [begin, end) ranges covering the whole input, where every boundary
/// except the outer two sits one byte past a '\n'. A chunk therefore
/// contains only whole lines — except the final chunk, which may end in
/// an unterminated tail line (exactly the file's own torn tail, if any).
/// Never returns an empty chunk; returns {{0, size}} when the input is
/// too small to split.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> split_line_aligned(
    std::string_view data, std::size_t target_chunks);

}  // namespace pftk::trace
