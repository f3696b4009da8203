// The line codec: the one seam through which every record the system
// writes renders strings and round-trip doubles, and through which every
// JSON-lines record is read back. Formats built on it: the campaign
// journal, `pftk-obs/1`, `pftk-spans/1`, `pftk-postmortem/1`, the
// `pftk-mc/1` counterexample trace, `pftk prof --json`, BENCH_micro.json
// host strings and the serve protocol's numbers.
//
// Three pieces, none with options:
//
//   * json_escape   — `\" \\ \n \t \r`, and `\u00XX` (lowercase hex) for
//     every other byte below 0x20; all other bytes pass through. A
//     rendered line therefore never holds a byte below 0x20.
//   * format_double — the bytes of `%.17g` (std::to_chars, general, 17
//     digits): locale-free, round-trips every double exactly, renders
//     `inf`, `-inf`, `nan`, `-nan`.
//   * JsonLine      — reads one flat JSON object: string, scalar and
//     array values, where arrays hold scalars or flat objects (the obs
//     span `phases`). Strings decode every JSON escape incl. `\uXXXX`;
//     integers parse exactly (std::from_chars) and reject overflow,
//     fractions and, for unsigned types, a sign.
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

namespace pftk::robust {

/// `s` escaped for the inside of a JSON string literal (no quotes).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Round-trip-exact, locale-free rendering of `v`.
[[nodiscard]] std::string format_double(double v);

/// One parsed JSON-lines object. Getters look a key up among the
/// object's own fields (first occurrence wins) and throw
/// std::invalid_argument naming the key when it is missing or holds a
/// value of another shape.
class JsonLine {
 public:
  /// @throws std::invalid_argument unless `line` is exactly one object
  /// of the supported shape (surrounding whitespace allowed).
  explicit JsonLine(std::string_view line);

  [[nodiscard]] const std::string& string(std::string_view key) const;
  [[nodiscard]] double number(std::string_view key) const;
  template <typename Int>
  [[nodiscard]] Int integer(std::string_view key) const {
    return to_integer<Int>(scalar(key), key);
  }
  [[nodiscard]] std::vector<double> numbers(std::string_view key) const;
  template <typename Int>
  [[nodiscard]] std::vector<Int> integers(std::string_view key) const {
    std::vector<Int> out;
    for (const std::string& token : array(key).scalars) {
      out.push_back(to_integer<Int>(token, key));
    }
    return out;
  }
  [[nodiscard]] const std::vector<JsonLine>& objects(std::string_view key) const;

 private:
  enum class Kind { kString, kScalar, kArray };
  struct Field {
    std::string key;
    Kind kind = Kind::kScalar;
    std::string text;                  ///< decoded string or scalar token
    std::vector<std::string> scalars;  ///< array of scalars
    std::vector<JsonLine> objects;     ///< array of flat objects
  };
  class Parser;

  JsonLine() = default;
  [[nodiscard]] const Field& field(std::string_view key, Kind kind) const;
  [[nodiscard]] const std::string& scalar(std::string_view key) const;
  [[nodiscard]] const Field& array(std::string_view key) const;
  [[noreturn]] static void bad_number(std::string_view key, std::string_view token);
  static double to_double(std::string_view token, std::string_view key);

  template <typename Int>
  static Int to_integer(std::string_view token, std::string_view key) {
    Int v{};
    const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), v);
    if (ec != std::errc{} || end != token.data() + token.size()) {
      bad_number(key, token);
    }
    return v;
  }

  std::vector<Field> fields_;
};

}  // namespace pftk::robust
