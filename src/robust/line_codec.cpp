#include "robust/line_codec.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace pftk::robust {

std::string json_escape(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[c >> 4];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_double(double v) {
  char buf[32];
  const auto result =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  return std::string(buf, result.ptr);
}

/// Recursive descent over one line. Arrays may appear only at the top
/// level and hold scalars or objects without arrays, so the depth is
/// bounded at two whatever the input.
class JsonLine::Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  JsonLine line() {
    JsonLine out = object(true);
    skip_ws();
    if (pos_ != s_.size()) {
      fail("trailing bytes after the object");
    }
    return out;
  }

 private:
  JsonLine object(bool allow_arrays) {
    expect('{');
    JsonLine out;
    if (consume('}')) {
      return out;
    }
    do {
      Field field;
      field.key = string();
      expect(':');
      skip_ws();
      if (peek() == '"') {
        field.kind = Kind::kString;
        field.text = string();
      } else if (peek() == '[') {
        if (!allow_arrays) {
          fail("nested array");
        }
        field.kind = Kind::kArray;
        array(field);
      } else {
        field.text = scalar();
      }
      out.fields_.push_back(std::move(field));
    } while (consume(','));
    expect('}');
    return out;
  }

  void array(Field& field) {
    expect('[');
    if (consume(']')) {
      return;
    }
    do {
      skip_ws();
      if (peek() == '{') {
        field.objects.push_back(object(false));
      } else {
        field.scalars.push_back(scalar());
      }
    } while (consume(','));
    if (!field.objects.empty() && !field.scalars.empty()) {
      fail("array mixes objects and scalars");
    }
    expect(']');
  }

  /// A bare token (number, `inf`, `nan`, `true`, ...); getters validate it.
  std::string scalar() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() && !is_ws(s_[pos_]) &&
           std::string_view(",:[]{}\"").find(s_[pos_]) == std::string_view::npos) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected a value");
    }
    return std::string(s_.substr(start, pos_ - start));
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      const char c = s_[pos_++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) {
        fail("dangling escape");
      }
      switch (const char esc = s_[pos_++]) {
        case '"':
        case '\\':
        case '/':
          out += esc;
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u':
          append_utf8(out, hex4());
          break;
        default:
          fail("unknown escape");
      }
    }
    expect('"');
    return out;
  }

  unsigned hex4() {
    unsigned cp = 0;
    const char* first = s_.data() + pos_;
    const char* last = first + std::min<std::size_t>(4, s_.size() - pos_);
    const auto [end, ec] = std::from_chars(first, last, cp, 16);
    if (ec != std::errc{} || end != first + 4) {
      fail("\\u needs four hex digits");
    }
    if (cp >= 0xD800 && cp <= 0xDFFF) {
      fail("surrogate \\u escape");
    }
    pos_ += 4;
    return cp;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | cp >> 6);
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | cp >> 12);
      out += static_cast<char>(0x80 | (cp >> 6 & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  static bool is_ws(char c) { return c == ' ' || c == '\t' || c == '\r' || c == '\n'; }

  void skip_ws() {
    while (pos_ < s_.size() && is_ws(s_[pos_])) {
      ++pos_;
    }
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  bool consume(char c) {
    skip_ws();
    if (peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) {
      fail(std::string("expected '") + c + "'");
    }
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument(what + " at offset " + std::to_string(pos_));
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

JsonLine::JsonLine(std::string_view line) : JsonLine(Parser(line).line()) {}

const JsonLine::Field& JsonLine::field(std::string_view key, Kind kind) const {
  for (const Field& f : fields_) {
    if (f.key == key) {
      if (f.kind != kind) {
        static constexpr const char* kNames[] = {"a string", "a scalar", "an array"};
        throw std::invalid_argument("field '" + std::string(key) + "' is not " +
                                    kNames[static_cast<int>(kind)]);
      }
      return f;
    }
  }
  throw std::invalid_argument("missing field '" + std::string(key) + "'");
}

const std::string& JsonLine::string(std::string_view key) const {
  return field(key, Kind::kString).text;
}

const std::string& JsonLine::scalar(std::string_view key) const {
  return field(key, Kind::kScalar).text;
}

const JsonLine::Field& JsonLine::array(std::string_view key) const {
  return field(key, Kind::kArray);
}

void JsonLine::bad_number(std::string_view key, std::string_view token) {
  throw std::invalid_argument("field '" + std::string(key) + "' holds '" +
                              std::string(token) + "', not a number of its type");
}

double JsonLine::to_double(std::string_view token, std::string_view key) {
  double v = 0.0;
  const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), v);
  if (ec != std::errc{} || end != token.data() + token.size()) {
    bad_number(key, token);
  }
  return v;
}

double JsonLine::number(std::string_view key) const {
  return to_double(scalar(key), key);
}

std::vector<double> JsonLine::numbers(std::string_view key) const {
  std::vector<double> out;
  for (const std::string& token : array(key).scalars) {
    out.push_back(to_double(token, key));
  }
  return out;
}

const std::vector<JsonLine>& JsonLine::objects(std::string_view key) const {
  return array(key).objects;
}

}  // namespace pftk::robust
