#include "util/json.h"

#include <charconv>
#include <utility>

#include "util/csv.h"

namespace dash::util {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

/// The two-byte escapes, shared by writer and reader so each is the
/// other's inverse: {raw byte, the letter after the backslash}.
constexpr std::pair<char, char> kShortEscapes[] = {
    {'"', '"'}, {'\\', '\\'}, {'\n', 'n'}, {'\r', 'r'}, {'\t', 't'}};

/// The letter escaping `raw`, or '\0' when it has no short escape.
char short_escape(char raw) {
  for (const auto& [r, letter] : kShortEscapes) {
    if (r == raw) return letter;
  }
  return '\0';
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

bool is_control(char c) { return static_cast<unsigned char>(c) < 0x20; }

}  // namespace

std::string json_string(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    if (const char letter = short_escape(c)) {
      out += '\\';
      out += letter;
    } else if (is_control(c)) {
      out += "\\u00";
      out += kHexDigits[c >> 4];
      out += kHexDigits[c & 0xf];
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

bool JsonReader::consume(std::string_view lit) {
  if (text_.substr(pos_, lit.size()) != lit) return false;
  pos_ += lit.size();
  return true;
}

void JsonReader::expect(std::string_view lit) {
  if (!consume(lit)) fail("'" + std::string(lit) + "'");
}

std::uint64_t JsonReader::digits(std::uint64_t max) {
  const std::size_t start = pos_;
  std::uint64_t value = 0;
  for (; pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
       ++pos_) {
    const auto d = static_cast<std::uint64_t>(text_[pos_] - '0');
    if (value > (max - d) / 10) {
      pos_ = start;
      fail("an integer no larger than " + std::to_string(max));
    }
    value = value * 10 + d;
  }
  if (pos_ == start || (text_[start] == '0' && pos_ - start > 1)) {
    pos_ = start;
    fail("an integer without leading zeros");
  }
  return value;
}

double JsonReader::number() {
  const char* begin = text_.data() + pos_;
  double v = 0.0;
  const auto [end, ec] =
      std::from_chars(begin, text_.data() + text_.size(), v);
  // Re-render to hold the reader to the writer's one spelling.
  if (ec != std::errc() ||
      CsvWriter::to_field(v) != std::string_view(begin, end - begin)) {
    fail("a number");
  }
  pos_ += static_cast<std::size_t>(end - begin);
  return v;
}

bool JsonReader::boolean() {
  if (consume("true")) return true;
  if (consume("false")) return false;
  fail("true or false");
}

std::string JsonReader::string() {
  std::string out;
  read_string(&out);
  return out;
}

void JsonReader::read_string(std::string* out) {
  expect("\"");
  while (true) {
    std::size_t run = pos_;
    while (run < text_.size() && text_[run] != '"' && text_[run] != '\\' &&
           !is_control(text_[run])) {
      ++run;
    }
    if (out != nullptr) out->append(text_.substr(pos_, run - pos_));
    pos_ = run;
    if (pos_ >= text_.size()) fail("a closing quote");
    if (text_[pos_] == '"') {
      ++pos_;
      return;
    }
    if (is_control(text_[pos_])) fail("a control byte in escaped form");
    // A backslash: exactly the escapes json_string writes.
    const std::string_view esc = text_.substr(pos_ + 1, 5);
    char raw = '\0';
    std::size_t len = 2;
    for (const auto& [r, letter] : kShortEscapes) {
      if (!esc.empty() && esc[0] == letter) raw = r;
    }
    if (raw == '\0') {
      // \u00xx in lower case, only for a control byte without a short
      // escape.
      const bool hex = esc.size() == 5 && esc.substr(0, 3) == "u00" &&
                       hex_digit(esc[3]) >= 0 && hex_digit(esc[4]) >= 0;
      raw = hex ? static_cast<char>(hex_digit(esc[3]) * 16 +
                                    hex_digit(esc[4]))
                : '\x7f';
      if (!is_control(raw) || short_escape(raw) != '\0') {
        fail("an escape json_string writes");
      }
      len = 6;
    }
    if (out != nullptr) *out += raw;
    pos_ += len;
  }
}

std::uint64_t JsonReader::hex16() {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const int d = pos_ + i < text_.size() ? hex_digit(text_[pos_ + i]) : -1;
    if (d < 0) fail("16 lower-case hex digits");
    value = value << 4 | static_cast<std::uint64_t>(d);
  }
  pos_ += 16;
  return value;
}

std::string_view JsonReader::object() {
  const std::size_t start = pos_;
  expect("{");
  std::string open = "{";
  while (!open.empty()) {
    if (pos_ >= text_.size()) fail("a closing bracket");
    const char c = text_[pos_];
    if (c == '"') {
      read_string(nullptr);
      continue;
    }
    if (c == '{' || c == '[') {
      open += c;
    } else if (c == '}' || c == ']') {
      if (open.back() != (c == '}' ? '{' : '[')) fail("a matching bracket");
      open.pop_back();
    }
    ++pos_;
  }
  return text_.substr(start, pos_ - start);
}

void JsonReader::end() const {
  if (pos_ != text_.size()) fail("the end of the input");
}

void JsonReader::fail(std::string_view expected) const {
  throw JsonError("expected " + std::string(expected) + " at byte " +
                  std::to_string(pos_));
}

}  // namespace dash::util
