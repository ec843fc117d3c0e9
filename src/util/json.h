// json.h -- the one JSON codec. Every string this library puts into a
// JSON document (BENCH summaries, shard records, replay traces,
// list-cells and serve-bench output) goes through json_string,
// and every parser of those documents reads them with JsonReader.
//
// The writer escapes exactly `"`, `\`, \n, \r, \t and the other bytes
// below 0x20 (as lower-case \u00xx); every other byte, UTF-8 included,
// passes through raw. The reader is a strict cursor that accepts only
// what the writers emit: each value it reads has one spelling, so an
// accepted input re-encodes to the same bytes. Anything else -- an
// unknown or non-canonical escape, a raw control byte, an integer
// above its destination type, a torn object -- is a JsonError naming
// what was expected and where.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace dash::util {

/// Malformed JSON input: what was expected, and at which byte offset.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

/// `s` as a quoted JSON string.
std::string json_string(std::string_view s);

/// Strict cursor over one JSON text. Each read consumes exactly what a
/// writer emits for that value, or throws JsonError. The text must
/// outlive the reader and every view object() returns.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// Consume `lit` when the input continues with it.
  bool consume(std::string_view lit);
  /// Consume `lit`, or throw.
  void expect(std::string_view lit);

  /// A decimal integer as std::to_string writes it (no sign, no
  /// leading zeros). Values above T's max are rejected, never wrapped.
  template <class T>
  T uint() {
    static_assert(std::is_integral_v<T>);
    return static_cast<T>(
        digits(static_cast<std::uint64_t>(std::numeric_limits<T>::max())));
  }
  /// A number exactly as util::CsvWriter::to_field(double) writes it.
  double number();
  /// `true` or `false`.
  bool boolean();
  /// A quoted string: the exact inverse of json_string.
  std::string string();
  /// 16 lower-case hex digits (util::hex16's form), unquoted.
  std::uint64_t hex16();
  /// One balanced object, returned verbatim. Brackets must match and
  /// every string inside must read as string() would read it.
  std::string_view object();

  /// The input not read yet.
  std::string_view rest() const { return text_.substr(pos_); }
  /// Throw unless the whole input has been read.
  void end() const;

 private:
  std::uint64_t digits(std::uint64_t max);
  /// string() without keeping the bytes when `out` is null.
  void read_string(std::string* out);
  [[noreturn]] void fail(std::string_view expected) const;

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace dash::util
