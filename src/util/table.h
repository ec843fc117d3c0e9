// table.h -- aligned plain-text tables, used by the figure-reproduction
// benches to print the same series the paper plots.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace dash::util {

/// Accumulates rows of string cells and prints them column-aligned.
/// Numeric helpers format with a fixed number of decimals so series are
/// easy to eyeball against the paper's charts.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  Table& begin_row();
  Table& cell(const std::string& value);
  Table& cell(const char* value) { return cell(std::string(value)); }
  Table& cell(double value, int decimals = 2);
  Table& cell(std::size_t value) { return cell(std::to_string(value)); }
  Table& cell(int value) { return cell(std::to_string(value)); }
  Table& cell(long value) { return cell(std::to_string(value)); }
  Table& cell(unsigned value) { return cell(std::to_string(value)); }

  /// Render with a separator rule under the header.
  void print(std::ostream& out) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dash::util
