// ASCII table and CSV emission for the CLIs' reports. The paper report
// (runner/paper.hpp) prints the rows/series the paper's tables and figures
// report; this keeps the formatting in one place.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace prosim {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends one row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  static std::string fmt(double value, int precision = 2);
  static std::string fmt(std::uint64_t value);
  static std::string fmt(int value);

  /// Renders with aligned columns: first column left-aligned, the rest
  /// right-aligned (numeric convention).
  void print(std::ostream& os) const;

  /// Renders as CSV (RFC-4180-ish quoting of commas/quotes).
  void print_csv(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace prosim
