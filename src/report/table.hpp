// Fixed-width text tables and CSV emission for benches and examples.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace nw::report {

/// Column-aligned text table (right-aligned numeric style).
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  [[nodiscard]] std::string str() const;
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format seconds as picoseconds with 1 decimal ("123.4 ps").
[[nodiscard]] std::string fmt_ps(double seconds);
/// Format volts as millivolts with 1 decimal ("87.3 mV").
[[nodiscard]] std::string fmt_mv(double volts);
/// Format farads as femtofarads ("4.0 fF").
[[nodiscard]] std::string fmt_ff(double farads);
/// Fixed-point with `digits` decimals.
[[nodiscard]] std::string fmt_fixed(double v, int digits = 2);
/// Scientific with 3 significant digits.
[[nodiscard]] std::string fmt_sci(double v);

}  // namespace nw::report
