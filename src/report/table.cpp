#include "report/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace nw::report {

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("TextTable: no headers");
}

void TextTable::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("TextTable::add_row: cell count mismatch");
  }
  rows_.push_back(std::move(cells));
}

std::string TextTable::str() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " | ") << std::setw(static_cast<int>(width[c])) << row[c];
    }
    os << " |\n";
  };
  emit_row(headers_);
  os << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << std::string(width[c] + 2, '-') << '|';
  }
  os << "\n";
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

void TextTable::print(std::ostream& os) const { os << str(); }

std::string fmt_ps(double seconds) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << seconds * 1e12 << " ps";
  return os.str();
}

std::string fmt_mv(double volts) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << volts * 1e3 << " mV";
  return os.str();
}

std::string fmt_ff(double farads) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << farads * 1e15 << " fF";
  return os.str();
}

std::string fmt_fixed(double v, int digits) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << v;
  return os.str();
}

std::string fmt_sci(double v) {
  std::ostringstream os;
  os << std::scientific << std::setprecision(2) << v;
  return os.str();
}

}  // namespace nw::report
