#include "sim/table_printer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <sstream>

namespace sf::sim {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string out;
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += row[c];
      out.append(widths[c] - row[c].size() + 2, ' ');
    }
    while (!out.empty() && out.back() == ' ') out.pop_back();
    return out + "\n";
  };
  std::string out = render_row(headers_);
  std::size_t rule = 0;
  for (std::size_t w : widths) rule += w + 2;
  out.append(rule - 2, '-');
  out += "\n";
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

void TablePrinter::print() const { std::fputs(render().c_str(), stdout); }

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list sizing;
  va_copy(sizing, args);
  const int size = std::vsnprintf(nullptr, 0, fmt, sizing);
  va_end(sizing);
  std::string out(size > 0 ? static_cast<std::size_t>(size) : 0, '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

std::string format_double(double value, int precision) {
  return format("%.*f", precision, value);
}

std::string format_percent(double fraction, int precision) {
  return format("%.*f%%", precision, fraction * 100.0);
}

std::string format_si(double value, const std::string& unit) {
  static constexpr const char* kPrefixes[] = {"", "K", "M", "G", "T", "P"};
  int index = 0;
  double v = value;
  while (std::fabs(v) >= 1000.0 && index < 5) {
    v /= 1000.0;
    ++index;
  }
  return format("%.3g %s%s", v, kPrefixes[index], unit.c_str());
}

}  // namespace sf::sim
