// Fixed-width console tables for the bench harness: each bench prints the
// paper's reported rows next to the measured ones.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace sf::sim {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Renders with aligned columns and a header rule.
  std::string render() const;

  /// Renders and writes to stdout.
  void print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// printf-style formatting into a string — the renderer for every log line
/// and report that must come out byte-identical across runs.
[[gnu::format(printf, 1, 2)]] std::string format(const char* fmt, ...);

/// Formats helpers for bench output.
std::string format_double(double value, int precision = 2);
std::string format_percent(double fraction, int precision = 1);
std::string format_si(double value, const std::string& unit);

}  // namespace sf::sim
