// Plain-text table rendering for dcasim and the tools: aligned console
// tables (the formats the paper's Tables 1–3 are printed in) and CSV for
// downstream plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace dca::metrics {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Adds one row; must match the header arity.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  static std::string num(double v, int precision = 2);

  /// Renders an aligned, pipe-separated table with a header rule.
  [[nodiscard]] std::string render() const;

  /// Renders RFC-4180-ish CSV (fields containing commas/quotes quoted).
  [[nodiscard]] std::string csv() const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dca::metrics
