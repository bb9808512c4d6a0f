// Plain-text table output for the benches: aligned columns, compact
// numeric formatting, section headers. Benches print tables rather than
// plots so results diff cleanly and survive terminal-only environments.

#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace pcq {
namespace bench {

/// Section banner: title plus an explanatory note.
inline void print_header(const std::string& title, const std::string& note) {
  std::printf("\n== %s ==\n", title.c_str());
  if (!note.empty()) std::printf("   %s\n", note.c_str());
}

class table_printer {
 public:
  explicit table_printer(std::vector<std::string> columns)
      : columns_(std::move(columns)) {
    widths_.reserve(columns_.size());
    for (const auto& c : columns_) {
      widths_.push_back(c.size() < 12 ? 12 : c.size() + 2);
    }
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      std::printf("%*s", static_cast<int>(widths_[i]), columns_[i].c_str());
    }
    std::printf("\n");
    std::size_t total = 0;
    for (const std::size_t w : widths_) total += w;
    for (std::size_t i = 0; i < total; ++i) std::putchar('-');
    std::printf("\n");
  }

  void row(const std::vector<double>& values) {
    for (std::size_t i = 0; i < values.size() && i < widths_.size(); ++i) {
      std::printf("%*s", static_cast<int>(widths_[i]),
                  format(values[i]).c_str());
    }
    std::printf("\n");
    std::fflush(stdout);
  }

  /// A row of `x` (the sweep's value: a thread count, a depth) followed
  /// by one value per series.
  void row(double x, const std::vector<double>& series) {
    std::vector<double> values{x};
    values.insert(values.end(), series.begin(), series.end());
    row(values);
  }

 private:
  static std::string format(double v) {
    char buffer[32];
    const double r = std::nearbyint(v);
    if (std::isfinite(v) && std::fabs(v - r) < 1e-9 && std::fabs(v) < 1e15) {
      std::snprintf(buffer, sizeof(buffer), "%.0f", r);
    } else {
      std::snprintf(buffer, sizeof(buffer), "%.4g", v);
    }
    return buffer;
  }

  std::vector<std::string> columns_;
  std::vector<std::size_t> widths_;
};

}  // namespace bench
}  // namespace pcq
