// Bench environment knobs. Every bench runs at two scales:
//   default        — seconds per bench, for CI and smoke runs;
//   PCQ_BENCH_FULL — paper-scale parameters (minutes), for real numbers.
// PCQ_MAX_THREADS caps thread sweeps (default: hardware concurrency).
// Every wall-clock cell is timed by measure_cell, every thread sweep
// comes from thread_sweep.

#pragma once

#include <cstdlib>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "util/stats.hpp"

namespace pcq {
namespace bench {

inline bool env_flag(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' && !(value[0] == '0' &&
                                                   value[1] == '\0');
}

/// True when PCQ_BENCH_FULL is set: run at the paper's parameters.
inline bool full_scale() {
  static const bool flag = env_flag("PCQ_BENCH_FULL");
  return flag;
}

/// Picks the small or the paper-scale value of a parameter.
template <typename T>
T scaled(T small_value, T full_value) {
  return full_scale() ? full_value : small_value;
}

/// Where BENCH_*.json artifacts land: $PCQ_BENCH_JSON_DIR/<name>, or the
/// working directory when unset.
inline std::string json_artifact_path(const char* filename) {
  if (const char* dir = std::getenv("PCQ_BENCH_JSON_DIR")) {
    if (dir[0] != '\0') return std::string(dir) + "/" + filename;
  }
  return filename;
}

/// Largest thread count benches sweep to.
inline std::size_t max_threads() {
  static const std::size_t cached = [] {
    if (const char* value = std::getenv("PCQ_MAX_THREADS")) {
      const long parsed = std::atol(value);
      if (parsed > 0) return static_cast<std::size_t>(parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw > 0 ? hw : 1);
  }();
  return cached;
}

/// Timed rounds per wall-clock cell (paper: 10). Five at smoke scale let
/// the median drop two trials slowed by a host stall.
inline unsigned trials() { return full_scale() ? 10u : 5u; }

/// The thread counts a sweep visits: the powers of two up to `cap`.
inline std::vector<std::size_t> thread_sweep(std::size_t cap) {
  std::vector<std::size_t> counts;
  for (std::size_t t = 1; t <= cap; t *= 2) counts.push_back(t);
  return counts;
}

/// Measures one wall-clock cell of `series` series, the one timing
/// protocol of every such bench: one untimed warm-up round, then
/// trials() timed rounds. A round calls `run(s, trial)` for s = 0 ..
/// series - 1, in order, and `run` returns the series' value for that
/// trial; the warm-up round repeats trial 0's arguments. Returns each
/// series' median over the timed rounds.
///
/// The warm-up round keeps the process's cold first trials out of the
/// medians, and since the series rotate within a round, a burst of
/// interference costs each series one trial, which the median drops,
/// instead of every trial of one series.
template <typename Run>
std::vector<double> measure_cell(std::size_t series, Run&& run) {
  std::vector<std::vector<double>> samples(series);
  for (unsigned round = 0; round <= trials(); ++round) {
    const unsigned trial = round == 0 ? 0 : round - 1;
    for (std::size_t s = 0; s < series; ++s) {
      const double value = run(s, trial);
      if (round > 0) samples[s].push_back(value);
    }
  }
  std::vector<double> medians;
  for (const std::vector<double>& values : samples) {
    medians.push_back(percentile(values, 0.5));
  }
  return medians;
}

}  // namespace bench
}  // namespace pcq
