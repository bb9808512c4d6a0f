// Fault plans for the service runners: seeded recipes that turn a
// fault intensity into per-worker roles and arrival bursts.
//
// The rank-error bound is a PROXY for what a user pays; the cost becomes
// real when the world misbehaves — workers slow down, freeze, or die,
// and arrivals burst past the provisioned load. The fault model itself
// (worker roles, degradation policies, the recovery queue, and the
// conservation invariant completed + shed + lost == dispatched) lives
// with the runners in service/server.hpp, which take a fault_plan and a
// degrade_config. This header only BUILDS plans, deterministically from
// a (config, seed) pair, so every dispatcher under comparison sees the
// identical perturbation. The robustness question bench_service's fault
// ladder answers with them: does queue-level choice (MultiQueue-EDF)
// keep its latency/deadline advantage over strict EDF, FCFS, and
// scheduler-level po2 when the fault intensity rises?
//
//   fault_config     — the recipe: role fractions, window placement as
//                      fractions of the trace span, burst count and
//                      rate; `at_intensity(level, seed)` is the bench's
//                      ladder (level 1 healthy, 2..5 turn every knob up).
//   make_fault_plan  — a seeded shuffle of worker ids claims roles in
//                      order crash, stall, slow; crashes are capped at
//                      workers−1 so one worker always survives.
//   plan_bursts      — seeded, disjoint burst windows.
//   apply_bursts     — a trace perturbation, not a worker role: it
//                      compresses inter-arrival gaps inside the windows
//                      by a rate factor (flash crowd), preserving request
//                      count, arrival order, and each request's
//                      arrival-relative deadline slack.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "service/server.hpp"
#include "service/workload.hpp"
#include "util/rng.hpp"

namespace pcq {
namespace service {

/// Seeded fault-plan recipe. Fractions are of the worker count; windows
/// and times are fractions of the trace span. `at_intensity` is the
/// bench's ladder: level 1 is healthy, levels 2..5 turn every knob up.
struct fault_config {
  std::uint64_t seed = 0x4661756Cu;  // "Faul"
  double slow_fraction = 0.0;
  double slow_factor = 1.0;
  double stall_fraction = 0.0;
  double stall_start_frac = 0.3;     ///< window start, fraction of span
  double stall_duration_frac = 0.0;  ///< window length, fraction of span
  double crash_fraction = 0.0;
  double crash_time_frac = 0.5;  ///< crash instant, fraction of span
  std::size_t bursts = 0;
  double burst_duration_frac = 0.15;
  double burst_rate_factor = 1.0;

  static fault_config at_intensity(unsigned level, std::uint64_t seed) {
    fault_config cfg;
    cfg.seed = seed;
    if (level <= 1) return cfg;  // healthy anchor
    const double x = static_cast<double>(level - 1) / 4.0;  // 0.25..1.0
    cfg.slow_fraction = 0.25 + 0.25 * x;
    cfg.slow_factor = 1.0 + 2.0 * x;  // 1.5x .. 3x
    cfg.stall_fraction = level >= 3 ? 0.25 : 0.0;
    cfg.stall_start_frac = 0.35;
    cfg.stall_duration_frac = level >= 3 ? 0.10 + 0.10 * x : 0.0;
    cfg.crash_fraction = level >= 4 ? 0.25 : 0.0;
    cfg.crash_time_frac = 0.5;
    cfg.bursts = level >= 2 ? 1u + (level >= 4 ? 1u : 0u) : 0u;
    cfg.burst_duration_frac = 0.15;
    cfg.burst_rate_factor = 1.0 + 1.0 * x;  // 1.25x .. 2x arrivals
    return cfg;
  }
};

/// Seeded burst windows over [0.1·span, 0.9·span), non-overlapping by
/// rejection (deterministic draw order; at most 8 attempts per window).
inline std::vector<burst_window> plan_bursts(const fault_config& cfg,
                                             double span) {
  std::vector<burst_window> windows;
  if (cfg.bursts == 0 || cfg.burst_rate_factor <= 1.0 || span <= 0.0) {
    return windows;
  }
  xoshiro256ss rng(derive_seed(cfg.seed, 0x42));
  const double duration = cfg.burst_duration_frac * span;
  for (std::size_t b = 0; b < cfg.bursts; ++b) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const double start = (0.1 + 0.8 * rng.next_double()) * span;
      const double end = start + duration;
      bool overlaps = false;
      for (const burst_window& w : windows) {
        if (start < w.end && end > w.start) overlaps = true;
      }
      if (overlaps) continue;
      windows.push_back({start, end, cfg.burst_rate_factor});
      break;
    }
  }
  std::sort(windows.begin(), windows.end(),
            [](const burst_window& a, const burst_window& b) {
              return a.start < b.start;
            });
  return windows;
}

/// Compresses inter-arrival gaps inside burst windows by rate_factor.
/// Order, count, seq, service demands, and arrival-relative deadline
/// slack are preserved; only arrival instants (and with them absolute
/// deadlines) move. Window membership is judged on the ORIGINAL
/// timeline, so the perturbation is a pure per-gap function of the
/// input trace.
inline std::vector<request> apply_bursts(
    const std::vector<request>& trace,
    const std::vector<burst_window>& bursts) {
  if (bursts.empty()) return trace;
  std::vector<request> out;
  out.reserve(trace.size());
  double prev_in = 0.0;
  double clock = 0.0;
  for (const request& r : trace) {
    double gap = r.arrival - prev_in;
    for (const burst_window& w : bursts) {
      if (r.arrival >= w.start && r.arrival < w.end) {
        gap /= w.rate_factor;
        break;
      }
    }
    clock += gap;
    request moved = r;
    moved.deadline = clock + (r.deadline - r.arrival);
    moved.arrival = clock;
    prev_in = r.arrival;
    out.push_back(moved);
  }
  return out;
}

/// Assigns worker roles deterministically: a seeded shuffle of the
/// worker ids, then roles claimed in order crash, stall, slow (the
/// rest stay ok). Counts are max(1, round(fraction·workers)) when the
/// fraction is positive; crashes are capped at workers−1 so the run
/// always keeps at least one worker that can eventually serve.
inline fault_plan make_fault_plan(const fault_config& cfg,
                                  std::size_t workers, double span) {
  fault_plan plan;
  plan.workers.assign(workers, worker_fault{});
  plan.bursts = plan_bursts(cfg, span);
  if (workers == 0) return plan;

  std::vector<std::size_t> order(workers);
  for (std::size_t w = 0; w < workers; ++w) order[w] = w;
  xoshiro256ss rng(derive_seed(cfg.seed, 0x51));
  for (std::size_t i = workers; i > 1; --i) {
    std::swap(order[i - 1], order[rng.bounded(i)]);
  }

  const auto count_for = [workers](double fraction) -> std::size_t {
    if (fraction <= 0.0) return 0;
    const std::size_t n = static_cast<std::size_t>(
        std::llround(fraction * static_cast<double>(workers)));
    return std::max<std::size_t>(1, std::min(n, workers));
  };

  std::size_t cursor = 0;
  std::size_t n_crash = count_for(cfg.crash_fraction);
  if (n_crash >= workers) n_crash = workers - 1;  // keep a survivor
  for (std::size_t i = 0; i < n_crash && cursor < workers; ++i, ++cursor) {
    worker_fault& f = plan.workers[order[cursor]];
    f.kind = fault_kind::crash;
    f.crash_time = cfg.crash_time_frac * span;
  }
  for (std::size_t i = 0, n = count_for(cfg.stall_fraction);
       i < n && cursor < workers; ++i, ++cursor) {
    worker_fault& f = plan.workers[order[cursor]];
    f.kind = fault_kind::stall;
    f.stall_start = cfg.stall_start_frac * span;
    f.stall_end = f.stall_start + cfg.stall_duration_frac * span;
  }
  for (std::size_t i = 0, n = count_for(cfg.slow_fraction);
       i < n && cursor < workers; ++i, ++cursor) {
    worker_fault& f = plan.workers[order[cursor]];
    f.kind = fault_kind::slow;
    f.slow_factor = cfg.slow_factor;
  }
  return plan;
}

}  // namespace service
}  // namespace pcq
