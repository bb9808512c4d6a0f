// Open-loop request workloads for the scheduling service
// (service/dispatch.hpp + service/server.hpp).
//
// A workload is a TRACE: a vector of requests with arrival times, service
// demands, and deadlines, fully materialized before the run. Open-loop
// means arrivals never wait for completions — the paper-relevant regime,
// because it is the one where a dispatcher's queueing decisions show up
// as response-time percentiles instead of being absorbed by a
// self-throttling client (closed-loop load generators hide exactly the
// latency the Scully & Harchol-Balter near-optimal-scheduling lens cares
// about). Pre-materializing keeps the trace identical across the four
// dispatchers of one comparison cell AND across the real-time and
// virtual-time runners: every generator draw comes from a seeded
// xoshiro256** stream, so a (config, seed) pair IS the workload.
//
// Service-time distributions cover the "variance trap": exponential
// (memoryless, C² = 1 — the M/M/k textbook case), Pareto (power-law tail;
// shape α ≤ 2 has infinite variance — the heavy-tailed regime where
// scheduler choice dominates user-visible latency), and lognormal
// (moderate, parametrizable tail). Each knows its closed-form mean and
// variance so tests can check the samplers against theory and benches can
// derive the arrival rate for a target offered load ρ = λ·E[S]/workers.
//
// Deterministic virtual-time tests do not need generators at all: a trace
// is plain data, so fixed traces are built by hand (tests/test_service.cpp).

#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace pcq {
namespace service {

enum class dist_kind { exponential, pareto, lognormal };

/// Tagged service-time distribution. Parameter slots by kind:
///   exponential: a = rate λ                  (mean 1/λ)
///   pareto:      a = shape α, b = scale x_m  (support [x_m, ∞))
///   lognormal:   a = μ, b = σ                (of the underlying normal)
struct service_dist {
  dist_kind kind = dist_kind::exponential;
  double a = 1.0;
  double b = 0.0;

  /// Exponential with the given mean.
  static service_dist exponential_mean(double mean) {
    return {dist_kind::exponential, 1.0 / mean, 0.0};
  }

  /// Pareto with shape α > 1 scaled to the given mean:
  /// E[S] = α·x_m/(α−1)  ⇒  x_m = mean·(α−1)/α. Throws
  /// std::invalid_argument for α ≤ 1, which has no finite mean.
  static service_dist pareto_mean(double shape, double mean) {
    if (!(shape > 1.0)) {
      throw std::invalid_argument("pareto_mean: shape must exceed 1");
    }
    return {dist_kind::pareto, shape, mean * (shape - 1.0) / shape};
  }

  /// Lognormal with the given mean and underlying-normal σ:
  /// E[S] = e^{μ+σ²/2}  ⇒  μ = ln(mean) − σ²/2.
  static service_dist lognormal_mean(double mean, double sigma) {
    return {dist_kind::lognormal, std::log(mean) - 0.5 * sigma * sigma,
            sigma};
  }

  double mean() const {
    switch (kind) {
      case dist_kind::exponential:
        return 1.0 / a;
      case dist_kind::pareto:
        return a > 1.0 ? a * b / (a - 1.0)
                       : std::numeric_limits<double>::infinity();
      case dist_kind::lognormal:
      default:
        return std::exp(a + 0.5 * b * b);
    }
  }

  /// Closed-form variance; +inf where the distribution has none
  /// (Pareto α ≤ 2 — the variance trap made literal).
  double variance() const {
    switch (kind) {
      case dist_kind::exponential:
        return 1.0 / (a * a);
      case dist_kind::pareto:
        if (a <= 2.0) return std::numeric_limits<double>::infinity();
        return b * b * a / ((a - 1.0) * (a - 1.0) * (a - 2.0));
      case dist_kind::lognormal:
      default:
        return (std::exp(b * b) - 1.0) * std::exp(2.0 * a + b * b);
    }
  }

  /// One variate by inversion (exponential, Pareto) or Box–Muller
  /// (lognormal). Consumes a deterministic number of RNG draws per
  /// variate (1, 1, and 2 respectively), so traces are byte-stable
  /// across runs and platforms for a fixed seed.
  double sample(xoshiro256ss& rng) const {
    switch (kind) {
      case dist_kind::exponential:
        return rng.exponential(a);
      case dist_kind::pareto: {
        // 1 - next_double() is in (0, 1], so the pow never divides by 0.
        const double u = 1.0 - rng.next_double();
        return b * std::pow(u, -1.0 / a);
      }
      case dist_kind::lognormal:
      default: {
        const double u1 = 1.0 - rng.next_double();  // (0, 1]: log is finite
        const double u2 = rng.next_double();
        const double z = std::sqrt(-2.0 * std::log(u1)) *
                         std::cos(2.0 * 3.14159265358979323846 * u2);
        return std::exp(a + b * z);
      }
    }
  }

  const char* name() const {
    switch (kind) {
      case dist_kind::exponential:
        return "exp";
      case dist_kind::pareto:
        return "pareto";
      case dist_kind::lognormal:
      default:
        return "lognormal";
    }
  }
};

/// One request of an open-loop trace. Times are in seconds of TRACE time
/// (the real-time runner maps them 1:1 onto the wall clock; the
/// virtual-time runner advances a simulated clock through them). `seq` is
/// the arrival index — the FCFS priority and the queues' value payload.
struct request {
  double arrival = 0.0;
  double service = 0.0;
  double deadline = 0.0;
  std::uint64_t seq = 0;
};

struct workload_config {
  std::size_t num_requests = 0;
  double arrival_rate = 1.0;  ///< λ: Poisson arrivals, Exp(λ) gaps
  service_dist service;
  /// deadline = arrival + slack · service: proportional deadlines, so EDF
  /// favors short work near its due time (heavier-tailed traces get more
  /// spread-out deadlines automatically).
  double deadline_slack = 4.0;
  std::uint64_t seed = 0x53657276u;  // "Serv"
};

/// λ that offers load ρ to `workers` servers: ρ = λ·E[S]/workers.
/// Throws std::invalid_argument unless workers > 0, 0 < ρ < 1 (an open
/// loop at ρ ≥ 1 never drains), and E[S] is finite and positive.
inline double arrival_rate_for_load(double rho, std::size_t workers,
                                    const service_dist& dist) {
  if (workers == 0) {
    throw std::invalid_argument("arrival_rate_for_load: no workers");
  }
  if (!(rho > 0.0 && rho < 1.0)) {
    throw std::invalid_argument("arrival_rate_for_load: rho not in (0, 1)");
  }
  const double mean = dist.mean();
  if (!std::isfinite(mean) || mean <= 0.0) {
    throw std::invalid_argument(
        "arrival_rate_for_load: service mean must be finite and positive");
  }
  return rho * static_cast<double>(workers) / mean;
}

/// Materializes the full open-loop trace: Poisson arrivals (exponential
/// inter-arrival gaps), i.i.d. service demands, proportional deadlines.
/// Sorted by arrival by construction; seq equals the index. Throws
/// std::invalid_argument unless arrival_rate is finite and positive (a
/// zero rate would put every arrival at +inf).
inline std::vector<request> make_open_loop_trace(
    const workload_config& cfg) {
  if (!std::isfinite(cfg.arrival_rate) || cfg.arrival_rate <= 0.0) {
    throw std::invalid_argument(
        "make_open_loop_trace: arrival_rate must be finite and positive");
  }
  std::vector<request> trace;
  trace.reserve(cfg.num_requests);
  xoshiro256ss arrivals(derive_seed(cfg.seed, 0));
  xoshiro256ss services(derive_seed(cfg.seed, 1));
  double clock = 0.0;
  for (std::size_t i = 0; i < cfg.num_requests; ++i) {
    clock += arrivals.exponential(cfg.arrival_rate);
    request r;
    r.arrival = clock;
    r.service = cfg.service.sample(services);
    r.deadline = clock + cfg.deadline_slack * r.service;
    r.seq = i;
    trace.push_back(r);
  }
  return trace;
}

/// Span of an arrival-sorted trace: the last arrival instant. The fault
/// plans (service/fault.hpp) place stall windows, crash ticks, and
/// burst windows as fractions of this, so a plan scales with the trace
/// it perturbs instead of hard-coding wall seconds.
inline double trace_span(const std::vector<request>& trace) {
  return trace.empty() ? 0.0 : trace.back().arrival;
}

/// Empirical mean service demand of a trace — the natural per-request
/// estimate for admission control's wait predictor (the closed-form
/// dist mean works too, but the empirical mean tracks the actual draw).
inline double trace_mean_service(const std::vector<request>& trace) {
  if (trace.empty()) return 0.0;
  double total = 0.0;
  for (const request& r : trace) total += r.service;
  return total / static_cast<double>(trace.size());
}

/// Trace seconds → integer priority ticks (ns resolution). All queue
/// keys are uint64 ticks so any pq_handle queue can carry them; ns
/// granularity keeps distinct continuous deadlines distinct in practice
/// (the deterministic tests assert uniqueness on their traces).
inline std::uint64_t to_ticks(double seconds) {
  return static_cast<std::uint64_t>(std::llround(seconds * 1e9));
}

/// What a queue-backed dispatcher orders by.
enum class priority_policy {
  arrival_order,  ///< key = seq: a strict queue becomes exact FCFS
  deadline        ///< key = deadline ticks: a strict queue becomes EDF
};

inline std::uint64_t priority_key(const request& r, priority_policy p) {
  return p == priority_policy::arrival_order ? r.seq : to_ticks(r.deadline);
}

}  // namespace service
}  // namespace pcq
