// Workload generators against theory: seeded samplers match their
// closed-form moments, the Pareto tail really is power-law (Hill
// estimator recovers the shape), traces are byte-stable per seed (the
// property the cross-dispatcher comparisons and the virtual/real runner
// pair both lean on), and open-loop traces are structurally sound.

#include "service/workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "test_macros.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using pcq::service::make_open_loop_trace;
using pcq::service::request;
using pcq::service::service_dist;
using pcq::service::workload_config;

namespace {

// Sample moments of `n` draws, for comparison against the closed forms.
pcq::running_stats sample_stats(const service_dist& dist, std::size_t n,
                                std::uint64_t seed) {
  pcq::xoshiro256ss rng(seed);
  pcq::running_stats stats;
  for (std::size_t i = 0; i < n; ++i) stats.push(dist.sample(rng));
  return stats;
}

}  // namespace

int main() {
  constexpr std::size_t kDraws = 200000;

  // Factories hit the requested mean exactly (closed form, not sampled).
  {
    CHECK_NEAR(service_dist::exponential_mean(3.5).mean(), 3.5, 1e-12);
    CHECK_NEAR(service_dist::pareto_mean(2.5, 3.5).mean(), 3.5, 1e-12);
    CHECK_NEAR(service_dist::lognormal_mean(3.5, 1.0).mean(), 3.5, 1e-12);
  }

  // The variance trap made literal: Pareto shape <= 2 reports infinite
  // variance while keeping a finite mean.
  {
    const service_dist trap = service_dist::pareto_mean(2.0, 1.0);
    CHECK(std::isinf(trap.variance()));
    CHECK(std::isfinite(trap.mean()));
    CHECK(std::isfinite(service_dist::pareto_mean(2.5, 1.0).variance()));
  }

  // Exponential sampler vs closed form: mean 1/λ, variance 1/λ².
  {
    const service_dist d = service_dist::exponential_mean(2.0);
    const pcq::running_stats s = sample_stats(d, kDraws, 11);
    CHECK_NEAR(s.mean(), d.mean(), 0.03 * d.mean());
    CHECK_NEAR(s.variance(), d.variance(), 0.05 * d.variance());
  }

  // Pareto: mean at α = 2.5 (finite variance so the sample mean
  // concentrates), variance at α = 5 (fourth moment exists, so the
  // sample variance concentrates too).
  {
    const service_dist d = service_dist::pareto_mean(2.5, 1.0);
    const pcq::running_stats s = sample_stats(d, kDraws, 12);
    CHECK_NEAR(s.mean(), d.mean(), 0.05 * d.mean());
    CHECK(s.min() >= d.b);  // support is [x_m, inf)
  }
  {
    const service_dist d = service_dist::pareto_mean(5.0, 1.0);
    const pcq::running_stats s = sample_stats(d, kDraws, 13);
    CHECK_NEAR(s.mean(), d.mean(), 0.03 * d.mean());
    CHECK_NEAR(s.variance(), d.variance(), 0.10 * d.variance());
  }

  // Lognormal with σ = 1: both closed-form moments.
  {
    const service_dist d = service_dist::lognormal_mean(1.0, 1.0);
    const pcq::running_stats s = sample_stats(d, kDraws, 14);
    CHECK_NEAR(s.mean(), d.mean(), 0.05 * d.mean());
    CHECK_NEAR(s.variance(), d.variance(), 0.25 * d.variance());
  }

  // Hill estimator recovers the Pareto tail index from the top order
  // statistics: α̂ = 1 / mean(ln(x_(i) / x_(k))) over the k largest.
  {
    const double alpha = 2.2;
    const service_dist d = service_dist::pareto_mean(alpha, 1.0);
    std::vector<double> xs;
    xs.reserve(100000);
    pcq::xoshiro256ss rng(15);
    for (std::size_t i = 0; i < 100000; ++i) xs.push_back(d.sample(rng));
    std::sort(xs.begin(), xs.end(), [](double a, double b) { return a > b; });
    const std::size_t k = 1000;
    double sum = 0.0;
    for (std::size_t i = 0; i < k; ++i) sum += std::log(xs[i] / xs[k]);
    const double hill = sum / static_cast<double>(k);
    CHECK(hill > 0.0);
    CHECK_NEAR(1.0 / hill, alpha, 0.15 * alpha);
  }

  // Byte-stability: the same seed reproduces the identical draw sequence
  // (exact double equality), for every distribution kind.
  {
    const service_dist dists[3] = {service_dist::exponential_mean(1.0),
                                   service_dist::pareto_mean(2.2, 1.0),
                                   service_dist::lognormal_mean(1.0, 0.5)};
    for (const service_dist& d : dists) {
      pcq::xoshiro256ss a(42), b(42);
      for (int i = 0; i < 1000; ++i) CHECK(d.sample(a) == d.sample(b));
    }
  }

  // A (config, seed) pair IS the workload: regenerating produces the
  // byte-identical trace; a different seed produces a different one.
  {
    workload_config cfg;
    cfg.num_requests = 2000;
    cfg.arrival_rate = 1000.0;
    cfg.service = service_dist::pareto_mean(2.2, 50e-6);
    cfg.seed = 77;
    const std::vector<request> t1 = make_open_loop_trace(cfg);
    const std::vector<request> t2 = make_open_loop_trace(cfg);
    CHECK(t1.size() == cfg.num_requests);
    for (std::size_t i = 0; i < t1.size(); ++i) {
      CHECK(t1[i].arrival == t2[i].arrival);
      CHECK(t1[i].service == t2[i].service);
      CHECK(t1[i].deadline == t2[i].deadline);
      CHECK(t1[i].seq == t2[i].seq);
    }
    cfg.seed = 78;
    const std::vector<request> t3 = make_open_loop_trace(cfg);
    CHECK(t3[0].arrival != t1[0].arrival);
  }

  // Trace structure: seq == index, arrivals strictly increase (gaps are
  // Exp draws, almost surely positive), deadlines sit slack·service past
  // arrival, and the empirical rate matches λ.
  {
    workload_config cfg;
    cfg.num_requests = 50000;
    cfg.arrival_rate = 2000.0;
    cfg.service = service_dist::exponential_mean(1e-3);
    cfg.deadline_slack = 4.0;
    cfg.seed = 99;
    const std::vector<request> trace = make_open_loop_trace(cfg);
    double prev = 0.0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      CHECK(trace[i].seq == i);
      CHECK(trace[i].arrival > prev);
      CHECK(trace[i].service > 0.0);
      CHECK_NEAR(trace[i].deadline,
                 trace[i].arrival + cfg.deadline_slack * trace[i].service,
                 1e-12);
      prev = trace[i].arrival;
    }
    const double rate =
        static_cast<double>(trace.size()) / trace.back().arrival;
    CHECK_NEAR(rate, cfg.arrival_rate, 0.03 * cfg.arrival_rate);
  }

  // arrival_rate_for_load inverts ρ = λ·E[S]/workers.
  {
    const service_dist d = service_dist::exponential_mean(50e-6);
    const double lambda = pcq::service::arrival_rate_for_load(0.9, 4, d);
    CHECK_NEAR(lambda * d.mean() / 4.0, 0.9, 1e-12);
  }

  // Inputs that would make a degenerate trace are rejected: Pareto
  // α ≤ 1 has no mean, and a zero rate puts every arrival at +inf.
  {
    using pcq::service::arrival_rate_for_load;
    CHECK_THROWS(service_dist::pareto_mean(1.0, 1.0), std::invalid_argument);
    CHECK_THROWS(service_dist::pareto_mean(0.5, 1.0), std::invalid_argument);

    const service_dist d = service_dist::exponential_mean(50e-6);
    CHECK_THROWS(arrival_rate_for_load(0.5, 0, d), std::invalid_argument);
    for (const double rho : {0.0, -0.1, 1.0, 1.5, std::nan("")}) {
      CHECK_THROWS(arrival_rate_for_load(rho, 4, d), std::invalid_argument);
    }
    service_dist no_mean;  // Pareto α = 1 built by hand: infinite mean
    no_mean.kind = pcq::service::dist_kind::pareto;
    no_mean.a = 1.0;
    no_mean.b = 1.0;
    CHECK_THROWS(arrival_rate_for_load(0.5, 4, no_mean),
                 std::invalid_argument);
    CHECK_THROWS(arrival_rate_for_load(0.5, 4,
                                       service_dist::exponential_mean(-1.0)),
                 std::invalid_argument);

    for (const double rate :
         {0.0, -1.0, std::numeric_limits<double>::infinity(),
          std::nan("")}) {
      workload_config cfg;
      cfg.num_requests = 4;
      cfg.arrival_rate = rate;
      CHECK_THROWS(make_open_loop_trace(cfg), std::invalid_argument);
    }
  }

  // Priority keys: arrival_order is the seq itself; deadline keys order
  // by deadline at ns resolution.
  {
    request r;
    r.seq = 17;
    r.deadline = 1.5;
    using pcq::service::priority_key;
    using pcq::service::priority_policy;
    CHECK(priority_key(r, priority_policy::arrival_order) == 17);
    CHECK(priority_key(r, priority_policy::deadline) == 1500000000ull);
  }

  std::printf("test_workload OK\n");
  return 0;
}
