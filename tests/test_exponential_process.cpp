// Theorem-3 process mechanics, deterministically: the zero-noise
// degeneration (beta = 1, d = q always increments the global minimum) is
// perfectly balanced at every sample; the two-choice run keeps the
// potential O(q) while the no-choice run diverges past it; bias loses to
// choice when beta dominates gamma; traces are pure functions of the
// seed; the sampling cadence tiles num_steps; and, read as classic
// balls into bins (gamma = 0), two choices keep the max load far closer
// to the average than one.

#include "sim/exponential_process.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "test_macros.hpp"

namespace {

using namespace pcq::sim;

exp_process_config base_config() {
  exp_process_config cfg;
  cfg.num_bins = 32;
  cfg.alpha = 0.25;
  cfg.num_steps = 1u << 15;
  cfg.sample_every = 1u << 12;
  cfg.seed = 0x7133u;
  return cfg;
}

double final_potential(const exp_process_config& cfg) {
  exponential_process p(cfg);
  p.run();
  return p.samples().back().potential;
}

/// Max load minus the average after the run, read from loads().
double max_above_average(const exp_process_config& cfg) {
  exponential_process p(cfg);
  p.run();
  const auto& loads = p.loads();
  return static_cast<double>(*std::max_element(loads.begin(), loads.end())) -
         static_cast<double>(cfg.num_steps) /
             static_cast<double>(cfg.num_bins);
}

}  // namespace

int main() {
  // Zero-noise config: beta = 1 with d = q means every step increments a
  // global minimum, so loads never spread more than one ball apart and
  // the potential pins to its balanced level. This is the monotone
  // "potential can never ratchet upward" degeneration.
  {
    exp_process_config cfg = base_config();
    cfg.num_bins = 16;
    cfg.choices = 16;
    cfg.beta = 1.0;
    exponential_process p(cfg);
    p.run();
    CHECK(!p.samples().empty());
    for (const auto& s : p.samples()) {
      CHECK(s.gap <= 1);
      CHECK(s.max_dev < 1.0);
      CHECK(s.potential <= p.balanced_potential() * std::exp(cfg.alpha));
      CHECK(s.potential >= p.balanced_potential() - 1e-9);
      CHECK_NEAR(s.potential, s.phi + s.psi, 1e-9);
    }
    // Conservation: increments equal steps.
    std::uint64_t total = 0;
    for (const auto x : p.loads()) total += x;
    CHECK(total == cfg.num_steps);
  }

  // Two-choice keeps Gamma = O(q) at every checkpoint (flat trace);
  // no-choice drifts as sqrt(t) and must blow well past it by the end.
  {
    exp_process_config two = base_config();
    two.beta = 1.0;
    two.choices = 2;
    exponential_process p(two);
    p.run();
    const double bound = 8.0 * static_cast<double>(two.num_bins);
    for (const auto& s : p.samples()) CHECK(s.potential < bound);

    exp_process_config none = two;
    none.beta = 0.0;
    CHECK(final_potential(none) > 4.0 * bound);
  }

  // beta = Omega(gamma): strong bias (two_block, gamma = 0.5) stays
  // bounded when the choice rate dominates the residual drift
  // (beta = 0.6 > gamma * (1 - beta)) but diverges without choice — and
  // the divergence is drift-shaped (max_dev grows, far beyond the
  // rebalanced run's).
  {
    exp_process_config biased = base_config();
    biased.gamma = 0.5;
    biased.bias = bias_kind::two_block;

    exp_process_config choice = biased;
    choice.beta = 0.6;
    exponential_process pc(choice);
    pc.run();
    CHECK(pc.samples().back().potential <
          8.0 * static_cast<double>(choice.num_bins));

    exp_process_config drift = biased;
    drift.beta = 0.0;
    exponential_process pd(drift);
    pd.run();
    CHECK(pd.samples().back().max_dev >
          8.0 * pc.samples().back().max_dev);
    CHECK(pd.samples().back().potential > pc.samples().back().potential);
  }

  // Determinism: identical configs give bit-identical sample traces.
  {
    exp_process_config cfg = base_config();
    cfg.beta = 0.5;
    exponential_process a(cfg), b(cfg);
    a.run();
    b.run();
    CHECK(a.samples().size() == b.samples().size());
    for (std::size_t i = 0; i < a.samples().size(); ++i) {
      CHECK(a.samples()[i].step == b.samples()[i].step);
      CHECK(a.samples()[i].potential == b.samples()[i].potential);
      CHECK(a.samples()[i].max_dev == b.samples()[i].max_dev);
      CHECK(a.samples()[i].gap == b.samples()[i].gap);
    }
    CHECK(a.loads() == b.loads());
  }

  // Sampling cadence: every sample_every steps plus exactly one final
  // sample at num_steps (no duplicate when they coincide; a lone final
  // sample when sample_every is 0).
  {
    exp_process_config cfg = base_config();
    cfg.num_steps = 1000;
    cfg.sample_every = 300;
    exponential_process p(cfg);
    p.run();
    CHECK(p.samples().size() == 4);  // 300, 600, 900, 1000
    CHECK(p.samples().back().step == 1000);

    cfg.sample_every = 250;
    exponential_process q(cfg);
    q.run();
    CHECK(q.samples().size() == 4);  // 250, 500, 750, 1000 — no dup
    CHECK(q.samples().back().step == 1000);

    cfg.sample_every = 0;
    exponential_process r(cfg);
    r.run();
    CHECK(r.samples().size() == 1);
    CHECK(r.samples().back().step == 1000);
  }

  // Balls into bins: at 64 bins and 2^18 balls the two-choice gap is
  // far below the one-choice gap, and still above zero.
  {
    exp_process_config cfg;
    cfg.num_bins = 64;
    cfg.num_steps = std::uint64_t{1} << 18;
    cfg.sample_every = 0;
    cfg.beta = 1.0;
    cfg.seed = 41;
    const double two = max_above_average(cfg);
    cfg.beta = 0.0;
    cfg.seed = 42;
    const double one = max_above_average(cfg);
    CHECK(two < 0.25 * one);
    CHECK(two > 0.0);
  }

  std::printf("test_exponential_process: OK\n");
  return 0;
}
