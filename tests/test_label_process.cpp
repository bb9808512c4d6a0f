#include "sim/label_process.hpp"

#include <algorithm>
#include <cstdint>

#include "test_macros.hpp"

namespace {

using namespace pcq::sim;

process_config base_config(std::size_t n, double beta, std::size_t removals,
                           std::uint64_t seed) {
  process_config cfg;
  cfg.num_bins = n;
  cfg.beta = beta;
  cfg.num_labels = 2 * removals;
  cfg.num_removals = removals;
  cfg.seed = seed;
  return cfg;
}

double mean_rank(const process_config& cfg) {
  label_process p(cfg);
  p.run();
  return p.costs().mean_rank();
}

}  // namespace

int main() {
  const std::size_t removals = 1u << 15;

  // Determinism: identical configs give identical traces.
  {
    const auto cfg = base_config(64, 1.0, removals, 99);
    label_process a(cfg), b(cfg);
    a.run();
    b.run();
    CHECK(a.costs().mean_rank() == b.costs().mean_rank());
    CHECK(a.costs().max_rank() == b.costs().max_rank());
  }

  // Theorem 1 sanity: two-choice mean rank is O(n) — comfortably below
  // a small multiple of n, at several n.
  for (const std::size_t n : {16u, 64u, 128u}) {
    const double mean = mean_rank(base_config(n, 1.0, removals, 5 + n));
    CHECK(mean < 4.0 * static_cast<double>(n));
    CHECK(mean > 0.0);
  }

  // Theorem 6 sanity: the beta = 0 single-choice process is much worse
  // than two-choice at the same t.
  {
    const double single = mean_rank(base_config(64, 0.0, removals, 7));
    const double two = mean_rank(base_config(64, 1.0, removals, 7));
    CHECK(single > 4.0 * two);
  }

  // Accounting: every removal is attributed to a bin, live count checks.
  {
    const auto cfg = base_config(32, 1.0, removals, 11);
    label_process p(cfg);
    p.run();
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < cfg.num_bins; ++i) {
      total += p.removals_from(i);
    }
    CHECK(total == removals);
    CHECK(p.live() == cfg.num_labels - removals);
    CHECK(p.costs().num_removals() == removals);
  }

  // Windowed stats tile the removal sequence and agree with the overall
  // mean.
  {
    auto cfg = base_config(64, 1.0, removals, 13);
    cfg.window = removals / 8;
    label_process p(cfg);
    p.run();
    const auto& wins = p.costs().windows();
    CHECK(wins.size() == 8);
    double weighted = 0.0;
    std::uint64_t max_of_max = 0;
    for (std::size_t i = 0; i < wins.size(); ++i) {
      CHECK(wins[i].first_step == i * cfg.window);
      weighted += wins[i].mean_rank * static_cast<double>(cfg.window);
      if (wins[i].max_rank > max_of_max) max_of_max = wins[i].max_rank;
    }
    CHECK_NEAR(weighted / static_cast<double>(removals),
               p.costs().mean_rank(), 1e-9);
    CHECK(max_of_max == p.costs().max_rank());
  }

  // d-choice: more choices never hurt (allow slack for noise).
  {
    auto cfg = base_config(64, 1.0, removals, 17);
    cfg.choices = 8;
    const double d8 = mean_rank(cfg);
    cfg.choices = 2;
    const double d2 = mean_rank(cfg);
    CHECK(d8 < d2);
  }

  // Karp-Zhang own-queue round-robin runs and stays bounded (it has no
  // choice, but round-robin service keeps it finite).
  {
    auto cfg = base_config(64, 1.0, removals, 19);
    cfg.removal = removal_policy::own_queue_round_robin;
    label_process p(cfg);
    p.run();
    CHECK(p.costs().num_removals() == removals);
    CHECK(p.costs().mean_rank() > 0.0);
  }

  // Appendix A: under round-robin insertion the per-bin removal counts
  // are two-choice balls into bins. At 64 bins and 2^15 removals the
  // two-choice gap (max count above the average) is far below the
  // single-choice gap, and still above zero; these are the seeds of
  // bench_thm1_seq_ranks' APXA row at t = 2^15.
  {
    const auto gap = [&](double beta, std::uint64_t seed) {
      auto cfg = base_config(64, beta, removals, seed);
      cfg.order = insertion_order::round_robin;
      label_process p(cfg);
      p.run();
      std::uint64_t most = 0;
      for (std::size_t i = 0; i < cfg.num_bins; ++i) {
        most = std::max(most, p.removals_from(i));
      }
      return static_cast<double>(most) - static_cast<double>(removals) / 64.0;
    };
    const double two = gap(1.0, 25);
    const double one = gap(0.0, 45);
    CHECK(two < 0.25 * one);
    CHECK(two > 0.0);
  }

  // Biased insertion runs and stays bounded for beta = 1 (Section 3).
  {
    auto cfg = base_config(64, 1.0, removals, 29);
    cfg.gamma = 0.5;
    cfg.bias = bias_kind::linear_ramp;
    const double ramp = mean_rank(cfg);
    cfg.bias = bias_kind::two_block;
    const double block = mean_rank(cfg);
    CHECK(ramp < 8.0 * 64.0);
    CHECK(block < 8.0 * 64.0);
  }

  // Streaming schedule (prefill + alternating pairs) runs to completion.
  {
    process_config cfg;
    cfg.num_bins = 8;
    cfg.beta = 1.0;
    cfg.seed = 31;
    label_process p(cfg);
    p.run_streaming(1u << 12, 1u << 14);
    CHECK(p.costs().num_removals() == (1u << 14));
    CHECK(p.costs().mean_rank() < 4.0 * 8.0);
  }

  std::printf("test_label_process OK\n");
  return 0;
}
