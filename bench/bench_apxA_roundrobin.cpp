// APXA — demonstrates the Appendix A reduction: with ROUND-ROBIN
// insertions, the two-choice removal process maps onto the classic
// two-choice balls-into-bins allocation ("virtual bins" = removal counts;
// removing the lower label = filling the less-loaded virtual bin).
//
// We run both processes for the same number of steps and compare the
// max-above-average gap of (a) the label process's per-queue REMOVAL
// COUNTS against (b) the classic process's bin loads: the gaps should
// match statistically (both O(log n), flat in t). The classic process is
// exponential_process with no bias (gamma = 0): each ball goes to the
// less loaded of d = 2 distinct bins with probability beta, to one
// uniform bin otherwise. The single-choice columns show the contrasting
// sqrt(t) growth in both worlds.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "benchlib/bench_env.hpp"
#include "benchlib/table_printer.hpp"
#include "sim/exponential_process.hpp"
#include "sim/label_process.hpp"

namespace {

using namespace pcq::bench;
using namespace pcq::sim;

/// Max-above-average of the removal-count vector of a round-robin label
/// process after `removals` steps.
double label_process_gap(std::size_t n, double beta, std::size_t removals,
                         std::uint64_t seed) {
  process_config cfg;
  cfg.num_bins = n;
  cfg.beta = beta;
  cfg.order = insertion_order::round_robin;
  cfg.num_labels = 2 * removals;
  cfg.num_removals = removals;
  cfg.seed = seed;
  cfg.window = 0;
  label_process p(cfg);
  p.run();
  std::uint64_t mx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mx = std::max(mx, p.removals_from(i));
  }
  return static_cast<double>(mx) -
         static_cast<double>(removals) / static_cast<double>(n);
}

/// Max-above-average of the bin loads of the (1+beta)-choice
/// balls-into-bins process after `balls` balls.
double balls_gap(std::size_t n, double beta, std::uint64_t balls,
                 std::uint64_t seed) {
  exp_process_config cfg;
  cfg.num_bins = n;
  cfg.beta = beta;
  cfg.num_steps = balls;
  cfg.sample_every = 0;
  cfg.seed = seed;
  exponential_process p(cfg);
  p.run();
  const auto& loads = p.loads();
  return static_cast<double>(*std::max_element(loads.begin(), loads.end())) -
         static_cast<double>(balls) / static_cast<double>(n);
}

}  // namespace

int main() {
  const std::size_t n = 64;
  const std::size_t max_pow = scaled<std::size_t>(18, 21);

  print_header("APXA: round-robin reduction to balls-into-bins (n = 64)",
               "gap = max removals/loads above average; label-process gap "
               "should match the classic two-choice gap (both O(log n))");

  table_printer table({"t", "label_2choice", "balls_2choice",
                       "label_1choice", "balls_1choice"});

  for (std::size_t p = 14; p <= max_pow; ++p) {
    const std::size_t t = 1u << p;
    table.row({static_cast<double>(t),
               label_process_gap(n, 1.0, t, 10 + p),
               balls_gap(n, 1.0, t, 20 + p),
               label_process_gap(n, 0.0, t, 30 + p),
               balls_gap(n, 0.0, t, 40 + p)});
  }

  std::printf(
      "\nexpected: two-choice columns agree and stay ~O(log n) flat in t; "
      "single-choice columns agree and grow ~sqrt(t/n * log n).\n");
  return 0;
}
