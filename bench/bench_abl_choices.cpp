// ABL3 — d-choice ablation, sequential AND concurrent. The paper proves
// d = 2 already gives O(n) expected rank; this table quantifies what more
// choices buy (rank shrinks roughly with the top-order statistic of d
// samples) and what they cost (extra snapshot reads per deletion).
// Includes the Karp–Zhang own-queue policy [20] as the no-choice ancestor.

#include <cstdio>
#include <vector>

#include "benchlib/bench_env.hpp"
#include "benchlib/pq_bench_driver.hpp"
#include "benchlib/table_printer.hpp"
#include "core/multi_queue.hpp"
#include "core/rank_recorder.hpp"
#include "sim/label_process.hpp"

namespace {

using namespace pcq;
using namespace pcq::bench;

double sequential_mean_rank(std::size_t n, std::size_t choices,
                            sim::removal_policy policy, std::size_t removals,
                            std::uint64_t seed) {
  sim::process_config cfg;
  cfg.num_bins = n;
  cfg.choices = choices;
  cfg.removal = policy;
  cfg.num_labels = 2 * removals;
  cfg.num_removals = removals;
  cfg.seed = seed;
  cfg.window = 0;
  sim::label_process p(cfg);
  p.run();
  return p.costs().mean_rank();
}

}  // namespace

int main() {
  const std::size_t n = 64;
  const std::size_t removals = scaled<std::size_t>(1u << 17, 1u << 20);

  print_header("ABL3a: d-choice in the sequential process (n = 64)",
               "mean rank vs number of choices; Karp-Zhang own-queue row "
               "for contrast");
  {
    table_printer table({"choices", "mean_rank", "mean/n"});
    for (const std::size_t d : {1u, 2u, 3u, 4u, 8u, 16u}) {
      const double mean = sequential_mean_rank(
          n, d, sim::removal_policy::choice, removals, 40 + d);
      table.row({static_cast<double>(d), mean, mean / static_cast<double>(n)});
    }
    const double kz = sequential_mean_rank(
        n, 2, sim::removal_policy::own_queue_round_robin, removals, 60);
    std::printf("[karp-zhang own-queue round-robin]\n");
    table.row({0.0, kz, kz / static_cast<double>(n)});
  }

  print_header("ABL3b: d-choice in the concurrent MultiQueue",
               "throughput and replayed mean rank vs d (8 threads, c = 2)");
  {
    const std::size_t threads = std::min<std::size_t>(8, max_threads());
    table_printer table({"choices", "mops", "mean_rank", "max_rank"});
    for (const std::size_t d : {1u, 2u, 3u, 4u, 8u}) {
      mq_config cfg;
      cfg.choices = d;
      multi_queue<std::uint64_t, std::uint64_t> queue(cfg, threads);
      workload_config wl;
      wl.num_threads = threads;
      wl.prefill = scaled<std::size_t>(1u << 15, 1u << 20);
      wl.pairs_per_thread = scaled<std::size_t>(1u << 14, 1u << 18);
      wl.record_events = true;
      const auto result = run_alternating(queue, wl);
      const auto report = replay_ranks(result.logs);
      table.row({static_cast<double>(d), result.mops_per_sec,
                 report.rank_stats.mean(), report.rank_stats.max()});
    }
  }

  std::printf("\nexpected: rank improves steeply 1->2 (the power of choice) "
              "and mildly after;\nthroughput decays slowly with d.\n");
  return 0;
}
