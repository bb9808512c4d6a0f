// ABL2 — design ablation: insertion stickiness. Re-using the sampled
// insertion queue for s consecutive pushes improves locality (fewer random
// cache lines, fewer RNG calls) at a cost in insertion uniformity — the
// "bias robustness" of Section 3 explains why moderate stickiness leaves
// rank quality intact. Later MultiQueue work (Williams, Sanders, Dementiev
// 2021) adopts exactly this knob; here it is an extension ablation.

#include <cstdio>
#include <vector>

#include "benchlib/bench_env.hpp"
#include "benchlib/pq_bench_driver.hpp"
#include "benchlib/table_printer.hpp"
#include "core/multi_queue.hpp"
#include "core/rank_recorder.hpp"

namespace {

using namespace pcq;
using namespace pcq::bench;

}  // namespace

int main() {
  const std::size_t threads = std::min<std::size_t>(8, max_threads());
  const std::size_t prefill = scaled<std::size_t>(1u << 15, 1u << 20);
  const std::size_t pairs = scaled<std::size_t>(1u << 14, 1u << 18);

  print_header("ABL2: insertion stickiness ablation (beta = 1, c = 2)",
               "throughput and replayed mean rank vs stickiness s; "
               "s = 1 is the paper's algorithm");
  std::printf("threads=%zu prefill=%zu pairs/thread=%zu\n", threads, prefill,
              pairs);

  table_printer table({"stickiness", "mops", "mean_rank", "max_rank"});

  for (const std::size_t s : {1u, 2u, 4u, 16u, 64u}) {
    mq_config cfg;
    cfg.stickiness = s;
    multi_queue<std::uint64_t, std::uint64_t> queue(cfg, threads);

    workload_config wl;
    wl.num_threads = threads;
    wl.prefill = prefill;
    wl.pairs_per_thread = pairs;
    wl.record_events = true;
    const auto result = run_alternating(queue, wl);
    const auto report = replay_ranks(result.logs);

    table.row({static_cast<double>(s), result.mops_per_sec,
               report.rank_stats.mean(), report.rank_stats.max()});
  }

  std::printf("\nexpected: throughput rises mildly with s; mean rank "
              "degrades slowly (bias robustness) until s is large.\n");
  return 0;
}
