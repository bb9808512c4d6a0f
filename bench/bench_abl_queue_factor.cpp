// ABL1 — design ablation: the queue multiplier c (#queues = c * threads).
// The paper fixes c = 2 (so does the MultiQueue literature); this table
// shows why: c = 1 suffers try_lock contention, large c costs rank quality
// (rank scales with n = c*P) for little extra throughput.

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

  print_header("ABL1: queue factor c ablation (beta = 1)",
               "throughput and replayed mean rank vs c; the paper's c = 2 "
               "balances lock contention against rank quality");
  std::printf("threads=%zu prefill=%zu pairs/thread=%zu\n", threads, prefill,
              pairs);

  table_printer table({"c", "queues", "mops", "mean_rank", "max_rank"});

  for (const std::size_t c : {1u, 2u, 4u, 8u}) {
    mq_config cfg;
    cfg.queue_factor = c;
    multi_queue<std::uint64_t, std::uint64_t> queue(cfg, threads);

    workload_config wl;
    wl.num_threads = threads;
    wl.prefill = prefill;
    wl.pairs_per_thread = pairs;
    wl.record_events = true;
    const auto result = run_alternating(queue, wl);
    const auto report = replay_ranks(result.logs);

    table.row({static_cast<double>(c),
               static_cast<double>(queue.num_queues()), result.mops_per_sec,
               report.rank_stats.mean(), report.rank_stats.max()});
  }

  std::printf("\nexpected: mean rank grows ~linearly with c (rank = O(n)); "
              "throughput gains saturate past c = 2.\n");
  return 0;
}
