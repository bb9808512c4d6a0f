// APXC — Appendix C: distributional linearizability. The paper proves the
// sequential bounds transfer to a concurrent implementation only if the
// compare-and-remove step is atomic, conjectures no fine-grained
// implementation is distributionally linearizable, but observes that real
// implementations still satisfy strong rank guarantees empirically.
//
// This bench makes that observation quantitative: the replayed rank
// distribution of the real lock-based MultiQueue at 1..P threads is
// compared against the sequential process with the same parameters. At
// 1 thread the concurrent structure IS the sequential process (exact
// match); at higher thread counts the distributions stay close — the
// paper's closing empirical claim.

#include <cstdio>
#include <thread>
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

}  // namespace

int main() {
  const std::size_t num_queues = 8;
  const double beta = 1.0;
  const std::size_t prefill = scaled<std::size_t>(1u << 15, 1u << 19);
  const std::size_t pairs = scaled<std::size_t>(1u << 14, 1u << 18);

  print_header("APXC: sequential process vs concurrent MultiQueue rank "
               "distributions (8 queues, beta = 1)",
               "distributional-linearizability check: how far does "
               "concurrency push the rank distribution?");

  // Sequential reference: same queue count, alternating regime.
  sim::process_config cfg;
  cfg.num_bins = num_queues;
  cfg.beta = beta;
  cfg.window = 0;
  cfg.num_labels = prefill + 1;
  cfg.num_removals = 1;
  sim::label_process seq(cfg);
  seq.run_streaming(prefill, pairs * 4);
  std::printf("sequential process: mean rank %.3f, max %llu\n",
              seq.costs().mean_rank(),
              static_cast<unsigned long long>(seq.costs().max_rank()));

  table_printer table(
      {"threads", "mean_rank", "seq_mean", "ratio", "max_rank"});

  for (std::size_t threads = 1;
       threads <= std::min<std::size_t>(num_queues, max_threads());
       threads *= 2) {
    mq_config mqc;
    mqc.beta = beta;
    mqc.queue_factor = num_queues / threads;  // keep 8 queues total
    if (mqc.queue_factor == 0) mqc.queue_factor = 1;
    multi_queue<std::uint64_t, std::uint64_t> queue(mqc, threads);

    workload_config wl;
    wl.num_threads = threads;
    wl.prefill = prefill;
    wl.pairs_per_thread = pairs * 4 / threads;  // same total ops
    wl.record_events = true;
    const auto result = run_alternating(queue, wl);
    const auto report = replay_ranks(result.logs);

    table.row({static_cast<double>(threads), report.rank_stats.mean(),
               seq.costs().mean_rank(),
               report.rank_stats.mean() / seq.costs().mean_rank(),
               report.rank_stats.max()});
  }

  std::printf(
      "\nexpected: ratio ~1 at 1 thread (exact sequential semantics) and "
      "close to 1 at\nhigher thread counts — the empirical claim of "
      "Appendix C / Section 5.\n");
  return 0;
}
