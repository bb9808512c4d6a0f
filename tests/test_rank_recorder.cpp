#include "core/rank_recorder.hpp"

#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "benchlib/pq_bench_driver.hpp"
#include "core/multi_queue.hpp"
#include "exec/steal_deque.hpp"
#include "test_macros.hpp"

namespace {

using pcq::event_kind;
using pcq::event_log;
using pcq::mq_event;

}  // namespace

int main() {
  // Hand-built history with known ranks.
  //   t1 ins 10, t2 ins 20, t3 ins 30
  //   t4 rem 20  -> rank 1 (10 present), inversion
  //   t5 rem 10  -> rank 0
  //   t6 ins 5, t7 rem 30 -> rank 1 (5 present), inversion
  {
    event_log log{
        {1, 10, event_kind::insert}, {2, 20, event_kind::insert},
        {3, 30, event_kind::insert}, {4, 20, event_kind::remove},
        {5, 10, event_kind::remove}, {6, 5, event_kind::insert},
        {7, 30, event_kind::remove},
    };
    const auto report = pcq::replay_ranks({log});
    CHECK(report.deletions == 3);
    CHECK(report.inversions == 2);
    CHECK(report.unmatched == 0);
    CHECK_NEAR(report.rank_stats.mean(), 2.0 / 3.0, 1e-12);
    CHECK_NEAR(report.rank_stats.max(), 1.0, 0.0);
  }

  // Cross-thread merge: events split over logs in arbitrary per-thread
  // order replay identically to the single-log history.
  {
    event_log a{{2, 20, event_kind::insert}, {4, 20, event_kind::remove},
                {6, 5, event_kind::insert}};
    event_log b{{1, 10, event_kind::insert}, {3, 30, event_kind::insert},
                {5, 10, event_kind::remove}, {7, 30, event_kind::remove}};
    const auto split = pcq::replay_ranks({a, b});
    CHECK(split.deletions == 3);
    CHECK(split.inversions == 2);
    CHECK_NEAR(split.rank_stats.mean(), 2.0 / 3.0, 1e-12);

    // Four logs, one empty, and three (an odd count, so a pairwise merge
    // round leaves one over): the same history, in timestamp order.
    event_log c{{3, 30, event_kind::insert}, {7, 30, event_kind::remove}};
    event_log d{{1, 10, event_kind::insert}, {5, 10, event_kind::remove}};
    const auto merged = pcq::merge_events({a, event_log{}, c, d});
    CHECK(merged.size() == 7);
    for (std::size_t i = 0; i < merged.size(); ++i) {
      CHECK(merged[i].timestamp == i + 1);
    }
    const auto three = pcq::replay_ranks({a, c, d});
    CHECK(three.deletions == 3);
    CHECK(three.inversions == 2);
    CHECK_NEAR(three.rank_stats.mean(), 2.0 / 3.0, 1e-12);
  }

  // Keys that differ in high and low bits at once (several radix passes,
  // some skipped) rank like the small keys they stand for.
  {
    const std::uint64_t k10 = std::uint64_t{10} << 44, k20 = k10 | 1,
                        k30 = std::uint64_t{30} << 44, k5 = 5;
    event_log log{
        {1, k10, event_kind::insert}, {2, k20, event_kind::insert},
        {3, k30, event_kind::insert}, {4, k20, event_kind::remove},
        {5, k10, event_kind::remove}, {6, k5, event_kind::insert},
        {7, k30, event_kind::remove},
    };
    const auto report = pcq::replay_ranks({log});
    CHECK(report.deletions == 3);
    CHECK(report.inversions == 2);
    CHECK(report.unmatched == 0);
    CHECK_NEAR(report.rank_stats.mean(), 2.0 / 3.0, 1e-12);
  }

  // Strict FIFO-of-min history: zero inversions.
  {
    event_log log{
        {1, 3, event_kind::insert}, {2, 1, event_kind::insert},
        {3, 2, event_kind::insert}, {4, 1, event_kind::remove},
        {5, 2, event_kind::remove}, {6, 3, event_kind::remove},
    };
    const auto report = pcq::replay_ranks({log});
    CHECK(report.deletions == 3);
    CHECK(report.inversions == 0);
    CHECK_NEAR(report.rank_stats.mean(), 0.0, 0.0);
  }

  // Duplicate keys count as a multiset; removing one instance leaves
  // the other, and equal keys are not "smaller" (no self-inversion).
  {
    event_log log{
        {1, 7, event_kind::insert}, {2, 7, event_kind::insert},
        {3, 7, event_kind::remove}, {4, 7, event_kind::remove},
    };
    const auto report = pcq::replay_ranks({log});
    CHECK(report.deletions == 2);
    CHECK(report.inversions == 0);
  }

  // A remove with no matching insert is reported, not crashed on.
  {
    event_log log{{1, 42, event_kind::remove}};
    const auto report = pcq::replay_ranks({log});
    CHECK(report.deletions == 0);
    CHECK(report.unmatched == 1);
  }

  // rank_recorder plumbing.
  {
    pcq::rank_recorder recorder(2);
    recorder.record(0, event_kind::insert, 1, 10);
    recorder.record(1, event_kind::remove, 2, 10);
    CHECK(recorder.logs()[0].size() == 1);
    CHECK(recorder.logs()[1].size() == 1);
    const auto report = pcq::replay_ranks(recorder.logs());
    CHECK(report.deletions == 1);
    CHECK(report.unmatched == 0);
  }

  // run_alternating's recording mode: every push and every successful
  // pop is logged at its linearization point, so the replay matches each
  // deletion to an insert, and a prefilled alternating run never finds
  // the queue empty.
  {
    using pcq::bench::workload_config;
    for (const std::size_t threads : {1, 2}) {
      pcq::multi_queue<std::uint64_t, std::uint64_t> queue(pcq::mq_config{},
                                                           threads);
      workload_config cfg;
      cfg.num_threads = threads;
      cfg.prefill = 64;
      cfg.pairs_per_thread = 500;
      cfg.record_events = true;
      const auto result = pcq::bench::run_alternating(queue, cfg);
      CHECK(result.total_ops == 2 * cfg.pairs_per_thread * threads);
      CHECK(result.logs.size() == threads);
      const auto report = pcq::replay_ranks(result.logs);
      CHECK(report.unmatched == 0);
      CHECK(report.deletions + result.failed_pops ==
            cfg.pairs_per_thread * threads);
      if (threads == 1) {
        CHECK(result.failed_pops == 0);
        CHECK(queue.size() == cfg.prefill);
      }
    }
  }

  // A queue without the timed extension (the steal-deque pool) runs the
  // scalar workload, and refuses the recording mode.
  {
    pcq::exec::steal_deque_pool<std::uint64_t, std::uint64_t> pool(1);
    pcq::bench::workload_config cfg;
    cfg.prefill = 8;
    cfg.pairs_per_thread = 100;
    const auto result = pcq::bench::run_alternating(pool, cfg);
    CHECK(result.total_ops == 2 * 100);
    CHECK(result.failed_pops == 0);
    cfg.record_events = true;
    bool threw = false;
    try {
      pcq::bench::run_alternating(pool, cfg);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);
  }

  // run_alternating_batched rounds pairs down to whole batches: 100 pairs in
  // batches of 16 run 6 rounds, and at one thread every round takes back
  // what it pushed.
  {
    pcq::multi_queue<std::uint64_t, std::uint64_t> queue(pcq::mq_config{}, 1);
    pcq::bench::workload_config cfg;
    cfg.prefill = 40;
    cfg.pairs_per_thread = 100;
    const auto result = pcq::bench::run_alternating_batched(queue, cfg, 16);
    CHECK(result.total_ops == 2 * 96);
    CHECK(result.failed_pops == 0);
    CHECK(queue.size() == cfg.prefill);
  }

  std::printf("test_rank_recorder OK\n");
  return 0;
}
