// FIG1 — reproduces Figure 1: throughput of alternating insert/deleteMin
// vs thread count, for the (1+beta) priority queue (beta = 0.5, 0.75), the
// original MultiQueue (beta = 1), the Lindén–Jonsson-style skiplist, the
// k-LSM (k = 256), the SprayList (`spraylist`, sized for the thread
// count), a coarse-locked heap, and — beyond the paper — the batched
// MultiQueue at batch sizes 4, 16 and 64 (push_batch + try_pop_batch),
// which amortizes the per-element lock/publish cost. The queues come from
// benchlib/queue_roster.hpp.
//
// Paper shape to verify: MultiQueue variants scale near-linearly and the
// beta < 1 variants beat beta = 1 by up to ~20%; LJ and kLSM flatten or
// degrade with threads; coarse collapses. The batched columns should beat
// the scalar beta = 1 column at every thread count and rise with the
// batch size until heap sifts dominate.
//
// Besides the console table, the run emits BENCH_fig1.json (per-structure
// Mops/s by thread count) — the repo's machine-readable perf trajectory.
// CI uploads it as an artifact and fails on >30% multi_queue regressions
// against the committed baseline (scripts/check_bench_regression.py).
//
// Each thread count is one cell of benchlib's measure_cell: a warm-up
// round, then the timed rounds that rotate through the series, each trial
// on a fresh queue seeded 7 + trial; every series reports its median.
//
// A second table drains a prefilled default MultiQueue with all threads
// popping try_pop_batch(batch), batch in {1, 4, 16, 64}, until it is
// empty: the tail is the near-empty regime where deleteMin samples keep
// missing and the emptiness sweep runs. Its cells rotate the same way
// (prefill seeded 77 + trial). It goes to the top-level "drain" object,
// outside "series", so no gate reads it.
//
// Default parameters finish in seconds; PCQ_BENCH_FULL=1 uses a
// 10M-element prefill (paper scale).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "benchlib/bench_env.hpp"
#include "benchlib/json_writer.hpp"
#include "benchlib/pq_bench_driver.hpp"
#include "benchlib/queue_roster.hpp"
#include "benchlib/table_printer.hpp"
#include "core/multi_queue.hpp"
#include "util/in_flight.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace pcq;
using namespace pcq::bench;

/// One series: a roster queue, run scalar (batch 0) or batched.
struct series_def {
  std::string name;
  const char* queue;
  std::size_t batch;
};

const series_def kSeries[] = {
    {"mq_b1.0", "mq_b1.0", 0},
    {"mq_b0.75", "mq_b0.75", 0},
    {"mq_b0.5", "mq_b0.5", 0},
    {"mq_b1.0_batch4", "mq_b1.0", 4},
    {"mq_b1.0_batch16", "mq_b1.0", 16},
    {"mq_b1.0_batch64", "mq_b1.0", 64},
    {"lj_skiplist", "lj_skiplist", 0},
    {"klsm256", "klsm256", 0},
    {"spraylist", "spraylist", 0},
    {"coarse", "coarse", 0},
};

const std::size_t kDrainBatches[] = {1, 4, 16, 64};

/// Mops/s of one trial of `def` at a thread count.
double measure(const series_def& def, std::size_t threads,
               std::size_t prefill, std::size_t pairs, unsigned trial) {
  workload_config cfg;
  cfg.num_threads = threads;
  cfg.prefill = prefill;
  cfg.pairs_per_thread = pairs;
  cfg.seed = 7 + trial;
  return with_queue(def.queue, threads, [&](auto& queue) {
    return (def.batch == 0
                ? run_alternating(queue, cfg)
                : run_alternating_batched(queue, cfg, def.batch))
        .mops_per_sec;
  });
}

// One trial of a concurrent drain of a prefilled queue: delivered
// elements per second across all threads, dominated at the tail by the
// near-empty retry path (sample misses + emptiness sweeps).
double measure_drain(std::size_t threads, std::size_t prefill,
                     std::size_t batch, unsigned trial) {
  using entry = std::pair<std::uint64_t, std::uint64_t>;
  multi_queue<std::uint64_t, std::uint64_t> queue(mq_config{}, threads);
  {
    auto handle = queue.get_handle(0);
    xoshiro256ss rng(77 + trial);
    std::vector<entry> block(1024);
    for (std::size_t done = 0; done < prefill;) {
      const std::size_t m = std::min(block.size(), prefill - done);
      for (std::size_t i = 0; i < m; ++i) {
        const std::uint64_t key = rng() >> 1;
        block[i] = entry(key, key);
      }
      handle.push_batch(block.data(), m);
      done += m;
    }
  }
  std::atomic<std::uint64_t> delivered{0};
  auto worker = [&](std::size_t tid) {
    auto handle = queue.get_handle(tid);
    std::vector<entry> out(batch);
    // The loop ends on the delivered count, not on a pop's relaxed
    // emptiness verdict.
    while (delivered.load(std::memory_order_acquire) < prefill) {
      const std::size_t got = handle.try_pop_batch(out.data(), batch);
      if (got > 0) delivered.fetch_add(got, std::memory_order_acq_rel);
    }
  };
  wall_timer timer;
  run_workers(threads, worker);
  return static_cast<double>(prefill) / timer.elapsed_seconds() / 1e6;
}

}  // namespace

int main() {
  const std::size_t prefill = scaled<std::size_t>(1u << 16, 10'000'000);
  const std::size_t pairs = scaled<std::size_t>(1u << 16, 1u << 20);

  print_header("FIG1: throughput vs threads (Mops/s, higher is better)",
               "alternating insert/deleteMin; queues = 2 x threads; "
               "prefilled so deletions never observe emptiness");
  std::printf("prefill=%zu pairs/thread=%zu (PCQ_BENCH_FULL=%d)\n", prefill,
              pairs, full_scale() ? 1 : 0);

  table_printer table([&] {
    std::vector<std::string> columns{"threads"};
    for (const auto& def : kSeries) columns.push_back(def.name);
    return columns;
  }());

  const std::vector<std::size_t> thread_counts = thread_sweep(max_threads());

  // mops[i][s] = Mops/s of kSeries[s] at thread_counts[i].
  std::vector<std::vector<double>> mops;
  for (const std::size_t t : thread_counts) {
    mops.push_back(measure_cell(std::size(kSeries), [&](std::size_t s,
                                                        unsigned trial) {
      return measure(kSeries[s], t, prefill, pairs, trial);
    }));
    table.row(static_cast<double>(t), mops.back());
  }

  // Drain phase: the near-empty tail where the sweep cadence shows.
  std::printf("\n");
  print_header(
      "FIG1 drain: concurrent drain of a prefilled queue (Mpops/s)",
      "all threads pop with try_pop_batch(batch) until empty; the tail is "
      "the sample-miss + emptiness-sweep regime; ungated");
  std::vector<std::string> drain_columns{"threads"};
  for (const std::size_t b : kDrainBatches) {
    drain_columns.push_back("batch" + std::to_string(b));
  }
  table_printer drain_table(drain_columns);
  // drain[i][b] = Mpops/s at thread_counts[i], kDrainBatches[b].
  std::vector<std::vector<double>> drain;
  for (const std::size_t t : thread_counts) {
    drain.push_back(measure_cell(std::size(kDrainBatches),
                                 [&](std::size_t b, unsigned trial) {
      return measure_drain(t, prefill, kDrainBatches[b], trial);
    }));
    drain_table.row(static_cast<double>(t), drain.back());
  }

  const std::string json_path = json_artifact_path("BENCH_fig1.json");
  json_writer json(json_path);
  json.begin_object()
      .kv("bench", "fig1_throughput")
      .kv("unit", "mops_per_sec")
      .kv("full_scale", full_scale())
      .kv("prefill", prefill)
      .kv("pairs_per_thread", pairs)
      .kv("trials", static_cast<std::size_t>(trials()));
  json.key("threads").begin_array();
  for (const std::size_t t : thread_counts) json.value(t);
  json.end_array();
  json.key("series").begin_array();
  for (std::size_t s = 0; s < std::size(kSeries); ++s) {
    json.begin_object().kv("name", kSeries[s].name);
    if (kSeries[s].batch != 0) json.kv("batch", kSeries[s].batch);
    json.key("mops").begin_array();
    for (const std::vector<double>& cell : mops) json.value(cell[s]);
    json.end_array().end_object();
  }
  json.end_array();
  json.key("drain").begin_object()
      .kv("unit", "million entries delivered per second")
      .kv("prefill", prefill);
  json.key("rows").begin_array();
  for (std::size_t b = 0; b < std::size(kDrainBatches); ++b) {
    json.begin_object().kv("batch", kDrainBatches[b]);
    json.key("mpops").begin_array();
    for (const std::vector<double>& cell : drain) json.value(cell[b]);
    json.end_array().end_object();
  }
  json.end_array().end_object().end_object();
  std::printf("\n%s %s\n", json.ok() ? "wrote" : "FAILED to write",
              json_path.c_str());

  std::printf(
      "expected shape (paper): MultiQueues scale; beta<1 up to ~20%% above "
      "beta=1 at high threads;\nbatched columns above scalar beta=1 "
      "everywhere, rising with batch; LJ flattens from\ndeleteMin "
      "contention; kLSM below MultiQueues; coarse collapses.\n");
  return 0;
}
