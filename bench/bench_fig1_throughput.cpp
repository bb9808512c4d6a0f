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
// Each cell is the median of `trials()` runs on a fresh queue (paper: 10
// trials). At each thread count the trials rotate through the series, so
// a burst of interference (a neighbour on a shared box, the process's
// cold first trial) costs each series one trial, which the median drops,
// instead of every trial of one cell — the coarse anchor the CI gate
// divides by included.
//
// A second table drains a prefilled default MultiQueue with all threads
// popping try_pop_batch(batch), batch in {1, 4, 16, 64}, until it is
// empty: the tail is the near-empty regime where deleteMin samples keep
// missing and the emptiness sweep runs. It goes to the top-level "drain"
// object, outside "series", so no gate reads it.
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
#include "util/stats.hpp"
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

// Concurrent drain of a prefilled queue: delivered elements per second
// across all threads, dominated at the tail by the near-empty retry
// path (sample misses + emptiness sweeps).
double measure_drain(std::size_t threads, std::size_t prefill,
                     std::size_t batch) {
  using entry = std::pair<std::uint64_t, std::uint64_t>;
  std::vector<double> mops;
  for (unsigned trial = 0; trial < trials(); ++trial) {
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
    mops.push_back(static_cast<double>(prefill) / timer.elapsed_seconds() /
                   1e6);
  }
  return percentile(mops, 0.5);
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

  std::vector<std::size_t> thread_counts;
  for (std::size_t t = 1; t <= max_threads(); t *= 2) {
    thread_counts.push_back(t);
  }

  // series[s][i] = Mops/s of kSeries[s] at thread_counts[i].
  std::vector<std::vector<double>> series(std::size(kSeries));

  for (const std::size_t t : thread_counts) {
    std::vector<std::vector<double>> mops(std::size(kSeries));
    for (unsigned trial = 0; trial < trials(); ++trial) {
      for (std::size_t s = 0; s < std::size(kSeries); ++s) {
        mops[s].push_back(measure(kSeries[s], t, prefill, pairs, trial));
      }
    }
    std::vector<double> row{static_cast<double>(t)};
    for (std::size_t s = 0; s < std::size(kSeries); ++s) {
      series[s].push_back(percentile(mops[s], 0.5));
      row.push_back(series[s].back());
    }
    table.row(row);
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
  // drain[b][i] = Mpops/s at kDrainBatches[b], thread_counts[i].
  std::vector<std::vector<double>> drain(std::size(kDrainBatches));
  for (const std::size_t t : thread_counts) {
    std::vector<double> row{static_cast<double>(t)};
    for (std::size_t b = 0; b < std::size(kDrainBatches); ++b) {
      drain[b].push_back(measure_drain(t, prefill, kDrainBatches[b]));
      row.push_back(drain[b].back());
    }
    drain_table.row(row);
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
    for (const double m : series[s]) json.value(m);
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
    for (const double m : drain[b]) json.value(m);
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
