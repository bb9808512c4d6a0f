// FIG1 — reproduces Figure 1: throughput of alternating insert/deleteMin
// vs thread count, for the (1+beta) priority queue (beta = 0.5, 0.75), the
// original MultiQueue (beta = 1), the Lindén–Jonsson-style skiplist, the
// k-LSM (k = 256), the SprayList (`spraylist`, sized for the thread
// count), a coarse-locked heap, and — beyond the paper — the batched
// MultiQueue (push_batch + try_pop_batch, batch = 16), which
// amortizes the per-element lock/publish cost.
//
// Paper shape to verify: MultiQueue variants scale near-linearly and the
// beta < 1 variants beat beta = 1 by up to ~20%; LJ and kLSM flatten or
// degrade with threads; coarse collapses. The batched column should beat
// the scalar beta = 1 column at every thread count.
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
// Default parameters finish in seconds; PCQ_BENCH_FULL=1 uses a
// 10M-element prefill (paper scale).

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "benchlib/bench_env.hpp"
#include "benchlib/json_writer.hpp"
#include "benchlib/pq_bench_driver.hpp"
#include "benchlib/table_printer.hpp"
#include "core/baselines/coarse_pq.hpp"
#include "core/baselines/klsm_pq.hpp"
#include "core/baselines/lj_skiplist_pq.hpp"
#include "core/baselines/spray_pq.hpp"
#include "core/multi_queue.hpp"
#include "util/stats.hpp"

namespace {

using namespace pcq;
using namespace pcq::bench;

constexpr std::size_t kFig1Batch = 16;

/// One series: Mops/s of a single trial at a thread count.
struct series_def {
  std::string name;
  std::function<double(std::size_t threads, unsigned trial)> trial;
};

workload_config alternating_config(std::size_t threads, std::size_t prefill,
                                   std::size_t pairs, unsigned trial) {
  workload_config cfg;
  cfg.num_threads = threads;
  cfg.prefill = prefill;
  cfg.pairs_per_thread = pairs;
  cfg.seed = 7 + trial;
  return cfg;
}

/// A scalar series: run_alternating on a fresh make(threads).
template <typename Make>
series_def scalar(std::string name, Make make, std::size_t prefill,
                  std::size_t pairs) {
  return {std::move(name), [=](std::size_t threads, unsigned trial) {
            auto queue = make(threads);
            return run_alternating(
                       *queue,
                       alternating_config(threads, prefill, pairs, trial))
                .mops_per_sec;
          }};
}

mq_config mq_with_beta(double beta) {
  mq_config cfg;
  cfg.beta = beta;
  cfg.queue_factor = 2;
  return cfg;
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

  using mq = multi_queue<std::uint64_t, std::uint64_t>;
  const auto make_mq = [](double beta) {
    return [beta](std::size_t threads) {
      return std::make_unique<mq>(mq_with_beta(beta), threads);
    };
  };
  const std::vector<series_def> series_defs{
      scalar("mq_b1.0", make_mq(1.0), prefill, pairs),
      scalar("mq_b0.75", make_mq(0.75), prefill, pairs),
      scalar("mq_b0.5", make_mq(0.5), prefill, pairs),
      {"mq_b1.0_batch16",
       [=](std::size_t threads, unsigned trial) {
         mq queue(mq_with_beta(1.0), threads);
         return run_alternating_batched(
                    queue, alternating_config(threads, prefill, pairs, trial),
                    kFig1Batch)
             .mops_per_sec;
       }},
      scalar("lj_skiplist",
             [](std::size_t) {
               return std::make_unique<
                   lj_skiplist_pq<std::uint64_t, std::uint64_t>>();
             },
             prefill, pairs),
      scalar("klsm256",
             [](std::size_t) {
               return std::make_unique<klsm_pq<std::uint64_t, std::uint64_t>>(
                   256);
             },
             prefill, pairs),
      scalar("spraylist",
             [](std::size_t threads) {
               return std::make_unique<
                   spray_pq<std::uint64_t, std::uint64_t>>(threads);
             },
             prefill, pairs),
      scalar("coarse",
             [](std::size_t) {
               return std::make_unique<
                   coarse_pq<std::uint64_t, std::uint64_t>>();
             },
             prefill, pairs),
  };

  table_printer table([&] {
    std::vector<std::string> columns{"threads"};
    for (const auto& def : series_defs) columns.push_back(def.name);
    return columns;
  }());

  std::vector<std::size_t> thread_counts;
  for (std::size_t t = 1; t <= max_threads(); t *= 2) {
    thread_counts.push_back(t);
  }

  // series[s][i] = Mops/s of series_defs[s] at thread_counts[i].
  std::vector<std::vector<double>> series(series_defs.size());

  for (const std::size_t t : thread_counts) {
    std::vector<std::vector<double>> mops(series_defs.size());
    for (unsigned trial = 0; trial < trials(); ++trial) {
      for (std::size_t s = 0; s < series_defs.size(); ++s) {
        mops[s].push_back(series_defs[s].trial(t, trial));
      }
    }
    std::vector<double> row{static_cast<double>(t)};
    for (std::size_t s = 0; s < series_defs.size(); ++s) {
      series[s].push_back(percentile(mops[s], 0.5));
      row.push_back(series[s].back());
    }
    table.row(row);
  }

  const std::string json_path = json_artifact_path("BENCH_fig1.json");
  json_writer json(json_path);
  json.begin_object()
      .kv("bench", "fig1_throughput")
      .kv("unit", "mops_per_sec")
      .kv("full_scale", full_scale())
      .kv("prefill", prefill)
      .kv("pairs_per_thread", pairs)
      .kv("trials", static_cast<std::size_t>(trials()))
      .kv("batch", kFig1Batch);
  json.key("threads").begin_array();
  for (const std::size_t t : thread_counts) json.value(t);
  json.end_array();
  json.key("series").begin_array();
  for (std::size_t s = 0; s < series_defs.size(); ++s) {
    json.begin_object().kv("name", series_defs[s].name);
    json.key("mops").begin_array();
    for (const double m : series[s]) json.value(m);
    json.end_array().end_object();
  }
  json.end_array().end_object();
  std::printf("\n%s %s\n", json.ok() ? "wrote" : "FAILED to write",
              json_path.c_str());

  std::printf(
      "expected shape (paper): MultiQueues scale; beta<1 up to ~20%% above "
      "beta=1 at high threads;\nbatch=16 above scalar beta=1 everywhere; LJ "
      "flattens from deleteMin contention; kLSM\nbelow MultiQueues; coarse "
      "collapses.\n");
  return 0;
}
