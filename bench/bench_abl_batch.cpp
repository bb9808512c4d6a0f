// ABL-BATCH — ablation of the MultiQueue's batched hot paths over batch
// sizes {1, 4, 16, 64}: batch = 1 is the paper's scalar algorithm
// (run_alternating: push + try_pop); larger batches push with one
// lock/publish per push_batch and pop with one lock/publish per
// try_pop_batch(batch) (run_alternating_batched).
//
// Expected shape: throughput grows with batch size as the per-element
// lock acquisition, d-choice sampling, and top/count publish amortize,
// with diminishing returns once the heap sifts dominate.
//
// A second table measures the DRAIN phase: prefill once, then all
// threads pop with try_pop_batch(batch) until the queue is empty. The
// tail of a drain is the near-empty regime where deleteMin samples keep
// missing — the path where the emptiness sweep's cadence matters (an
// earlier multi_queue version swept the full O(#queues) top+count array
// on every sample miss, so exactly this phase thrashed every published
// cell; the sweep is now strictly every-32nd-attempt).
//
// A third table puts the cost on record: the rank of every entry taken
// by try_pop_batch(K), K in {1, 2, 4, 8, 16}, the call the executor's
// drain loop (and so parallel_sssp's) makes with K = kDrainBatch. One
// handle drives the default 8-slot queue through the hold model (2^16
// prefill, 2^19 deliveries, each followed by a push of the next
// increasing label), and a Fenwick oracle ranks each key when it is
// delivered: the number of smaller keys still in the queue or still
// waiting in the batch. Each K
// has two rows: replacements pushed one by one as each entry is
// delivered, and the drain loop's publish, where the K replacements of a
// batch go in with one push_batch after the batch (into one sampled
// slot). Deterministic and independent of PCQ_BENCH_FULL; both K = 1
// rows must equal the scalar try_pop exactly (the bench exits 1
// otherwise).
//
// Emits BENCH_abl_batch.json next to the console tables.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchlib/bench_env.hpp"
#include "benchlib/json_writer.hpp"
#include "benchlib/pq_bench_driver.hpp"
#include "benchlib/table_printer.hpp"
#include "core/multi_queue.hpp"
#include "util/fenwick.hpp"
#include "util/in_flight.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace pcq;
using namespace pcq::bench;

const std::size_t kBatches[] = {1, 4, 16, 64};

double measure(std::size_t threads, std::size_t prefill, std::size_t pairs,
               std::size_t batch) {
  std::vector<double> mops;
  for (unsigned trial = 0; trial < trials(); ++trial) {
    multi_queue<std::uint64_t, std::uint64_t> queue(mq_config{}, threads);
    workload_config cfg;
    cfg.num_threads = threads;
    cfg.prefill = prefill;
    cfg.pairs_per_thread = pairs;
    cfg.seed = 11 + trial;
    const auto result = batch == 1
                            ? run_alternating(queue, cfg)
                            : run_alternating_batched(queue, cfg, batch);
    mops.push_back(result.mops_per_sec);
  }
  return percentile(mops, 0.5);
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

const std::size_t kRankBatches[] = {1, 2, 4, 8, 16};
constexpr std::size_t kRankThreads = 4;  // x queue_factor 2 = 8 slots
constexpr std::size_t kRankPrefill = std::size_t{1} << 16;
constexpr std::size_t kRankDeliveries = std::size_t{1} << 19;

struct rank_cost {
  double mean = 0.0;
  std::uint64_t max = 0;
  std::uint64_t key_sum = 0;  // order-sensitive digest of the deliveries
};

// Rank of every delivered key under the hold model; k = 0 pops with the
// scalar try_pop, k >= 1 with try_pop_batch(k). With batch_publish the
// replacement labels of a batch go in with one push_batch after it,
// otherwise each is pushed as its entry is delivered.
rank_cost measure_rank(std::size_t k, bool batch_publish) {
  using entry = std::pair<std::uint64_t, std::uint64_t>;
  multi_queue<std::uint64_t, std::uint64_t> queue(mq_config{}, kRankThreads);
  rank_oracle oracle(kRankPrefill + kRankDeliveries);
  auto handle = queue.get_handle(0);
  std::uint64_t label = 0;
  for (; label < kRankPrefill; ++label) {
    handle.push(label, label);
    oracle.insert(label);
  }
  std::vector<entry> batch(std::max<std::size_t>(k, 1));
  std::vector<entry> replacements;
  rank_cost cost;
  std::uint64_t rank_sum = 0;
  std::size_t delivered = 0;
  while (delivered < kRankDeliveries) {
    const std::size_t got =
        k == 0 ? (handle.try_pop(batch[0].first, batch[0].second) ? 1 : 0)
               : handle.try_pop_batch(batch.data(), k);
    if (got == 0) {
      std::fprintf(stderr, "rank table: pop failed on a non-empty queue\n");
      std::exit(1);
    }
    for (std::size_t i = 0; i < got && delivered < kRankDeliveries; ++i) {
      const std::uint64_t rank = oracle.remove(batch[i].first);
      rank_sum += rank;
      cost.max = std::max(cost.max, rank);
      cost.key_sum = cost.key_sum * 31 + batch[i].first;
      ++delivered;
      if (batch_publish) {
        replacements.emplace_back(label, label);
      } else {
        handle.push(label, label);
        oracle.insert(label);
      }
      ++label;
    }
    if (!replacements.empty()) {
      handle.push_batch(replacements.data(), replacements.size());
      for (const entry& e : replacements) oracle.insert(e.first);
      replacements.clear();
    }
  }
  cost.mean = static_cast<double>(rank_sum) / kRankDeliveries;
  return cost;
}

}  // namespace

int main() {
  const std::size_t prefill = scaled<std::size_t>(1u << 16, 1u << 22);
  const std::size_t pairs = scaled<std::size_t>(1u << 16, 1u << 20);

  print_header(
      "ABL-BATCH: throughput vs batch size (Mops/s, higher is better)",
      "alternating insert/deleteMin through push_batch + try_pop_batch; "
      "batch=1 is the scalar paper algorithm");
  std::printf("prefill=%zu pairs/thread=%zu (PCQ_BENCH_FULL=%d)\n", prefill,
              pairs, full_scale() ? 1 : 0);

  const std::vector<std::size_t> batches(std::begin(kBatches),
                                         std::end(kBatches));
  std::vector<std::string> names;
  for (const std::size_t b : batches) {
    names.push_back("batch" + std::to_string(b));
  }

  std::vector<std::string> columns{"threads"};
  columns.insert(columns.end(), names.begin(), names.end());
  table_printer table(columns);

  std::vector<std::size_t> thread_counts;
  for (std::size_t t = 1; t <= max_threads(); t *= 2) {
    thread_counts.push_back(t);
  }

  // series[b][i] = Mops/s at batches[b], thread_counts[i].
  std::vector<std::vector<double>> series(batches.size());
  for (const std::size_t t : thread_counts) {
    std::vector<double> row{static_cast<double>(t)};
    for (std::size_t b = 0; b < batches.size(); ++b) {
      const double mops = measure(t, prefill, pairs, batches[b]);
      series[b].push_back(mops);
      row.push_back(mops);
    }
    table.row(row);
  }

  // Drain phase: the near-empty tail where the sweep cadence shows.
  std::printf("\n");
  print_header(
      "ABL-BATCH drain: concurrent drain of a prefilled queue (Mpops/s)",
      "all threads pop until empty; the tail is the sample-miss + "
      "emptiness-sweep regime");
  table_printer drain_table(columns);
  std::vector<std::vector<double>> drain_series(batches.size());
  for (const std::size_t t : thread_counts) {
    std::vector<double> row{static_cast<double>(t)};
    for (std::size_t b = 0; b < batches.size(); ++b) {
      const double mops = measure_drain(t, prefill, batches[b]);
      drain_series[b].push_back(mops);
      row.push_back(mops);
    }
    drain_table.row(row);
  }

  // Rank cost of taking K entries per pop.
  std::printf("\n");
  print_header(
      "ABL-BATCH rank: rank of each entry taken by try_pop_batch(K)",
      "one handle, default 8-slot queue, hold model with increasing "
      "labels; Fenwick oracle at delivery");
  std::printf("prefill=%zu deliveries=%zu\n", kRankPrefill, kRankDeliveries);
  const rank_cost scalar = measure_rank(0, false);
  // Per K: replacements pushed per entry, then with one push_batch.
  std::vector<rank_cost> rank_rows, publish_rows;
  table_printer rank_table({"K", "mean_rank", "max_rank",
                            "batch_publish_mean", "batch_publish_max"});
  for (const std::size_t k : kRankBatches) {
    rank_rows.push_back(measure_rank(k, false));
    publish_rows.push_back(measure_rank(k, true));
    rank_table.row({static_cast<double>(k), rank_rows.back().mean,
                    static_cast<double>(rank_rows.back().max),
                    publish_rows.back().mean,
                    static_cast<double>(publish_rows.back().max)});
  }
  const auto same = [](const rank_cost& a, const rank_cost& b) {
    return a.mean == b.mean && a.max == b.max && a.key_sum == b.key_sum;
  };
  const bool k1_is_scalar =
      same(rank_rows[0], scalar) && same(publish_rows[0], scalar);
  std::printf("K=1 (both publishes) equals scalar try_pop (mean %.4f, "
              "max %llu): %s\n",
              scalar.mean, static_cast<unsigned long long>(scalar.max),
              k1_is_scalar ? "yes" : "NO");

  const std::string json_path = json_artifact_path("BENCH_abl_batch.json");
  json_writer json(json_path);
  json.begin_object()
      .kv("bench", "abl_batch")
      .kv("unit", "mops_per_sec")
      .kv("full_scale", full_scale())
      .kv("prefill", prefill)
      .kv("pairs_per_thread", pairs)
      .kv("trials", static_cast<std::size_t>(trials()));
  json.key("threads").begin_array();
  for (const std::size_t t : thread_counts) json.value(t);
  json.end_array();
  json.key("series").begin_array();
  for (std::size_t b = 0; b < batches.size(); ++b) {
    json.begin_object().kv("name", names[b]).kv("batch", batches[b]);
    json.key("mops").begin_array();
    for (const double m : series[b]) json.value(m);
    json.end_array();
    json.key("drain_mops").begin_array();
    for (const double m : drain_series[b]) json.value(m);
    json.end_array().end_object();
  }
  json.end_array();
  json.key("rank_cost").begin_object()
      .kv("queues", kRankThreads * mq_config{}.queue_factor)
      .kv("prefill", kRankPrefill)
      .kv("deliveries", kRankDeliveries)
      .kv("scalar_mean_rank", scalar.mean)
      .kv("scalar_max_rank", scalar.max);
  json.key("rows").begin_array();
  for (std::size_t i = 0; i < rank_rows.size(); ++i) {
    json.begin_object()
        .kv("k", kRankBatches[i])
        .kv("publish", "per_entry")
        .kv("mean_rank", rank_rows[i].mean)
        .kv("max_rank", rank_rows[i].max)
        .end_object();
    json.begin_object()
        .kv("k", kRankBatches[i])
        .kv("publish", "batch")
        .kv("mean_rank", publish_rows[i].mean)
        .kv("max_rank", publish_rows[i].max)
        .end_object();
  }
  json.end_array().end_object().end_object();
  std::printf("\n%s %s\n", json.ok() ? "wrote" : "FAILED to write",
              json_path.c_str());

  std::printf(
      "expected shape: throughput rises with batch as lock/sample/publish "
      "amortize,\nflattening once heap sifts dominate; mean rank grows "
      "with K.\n");
  return k1_is_scalar ? 0 : 1;
}
