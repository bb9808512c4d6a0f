// RANK — rank quality of the real MultiQueue (Figure 2 and the design
// ablations), all measured one way: build the queue, run the alternating
// workload through the timed API (run_alternating with record_events)
// and replay the merged logs with replay_ranks. Timestamps are drawn at
// the linearization point (inside the slot lock), so the replay is
// skew-free (see rank_recorder.hpp).
//
// One-factor sweeps around the paper's default (beta = 1, d = 2, s = 1):
//   beta in {0.125 .. 1}     Figure 2: mean rank grows modestly as beta
//                            drops to ~0.5, sharply below (theory:
//                            O(n / beta^2));
//   d in {1, 2, 3, 4, 8}     choices per deleteMin: steep gain 1 -> 2
//                            (the power of choice), mild after; d = 8
//                            at 8 slots compares every slot, a strict
//                            queue at one thread;
//   s in {1, 2, 4, 16, 64}   insertion stickiness, the locality
//                            extension of later MultiQueue work: bias
//                            robustness keeps rank intact until s is
//                            large;
//   c in {1, 2, 4, 8}        slots per thread: rank grows with the slot
//                            count c * threads.
// The beta, d and s sweeps hold 8 slots (queue_factor = 8 / threads):
// one slot per thread at 1 or 2 threads with d = 2 would be a strict
// queue and read rank 0. Each configuration runs at threads {1, 2, 4, 8}
// capped by PCQ_MAX_THREADS.
//
// One thread makes the run a pure function of the seeds, so the
// one-thread rank values of every configuration go to the top-level
// "one_thread" object of BENCH_rank.json, the same at any
// PCQ_MAX_THREADS, and CI gates that object exactly. Rows at more
// threads are written and printed but not gated: their rank depends on
// how the OS interleaves the threads, and on a box that time-slices
// them one run reads near the sequential value and the next 100x above.
//
// Three more one-thread tables sit next to the sweeps, each gated exactly
// as its own object of BENCH_rank.json:
//   "sequential"  Theorem 2's coupling (sim/rank_equivalence.hpp): a real
//                 multi_queue and the Theorem-1 label process driven from
//                 one RNG stream must give EQUAL per-removal rank traces
//                 (match = 1) at every (n, beta, d); any mismatch fails
//                 the bench.
//   "rank_cost"   the rank of every entry taken by try_pop_batch(K),
//                 K in {1, 2, 4, 8, 16}, the call the executor's drain loop
//                 (and so parallel_sssp's) makes with K = kDrainBatch. One
//                 handle drives the default 8-slot queue through the hold
//                 model (2^16 prefill, 2^19 deliveries, each followed by a
//                 push of the next increasing label), and a Fenwick oracle
//                 ranks each key when it is delivered: the number of
//                 smaller keys still in the queue or still waiting in the
//                 batch. Each K has two rows: replacements pushed one by
//                 one as each entry is delivered, and the drain loop's
//                 publish, where the K replacements of a batch go in with
//                 one push_batch after the batch (into one sampled slot).
//                 Both K = 1 rows must equal the scalar try_pop exactly, or
//                 the bench fails.
// The coupling's concurrent counterpart, the KS distance between each
// case's replayed concurrent rank distribution and the sequential
// process's per thread count, goes to the ungated "concurrent" object: no
// step coupling exists under real threads, so Theorem 2's claim shows
// only as a KS distance near sampling noise (~ sqrt(2/pairs) at 95%).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "benchlib/bench_env.hpp"
#include "benchlib/json_writer.hpp"
#include "benchlib/pq_bench_driver.hpp"
#include "benchlib/table_printer.hpp"
#include "core/multi_queue.hpp"
#include "core/rank_recorder.hpp"
#include "sim/rank_equivalence.hpp"
#include "util/fenwick.hpp"

namespace {

using namespace pcq;
using namespace pcq::bench;

constexpr std::size_t kSlots = 8;
const std::size_t kPrefill = scaled<std::size_t>(1u << 15, 1u << 20);
const std::size_t kPairs = scaled<std::size_t>(1u << 14, 1u << 18);

struct rank_row {
  double slots, mops, mean_rank, max_rank, inversion_frac;
};

// The artifact's per-row fields; mops is left out of the gated rows.
const std::pair<const char*, double rank_row::*> kFields[] = {
    {"slots", &rank_row::slots},
    {"mops", &rank_row::mops},
    {"mean_rank", &rank_row::mean_rank},
    {"max_rank", &rank_row::max_rank},
    {"inversion_frac", &rank_row::inversion_frac},
};

rank_row measure(const mq_config& cfg, std::size_t threads) {
  multi_queue<std::uint64_t, std::uint64_t> queue(cfg, threads);
  workload_config wl;
  wl.num_threads = threads;
  wl.prefill = kPrefill;
  wl.pairs_per_thread = kPairs;
  wl.record_events = true;
  const auto result = run_alternating(queue, wl);
  const auto report = replay_ranks(result.logs);
  return {static_cast<double>(queue.num_queues()), result.mops_per_sec,
          report.rank_stats.mean(), report.rank_stats.max(),
          static_cast<double>(report.inversions) /
              static_cast<double>(report.deletions)};
}

struct sweep {
  const char* name;
  const char* title;
  std::vector<double> values;
  void (*set)(mq_config&, double);
};

const sweep kSweeps[] = {
    {"beta", "FIG2: mean rank vs beta (8 slots)",
     {0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0},
     [](mq_config& c, double v) { c.beta = v; }},
    {"d", "ABL3b: choices d per deleteMin (8 slots)",
     {1, 2, 3, 4, 8},
     [](mq_config& c, double v) { c.choices = static_cast<std::size_t>(v); }},
    {"s", "ABL2: insertion stickiness s (8 slots)",
     {1, 2, 4, 16, 64},
     [](mq_config& c, double v) {
       c.stickiness = static_cast<std::size_t>(v);
     }},
    {"c", "ABL1: slots per thread c (c * threads slots)",
     {1, 2, 4, 8},
     [](mq_config& c, double v) {
       c.queue_factor = static_cast<std::size_t>(v);
     }},
};

const char kUngated[] =
    "rows at threads > 1 are ungated: their rank depends on how the OS "
    "interleaves the threads";
const char kConcurrentUngated[] =
    "the concurrent KS and ranks are ungated: they depend on how the OS "
    "interleaves the threads";

// Theorem 2's coupling cases: (n, beta, d) of the queue and the label
// process alike.
struct coupling_case {
  const char* name;
  std::size_t num_queues;
  double beta;
  std::size_t choices;
};

const coupling_case kCouplingCases[] = {
    {"n4_b1.0_d2", 4, 1.0, 2},
    {"n8_b1.0_d2", 8, 1.0, 2},
    {"n16_b1.0_d2", 16, 1.0, 2},
    {"n8_b0.5_d2", 8, 0.5, 2},
    {"n8_b1.0_d3", 8, 1.0, 3},
};
const std::size_t kCouplingPrefill = scaled<std::size_t>(1u << 12, 1u << 16);
const std::size_t kCouplingPairs = scaled<std::size_t>(1u << 13, 1u << 18);
// The sequential rows use this seed; the concurrent ones add the thread
// count to it.
constexpr std::uint64_t kCouplingSeed = 0x7468326du;  // "thm2"

sim::equivalence_result run_coupling(const coupling_case& c,
                                     std::size_t threads,
                                     std::uint64_t seed) {
  sim::equivalence_config cfg;
  cfg.num_queues = c.num_queues;
  cfg.beta = c.beta;
  cfg.choices = c.choices;
  cfg.prefill = kCouplingPrefill;
  cfg.pairs = kCouplingPairs;
  cfg.threads = threads;
  cfg.seed = seed;
  return sim::run_equivalence(cfg);
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
rank_cost measure_rank_cost(std::size_t k, bool batch_publish) {
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
      std::fprintf(stderr, "rank_cost: pop failed on a non-empty queue\n");
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
  std::vector<std::size_t> thread_counts;
  for (std::size_t t = 1; t <= std::min<std::size_t>(8, max_threads());
       t *= 2) {
    thread_counts.push_back(t);
  }

  std::printf("RANK: replayed rank of the MultiQueue, one factor at a time "
              "around beta = 1, d = 2, s = 1\nprefill=%zu pairs/thread=%zu; "
              "threads = 1 rows are gated exactly, %s\n",
              kPrefill, kPairs, kUngated);

  struct series {
    std::string name;
    const char* sweep;
    double value;
    std::vector<rank_row> rows;  // one per thread count
  };
  std::vector<series> all;
  // The default configuration sits in every sweep; measure it once per
  // thread count.
  std::map<std::tuple<double, std::size_t, std::size_t, std::size_t,
                      std::size_t>,
           rank_row>
      measured;
  for (const sweep& sw : kSweeps) {
    print_header(sw.title, "lower rank is better");
    table_printer table({sw.name, "threads", "slots", "mean_rank", "max_rank",
                         "inversion_frac", "mops"});
    const std::size_t first = all.size();
    for (const double v : sw.values) {
      char name[32];
      std::snprintf(name, sizeof(name), "%s%g", sw.name, v);
      all.push_back({name, sw.name, v, {}});
    }
    for (const std::size_t t : thread_counts) {
      if (t == 2) std::printf("-- %s\n", kUngated);
      for (std::size_t i = first; i < all.size(); ++i) {
        mq_config cfg;
        cfg.queue_factor = std::max<std::size_t>(1, kSlots / t);
        sw.set(cfg, all[i].value);
        const auto key = std::make_tuple(cfg.beta, cfg.choices,
                                         cfg.stickiness, cfg.queue_factor, t);
        auto it = measured.find(key);
        if (it == measured.end()) {
          it = measured.emplace(key, measure(cfg, t)).first;
        }
        const rank_row& r = it->second;
        all[i].rows.push_back(r);
        table.row({all[i].value, static_cast<double>(t), r.slots, r.mean_rank,
                   r.max_rank, r.inversion_frac, r.mops});
      }
    }
  }

  print_header(
      "THM2a: sequential coupling — real MultiQueue vs label process",
      "same RNG stream, same decision procedure; match = 1 means the "
      "per-removal rank traces are EXACTLY equal (anything else is a "
      "model/implementation drift and fails the bench)");
  struct coupling_row {
    std::size_t removals;
    bool match;
    double mean_rank;
    std::uint64_t max_rank;
  };
  std::vector<coupling_row> coupling_rows;
  bool all_match = true;
  table_printer coupling_table(
      {"n", "beta", "d", "removals", "match", "mean_rank", "max_rank"});
  for (const coupling_case& c : kCouplingCases) {
    const auto res = run_coupling(c, 1, kCouplingSeed);
    all_match = all_match && res.exact_match;
    coupling_rows.push_back({res.real_ranks.size(), res.exact_match,
                             res.dist.mean_real, res.dist.max_real});
    coupling_table.row({static_cast<double>(c.num_queues), c.beta,
                        static_cast<double>(c.choices),
                        static_cast<double>(res.real_ranks.size()),
                        res.exact_match ? 1.0 : 0.0, res.dist.mean_real,
                        static_cast<double>(res.dist.max_real)});
    if (!res.exact_match) {
      std::printf("  MISMATCH at removal %zu\n", res.first_mismatch);
    }
  }

  print_header(
      "THM2b: concurrent vs sequential rank distributions",
      std::string("no step coupling exists under real concurrency; KS "
                  "distance and mean ranks should agree at the "
                  "sampling-noise level per thread count; ") +
          kConcurrentUngated);
  table_printer concurrent_table(
      {"threads", "case", "ks", "mean_real", "mean_sim", "failed"});
  // ks[c][i], mean_real[c][i], mean_sim[c][i]: kCouplingCases[c] at
  // thread_counts[i].
  std::vector<std::vector<double>> ks(std::size(kCouplingCases)),
      mean_real(std::size(kCouplingCases)),
      mean_sim(std::size(kCouplingCases));
  for (const std::size_t t : thread_counts) {
    for (std::size_t c = 0; c < std::size(kCouplingCases); ++c) {
      const auto res = run_coupling(kCouplingCases[c], t, kCouplingSeed + t);
      ks[c].push_back(res.dist.ks_statistic);
      mean_real[c].push_back(res.dist.mean_real);
      mean_sim[c].push_back(res.dist.mean_sim);
      concurrent_table.row({static_cast<double>(t), static_cast<double>(c),
                            res.dist.ks_statistic, res.dist.mean_real,
                            res.dist.mean_sim,
                            static_cast<double>(res.failed_pops)});
    }
  }

  print_header(
      "RANK-COST: rank of each entry taken by try_pop_batch(K)",
      "one handle, default 8-slot queue, hold model with increasing "
      "labels; Fenwick oracle at delivery");
  std::printf("prefill=%zu deliveries=%zu\n", kRankPrefill, kRankDeliveries);
  const rank_cost scalar = measure_rank_cost(0, false);
  // Per K: replacements pushed per entry, then with one push_batch.
  std::vector<rank_cost> per_entry, batch_publish;
  table_printer cost_table({"K", "mean_rank", "max_rank",
                            "batch_publish_mean", "batch_publish_max"});
  for (const std::size_t k : kRankBatches) {
    per_entry.push_back(measure_rank_cost(k, false));
    batch_publish.push_back(measure_rank_cost(k, true));
    cost_table.row({static_cast<double>(k), per_entry.back().mean,
                    static_cast<double>(per_entry.back().max),
                    batch_publish.back().mean,
                    static_cast<double>(batch_publish.back().max)});
  }
  const auto same = [](const rank_cost& a, const rank_cost& b) {
    return a.mean == b.mean && a.max == b.max && a.key_sum == b.key_sum;
  };
  const bool k1_is_scalar =
      same(per_entry[0], scalar) && same(batch_publish[0], scalar);
  std::printf("K=1 (both publishes) equals scalar try_pop (mean %.4f, "
              "max %llu): %s\n",
              scalar.mean, static_cast<unsigned long long>(scalar.max),
              k1_is_scalar ? "yes" : "NO");

  const std::string json_path = json_artifact_path("BENCH_rank.json");
  json_writer json(json_path);
  json.begin_object()
      .kv("bench", "rank")
      .kv("unit", "mops_per_sec")
      .kv("full_scale", full_scale())
      .kv("ungated", kUngated);
  json.key("one_thread").begin_object()
      .kv("prefill", kPrefill)
      .kv("pairs_per_thread", kPairs);
  json.key("rows").begin_array();
  for (const series& s : all) {
    json.begin_object().kv("name", s.name);
    for (const auto& [key, field] : kFields) {
      if (field != &rank_row::mops) json.kv(key, s.rows.front().*field);
    }
    json.end_object();
  }
  json.end_array().end_object();
  json.key("sequential").begin_object()
      .kv("prefill", kCouplingPrefill)
      .kv("pairs", kCouplingPairs);
  json.key("rows").begin_array();
  for (std::size_t c = 0; c < std::size(kCouplingCases); ++c) {
    const coupling_row& r = coupling_rows[c];
    json.begin_object()
        .kv("name", kCouplingCases[c].name)
        .kv("n", kCouplingCases[c].num_queues)
        .kv("beta", kCouplingCases[c].beta)
        .kv("d", kCouplingCases[c].choices)
        .kv("removals", r.removals)
        .kv("match", r.match)
        .kv("mean_rank", r.mean_rank)
        .kv("max_rank", r.max_rank)
        .end_object();
  }
  json.end_array().end_object();
  json.key("rank_cost").begin_object()
      .kv("queues", kRankThreads * mq_config{}.queue_factor)
      .kv("prefill", kRankPrefill)
      .kv("deliveries", kRankDeliveries)
      .kv("scalar_mean_rank", scalar.mean)
      .kv("scalar_max_rank", scalar.max);
  json.key("rows").begin_array();
  for (std::size_t i = 0; i < std::size(kRankBatches); ++i) {
    for (const auto& [publish, cost] :
         {std::make_pair("per_entry", per_entry[i]),
          std::make_pair("batch", batch_publish[i])}) {
      json.begin_object()
          .kv("k", kRankBatches[i])
          .kv("publish", publish)
          .kv("mean_rank", cost.mean)
          .kv("max_rank", cost.max)
          .end_object();
    }
  }
  json.end_array().end_object();
  // Ungated: KS and ranks per case, one entry per "threads" entry.
  json.key("concurrent").begin_object().kv("ungated", kConcurrentUngated);
  json.key("rows").begin_array();
  for (std::size_t c = 0; c < std::size(kCouplingCases); ++c) {
    json.begin_object().kv("name", kCouplingCases[c].name);
    for (const auto& [key, values] :
         {std::make_pair("ks", &ks[c]),
          std::make_pair("mean_real", &mean_real[c]),
          std::make_pair("mean_sim", &mean_sim[c])}) {
      json.key(key).begin_array();
      for (const double v : *values) json.value(v);
      json.end_array();
    }
    json.end_object();
  }
  json.end_array().end_object();
  json.key("threads").begin_array();
  for (const std::size_t t : thread_counts) json.value(t);
  json.end_array();
  json.key("series").begin_array();
  for (const series& s : all) {
    json.begin_object()
        .kv("name", s.name)
        .kv("sweep", s.sweep)
        .kv("value", s.value);
    for (const auto& [key, field] : kFields) {
      json.key(key).begin_array();
      for (const rank_row& r : s.rows) json.value(r.*field);
      json.end_array();
    }
    json.end_object();
  }
  json.end_array().end_object();
  std::printf("\n%s %s\n", json.ok() ? "wrote" : "FAILED to write",
              json_path.c_str());

  if (!all_match) {
    std::printf("FAIL: a sequential coupling cell diverged — the "
                "implementation drifted from the analyzed process.\n");
  }
  if (!k1_is_scalar) {
    std::printf("FAIL: a K = 1 rank_cost row differs from scalar "
                "try_pop.\n");
  }
  return all_match && k1_is_scalar ? 0 : 1;
}
