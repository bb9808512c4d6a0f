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

#include <algorithm>
#include <cstdio>
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
  return 0;
}
