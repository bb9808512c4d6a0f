// MICRO — single-threaded microbenchmarks of the sequential heaps plus
// the scalar utility costs every hot-path operation pays (RNG draws,
// alias sampling, Fenwick updates, uncontended spinlock acquisition).
// The buffered16 series is the heap every MultiQueue slot holds
// (buffered_heap<16>, buffers over sorted runs); the d-ary heaps
// (dary4 is coarse_pq's heap and the CI gate's anchor) and
// std::priority_queue are the plain array heaps it is measured against.
// The utility table documents what a d-choice probe costs before it ever
// touches a heap; its six operations are one cell, rotating like the
// heaps.
//
// Substrate table: hold-model pairs at fixed heap depth — the regime a
// MultiQueue slot actually lives in (its depth hovers around
// total/(2*threads) while pairs stream through). Each pair pops the
// minimum and pushes it back at key + 1 + bounded(2^30), over a prefill
// of bounded(2^30) keys: the loop benchmark/'s heap.pair_ns times, so a
// pushed key lands anywhere in the heap, not always at its front. Depth
// sweeps 2^8..2^20; the JSON "threads" axis carries the log2 depth
// exponents (the schema's generic strictly-increasing x-axis), one
// series per substrate plus std::priority_queue as the STL reference.
// Each depth is one cell of benchlib's measure_cell (a warm-up round,
// then the timed rounds that rotate through the series, medians). Each
// structure is prefilled once and reused across the cell's trials:
// steady state is the point, not construction. A trial first runs a
// quarter-trial of untimed pairs, since the previous series' trial
// evicted the structure from cache.
//
// Expected shape: the array heaps (dary*, std_pq) sit within a few tens
// of percent of each other at every depth and trade places from run to
// run; cost per pair grows with depth as the comparison tree leaves L1,
// then L2. buffered16 leads them all, by 1.4-1.7x dary4 up to 2^16 and
// 3-4x at 2^20: a refill reads its sorted runs in order where a heap pop
// walks a root-to-leaf path.
//
// Sized-prefill row: one hold_deep slot's share of a deep prefill —
// reserve(2^18) on a fresh buffered16, then 2^18 pushes of bounded(2^30)
// keys — as ns per entry, with the process's minor page faults across
// the same span (getrusage). It runs before the table as one cell of two
// series, the time and then the fault count of the same trial, and every
// trial's heap lives until the last trial ends, so each trial reserves
// memory no earlier trial touched, as each slot of a new queue does.
// Nearly every push lands in the insertion buffer, so the row times the
// flush: the sorting network and the first writes into the arena. It is
// written to BENCH_micro.json as the top-level "sized_prefill" object,
// outside the gated series.
//
// Emits BENCH_micro.json (gated in CI against a committed baseline).

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "benchlib/bench_env.hpp"
#include "benchlib/json_writer.hpp"
#include "benchlib/table_printer.hpp"
#include "heap/buffered_heap.hpp"
#include "heap/dary_heap.hpp"
#include "util/discrete_distribution.hpp"
#include "util/fenwick.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"
#include "util/timer.hpp"

namespace {

using namespace pcq;
using namespace pcq::bench;

using u64 = std::uint64_t;

template <typename Selector>
using sub_t = heap_substrate_t<Selector, u64, u64, std::less<u64>>;

/// std::priority_queue behind the substrate surface the driver uses, so
/// the STL reference point runs the identical measurement loop.
struct std_pq_adapter {
  using entry = std::pair<u64, u64>;
  void push(u64 key, u64 value) { q.emplace(key, value); }
  entry pop() {
    entry e = q.top();
    q.pop();
    return e;
  }
  std::priority_queue<entry, std::vector<entry>, std::greater<entry>> q;
};

/// Fold pops into a checksum the compiler cannot see through (printed at
/// the end), so neither the push nor the pop loop is dead code.
u64 g_sink = 0;

/// One (substrate, depth) cell. The structure is prefilled once; every
/// trial runs hold-model pairs against the same warm structure.
struct pair_cell {
  virtual ~pair_cell() = default;
  /// Mops/s of `iters` timed pairs (each pair counts as 2 ops, matching
  /// the queue-level benches' accounting).
  virtual double trial(std::size_t iters) = 0;
};

template <typename Heap>
struct hold_cell final : pair_cell {
  explicit hold_cell(std::size_t depth) {
    for (std::size_t i = 0; i < depth; ++i) {
      heap.push(rng.bounded(1u << 30), i);
    }
  }

  double trial(std::size_t iters) override {
    // Untimed pairs first: the previous series' trial evicted this
    // structure from cache.
    pairs(iters / 4);
    wall_timer timer;
    pairs(iters);
    return static_cast<double>(2 * iters) / timer.elapsed_seconds() / 1e6;
  }

  void pairs(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const u64 key = heap.pop().first;
      g_sink += key;
      heap.push(key + 1 + rng.bounded(1u << 30), i);
    }
  }

  Heap heap;
  xoshiro256ss rng{0x515u};
};

template <typename Heap>
std::unique_ptr<pair_cell> make_cell(std::size_t depth) {
  return std::make_unique<hold_cell<Heap>>(depth);
}

long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

/// reserve(n) plus n pushes of bounded(2^30) keys into a fresh
/// buffered16, per trial: {ns per entry, minor faults}, medians.
std::vector<double> sized_prefill(std::size_t n) {
  using heap_t = sub_t<buffered_heap<16>>;
  xoshiro256ss rng(0x5f1u);
  std::vector<u64> keys(n);
  for (u64& k : keys) k = rng.bounded(1u << 30);
  std::vector<std::unique_ptr<heap_t>> heaps;  // kept until the last trial
  double faults = 0;  // series 1 reads the count of series 0's trial
  return measure_cell(2, [&](std::size_t s, unsigned) {
    if (s == 1) return faults;
    heaps.push_back(std::make_unique<heap_t>());
    heap_t& heap = *heaps.back();
    const long faults_before = minor_faults();
    wall_timer timer;
    heap.reserve(n);
    for (std::size_t i = 0; i < n; ++i) heap.push(keys[i], i);
    const double ns = timer.elapsed_seconds() / static_cast<double>(n) * 1e9;
    faults = static_cast<double>(minor_faults() - faults_before);
    g_sink += heap.top_key();
    return ns;
  });
}

/// ns per call of `body` over `iters` calls: one trial of a utility op.
template <typename Body>
double ns_per_call(std::size_t iters, Body&& body) {
  wall_timer timer;
  for (std::size_t i = 0; i < iters; ++i) body();
  return timer.elapsed_seconds() / static_cast<double>(iters) * 1e9;
}

struct series_def {
  const char* name;
  std::unique_ptr<pair_cell> (*make)(std::size_t depth);
};

const series_def kSeries[] = {
    {"dary2", &make_cell<sub_t<dary_heap<2>>>},
    {"dary4", &make_cell<sub_t<dary_heap<4>>>},
    {"buffered16", &make_cell<sub_t<buffered_heap<16>>>},
    {"dary8", &make_cell<sub_t<dary_heap<8>>>},
    {"std_pq", &make_cell<std_pq_adapter>},
};

}  // namespace

int main() {
  // log2 heap depths; the smoke set keeps CI runs in seconds while still
  // reaching the cache-pressure regime (2^20 entries = 16 MiB of 16-byte
  // entries, far past L2).
  const std::vector<int> exponents = full_scale()
                                         ? std::vector<int>{8, 10, 12, 14,
                                                            16, 18, 20}
                                         : std::vector<int>{8, 12, 16, 20};
  const std::size_t iters = scaled<std::size_t>(1u << 15, 1u << 18);

  const std::size_t prefill_entries = std::size_t{1} << 18;
  const std::vector<double> prefill = sized_prefill(prefill_entries);
  print_header("MICRO sized prefill: buffered16, reserve + pushes",
               "one hold_deep slot's share; minor faults over the same span");
  table_printer prefill_table({"entries", "ns_per_entry", "minor_faults"});
  prefill_table.row(static_cast<double>(prefill_entries), prefill);

  print_header(
      "MICRO substrates: hold-model pop+push pairs at fixed depth "
      "(Mops/s, higher is better)",
      "one sequential structure per cell, prefilled once; depth = the "
      "regime a MultiQueue slot lives in");
  std::printf("iters/trial=%zu (PCQ_BENCH_FULL=%d)\n", iters,
              full_scale() ? 1 : 0);

  std::vector<std::string> columns{"log2_depth"};
  for (const auto& s : kSeries) columns.emplace_back(s.name);
  table_printer table(columns);

  // results[d][s] = Mops/s for kSeries[s] at exponents[d].
  std::vector<std::vector<double>> results;
  for (const int e : exponents) {
    const std::size_t depth = std::size_t{1} << e;
    std::vector<std::unique_ptr<pair_cell>> cells;
    for (const auto& s : kSeries) cells.push_back(s.make(depth));
    results.push_back(measure_cell(cells.size(), [&](std::size_t s,
                                                     unsigned) {
      return cells[s]->trial(iters);
    }));
    table.row(static_cast<double>(e), results.back());
  }

  // Scalar utility costs: what every d-choice probe / sticky decision /
  // timed-extension tick pays before touching a heap.
  const std::size_t micro_iters = scaled<std::size_t>(1u << 20, 1u << 23);
  xoshiro256ss rng(0x7u);
  std::vector<double> weights(64);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1.0 + static_cast<double>(i % 7);
  }
  alias_table alias(weights);
  const std::size_t fenwick_m = scaled<std::size_t>(1u << 16, 1u << 20);
  rank_oracle oracle(fenwick_m);
  for (std::size_t i = 0; i < fenwick_m; i += 2) oracle.insert(i);
  spinlock lock;
  // ns[op]: rng_next, rng_bounded, rng_exp, alias_sample,
  // fenwick_toggle, spinlock.
  const std::vector<double> ns = measure_cell(6, [&](std::size_t op,
                                                     unsigned) {
    switch (op) {
      case 0:
        return ns_per_call(micro_iters, [&] { g_sink += rng(); });
      case 1:
        return ns_per_call(micro_iters,
                           [&] { g_sink += rng.bounded(12345); });
      case 2:
        return ns_per_call(micro_iters, [&] {
          g_sink += static_cast<u64>(rng.exponential(64.0) * 1e3);
        });
      case 3:
        return ns_per_call(micro_iters,
                           [&] { g_sink += alias.sample(rng); });
      case 4:
        return ns_per_call(micro_iters / 4, [&] {
          const std::size_t label = 2 * rng.bounded(fenwick_m / 2);
          if (oracle.contains(label)) {
            g_sink += oracle.remove(label);
          } else {
            oracle.insert(label);
          }
        });
      default:
        return ns_per_call(micro_iters, [&] {
          lock.lock();
          ++g_sink;
          lock.unlock();
        });
    }
  });

  print_header("MICRO utility ops (ns/op, lower is better)",
               "the scalar costs layered onto every queue operation");
  table_printer micro_table({"rng_next", "rng_bounded", "rng_exp",
                             "alias_sample", "fenwick_toggle", "spinlock"});
  micro_table.row(ns);

  const std::string json_path = json_artifact_path("BENCH_micro.json");
  json_writer json(json_path);
  json.begin_object()
      .kv("bench", "micro_substrates")
      .kv("unit", "mops_per_sec")
      .kv("full_scale", full_scale())
      .kv("x_axis", "log2_heap_depth")
      .kv("iters_per_trial", iters)
      .kv("trials", static_cast<std::size_t>(trials()))
      .kv("ns_rng_next", ns[0])
      .kv("ns_rng_bounded", ns[1])
      .kv("ns_rng_exponential", ns[2])
      .kv("ns_alias_sample", ns[3])
      .kv("ns_fenwick_toggle", ns[4])
      .kv("ns_spinlock_uncontended", ns[5]);
  json.key("sized_prefill").begin_object()
      .kv("ungated", "median over the trials of one fresh buffered16 each")
      .kv("heap", "buffered16")
      .kv("entries", prefill_entries)
      .kv("ns_per_entry", prefill[0])
      .kv("minor_faults", prefill[1])
      .end_object();
  json.key("threads").begin_array();
  for (const int e : exponents) json.value(static_cast<unsigned>(e));
  json.end_array();
  json.key("series").begin_array();
  for (std::size_t s = 0; s < std::size(kSeries); ++s) {
    json.begin_object().kv("name", kSeries[s].name);
    json.key("mops").begin_array();
    for (const std::vector<double>& cell : results) json.value(cell[s]);
    json.end_array().end_object();
  }
  json.end_array().end_object();
  std::printf("\n%s %s (checksum %llx)\n",
              json.ok() ? "wrote" : "FAILED to write", json_path.c_str(),
              static_cast<unsigned long long>(g_sink));

  std::printf(
      "expected shape: the heaps within a few tens of percent of each "
      "other at every\ndepth, order changing from run to run; cost per pair "
      "grows with depth;\nbuffered16 ahead of them all, most at 2^20.\n");
  return 0;
}
