// pcq_benchmark — the repository benchmark: four workloads that use the
// MultiQueue the way a scheduler's users do, each checked by an oracle,
// reporting end-to-end metrics (untraced) or per-layer metrics (traced).
//
//   pcq_benchmark --workload <name|all> --seed S [--seconds T]
//                 [--out results.json] [--trace trace.json] [--smoke]
//
// Workloads (README.md gives the reasons and the metric tables):
//   hold_deep      closed loop, 4 threads, hold-model push/pop on a deep queue
//   sssp_road      parallel_sssp on a generated road grid, checked by dijkstra
//   dag_wide       run_dag_executor on a random DAG, checked by the sequential oracle
//   rpc_open_loop  realtime open-loop service (MultiQueue-EDF) + a virtual-time pass
//
// With --trace, trials alternate untraced and traced; the traced ones run
// through probe_queue / probe_dispatcher (probe.hpp) and give the
// per-layer metrics, and the pair gives the tracing overhead.
//
// Exit codes: 0 ok, 1 an oracle or conservation check failed, 2 bad
// arguments, 3 a workload overran its watchdog, 4 oversubscribed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "benchlib/json_writer.hpp"
#include "core/multi_queue.hpp"
#include "core/rank_recorder.hpp"
#include "exec/dag_workloads.hpp"
#include "graph/dijkstra.hpp"
#include "graph/generators.hpp"
#include "graph/parallel_sssp.hpp"
#include "heap/dary_heap.hpp"
#include "probe.hpp"
#include "service/dispatch.hpp"
#include "service/server.hpp"
#include "service/workload.hpp"
#include "sim/graph_process.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

#ifndef PCQ_BENCH_FLAGS
#define PCQ_BENCH_FLAGS "unknown"
#endif

namespace {

using pcqbench::log_histogram;
using pcqbench::now_ns;
using pcqbench::probe;
using pcqbench::probe_queue;
using u64 = std::uint64_t;
using mq = pcq::multi_queue<u64, u64>;
using entry = mq::entry;

/// Threads every workload uses; the run refuses to report gated numbers
/// when the machine has fewer hardware threads (oversubscription turns
/// queue costs into OS scheduling noise).
constexpr std::size_t kThreads = 4;
constexpr std::size_t kRpcWorkers = kThreads - 1;  // + the arrival thread

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

/// end_to_end: gated by BENCHMARK.json, present on every workload.
/// workload: the workload's own named metrics. compare.py compares those
/// with a direction; the ones that restate latency_us in another unit
/// (ops_mps, solve_s, tasks_mps, sojourn_p50_us.rho80) have none, so each
/// measured quantity has one bound.
/// layer: the per-layer metrics BENCHMARK.json lists, on every workload.
/// layer_detail: layer metrics only one workload has.
enum class kind { end_to_end, workload, layer, layer_detail };

struct metric {
  std::string name;
  double value;
  std::string unit;
  const char* better;  ///< "lower", "higher", or "" (not compared)
  double bound;        ///< relative regression bound; < 0 when none
  bool exact;          ///< deterministic given the seed
  kind k;
};

struct workload_result {
  std::string name;
  u64 attempted = 0;
  u64 failed = 0;
  double elapsed_s = 0.0;
  std::vector<metric> metrics;
  std::vector<std::string> errors;

  void add(kind k, const std::string& n, double v, const char* unit,
           const char* better = "", double bound = -1.0, bool exact = false) {
    metrics.push_back(metric{n, v, unit, better, bound, exact, k});
  }
  void fail(const std::string& why) {
    ++failed;
    errors.push_back(why);
    std::fprintf(stderr, "FAILED %s: %s\n", name.c_str(), why.c_str());
  }
};

struct context {
  u64 seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool smoke = false;
  probe* recorder = nullptr;

  /// With tracing on, odd trials run through the probes.
  bool traced_trial(std::size_t i) const { return traced && i % 2 == 1; }
  u64 stream(u64 index) const { return pcq::derive_seed(seed, index); }
};

/// Consumes a result so the timed loop that made it is not optimized away.
std::atomic<u64> g_sink{0};
void keep(u64 x) { g_sink.fetch_add(x, std::memory_order_relaxed); }

double median(const std::vector<double>& v) { return pcq::percentile(v, 0.5); }

double since_s(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

pcq::mq_config queue_config(const context& ctx, std::size_t capacity) {
  pcq::mq_config cfg;
  cfg.seed = ctx.stream(0x6d71);
  cfg.expected_capacity = capacity;
  return cfg;
}

/// Per-layer totals over a workload's traced trials.
struct layer_totals {
  log_histogram push, pop, pop_empty, dispatch, fetch, fetch_empty, pickup,
      gen_lag;
  double busy_ns = 0.0;    ///< worker threads' time inside queue calls
  double worker_ns = 0.0;  ///< worker threads' wall time in the same phases
  double items = 0.0;      ///< units of work the phases completed
  double payload_ns = 0.0; ///< time the workload's own payload took
  double calls = 0.0, pops = 0.0, pop_fails = 0.0;
  double size_sum = 0.0, size_samples = 0.0;
  std::vector<double> traced_latency, untraced_latency;

  /// Folds the recorder's per-thread stats for one traced trial in and
  /// clears them. Slots below `workers` are the threads that pop.
  void absorb(probe& p, std::size_t workers, double wall_s, double done,
              double payload) {
    for (std::size_t t = 0; t < p.slots(); ++t) {
      pcqbench::thread_stats& s = p.slot(t);
      push.merge(s.push);
      pop.merge(s.pop);
      pop_empty.merge(s.pop_empty);
      dispatch.merge(s.dispatch);
      fetch.merge(s.fetch);
      fetch_empty.merge(s.fetch_empty);
      pickup.merge(s.pickup);
      gen_lag.merge(s.gen_lag);
      if (t < workers) busy_ns += static_cast<double>(s.busy_ns);
      calls += static_cast<double>(s.calls);
      pops += static_cast<double>(s.pops);
      pop_fails += static_cast<double>(s.pop_fails);
      size_sum += s.size_sum;
      size_samples += static_cast<double>(s.size_samples);
    }
    worker_ns += static_cast<double>(workers) * wall_s * 1e9;
    items += done;
    payload_ns += payload;
    p.reset_stats();
  }
};

/// Push+pop pair on the default slot substrate, timed directly at `depth`
/// with hold-model keys: the heap layer's cost in isolation.
double heap_pair_ns(double depth, u64 seed) {
  using heap = pcq::heap_substrate_t<pcq::dary_heap<4>, u64, u64, std::less<u64>>;
  const auto n = static_cast<std::size_t>(std::max(1.0, depth + 0.5));
  pcq::xoshiro256ss rng(seed);
  heap h;
  h.reserve(n);
  for (std::size_t i = 0; i < n; ++i) h.push(rng.bounded(1u << 30), i);
  std::vector<double> per_pair;
  u64 sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = now_ns();
    u64 pairs = 0;
    while (now_ns() - t0 < 20'000'000) {
      for (int i = 0; i < 1024; ++i) {
        const entry e = h.pop();
        sink += e.second;
        h.push(e.first + 1 + rng.bounded(1u << 30), e.second);
      }
      pairs += 1024;
    }
    per_pair.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(pairs));
  }
  keep(sink);
  return median(per_pair);
}

/// The per-layer metrics every workload reports (BENCHMARK.json
/// per_layer), from its traced trials.
void add_layer_metrics(workload_result& r, const layer_totals& t,
                       std::size_t num_queues, u64 seed) {
  const double depth =
      t.size_samples > 0 ? t.size_sum / t.size_samples / num_queues : 0.0;
  const double items = std::max(1.0, t.items);
  r.add(kind::layer, "heap.pair_ns", heap_pair_ns(depth, seed), "ns");
  r.add(kind::layer, "core.push_ns.p50", t.push.quantile(0.50), "ns");
  r.add(kind::layer, "core.push_ns.p99", t.push.quantile(0.99), "ns");
  r.add(kind::layer, "core.pop_ns.p50", t.pop.quantile(0.50), "ns");
  r.add(kind::layer, "core.pop_ns.p99", t.pop.quantile(0.99), "ns");
  r.add(kind::layer, "core.pop_empty_ns.p50", t.pop_empty.quantile(0.50), "ns");
  r.add(kind::layer, "core.pop_fail_frac",
        t.pops > 0 ? t.pop_fails / t.pops : 0.0, "fraction");
  r.add(kind::layer, "core.busy_frac",
        t.worker_ns > 0 ? t.busy_ns / t.worker_ns : 0.0, "fraction");
  r.add(kind::layer, "core.slot_depth", depth, "count");
  r.add(kind::layer, "core.calls_per_item", t.calls / items, "count");
  r.add(kind::layer, "app.self_ns_per_item",
        (t.worker_ns - t.busy_ns - t.payload_ns) / items, "ns");
  const double untraced = median(t.untraced_latency);
  r.add(kind::layer, "trace.overhead_frac",
        untraced > 0 ? median(t.traced_latency) / untraced - 1.0 : 0.0,
        "fraction");
}

/// Runs fn(view) with view = the queue itself, or a probe_queue around it
/// for a traced trial.
template <typename Queue, typename Fn>
void with_view(const context& ctx, bool traced, Queue& queue, Fn&& fn) {
  if (traced) {
    probe_queue<Queue> view(queue, *ctx.recorder);
    fn(view);
  } else {
    fn(queue);
  }
}

// ---------------------------------------------------------------------
// hold_deep: closed loop on a queue that is never empty
// ---------------------------------------------------------------------

constexpr u64 kHoldSpan = u64{1} << 30;  // initial keys and increments

struct hold_sizes {
  std::size_t prefill;
  double warmup_s, window_s;
  std::size_t windows;
  std::size_t rank_prefill, rank_pairs;
};

hold_sizes hold_sizes_for(const context& ctx) {
  if (ctx.smoke) return {1u << 12, 0.02, 0.05, 2, 1u << 10, 1u << 12};
  const std::size_t windows = ctx.traced ? 4 : 3;
  return {std::size_t{1} << 21, 0.1 * ctx.seconds,
          0.9 * ctx.seconds / static_cast<double>(windows), windows,
          std::size_t{1} << 16, std::size_t{1} << 19};
}

struct alignas(64) hold_thread {
  u64 ops = 0, fails = 0, pushed = 0, popped = 0;
  bool lost = false, duplicate = false;
};

struct hold_outcome {
  double wall_s = 0, drain_s = 0;
  u64 ops = 0, fails = 0;
  std::string error;  ///< empty when conservation held
};

/// Timed hold window then a parallel drain that checks conservation: every
/// value 0..P-1 comes out exactly once, and the key sum balances.
template <typename View>
hold_outcome hold_window(View& view, std::size_t prefill, u64 prefill_key_sum,
                         double window_s, u64 seed) {
  hold_outcome out;
  std::vector<hold_thread> per(kThreads);
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false}, stop{false};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      auto h = view.get_handle(t);
      pcq::xoshiro256ss rng(pcq::derive_seed(seed, 100 + t));
      hold_thread mine;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) pcq::cpu_relax();
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 256; ++i) {
          u64 k = 0, v = 0;
          if (!h.try_pop(k, v)) {
            ++mine.fails;
            continue;
          }
          const u64 next = k + 1 + rng.bounded(kHoldSpan);
          h.push(next, v);
          mine.popped += k;
          mine.pushed += next;
          mine.ops += 2;
        }
      }
      per[t] = mine;
    });
  }
  while (ready.load() < kThreads) pcq::cpu_relax();
  const std::int64_t t0 = now_ns();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(window_s));
  stop.store(true);
  for (auto& th : pool) th.join();
  out.wall_s = since_s(t0);

  u64 balance = prefill_key_sum;
  for (const hold_thread& p : per) {
    out.ops += p.ops;
    out.fails += p.fails;
    balance += p.pushed - p.popped;
  }

  std::unique_ptr<std::atomic<std::uint8_t>[]> seen(
      new std::atomic<std::uint8_t>[prefill]);
  for (std::size_t i = 0; i < prefill; ++i) seen[i].store(0);
  std::atomic<std::int64_t> remaining{static_cast<std::int64_t>(prefill)};
  std::vector<hold_thread> drained(kThreads);
  const std::int64_t d0 = now_ns();
  pool.clear();
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      auto h = view.get_handle(t);
      hold_thread mine;
      std::int64_t idle_since = 0;
      while (true) {
        u64 k = 0, v = 0;
        if (h.try_pop(k, v)) {
          idle_since = 0;
          mine.popped += k;
          if (v >= prefill || seen[v].exchange(1) != 0) mine.duplicate = true;
          remaining.fetch_sub(1, std::memory_order_acq_rel);
        } else if (remaining.load(std::memory_order_acquire) <= 0) {
          break;
        } else if (idle_since == 0) {
          idle_since = now_ns();
        } else if (now_ns() - idle_since > 2'000'000'000) {
          mine.lost = true;  // elements owed but none poppable for 2 s
          break;
        }
      }
      drained[t] = mine;
    });
  }
  for (auto& th : pool) th.join();
  out.drain_s = since_s(d0);

  bool lost = remaining.load() != 0, duplicate = false;
  for (const hold_thread& d : drained) {
    balance -= d.popped;
    lost = lost || d.lost;
    duplicate = duplicate || d.duplicate;
  }
  if (lost) out.error = "drain lost elements";
  else if (duplicate) out.error = "drain returned a value twice or out of range";
  else if (balance != 0) out.error = "key sum does not balance";
  return out;
}

/// Mean rank of one handle driving the 8-slot queue with increasing
/// labels, replayed exactly through the Fenwick oracle. Deterministic.
double hold_rank_mean(const context& ctx, const hold_sizes& z,
                      workload_result& r) {
  mq queue(queue_config(ctx, z.rank_prefill), kThreads);
  pcq::rank_recorder rec(1);
  rec.reserve(z.rank_prefill + 2 * z.rank_pairs);
  auto h = queue.get_handle(0);
  u64 label = 0;
  for (std::size_t i = 0; i < z.rank_prefill; ++i, ++label) {
    rec.record(0, pcq::event_kind::insert, h.push_timed(label, label), label);
  }
  for (std::size_t i = 0; i < z.rank_pairs; ++i, ++label) {
    u64 k = 0, v = 0, ts = 0;
    if (!h.try_pop_timed(k, v, ts)) {
      r.fail("sequential rank pass: pop failed on a non-empty queue");
      return 0.0;
    }
    rec.record(0, pcq::event_kind::remove, ts, k);
    rec.record(0, pcq::event_kind::insert, h.push_timed(label, label), label);
  }
  const pcq::replay_report rep = pcq::replay_ranks(rec.logs());
  if (rep.unmatched != 0) r.fail("rank replay found unmatched removes");
  return rep.rank_stats.mean();
}

void run_hold_deep(const context& ctx, workload_result& r) {
  const hold_sizes z = hold_sizes_for(ctx);
  std::vector<double> setup, mops, latency;
  layer_totals layers;
  for (std::size_t w = 0; w <= z.windows; ++w) {  // window 0 is warm-up
    const bool warm = w == 0;
    const bool traced = !warm && ctx.traced_trial(w - 1);
    const std::size_t trial = ctx.recorder ? ctx.recorder->open("trial") : 0;

    const std::int64_t s0 = now_ns();
    pcq::xoshiro256ss rng(ctx.stream(1));
    std::vector<entry> items(z.prefill);
    u64 key_sum = 0;
    for (std::size_t i = 0; i < z.prefill; ++i) {
      items[i] = entry(rng.bounded(kHoldSpan), i);
      key_sum += items[i].first;
    }
    mq queue(queue_config(ctx, z.prefill), kThreads);
    {
      auto h = queue.get_handle(0);
      for (std::size_t i = 0; i < z.prefill; i += 4096) {
        h.push_batch(items.data() + i, std::min<std::size_t>(4096, z.prefill - i));
      }
    }
    setup.push_back(since_s(s0));
    std::vector<entry>().swap(items);

    hold_outcome o;
    with_view(ctx, traced, queue, [&](auto& view) {
      o = hold_window(view, z.prefill, key_sum, warm ? z.warmup_s : z.window_s,
                      ctx.stream(2 + w));
    });
    if (ctx.recorder) ctx.recorder->close(trial);
    if (!o.error.empty()) r.fail(o.error);
    if (warm) continue;
    r.attempted += o.ops / 2 + o.fails;
    if (o.fails != 0) {
      r.failed += o.fails;
      r.errors.push_back("pops failed on the never-empty queue");
    }
    const double lat_us =
        kThreads * o.wall_s / static_cast<double>(std::max<u64>(o.ops, 1)) * 1e6;
    if (traced) {
      layers.traced_latency.push_back(lat_us);
      layers.absorb(*ctx.recorder, kThreads, o.wall_s + o.drain_s,
                    static_cast<double>(o.ops + z.prefill), 0.0);
    } else {
      if (ctx.traced) layers.untraced_latency.push_back(lat_us);
      mops.push_back(static_cast<double>(o.ops) / o.wall_s / 1e6);
      latency.push_back(lat_us);
    }
  }
  const double rank = hold_rank_mean(ctx, z, r);

  r.add(kind::end_to_end, "setup_s", median(setup), "s");
  r.add(kind::end_to_end, "latency_us", median(latency), "us");
  r.add(kind::workload, "ops_mps", median(mops), "Mops/s");
  r.add(kind::workload, "rank_mean", rank, "rank", "lower", 0.0, true);
  if (ctx.traced) add_layer_metrics(r, layers, 2 * kThreads, ctx.stream(9));
}

// ---------------------------------------------------------------------
// sssp_road and dag_wide: batch jobs repeated as trials
// ---------------------------------------------------------------------

/// Times one call of `make`. A workload's set-up time is the median of
/// several such calls spread through the run, before and between the
/// trials: on a shared machine a single-threaded set-up runs up to 1.5x
/// slower for stretches of a few hundred ms, and back-to-back repeats
/// would all land in the same stretch.
template <typename Make>
auto time_setup(std::vector<double>& setup, Make make) {
  const std::int64_t t0 = now_ns();
  auto product = make();
  setup.push_back(since_s(t0));
  return product;
}

/// Trials until the measured time reaches `seconds` (at least 3, at most
/// 40) after one warm-up; with tracing, at least 4 so both kinds repeat.
template <typename Trial>
void repeat_trials(const context& ctx, Trial trial) {
  const std::size_t min_trials = ctx.traced ? 4 : 3;
  trial(std::size_t{0}, true, false);
  const std::int64_t m0 = now_ns();
  for (std::size_t i = 0; i < 40; ++i) {
    if (i >= min_trials && since_s(m0) >= ctx.seconds) break;
    trial(i, false, ctx.traced_trial(i));
  }
}

std::size_t reachable(const std::vector<u64>& dist) {
  return static_cast<std::size_t>(std::count_if(
      dist.begin(), dist.end(), [](u64 d) { return d != pcq::graph::kUnreachable; }));
}

void run_sssp_road(const context& ctx, workload_result& r) {
  const std::uint32_t side = ctx.smoke ? 64 : 1024;
  std::vector<double> setup;
  const auto make_graph = [&] {
    pcq::graph::road_network_params p;
    p.width = p.height = side;
    p.seed = ctx.stream(1);
    return pcq::graph::make_road_network(p);
  };
  time_setup(setup, make_graph);
  const auto g = time_setup(setup, make_graph);
  const std::vector<u64> oracle = pcq::graph::dijkstra(g, 0).distance;
  const auto settled = static_cast<double>(reachable(oracle));

  std::vector<double> solve;
  layer_totals layers;
  double relax = 0, stale = 0, pops = 0;
  repeat_trials(ctx, [&](std::size_t i, bool warm, bool traced) {
    if (!warm && i % 3 == 0) time_setup(setup, make_graph);
    const std::size_t trial = ctx.recorder ? ctx.recorder->open("trial") : 0;
    mq queue(queue_config(ctx, 0), kThreads);
    pcq::graph::sssp_result res;
    with_view(ctx, traced, queue, [&](auto& view) {
      res = pcq::graph::parallel_sssp(g, 0, kThreads, view);
    });
    if (ctx.recorder) ctx.recorder->close(trial);
    if (warm) return;
    ++r.attempted;
    if (res.distance != oracle) {
      r.fail("parallel_sssp distances differ from dijkstra");
      return;
    }
    if (traced) {
      layers.traced_latency.push_back(res.seconds * 1e6);
      // Every push is popped once: the seed plus one per relaxation.
      relax += static_cast<double>(res.relaxations);
      stale += static_cast<double>(res.stale_pops);
      pops += static_cast<double>(res.relaxations) + 1.0;
      layers.absorb(*ctx.recorder, kThreads, res.seconds, settled, 0.0);
    } else {
      if (ctx.traced) layers.untraced_latency.push_back(res.seconds * 1e6);
      solve.push_back(res.seconds);
    }
  });

  r.add(kind::end_to_end, "setup_s", median(setup), "s");
  r.add(kind::end_to_end, "latency_us", median(solve) * 1e6, "us");
  r.add(kind::workload, "solve_s", median(solve), "s");
  if (!ctx.traced) return;
  add_layer_metrics(r, layers, 2 * kThreads, ctx.stream(9));
  r.add(kind::layer_detail, "graph.relax_per_node", relax / layers.items, "count");
  r.add(kind::layer_detail, "graph.stale_frac", pops > 0 ? stale / pops : 0.0, "fraction");
  r.add(kind::layer_detail, "graph.self_frac",
        1.0 - layers.busy_ns / layers.worker_ns, "fraction");
}

void run_dag_wide(const context& ctx, workload_result& r) {
  const std::uint32_t nodes = ctx.smoke ? 4096 : 1u << 20;
  const std::uint32_t rounds = 16;
  std::vector<double> setup;
  const auto make_dag = [&] {
    pcq::graph::random_graph_params p;
    p.nodes = nodes;
    p.avg_degree = 4.0;
    p.seed = ctx.stream(1);
    return pcq::sim::make_dag(pcq::graph::make_random_graph(p));
  };
  time_setup(setup, make_dag);
  const auto dag = time_setup(setup, make_dag);
  const std::vector<u64> oracle = pcq::exec::sequential_dag_outputs(dag, rounds);

  // The kernel alone, so the executor's overhead can be separated from it.
  std::vector<double> kernel;
  u64 sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = now_ns();
    for (u64 i = 0; i < 100000; ++i) sink += pcq::exec::task_kernel(i + sink, rounds);
    kernel.push_back(static_cast<double>(now_ns() - t0) / 1e5);
  }
  keep(sink);
  const double kernel_ns = median(kernel);

  std::vector<double> makespan;
  layer_totals layers;
  repeat_trials(ctx, [&](std::size_t i, bool warm, bool traced) {
    if (!warm && i % 3 == 0) time_setup(setup, make_dag);
    const std::size_t trial = ctx.recorder ? ctx.recorder->open("trial") : 0;
    mq queue(queue_config(ctx, 0), kThreads);
    pcq::exec::dag_exec_result res;
    with_view(ctx, traced, queue, [&](auto& view) {
      res = pcq::exec::run_dag_executor(dag, kThreads, view, rounds);
    });
    if (ctx.recorder) ctx.recorder->close(trial);
    if (warm) return;
    ++r.attempted;
    if (!res.topo_ok || res.settled != nodes || res.stats.executed != nodes ||
        res.stats.spawned != nodes || res.outputs != oracle) {
      r.fail("DAG run differs from the sequential oracle");
      return;
    }
    if (traced) {
      layers.traced_latency.push_back(res.stats.seconds * 1e6);
      layers.absorb(*ctx.recorder, kThreads, res.stats.seconds, nodes,
                    kernel_ns * nodes);
    } else {
      if (ctx.traced) layers.untraced_latency.push_back(res.stats.seconds * 1e6);
      makespan.push_back(res.stats.seconds);
    }
  });

  r.add(kind::end_to_end, "setup_s", median(setup), "s");
  r.add(kind::end_to_end, "latency_us", median(makespan) * 1e6, "us");
  r.add(kind::workload, "tasks_mps", nodes / median(makespan) / 1e6, "Mtasks/s");
  if (!ctx.traced) return;
  add_layer_metrics(r, layers, 2 * kThreads, ctx.stream(9));
  r.add(kind::layer_detail, "exec.kernel_ns", kernel_ns, "ns");
  r.add(kind::layer_detail, "exec.overhead_ns_per_task",
        (layers.worker_ns - layers.busy_ns - layers.payload_ns) / layers.items, "ns");
  r.add(kind::layer_detail, "exec.pop_fail_per_task",
        layers.pop_fails / layers.items, "count");
}

// ---------------------------------------------------------------------
// rpc_open_loop: realtime open-loop service plus a virtual-time pass
// ---------------------------------------------------------------------

constexpr double kMeanService = 20e-6;  // seconds
const double kRates[] = {0.5, 0.8};     // realtime offered loads
const double kVirtRates[] = {0.5, 0.7, 0.8, 0.9, 0.95};
constexpr std::size_t kVirtWorkers = 8;

std::vector<pcq::service::request> rpc_trace(double rho, std::size_t workers,
                                             const pcq::service::service_dist& dist,
                                             std::size_t requests, u64 seed) {
  pcq::service::workload_config cfg;
  cfg.num_requests = requests;
  cfg.service = dist;
  cfg.arrival_rate = pcq::service::arrival_rate_for_load(rho, workers, dist);
  cfg.seed = seed;
  return pcq::service::make_open_loop_trace(cfg);
}

/// Checks that every request completed exactly once; returns how many
/// did not (lost, stalled, or duplicated).
u64 rpc_missing(const pcq::service::service_result& res, std::size_t requests) {
  std::vector<bool> seen(requests, false);
  u64 bad = 0;
  for (const auto& shard : res.worker_logs) {
    for (const auto& rec : shard) {
      if (rec.seq >= requests || seen[rec.seq]) {
        ++bad;
      } else {
        seen[rec.seq] = true;
      }
    }
  }
  bad += static_cast<u64>(std::count(seen.begin(), seen.end(), false));
  return res.stalled && bad == 0 ? 1 : bad;
}

struct rpc_run {
  pcq::service::service_result res;
  pcq::service::latency_report lat;
};

rpc_run rpc_realtime(const context& ctx, bool traced,
                     const std::vector<pcq::service::request>& trace) {
  using namespace pcq::service;
  rpc_run out;
  if (!traced) {
    auto disp = make_mq_dispatcher(kRpcWorkers, queue_config(ctx, 0));
    out.res = run_service_realtime(trace, disp, kRpcWorkers, 2.0);
  } else {
    probe& rec = *ctx.recorder;
    mq queue(queue_config(ctx, 0), kRpcWorkers + 1);
    pq_dispatcher<probe_queue<mq>> inner(
        std::unique_ptr<probe_queue<mq>>(new probe_queue<mq>(queue, rec)),
        kRpcWorkers, priority_policy::deadline);
    const std::int64_t epoch = now_ns();
    pcqbench::probe_dispatcher<pq_dispatcher<probe_queue<mq>>> disp(
        inner, rec, kRpcWorkers, trace.size(), epoch);
    out.res = run_service_realtime(trace, disp, kRpcWorkers, 2.0);
    // One span per sampled request from due time to completion, sharing
    // the seq of its dispatch and fetch spans.
    for (std::size_t w = 0; w < out.res.worker_logs.size(); ++w) {
      for (const request_record& r : out.res.worker_logs[w]) {
        if (r.seq % pcqbench::kSampleEvery != 0) continue;
        const auto start = epoch + static_cast<std::int64_t>(r.arrival * 1e9);
        rec.add_span(w, "service.request", start,
                     static_cast<std::int64_t>((r.completion - r.arrival) * 1e9), r.seq);
      }
    }
  }
  out.lat = summarize(out.res);
  return out;
}

void run_rpc_open_loop(const context& ctx, workload_result& r) {
  using namespace pcq::service;
  // Five short trials per rate rather than three long ones: a host stall
  // of a few seconds then spoils at most one or two of them, and the
  // median across trials ignores it.
  const std::size_t trials = ctx.traced ? 6 : 5;
  const double trial_s = ctx.smoke ? 0.03 : 0.8 * ctx.seconds / (2.0 * trials);
  // Idle virtual workers fetch from an empty queue, and a failed try_pop
  // costs ~10 us, so the virtual pass stays at 20k requests per rate.
  const std::size_t virt_requests = ctx.smoke ? 2000 : 20000;
  const service_dist exp_dist = service_dist::exponential_mean(kMeanService);
  const service_dist pareto = service_dist::pareto_mean(2.2, kMeanService);

  // Set-up: every trace of the run. Realtime: warm-up first, then
  // trial-major; virtual: one per grid rate.
  struct rpc_inputs {
    std::vector<std::vector<request>> realtime, virt;
  };
  std::vector<double> setup;
  const auto make_traces = [&] {
    rpc_inputs in;
    const auto requests = [&](double rho, double span_s) {
      return static_cast<std::size_t>(
          arrival_rate_for_load(rho, kRpcWorkers, exp_dist) * span_s);
    };
    in.realtime.push_back(rpc_trace(0.8, kRpcWorkers, exp_dist,
                                    requests(0.8, trial_s / 2), ctx.stream(100)));
    for (std::size_t t = 0; t < trials; ++t) {
      for (std::size_t i = 0; i < 2; ++i) {
        in.realtime.push_back(rpc_trace(kRates[i], kRpcWorkers, exp_dist,
                                        requests(kRates[i], trial_s),
                                        ctx.stream(101 + 2 * t + i)));
      }
    }
    for (std::size_t i = 0; i < 5; ++i) {
      in.virt.push_back(rpc_trace(kVirtRates[i], kVirtWorkers, pareto, virt_requests,
                                  ctx.stream(200 + i)));
    }
    return in;
  };
  time_setup(setup, make_traces);
  const rpc_inputs inputs = time_setup(setup, make_traces);
  const auto& traces = inputs.realtime;

  std::vector<double> p50[2], p99[2], p999[2], wait_us;
  double samples[2] = {0, 0};
  layer_totals layers;
  for (std::size_t k = 0; k < traces.size(); ++k) {
    const bool warm = k == 0;
    const std::size_t t = warm ? 0 : (k - 1) / 2, i = warm ? 1 : (k - 1) % 2;
    const bool traced = !warm && ctx.traced_trial(t);
    const std::size_t trial = ctx.recorder ? ctx.recorder->open("trial") : 0;
    const rpc_run run = rpc_realtime(ctx, traced, traces[k]);
    if (ctx.recorder) ctx.recorder->close(trial);
    time_setup(setup, make_traces);
    const std::size_t n = traces[k].size();
    const u64 missing = rpc_missing(run.res, n);
    if (missing != 0) {
      r.fail(std::to_string(missing) + " requests lost, stalled or duplicated");
    }
    if (warm) continue;
    r.attempted += n;
    const double us = run.lat.sojourn.p50() * 1e6;
    if (traced) {
      if (i == 1) layers.traced_latency.push_back(us);
      double service_ns = 0;
      for (const request& q : traces[k]) service_ns += q.service * 1e9;
      layers.absorb(*ctx.recorder, kRpcWorkers, run.res.seconds,
                    static_cast<double>(n), service_ns);
      wait_us.push_back(run.lat.wait.p50() * 1e6);
      continue;
    }
    if (ctx.traced && i == 1) layers.untraced_latency.push_back(us);
    p50[i].push_back(us);
    p99[i].push_back(run.lat.sojourn.p99() * 1e6);
    p999[i].push_back(run.lat.sojourn.p999() * 1e6);
    samples[i] += static_cast<double>(run.lat.sojourn.count());
  }

  // Virtual time: decisions only, so the numbers repeat exactly per seed.
  double virt_p99 = 0, virt_miss = 0, virt_max_rho = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    const double rho = kVirtRates[i];
    const auto& trace = inputs.virt[i];
    auto disp = make_mq_dispatcher(kVirtWorkers, queue_config(ctx, 0));
    const service_result res = run_service_virtual(trace, disp, kVirtWorkers);
    if (res.completed != trace.size()) r.fail("virtual-time pass lost requests");
    const double p99_us = summarize(res).sojourn.p99() * 1e6;
    if (p99_us <= 15.0 * kMeanService * 1e6) virt_max_rho = rho;
    if (rho == 0.9) {
      virt_p99 = p99_us;
      virt_miss = res.miss_frac();
    }
  }

  r.add(kind::end_to_end, "setup_s", median(setup), "s");
  r.add(kind::end_to_end, "latency_us", median(p50[1]), "us");
  const char* tag[2] = {"rho50", "rho80"};
  for (std::size_t i = 0; i < 2; ++i) {
    const std::string t = tag[i];
    // rho80's p50 is latency_us, which carries the bound.
    const bool gated = i == 0;
    r.add(kind::workload, "sojourn_p50_us." + t, median(p50[i]), "us",
          gated ? "lower" : "", gated ? 0.10 : -1.0);
    r.add(kind::workload, "sojourn_p99_us." + t, median(p99[i]), "us");
    r.add(kind::workload, "sojourn_p999_us." + t, median(p999[i]), "us");
    r.add(kind::workload, "sojourn_samples." + t, samples[i], "count");
  }
  r.add(kind::workload, "virt_p99_us", virt_p99, "virtual_us", "lower", 0.0, true);
  r.add(kind::workload, "virt_miss_frac", virt_miss, "fraction", "lower", 0.0, true);
  r.add(kind::workload, "virt_max_rho", virt_max_rho, "rho", "higher", 0.0, true);
  if (!ctx.traced) return;
  add_layer_metrics(r, layers, 2 * (kRpcWorkers + 1), ctx.stream(9));
  const double fetches = static_cast<double>(layers.fetch.count() + layers.fetch_empty.count());
  r.add(kind::layer_detail, "service.dispatch_ns.p50", layers.dispatch.quantile(0.5), "ns");
  r.add(kind::layer_detail, "service.dispatch_ns.p99", layers.dispatch.quantile(0.99), "ns");
  r.add(kind::layer_detail, "service.fetch_ns.p50", layers.fetch.quantile(0.5), "ns");
  r.add(kind::layer_detail, "service.fetch_empty_ns.p50", layers.fetch_empty.quantile(0.5), "ns");
  r.add(kind::layer_detail, "service.fetch_fail_frac",
        fetches > 0 ? static_cast<double>(layers.fetch_empty.count()) / fetches : 0.0,
        "fraction");
  r.add(kind::layer_detail, "service.pickup_us.p50", layers.pickup.quantile(0.5) / 1e3, "us");
  r.add(kind::layer_detail, "service.wait_us.p50", median(wait_us), "us");
  r.add(kind::layer_detail, "service.gen_lag_us.p99", layers.gen_lag.quantile(0.99) / 1e3, "us");
}

// ---------------------------------------------------------------------
// Provenance, output, watchdog
// ---------------------------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    const auto last = s.find_last_not_of(' ');
    if (first != std::string::npos) return s.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

const char* kind_name(kind k) {
  switch (k) {
    case kind::end_to_end: return "end_to_end";
    case kind::workload: return "workload";
    case kind::layer: return "layer";
    default: return "layer_detail";
  }
}

struct run_info {
  u64 seed;
  double seconds;
  bool traced, smoke, oversubscribed;
  std::string git_sha;
};

/// results.json: provenance plus every workload's metrics. An exact metric
/// also carries its IEEE-754 bit pattern, so runs can be compared bit for
/// bit although values are printed to 9 significant digits.
bool write_results(const std::string& path, const run_info& info,
                   const std::vector<workload_result>& results) {
  pcq::bench::json_writer w(path);
  if (!w.ok()) return false;
  w.begin_object().key("provenance").begin_object();
  w.kv("nproc", std::thread::hardware_concurrency())
      .kv("cpu_model", cpu_model())
      .kv("compiler", __VERSION__)
      .kv("flags", PCQ_BENCH_FLAGS)
      .kv("git_sha", info.git_sha)
      .kv("seed", static_cast<unsigned long long>(info.seed))
      .kv("seconds", info.seconds)
      .kv("threads", kThreads);
  w.key("rpc_threads").begin_object().kv("arrival", 1).kv("workers", kRpcWorkers).end_object();
  w.kv("traced", info.traced).kv("smoke", info.smoke).kv("oversubscribed", info.oversubscribed);
  w.end_object().key("workloads").begin_object();
  for (const workload_result& r : results) {
    w.key(r.name.c_str()).begin_object();
    w.kv("correct", r.failed == 0)
        .kv("attempted", static_cast<unsigned long long>(r.attempted))
        .kv("failed", static_cast<unsigned long long>(r.failed))
        .kv("elapsed_s", r.elapsed_s);
    w.key("errors").begin_array();
    for (const std::string& e : r.errors) w.value(e);
    w.end_array().key("metrics").begin_object();
    for (const metric& m : r.metrics) {
      w.key(m.name.c_str()).begin_object();
      w.kv("value", m.value).kv("unit", m.unit).kv("kind", kind_name(m.k));
      if (m.better[0] != '\0') w.kv("better", m.better);
      if (m.bound >= 0) w.kv("bound", m.bound);
      if (m.exact) {
        unsigned long long bits = 0;
        std::memcpy(&bits, &m.value, sizeof(bits));
        w.kv("exact", true).kv("bits", bits);
      }
      w.end_object();
    }
    w.end_object().end_object();
  }
  w.end_object().end_object();
  return true;
}

/// Stops the process when a workload runs past its limit: a livelocked
/// queue cannot be interrupted from outside, so the watchdog records the
/// overrun as a failure, writes what it has, and exits.
class watchdog {
 public:
  using on_fire = std::function<void(const std::string&)>;

  explicit watchdog(on_fire fire) : fire_(std::move(fire)), thread_([this] { loop(); }) {}
  watchdog(const watchdog&) = delete;
  watchdog& operator=(const watchdog&) = delete;
  ~watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  void arm(const std::string& name, double limit_s) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      name_ = name;
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(limit_s));
      armed_ = true;
    }
    cv_.notify_all();
  }
  void disarm() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      armed_ = false;
    }
    cv_.notify_all();
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!done_) {
      if (!armed_) {
        cv_.wait(lock, [this] { return done_ || armed_; });
        continue;
      }
      const auto deadline = deadline_;
      if (cv_.wait_until(lock, deadline, [&] {
            return done_ || !armed_ || deadline_ != deadline;
          })) {
        continue;
      }
      const std::string name = name_;
      lock.unlock();
      fire_(name);
      std::_Exit(3);
    }
  }

  on_fire fire_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false, armed_ = false;
  std::string name_;
  std::chrono::steady_clock::time_point deadline_;
  std::thread thread_;  // last: it uses every member above
};

struct workload_def {
  const char* name;
  void (*run)(const context&, workload_result&);
  double overhead_s;  ///< expected time beyond --seconds (set-up, oracles)
};

const workload_def kWorkloads[] = {
    {"hold_deep", run_hold_deep, 8.0},
    {"sssp_road", run_sssp_road, 6.0},
    {"dag_wide", run_dag_wide, 8.0},
    {"rpc_open_loop", run_rpc_open_loop, 8.0},
};

void print_result(const workload_result& r) {
  std::printf("== %s: %s, %llu attempted, %llu failed, %.1f s\n", r.name.c_str(),
              r.failed == 0 ? "correct" : "INCORRECT",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), r.elapsed_s);
  for (const metric& m : r.metrics) {
    std::printf("   %-13s %-28s %16.6f %s\n", kind_name(m.k), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: pcq_benchmark --seed S [--workload NAME|all] [--seconds T]\n"
               "                     [--out results.json] [--trace trace.json]\n"
               "                     [--git-sha SHA] [--smoke]\n"
               "workloads: hold_deep sssp_road dag_wide rpc_open_loop\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload = "all", out, trace, git_sha = "unknown";
  context ctx;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--smoke") {
      ctx.smoke = true;
    } else if ((a == "--workload" || a == "--seed" || a == "--seconds" ||
                a == "--out" || a == "--trace" || a == "--git-sha") &&
               (v = next()) != nullptr) {
      char* end = nullptr;
      if (a == "--workload") workload = v;
      else if (a == "--out") out = v;
      else if (a == "--trace") trace = v;
      else if (a == "--git-sha") git_sha = v;
      else if (a == "--seed") {
        ctx.seed = std::strtoull(v, &end, 10);
        have_seed = end != v && *end == '\0';
        if (!have_seed) return usage();
      } else {
        ctx.seconds = std::strtod(v, &end);
        if (end == v || *end != '\0' || !(ctx.seconds > 0) || ctx.seconds > 600) return usage();
      }
    } else {
      return usage();
    }
  }
  if (!have_seed && !ctx.smoke) return usage();
  std::vector<const workload_def*> selected;
  for (const workload_def& w : kWorkloads) {
    if (workload == "all" || workload == w.name) selected.push_back(&w);
  }
  if (selected.empty()) return usage();

  const run_info info{ctx.seed, ctx.seconds, !trace.empty() || ctx.smoke, ctx.smoke,
                      std::thread::hardware_concurrency() < kThreads, git_sha};
  if (info.oversubscribed) {
    // Provenance only, so the refusal is on record without any numbers.
    std::fprintf(stderr,
                 "refusing to run: the workloads use %zu threads but the machine "
                 "has %u hardware threads (oversubscribed)\n",
                 kThreads, std::thread::hardware_concurrency());
    if (!out.empty()) write_results(out, info, {});
    return 4;
  }
  ctx.traced = info.traced;
  probe recorder(2 * kThreads);
  if (ctx.traced) ctx.recorder = &recorder;

  std::mutex results_mutex;
  std::vector<workload_result> results;
  watchdog dog([&](const std::string& name) {
    std::fprintf(stderr, "WATCHDOG: workload %s ran past its limit; stopping\n",
                 name.c_str());
    std::lock_guard<std::mutex> lock(results_mutex);
    workload_result r;
    r.name = name;
    r.attempted = 1;
    r.fail("watchdog: ran past 4x its expected time");
    results.push_back(r);
    if (!out.empty()) write_results(out, info, results);
    std::fflush(nullptr);
  });

  bool ok = true;
  for (const workload_def* w : selected) {
    workload_result r;
    r.name = w->name;
    const double expected = (ctx.smoke ? 1.0 : ctx.seconds) + w->overhead_s;
    dog.arm(w->name, 4.0 * expected);
    const std::int64_t t0 = now_ns();
    const std::size_t span = ctx.recorder ? recorder.open(w->name) : 0;
    w->run(ctx, r);
    if (ctx.recorder) recorder.close(span);
    r.elapsed_s = since_s(t0);
    dog.disarm();
    ok = ok && r.failed == 0;
    print_result(r);
    std::lock_guard<std::mutex> lock(results_mutex);
    results.push_back(r);
  }
  if (!trace.empty() && !recorder.write_chrome_trace(trace)) {
    std::fprintf(stderr, "could not write %s\n", trace.c_str());
    return 2;
  }
  if (!out.empty()) {
    std::lock_guard<std::mutex> lock(results_mutex);
    if (!write_results(out, info, results)) {
      std::fprintf(stderr, "could not write %s\n", out.c_str());
      return 2;
    }
  }
  return ok ? 0 : 1;
}
