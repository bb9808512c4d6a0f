// Graph-structured task process: the paper's scheduling story made
// literal. Tasks are the nodes of a DAG (any graph/csr_graph with every
// arc oriented low id -> high id); a task becomes READY only when all of
// its predecessors have been settled, and settling a task RELEASES every
// successor whose remaining-dependency count hits zero. Ready tasks sit
// in a relaxed priority queue (any structure modeling the handle concept
// of core/pq_handle.hpp — all five in-tree queues), keyed by a priority
// that respects precedence:
//
//   priority(v) = depth(v) * n + v,   depth = longest-path depth,
//
// so an EXACT scheduler settles tasks in strict priority order and every
// out-of-order settle is attributable to the queue's relaxation (plus
// concurrency skew), not to the DAG. Rank quality comes from the same
// oracle machinery as everywhere else: pops and releases go through the
// timed API, per-thread logs merge by linearization timestamp, and the
// Fenwick replay (core/rank_recorder.hpp) yields the exact rank of every
// settle among the tasks that were ready at that instant —
// bench_ext_graph_process compares these inversions across all five
// queues on road-grid and random-DAG workloads.
//
// Termination uses the in-flight protocol of util/in_flight.hpp: roots
// are counted at seed time, a settled task's unit passes to the
// successors it released (collected during the arc scan and settled
// once in the worker's ledger BEFORE they are pushed), and a worker that
// fails a pop terminates iff its ledger reports the counter drained. On a DAG this drains completely: every
// task is released exactly once (the unique fetch_sub that moves its
// dependency count to zero) and settled exactly once (queue
// conservation).
//
// The topological-release invariant — no task is ever popped with
// unsettled predecessors or settled twice — is checked inline on every
// settle (result.topo_ok) and re-verified against reverse edges in
// test_graph_process.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/pq_handle.hpp"
#include "core/rank_recorder.hpp"
#include "graph/csr_graph.hpp"
#include "util/in_flight.hpp"
#include "util/spinlock.hpp"
#include "util/timer.hpp"

namespace pcq {
namespace sim {

/// Reorients every arc of g from its lower to its higher endpoint id
/// (self-loops dropped) — a DAG by construction, with the topological
/// order being the id order. Parallel arcs are kept; the dependency
/// counting below treats them as multi-edges consistently.
inline graph::csr_graph make_dag(const graph::csr_graph& g) {
  std::vector<graph::csr_graph::edge> edges;
  edges.reserve(g.num_edges());
  for (graph::csr_graph::node_id u = 0; u < g.num_nodes(); ++u) {
    for (const graph::csr_graph::arc& a : g.out(u)) {
      if (a.head == u) continue;
      const auto lo = u < a.head ? u : a.head;
      const auto hi = u < a.head ? a.head : u;
      edges.push_back(graph::csr_graph::edge{lo, hi, a.weight});
    }
  }
  return graph::csr_graph::from_edges(g.num_nodes(), edges);
}

/// Longest-path depth of every node of a low->high oriented DAG. One
/// forward pass in id order (a topological order by construction).
inline std::vector<std::uint32_t> dag_depths(const graph::csr_graph& dag) {
  std::vector<std::uint32_t> depth(dag.num_nodes(), 0);
  for (graph::csr_graph::node_id u = 0; u < dag.num_nodes(); ++u) {
    for (const graph::csr_graph::arc& a : dag.out(u)) {
      if (depth[a.head] < depth[u] + 1) depth[a.head] = depth[u] + 1;
    }
  }
  return depth;
}

/// Precedence-respecting unique priority: strictly increasing along
/// every arc, totally ordered across the DAG.
inline std::uint64_t task_priority(std::uint32_t depth,
                                   graph::csr_graph::node_id v,
                                   std::size_t num_nodes) {
  return static_cast<std::uint64_t>(depth) * num_nodes + v;
}

struct graph_process_result {
  std::uint64_t settled = 0;   ///< tasks popped and processed
  std::uint64_t released = 0;  ///< pushes (roots + dependency releases)
  double seconds = 0.0;        ///< threaded phase wall time
  bool topo_ok = true;  ///< no premature or duplicate settle observed
  replay_report ranks;  ///< Fenwick replay over the timed event logs
  /// Settle order by linearization timestamp (node ids).
  std::vector<graph::csr_graph::node_id> settle_order;
};

/// Runs the task process over `dag` with `num_threads` workers sharing
/// `queue` (passed in empty, configured by the caller). Requires the
/// timed extension: ranks are always measured — this is a simulator, not
/// a throughput harness, and the oracle is the point.
template <typename Queue>
graph_process_result run_graph_process(const graph::csr_graph& dag,
                                       std::size_t num_threads,
                                       Queue& queue) {
  PCQ_ASSERT_PQ_CONCEPT(Queue);
  static_assert(has_timed_api<Queue>::value,
                "graph_process measures ranks through the timed API");

  const std::size_t n = dag.num_nodes();
  const std::size_t threads = num_threads > 0 ? num_threads : 1;
  const std::vector<std::uint32_t> depth = dag_depths(dag);

  std::unique_ptr<std::atomic<std::uint32_t>[]> remaining(
      new std::atomic<std::uint32_t>[n]);
  std::unique_ptr<std::atomic<bool>[]> settled_flag(
      new std::atomic<bool>[n]);
  for (std::size_t v = 0; v < n; ++v) {
    remaining[v].store(0, std::memory_order_relaxed);
    settled_flag[v].store(false, std::memory_order_relaxed);
  }
  for (graph::csr_graph::node_id u = 0; u < n; ++u) {
    for (const graph::csr_graph::arc& a : dag.out(u)) {
      remaining[a.head].fetch_add(1, std::memory_order_relaxed);
    }
  }

  rank_recorder recorder(threads);
  recorder.reserve(2 * n / threads + 16);
  in_flight_counter in_flight;
  std::atomic<bool> topo_ok{true};
  std::vector<std::vector<std::pair<std::uint64_t, graph::csr_graph::node_id>>>
      orders(threads);
  std::vector<std::uint64_t> settled_by(threads, 0), released_by(threads, 0);

  {
    // Roots (no dependencies) seed the queue; counted before they are
    // poppable. Scoped so buffering handles flush before workers start.
    auto seeder = queue.get_handle(0);
    std::uint64_t roots = 0;
    for (graph::csr_graph::node_id v = 0; v < n; ++v) {
      if (remaining[v].load(std::memory_order_relaxed) == 0) ++roots;
    }
    in_flight.seed(roots);
    for (graph::csr_graph::node_id v = 0; v < n; ++v) {
      if (remaining[v].load(std::memory_order_relaxed) != 0) continue;
      const std::uint64_t key = task_priority(depth[v], v, n);
      recorder.record(0, event_kind::insert, seeder.push_timed(key, v), key);
      ++released_by[0];
    }
  }

  // Not drain(): this is the rank simulator, and its replay needs one
  // linearization timestamp per pop, which try_pop_timed draws and a
  // batched pop would not, so the loop stays scalar.
  auto worker = [&](std::size_t tid) {
    auto handle = queue.get_handle(tid);
    in_flight_ledger ledger(in_flight);
    std::vector<graph::csr_graph::node_id> ready;
    backoff bo;
    while (true) {
      typename Queue::entry::first_type key{};
      typename Queue::entry::second_type value{};
      std::uint64_t ts = 0;
      if (!handle.try_pop_timed(key, value, ts)) {
        if (ledger.drained()) break;
        bo.pause();
        continue;
      }
      bo.reset();
      recorder.record(tid, event_kind::remove, ts,
                      static_cast<std::uint64_t>(key));
      const auto v = static_cast<graph::csr_graph::node_id>(value);
      orders[tid].emplace_back(ts, v);
      ++settled_by[tid];
      // Topological-release invariant: popped => released => every
      // predecessor settled; and queues never duplicate elements.
      if (remaining[v].load(std::memory_order_acquire) != 0 ||
          settled_flag[v].exchange(true, std::memory_order_acq_rel)) {
        topo_ok.store(false, std::memory_order_relaxed);
      }
      ready.clear();
      for (const graph::csr_graph::arc& a : dag.out(v)) {
        if (remaining[a.head].fetch_sub(1, std::memory_order_acq_rel) == 1)
          ready.push_back(a.head);
      }
      // Count the released successors before any push publishes one.
      ledger.settle(ready.size());
      for (const graph::csr_graph::node_id w : ready) {
        const std::uint64_t succ_key = task_priority(depth[w], w, n);
        recorder.record(tid, event_kind::insert, handle.push_timed(succ_key, w),
                        succ_key);
      }
      released_by[tid] += ready.size();
    }
  };

  wall_timer timer;
  run_workers(threads, worker);

  graph_process_result result;
  result.seconds = timer.elapsed_seconds();
  result.topo_ok = topo_ok.load(std::memory_order_relaxed);
  for (std::size_t t = 0; t < threads; ++t) {
    result.settled += settled_by[t];
    result.released += released_by[t];
  }
  std::vector<std::pair<std::uint64_t, graph::csr_graph::node_id>> merged;
  merged.reserve(result.settled);
  for (const auto& o : orders) merged.insert(merged.end(), o.begin(), o.end());
  std::sort(merged.begin(), merged.end());
  result.settle_order.reserve(merged.size());
  for (const auto& p : merged) result.settle_order.push_back(p.second);
  result.ranks = replay_ranks(recorder.logs());
  return result;
}

}  // namespace sim
}  // namespace pcq
