// Parallel single-source shortest paths over ANY queue modeling the
// handle concept of core/pq_handle.hpp — the paper's Figure 3 workload
// (parallel Dijkstra on a road network), written once and instantiated
// for all five queues and the steal-deque pool.
//
// Label-correcting Dijkstra as executor tasks (exec/executor.hpp):
// dist[] holds atomic tentative distances, and a queue entry (d, v) is
// the task of id v at priority d. Before a popped batch runs, touch()
// prefetches each entry's dist[] cell and arc list. If dist[v] < d the
// entry is STALE — v was improved past d since it was queued — and is
// dropped without scanning v's arcs (under a relaxed queue this also
// absorbs out-of-order pops, which merely make entries stale more
// often). Otherwise the task relaxes v's arcs with a CAS-min loop per
// head and releases one task per successful decrease. Every decrease is
// monotone, so the fixpoint is the exact shortest-path distances for
// relaxed and strict queues alike; relaxation costs stale work, never
// correctness. fig3 and the ctest suite assert equality with Dijkstra.
//
// A batch of up to kDrainBatch = 4 entries publishes its releases with
// one push_batch after its last task, so two tasks of a batch that both
// improved one head publish it twice, and the stale check, which runs
// when a task runs, drops the worse copy. The batch relaxes order by at
// most three entries of its own plus arrivals, and hides a new entry for
// at most three further arc scans (bench_rank's rank_cost table records
// the rank cost). Termination is the executor's; run() joins its workers, so
// reading the final distances out of the atomics is race-free.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "exec/executor.hpp"
#include "graph/csr_graph.hpp"
#include "graph/dijkstra.hpp"

namespace pcq {
namespace graph {

struct sssp_result {
  std::vector<std::uint64_t> distance;  ///< kUnreachable if no path
  double seconds = 0.0;  ///< wall time of the run, the seed push included
  std::uint64_t relaxations = 0;        ///< successful dist[] decreases
  std::uint64_t stale_pops = 0;         ///< entries dropped by elision
};

namespace detail {

// One worker's count of stale entries, on a cache line of its own.
struct alignas(64) sssp_stale_cell {
  std::uint64_t count = 0;
};

// The handler of one run: the task of entry (d, u).
struct sssp_task {
  const csr_graph* g;
  std::atomic<std::uint64_t>* dist;
  sssp_stale_cell* stale;  // indexed by worker id

  void touch(std::uint64_t id) const {
    const auto u = static_cast<csr_graph::node_id>(id);
    prefetch(&dist[u]);
    prefetch(g->out(u).begin());
  }

  void operator()(exec::job_context& ctx, std::uint64_t d,
                  std::uint64_t id) const {
    const auto u = static_cast<csr_graph::node_id>(id);
    if (dist[u].load(std::memory_order_acquire) < d) {
      ++stale[ctx.worker_id()].count;  // u was improved past d
      return;
    }
    for (const csr_graph::arc& a : g->out(u)) {
      const std::uint64_t nd = d + a.weight;
      std::uint64_t cur = dist[a.head].load(std::memory_order_relaxed);
      while (nd < cur) {
        if (dist[a.head].compare_exchange_weak(cur, nd,
                                               std::memory_order_acq_rel,
                                               std::memory_order_relaxed)) {
          ctx.release(nd, a.head);
          break;
        }
      }
    }
  }
};

}  // namespace detail

/// Runs SSSP from `source` with `num_threads` workers sharing `queue`
/// (passed in empty; configured by the caller — this is where fig3's
/// beta/k knobs live). Queue entries are (distance, node).
template <typename Queue>
sssp_result parallel_sssp(const csr_graph& g, csr_graph::node_id source,
                          std::size_t num_threads, Queue& queue) {
  const std::size_t n = g.num_nodes();
  const std::size_t threads = num_threads > 0 ? num_threads : 1;
  std::unique_ptr<std::atomic<std::uint64_t>[]> dist(
      new std::atomic<std::uint64_t>[n]);
  for (std::size_t i = 0; i < n; ++i) {
    dist[i].store(kUnreachable, std::memory_order_relaxed);
  }
  dist[source].store(0, std::memory_order_relaxed);
  std::unique_ptr<detail::sssp_stale_cell[]> stale(
      new detail::sssp_stale_cell[threads]);

  exec::executor<Queue, detail::sssp_task> ex(
      queue, detail::sssp_task{&g, dist.get(), stale.get()});
  ex.submit(0, source);
  const exec::exec_stats stats = ex.run(threads);

  sssp_result result;
  result.seconds = stats.seconds;
  result.relaxations = stats.spawned - 1;  // every release but the seed
  result.distance.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.distance[i] = dist[i].load(std::memory_order_relaxed);
  }
  for (std::size_t t = 0; t < threads; ++t) {
    result.stale_pops += stale[t].count;
  }
  return result;
}

}  // namespace graph
}  // namespace pcq
