// Parallel single-source shortest paths over ANY queue modeling the
// handle concept of core/pq_handle.hpp — the paper's Figure 3 workload
// (parallel Dijkstra on a road network), written once and instantiated
// for all five queues.
//
// Algorithm (label-correcting Dijkstra):
//
//   dist[] is an array of atomic 64-bit tentative distances. Workers
//   run the shared drain loop of util/in_flight.hpp: each pop takes up
//   to kDrainBatch = 4 entries from one sampled slot under one lock, the
//   worker prefetches each entry's dist[] cell and arc list, and then
//   processes the entries in turn, ascending. For each (d, v): if
//   dist[v] < d the entry is STALE — some thread already
//   improved v past the priority this entry was queued at — and is
//   dropped without scanning v's arcs (the stale-entry elision; under a
//   relaxed queue this also absorbs out-of-order pops, which merely make
//   an entry stale more often). Otherwise the worker relaxes v's arcs
//   with a CAS-min loop per head node and appends one new entry per
//   successful decrease. The whole batch's new entries go out in one
//   push_batch after its last entry (one lock / epoch pin / LSM block
//   for up to four arc scans), so two entries of a batch that both
//   improved one head publish it twice; the stale check drops the
//   worse copy. Every dist[] decrease is
//   monotone, so the fixpoint is the exact shortest-path distances — for
//   relaxed AND strict queues; relaxation costs extra stale work, never
//   correctness. The batch adds relaxation of its own: an entry can be
//   overtaken by at most three entries of its batch plus what arrives
//   while it waits, and a new entry stays invisible for at most three
//   further arc scans (bench_abl_batch records the rank cost). The stale
//   check runs when an entry is processed, so an entry that its
//   batch-mates improved past is still elided. fig3 and the ctest suite
//   assert exact equality against sequential Dijkstra.
//
// Termination uses the in-flight protocol of util/in_flight.hpp (the
// concept makes emptiness RELAXED — a false try_pop means "looked
// empty", so it can never terminate the loop by itself): the seed entry
// is counted before it is pushed; a popped entry's unit passes to the
// entries it produced, settled once in the worker's ledger by drain()
// right after the entry's arc scan and so BEFORE the batch's push_batch
// publishes them (a stale pop or an arc scan with no decrease banks the
// unit as credit; one decrease hands it over; more decreases spend
// credit before they touch the counter); and a worker whose pop fails
// exits iff its ledger reports the counter drained, otherwise it backs
// off (pcq::backoff ladder) and retries. Entries still waiting in a
// worker's popped batch keep their units, and settled products not yet
// published carry theirs.
// Handle-buffered elements (k-LSM local components) stay counted and
// are poppable by their owner, and a popped batch is finished by its
// worker without waiting on anyone, so the retry always makes progress. The acquire load of a zero count orders every
// dist[] write before any worker returns.
//
// Workers join before the function returns, so reading the final
// distances out of the atomics is race-free.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/pq_handle.hpp"
#include "graph/csr_graph.hpp"
#include "graph/dijkstra.hpp"
#include "util/in_flight.hpp"
#include "util/timer.hpp"

namespace pcq {
namespace graph {

struct sssp_result {
  std::vector<std::uint64_t> distance;  ///< kUnreachable if no path
  double seconds = 0.0;                 ///< threaded phase wall time
  std::uint64_t relaxations = 0;        ///< successful dist[] decreases
  std::uint64_t stale_pops = 0;         ///< entries dropped by elision
};

/// Runs SSSP from `source` with `num_threads` workers sharing `queue`
/// (passed in empty; configured by the caller — this is where fig3's
/// beta/k knobs live). Queue entries are (distance, node).
template <typename Queue>
sssp_result parallel_sssp(const csr_graph& g, csr_graph::node_id source,
                          std::size_t num_threads, Queue& queue) {
  PCQ_ASSERT_PQ_CONCEPT(Queue);
  using entry = typename Queue::entry;

  const std::size_t n = g.num_nodes();
  const std::size_t threads = num_threads > 0 ? num_threads : 1;
  std::unique_ptr<std::atomic<std::uint64_t>[]> dist(
      new std::atomic<std::uint64_t>[n]);
  for (std::size_t i = 0; i < n; ++i) {
    dist[i].store(kUnreachable, std::memory_order_relaxed);
  }
  in_flight_counter in_flight;
  std::vector<std::uint64_t> relaxed(threads, 0), stale(threads, 0);

  dist[source].store(0, std::memory_order_relaxed);
  in_flight.seed(1);
  {
    // Scoped so buffering queues (k-LSM) flush the seed entry into
    // shared visibility before any worker starts.
    auto seeder = queue.get_handle(0);
    seeder.push(0, source);
  }

  auto worker = [&](std::size_t tid) {
    auto handle = queue.get_handle(tid);
    in_flight_ledger ledger(in_flight);
    std::uint64_t my_relaxed = 0, my_stale = 0;
    const auto touch = [&](const entry& e) {
      const auto u = static_cast<csr_graph::node_id>(e.second);
      prefetch(&dist[u]);
      prefetch(g.out(u).begin());
    };
    drain<entry>(handle, ledger, kDrainBatch, touch,
                 [&](const entry& e, std::vector<entry>& products) {
      const auto d = static_cast<std::uint64_t>(e.first);
      const auto u = static_cast<csr_graph::node_id>(e.second);
      if (dist[u].load(std::memory_order_acquire) < d) {
        ++my_stale;  // stale-entry elision: v was improved past d
        return;
      }
      for (const csr_graph::arc& a : g.out(u)) {
        const std::uint64_t nd = d + a.weight;
        std::uint64_t cur = dist[a.head].load(std::memory_order_relaxed);
        while (nd < cur) {
          if (dist[a.head].compare_exchange_weak(
                  cur, nd, std::memory_order_acq_rel,
                  std::memory_order_relaxed)) {
            products.emplace_back(nd, a.head);
            ++my_relaxed;
            break;
          }
        }
      }
    });
    relaxed[tid] = my_relaxed;
    stale[tid] = my_stale;
  };

  wall_timer timer;
  run_workers(threads, worker);

  sssp_result result;
  result.seconds = timer.elapsed_seconds();
  result.distance.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.distance[i] = dist[i].load(std::memory_order_relaxed);
  }
  for (std::size_t t = 0; t < threads; ++t) {
    result.relaxations += relaxed[t];
    result.stale_pops += stale[t];
  }
  return result;
}

}  // namespace graph
}  // namespace pcq
