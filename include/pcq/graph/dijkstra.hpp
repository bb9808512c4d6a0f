// Sequential Dijkstra — the exact reference parallel_sssp is checked
// against (every fig3 cell and the ctest equality suite assert
// distance-for-distance equality).
//
// Lazy-deletion variant over the repo's 4-ary heap: decrease-key is
// re-push, stale heap entries are skipped when their recorded distance
// has already improved — the same stale-entry elision rule the parallel
// loop applies after a relaxed pop, so the two implementations differ
// only in concurrency, not in algorithm.

#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/csr_graph.hpp"
#include "heap/dary_heap.hpp"

namespace pcq {
namespace graph {

/// Distance of a node no path reaches.
constexpr std::uint64_t kUnreachable = std::numeric_limits<std::uint64_t>::max();

struct dijkstra_result {
  std::vector<std::uint64_t> distance;  ///< kUnreachable if no path
  std::uint64_t settled = 0;            ///< nodes popped non-stale
};

inline dijkstra_result dijkstra(const csr_graph& g,
                                csr_graph::node_id source) {
  dijkstra_result result;
  result.distance.assign(g.num_nodes(), kUnreachable);
  dary_heap_t<std::uint64_t, csr_graph::node_id> frontier;
  result.distance[source] = 0;
  frontier.push(0, source);
  while (!frontier.empty()) {
    const auto top = frontier.pop();
    const std::uint64_t d = top.first;
    const csr_graph::node_id u = top.second;
    if (d > result.distance[u]) continue;  // stale entry: already improved
    ++result.settled;
    for (const csr_graph::arc& a : g.out(u)) {
      const std::uint64_t nd = d + a.weight;
      if (nd < result.distance[a.head]) {
        result.distance[a.head] = nd;
        frontier.push(nd, a.head);
      }
    }
  }
  return result;
}

}  // namespace graph
}  // namespace pcq
