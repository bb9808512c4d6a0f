// Graph-structured task process: the paper's scheduling story made
// literal. Tasks are the nodes of a DAG (any graph/csr_graph with every
// arc oriented low id -> high id); a task becomes READY only when all of
// its predecessors have been settled, and settling a task RELEASES every
// successor whose remaining-dependency count hits zero. Ready tasks sit
// in a relaxed priority queue keyed by a priority that respects
// precedence:
//
//   priority(v) = depth(v) * n + v,   depth = longest-path depth,
//
// so an EXACT scheduler settles tasks in strict priority order and every
// out-of-order settle is attributable to the queue's relaxation (plus
// concurrency skew), not to the DAG.
//
// The process runs on the executor (exec::run_dag_executor, one id task
// per node). With record_order set the run pops one task per call and
// returns the order in which the tasks started; settle_ranks below
// replays that order offline and yields the rank of every settle among
// the tasks that were ready at that point. bench_exec's rank pass
// compares these inversions across all five queue types on road-grid
// and random-DAG workloads.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/rank_recorder.hpp"
#include "graph/csr_graph.hpp"
#include "util/fenwick.hpp"

namespace pcq {
namespace sim {

/// Reorients every arc of g from its lower to its higher endpoint id
/// (self-loops dropped) — a DAG by construction, with the topological
/// order being the id order. Parallel arcs are kept; the dependency
/// counting below treats them as multi-edges consistently.
inline graph::csr_graph make_dag(const graph::csr_graph& g) {
  return graph::csr_graph::build(g.num_nodes(), [&g](auto&& sink) {
    for (graph::csr_graph::node_id u = 0; u < g.num_nodes(); ++u) {
      for (const graph::csr_graph::arc& a : g.out(u)) {
        if (a.head == u) continue;
        sink(u < a.head ? u : a.head, u < a.head ? a.head : u, a.weight);
      }
    }
  });
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

/// Ranks a settle order of `dag` through a rank oracle. The roots are
/// ready at the start, a task becomes ready when its last predecessor
/// settles, and each settle's rank is the number of ready tasks of
/// smaller priority. A settle of a task that is not ready (a predecessor
/// still unsettled, a second settle, an id out of range) counts as
/// unmatched and releases nothing.
inline replay_report settle_ranks(
    const graph::csr_graph& dag,
    const std::vector<graph::csr_graph::node_id>& order) {
  const std::size_t n = dag.num_nodes();
  const std::vector<std::uint32_t> depth = dag_depths(dag);

  // Priority labels 0..n-1 in task_priority order, (depth, id), by a
  // counting sort over the depths.
  std::vector<std::size_t> next_label;
  for (const std::uint32_t d : depth) {
    if (d >= next_label.size()) next_label.resize(d + 1, 0);
    ++next_label[d];
  }
  std::size_t below = 0;
  for (std::size_t& slot : next_label) {
    const std::size_t count = slot;
    slot = below;
    below += count;
  }
  std::vector<std::size_t> label(n);
  for (std::size_t v = 0; v < n; ++v) label[v] = next_label[depth[v]]++;

  std::vector<std::uint32_t> remaining(n, 0);
  for (graph::csr_graph::node_id u = 0; u < n; ++u)
    for (const graph::csr_graph::arc& a : dag.out(u)) ++remaining[a.head];
  rank_oracle ready(n);
  for (std::size_t v = 0; v < n; ++v)
    if (remaining[v] == 0) ready.insert(label[v]);

  replay_report report;
  for (const graph::csr_graph::node_id v : order) {
    if (v >= n || !ready.contains(label[v])) {
      ++report.unmatched;
      continue;
    }
    const std::uint64_t rank = ready.remove(label[v]);
    ++report.deletions;
    if (rank > 0) ++report.inversions;
    report.rank_stats.push(static_cast<double>(rank));
    for (const graph::csr_graph::arc& a : dag.out(v))
      if (--remaining[a.head] == 0) ready.insert(label[a.head]);
  }
  return report;
}

}  // namespace sim
}  // namespace pcq
