// Real-work workloads for the executor — the graph task process of
// sim/graph_process.hpp run as actual per-task compute, plus a fork-join
// range reduction. Every workload has a deterministic sequential oracle,
// so a parallel run is verified by value equality, and the DAG runner
// checks the topological-release invariant inline on every task. The
// DAG runner is also the rank simulator: with record_order it pops one
// task per call and records the order in which tasks start, which
// sim::settle_ranks replays offline.
//
// Both workloads are executor tasks: the task id indexes the run's
// state, held by one handler per run, so a release pushes one entry and
// allocates nothing. A DAG task's id is its node, and a fork-join task's
// id is its node's index in the implicit midpoint-split tree, whose
// inner nodes join their two children through per-run counters.
//
// The task kernels are *commutative over predecessors*: a task's input
// is the sum (a schedule-independent reduction) of its predecessors'
// outputs, so any legal parallel schedule produces bit-identical
// outputs to the sequential id-order reference — equality is a real
// oracle, not a lucky one.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "exec/executor.hpp"
#include "graph/csr_graph.hpp"
#include "sim/graph_process.hpp"

namespace pcq {
namespace exec {

/// Deterministic per-task compute kernel: `rounds` splitmix64-style
/// mixing rounds folded over the seed. Pure ALU work with a verifiable
/// output — the knob that sets task granularity in the exec benches.
inline std::uint64_t task_kernel(std::uint64_t seed, std::uint32_t rounds) {
  std::uint64_t x = seed ^ 0x9e3779b97f4a7c15ull;
  for (std::uint32_t r = 0; r < rounds; ++r) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
  }
  return x;
}

// ---------------------------------------------------------------------
// DAG workload: one task per node of a make_dag() DAG. Task v computes
// out[v] = task_kernel(sum of predecessor outputs + v, rounds) and
// releases each successor whose last dependency cleared at its
// precedence-respecting priority (task_priority).
// ---------------------------------------------------------------------

/// Sequential oracle: id order is a topological order of make_dag DAGs.
inline std::vector<std::uint64_t> sequential_dag_outputs(
    const graph::csr_graph& dag, std::uint32_t rounds) {
  std::vector<std::uint64_t> out(dag.num_nodes());
  std::vector<std::uint64_t> input(dag.num_nodes(), 0);
  for (graph::csr_graph::node_id u = 0; u < dag.num_nodes(); ++u) {
    out[u] = task_kernel(input[u] + u, rounds);
    for (const graph::csr_graph::arc& a : dag.out(u)) input[a.head] += out[u];
  }
  return out;
}

struct dag_exec_result {
  std::vector<std::uint64_t> outputs;  // per-node kernel outputs
  std::uint64_t settled = 0;           // tasks that ran
  bool topo_ok = true;  // no premature or duplicate settle observed
  exec_stats stats;
  // Node ids in the order their tasks started; filled only when the run
  // records it (sim::settle_ranks replays it).
  std::vector<graph::csr_graph::node_id> settle_order;
};

namespace detail {

// Everything a DAG task touches for one node, in one 16-byte record, so
// releasing a successor costs one cache line.
struct dag_node {
  std::atomic<std::uint64_t> input{0};      // sum of predecessor outputs
  std::atomic<std::uint32_t> remaining{0};  // uncleared dependencies
  std::atomic<bool> settled{false};         // the node's task has run
};

static_assert(sizeof(dag_node) == 16, "one DAG node record is 16 bytes");

// Shared by every task of one run_dag_executor call.
struct dag_run {
  const graph::csr_graph* dag;
  const std::uint32_t* depth;
  dag_node* nodes;
  std::uint64_t* outputs;
  std::size_t n;
  std::uint32_t rounds;
  graph::csr_graph::node_id* order;  // settle order; nullptr: not recorded
  std::atomic<bool> topo_ok{true};
  std::atomic<std::uint64_t> tickets{0};  // settles drawn so far
};

// The handler of one run: the task of node v. It holds only the run
// state, captured once for the whole run, so a released successor is one
// queue entry and allocates nothing.
struct dag_task {
  dag_run* run;

  void operator()(job_context& ctx, std::uint64_t /*priority*/,
                  std::uint64_t id) const {
    dag_run& s = *run;
    const auto v = static_cast<graph::csr_graph::node_id>(id);
    dag_node& node = s.nodes[v];
    if (s.order != nullptr) {
      // One ticket per settle; a ticket past n is a duplicate settle.
      const std::uint64_t t = s.tickets.fetch_add(1, std::memory_order_relaxed);
      if (t < s.n)
        s.order[t] = v;
      else
        s.topo_ok.store(false, std::memory_order_relaxed);
    }
    const graph::csr_graph::arc_range succ = s.dag->out(v);
    // The successors' records and priorities are needed right after the
    // kernel; start loading them now.
    for (const graph::csr_graph::arc& a : succ) {
      prefetch(&s.nodes[a.head]);
      prefetch(&s.depth[a.head]);
    }
    // Topological-release invariant: all dependencies cleared, and this
    // is the node's first settle.
    if (node.remaining.load(std::memory_order_acquire) != 0 ||
        node.settled.exchange(true, std::memory_order_acq_rel))
      s.topo_ok.store(false, std::memory_order_relaxed);
    // Predecessor inputs are visible: each predecessor's relaxed
    // fetch_add on input happens-before its acq_rel decrement of
    // remaining, and the release chain through the final decrement +
    // queue push publishes them all to this body.
    const std::uint64_t out =
        task_kernel(node.input.load(std::memory_order_relaxed) + v, s.rounds);
    s.outputs[v] = out;
    for (const graph::csr_graph::arc& a : succ) {
      dag_node& next = s.nodes[a.head];
      next.input.fetch_add(out, std::memory_order_relaxed);
      if (next.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
        ctx.release(sim::task_priority(s.depth[a.head], a.head, s.n), a.head);
    }
  }
};

}  // namespace detail

/// Runs the DAG as real executor work over `queue` (passed in empty).
/// Correct iff result.topo_ok, result.settled == num_nodes, and
/// result.outputs == sequential_dag_outputs(dag, rounds). With
/// `record_order` each pop takes one task and result.settle_order lists
/// the nodes in the order their tasks started, for sim::settle_ranks;
/// otherwise each pop takes kDrainBatch tasks.
template <typename Queue>
dag_exec_result run_dag_executor(const graph::csr_graph& dag,
                                 std::size_t num_threads, Queue& queue,
                                 std::uint32_t rounds,
                                 bool record_order = false) {
  const std::size_t n = dag.num_nodes();
  const std::vector<std::uint32_t> depth = sim::dag_depths(dag);

  std::unique_ptr<detail::dag_node[]> nodes(new detail::dag_node[n]);
  for (graph::csr_graph::node_id u = 0; u < n; ++u)
    for (const graph::csr_graph::arc& a : dag.out(u))
      nodes[a.head].remaining.fetch_add(1, std::memory_order_relaxed);

  dag_exec_result result;
  result.outputs.assign(n, 0);
  if (record_order) result.settle_order.assign(n, 0);
  detail::dag_run state{&dag, depth.data(), nodes.get(), result.outputs.data(),
                        n, rounds,
                        record_order ? result.settle_order.data() : nullptr};

  executor<Queue, detail::dag_task> ex(queue, detail::dag_task{&state});
  for (graph::csr_graph::node_id v = 0; v < n; ++v)
    if (nodes[v].remaining.load(std::memory_order_relaxed) == 0)
      ex.submit(sim::task_priority(depth[v], v, n), v);
  result.stats = ex.run(num_threads, record_order ? 1 : kDrainBatch);
  if (record_order) {
    const std::uint64_t drawn = state.tickets.load(std::memory_order_relaxed);
    if (drawn < n) result.settle_order.resize(drawn);
  }

  // Counted after the run rather than by a shared per-task RMW; a
  // duplicate settle already cleared topo_ok through the exchange.
  for (std::size_t v = 0; v < n; ++v)
    result.settled += nodes[v].settled.load(std::memory_order_relaxed);
  result.topo_ok = state.topo_ok.load(std::memory_order_relaxed);
  return result;
}

// ---------------------------------------------------------------------
// Fork-join workload: a range reduction over a fixed binary tree. The
// root covers [0, items); a node whose range is longer than the grain
// splits it at the midpoint and releases its two halves, and a leaf sums
// the kernel over its range. Task id i is the node at heap position
// i + 1 (root 1, children 2p and 2p + 1), so the bits of the position
// below its top one spell the path from the root and the handler
// recovers the node's range from the id alone. Each inner node has a
// join record in a per-run array: the child that finishes last combines
// the two halves and carries the sum up in place, without a queue trip,
// so the tree runs exactly one task per node.
// ---------------------------------------------------------------------

struct forkjoin_params {
  std::uint64_t items = 1 << 15;
  std::uint64_t grain = 64;  // ranges at most this long are leaves
  std::uint32_t rounds = 16;
};

/// Sequential oracle for the fork-join reduction.
inline std::uint64_t sequential_forkjoin_sum(const forkjoin_params& p) {
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < p.items; ++i) sum += task_kernel(i, p.rounds);
  return sum;
}

/// Tasks the splitting tree of [lo, hi) runs: one per node. A grain of
/// 0 counts as 1, as in run_forkjoin_executor.
inline std::uint64_t forkjoin_job_count(std::uint64_t lo, std::uint64_t hi,
                                        std::uint64_t grain) {
  if (hi - lo <= grain || hi - lo == 1) return 1;
  const std::uint64_t mid = lo + (hi - lo) / 2;
  return 1 + forkjoin_job_count(lo, mid, grain) +
         forkjoin_job_count(mid, hi, grain);
}

struct forkjoin_result {
  std::uint64_t sum = 0;
  exec_stats stats;
};

namespace detail {

// An inner node's join: its children's sums, and how many of them are
// still to finish. Each child writes its own half and then decrements;
// the decrement that reaches zero (acq_rel, so it sees the other half)
// owns the node.
struct fj_join {
  std::atomic<std::uint32_t> pending{2};
  std::uint64_t half[2] = {};
};

// Shared by every task of one run_forkjoin_executor call.
struct fj_run {
  std::uint64_t items;
  std::uint64_t grain;
  std::uint32_t rounds;
  fj_join* joins;        // indexed by inner node id
  std::uint64_t* total;  // the root's sum
};

// Deeper nodes get smaller keys, so priority-ordered queues work
// depth-first (a bounded tree frontier); correctness is independent.
inline std::uint64_t fj_priority(std::uint64_t tree_depth) {
  return tree_depth < 64 ? 64 - tree_depth : 0;
}

// The handler of one run: the task of tree node `id`.
struct fj_task {
  const fj_run* run;

  void operator()(job_context& ctx, std::uint64_t /*priority*/,
                  std::uint64_t id) const {
    const fj_run& s = *run;
    const std::uint64_t pos = id + 1;
    std::uint64_t depth = 0;
    while ((pos >> 1 >> depth) != 0) ++depth;
    // The walk is branch-free: its turns are data-random, and a
    // mispredicted branch per level cost more than the rest of a task.
    std::uint64_t lo = 0;
    std::uint64_t len = s.items;
    for (std::uint64_t b = depth; b-- > 0;) {
      const std::uint64_t right = (pos >> b) & 1;
      const std::uint64_t half = len / 2;
      lo += half & (0 - right);   // the right half starts at the midpoint
      len = half + (len & right);  // and holds the odd entry
    }
    const std::uint64_t hi = lo + len;
    if (len > s.grain) {
      ctx.release(fj_priority(depth + 1), 2 * id + 1);
      ctx.release(fj_priority(depth + 1), 2 * id + 2);
      return;
    }
    std::uint64_t sum = 0;
    for (std::uint64_t i = lo; i < hi; ++i) sum += task_kernel(i, s.rounds);
    // Join upward while this node's sibling has already finished.
    while (id != 0) {
      const std::uint64_t parent = (id - 1) / 2;
      fj_join& join = s.joins[parent];
      join.half[(id - 1) & 1] = sum;
      if (join.pending.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
      sum = join.half[0] + join.half[1];
      id = parent;
    }
    *s.total = sum;
  }
};

}  // namespace detail

/// Runs the reduction over `queue` (passed in empty). Correct iff
/// result.sum == sequential_forkjoin_sum(p) and executed == spawned ==
/// forkjoin_job_count(0, p.items, p.grain).
template <typename Queue>
forkjoin_result run_forkjoin_executor(std::size_t num_threads, Queue& queue,
                                      const forkjoin_params& p) {
  const std::uint64_t grain = p.grain > 0 ? p.grain : 1;
  // Every inner node's id is below the node count: the tree is complete
  // down to the first depth that holds a leaf, and only inner nodes of
  // that depth have children.
  const std::uint64_t nodes = forkjoin_job_count(0, p.items, grain);
  std::unique_ptr<detail::fj_join[]> joins(new detail::fj_join[nodes]);

  forkjoin_result result;
  const detail::fj_run state{p.items, grain, p.rounds, joins.get(),
                             &result.sum};
  executor<Queue, detail::fj_task> ex(queue, detail::fj_task{&state});
  ex.submit(detail::fj_priority(0), 0);
  result.stats = ex.run(num_threads);
  return result;
}

}  // namespace exec
}  // namespace pcq
