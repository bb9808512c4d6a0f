// The DAG task process: make_dag orientation and dag_depths on
// hand-checked graphs, settle_ranks on hand-ranked settle orders, and the
// headline invariant — for every roster queue of kRosterQueues
// (pq_test_harness.hpp), single- and multi-threaded, run_dag_executor
// recording its settle order settles every task exactly once, never
// before its predecessors (re-verified offline against the arcs, not
// just the run's own inline check), with the sequential oracle's
// outputs; the replay matches every settle; and every priority queue
// whose one-thread pops are exact is a zero-inversion exact scheduler
// when one thread drives it. TSan-friendly scales.

#include "sim/graph_process.hpp"

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

#include "test_macros.hpp"
#include "pq_test_harness.hpp"
#include "benchlib/queue_roster.hpp"
#include "exec/dag_workloads.hpp"
#include "graph/generators.hpp"

namespace {

using namespace pcq;
using namespace pcq::sim;
using pcq::graph::csr_graph;

// Two diamonds sharing node 2 plus an isolated root 5:
// 0->1, 0->2, 1->3, 2->3, 2->4, 3->4. Depths: 0,1,1,2,3,0.
csr_graph double_diamond() {
  std::vector<csr_graph::edge> edges{{0, 1, 1}, {0, 2, 1}, {1, 3, 1},
                                     {2, 3, 1}, {2, 4, 1}, {3, 4, 1}};
  return csr_graph::from_edges(6, edges);
}

/// Offline re-check of the topological-release invariant: every arc's
/// tail settles strictly before its head.
void check_topological(const csr_graph& dag,
                       const std::vector<csr_graph::node_id>& order) {
  const std::size_t n = dag.num_nodes();
  std::vector<std::size_t> position(n, n);
  CHECK(order.size() == n);
  for (std::size_t i = 0; i < order.size(); ++i) {
    CHECK(order[i] < n);
    CHECK(position[order[i]] == n);  // settled exactly once
    position[order[i]] = i;
  }
  for (csr_graph::node_id u = 0; u < n; ++u) {
    for (const csr_graph::arc& a : dag.out(u)) {
      CHECK(position[u] < position[a.head]);
    }
  }
}

/// One recording run of the DAG executor on a fresh roster queue.
exec::dag_exec_result record_run(const csr_graph& dag, std::size_t threads,
                                 const std::string& queue_name) {
  return bench::with_queue(queue_name, threads, [&](auto& queue) {
    auto res = exec::run_dag_executor(dag, threads, queue, 0, true);
    CHECK(queue.size() == 0);  // termination drained everything
    return res;
  });
}

void check_process(const csr_graph& dag, std::size_t threads,
                   const std::string& queue_name) {
  const std::size_t n = dag.num_nodes();
  const auto res = record_run(dag, threads, queue_name);
  CHECK(res.topo_ok);
  CHECK(res.settled == n);
  CHECK(res.stats.executed == n);
  CHECK(res.stats.spawned == n);  // every task released once
  CHECK(res.outputs == exec::sequential_dag_outputs(dag, 0));
  check_topological(dag, res.settle_order);
  const replay_report ranks = settle_ranks(dag, res.settle_order);
  CHECK(ranks.deletions == n);
  CHECK(ranks.unmatched == 0);
}

/// One thread on a queue whose pops are exact is an EXACT scheduler:
/// every pop is the true minimum of the ready set, which is the minimum
/// of all unsettled tasks (their predecessors have smaller priority), so
/// the settle order is the priority order, the replay sees zero
/// inversions, and a second run settles in the same order.
void check_exact_scheduler(const csr_graph& dag,
                           const std::string& queue_name) {
  const std::vector<std::uint32_t> depth = dag_depths(dag);
  const auto res = record_run(dag, 1, queue_name);
  check_topological(dag, res.settle_order);
  for (std::size_t i = 1; i < res.settle_order.size(); ++i) {
    const csr_graph::node_id a = res.settle_order[i - 1];
    const csr_graph::node_id b = res.settle_order[i];
    CHECK(task_priority(depth[a], a, dag.num_nodes()) <
          task_priority(depth[b], b, dag.num_nodes()));
  }
  const replay_report ranks = settle_ranks(dag, res.settle_order);
  CHECK(ranks.unmatched == 0);
  CHECK(ranks.inversions == 0);
  CHECK(ranks.rank_stats.max() == 0.0);
  CHECK(res.settle_order == record_run(dag, 1, queue_name).settle_order);
}

void check_all_workloads(const std::string& queue_name) {
  {
    graph::random_graph_params params;
    params.nodes = 1200;
    params.avg_degree = 4.0;
    params.seed = 0x61u;
    const csr_graph dag = make_dag(make_random_graph(params));
    check_process(dag, 1, queue_name);
    check_process(dag, 4, queue_name);
  }
  {
    graph::road_network_params params;
    params.width = 20;
    params.height = 20;
    params.seed = 0x62u;
    const csr_graph dag = make_dag(make_road_network(params));
    check_process(dag, 4, queue_name);
  }
}

}  // namespace

int main() {
  // make_dag: every arc low -> high, self-loops dropped, multi-edges and
  // weights preserved.
  {
    std::vector<csr_graph::edge> edges{
        {3, 1, 7}, {1, 3, 2}, {2, 2, 9}, {0, 4, 5}};
    const csr_graph dag = make_dag(csr_graph::from_edges(5, edges));
    CHECK(dag.num_edges() == 3);  // self-loop 2->2 dropped
    CHECK(dag.degree(1) == 2);    // both 1<->3 arcs now 1->3
    const auto row = dag.out(1);
    CHECK(row.begin()[0].head == 3 && row.begin()[1].head == 3);
    CHECK(dag.out(0).begin()[0].head == 4);
    CHECK(dag.out(0).begin()[0].weight == 5);
    for (csr_graph::node_id u = 0; u < dag.num_nodes(); ++u) {
      for (const csr_graph::arc& a : dag.out(u)) CHECK(a.head > u);
    }
  }

  // dag_depths and task_priority on the hand-checked DAG.
  {
    const csr_graph dag = double_diamond();
    const auto depth = dag_depths(dag);
    CHECK(depth[0] == 0 && depth[1] == 1 && depth[2] == 1);
    CHECK(depth[3] == 2 && depth[4] == 3 && depth[5] == 0);
    // Priorities strictly increase along every arc and are unique.
    for (csr_graph::node_id u = 0; u < dag.num_nodes(); ++u) {
      for (const csr_graph::arc& a : dag.out(u)) {
        CHECK(task_priority(depth[u], u, 6) <
              task_priority(depth[a.head], a.head, 6));
      }
    }
  }

  // settle_ranks on hand-ranked orders of the double diamond. Labels in
  // priority order: 0, 5 (depth 0), 1, 2 (depth 1), 3, 4.
  {
    const csr_graph dag = double_diamond();
    // Exact order: every settle is the ready minimum.
    replay_report r = settle_ranks(dag, {0, 5, 1, 2, 3, 4});
    CHECK(r.deletions == 6 && r.unmatched == 0 && r.inversions == 0);
    // After 0: ready {5, 1, 2}; 2 passes 5 and 1 (rank 2), then 1 passes
    // 5 (rank 1); 5, 3 and 4 are then each the only ready task.
    r = settle_ranks(dag, {0, 2, 1, 5, 3, 4});
    CHECK(r.deletions == 6 && r.unmatched == 0 && r.inversions == 2);
    CHECK(r.rank_stats.max() == 2.0);
    CHECK(r.rank_stats.mean() == 0.5);
    // 3 settles before its predecessor 2.
    r = settle_ranks(dag, {0, 1, 3, 2, 4, 5});
    CHECK(r.unmatched > 0);
    // 4 settles twice.
    r = settle_ranks(dag, {0, 5, 1, 2, 3, 4, 4});
    CHECK(r.unmatched == 1 && r.deletions == 6);
    // An id past the last node.
    r = settle_ranks(dag, {6});
    CHECK(r.unmatched == 1 && r.deletions == 0);
  }

  // Hand-checked DAG through every roster queue, then both generator
  // families at 1 and 4 threads.
  const csr_graph dd = double_diamond();
  check_process(dd, 2, "mq_b1.0");
  for (const char* name : testing::kRosterQueues) {
    check_process(dd, 1, name);
    check_all_workloads(name);
  }

  // Every priority queue driven by one thread is an exact scheduler: the
  // strict ones by construction, the k-LSM and the SprayList because one
  // handle sees all of their entries, and the default MultiQueue because
  // at one thread it holds 2 slots and its d = 2 choices cover both. The
  // MultiQueue at beta = 0.5 takes one choice half the time, and the
  // steal pool has no priority order. The fan has more roots than one
  // batched pop takes: a pop of four would run task 6 before task 5,
  // which its last root releases.
  {
    std::vector<csr_graph::edge> edges{{0, 6, 1}, {4, 5, 1}};
    const csr_graph fan = csr_graph::from_edges(7, edges);
    graph::random_graph_params params;
    params.nodes = 800;
    params.avg_degree = 3.0;
    params.seed = 0x63u;
    const csr_graph dag = make_dag(make_random_graph(params));
    for (const csr_graph* g : {&fan, &dag}) {
      for (const std::string name : testing::kRosterQueues) {
        if (name != "mq_b0.5" && name != "steal") {
          check_exact_scheduler(*g, name);
        }
      }
    }
  }

  std::printf("test_graph_process: OK\n");
  return 0;
}
