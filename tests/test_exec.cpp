// Executor conformance over every ready-queue implementation: the five
// pq-concept queues plus the Chase–Lev steal deque. For each, real-work
// DAG schedules must reproduce the sequential oracle bit-for-bit (the
// kernels are commutative over predecessors, so equality is exact), the
// topological-release invariant must hold inline, and conservation must
// be perfect: every spawned job runs exactly once (executed == spawned,
// with known closed-form counts for both workloads).

#include "exec/executor.hpp"

#include <cstdint>
#include <memory>
#include <vector>

#include "test_macros.hpp"
#include "core/baselines/coarse_pq.hpp"
#include "core/baselines/klsm_pq.hpp"
#include "core/baselines/lj_skiplist_pq.hpp"
#include "core/baselines/spray_pq.hpp"
#include "core/multi_queue.hpp"
#include "exec/dag_workloads.hpp"
#include "exec/steal_deque.hpp"
#include "graph/generators.hpp"
#include "sim/graph_process.hpp"

namespace {

using pcq::exec::job_context;

struct fixtures {
  pcq::graph::csr_graph grid_dag;
  pcq::graph::csr_graph rnd_dag;
  pcq::graph::csr_graph path_dag;
  pcq::graph::csr_graph star_dag;
  std::vector<std::uint64_t> grid_oracle;
  std::vector<std::uint64_t> rnd_oracle;
  std::vector<std::uint64_t> path_oracle;
  std::vector<std::uint64_t> star_oracle;
  pcq::exec::forkjoin_params fj;
  std::uint64_t fj_oracle = 0;
  std::uint64_t fj_jobs = 0;
  std::uint32_t rounds = 8;
};

fixtures make_fixtures() {
  fixtures f;
  pcq::graph::road_network_params grid;
  grid.width = 12;
  grid.height = 12;
  f.grid_dag = pcq::sim::make_dag(pcq::graph::make_road_network(grid));
  pcq::graph::random_graph_params rnd;
  rnd.nodes = 400;
  rnd.avg_degree = 3.0;
  f.rnd_dag = pcq::sim::make_dag(pcq::graph::make_random_graph(rnd));
  // The two shapes that pin each branch of the in-flight settle rule:
  // every task of a 1xN path releases exactly one successor (k = 1, no
  // counter RMW); the star's root releases all leaves at once (k >= 2)
  // and each leaf releases nothing (k = 0).
  std::vector<pcq::graph::csr_graph::edge> path, star;
  for (std::uint32_t v = 0; v + 1 < 1000; ++v) path.push_back({v, v + 1, 1});
  for (std::uint32_t v = 1; v < 1000; ++v) star.push_back({0, v, 1});
  f.path_dag = pcq::graph::csr_graph::from_edges(1000, path);
  f.star_dag = pcq::graph::csr_graph::from_edges(1000, star);
  f.grid_oracle = pcq::exec::sequential_dag_outputs(f.grid_dag, f.rounds);
  f.rnd_oracle = pcq::exec::sequential_dag_outputs(f.rnd_dag, f.rounds);
  f.path_oracle = pcq::exec::sequential_dag_outputs(f.path_dag, f.rounds);
  f.star_oracle = pcq::exec::sequential_dag_outputs(f.star_dag, f.rounds);
  f.fj.items = 4096;
  f.fj.grain = 64;
  f.fj.rounds = 4;
  f.fj_oracle = pcq::exec::sequential_forkjoin_sum(f.fj);
  f.fj_jobs = pcq::exec::forkjoin_job_count(0, f.fj.items, f.fj.grain);
  return f;
}

template <typename MakeQueue>
void check_dag(const fixtures& f, const pcq::graph::csr_graph& dag,
               const std::vector<std::uint64_t>& oracle, MakeQueue make,
               std::size_t threads) {
  auto queue = make(threads);
  const pcq::exec::dag_exec_result r =
      pcq::exec::run_dag_executor(dag, threads, *queue, f.rounds);
  CHECK(r.topo_ok);
  CHECK(r.settled == dag.num_nodes());
  CHECK(r.outputs == oracle);
  // Conservation: each node is spawned exactly once (root or release)
  // and every spawned job ran exactly once.
  CHECK(r.stats.spawned == dag.num_nodes());
  CHECK(r.stats.executed == dag.num_nodes());
  CHECK(queue->size() == 0);
}

template <typename MakeQueue>
void check_forkjoin(const fixtures& f, MakeQueue make, std::size_t threads) {
  auto queue = make(threads);
  const pcq::exec::forkjoin_result r =
      pcq::exec::run_forkjoin_executor(threads, *queue, f.fj);
  CHECK(r.sum == f.fj_oracle);
  // The splitting tree is deterministic: the exact job count is known,
  // and hand-off means continuations count as their own executions.
  CHECK(r.stats.spawned == f.fj_jobs);
  CHECK(r.stats.executed == f.fj_jobs);
  CHECK(queue->size() == 0);
}

template <typename MakeQueue>
void check_queue(const fixtures& f, MakeQueue make) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    check_dag(f, f.grid_dag, f.grid_oracle, make, threads);
    check_dag(f, f.rnd_dag, f.rnd_oracle, make, threads);
    check_forkjoin(f, make, threads);
  }
  check_dag(f, f.path_dag, f.path_oracle, make, 4);
  check_dag(f, f.star_dag, f.star_oracle, make, 4);
}

}  // namespace

int main() {
  const fixtures f = make_fixtures();

  // MultiQueue at beta = 1 and beta = 0.5 (the paper's relaxations).
  check_queue(f, [](std::size_t threads) {
    pcq::mq_config cfg;
    return std::make_unique<pcq::multi_queue<std::uint64_t, std::uint64_t>>(
        cfg, threads);
  });
  check_queue(f, [](std::size_t threads) {
    pcq::mq_config cfg;
    cfg.beta = 0.5;
    return std::make_unique<pcq::multi_queue<std::uint64_t, std::uint64_t>>(
        cfg, threads);
  });

  // The four baselines.
  check_queue(f, [](std::size_t) {
    return std::make_unique<pcq::coarse_pq<std::uint64_t, std::uint64_t>>();
  });
  check_queue(f, [](std::size_t) {
    return std::make_unique<
        pcq::lj_skiplist_pq<std::uint64_t, std::uint64_t>>();
  });
  check_queue(f, [](std::size_t threads) {
    return std::make_unique<pcq::spray_pq<std::uint64_t, std::uint64_t>>(
        threads);
  });
  check_queue(f, [](std::size_t) {
    return std::make_unique<pcq::klsm_pq<std::uint64_t, std::uint64_t>>(256);
  });

  // The steal-deque scheduler baseline (not a priority queue at all —
  // correctness must be schedule-independent, which is the point).
  check_queue(f, [](std::size_t threads) {
    return std::make_unique<
        pcq::exec::steal_deque_pool<std::uint64_t, std::uint64_t>>(threads);
  });

  // Chained awaits through one strict queue, single worker: the hand-off
  // order is fully deterministic, so assert the exact sequence — body,
  // children by priority, continuation, its child, final continuation.
  {
    pcq::coarse_pq<std::uint64_t, std::uint64_t> q;
    pcq::exec::executor<pcq::coarse_pq<std::uint64_t, std::uint64_t>> ex(q);
    std::vector<int> order;
    ex.submit(10, [&](job_context& ctx) {
      CHECK(ctx.worker_id() == 0);
      order.push_back(0);
      ctx.spawn(1, [&](job_context&) { order.push_back(1); });
      ctx.spawn(2, [&](job_context&) { order.push_back(2); });
      ctx.then([&](job_context& cont) {
        order.push_back(3);
        cont.spawn(1, [&](job_context&) { order.push_back(4); });
        cont.then([&](job_context&) { order.push_back(5); });
      });
    });
    const pcq::exec::exec_stats stats = ex.run(1);
    CHECK(order == (std::vector<int>{0, 1, 2, 3, 4, 5}));
    CHECK(stats.executed == 6);
    CHECK(stats.spawned == 6);
  }

  // A job with children but no continuation, and detached spawns from a
  // running body: both complete and conserve counts.
  {
    pcq::coarse_pq<std::uint64_t, std::uint64_t> q;
    pcq::exec::executor<pcq::coarse_pq<std::uint64_t, std::uint64_t>> ex(q);
    int hits = 0;
    ex.submit(1, [&](job_context& ctx) {
      ++hits;
      ctx.spawn(1, [&](job_context&) { ++hits; });        // awaited, no then
      ctx.spawn_detached(2, [&](job_context&) { ++hits; });  // independent
    });
    const pcq::exec::exec_stats stats = ex.run(1);
    CHECK(hits == 3);
    CHECK(stats.executed == 3);
    CHECK(stats.spawned == 3);
  }

  std::printf("test_exec OK\n");
  return 0;
}
