// Executor conformance over every ready queue of kRosterQueues
// (pq_test_harness.hpp), each built by name through
// benchlib/queue_roster.hpp: the MultiQueue at beta = 1 and 0.5, the four
// baselines and the Chase–Lev steal deque. For each, real-work
// DAG schedules must reproduce the sequential oracle bit-for-bit (the
// kernels are commutative over predecessors, so equality is exact), the
// topological-release invariant must hold inline, and conservation must
// be perfect: every released task runs exactly once (executed ==
// spawned, with known closed-form counts for both workloads). The
// fork-join reduction must match the sequential sum and run exactly one
// task per tree node over a table of (items, grain) shapes. A batch
// whose one push_batch mixes tasks releasing zero, one and two tasks is
// checked on every queue, and on one worker with its exact order and
// publish sizes; so is the full 64-bit id range. On one worker, a
// handler's touch hook must see every task of a popped batch before the
// batch's first task runs, and each task exactly once.

#include "exec/executor.hpp"

#include <atomic>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "test_macros.hpp"
#include "pq_test_harness.hpp"
#include "benchlib/queue_roster.hpp"
#include "core/baselines/coarse_pq.hpp"
#include "exec/dag_workloads.hpp"
#include "graph/generators.hpp"
#include "sim/graph_process.hpp"

namespace {

using pcq::exec::job_context;

// A fork-join shape and its node count, counted by hand from the
// midpoint splits (not by forkjoin_job_count).
struct forkjoin_case {
  std::uint64_t items;
  std::uint64_t grain;
  std::uint64_t nodes;
};

// Empty, single-leaf and exactly-one-grain ranges, odd splits, a grain of
// one (a full tree of 2^16 - 1 nodes), a range that is not a power of
// two times the grain, and a grain of 0, which splits like a grain of 1.
const forkjoin_case kForkjoinCases[] = {
    {0, 64, 1},          {1, 64, 1},         {63, 64, 1},
    {64, 64, 1},         {1000, 7, 463},     {1u << 15, 1, 65535},
    {(1u << 17) + 3, 64, 4101},              {5, 0, 9},
};

struct fixtures {
  pcq::graph::csr_graph grid_dag;
  pcq::graph::csr_graph rnd_dag;
  pcq::graph::csr_graph path_dag;
  pcq::graph::csr_graph star_dag;
  std::vector<std::uint64_t> grid_oracle;
  std::vector<std::uint64_t> rnd_oracle;
  std::vector<std::uint64_t> path_oracle;
  std::vector<std::uint64_t> star_oracle;
  std::vector<pcq::exec::forkjoin_params> fj;  // one per kForkjoinCases entry
  std::vector<std::uint64_t> fj_oracle;
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
  for (const forkjoin_case& c : kForkjoinCases) {
    pcq::exec::forkjoin_params p;
    p.items = c.items;
    p.grain = c.grain;
    p.rounds = 2;
    f.fj.push_back(p);
    f.fj_oracle.push_back(pcq::exec::sequential_forkjoin_sum(p));
    CHECK(pcq::exec::forkjoin_job_count(0, c.items, c.grain) == c.nodes);
  }
  return f;
}

void check_dag(const fixtures& f, const pcq::graph::csr_graph& dag,
               const std::vector<std::uint64_t>& oracle,
               const std::string& queue_name, std::size_t threads) {
  pcq::bench::with_queue(queue_name, threads, [&](auto& queue) {
    const pcq::exec::dag_exec_result r =
        pcq::exec::run_dag_executor(dag, threads, queue, f.rounds);
    CHECK(r.topo_ok);
    CHECK(r.settled == dag.num_nodes());
    CHECK(r.outputs == oracle);
    // Conservation: each node is spawned exactly once (root or release)
    // and every spawned task ran exactly once.
    CHECK(r.stats.spawned == dag.num_nodes());
    CHECK(r.stats.executed == dag.num_nodes());
    CHECK(queue.size() == 0);
  });
}

void check_forkjoin(const fixtures& f, const std::string& queue_name,
                    std::size_t threads) {
  for (std::size_t i = 0; i < f.fj.size(); ++i) {
    pcq::bench::with_queue(queue_name, threads, [&](auto& queue) {
      const pcq::exec::forkjoin_result r =
          pcq::exec::run_forkjoin_executor(threads, queue, f.fj[i]);
      CHECK(r.sum == f.fj_oracle[i]);
      // One task per tree node: joins cascade inline, never through the
      // queue.
      CHECK(r.stats.spawned == kForkjoinCases[i].nodes);
      CHECK(r.stats.executed == kForkjoinCases[i].nodes);
      CHECK(queue.size() == 0);
    });
  }
}

// One batch whose publish mixes tasks that release zero, one and two
// tasks. Roots P, Q, R, S and T are keyed 0, 20, 21, 22 and 23. One
// worker on a strict queue pops them four at a time:
//   - batch 1 (P, Q, R, S) publishes C, D and E (one each from P, Q, R);
//   - batch 2 (C, D, E, T) publishes H and I (C's two), G (D's) and F
//     (E's);
//   - batch 3 (F, G, H, I) publishes nothing.
enum mixed_task { kP, kQ, kR, kS, kT, kC, kD, kE, kF, kG, kH, kI, kMixedTasks };

constexpr std::uint64_t kMixedPrio[kMixedTasks] = {0,  20, 21, 22, 23, 1,
                                                   2,  3,  4,  5,  6,  7};

struct mixed_log {
  std::atomic<std::uint64_t> step{0};
  std::atomic<std::uint64_t> runs[kMixedTasks]{};
  std::atomic<std::uint64_t> seq[kMixedTasks]{};  // step at which it ran
  std::atomic<std::uint64_t> bad_prio{0};
  std::vector<int>* order = nullptr;              // one worker only

  bool before(mixed_task a, mixed_task b) const {
    return seq[a].load() < seq[b].load();
  }
};

struct mixed_handler {
  mixed_log* log;

  void operator()(job_context& ctx, std::uint64_t priority,
                  std::uint64_t id) const {
    mixed_log& l = *log;
    if (id >= kMixedTasks || priority != kMixedPrio[id]) {
      l.bad_prio.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    l.seq[id].store(l.step.fetch_add(1, std::memory_order_relaxed),
                    std::memory_order_relaxed);
    l.runs[id].fetch_add(1, std::memory_order_relaxed);
    if (l.order != nullptr) l.order->push_back(static_cast<int>(id));
    const auto release = [&ctx](mixed_task t) { ctx.release(kMixedPrio[t], t); };
    switch (id) {
      case kP: release(kC); break;
      case kQ: release(kD); break;
      case kR: release(kE); break;
      case kC: release(kH); release(kI); break;
      case kD: release(kG); break;
      case kE: release(kF); break;
      default: break;
    }
  }
};

template <typename Queue>
pcq::exec::exec_stats run_mixed_publish(Queue& queue, std::size_t threads,
                                        mixed_log& log) {
  pcq::exec::executor<Queue, mixed_handler> ex(queue, mixed_handler{&log});
  for (const mixed_task t : {kP, kQ, kR, kS, kT}) ex.submit(kMixedPrio[t], t);
  return ex.run(threads);
}

// Any queue, any worker count: every task runs once, after its releaser,
// at the priority it was released with, and the counts are exact.
void check_mixed_publish(const std::string& queue_name) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    pcq::bench::with_queue(queue_name, threads, [&](auto& queue) {
      mixed_log log;
      const pcq::exec::exec_stats stats =
          run_mixed_publish(queue, threads, log);
      CHECK(stats.executed == kMixedTasks);
      CHECK(stats.spawned == kMixedTasks);
      CHECK(log.bad_prio.load() == 0);
      for (const auto& r : log.runs) CHECK(r.load() == 1);
      CHECK(log.before(kP, kC) && log.before(kC, kH) && log.before(kC, kI));
      CHECK(log.before(kQ, kD) && log.before(kD, kG));
      CHECK(log.before(kR, kE) && log.before(kE, kF));
      CHECK(queue.size() == 0);
    });
  }
}

// A coarse queue whose handles log the size of every push_batch.
class publish_log_pq {
 public:
  using inner_t = pcq::coarse_pq<std::uint64_t, std::uint64_t>;
  using entry = inner_t::entry;

  class handle {
   public:
    handle(handle&&) = default;
    handle(const handle&) = delete;
    handle& operator=(const handle&) = delete;

    void push(const std::uint64_t& key, const std::uint64_t& value) {
      inner_.push(key, value);
    }
    void push_batch(const entry* items, std::size_t n) {
      log_->push_back(n);
      inner_.push_batch(items, n);
    }
    bool try_pop(std::uint64_t& key, std::uint64_t& value) {
      return inner_.try_pop(key, value);
    }
    std::size_t try_pop_batch(entry* out, std::size_t max_n) {
      return inner_.try_pop_batch(out, max_n);
    }

   private:
    friend class publish_log_pq;
    handle(inner_t::handle&& inner, std::vector<std::size_t>* log)
        : inner_(std::move(inner)), log_(log) {}
    inner_t::handle inner_;
    std::vector<std::size_t>* log_;
  };

  handle get_handle(std::size_t tid) {
    return handle(queue_.get_handle(tid), &publishes);
  }
  std::size_t size() const { return queue_.size(); }

  std::vector<std::size_t> publishes;  // one worker only

 private:
  inner_t queue_;
};

// Two binary trees of tasks, ids [0, 64) and [64, 128): id i releases
// its children 2i+1 and 2i+2 (offset within its tree). Tree A's root is
// submitted; tree B's root is released by A's last id, so B runs only
// after a chain through A. Each id is released at tree_prio(id), which
// its handler checks against the entry it was popped from. Two run()
// cycles on one executor and queue each conserve their own counts.
constexpr std::uint64_t kTreeIds = 64;
constexpr std::uint64_t kTreeTasks = 2 * kTreeIds;

std::uint64_t tree_prio(std::uint64_t id) { return (id * 37) % 101; }

struct tree_log {
  std::atomic<std::uint64_t> runs[kTreeTasks]{};
  std::atomic<std::uint64_t> bad_prio{0};
};

struct tree_handler {
  tree_log* log;

  void operator()(job_context& ctx, std::uint64_t priority,
                  std::uint64_t id) const {
    if (id >= kTreeTasks || priority != tree_prio(id)) {
      log->bad_prio.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    log->runs[id].fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t base = id < kTreeIds ? 0 : kTreeIds;
    for (const std::uint64_t c : {2 * (id - base) + 1, 2 * (id - base) + 2})
      if (c < kTreeIds) ctx.release(tree_prio(base + c), base + c);
    if (id == kTreeIds - 1) ctx.release(tree_prio(kTreeIds), kTreeIds);
  }
};

void check_trees(const std::string& queue_name) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    pcq::bench::with_queue(queue_name, threads, [&](auto& queue) {
      using queue_t = std::decay_t<decltype(queue)>;
      tree_log log;
      pcq::exec::executor<queue_t, tree_handler> ex(queue, tree_handler{&log});
      for (std::uint64_t cycle = 1; cycle <= 2; ++cycle) {
        ex.submit(tree_prio(0), 0);
        const pcq::exec::exec_stats stats = ex.run(threads);
        for (const auto& r : log.runs) CHECK(r.load() == cycle);
        CHECK(log.bad_prio.load() == 0);
        CHECK(stats.executed == kTreeTasks);
        CHECK(stats.spawned == kTreeTasks);
        CHECK(queue.size() == 0);
      }
    });
  }
}

// The id range: every 64-bit id reaches the handler untruncated. The
// root ~0 releases 2^63 and 0; each of the three runs exactly once, at
// the priority it was released with.
constexpr std::uint64_t kTopId = ~std::uint64_t{0};
constexpr std::uint64_t kHighBit = std::uint64_t{1} << 63;

struct id_probe {
  std::atomic<std::uint64_t>* seen;  // [top, high bit, zero, anything else]

  void operator()(job_context& ctx, std::uint64_t priority,
                  std::uint64_t id) const {
    if (id == kTopId && priority == kTopId - 1) {
      seen[0].fetch_add(1, std::memory_order_relaxed);
      ctx.release(2, kHighBit);
      ctx.release(1, 0);
    } else if (id == kHighBit && priority == 2) {
      seen[1].fetch_add(1, std::memory_order_relaxed);
    } else if (id == 0 && priority == 1) {
      seen[2].fetch_add(1, std::memory_order_relaxed);
    } else {
      seen[3].fetch_add(1, std::memory_order_relaxed);
    }
  }
};

void check_id_range(const std::string& queue_name) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    pcq::bench::with_queue(queue_name, threads, [&](auto& queue) {
      using queue_t = std::decay_t<decltype(queue)>;
      std::atomic<std::uint64_t> seen[4]{};
      pcq::exec::executor<queue_t, id_probe> ex(queue, id_probe{seen});
      ex.submit(kTopId - 1, kTopId);
      const pcq::exec::exec_stats stats = ex.run(threads);
      CHECK(seen[0].load() == 1 && seen[1].load() == 1 &&
            seen[2].load() == 1);
      CHECK(seen[3].load() == 0);
      CHECK(stats.executed == 3);
      CHECK(stats.spawned == 3);
      CHECK(queue.size() == 0);
    });
  }
}

void check_queue(const fixtures& f, const std::string& queue_name) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    check_dag(f, f.grid_dag, f.grid_oracle, queue_name, threads);
    check_dag(f, f.rnd_dag, f.rnd_oracle, queue_name, threads);
    check_forkjoin(f, queue_name, threads);
  }
  check_dag(f, f.path_dag, f.path_oracle, queue_name, 4);
  check_dag(f, f.star_dag, f.star_oracle, queue_name, 4);
  check_mixed_publish(queue_name);
  check_trees(queue_name);
  check_id_range(queue_name);
}

// Records the order in which one worker runs the tasks: roots 10..13
// each release child id - 10, keyed by its id.
struct batch_order {
  std::vector<int>* order;

  void operator()(job_context& ctx, std::uint64_t priority,
                  std::uint64_t id) const {
    CHECK(ctx.worker_id() == 0);
    CHECK(priority == id);
    order->push_back(static_cast<int>(id));
    if (id >= 10) ctx.release(id - 10, id - 10);
  }
};

// Logs every touch and every run on one worker: the kDrainBatch roots
// 0, 1, ... each release child id + kDrainBatch, keyed by its id, so
// the worker pops two full batches.
struct touch_probe {
  std::vector<std::pair<char, std::uint64_t>>* log;

  void touch(std::uint64_t id) const { log->emplace_back('t', id); }

  void operator()(job_context& ctx, std::uint64_t /*priority*/,
                  std::uint64_t id) const {
    log->emplace_back('r', id);
    constexpr std::uint64_t k = pcq::kDrainBatch;
    if (id < k) ctx.release(id + k, id + k);
  }
};

static_assert(pcq::exec::has_touch<touch_probe>::value, "touch is detected");
static_assert(!pcq::exec::has_touch<batch_order>::value,
              "a handler without touch gets the no-op");

}  // namespace

int main() {
  const fixtures f = make_fixtures();

  // Every roster queue, the steal-deque scheduler baseline included (not
  // a priority queue at all — correctness must be schedule-independent,
  // which is the point).
  for (const char* name : pcq::testing::kRosterQueues) check_queue(f, name);

  // One worker, one batch: the drain loop pops four roots under one
  // lock and runs all of them before it pops again, so a child keyed
  // below the rest of the batch still waits for the batch to finish. The
  // order is the batch in key order, then the children in key order.
  {
    static_assert(pcq::kDrainBatch == 4, "the batch below holds 4 roots");
    pcq::coarse_pq<std::uint64_t, std::uint64_t> q;
    std::vector<int> order;
    pcq::exec::executor<pcq::coarse_pq<std::uint64_t, std::uint64_t>,
                        batch_order>
        ex(q, batch_order{&order});
    for (std::uint64_t r = 10; r < 14; ++r) ex.submit(r, r);
    const pcq::exec::exec_stats stats = ex.run(1);
    CHECK(order == (std::vector<int>{10, 11, 12, 13, 0, 1, 2, 3}));
    CHECK(stats.executed == 8);
    CHECK(stats.spawned == 8);
    CHECK(q.size() == 0);
  }

  // The touch hook: every task of a popped batch is touched before the
  // batch's first task runs, and every task is touched exactly once; the
  // exact log pins both.
  {
    pcq::coarse_pq<std::uint64_t, std::uint64_t> q;
    std::vector<std::pair<char, std::uint64_t>> log;
    pcq::exec::executor<pcq::coarse_pq<std::uint64_t, std::uint64_t>,
                        touch_probe>
        ex(q, touch_probe{&log});
    for (std::uint64_t r = 0; r < pcq::kDrainBatch; ++r) ex.submit(r, r);
    const pcq::exec::exec_stats stats = ex.run(1);
    constexpr std::uint64_t k = pcq::kDrainBatch;
    std::vector<std::pair<char, std::uint64_t>> expected;
    for (const std::uint64_t base : {std::uint64_t{0}, k}) {
      for (std::uint64_t i = 0; i < k; ++i) expected.emplace_back('t', base + i);
      for (std::uint64_t i = 0; i < k; ++i) expected.emplace_back('r', base + i);
    }
    CHECK(log == expected);
    CHECK(stats.executed == 2 * k);
    CHECK(stats.spawned == 2 * k);
    CHECK(q.size() == 0);
  }

  // The mixed batches above on one worker: the exact order, and one
  // push_batch per batch that produced anything, of 3 and 4 tasks.
  {
    publish_log_pq q;
    mixed_log log;
    std::vector<int> order;
    log.order = &order;
    const pcq::exec::exec_stats stats = run_mixed_publish(q, 1, log);
    CHECK(order == (std::vector<int>{kP, kQ, kR, kS, kC, kD, kE, kT, kF, kG,
                                     kH, kI}));
    CHECK(q.publishes == (std::vector<std::size_t>{3, 4}));
    CHECK(stats.executed == kMixedTasks);
    CHECK(stats.spawned == kMixedTasks);
    CHECK(q.size() == 0);
  }

  std::printf("test_exec OK\n");
  return 0;
}
