// Executor conformance over every ready-queue implementation: the five
// pq-concept queues plus the Chase–Lev steal deque. For each, real-work
// DAG schedules (id tasks) must reproduce the sequential oracle
// bit-for-bit (the kernels are commutative over predecessors, so
// equality is exact), the topological-release invariant must hold
// inline, and conservation must be perfect: every spawned task runs
// exactly once (executed == spawned, with known closed-form counts for
// both workloads). A batch whose one push_batch mixes awaited children,
// detached spawns and a cascaded continuation re-push is checked on
// every queue, and on one worker with its exact order and publish sizes;
// so is a run that mixes id tasks with closures.

#include "exec/executor.hpp"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
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
using pcq::exec::job_fn;

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

// An await chain three generations deep: every inner node spawns a
// batch of children, and its continuation checks that batch, spawns a
// second one and calls then() again; the second continuation checks it
// too and reports the subtree's leaf count. Children report through
// plain (non-atomic) cells, so a continuation that ran before one of its
// children finished is a wrong count here and a data race under TSan.
constexpr int kChainGens = 3;
constexpr std::uint64_t kChainFanout = 2;  // children per batch

std::uint64_t chain_leaves(int gen) {
  return gen == kChainGens ? 1 : 2 * kChainFanout * chain_leaves(gen + 1);
}

// Jobs the chain runs (and pushes): three per inner node, one per leaf.
std::uint64_t chain_jobs(int gen) {
  return gen == kChainGens ? 1 : 3 + 2 * kChainFanout * chain_jobs(gen + 1);
}

template <typename MakeQueue>
void check_await_chain(MakeQueue make) {
  constexpr std::size_t threads = 4;
  auto queue = make(threads);
  pcq::exec::executor<typename decltype(queue)::element_type> ex(*queue);
  std::atomic<std::uint64_t> early{0};  // continuations that ran too soon
  std::function<job_fn(int, std::uint64_t*)> make_node =
      [&](int gen, std::uint64_t* out) -> job_fn {
    const std::uint64_t prio = static_cast<std::uint64_t>(kChainGens - gen);
    if (gen == kChainGens) return [out](job_context&) { *out = 1; };
    return [&, gen, out, prio](job_context& ctx) {
      std::uint64_t* cells = new std::uint64_t[2 * kChainFanout]();
      const std::uint64_t want = chain_leaves(gen + 1);
      const auto check = [&early, cells, want](std::uint64_t from) {
        for (std::uint64_t i = from; i < from + kChainFanout; ++i)
          if (cells[i] != want) early.fetch_add(1, std::memory_order_relaxed);
      };
      for (std::uint64_t i = 0; i < kChainFanout; ++i)
        ctx.spawn(prio, make_node(gen + 1, &cells[i]));
      ctx.then([&, gen, out, prio, cells, check](job_context& c1) {
        check(0);
        for (std::uint64_t i = kChainFanout; i < 2 * kChainFanout; ++i)
          c1.spawn(prio, make_node(gen + 1, &cells[i]));
        c1.then([out, cells, check](job_context&) {
          check(kChainFanout);
          std::uint64_t sum = 0;
          for (std::uint64_t i = 0; i < 2 * kChainFanout; ++i) sum += cells[i];
          *out = sum;
          delete[] cells;
        });
      });
    };
  };
  std::uint64_t total = 0;
  ex.submit(0, make_node(0, &total));
  const pcq::exec::exec_stats stats = ex.run(threads);
  CHECK(early.load() == 0);
  CHECK(total == chain_leaves(0));
  CHECK(stats.executed == chain_jobs(0));
  CHECK(stats.spawned == chain_jobs(0));
  CHECK(queue->size() == 0);
}

// Two run() cycles on one executor and queue: each conserves its own
// counts, and jobs recycled in the first run do not leak into or
// corrupt the second (LSan checks the former under ASan).
template <typename MakeQueue>
void check_back_to_back(MakeQueue make) {
  constexpr std::size_t threads = 4;
  constexpr std::uint64_t roots = 64;
  auto queue = make(threads);
  pcq::exec::executor<typename decltype(queue)::element_type> ex(*queue);
  for (int cycle = 0; cycle < 2; ++cycle) {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> early{0};
    for (std::uint64_t r = 0; r < roots; ++r) {
      ex.submit(r, [&, r](job_context& ctx) {
        hits.fetch_add(1, std::memory_order_relaxed);
        std::uint64_t* done = new std::uint64_t[2]();
        ctx.spawn(r, [done](job_context&) { done[0] = 1; });
        ctx.spawn(r + 1, [done](job_context&) { done[1] = 1; });
        ctx.spawn_detached(r, [&](job_context&) {
          hits.fetch_add(1, std::memory_order_relaxed);
        });
        ctx.then([&, done](job_context&) {
          if (done[0] + done[1] != 2)
            early.fetch_add(1, std::memory_order_relaxed);
          delete[] done;
        });
      });
    }
    const pcq::exec::exec_stats stats = ex.run(threads);
    // Per root: body, two children, one detached job, one continuation.
    CHECK(hits.load() == 2 * roots);
    CHECK(early.load() == 0);
    CHECK(stats.executed == 5 * roots);
    CHECK(stats.spawned == 5 * roots);
    CHECK(queue->size() == 0);
  }
}

// One batch whose publish mixes all three kinds of product. Roots P, Q,
// R, S and T are keyed 0, 20, 21, 22 and 23. One worker on a strict
// queue pops them four at a time:
//   - batch 1 (P, Q, R, S) publishes C (P's awaited child), D (Q's
//     detached spawn) and E (R's awaited child);
//   - batch 2 (C, D, E, T) publishes P again (C completes it: a cascaded
//     continuation re-push), G (D's detached spawn) and F (E's awaited
//     child);
//   - batch 3 (P's continuation, F, G) publishes R again (F completes E,
//     which completes R), and batch 4 runs R's continuation.
enum mixed_job { kP, kQ, kR, kS, kT, kC, kD, kE, kF, kG, kP2, kR2, kMixedJobs };

struct mixed_log {
  std::atomic<std::uint64_t> step{0};
  std::atomic<std::uint64_t> runs[kMixedJobs]{};
  std::atomic<std::uint64_t> seq[kMixedJobs]{};  // step at which it ran
  std::vector<int>* order = nullptr;             // one worker only

  void run(mixed_job j) {
    seq[j].store(step.fetch_add(1, std::memory_order_relaxed),
                 std::memory_order_relaxed);
    runs[j].fetch_add(1, std::memory_order_relaxed);
    if (order != nullptr) order->push_back(j);
  }
  bool before(mixed_job a, mixed_job b) const {
    return seq[a].load() < seq[b].load();
  }
};

template <typename Queue>
pcq::exec::exec_stats run_mixed_publish(Queue& queue, std::size_t threads,
                                        mixed_log& log) {
  pcq::exec::executor<Queue> ex(queue);
  mixed_log* l = &log;
  ex.submit(0, [l](job_context& ctx) {
    l->run(kP);
    ctx.spawn(1, [l](job_context&) { l->run(kC); });
    ctx.then([l](job_context&) { l->run(kP2); });
  });
  ex.submit(20, [l](job_context& ctx) {
    l->run(kQ);
    ctx.spawn_detached(2, [l](job_context& c) {
      l->run(kD);
      c.spawn_detached(5, [l](job_context&) { l->run(kG); });
    });
  });
  ex.submit(21, [l](job_context& ctx) {
    l->run(kR);
    ctx.spawn(3, [l](job_context& c) {
      l->run(kE);
      c.spawn(4, [l](job_context&) { l->run(kF); });
    });
    ctx.then([l](job_context&) { l->run(kR2); });
  });
  ex.submit(22, [l](job_context&) { l->run(kS); });
  ex.submit(23, [l](job_context&) { l->run(kT); });
  return ex.run(threads);
}

// Any queue, any worker count: every job runs once, after what it
// awaits, and the counts are exact (five roots, five spawns and two
// continuation re-pushes).
template <typename MakeQueue>
void check_mixed_publish(MakeQueue make) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    auto queue = make(threads);
    mixed_log log;
    const pcq::exec::exec_stats stats =
        run_mixed_publish(*queue, threads, log);
    CHECK(stats.executed == kMixedJobs);
    CHECK(stats.spawned == kMixedJobs);
    for (const auto& r : log.runs) CHECK(r.load() == 1);
    CHECK(log.before(kP, kC) && log.before(kC, kP2));
    CHECK(log.before(kQ, kD) && log.before(kD, kG));
    CHECK(log.before(kR, kE) && log.before(kE, kF) && log.before(kF, kR2));
    CHECK(queue->size() == 0);
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

// Id tasks and closures in one run. Two binary trees of id tasks, ids
// [0, 64) and [64, 128): id i releases its children 2i+1 and 2i+2 (offset
// within its tree). Tree A's root is submitted; tree B's root is released
// by the continuation Z of a closure root X that awaits a child Y. Every
// eighth id of tree A spawns a detached closure W that awaits a child V
// and continues with U. Each id is released at mixed_prio(id), which its
// handler checks against the entry it was popped from.
constexpr std::uint64_t kTreeIds = 64;
constexpr std::uint64_t kMixedIds = 2 * kTreeIds;
constexpr std::uint64_t kMixedW = kTreeIds / 8;
// Ids, X/Y/Z, and three closures per W.
constexpr std::uint64_t kMixedTasks = kMixedIds + 3 + 3 * kMixedW;

std::uint64_t mixed_prio(std::uint64_t id) { return (id * 37) % 101; }

struct mixed_ids_log {
  std::atomic<std::uint64_t> id_runs[kMixedIds]{};
  std::atomic<std::uint64_t> bad_prio{0};
  std::atomic<std::uint64_t> x{0}, y{0}, z{0}, w{0}, v{0}, u{0};
  std::atomic<std::uint64_t> early{0};  // a continuation ahead of its child
};

struct mixed_ids_handler {
  mixed_ids_log* log;

  void operator()(job_context& ctx, std::uint64_t priority,
                  std::uint64_t id) const {
    mixed_ids_log* l = log;
    if (id >= kMixedIds || priority != mixed_prio(id)) {
      l->bad_prio.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    l->id_runs[id].fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t base = id < kTreeIds ? 0 : kTreeIds;
    for (const std::uint64_t c : {2 * (id - base) + 1, 2 * (id - base) + 2})
      if (c < kTreeIds) ctx.release(mixed_prio(base + c), base + c);
    if (base == 0 && id % 8 == 0) {
      ctx.spawn_detached(priority, [l](job_context& c) {
        l->w.fetch_add(1, std::memory_order_relaxed);
        std::uint64_t* done = new std::uint64_t(0);
        c.spawn(1, [l, done](job_context&) {
          l->v.fetch_add(1, std::memory_order_relaxed);
          *done = 1;
        });
        c.then([l, done](job_context&) {
          if (*done != 1) l->early.fetch_add(1, std::memory_order_relaxed);
          l->u.fetch_add(1, std::memory_order_relaxed);
          delete done;
        });
      });
    }
  }
};

template <typename MakeQueue>
void check_mixed_ids(MakeQueue make) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    auto queue = make(threads);
    using queue_t = typename decltype(queue)::element_type;
    mixed_ids_log log;
    mixed_ids_log* l = &log;
    pcq::exec::executor<queue_t, mixed_ids_handler> ex(*queue,
                                                       mixed_ids_handler{l});
    ex.submit_id(mixed_prio(0), 0);
    ex.submit(50, [l](job_context& ctx) {
      l->x.fetch_add(1, std::memory_order_relaxed);
      std::uint64_t* done = new std::uint64_t(0);
      ctx.spawn(2, [l, done](job_context&) {
        l->y.fetch_add(1, std::memory_order_relaxed);
        *done = 1;
      });
      ctx.then([l, done](job_context& c) {
        if (*done != 1) l->early.fetch_add(1, std::memory_order_relaxed);
        l->z.fetch_add(1, std::memory_order_relaxed);
        delete done;
        c.release(mixed_prio(kTreeIds), kTreeIds);
      });
    });
    const pcq::exec::exec_stats stats = ex.run(threads);
    for (const auto& r : log.id_runs) CHECK(r.load() == 1);
    CHECK(log.bad_prio.load() == 0);
    CHECK(log.x.load() == 1 && log.y.load() == 1 && log.z.load() == 1);
    CHECK(log.w.load() == kMixedW && log.v.load() == kMixedW &&
          log.u.load() == kMixedW);
    CHECK(log.early.load() == 0);
    CHECK(stats.executed == kMixedTasks);
    CHECK(stats.spawned == kMixedTasks);
    CHECK(queue->size() == 0);
  }
}

// The handler of the id-range cell: records what it was called with and
// what the context refused.
struct id_probe {
  std::uint64_t* seen_id;
  std::uint64_t* seen_prio;
  int* refused;

  void operator()(job_context& ctx, std::uint64_t priority,
                  std::uint64_t id) const {
    *seen_id = id;
    *seen_prio = priority;
    try {
      ctx.release(0, std::uint64_t{1} << 63);
    } catch (const std::invalid_argument&) {
      ++*refused;
    }
    try {
      ctx.spawn(0, [](job_context&) {});
    } catch (const std::logic_error&) {
      ++*refused;
    }
    try {
      ctx.then([](job_context&) {});
    } catch (const std::logic_error&) {
      ++*refused;
    }
  }
};

template <typename MakeQueue>
void check_queue(const fixtures& f, MakeQueue make) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    check_dag(f, f.grid_dag, f.grid_oracle, make, threads);
    check_dag(f, f.rnd_dag, f.rnd_oracle, make, threads);
    check_forkjoin(f, make, threads);
  }
  check_dag(f, f.path_dag, f.path_oracle, make, 4);
  check_dag(f, f.star_dag, f.star_oracle, make, 4);
  check_await_chain(make);
  check_back_to_back(make);
  check_mixed_publish(make);
  check_mixed_ids(make);
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

  // One worker, one batch: the drain loop pops four roots under one
  // lock and runs all of them before it pops again, so a child keyed
  // below the rest of the batch still waits for the batch to finish. The
  // order is the batch in key order, then the children in key order.
  {
    static_assert(pcq::kDrainBatch == 4, "the batch below holds 4 roots");
    pcq::coarse_pq<std::uint64_t, std::uint64_t> q;
    pcq::exec::executor<pcq::coarse_pq<std::uint64_t, std::uint64_t>> ex(q);
    std::vector<int> order;
    for (int r = 0; r < 4; ++r) {
      ex.submit(10 + r, [&, r](job_context& ctx) {
        order.push_back(10 + r);
        ctx.spawn(r, [&, r](job_context&) { order.push_back(r); });
      });
    }
    const pcq::exec::exec_stats stats = ex.run(1);
    CHECK(order == (std::vector<int>{10, 11, 12, 13, 0, 1, 2, 3}));
    CHECK(stats.executed == 8);
    CHECK(stats.spawned == 8);
    CHECK(q.size() == 0);
  }

  // The mixed batches above on one worker: the exact order, and one
  // push_batch per batch that produced anything, of 3, 3 and 1 jobs.
  {
    publish_log_pq q;
    mixed_log log;
    std::vector<int> order;
    log.order = &order;
    const pcq::exec::exec_stats stats = run_mixed_publish(q, 1, log);
    CHECK(order == (std::vector<int>{kP, kQ, kR, kS, kC, kD, kE, kT, kP2, kF,
                                     kG, kR2}));
    CHECK(q.publishes == (std::vector<std::size_t>{3, 3, 1}));
    CHECK(stats.executed == kMixedJobs);
    CHECK(stats.spawned == kMixedJobs);
    CHECK(q.size() == 0);
  }

  // Id range: 2^63 is refused by submit_id and by release, and the
  // largest id, 2^63 - 1, reaches the handler untruncated together with
  // its entry's priority. An id task has no record to await or continue,
  // so spawn() and then() refuse too; a refused call queues nothing.
  {
    pcq::coarse_pq<std::uint64_t, std::uint64_t> q;
    std::uint64_t seen_id = 0;
    std::uint64_t seen_prio = 0;
    int refused = 0;
    pcq::exec::executor<pcq::coarse_pq<std::uint64_t, std::uint64_t>, id_probe>
        ex(q, id_probe{&seen_id, &seen_prio, &refused});
    CHECK_THROWS(ex.submit_id(7, std::uint64_t{1} << 63), std::invalid_argument);
    CHECK_THROWS(ex.submit_id(7, ~std::uint64_t{0}), std::invalid_argument);
    const std::uint64_t top = (std::uint64_t{1} << 63) - 1;
    ex.submit_id(~std::uint64_t{0} - 1, top);
    const pcq::exec::exec_stats stats = ex.run(1);
    CHECK(seen_id == top);
    CHECK(seen_prio == ~std::uint64_t{0} - 1);
    CHECK(refused == 3);
    CHECK(stats.executed == 1);
    CHECK(stats.spawned == 1);
    CHECK(q.size() == 0);
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

  // then() in a body that spawned no children: the job finishes at once
  // and the continuation is re-pushed and runs exactly once.
  {
    pcq::coarse_pq<std::uint64_t, std::uint64_t> q;
    pcq::exec::executor<pcq::coarse_pq<std::uint64_t, std::uint64_t>> ex(q);
    int body = 0;
    int cont = 0;
    ex.submit(1, [&](job_context& ctx) {
      ++body;
      ctx.then([&](job_context&) { ++cont; });
    });
    const pcq::exec::exec_stats stats = ex.run(1);
    CHECK(body == 1);
    CHECK(cont == 1);
    CHECK(stats.executed == 2);
    CHECK(stats.spawned == 2);
  }

  // then() twice in one body: the second call replaces the first, with
  // and without awaited children.
  for (const bool with_child : {false, true}) {
    pcq::coarse_pq<std::uint64_t, std::uint64_t> q;
    pcq::exec::executor<pcq::coarse_pq<std::uint64_t, std::uint64_t>> ex(q);
    int first = 0;
    int second = 0;
    ex.submit(1, [&](job_context& ctx) {
      if (with_child) ctx.spawn(1, [](job_context&) {});
      ctx.then([&](job_context&) { ++first; });
      ctx.then([&](job_context&) { ++second; });
    });
    const pcq::exec::exec_stats stats = ex.run(1);
    CHECK(first == 0);
    CHECK(second == 1);
    CHECK(stats.executed == (with_child ? 3u : 2u));
    CHECK(stats.spawned == (with_child ? 3u : 2u));
  }

  std::printf("test_exec OK\n");
  return 0;
}
