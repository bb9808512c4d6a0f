// A thread-pool task system scheduled by relaxed priority — the layer
// that turns the pcq queues from data structures into an application
// runtime. A task is a 64-bit id with a priority key, and the *ready
// queue is pluggable behind the pq handle concept*: the MultiQueue (the
// paper's pop-time choice), any strict baseline, or the Chase–Lev
// steal-deque pool (scheduler-level choice, no priority order at all).
//
// Every task runs through the one handler the executor was built with,
// `handler(ctx, priority, id)`, called directly: a template parameter,
// so no std::function and no virtual call sits between the pop and the
// task, and nothing is allocated, fetched or recycled per task. A task
// is the (priority, id) queue entry itself; the handler finds the task's
// state through the id (a DAG node, a node of a fork-join tree) and may
// release() further tasks. Dependencies live in the handler's own state:
// a task whose inputs are not ready is simply not released yet, so no
// worker ever blocks or parks, and every task enters the *same priority
// order*, which keeps the scheduling policy under test in authority over
// the whole schedule.
//
// Termination uses the in-flight protocol of util/in_flight.hpp: a
// task's unit passes to the tasks it releases.
// release() only COLLECTS a task in the drain loop's products vector;
// after the handler returns drain() settles their count once in the
// worker's ledger, and only after the batch's last task does it publish
// every collected task with one push_batch. So `failed pop && drained()`
// proves no task exists or can appear — exactly the guarantee the
// queues' relaxed emptiness cannot give on its own — and a task that
// releases none or one touches the shared counter not at all.
//
// Workers run the drain loop of util/in_flight.hpp: each pop takes up
// to run()'s `batch` ready tasks (by default kDrainBatch = 4; the DAG
// runner takes 1 when it records its settle order), calls the handler's
// touch(id) over all of them if it declares one (parallel_sssp's
// prefetch of each task's distance cell and arc list), runs them one
// after another in key order, and then publishes what the whole batch
// released with one push_batch. Tasks waiting in a popped batch
// keep their units, and released tasks carry theirs until the publish.
// A task can be overtaken by at most three tasks of its own batch plus
// whatever is pushed while it waits, so a task keyed below the rest of
// its releaser's batch runs after that batch; a released task stays
// invisible to other workers for at most three further tasks.
//
// Why no `try_pop_any` escape hatch in the pq concept: see the note in
// core/pq_handle.hpp — the executor never needs "pop from anywhere,
// ignoring priority" because relaxed emptiness plus in-flight
// accounting already covers the only case such a hatch would serve.

#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/pq_handle.hpp"
#include "util/in_flight.hpp"
#include "util/timer.hpp"

namespace pcq {
namespace exec {

/// Per-worker view handed to the handler with every task. Not
/// thread-safe; valid only for the duration of the handler call it was
/// passed to.
class job_context {
 public:
  job_context(const job_context&) = delete;
  job_context& operator=(const job_context&) = delete;

  /// Release the task `id`: it runs through the executor's handler at
  /// `priority` once the running batch has published it.
  void release(std::uint64_t priority, std::uint64_t id) {
    products_->emplace_back(priority, id);
    ++spawned_;
  }

  std::size_t worker_id() const { return wid_; }

 private:
  template <typename, typename>
  friend class executor;

  explicit job_context(std::size_t worker_id) : wid_(worker_id) {}

  // Where the running batch collects its products; drain() settles and
  // publishes them.
  std::vector<std::pair<std::uint64_t, std::uint64_t>>* products_ = nullptr;
  std::uint64_t spawned_ = 0;  // releases by this worker
  std::size_t wid_;
};

// True iff `Handler` declares touch(id), a hint run over every task of a
// popped batch before the first of them runs.
template <typename Handler, typename = void>
struct has_touch : std::false_type {};

template <typename Handler>
struct has_touch<Handler, std::void_t<decltype(std::declval<const Handler&>()
                                                   .touch(std::uint64_t{}))>>
    : std::true_type {};

struct exec_stats {
  std::uint64_t executed = 0;  // tasks run
  std::uint64_t spawned = 0;   // pushes: roots + released tasks
  double seconds = 0.0;        // wall time of run(), seeding included
};

/// The executor. `Queue` must model the pq concept with
/// entry == pair<uint64_t, uint64_t>: keys are priorities (smaller
/// pops first on the priority-ordered queues), values are task ids.
/// `Handler` runs every task, called as handler(job_context&, priority,
/// id) from all workers at once, and, if it declares touch(id), over
/// each popped batch first. One executor per run-cycle queue; the
/// queue must be empty and otherwise unused while run() is active.
template <typename Queue, typename Handler>
class executor {
  static_assert(is_pq<Queue>::value, "executor requires a pq-concept queue");
  static_assert(
      std::is_same<typename Queue::entry,
                   std::pair<std::uint64_t, std::uint64_t>>::value,
      "executor requires entry == pair<uint64_t, uint64_t>");

 public:
  explicit executor(Queue& queue, Handler handler = Handler())
      : queue_(queue), handler_(std::move(handler)) {}

  /// Queue a root task for the next run(). Not thread-safe.
  void submit(std::uint64_t priority, std::uint64_t id) {
    roots_.emplace_back(priority, id);
  }

  /// Run workers until every submitted task — and everything it
  /// transitively released — has run. Each pop takes up to `batch`
  /// ready tasks (clamped to [1, kDrainBatch]). Returns aggregate stats.
  exec_stats run(std::size_t num_threads, std::size_t batch = kDrainBatch) {
    const std::size_t threads = num_threads == 0 ? 1 : num_threads;
    wall_timer timer;

    // Count the roots BEFORE they become poppable.
    in_flight_.seed(roots_.size());
    const std::uint64_t seeded = roots_.size();
    {
      // Scoped seeder handle on id 0; destroyed (and flushed) before
      // the worker with the same id starts, so ids never overlap live.
      auto seeder = queue_.get_handle(0);
      for (const entry& r : roots_) seeder.push(r.first, r.second);
      roots_.clear();
    }

    std::vector<std::uint64_t> executed_by(threads, 0);
    std::vector<std::uint64_t> spawned_by(threads, 0);

    auto worker = [&](std::size_t tid) {
      auto handle = queue_.get_handle(tid);
      in_flight_ledger ledger(in_flight_);
      job_context ctx(tid);
      const Handler& handler = handler_;
      std::uint64_t executed = 0;
      drain<entry>(
          handle, ledger, batch,
          [&handler](const entry& e) {
            if constexpr (has_touch<Handler>::value) handler.touch(e.second);
          },
          [&](const entry& e, std::vector<entry>& products) {
            ctx.products_ = &products;
            handler(ctx, e.first, e.second);
            ++executed;
          });
      executed_by[tid] = executed;
      spawned_by[tid] = ctx.spawned_;
    };
    run_workers(threads, worker);

    exec_stats stats;
    stats.seconds = timer.elapsed_seconds();
    stats.spawned = seeded;
    for (std::size_t t = 0; t < threads; ++t) {
      stats.executed += executed_by[t];
      stats.spawned += spawned_by[t];
    }
    return stats;
  }

 private:
  using entry = typename Queue::entry;

  Queue& queue_;
  Handler handler_;
  std::vector<entry> roots_;  // (priority, id), in submit order
  in_flight_counter in_flight_;
};

}  // namespace exec
}  // namespace pcq
