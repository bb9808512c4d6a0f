// A thread-pool job system scheduled by relaxed priority — the layer
// that turns the pcq queues from data structures into an application
// runtime. Tasks carry a priority key, may `spawn` children and await
// them, and the *ready queue is pluggable
// behind the pq handle concept*: the MultiQueue (the paper's pop-time
// choice), any strict baseline, or the Chase–Lev steal-deque pool
// (scheduler-level choice, no priority order at all).
//
// Await is continuation-passing, never blocking:
//
//   - a job holds ONE callable slot. run_job moves the body out before
//     calling it; `ctx.then(fn)` refills the vacated slot, so a second
//     then() in the same body replaces the first;
//   - children are counted locally while the body runs. A body that
//     spawned none finishes at once with no RMW; otherwise its atomic
//     `pending` count is written once, = k children, before the batch's
//     push_batch publishes them (the push releases the store), and each
//     child's completion decrements it;
//   - when the job finishes (k = 0, or the last child brings `pending`
//     to zero) and its slot holds a continuation, the job is *re-pushed
//     through the ready queue* with the continuation as its next body
//     (hand-off); otherwise completion cascades to the parent's
//     `pending` count and the job is recycled.
//
// Hand-off beats blocking joins on both axes this repo measures: a
// worker that finishes the last child never parks (no idle HW thread,
// no condition-variable syscall on the hot path), and the continuation
// re-enters the *same priority order as every other ready task*, so
// the scheduling policy under test keeps authority over the whole
// schedule — a blocked join would smuggle a scheduler-invisible
// dependency past the queue. Chained awaits work: a continuation may
// spawn more children and call `then` again.
//
// Jobs are recycled, not freed: a finished job goes onto the finishing
// worker's free list and that worker's next spawn reuses it. Each
// worker's list starts empty in every run() and is deleted when the
// worker exits, so steady state allocates no job per task. Under
// AddressSanitizer a job on a free list is poisoned, so a use of a
// finished job still reports, as a use-after-poison.
//
// Termination uses the in-flight protocol of util/in_flight.hpp, the
// one parallel_sssp uses: a job's unit passes to the entries it
// produces. run_job only COLLECTS a job's spawns and
// its (or a cascaded ancestor's) continuation re-push in the drain
// loop's products vector; after it returns drain() settles their count
// once in the worker's ledger, and only after the batch's last job does
// it publish every collected job with one push_batch. So
// `failed pop && drained()` proves no task exists or can
// appear — exactly the guarantee the queues' relaxed emptiness cannot
// give on its own — and a job that finishes childless, spawns one child
// or re-pushes one continuation touches the shared counter not at all.
//
// Workers run the shared drain loop of util/in_flight.hpp: each pop
// takes up to run()'s `batch` ready tasks (by default kDrainBatch = 4;
// the DAG runner takes 1 when it records its settle order), the worker
// prefetches the closures' job records, runs them one after another in
// key order, and then publishes what the whole batch produced with one
// push_batch. Jobs waiting in a popped batch keep their units, and
// collected jobs carry theirs until the publish. A job can be overtaken by at most three
// jobs of its own batch plus whatever is pushed while it waits, so a
// child keyed below the rest of its parent's batch runs after that
// batch; a produced job stays invisible to other workers for at most
// three further jobs.
//
// Two task forms share the ready queue. A CLOSURE task is a job record
// as above: a job_fn body, spawn/then, hand-off and the free lists. An
// ID TASK is nothing but a 63-bit id that rides in the queue entry's
// value as (id << 1) | 1; job records are at least 2-aligned, so their
// pointers keep bit 0 clear and the drain loop tells the forms apart by
// that bit alone. An id task runs through the one handler the executor
// was built with, `handler(ctx, priority, id)`, called directly: no
// record to fetch, no std::function, nothing to recycle or poison. It is
// detached by construction (there is no record to await or to continue),
// so its handler may release() more id tasks and spawn_detached()
// closures, but not spawn() or then(). Work whose whole state is indexed
// by the id (a DAG node, an SSSP vertex) is an id task; work that needs
// captures or awaits is a closure. Both forms settle in the same ledger
// and are counted in the same exec_stats.
//
// Why no `try_pop_any` escape hatch in the pq concept: see the note in
// core/pq_handle.hpp — the executor never needs "pop from anywhere,
// ignoring priority" because relaxed emptiness plus in-flight
// accounting already covers the only case such a hatch would serve.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define PCQ_EXEC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PCQ_EXEC_ASAN 1
#endif
#endif
#ifdef PCQ_EXEC_ASAN
#include <sanitizer/asan_interface.h>
#endif

#include "core/pq_handle.hpp"
#include "util/in_flight.hpp"
#include "util/timer.hpp"

namespace pcq {
namespace exec {

class job_context;

/// A job body. Runs exactly once on some worker; may spawn children,
/// spawn detached roots, and register a continuation via the context.
/// libstdc++ stores a trivially copyable closure of at most two pointers
/// inline; a larger capture costs a heap allocation per job.
using job_fn = std::function<void(job_context&)>;

namespace detail {

struct job {
  // The next callable to run: the body, then each continuation that a
  // body's then() stores into the slot run_job vacated.
  job_fn body;
  job* parent = nullptr;  // awaited-by link; nullptr for roots/detached
  std::uint64_t priority = 0;
  // Live awaited children of the body that last ran. Written once, by
  // the worker that ran the body, before the children are pushed; each
  // child's completion decrements it, and the decrement that reaches
  // zero owns the job single-threaded (the acq_rel RMWs form a release
  // sequence, so that worker sees every child's writes).
  std::atomic<std::uint32_t> pending{0};
};

static_assert(sizeof(job) <= 64, "a job must fit one cache line");
static_assert(alignof(job) >= 2,
              "job pointers must keep bit 0 clear for the id-task tag");

// An id task's queue value: the id shifted past the tag bit, which is set.
inline std::uint64_t id_value(std::uint64_t id) {
  if (id >> 63)
    throw std::invalid_argument("pcq::exec: an id task's id must be below 2^63");
  return id << 1 | 1;
}
inline bool is_id_value(std::uint64_t v) { return (v & 1) != 0; }

}  // namespace detail

/// Per-worker view handed to every job body. Not thread-safe; valid
/// only for the duration of the body call it was passed to.
class job_context {
 public:
  virtual ~job_context() = default;

  /// Spawn a child awaited by the current job: the continuation
  /// registered with then() runs only after the child (and its own
  /// continuation chain) completes. Throws std::logic_error in an id
  /// task, which has no job to await it.
  virtual void spawn(std::uint64_t priority, job_fn fn) = 0;

  /// Spawn an independent job (no await edge).
  virtual void spawn_detached(std::uint64_t priority, job_fn fn) = 0;

  /// Register (or replace) the current job's continuation. It runs at
  /// the job's priority once every spawned child has completed. Throws
  /// std::logic_error in an id task.
  virtual void then(job_fn fn) = 0;

  virtual std::size_t worker_id() const = 0;

  /// Release an id task: `id` runs through the executor's handler at
  /// `priority`, with no await edge. Throws std::invalid_argument if
  /// id >= 2^63 (a throw out of a body ends the program).
  void release(std::uint64_t priority, std::uint64_t id) {
    products_->emplace_back(priority, detail::id_value(id));
    ++spawned_;
  }

 protected:
  // Where the running batch collects its products; drain() settles and
  // publishes them.
  std::vector<std::pair<std::uint64_t, std::uint64_t>>* products_ = nullptr;
  std::uint64_t spawned_ = 0;  // pushes by this worker: spawns + releases
};

/// The handler of an executor built without one: id tasks are a
/// contract violation there.
struct no_id_tasks {
  void operator()(job_context&, std::uint64_t, std::uint64_t) const {
    std::terminate();
  }
};

struct exec_stats {
  std::uint64_t executed = 0;  // bodies + continuations + id tasks run
  std::uint64_t spawned = 0;   // pushes: roots + children + continuations
                               // + released id tasks
  double seconds = 0.0;        // wall time of run(), seeding included
};

/// The executor. `Queue` must model the pq concept with
/// entry == pair<uint64_t, uint64_t>: keys are priorities (smaller
/// pops first on the priority-ordered queues), values carry job
/// pointers or tagged ids. `Handler` runs the id tasks, called as
/// handler(job_context&, priority, id). One executor per run-cycle
/// queue; the queue must be empty and otherwise unused while run() is
/// active.
template <typename Queue, typename Handler = no_id_tasks>
class executor {
  static_assert(is_pq<Queue>::value, "executor requires a pq-concept queue");
  static_assert(
      std::is_same<typename Queue::entry,
                   std::pair<std::uint64_t, std::uint64_t>>::value,
      "executor requires entry == pair<uint64_t, uint64_t>");
  static_assert(sizeof(std::uintptr_t) <= sizeof(std::uint64_t),
                "job pointers must fit the value payload");

 public:
  explicit executor(Queue& queue, Handler handler = Handler())
      : queue_(queue), handler_(std::move(handler)) {}

  executor(const executor&) = delete;
  executor& operator=(const executor&) = delete;

  ~executor() {
    for (const entry& r : roots_)  // submitted but never run
      if (!detail::is_id_value(r.second)) delete from_value(r.second);
  }

  /// Queue a root job for the next run(). Not thread-safe.
  void submit(std::uint64_t priority, job_fn fn) {
    detail::job* j = new detail::job;
    j->body = std::move(fn);
    j->priority = priority;
    roots_.emplace_back(priority, to_value(j));
  }

  /// Queue a root id task for the next run(). Not thread-safe. Throws
  /// std::invalid_argument if id >= 2^63.
  void submit_id(std::uint64_t priority, std::uint64_t id) {
    static_assert(!std::is_same<Handler, no_id_tasks>::value,
                  "submit_id needs an executor built with an id handler");
    roots_.emplace_back(priority, detail::id_value(id));
  }

  /// Run workers until every submitted job — and everything it
  /// transitively spawned — has completed. Each pop takes up to `batch`
  /// ready tasks (clamped to [1, kDrainBatch]). Returns aggregate stats.
  exec_stats run(std::size_t num_threads, std::size_t batch = kDrainBatch) {
    const std::size_t threads = num_threads == 0 ? 1 : num_threads;
    wall_timer timer;

    // Count the roots BEFORE they become poppable.
    in_flight_.seed(roots_.size());
    std::uint64_t seeded = 0;
    {
      // Scoped seeder handle on id 0; destroyed (and flushed) before
      // the worker with the same id starts, so ids never overlap live.
      auto seeder = queue_.get_handle(0);
      for (const entry& r : roots_) {
        seeder.push(r.first, r.second);
        ++seeded;
      }
      roots_.clear();
    }

    std::vector<std::uint64_t> executed_by(threads, 0);
    std::vector<std::uint64_t> spawned_by(threads, 0);

    auto worker = [&](std::size_t tid) {
      auto handle = queue_.get_handle(tid);
      worker_context ctx(this, tid);
      drain<entry>(
          handle, ctx.ledger_, batch,
          [](const entry& e) {
            if (!detail::is_id_value(e.second)) prefetch(from_value(e.second));
          },
          [&ctx](const entry& e, std::vector<entry>& products) {
            if (detail::is_id_value(e.second)) {
              ctx.run_id(e.first, e.second >> 1, products);
            } else {
              ctx.run_job(from_value(e.second), products);
            }
          });
      executed_by[tid] = ctx.executed_;
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

  class worker_context final : public job_context {
   public:
    worker_context(executor* ex, std::size_t wid)
        : wid_(wid), ledger_(ex->in_flight_), handler_(ex->handler_) {}

    worker_context(const worker_context&) = delete;
    worker_context& operator=(const worker_context&) = delete;

    // The pool has drained, so no other worker can reach a job here.
    ~worker_context() {
      for (detail::job* j : free_) {
        unpoison(j);
        delete j;
      }
    }

    void spawn(std::uint64_t priority, job_fn fn) override {
      if (current_ == nullptr)
        throw std::logic_error("pcq::exec: an id task cannot spawn()");
      detail::job* child = make_job(priority, std::move(fn));
      child->parent = current_;
      ++children_;  // stored into current_->pending once the body returns
      enqueue(child);
    }

    void spawn_detached(std::uint64_t priority, job_fn fn) override {
      enqueue(make_job(priority, std::move(fn)));
    }

    // run_job moved the body out, so the slot holds only what the
    // running body stores here: the last then() wins.
    void then(job_fn fn) override {
      if (current_ == nullptr)
        throw std::logic_error("pcq::exec: an id task cannot then()");
      current_->body = std::move(fn);
    }

    std::size_t worker_id() const override { return wid_; }

    // Runs j's next callable and appends the jobs it produced (spawns,
    // and its own or a cascaded ancestor's continuation) to `products`.
    void run_job(detail::job* j, std::vector<entry>& products) {
      products_ = &products;
      current_ = j;
      children_ = 0;
      job_fn body = std::move(j->body);  // vacate the slot for then()
      j->body = nullptr;
      body(*this);
      current_ = nullptr;
      ++executed_;
      if (children_ == 0) {
        finish(j);
      } else {
        // Ordered before every child's decrement by the batch's
        // push_batch, whose release publishes each job's fields to
        // whichever worker pops it.
        j->pending.store(children_, std::memory_order_relaxed);
      }
    }

    // Runs the id task (priority, id); its releases and detached spawns
    // go to `products`, like a job's.
    void run_id(std::uint64_t priority, std::uint64_t id,
                std::vector<entry>& products) {
      products_ = &products;
      handler_(*this, priority, id);
      ++executed_;
    }

   private:
    detail::job* make_job(std::uint64_t priority, job_fn&& fn) {
      detail::job* j;
      if (free_.empty()) {
        j = new detail::job;
      } else {
        j = free_.back();
        free_.pop_back();
        unpoison(j);
        j->parent = nullptr;
      }
      j->body = std::move(fn);
      j->priority = priority;
      return j;
    }

    void recycle(detail::job* j) {
      poison(j);
      free_.push_back(j);
    }

    // Collected, not pushed: drain() settles and publishes the batch.
    void enqueue(detail::job* j) {
      products_->emplace_back(j->priority, to_value(j));
      ++spawned_;
    }

    // Called by the worker that ran a childless body or whose decrement
    // brought `pending` to zero; from that point the job is owned
    // single-threaded.
    void finish(detail::job* j) {
      for (;;) {
        if (j->body) {
          // Hand-off: the continuation is already the job's next body
          // and re-enters the ready queue at the job's priority — the
          // scheduling policy keeps authority; no worker ever blocks.
          enqueue(j);
          return;
        }
        detail::job* parent = j->parent;
        recycle(j);
        if (parent == nullptr) return;
        if (parent->pending.fetch_sub(1, std::memory_order_acq_rel) != 1)
          return;
        j = parent;  // cascade: parent just completed too
      }
    }

    static void poison(detail::job* j) {
#ifdef PCQ_EXEC_ASAN
      ASAN_POISON_MEMORY_REGION(j, sizeof(detail::job));
#else
      (void)j;
#endif
    }
    static void unpoison(detail::job* j) {
#ifdef PCQ_EXEC_ASAN
      ASAN_UNPOISON_MEMORY_REGION(j, sizeof(detail::job));
#else
      (void)j;
#endif
    }

    friend class executor;
    std::size_t wid_;
    in_flight_ledger ledger_;           // this worker's share of in_flight_
    Handler& handler_;                  // the executor's, shared read-only
    detail::job* current_ = nullptr;    // nullptr while an id task runs
    std::uint32_t children_ = 0;        // awaited spawns of current_'s body
    std::vector<detail::job*> free_;    // finished jobs, reused by spawns
    std::uint64_t executed_ = 0;
  };

  static std::uint64_t to_value(detail::job* j) {
    return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(j));
  }
  static detail::job* from_value(std::uint64_t v) {
    return reinterpret_cast<detail::job*>(static_cast<std::uintptr_t>(v));
  }

  Queue& queue_;
  Handler handler_;
  std::vector<entry> roots_;  // job pointers and tagged ids, in submit order
  in_flight_counter in_flight_;
};

}  // namespace exec
}  // namespace pcq
