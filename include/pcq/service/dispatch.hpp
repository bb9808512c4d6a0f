// Dispatchers: how an arriving request reaches a worker.
//
// The comparison this layer exists for is QUEUE-LEVEL choice vs
// SCHEDULER-LEVEL choice. The paper's MultiQueue applies power-of-d
// choice at POP time inside one shared relaxed priority queue; the
// classic load-balancing literature (the po2_scheduler exemplar) applies
// power-of-2 choice at PUSH time across per-worker queues. Both are
// "the power of choice", applied at opposite ends of the queueing
// delay — this header makes them interchangeable behind one concept so
// the service benches can race them on identical traces.
//
// Dispatcher concept (duck-typed, like the pq handle concept):
//
//   void dispatch(const request& r);               // arrival driver only
//   bool fetch(std::size_t worker, std::uint64_t& seq);  // worker w only
//   void seal();                     // after the LAST dispatch; publishes
//                                    // anything the dispatch side still
//                                    // buffers (k-LSM local blocks)
//   std::size_t backlog() const;     // approximate queued count
//   std::size_t reclaim(std::size_t worker,
//                       std::vector<std::uint64_t>& out);
//                                    // drain requests only worker w could
//                                    // have served (its DEAD-worker
//                                    // backlog) into out; a shared queue
//                                    // has none and returns 0. Called by
//                                    // the virtual runner's recovery
//                                    // path once worker w is crashed —
//                                    // w no longer fetches, so this
//                                    // cannot race the fetch(w, ...)
//                                    // owner.
//
// Only run_service_virtual, the one runner with a fault model, calls
// backlog() and reclaim(); run_service_realtime uses dispatch(), fetch()
// and seal() alone.
//
// Threading contract: dispatch() is called by exactly one arrival
// thread; fetch(w, ...) only by worker w; seal() by the arrival thread
// after its last dispatch() (it must not race dispatch, it MAY race
// fetches). The virtual-time runner calls everything from one thread,
// which trivially satisfies this.
//
// Implementations:
//   pq_dispatcher<Queue> — one shared queue modeling the pq handle
//     concept (core/pq_handle.hpp), keyed by arrival seq (FCFS) or
//     deadline ticks (EDF when the queue is strict, relaxed-EDF when it
//     is a MultiQueue — the paper's (1+β)/d choice at pop time). Any of
//     the five in-tree queues slots in.
//   po2_dispatcher — per-worker FIFOs, power-of-d-choices over queue
//     length at dispatch time; workers consume ONLY their own queue (no
//     stealing — work conservation is exactly what the comparison
//     measures, a misrouted request pays its full delay).
//
// A false fetch is relaxed emptiness, exactly like the underlying
// queues: "looked empty", never "is empty". Runners terminate on
// accounting, not on failed fetches.
//
// run_service_virtual (service/server.hpp) layers graceful degradation
// AROUND this concept without changing it: admission control decides
// before dispatch() whether to shed (using backlog() as the load
// signal), and crash-retry / stall-failover re-dispatches travel
// through a runner-owned recovery queue that workers drain before
// calling fetch() — never through dispatch(), which stays the single
// arrival thread's (and may already be sealed when a late retry
// fires). Every dispatcher therefore gets identical recovery
// semantics, and the fault ladder compares policies, not retry paths.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/baselines/coarse_pq.hpp"
#include "core/multi_queue.hpp"
#include "core/pq_handle.hpp"
#include "service/workload.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"

namespace pcq {
namespace service {

/// Shared-queue dispatcher over any queue modeling the pq handle
/// concept. Handle w belongs to worker w; handle `workers` is the
/// dispatch side's, held in an optional so seal() can destroy it —
/// destruction is the concept's flush point, which publishes anything a
/// buffering queue (the k-LSM's local component) still holds on the
/// dispatch side.
template <typename Queue>
class pq_dispatcher {
  static_assert(is_pq<Queue>::value,
                "pq_dispatcher requires the pq handle concept");

 public:
  pq_dispatcher(std::unique_ptr<Queue> queue, std::size_t workers,
                priority_policy policy)
      : queue_(std::move(queue)), policy_(policy) {
    worker_handles_.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      worker_handles_.emplace_back(queue_->get_handle(w));
    }
    dispatch_handle_.reset(
        new pq_handle_t<Queue>(queue_->get_handle(workers)));
  }

  void dispatch(const request& r) {
    dispatch_handle_->push(priority_key(r, policy_), r.seq);
  }

  bool fetch(std::size_t worker, std::uint64_t& seq) {
    std::uint64_t key = 0;
    return worker_handles_[worker].try_pop(key, seq);
  }

  void seal() { dispatch_handle_.reset(); }

  std::size_t backlog() const { return queue_->size(); }

  // Shared queue: any live worker can pop a dead worker's work, so
  // there is no stranded backlog to reclaim.
  std::size_t reclaim(std::size_t, std::vector<std::uint64_t>&) {
    return 0;
  }

  priority_policy policy() const { return policy_; }

 private:
  std::unique_ptr<Queue> queue_;
  priority_policy policy_;
  std::vector<pq_handle_t<Queue>> worker_handles_;
  std::unique_ptr<pq_handle_t<Queue>> dispatch_handle_;
};

/// FCFS: one strict shared queue keyed by arrival sequence — the single
/// MPMC queue baseline (a dary_heap on seq IS a FIFO).
inline pq_dispatcher<coarse_pq<std::uint64_t, std::uint64_t>>
make_fcfs_dispatcher(std::size_t workers) {
  return {std::unique_ptr<coarse_pq<std::uint64_t, std::uint64_t>>(
              new coarse_pq<std::uint64_t, std::uint64_t>()),
          workers, priority_policy::arrival_order};
}

/// EDF: one strict shared queue keyed by deadline — the exact
/// earliest-deadline-first baseline.
inline pq_dispatcher<coarse_pq<std::uint64_t, std::uint64_t>>
make_edf_dispatcher(std::size_t workers) {
  return {std::unique_ptr<coarse_pq<std::uint64_t, std::uint64_t>>(
              new coarse_pq<std::uint64_t, std::uint64_t>()),
          workers, priority_policy::deadline};
}

/// Relaxed EDF through the paper's MultiQueue: deadline keys, (1+β)/d
/// choice at pop time. workers+1 handles (workers + the dispatch side).
inline pq_dispatcher<multi_queue<std::uint64_t, std::uint64_t>>
make_mq_dispatcher(std::size_t workers, const mq_config& cfg = mq_config{}) {
  return {std::unique_ptr<multi_queue<std::uint64_t, std::uint64_t>>(
              new multi_queue<std::uint64_t, std::uint64_t>(cfg,
                                                            workers + 1)),
          workers, priority_policy::deadline};
}

/// Power-of-two-choices at DISPATCH time (the scheduler-level baseline,
/// cf. the po2_scheduler exemplar): per-worker FIFO queues, each arrival
/// samples d = min(2, workers) distinct workers and joins the shortest
/// queue (by queued count — the load signal join-shortest-queue-of-d
/// uses). Workers pop only their own FIFO, so a routing mistake is paid
/// in full — under heavy-tailed service times one long job ahead in the
/// chosen FIFO stalls everything behind it, which is precisely the
/// effect the queue-level-choice comparison is after. Zero workers throw
/// std::invalid_argument: a dispatch would have no queue to join.
class po2_dispatcher {
 public:
  po2_dispatcher(std::size_t workers, std::uint64_t seed)
      : queues_(new worker_queue[workers]),
        num_workers_(workers),
        rng_(seed) {
    if (workers == 0) {
      throw std::invalid_argument("po2_dispatcher: no workers");
    }
  }

  void dispatch(const request& r) {
    const std::size_t d = num_workers_ < 2 ? num_workers_ : 2;
    std::size_t picks[2];
    sample_distinct(rng_, num_workers_, d, picks);
    std::size_t best = picks[0];
    std::size_t best_len =
        queues_[best].len.load(std::memory_order_acquire);
    for (std::size_t i = 1; i < d; ++i) {
      const std::size_t len =
          queues_[picks[i]].len.load(std::memory_order_acquire);
      if (len < best_len) {
        best = picks[i];
        best_len = len;
      }
    }
    worker_queue& q = queues_[best];
    q.lock.lock();
    q.fifo.push_back(r.seq);
    q.len.store(q.fifo.size(), std::memory_order_release);
    q.lock.unlock();
  }

  bool fetch(std::size_t worker, std::uint64_t& seq) {
    worker_queue& q = queues_[worker];
    if (q.len.load(std::memory_order_acquire) == 0) return false;
    q.lock.lock();
    if (q.fifo.empty()) {
      q.lock.unlock();
      return false;
    }
    seq = q.fifo.front();
    q.fifo.pop_front();
    q.len.store(q.fifo.size(), std::memory_order_release);
    q.lock.unlock();
    return true;
  }

  void seal() {}  // nothing buffered on the dispatch side

  // Per-worker FIFOs DO strand a dead worker's backlog: nobody else
  // ever pops queue w. Reclaim drains it so the fault runners'
  // recovery queue can re-route the orphans to live workers — the
  // health-check rerouting a real load balancer does when a backend
  // dies. Thread-safe against concurrent dispatch() (same lock).
  std::size_t reclaim(std::size_t worker, std::vector<std::uint64_t>& out) {
    worker_queue& q = queues_[worker];
    q.lock.lock();
    const std::size_t n = q.fifo.size();
    for (std::uint64_t seq : q.fifo) out.push_back(seq);
    q.fifo.clear();
    q.len.store(0, std::memory_order_release);
    q.lock.unlock();
    return n;
  }

  std::size_t backlog() const {
    std::size_t total = 0;
    for (std::size_t w = 0; w < num_workers_; ++w) {
      total += queues_[w].len.load(std::memory_order_acquire);
    }
    return total;
  }

 private:
  struct alignas(64) worker_queue {
    spinlock lock;
    std::deque<std::uint64_t> fifo;
    std::atomic<std::size_t> len{0};
  };

  std::unique_ptr<worker_queue[]> queues_;
  std::size_t num_workers_;
  xoshiro256ss rng_;
};

}  // namespace service
}  // namespace pcq
