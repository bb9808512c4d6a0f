// In-flight termination counter of the worker loop that drains a relaxed
// queue: the executor's, which runs parallel_sssp, the DAG runner (also
// the graph task process) and the fork-join reduction. The queues'
// emptiness is relaxed (a failed try_pop means "looked empty"), so a
// failed pop alone cannot end a loop; this counter is the proof that
// nothing is left.
//
// The counter holds one UNIT per queued entry plus one per entry a
// worker has popped and not yet finished, plus any CREDIT a worker's
// ledger holds. Rules:
//
//   1. seed(n) before the workers start and before (or while) the n
//      initial entries are pushed.
//   2. Each worker owns one in_flight_ledger. A worker that finishes an
//      entry which produced k new entries calls ledger.settle(k) once,
//      BEFORE it publishes them. The entry's unit passes to its
//      products: k = 0 banks it as local credit (no RMW), k = 1 hands it
//      to the one product (no RMW), k >= 2 needs k - 1 more units, which
//      it takes from the credit first and adds with fetch_add only for
//      the part the credit cannot cover. Settling after publishing would
//      let a product finish and drive the count to zero while its parent
//      still runs, and idle workers would exit with work left.
//   3. A worker whose pop fails exits iff ledger.drained(), which first
//      hands all credit back (one fetch_sub(release)) and then reads the
//      counter; otherwise it backs off and retries. A worker that popped
//      a batch settles each entry of it by rule 2 as it finishes that
//      entry and publishes the products of the whole batch after its
//      last entry; the entries still waiting in its batch keep their
//      units, and the settled products not yet published carry theirs,
//      so both hold the count above zero exactly like queued entries.
//
// Invariant: count = (entries queued, held in a handle, batch or products
// buffer, or being processed) + (credit held by ledgers). Credit is never
// negative and no increment is delayed, so count == 0 implies no entry
// exists, none can appear again, and no ledger holds credit. Every
// change after the seed is an RMW, so all of them continue the release
// sequence of each credit hand-back: drained()'s acquire load of zero
// synchronizes with every hand-back, each of which follows the entries
// whose units it banked, and entries whose unit was passed on or spent
// are ordered before it by the queue push that published their
// products.
//
// drain() below is executor::run's worker loop, and run_workers() its
// thread pool (and every other one). drain() applies rule 2 itself, so
// settle-before-publish holds by construction.
// The queue is not reconfigured for it: each pop makes the same sampling
// decision as a scalar pop and only takes more entries from the slot it
// chose, and each publish goes to one sampled slot like any push_batch.
// The caller picks K <= kDrainBatch: kDrainBatch for throughput, 1 for
// the DAG runner's settle-order recording, which must rank each pop on
// its own. A batch of K entries relaxes each of them by at most
// K - 1 entries of its batch plus arrivals: nothing else can overtake an
// entry while it waits in the batch. A product stays invisible until its
// batch's last body finishes, at most K - 1 further bodies
// (bench_rank's rank_cost table records the rank cost of both per K).

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/spinlock.hpp"

namespace pcq {

class alignas(64) in_flight_counter {
 public:
  /// Rule 1: count the initial entries. Not concurrent with any ledger.
  void seed(std::uint64_t entries) {
    units_.store(entries, std::memory_order_relaxed);
  }

  /// The raw check: true iff the count is zero. Workers call their
  /// ledger's drained(), which hands back its credit first.
  bool drained() const {
    return units_.load(std::memory_order_acquire) == 0;
  }

  /// Current count, for tests and diagnostics.
  std::uint64_t units() const {
    return units_.load(std::memory_order_relaxed);
  }

 private:
  friend class in_flight_ledger;
  std::atomic<std::uint64_t> units_{0};
};

/// One worker's view of an in_flight_counter (rules 2 and 3). Not
/// thread-safe; one per worker, living as long as its worker loop.
class in_flight_ledger {
 public:
  explicit in_flight_ledger(in_flight_counter& counter)
      : counter_(&counter) {}

  in_flight_ledger(const in_flight_ledger&) = delete;
  in_flight_ledger& operator=(const in_flight_ledger&) = delete;

  /// Rule 2: the entry just processed produced `products` new entries,
  /// none of them published yet.
  void settle(std::size_t products) {
    if (products == 0) {
      ++credit_;
    } else if (products > 1) {
      const std::uint64_t extra = products - 1;
      if (extra <= credit_) {
        credit_ -= extra;
      } else {
        counter_->units_.fetch_add(extra - credit_, std::memory_order_relaxed);
        credit_ = 0;
      }
    }
  }

  /// Rule 3: hands back all credit, then true iff nothing is queued or
  /// in progress anywhere.
  bool drained() {
    if (credit_ != 0) {
      counter_->units_.fetch_sub(credit_, std::memory_order_release);
      credit_ = 0;
    }
    return counter_->drained();
  }

  /// Units banked and not yet handed back, for tests.
  std::uint64_t credit() const { return credit_; }

 private:
  in_flight_counter* counter_;
  std::uint64_t credit_ = 0;
};

/// Entries the drain loop takes per pop. Four takes most of the
/// batching gain at about half the rank cost of eight (see "The drain
/// loop" in docs/ARCHITECTURE.md).
constexpr std::size_t kDrainBatch = 4;

/// Starts loading the cache line at `p`; a hint with no effect on
/// program state.
inline void prefetch(const void* p) {
#if defined(__GNUC__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}

/// The executor's worker loop: pops up to `batch` entries per call
/// (clamped to [1, kDrainBatch]), runs touch(entry) over all of them,
/// then body(entry, products) over each in the order popped. The body
/// appends the entries it produced to `products` and nothing else;
/// drain() settles each entry in `ledger` right after its body (rule 2)
/// and publishes the batch's products with one push_batch after the
/// last body. A pop that returns nothing ends the loop iff
/// ledger.drained() (rule 3); otherwise the worker backs off and
/// retries.
template <typename Entry, typename Handle, typename Touch, typename Body>
void drain(Handle& handle, in_flight_ledger& ledger, std::size_t batch,
           Touch&& touch, Body&& body) {
  if (batch == 0) batch = 1;
  if (batch > kDrainBatch) batch = kDrainBatch;
  Entry popped[kDrainBatch];
  std::vector<Entry> products;
  backoff bo;
  for (;;) {
    const std::size_t got = handle.try_pop_batch(popped, batch);
    if (got == 0) {
      if (ledger.drained()) return;
      bo.pause();
      continue;
    }
    bo.reset();
    for (std::size_t i = 0; i < got; ++i) touch(popped[i]);
    for (std::size_t i = 0; i < got; ++i) {
      const std::size_t before = products.size();
      body(popped[i], products);
      ledger.settle(products.size() - before);
    }
    if (!products.empty()) {
      handle.push_batch(products.data(), products.size());
      products.clear();
    }
  }
}

/// One-shot spin barrier for the workers of one run_workers call: each
/// of `parties` arrives once and waits for the rest. Yields so it stays
/// correct (if slow) when threads outnumber cores.
class spin_barrier {
 public:
  explicit spin_barrier(std::size_t parties) : parties_(parties) {}

  void arrive_and_wait() {
    arrived_.fetch_add(1, std::memory_order_acq_rel);
    while (arrived_.load(std::memory_order_acquire) < parties_) {
      std::this_thread::yield();
    }
  }

 private:
  const std::size_t parties_;
  std::atomic<std::size_t> arrived_{0};
};

/// Runs worker(tid) for every tid in [0, threads): tid 0 on the calling
/// thread, the rest on threads of their own, all joined before it
/// returns. The one place in the library, the benches and the tests
/// that starts a thread. Runs nothing when threads is 0.
template <typename Worker>
void run_workers(std::size_t threads, Worker& worker) {
  if (threads == 0) return;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 1; t < threads; ++t) {
    pool.emplace_back(std::ref(worker), t);
  }
  worker(0);
  for (std::thread& t : pool) t.join();
}

}  // namespace pcq
