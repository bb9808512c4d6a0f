// In-flight termination counter shared by every worker loop that drains
// a relaxed queue: parallel_sssp, the graph task process and the
// executor. The queues' emptiness is relaxed (a failed try_pop means
// "looked empty"), so a failed pop alone cannot end a loop; this counter
// is the proof that nothing is left.
//
// The counter holds one UNIT per queued entry plus one per entry a
// worker is processing, plus any CREDIT a worker's ledger holds. Rules:
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
//      counter; otherwise it backs off and retries.
//
// Invariant: count = (entries queued, held in a handle buffer or being
// processed) + (credit held by ledgers). Credit is never negative and no
// increment is delayed, so count == 0 implies no entry exists, none can
// appear again, and no ledger holds credit. Every change after the seed
// is an RMW, so all of them continue the release sequence of each
// credit hand-back: drained()'s acquire load of zero synchronizes with
// every hand-back, each of which follows the entries whose units it
// banked, and entries whose unit was passed on or spent are ordered
// before it by the queue push that published their products.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

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

}  // namespace pcq
