// In-flight termination counter shared by every worker loop that drains
// a relaxed queue: parallel_sssp, the graph task process and the
// executor. The queues' emptiness is relaxed (a failed try_pop means
// "looked empty"), so a failed pop alone cannot end a loop; this counter
// is the proof that nothing is left.
//
// The counter holds one UNIT per queued entry plus one per entry a
// worker is processing. Rules:
//
//   1. seed(n) before the workers start and before (or while) the n
//      initial entries are pushed.
//   2. A worker that finishes an entry which produced k new entries
//      calls settle(k) once, BEFORE it publishes them. The entry's unit
//      passes to its products: k = 0 returns it (fetch_sub(1, release)),
//      k = 1 hands it to the one product (no RMW at all), k >= 2 adds
//      the other k - 1 (fetch_add). Settling after publishing would let
//      a product finish and drive the count to zero while its parent
//      still runs, and idle workers would exit with work left.
//   3. A worker whose pop fails exits iff drained(); otherwise it backs
//      off and retries.
//
// Invariant: count == 0 implies no entry is queued, held in a handle
// buffer or being processed, so none can appear again. Every change
// after the seed is an RMW, so all of them continue the release
// sequence of each k = 0 decrement: drained()'s acquire load of zero
// synchronizes with every finished entry that ended a chain, and entries
// that passed their unit on are ordered before it by the queue push that
// published their products.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace pcq {

class alignas(64) in_flight_counter {
 public:
  /// Rule 1: count the initial entries. Not concurrent with settle().
  void seed(std::uint64_t entries) {
    units_.store(entries, std::memory_order_relaxed);
  }

  /// Rule 2: the entry just processed produced `products` new entries,
  /// none of them published yet.
  void settle(std::size_t products) {
    if (products == 0) {
      units_.fetch_sub(1, std::memory_order_release);
    } else if (products > 1) {
      units_.fetch_add(products - 1, std::memory_order_relaxed);
    }
  }

  /// Rule 3: true iff nothing is queued or in progress.
  bool drained() const {
    return units_.load(std::memory_order_acquire) == 0;
  }

  /// Current count, for tests and diagnostics.
  std::uint64_t units() const {
    return units_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> units_{0};
};

}  // namespace pcq
