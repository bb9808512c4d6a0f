// Lindén–Jonsson-style lock-free skiplist priority queue — Figure 1's
// "linearizable skiplist" competitor. Strict semantics: deleteMin claims
// the globally least live key (rank 0); the cost is that every deleteMin
// serializes on the list front, which is why the paper's Figure 1 shows
// it flattening as threads grow while MultiQueues keep scaling.
//
// All the algorithmic content — marked-prefix traversal, one-fetch_or
// claims, batched head restructuring, epoch-based memory reclamation —
// lives in core/detail/concurrent_skiplist.hpp; this wrapper adds the
// handle concept surface of core/pq_handle.hpp. Handles are move-only:
// each owns its epoch-reclamation record (the EBR registration). A scalar
// push or pop pins the epoch for its own duration; push_batch and
// try_pop_batch pin it once for the whole batch instead of once per
// element. Batched pops stay strict per element: each claim re-traverses
// from the head, so every popped element is the global minimum at its
// claim instant (the head restructure keeps the re-walked prefix
// bounded). Retired towers are freed during operation, so a long-lived
// queue stays O(live + threads * limbo) instead of growing with the total
// insert count.
//
// Timestamps for the timed extension are drawn from a global atomic
// counter immediately after the claiming fetch_or / linking CAS rather
// than inside a critical section (there is none), so replayed ranks for
// this queue are near-exact, not exact; the fig1 bench only uses the
// untimed path.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "core/detail/concurrent_skiplist.hpp"
#include "util/rng.hpp"

namespace pcq {

template <typename Key, typename Value, typename Compare = std::less<Key>>
class lj_skiplist_pq {
  using list_type = detail::concurrent_skiplist<Key, Value, Compare>;

 public:
  using entry = std::pair<Key, Value>;

  lj_skiplist_pq() = default;

  std::size_t num_queues() const { return 1; }
  std::size_t size() const { return list_.size(); }
  /// Unfreed node count / grace-period backlog (quiescent-only accuracy);
  /// see concurrent_skiplist.
  std::size_t allocated_nodes() const { return list_.allocated_nodes(); }
  std::size_t limbo_nodes() const { return list_.limbo_nodes(); }

  class handle {
   public:
    handle(const handle&) = delete;
    handle& operator=(const handle&) = delete;
    handle& operator=(handle&&) = delete;
    handle(handle&& other) noexcept
        : queue_(other.queue_),
          rng_(other.rng_),
          rh_(std::move(other.rh_)) {
      other.queue_ = nullptr;
    }

    void push(const Key& key, const Value& value) {
      queue_->list_.insert(rh_, rng_, key, value);
    }

    std::uint64_t push_timed(const Key& key, const Value& value) {
      // Ticket BEFORE the insert linearizes: a racing consumer draws its
      // remove ticket only after claiming the element — after it became
      // visible — so on the shared clock the remove always orders after
      // this insert and the timestamp-merged replay never sees an
      // unmatched remove. (Drawing after the insert loses that race.)
      const std::uint64_t ts = queue_->tick();
      push(key, value);
      return ts;
    }

    /// n inserts under one epoch pin.
    void push_batch(const entry* items, std::size_t n) {
      if (n == 0) return;
      auto guard = queue_->list_.pin(rh_);
      (void)guard;
      for (std::size_t i = 0; i < n; ++i) {
        queue_->list_.insert_pinned(rh_, rng_, items[i].first,
                                    items[i].second);
      }
    }

    bool try_pop(Key& key, Value& value) {
      return queue_->list_.try_pop_front(rh_, key, value);
    }

    bool try_pop_timed(Key& key, Value& value, std::uint64_t& ts) {
      if (!try_pop(key, value)) return false;
      ts = queue_->tick();
      return true;
    }

    /// Up to max_n front claims under one epoch pin — each one the exact
    /// minimum at its claim instant, so strictness is preserved per
    /// element and single-threaded chunks come out globally sorted.
    std::size_t try_pop_batch(entry* out, std::size_t max_n) {
      if (max_n == 0) return 0;
      auto guard = queue_->list_.pin(rh_);
      (void)guard;
      std::size_t got = 0;
      while (got < max_n &&
             queue_->list_.try_pop_front_pinned(rh_, out[got].first,
                                                out[got].second)) {
        ++got;
      }
      return got;
    }

   private:
    friend class lj_skiplist_pq;
    handle(lj_skiplist_pq* queue, std::size_t thread_id)
        : queue_(queue),
          rng_(derive_seed(kSeed, thread_id)),
          rh_(queue->list_.get_reclaim_handle()) {}

    lj_skiplist_pq* queue_;
    xoshiro256ss rng_;  ///< tower-height sampling stream
    typename list_type::reclaim_handle rh_;
  };

  handle get_handle(std::size_t thread_id) { return handle(this, thread_id); }

 private:
  static constexpr std::uint64_t kSeed = 0x6c6au;  // "lj"

  std::uint64_t tick() {
    return clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  list_type list_;
  std::atomic<std::uint64_t> clock_{0};
};

}  // namespace pcq
