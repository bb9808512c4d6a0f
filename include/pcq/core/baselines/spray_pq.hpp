// SprayList-style relaxed priority queue (Alistarh, Kopinsky, Li, Shavit,
// PPoPP 2015) — Figure 1's randomized-relaxation competitor and the
// MultiQueue's closest ancestor: instead of choosing among queues, each
// deleteMin "sprays" a random descent over one shared skiplist and claims
// a node within the first O(p·polylog p) positions, so concurrent threads
// mostly land on distinct nodes and avoid the front hot spot.
//
// Parameters follow the paper's shape for p threads:
//   spray height  H = floor(log2 p) + 1
//   jump length   uniform in [0, floor(log2 p) + 2] per level
//   cleaner       with probability 1/p a deleteMin takes the exact front
//                 element instead (collecting the marked prefix via the
//                 substrate's batched restructure)
// With p = 1 every pop is a cleaner pop, so the single-thread structure
// degenerates to the exact Lindén–Jonsson queue — handy for tests.
//
// A spray that runs off the end of the list falls back to a front pop, so
// emptiness detection matches try_pop_front's (relaxed under races).
//
// Models the handle concept of core/pq_handle.hpp: handles are move-only
// and own their epoch-reclamation record. A scalar op pins the epoch for
// its own duration; push_batch / try_pop_batch pin it once per batch
// (pin/unpin elision) while running the per-element spray logic
// unchanged.
//
// The substrate reclaims by epochs: it frees sprayed-out towers during
// operation once an insert's helping unlink or a cleaner's restructure
// detaches them.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "core/detail/concurrent_skiplist.hpp"
#include "util/rng.hpp"

namespace pcq {

template <typename Key, typename Value, typename Compare = std::less<Key>>
class spray_pq {
  using list_type = detail::concurrent_skiplist<Key, Value, Compare>;

 public:
  using entry = std::pair<Key, Value>;

  explicit spray_pq(std::size_t num_threads)
      : threads_(num_threads > 0 ? num_threads : 1),
        spray_height_(floor_log2(threads_) + 1),
        max_jump_(static_cast<std::uint64_t>(floor_log2(threads_)) + 2),
        cleaner_prob_(1.0 / static_cast<double>(threads_)) {}

  std::size_t num_queues() const { return 1; }
  std::size_t size() const { return list_.size(); }
  std::size_t spray_threads() const { return threads_; }
  int spray_height() const { return spray_height_; }
  std::uint64_t spray_max_jump() const { return max_jump_; }
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
      // Ticket BEFORE the insert linearizes (see lj_skiplist_pq): keeps
      // a racing consumer's remove ticket ordered after this insert, so
      // replayed removes always match.
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
      auto guard = queue_->list_.pin(rh_);
      (void)guard;
      return pop_pinned(key, value);
    }

    bool try_pop_timed(Key& key, Value& value, std::uint64_t& ts) {
      if (!try_pop(key, value)) return false;
      ts = queue_->tick();
      return true;
    }

    /// Up to max_n sprayed claims under one epoch pin. Relaxation per
    /// element matches the scalar op. Claims land wherever the sprays
    /// do, so the chunk is sorted locally before returning to honor the
    /// concept's ascending-chunk postcondition — O(n log n) on private
    /// data, noise next to n list descents.
    std::size_t try_pop_batch(entry* out, std::size_t max_n) {
      if (max_n == 0) return 0;
      std::size_t got = 0;
      {
        auto guard = queue_->list_.pin(rh_);
        (void)guard;
        while (got < max_n && pop_pinned(out[got].first, out[got].second)) {
          ++got;
        }
      }
      const Compare compare{};
      std::sort(out, out + got, [&compare](const entry& a, const entry& b) {
        return compare(a.first, b.first);
      });
      return got;
    }

   private:
    friend class spray_pq;
    handle(spray_pq* queue, std::size_t thread_id)
        : queue_(queue),
          rng_(derive_seed(kSeed, thread_id)),
          rh_(queue->list_.get_reclaim_handle()) {}

    /// One deleteMin (spray or cleaner coin) under a caller-held pin.
    bool pop_pinned(Key& key, Value& value) {
      spray_pq* q = queue_;
      if (q->threads_ > 1 && !rng_.bernoulli(q->cleaner_prob_)) {
        if (q->list_.try_pop_spray_pinned(rh_, rng_, q->spray_height_,
                                          q->max_jump_, key, value)) {
          return true;
        }
      }
      return q->list_.try_pop_front_pinned(rh_, key, value);
    }

    spray_pq* queue_;
    xoshiro256ss rng_;  ///< spray walks, cleaner coin, tower heights
    typename list_type::reclaim_handle rh_;
  };

  handle get_handle(std::size_t thread_id) { return handle(this, thread_id); }

 private:
  static constexpr std::uint64_t kSeed = 0x73707261u;  // "spra"

  static int floor_log2(std::size_t x) {
    int log = 0;
    while (x > 1) {
      x >>= 1;
      ++log;
    }
    return log;
  }

  std::uint64_t tick() {
    return clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  list_type list_;
  std::size_t threads_;
  int spray_height_;
  std::uint64_t max_jump_;
  double cleaner_prob_;
  std::atomic<std::uint64_t> clock_{0};
};

}  // namespace pcq
