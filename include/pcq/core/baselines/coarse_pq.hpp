// Coarse-grained baseline: one sequential 4-ary heap (dary_heap_t)
// behind one lock. The paper's Figure 1 "lock-based heap" competitor —
// strict semantics (rank always 0), collapses under contention. Models
// the full handle concept of core/pq_handle.hpp (move-only handles,
// batch ops, timed extension) so the bench driver, the test harness, and
// the graph layer are structure-agnostic.
//
// Every op blocks on the one spinlock, whose lock() runs the PR3
// pcq::backoff ladder (cached-read gate between try_lock attempts,
// exponential pauses degrading to yields) — that ladder is what keeps
// fig3's coarse column convoy-free: waiters stop hammering the cache
// line the holder needs to write on unlock. Batched ops take the lock
// once per batch, which is the only amortization a single-lock
// structure has to offer.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "heap/dary_heap.hpp"
#include "util/spinlock.hpp"

namespace pcq {

template <typename Key, typename Value, typename Compare = std::less<Key>>
class coarse_pq {
  using inner_heap = dary_heap_t<Key, Value, Compare, 4>;

 public:
  using entry = std::pair<Key, Value>;

  /// expected_capacity pre-sizes the inner heap so a prefill of that
  /// many elements never reallocates while holding the lock (the same
  /// hint as mq_config::expected_capacity; 0 = no hint).
  explicit coarse_pq(std::size_t expected_capacity = 0) {
    if (expected_capacity > 0) heap_.reserve(expected_capacity);
  }

  std::size_t num_queues() const { return 1; }

  std::size_t size() const {
    return count_.load(std::memory_order_relaxed);
  }

  class handle {
   public:
    handle(const handle&) = delete;
    handle& operator=(const handle&) = delete;
    handle& operator=(handle&&) = delete;
    handle(handle&& other) noexcept : queue_(other.queue_) {
      other.queue_ = nullptr;
    }

    void push(const Key& key, const Value& value) {
      queue_->push_impl(key, value, nullptr);
    }

    std::uint64_t push_timed(const Key& key, const Value& value) {
      std::uint64_t ts = 0;
      queue_->push_impl(key, value, &ts);
      return ts;
    }

    /// One lock acquisition for the whole batch.
    void push_batch(const entry* items, std::size_t n) {
      queue_->push_batch_impl(items, n);
    }

    bool try_pop(Key& key, Value& value) {
      return queue_->pop_impl(key, value, nullptr);
    }

    bool try_pop_timed(Key& key, Value& value, std::uint64_t& ts) {
      return queue_->pop_impl(key, value, &ts);
    }

    /// Up to max_n exact deleteMins under one lock; ascending output.
    std::size_t try_pop_batch(entry* out, std::size_t max_n) {
      return queue_->pop_batch_impl(out, max_n);
    }

   private:
    friend class coarse_pq;
    explicit handle(coarse_pq* queue) : queue_(queue) {}
    coarse_pq* queue_;
  };

  handle get_handle(std::size_t /*thread_id*/) { return handle(this); }

 private:
  void push_impl(const Key& key, const Value& value, std::uint64_t* ts_out) {
    lock_.lock();
    heap_.push(key, value);
    count_.store(heap_.size(), std::memory_order_relaxed);
    if (ts_out != nullptr) {
      *ts_out = clock_.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    lock_.unlock();
  }

  void push_batch_impl(const entry* items, std::size_t n) {
    if (n == 0) return;
    lock_.lock();
    for (std::size_t i = 0; i < n; ++i) {
      heap_.push(items[i].first, items[i].second);
    }
    count_.store(heap_.size(), std::memory_order_relaxed);
    lock_.unlock();
  }

  bool pop_impl(Key& key, Value& value, std::uint64_t* ts_out) {
    lock_.lock();
    if (heap_.empty()) {
      lock_.unlock();
      return false;
    }
    auto entry = heap_.pop();
    count_.store(heap_.size(), std::memory_order_relaxed);
    if (ts_out != nullptr) {
      *ts_out = clock_.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    lock_.unlock();
    key = entry.first;
    value = entry.second;
    return true;
  }

  std::size_t pop_batch_impl(entry* out, std::size_t max_n) {
    if (max_n == 0) return 0;
    lock_.lock();
    std::size_t got = 0;
    while (got < max_n && !heap_.empty()) out[got++] = heap_.pop();
    count_.store(heap_.size(), std::memory_order_relaxed);
    lock_.unlock();
    return got;
  }

  spinlock lock_;
  inner_heap heap_;
  std::atomic<std::size_t> count_{0};
  std::atomic<std::uint64_t> clock_{0};
};

}  // namespace pcq
