// The concurrent (1+beta)-choice MultiQueue of Alistarh, Kopinsky, Li,
// Nadiradze, "The Power of Choice in Priority Scheduling" (PODC 2017).
//
// Structure: n = queue_factor * num_threads sequential priority queues
// (each a buffered_heap<16>: a sorted deletion buffer and an insertion
// buffer in front of a store of sorted runs, popping the exact minimum),
// each guarded by its own spinlock, each publishing its current
// minimum key in an atomic "top" cell so deleteMin can compare
// candidates without locking. The paper never opens these queues: which
// queue an op samples, how many RNG draws it makes, and which published
// tops it compares depend only on the tops, never on how a slot stores
// its entries.
//
// Slot layout: lock, top and count come first, then the heap. Its
// counts and run-store pointer fill the rest of that first line, and its
// buffers follow on their own lines, so a slot that never holds more
// than 32 entries stays inside its own lines, and only a buffer flush
// or refill reaches the run store (see heap/buffered_heap.hpp for the
// line budget).
//
// insert(key):   sample one queue uniformly (optionally sticky for s
//                consecutive inserts), lock it, push.
// deleteMin():   with probability beta sample `choices` distinct queues,
//                read their published tops, lock the one with the least
//                top and pop it; with probability 1-beta pop a single
//                uniformly sampled queue. beta = 1, choices = 2 is the
//                classic MultiQueue; beta < 1 is the paper's relaxation
//                that trades rank quality for less contention.
//
// Any lock acquisition uses try_lock and resamples on failure (with an
// exponential backoff after a lost try_lock), so threads never wait
// behind each other on a hot queue.
//
// Batched hot paths — the per-element cost of the scalar API is one lock
// acquisition, one heap sift, and one top/count publish; batching
// amortizes all three:
//
//   push_batch(items, n):  one lock + n substrate pushes of items[0..n)
//                          in place, in the caller's order + one publish.
//   try_pop_batch(out, k): one candidate selection + one lock, up to k
//                          pops, one publish. Elements come out in heap
//                          (ascending) order. The extra rank relaxation is
//                          bounded: an entry of the batch can be overtaken
//                          only by the at most k-1 entries ahead of it in
//                          its own batch plus whatever arrives while the
//                          caller holds it. try_pop is try_pop_batch(1).
//
// Handles model the uniform queue concept of core/pq_handle.hpp (this
// class is the concept's reference implementation). A handle owns no
// elements — every element is in some slot or delivered — so a handle
// can die at any time. size() sums a per-handle striped counter — O(1)
// in the queue count, contention-free (each handle writes its own
// stripe). Approximate under concurrency, exact when quiescent.
//
// The *_timed variants additionally draw a timestamp from a global atomic
// counter *inside the critical section* (the operation's linearization
// point). Replaying the merged timestamp order through a rank oracle
// (core/rank_recorder.hpp) yields exact, skew-free rank statistics.
//
// Key requirements: trivially copyable, totally ordered by Compare, and
// std::numeric_limits<Key>::max() is reserved as the empty sentinel
// (never inserted). The benches use std::uint64_t keys.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "heap/buffered_heap.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"
#include "util/striped_counter.hpp"

namespace pcq {

struct mq_config {
  /// Probability that a deleteMin uses the d-choice rule (vs a single
  /// uniform sample). 1.0 reproduces the classic two-choice MultiQueue.
  double beta = 1.0;
  /// Number of queues compared by a choosing deleteMin (d). 2 is the
  /// paper's setting; more choices buy slightly better ranks for extra
  /// top reads.
  std::size_t choices = 2;
  /// Queues per thread (c): #queues = c * num_threads. The literature
  /// (and the paper) fix c = 2 to balance contention against rank.
  std::size_t queue_factor = 2;
  /// An insert reuses its sampled queue for this many consecutive
  /// inserts. 1 is the paper's algorithm; larger values are the locality
  /// extension ablated in bench_rank's s sweep.
  std::size_t stickiness = 1;
  /// Expected number of live elements across the whole queue; when
  /// nonzero, each slot heap reserves its uniform share (plus
  /// balls-into-bins slack) at construction, so a prefill of this size
  /// never reallocates inside a queue lock. On Linux each slot's reserve
  /// also advises huge pages for the 2 MiB-aligned interior of its arena
  /// (buffered_heap_t::reserve), so the prefill faults that memory in
  /// 2 MiB at a time: a 2^21-entry prefill into 8 slots takes about
  /// 2,000 minor faults instead of 6,630. Purely a capacity hint — never
  /// a limit.
  std::size_t expected_capacity = 0;
  /// Base seed for the per-thread sampling RNG streams.
  std::uint64_t seed = 0x706371u;  // "pcq"
};

template <typename Key, typename Value, typename Compare = std::less<Key>>
class multi_queue {
  static_assert(std::is_trivially_copyable<Key>::value,
                "multi_queue keys must be trivially copyable (they are "
                "published through std::atomic)");

  using slot_heap = buffered_heap_t<Key, Value, Compare, 16>;

 public:
  using entry = std::pair<Key, Value>;

  multi_queue(const mq_config& config, std::size_t num_threads)
      : config_(config),
        num_queues_(std::max<std::size_t>(
            1, config.queue_factor * std::max<std::size_t>(1, num_threads))),
        slots_(new slot[num_queues_]) {
    if (config_.choices < 1) config_.choices = 1;
    if (config_.stickiness < 1) config_.stickiness = 1;
    if (config_.expected_capacity > 0) {
      // Uniform share + 25% slack: random inserts spread like balls into
      // bins, so the max-loaded slot overshoots E/n by O(sqrt(E/n log n));
      // the slack absorbs that without doubling the footprint.
      const std::size_t share =
          (config_.expected_capacity + num_queues_ - 1) / num_queues_;
      const std::size_t per_slot = share + share / 4 + 1;
      for (std::size_t i = 0; i < num_queues_; ++i) {
        slots_[i].heap.reserve(per_slot);
      }
    }
  }

  std::size_t num_queues() const { return num_queues_; }

  /// Elements currently in the queue. Sums the handle-striped counter:
  /// O(1) in the queue count, no locks, no shared cache lines on the
  /// write side.
  /// Approximate under concurrency (the sum is not a snapshot), exact
  /// when quiescent. Regression-tested under concurrent insert/delete in
  /// test_multi_queue.
  std::size_t size() const { return count_.sum_clamped(); }

  class handle {
   public:
    handle(const handle&) = delete;
    handle& operator=(const handle&) = delete;
    handle(handle&&) noexcept = default;

    void push(const Key& key, const Value& value) {
      queue_->push_impl(*this, key, value, nullptr);
    }

    /// push + linearization timestamp (drawn under the queue lock).
    std::uint64_t push_timed(const Key& key, const Value& value) {
      std::uint64_t ts = 0;
      queue_->push_impl(*this, key, value, &ts);
      return ts;
    }

    /// One lock + one publish for the whole batch. Items are pushed in
    /// place, in the caller's order: a slot pops its exact minimum
    /// whatever order its entries arrived in.
    void push_batch(const entry* items, std::size_t n) {
      queue_->push_batch_impl(*this, items, n);
    }

    bool try_pop(Key& key, Value& value) {
      return queue_->pop_impl(*this, key, value, nullptr);
    }

    bool try_pop_timed(Key& key, Value& value, std::uint64_t& ts) {
      return queue_->pop_impl(*this, key, value, &ts);
    }

    /// Pops up to max_n elements from one chosen queue under one lock;
    /// returns how many were written to out (ascending key order). 0 means
    /// the emptiness sweep found nothing (relaxed, like try_pop).
    std::size_t try_pop_batch(entry* out, std::size_t max_n) {
      return queue_->pop_batch_impl(*this, out, max_n, nullptr);
    }

   private:
    friend class multi_queue;
    handle(multi_queue* queue, std::size_t thread_id)
        : queue_(queue),
          rng_(derive_seed(queue->config_.seed, thread_id)),
          scratch_(std::min(queue->config_.choices, queue->num_queues_)),
          stripe_(thread_id) {}

    multi_queue* queue_;
    xoshiro256ss rng_;
    std::vector<std::size_t> scratch_;  ///< d-choice sample buffer
    std::size_t stripe_ = 0;            ///< striped-counter lane
    std::size_t sticky_queue_ = 0;
    std::size_t sticky_left_ = 0;  ///< inserts remaining on sticky_queue_
  };

  /// One handle per thread; thread_id seeds the handle's RNG stream and
  /// picks its counter stripe.
  handle get_handle(std::size_t thread_id) { return handle(this, thread_id); }

 private:
  static constexpr Key empty_key() {
    return std::numeric_limits<Key>::max();
  }

  struct alignas(64) slot {
    spinlock lock;
    std::atomic<Key> top{empty_key()};
    std::atomic<std::size_t> count{0};
    slot_heap heap;
  };

  void publish(slot& s) {
    s.top.store(s.heap.empty() ? empty_key() : s.heap.top_key(),
                std::memory_order_release);
    s.count.store(s.heap.size(), std::memory_order_release);
  }

  std::uint64_t tick() {
    return clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Sticky queue selection shared by scalar and batched pushes; a batch
  /// spends one sticky credit regardless of its size.
  slot* lock_push_slot(handle& h, backoff& bo) {
    while (true) {
      if (h.sticky_left_ == 0) {
        h.sticky_queue_ = h.rng_.bounded(num_queues_);
        h.sticky_left_ = config_.stickiness;
      }
      slot& s = slots_[h.sticky_queue_];
      if (s.lock.try_lock()) {
        --h.sticky_left_;
        return &s;
      }
      // Contended: abandon the sticky queue, back off, resample.
      h.sticky_left_ = 0;
      bo.pause();
    }
  }

  void push_impl(handle& h, const Key& key, const Value& value,
                 std::uint64_t* ts_out) {
    backoff bo;
    slot* s = lock_push_slot(h, bo);
    s->heap.push(key, value);
    publish(*s);
    if (ts_out != nullptr) *ts_out = tick();
    s->lock.unlock();
    count_.add(h.stripe_, 1);
  }

  void push_batch_impl(handle& h, const entry* items, std::size_t n) {
    if (n == 0) return;
    backoff bo;
    slot* s = lock_push_slot(h, bo);
    for (std::size_t i = 0; i < n; ++i) {
      s->heap.push(items[i].first, items[i].second);
    }
    publish(*s);
    s->lock.unlock();
    count_.add(h.stripe_, static_cast<std::int64_t>(n));
  }

  bool pop_impl(handle& h, Key& key, Value& value, std::uint64_t* ts_out) {
    entry e;
    if (pop_batch_impl(h, &e, 1, ts_out) == 0) return false;
    key = e.first;
    value = e.second;
    return true;
  }

  /// The one deleteMin retry loop: (1+beta)/d candidate selection,
  /// try_lock, up to max_n heap pops under one lock, one publish. The
  /// scalar path is max_n = 1; ts_out (scalar callers only) draws the
  /// linearization ticket inside the critical section. Only a lost
  /// try_lock backs off; an attempt that found only empty tops (or a
  /// slot emptied before its lock) retries at once.
  std::size_t pop_batch_impl(handle& h, entry* out, std::size_t max_n,
                             std::uint64_t* ts_out) {
    if (max_n == 0) return 0;
    const Compare compare{};
    backoff bo;
    for (unsigned attempt = 1;; ++attempt) {
      std::size_t candidate;
      bool have_candidate;
      if (config_.choices >= 2 && num_queues_ >= 2 &&
          h.rng_.bernoulli(config_.beta)) {
        have_candidate = sample_best_of_d(h, compare, candidate);
      } else {
        candidate = h.rng_.bounded(num_queues_);
        have_candidate =
            slots_[candidate].top.load(std::memory_order_acquire) !=
            empty_key();
      }
      bool contended = false;
      if (have_candidate) {
        slot& s = slots_[candidate];
        if (s.lock.try_lock()) {
          std::size_t got = 0;
          while (got < max_n && !s.heap.empty()) out[got++] = s.heap.pop();
          if (got > 0) {
            publish(s);
            if (ts_out != nullptr) *ts_out = tick();
            s.lock.unlock();
            count_.add(h.stripe_, -static_cast<std::int64_t>(got));
            return got;
          }
          s.lock.unlock();
        } else {
          contended = true;
        }
      }
      if (empty_by_sweep(attempt)) return 0;
      if (contended) bo.pause();
    }
  }

  /// Periodic emptiness sweep over all published tops *and counts*.
  /// Checking only tops loses a race: publish() stores top before count,
  /// but the count store is not ordered with it from a third thread's
  /// point of view, so a racing push's count can land first — a sweep
  /// that ignored counts would report a fresh element invisible for one
  /// round. Either cell visible means the queue is worth another attempt.
  /// Relaxed verdict either way: a push that published nothing yet can
  /// linearize after the pop's emptiness answer.
  ///
  /// Strictly every-32nd-attempt cadence. An earlier version also swept
  /// on every attempt whose SAMPLE found no candidate — but near-empty
  /// queues are exactly where samples fail, so a many-thread drain
  /// degenerated into every pop thrashing the full O(#queues) array of
  /// published top+count cells on every attempt (see fig1's drain
  /// table). The cadence depends on the attempt counter alone.
  /// A failed sample retries at once, without backing off (it touched
  /// only d top cells and no lock), so a truly-empty verdict costs 31
  /// sample attempts and one sweep (about 0.6 us on one thread), not
  /// the backoff ladder's yields (about 10 us).
  bool empty_by_sweep(unsigned attempt) {
    if (attempt % 32 != 0) return false;
    for (std::size_t i = 0; i < num_queues_; ++i) {
      const slot& s = slots_[i];
      if (s.top.load(std::memory_order_acquire) != empty_key() ||
          s.count.load(std::memory_order_acquire) != 0) {
        return false;
      }
    }
    return true;
  }

  /// Samples min(choices, num_queues) distinct queues and returns the
  /// index whose published top is least; false if all sampled are empty.
  bool sample_best_of_d(handle& h, const Compare& compare,
                        std::size_t& out) {
    const std::size_t d = h.scratch_.size();
    sample_distinct(h.rng_, num_queues_, d, h.scratch_.data());
    bool found = false;
    Key best{};
    for (std::size_t i = 0; i < d; ++i) {
      const std::size_t q = h.scratch_[i];
      const Key top = slots_[q].top.load(std::memory_order_acquire);
      if (top == empty_key()) continue;
      if (!found || compare(top, best)) {
        found = true;
        best = top;
        out = q;
      }
    }
    return found;
  }

  mq_config config_;
  std::size_t num_queues_;
  std::unique_ptr<slot[]> slots_;
  striped_counter<64> count_;
  std::atomic<std::uint64_t> clock_{0};
};

}  // namespace pcq
