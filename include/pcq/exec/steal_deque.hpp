// Chase–Lev work-stealing deque pool — the *scheduler-level-choice*
// baseline for the executor comparison, mirroring the po2 story in
// service/dispatch.hpp: instead of one relaxed global order (the
// MultiQueue's pop-time choice), each worker owns a LIFO deque and idle
// workers steal FIFO from random victims. Priorities ride along as
// payload but are never compared — the "schedule quality" axis the
// exec benches measure is exactly what this baseline gives up.
//
// The pool models the full pq handle concept (core/pq_handle.hpp) so it
// plugs into the executor, the shared test harness, and the bench
// driver unchanged:
//
//   - push goes to the handle's own deque (bottom, LIFO end);
//   - try_pop takes from the own bottom first, then sweeps victims in
//     random order stealing from the top (FIFO end); one full failed
//     sweep reports empty (relaxed emptiness, like every other queue);
//   - try_pop_batch pops up to max_n elements, then sorts the chunk
//     ascending under Compare to honor the chunk-ordering contract;
//   - handles are move-only and trivially flush-on-destruction: a
//     handle never owns elements — everything lives in the shared
//     deques, where any other handle can steal it.
//
// Handle ids map to deques as `tid % num_deques`, so ids beyond the
// construction count are legal (the harness's drain handles use them).
// The one-handle-per-thread rule sharpens to: at most one *live* handle
// per deque index at a time (two ids congruent mod num_deques must not
// operate concurrently).
//
// Memory model: this is the Le et al. (PPoPP'13) C11 formulation with
// the standalone fences strengthened into seq_cst operations on
// top/bottom, and every buffer cell made an atomic accessed relaxed.
// Two reasons: (a) TSan does not model std::atomic_thread_fence, so the
// fence-based version reports false races — the seq_cst-op version is
// TSan-clean by construction; (b) the data race on cells in the
// original (plain stores racing with steals that lose the CAS) becomes
// a benign relaxed-atomic race. The CAS on top still arbitrates
// ownership, so a thief that loses the race discards what it read.
//
// Buffer growth never frees the old buffer while the deque is live: a
// concurrent thief may still be reading through a stale buffer pointer.
// Stale reads are safe — the live index range [top, bottom) of the old
// buffer is immutable after a grow (the owner writes only to the new
// buffer) — and retired buffers are chained and freed at pool
// destruction, the same deferred-reclamation idiom as the skiplists'
// EBR, minus the epochs (retirement is O(log capacity) per deque
// lifetime, so leaking until destruction is cheap).

#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/pq_handle.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"

namespace pcq {
namespace exec {

template <typename Key, typename Value, typename Compare = std::less<Key>>
class steal_deque_pool {
  static_assert(std::is_trivially_copyable<Key>::value &&
                    std::is_trivially_copyable<Value>::value,
                "steal_deque_pool stores entries in atomic cells");

 public:
  using entry = std::pair<Key, Value>;

  static constexpr std::size_t kInitialCapacity = 64;

  explicit steal_deque_pool(std::size_t num_threads,
                            std::uint64_t seed = 0x57ea1deccull)
      : num_deques_(num_threads == 0 ? 1 : num_threads), seed_(seed) {
    // Over-aligned storage: a plain operator new[] only guarantees
    // alignof(max_align_t), and UBSan flags every access to a deque it
    // misplaces.
    deques_ = static_cast<deque*>(::operator new[](
        num_deques_ * sizeof(deque), std::align_val_t{alignof(deque)}));
    for (std::size_t i = 0; i < num_deques_; ++i) new (&deques_[i]) deque();
  }

  steal_deque_pool(const steal_deque_pool&) = delete;
  steal_deque_pool& operator=(const steal_deque_pool&) = delete;

  ~steal_deque_pool() {
    for (std::size_t i = 0; i < num_deques_; ++i) {
      buffer* b = deques_[i].buf.load(std::memory_order_relaxed);
      while (b != nullptr) {
        buffer* prev = b->prev;
        delete b;
        b = prev;
      }
      deques_[i].~deque();
    }
    ::operator delete[](deques_, std::align_val_t{alignof(deque)});
  }

  class handle {
   public:
    handle(handle&& other) noexcept
        : pool_(other.pool_), own_(other.own_), rng_(other.rng_) {
      other.pool_ = nullptr;
    }
    handle& operator=(handle&& other) noexcept {
      pool_ = other.pool_;
      own_ = other.own_;
      rng_ = other.rng_;
      other.pool_ = nullptr;
      return *this;
    }
    handle(const handle&) = delete;
    handle& operator=(const handle&) = delete;

    void push(const Key& key, const Value& value) {
      pool_->push_bottom(pool_->deques_[own_], key, value);
    }

    void push_batch(const entry* items, std::size_t n) {
      deque& d = pool_->deques_[own_];
      for (std::size_t i = 0; i < n; ++i)
        pool_->push_bottom(d, items[i].first, items[i].second);
    }

    bool try_pop(Key& key, Value& value) {
      entry e;
      if (pool_->take_bottom(pool_->deques_[own_], e)) {
        key = e.first;
        value = e.second;
        return true;
      }
      // Own deque looked empty: sweep the victims once, starting at a
      // random offset so thieves spread out. A lost CAS means another
      // handle took an element (global progress), so retry the same
      // victim until it succeeds or looks empty.
      const std::size_t n = pool_->num_deques_;
      const std::size_t start = n > 1 ? rng_.bounded(n) : 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t victim = (start + i) % n;
        if (victim == own_) continue;
        for (;;) {
          const steal_result r = pool_->steal(pool_->deques_[victim], e);
          if (r == steal_result::kSuccess) {
            key = e.first;
            value = e.second;
            return true;
          }
          if (r == steal_result::kEmpty) break;
          cpu_relax();  // kLostRace
        }
      }
      return false;  // one full failed sweep: relaxed "looked empty"
    }

    std::size_t try_pop_batch(entry* out, std::size_t max_n) {
      std::size_t got = 0;
      while (got < max_n && try_pop(out[got].first, out[got].second)) ++got;
      // Chunk contract: ascending under the queue's comparator.
      std::sort(out, out + got,
                [](const entry& a, const entry& b) {
                  return Compare()(a.first, b.first);
                });
      return got;
    }

   private:
    friend class steal_deque_pool;
    handle(steal_deque_pool* pool, std::size_t own, std::uint64_t seed)
        : pool_(pool), own_(own), rng_(seed) {}

    steal_deque_pool* pool_;
    std::size_t own_;
    xoshiro256ss rng_;
  };

  handle get_handle(std::size_t thread_id) {
    return handle(this, thread_id % num_deques_,
                  derive_seed(seed_, thread_id));
  }

  /// Approximate live count; exact when quiescent.
  std::size_t size() const {
    std::int64_t total = 0;
    for (std::size_t i = 0; i < num_deques_; ++i) {
      const std::int64_t t = deques_[i].top.load(std::memory_order_acquire);
      const std::int64_t b =
          deques_[i].bottom.load(std::memory_order_acquire);
      if (b > t) total += b - t;
    }
    return static_cast<std::size_t>(total);
  }

  std::size_t num_deques() const { return num_deques_; }

 private:
  struct cell {
    std::atomic<Key> key;
    std::atomic<Value> value;
  };

  struct buffer {
    explicit buffer(std::size_t cap)
        : capacity(cap), mask(cap - 1), cells(new cell[cap]), prev(nullptr) {}
    ~buffer() { delete[] cells; }

    const std::size_t capacity;  // power of two
    const std::size_t mask;
    cell* const cells;
    buffer* prev;  // retired-buffer chain, freed at pool destruction
  };

  struct alignas(64) deque {
    deque() : top(0), bottom(0), buf(new buffer(kInitialCapacity)) {}
    std::atomic<std::int64_t> top;
    std::atomic<std::int64_t> bottom;
    std::atomic<buffer*> buf;
  };

  enum class steal_result { kSuccess, kEmpty, kLostRace };

  // Owner-only: append at the LIFO end.
  void push_bottom(deque& d, const Key& key, const Value& value) {
    const std::int64_t b = d.bottom.load(std::memory_order_relaxed);
    const std::int64_t t = d.top.load(std::memory_order_acquire);
    buffer* a = d.buf.load(std::memory_order_relaxed);
    if (b - t >= static_cast<std::int64_t>(a->capacity)) a = grow(d, a, t, b);
    a->cells[static_cast<std::size_t>(b) & a->mask].key.store(
        key, std::memory_order_relaxed);
    a->cells[static_cast<std::size_t>(b) & a->mask].value.store(
        value, std::memory_order_relaxed);
    // seq_cst publish: release for the cell stores, and globally ordered
    // against steal()'s top load so owner and thieves agree on emptiness.
    d.bottom.store(b + 1, std::memory_order_seq_cst);
  }

  // Owner-only: take from the LIFO end.
  bool take_bottom(deque& d, entry& out) {
    const std::int64_t b = d.bottom.load(std::memory_order_relaxed) - 1;
    buffer* a = d.buf.load(std::memory_order_relaxed);
    d.bottom.store(b, std::memory_order_seq_cst);  // reserve before reading top
    std::int64_t t = d.top.load(std::memory_order_seq_cst);
    if (t <= b) {
      out.first = a->cells[static_cast<std::size_t>(b) & a->mask].key.load(
          std::memory_order_relaxed);
      out.second = a->cells[static_cast<std::size_t>(b) & a->mask].value.load(
          std::memory_order_relaxed);
      if (t == b) {
        // Last element: race the thieves for it via the top CAS.
        const bool won = d.top.compare_exchange_strong(
            t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
        d.bottom.store(b + 1, std::memory_order_relaxed);
        return won;
      }
      return true;
    }
    d.bottom.store(b + 1, std::memory_order_relaxed);  // was empty; restore
    return false;
  }

  // Any handle: take from the FIFO end of a victim deque.
  steal_result steal(deque& d, entry& out) {
    std::int64_t t = d.top.load(std::memory_order_seq_cst);
    const std::int64_t b = d.bottom.load(std::memory_order_seq_cst);
    if (t >= b) return steal_result::kEmpty;
    // A stale buf is safe: after a grow the old buffer's live range is
    // immutable, and slot t is live here (t < b under the loads above).
    buffer* a = d.buf.load(std::memory_order_acquire);
    out.first = a->cells[static_cast<std::size_t>(t) & a->mask].key.load(
        std::memory_order_relaxed);
    out.second = a->cells[static_cast<std::size_t>(t) & a->mask].value.load(
        std::memory_order_relaxed);
    if (!d.top.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                       std::memory_order_relaxed))
      return steal_result::kLostRace;  // discard the speculative read
    return steal_result::kSuccess;
  }

  buffer* grow(deque& d, buffer* old, std::int64_t t, std::int64_t b) {
    buffer* nb = new buffer(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) {
      const std::size_t src = static_cast<std::size_t>(i) & old->mask;
      const std::size_t dst = static_cast<std::size_t>(i) & nb->mask;
      nb->cells[dst].key.store(
          old->cells[src].key.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      nb->cells[dst].value.store(
          old->cells[src].value.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    nb->prev = old;  // retire; freed at pool destruction
    d.buf.store(nb, std::memory_order_release);
    return nb;
  }

  const std::size_t num_deques_;
  const std::uint64_t seed_;
  deque* deques_;
};

}  // namespace exec
}  // namespace pcq
