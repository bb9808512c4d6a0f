// Epoch-based memory reclamation (EBR), after Fraser's 3-epoch scheme:
// the grace-period mechanism that lets lock-free structures free removed
// nodes during operation instead of deferring every free to destruction.
// core/detail/concurrent_skiplist.hpp, the substrate of both skiplist
// baselines, is the one user; it reclaims through nothing else.
//
// Model: a domain owns a global epoch counter and a registry of per-thread
// records. Every structure operation runs under a pinned epoch (RAII
// guard); a node that has been *unlinked* (unreachable from the structure)
// is retire()d into the owning record's limbo bucket for the epoch current
// at retire time. The global epoch may advance from e to e+1 only when
// every pinned record sits at e, so once the epoch reaches r+2 no thread
// that could have observed a node retired at r is still inside an
// operation — the bucket is freed. Three limbo buckets per record
// (indexed epoch mod 3) are exactly enough: while the bucket for epoch e
// fills, threads may still be pinned in e-1 holding references into
// bucket e-2's generation... one bucket receiving, one draining its grace
// period, one being freed. Two buckets would free nodes that a thread
// pinned in the previous epoch can still reach; more than three buys
// nothing because a bucket is always reclaimable by the time its index
// comes around again (epoch has advanced by 3 >= 2).
//
// Pinning uses the store / seq_cst-fence / re-read loop (Fraser;
// crossbeam-epoch does the same): publish the pinned epoch, fence, and
// re-read the global epoch until it is unchanged — otherwise a scanner
// that read the record as idle could advance twice and free a generation
// this thread is about to traverse.
//
// Costs and bounds: pin/unpin is one store + one fence + one load per
// operation; retire is a local list push; every kScanThreshold retires the
// owner scans the registry once (O(#records)) to try to advance and frees
// its own ripe buckets. Unreclaimed garbage is bounded by
// O(records * (kScanThreshold + per-epoch retires)) — independent of the
// total operation count. Records are recycled through a free list when
// handles die and are only deallocated by the domain destructor, so
// registry scans never race deallocation. A dead handle's limbo moves to
// the domain's orphan list, which any later scan frees once its grace
// period has elapsed (or the destructor does).
//
// Traits contract (ebr_default_traits shows the shape): limbo_next(n)
// exposes an intrusive Node* link field that the domain may use after the
// node is unlinked; reclaim(n) actually frees the node.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "util/spinlock.hpp"

namespace pcq {

template <typename Node>
struct ebr_default_traits {
  static Node*& limbo_next(Node* n) { return n->ebr_next; }
  static void reclaim(Node* n) { delete n; }
};

template <typename Node, typename Traits = ebr_default_traits<Node>>
class ebr_domain {
 private:
  struct record;  // defined below; nested classes hold pointers to it

 public:
  static constexpr unsigned kBuckets = 3;
  /// Retires between registry scans (amortizes the O(#records) walk).
  static constexpr std::size_t kScanThreshold = 64;

  ebr_domain() = default;
  ebr_domain(const ebr_domain&) = delete;
  ebr_domain& operator=(const ebr_domain&) = delete;

  /// Requires quiescence: no live guards, and handles may still exist only
  /// if no operation is in flight (their records are simply abandoned).
  ~ebr_domain() {
    record* r = records_.load(std::memory_order_acquire);
    while (r != nullptr) {
      record* next = r->next;
      for (unsigned b = 0; b < kBuckets; ++b) free_bucket(r, b);
      delete r;
      r = next;
    }
    orphan* o = orphans_;
    while (o != nullptr) {
      orphan* next = o->next;
      free_node_list(o->head);
      delete o;
      o = next;
    }
  }

  class handle;

  /// RAII pinned-epoch scope. Move-only; unpins on destruction. Not
  /// reentrant: one live guard per handle at a time.
  class guard {
   public:
    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;
    guard(guard&& other) noexcept : rec_(other.rec_) { other.rec_ = nullptr; }
    ~guard() {
      if (rec_ != nullptr) rec_->pinned.store(kIdle, std::memory_order_release);
    }

   private:
    friend class handle;
    explicit guard(record* rec) : rec_(rec) {}
    record* rec_;
  };

  /// Per-thread registration. Move-only; releasing returns the record to
  /// the registry's reuse pool and its pending limbo to the orphan list.
  class handle {
   public:
    handle(const handle&) = delete;
    handle& operator=(const handle&) = delete;
    handle(handle&& other) noexcept
        : domain_(other.domain_), rec_(other.rec_) {
      other.rec_ = nullptr;
    }
    ~handle() {
      if (rec_ != nullptr) {
        // Pending limbo must not be stranded on the record until someone
        // happens to reuse it (a long-lived domain with worker-thread
        // churn would leak bounded-but-dead generations): hand it to the
        // domain's orphan list, which any later scanner drains once the
        // grace period elapses.
        domain_->orphan_limbo(rec_);
        rec_->pinned.store(kIdle, std::memory_order_release);
        rec_->active.store(false, std::memory_order_release);
      }
    }

    /// Publish the current epoch before touching shared memory. The
    /// seq_cst store/load pair orders the pin publication before the
    /// epoch re-read in the single total order (the classic fence recipe,
    /// spelled with seq_cst accesses so TSan models it), so a scanner
    /// either sees our pin or we see its advance and re-pin.
    guard pin() {
      std::uint64_t e = domain_->epoch_.load(std::memory_order_relaxed);
      while (true) {
        rec_->pinned.store(e, std::memory_order_seq_cst);
        const std::uint64_t now =
            domain_->epoch_.load(std::memory_order_seq_cst);
        if (now == e) break;
        e = now;
      }
      return guard(rec_);
    }

    /// Hand an *unlinked* node to the domain. Must run under a pin (the
    /// same operation that unlinked the node). The node's limbo_next field
    /// belongs to the domain from here on.
    void retire(Node* n) {
      record* rec = rec_;
      const std::uint64_t e = domain_->epoch_.load(std::memory_order_acquire);
      const unsigned b = static_cast<unsigned>(e % kBuckets);
      if (rec->limbo_epoch[b] != e) {
        // Same residue class => the bucket's generation is at least 3
        // epochs old, comfortably past its grace period.
        free_bucket(rec, b);
        rec->limbo_epoch[b] = e;
      }
      Traits::limbo_next(n) = rec->limbo[b];
      rec->limbo[b] = n;
      ++rec->limbo_count[b];
      if (++rec->since_scan >= kScanThreshold) {
        rec->since_scan = 0;
        domain_->try_advance(rec);
      }
    }

   private:
    friend class ebr_domain;
    handle(ebr_domain* domain, record* rec) : domain_(domain), rec_(rec) {}

    ebr_domain* domain_;
    record* rec_;
  };

  /// Registers the calling thread, reusing a released record if one is
  /// free. Thread-safe; O(#records).
  handle get_handle() {
    for (record* r = records_.load(std::memory_order_acquire); r != nullptr;
         r = r->next) {
      bool expected = false;
      if (!r->active.load(std::memory_order_relaxed) &&
          r->active.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel)) {
        return handle(this, r);
      }
    }
    record* fresh = new record();
    fresh->active.store(true, std::memory_order_relaxed);
    record* head = records_.load(std::memory_order_relaxed);
    do {
      fresh->next = head;
    } while (!records_.compare_exchange_weak(head, fresh,
                                             std::memory_order_release,
                                             std::memory_order_relaxed));
    return handle(this, fresh);
  }

  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Nodes retired but not yet freed / freed so far, summed over records.
  /// Owner-written fields read without synchronization: only meaningful at
  /// quiescence (tests, shutdown accounting).
  std::size_t limbo_quiescent() const {
    std::size_t total = orphan_pending_.load(std::memory_order_relaxed);
    for (record* r = records_.load(std::memory_order_acquire); r != nullptr;
         r = r->next) {
      for (unsigned b = 0; b < kBuckets; ++b) total += r->limbo_count[b];
    }
    return total;
  }
  std::size_t reclaimed_quiescent() const {
    std::size_t total = orphan_reclaimed_.load(std::memory_order_relaxed);
    for (record* r = records_.load(std::memory_order_acquire); r != nullptr;
         r = r->next) {
      total += r->reclaimed;
    }
    return total;
  }

 private:
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};
  struct alignas(64) record {
    std::atomic<std::uint64_t> pinned{kIdle};
    std::atomic<bool> active{false};
    record* next = nullptr;  ///< registry list; freed only by the domain
    // Owner-only (or quiescent) fields:
    Node* limbo[kBuckets] = {nullptr, nullptr, nullptr};
    std::uint64_t limbo_epoch[kBuckets] = {0, 0, 0};
    std::size_t limbo_count[kBuckets] = {0, 0, 0};
    std::size_t since_scan = 0;
    std::size_t reclaimed = 0;
  };

  /// A released handle's pending limbo, parked until its grace period
  /// elapses. Guarded by orphans_lock_ (cold path: handle death and the
  /// occasional drain attempt).
  struct orphan {
    Node* head;
    std::uint64_t epoch;
    std::size_t count;
    orphan* next;
  };

  static void free_node_list(Node* n) {
    while (n != nullptr) {
      Node* next = Traits::limbo_next(n);
      Traits::reclaim(n);
      n = next;
    }
  }

  static void free_bucket(record* rec, unsigned b) {
    free_node_list(rec->limbo[b]);
    rec->reclaimed += rec->limbo_count[b];
    rec->limbo[b] = nullptr;
    rec->limbo_count[b] = 0;
  }

  void orphan_limbo(record* rec) {
    orphans_lock_.lock();
    for (unsigned b = 0; b < kBuckets; ++b) {
      if (rec->limbo[b] == nullptr) continue;
      orphan* o = new orphan{rec->limbo[b], rec->limbo_epoch[b],
                             rec->limbo_count[b], orphans_};
      orphans_ = o;
      orphan_pending_.fetch_add(rec->limbo_count[b],
                                std::memory_order_relaxed);
      rec->limbo[b] = nullptr;
      rec->limbo_count[b] = 0;
    }
    orphans_lock_.unlock();
  }

  /// Free every orphaned bucket whose grace period has elapsed. Skips if
  /// another thread is already draining.
  void drain_orphans(std::uint64_t now) {
    if (!orphans_lock_.try_lock()) return;
    orphan** link = &orphans_;
    while (*link != nullptr) {
      orphan* o = *link;
      if (o->epoch + 2 <= now) {
        *link = o->next;
        free_node_list(o->head);
        orphan_pending_.fetch_sub(o->count, std::memory_order_relaxed);
        orphan_reclaimed_.fetch_add(o->count, std::memory_order_relaxed);
        delete o;
      } else {
        link = &o->next;
      }
    }
    orphans_lock_.unlock();
  }

  /// Advance the global epoch if every pinned record is at it, then free
  /// the caller's buckets whose grace period (2 epochs) has elapsed.
  void try_advance(record* self) {
    const std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
    bool all_current = true;
    for (record* r = records_.load(std::memory_order_acquire); r != nullptr;
         r = r->next) {
      // seq_cst so the scan participates in the same total order as the
      // pin protocol: a pin we miss here implies the pinner re-read the
      // epoch after our advance.
      const std::uint64_t p = r->pinned.load(std::memory_order_seq_cst);
      if (p != kIdle && p != e) {
        all_current = false;
        break;
      }
    }
    if (all_current) {
      std::uint64_t expected = e;
      epoch_.compare_exchange_strong(expected, e + 1,
                                     std::memory_order_seq_cst,
                                     std::memory_order_relaxed);
    }
    const std::uint64_t now = epoch_.load(std::memory_order_acquire);
    for (unsigned b = 0; b < kBuckets; ++b) {
      if (self->limbo[b] != nullptr && self->limbo_epoch[b] + 2 <= now) {
        free_bucket(self, b);
      }
    }
    if (orphan_pending_.load(std::memory_order_relaxed) != 0) {
      drain_orphans(now);
    }
  }

  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<record*> records_{nullptr};
  spinlock orphans_lock_;
  orphan* orphans_ = nullptr;  ///< guarded by orphans_lock_
  std::atomic<std::size_t> orphan_pending_{0};
  std::atomic<std::size_t> orphan_reclaimed_{0};
};

}  // namespace pcq
