// Lock-free skiplist substrate shared by the Lindén–Jonsson-style and
// SprayList-style baseline priority queues (core/baselines/).
//
// Design, after Lindén & Jonsson (OPODIS 2013):
//
//   - Nodes are key-ordered at level 0; upper levels are hints. A node is
//     logically deleted by setting the mark bit (LSB) of its *own* level-0
//     next pointer with a single fetch_or — the deleteMin linearization
//     point. Once marked, a node's level-0 next pointer is immutable
//     (every CAS expects an unmarked value), so the chain of deleted nodes
//     at the front of the list is frozen.
//   - try_pop_front traverses the deleted prefix read-only and claims the
//     first live node with one fetch_or. Physical unlinking is batched:
//     only when the observed prefix exceeds kPrefixBound does the claiming
//     thread swing the head pointers past it (restructure), so the common
//     deleteMin issues one atomic write instead of a CAS per level.
//   - Inserts splice over marked nodes they walk past at level 0 (helping
//     physical deletion), which also handles inserting a new minimum into
//     the dead prefix.
//   - try_pop_spray_pinned implements the SprayList descent: a random
//     walk of bounded jumps per level that lands O(polylog) positions from
//     the front, then claims the first live node from there. Sprays never
//     restructure; spray_pq mixes in cleaner (front) pops for that.
//
// Memory reclamation is epoch-based (util/ebr.hpp), the list's only
// policy. Every operation runs under a pinned epoch, and the two sites
// that make dead nodes unreachable at level 0 — the prefix restructure's
// head swing and an insert's Harris-style dead-run unlink — own the nodes
// their successful CAS detached (CAS uniqueness makes ownership
// exclusive). The owner strips each node out of the upper levels it still
// appears in (unlink_upper) and retires it to the list's epoch domain,
// which frees it two epoch advances later. Pinning also keeps the level-0
// CAS ABA-safe: a node's address cannot be recycled while any operation
// that could have read it is still pinned. So memory stays
// O(live + threads * limbo) under churn, not O(total inserts).
//
// Freeing memory promotes stale upper-level hints from "benign rot" to
// use-after-free, so upper levels obey a strict discipline. At level 0 no
// extra work is needed: a marked node's pointer is frozen, and every
// level-0 splice CAS expects the exact current pointer value, so a link to
// a detached (hence retired) node can never be installed. At levels >= 1
// the expectation argument does not hold (a stale successor read can be
// CASed in after its target's owner already swept the level), so every site
// that installs an upper-level pointer re-validates after the CAS and keeps
// unlinking while the installed successor is dead (unlink_dead_successors
// loops in locate_preds / unlink_upper / collect_prefix / insert's
// linking), and descents (locate_preds, sprays) never step onto a dead
// tower above level 0, whose lower links may be frozen stale. The residual
// store-buffer race — installer's link + liveness re-check vs claimer's
// mark + level sweep, each missing the other — is closed by making the
// claiming fetch_or and the upper-level pointer accesses seq_cst (free on
// x86: seq_cst RMWs are the same locked instructions): in the single total
// order, either the installer's re-check sees the mark (and it removes its
// own link), or the claimer's sweep sees the link (and unlinks it). Links
// *from* already-unreachable nodes need no sweep: only readers pinned
// before the node was detached can traverse them, and while any such reader
// stays pinned the epoch cannot advance far enough to free the target.
//
// Key and Value must be trivially copyable and trivially destructible
// (nodes are raw storage, and keys/values are read after a claim without
// further synchronization beyond the pointer acquire).

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <type_traits>

#include "util/ebr.hpp"
#include "util/rng.hpp"
#include "util/striped_counter.hpp"

namespace pcq {
namespace detail {

template <typename Key, typename Value, typename Compare = std::less<Key>>
class concurrent_skiplist {
  static_assert(std::is_trivially_copyable<Key>::value &&
                    std::is_trivially_destructible<Key>::value,
                "concurrent_skiplist keys must be trivially copyable and "
                "destructible");
  static_assert(std::is_trivially_copyable<Value>::value &&
                    std::is_trivially_destructible<Value>::value,
                "concurrent_skiplist values must be trivially copyable and "
                "destructible");

  struct node;
  struct node_traits;
  using domain_type = ebr_domain<node, node_traits>;

 public:
  /// Tallest tower: supports ~2^24 elements at the classic p = 1/2
  /// level-promotion rate.
  static constexpr int kMaxHeight = 24;
  /// Marked-prefix length that triggers a head restructure.
  static constexpr std::size_t kPrefixBound = 128;

  /// Per-thread epoch registration; every operation takes one by
  /// reference.
  using reclaim_handle = typename domain_type::handle;

  concurrent_skiplist() : head_(make_node(kMaxHeight, Key{}, Value{})) {}

  concurrent_skiplist(const concurrent_skiplist&) = delete;
  concurrent_skiplist& operator=(const concurrent_skiplist&) = delete;

  ~concurrent_skiplist() {
    // Limbo nodes are freed by the domain member's destructor; the level-0
    // chain (live + marked-but-unclaimed-by-restructure) is ours to free
    // here. Retired nodes are never level-0 reachable, so the two sets are
    // disjoint.
    node* cur = ptr_of(head_->tower()[0].load(std::memory_order_relaxed));
    while (cur != nullptr) {
      node* next = ptr_of(cur->tower()[0].load(std::memory_order_relaxed));
      ::operator delete(cur);
      cur = next;
    }
    ::operator delete(head_);
  }

  reclaim_handle get_reclaim_handle() { return domain_.get_handle(); }

  /// Caller-held epoch pin. The `*_pinned` operation variants run under a
  /// guard obtained here, so a batch of operations pays one pin/unpin
  /// (store + seq_cst fence + load) instead of one per element — the
  /// pin/unpin elision the baseline batch APIs are built on. Guards are
  /// not reentrant: never call a pinning (non-`_pinned`) operation while
  /// holding one.
  using pin_guard = typename domain_type::guard;
  pin_guard pin(reclaim_handle& rh) { return rh.pin(); }

  /// Live elements (inserted minus claimed), summed over striped counters.
  /// Approximate under concurrency, exact when quiescent.
  std::size_t size() const { return count_.sum_clamped(); }

  /// Nodes allocated and not yet freed (excludes the head sentinel):
  /// live + marked-but-unreclaimed + limbo, bounded under churn.
  /// Quiescent-only accuracy.
  std::size_t allocated_nodes() const {
    const std::size_t created = created_.sum_clamped();
    const std::size_t freed = domain_.reclaimed_quiescent();
    return created > freed ? created - freed : 0;
  }

  /// Nodes waiting out their grace period. Quiescent-only accuracy.
  std::size_t limbo_nodes() const { return domain_.limbo_quiescent(); }

  void insert(reclaim_handle& rh, xoshiro256ss& rng, const Key& key,
              const Value& value) {
    auto epoch_guard = rh.pin();
    (void)epoch_guard;
    insert_pinned(rh, rng, key, value);
  }

  /// insert body; caller holds a pin() guard for rh. The key is copied
  /// first: the upper-level linking below runs after the level-0 splice
  /// has published the element, and a caller's key may live in memory
  /// that a consumer frees as soon as it pops the element.
  void insert_pinned(reclaim_handle& rh, xoshiro256ss& rng, const Key& key_in,
                     const Value& value) {
    const Key key = key_in;
    const int height = sample_height(rng());
    node* n = make_node(height, key, value);
    created_.add(stripe_of(n), 1);

    node* preds[kMaxHeight];
    while (true) {
      locate_preds(key, preds);
      node* pred = preds[0];
      std::uintptr_t pred_next = pred->tower()[0].load(std::memory_order_acquire);
      if (is_marked(pred_next)) {
        // The located predecessor died under us. The head never dies, and
        // after a restructure the dead prefix is short, so restart the
        // level-0 walk from it.
        pred = head_;
        pred_next = pred->tower()[0].load(std::memory_order_acquire);
      }
      // Walk to the splice point, physically unlinking every dead run on
      // the way (Harris-style helping). Without this, nodes claimed
      // off-front (sprays) accumulate between live nodes faster than the
      // head-anchored prefix collection can remove them, and every walk
      // through the front region degrades linearly in the op count.
      bool restart = false;
      while (true) {
        node* cur = ptr_of(pred_next);
        if (cur == nullptr) break;  // succ is end-of-list
        const std::uintptr_t cur_next =
            cur->tower()[0].load(std::memory_order_acquire);
        if (is_marked(cur_next)) {
          node* run_end = ptr_of(cur_next);
          while (run_end != nullptr) {
            const std::uintptr_t run_next =
                run_end->tower()[0].load(std::memory_order_acquire);
            if (!is_marked(run_next)) break;
            run_end = ptr_of(run_next);
          }
          if (!pred->tower()[0].compare_exchange_strong(
                  pred_next, tag_of(run_end), std::memory_order_release,
                  std::memory_order_relaxed)) {
            restart = true;
            break;
          }
          // The successful CAS detached [cur, run_end) — this thread owns
          // the run exclusively and is the one that must reclaim it.
          retire_chain(rh, cur, run_end);
          pred_next = tag_of(run_end);
          continue;
        }
        if (!compare_(cur->key, key)) break;  // succ is cur (live)
        pred = cur;
        pred_next = cur_next;
      }
      if (restart) continue;
      n->tower()[0].store(pred_next, std::memory_order_relaxed);
      if (pred->tower()[0].compare_exchange_strong(pred_next, tag_of(n),
                                                   std::memory_order_release,
                                                   std::memory_order_relaxed)) {
        break;
      }
    }
    note(n, +1);

    // Link the upper levels best-effort; they are search hints, level 0 is
    // the truth. Stop if the node has already been claimed — and because
    // the claim can land between the check and the link (or between the
    // link and the claimer's level sweep), re-check *after* every
    // successful link and self-unlink on detection; the seq_cst pairing
    // with the claim's fetch_or guarantees at least one side sees the
    // other. The freshly linked successor is similarly re-validated so a
    // stale read can never leave n pointing at a retired node.
    //
    // The walk to the splice point never steps onto a dead tower (it
    // unlinks it, as locate_preds does): a dead node may already be off
    // this level's path, so splicing after it could leave n reachable
    // only from it. Its predecessor can still die between the walk and
    // the CAS, so a splice after a predecessor found dead afterwards
    // stops the linking there: n may then be off this level's path,
    // where no sweep maintains its link, and must not be linked higher,
    // where a descent would drop onto it and follow that link.
    for (int lvl = 1; lvl < height; ++lvl) {
      node* pred = preds[lvl];
      while (true) {
        if (is_marked(n->tower()[0].load(std::memory_order_seq_cst))) {
          unlink_upper(n);
          return;
        }
        std::uintptr_t succ_t = pred->tower()[lvl].load(std::memory_order_acquire);
        node* succ = ptr_of(succ_t);
        while (succ != nullptr) {
          if (is_marked(succ->tower()[0].load(std::memory_order_seq_cst))) {
            const std::uintptr_t after =
                succ->tower()[lvl].load(std::memory_order_seq_cst);
            pred->tower()[lvl].compare_exchange_strong(
                succ_t, after, std::memory_order_seq_cst,
                std::memory_order_relaxed);
          } else if (compare_(succ->key, key)) {
            pred = succ;
          } else {
            break;
          }
          succ_t = pred->tower()[lvl].load(std::memory_order_acquire);
          succ = ptr_of(succ_t);
        }
        n->tower()[lvl].store(succ_t, std::memory_order_relaxed);
        if (pred->tower()[lvl].compare_exchange_strong(
                succ_t, tag_of(n), std::memory_order_seq_cst,
                std::memory_order_relaxed)) {
          unlink_dead_successors(n, lvl);
          if (is_marked(n->tower()[0].load(std::memory_order_seq_cst))) {
            unlink_upper(n);
            return;
          }
          if (pred != head_ &&
              is_marked(pred->tower()[0].load(std::memory_order_seq_cst))) {
            return;
          }
          break;
        }
      }
    }
  }

  /// Lindén–Jonsson deleteMin: walk the frozen marked prefix read-only,
  /// claim the first live node with one fetch_or, batch physical cleanup.
  /// Returns false when the traversal reaches the end of the list
  /// (relaxed: concurrent inserts may race with the emptiness verdict).
  bool try_pop_front(reclaim_handle& rh, Key& key, Value& value) {
    auto epoch_guard = rh.pin();
    (void)epoch_guard;
    return try_pop_front_pinned(rh, key, value);
  }

  /// try_pop_front body; caller holds a pin() guard for rh.
  bool try_pop_front_pinned(reclaim_handle& rh, Key& key, Value& value) {
    const std::uintptr_t observed =
        head_->tower()[0].load(std::memory_order_acquire);
    node* cur = ptr_of(observed);
    std::size_t offset = 0;
    while (cur != nullptr) {
      std::uintptr_t next = cur->tower()[0].load(std::memory_order_acquire);
      if (!is_marked(next)) {
        // seq_cst: the claim anchors the total order the upper-level
        // reclamation discipline relies on (see header comment).
        next = cur->tower()[0].fetch_or(1, std::memory_order_seq_cst);
        if (!is_marked(next)) {
          key = cur->key;
          value = cur->value;
          note(cur, -1);
          if (offset + 1 >= kPrefixBound) collect_prefix(rh);
          return true;
        }
      }
      ++offset;
      cur = ptr_of(next);
    }
    return false;
  }

  /// SprayList descent: from `start_height`, walk a uniform number of
  /// steps in [0, max_jump] per level, descend, then claim the first live
  /// node at or after the landing point. Returns false if the spray ran
  /// off the end of the list (caller retries or cleans from the front).
  /// The caller holds a pin() guard for rh (spray_pq's deleteMin mixes
  /// sprays with front pops under one pin); the handle parameter is kept
  /// for signature symmetry — sprays never restructure, so they retire
  /// nothing themselves.
  bool try_pop_spray_pinned([[maybe_unused]] reclaim_handle& rh,
                            xoshiro256ss& rng, int start_height,
                            std::uint64_t max_jump, Key& key, Value& value) {
    node* cur = head_;
    const int top = start_height < kMaxHeight - 1 ? start_height : kMaxHeight - 1;
    for (int lvl = top; lvl >= 0; --lvl) {
      std::uint64_t jump = rng.bounded(max_jump + 1);
      while (jump > 0) {
        std::uintptr_t next_t = cur->tower()[lvl].load(std::memory_order_acquire);
        node* next = ptr_of(next_t);
        if (next == nullptr) break;
        if (lvl > 0 &&
            is_marked(next->tower()[0].load(std::memory_order_seq_cst))) {
          // Never step onto a dead tower above level 0: once another
          // sweep has dropped it from a lower level, its link there is
          // frozen and may name a node already retired and freed. Unlink
          // it and re-read, the discipline locate_preds follows, so the
          // descent only ever drops down from live nodes.
          const std::uintptr_t after =
              next->tower()[lvl].load(std::memory_order_seq_cst);
          cur->tower()[lvl].compare_exchange_strong(
              next_t, after, std::memory_order_seq_cst,
              std::memory_order_relaxed);
          continue;
        }
        cur = next;
        --jump;
      }
    }
    if (cur == head_) {
      cur = ptr_of(head_->tower()[0].load(std::memory_order_acquire));
    }
    while (cur != nullptr) {
      std::uintptr_t next = cur->tower()[0].load(std::memory_order_acquire);
      if (!is_marked(next)) {
        next = cur->tower()[0].fetch_or(1, std::memory_order_seq_cst);
        if (!is_marked(next)) {
          key = cur->key;
          value = cur->value;
          note(cur, -1);
          return true;
        }
      }
      cur = ptr_of(next);
    }
    return false;
  }

 private:
  struct node {
    Key key;
    Value value;
    int height;
    /// Epoch-domain limbo link, used only once the node is retired. Never
    /// a traversal edge.
    node* limbo_next;
    // Tower of tagged pointers (LSB = logically-deleted mark, level 0
    // only). Trailing-array idiom: make_node() allocates `height` slots.
    std::atomic<std::uintptr_t> next_[1];

    std::atomic<std::uintptr_t>* tower() { return next_; }
  };

  struct node_traits {
    static node*& limbo_next(node* n) { return n->limbo_next; }
    static void reclaim(node* n) { ::operator delete(n); }
  };

  static constexpr std::size_t kStripes = 64;

  static node* ptr_of(std::uintptr_t tagged) {
    return reinterpret_cast<node*>(tagged & ~static_cast<std::uintptr_t>(1));
  }
  static bool is_marked(std::uintptr_t tagged) { return (tagged & 1) != 0; }
  static std::uintptr_t tag_of(node* p) {
    return reinterpret_cast<std::uintptr_t>(p);
  }

  static int sample_height(std::uint64_t bits) {
    int height = 1;
    while ((bits & 1) != 0 && height < kMaxHeight) {
      ++height;
      bits >>= 1;
    }
    return height;
  }

  static node* make_node(int height, const Key& key, const Value& value) {
    const std::size_t bytes =
        sizeof(node) +
        static_cast<std::size_t>(height - 1) * sizeof(std::atomic<std::uintptr_t>);
    node* n = static_cast<node*>(::operator new(bytes));
    n->key = key;
    n->value = value;
    n->height = height;
    n->limbo_next = nullptr;
    for (int i = 0; i < height; ++i) {
      new (&n->tower()[i]) std::atomic<std::uintptr_t>(0);
    }
    return n;
  }

  std::size_t stripe_of(const node* n) const {
    return (reinterpret_cast<std::uintptr_t>(n) >> 6) & (kStripes - 1);
  }

  void note(const node* n, std::int64_t delta) {
    count_.add(stripe_of(n), delta);
  }

  /// Reclaim an exclusively-owned chain of marked nodes that a successful
  /// CAS just detached from level 0: [first, end), linked by their frozen
  /// level-0 pointers. Each node is stripped out of any upper level it
  /// still appears in, then handed to the epoch domain.
  void retire_chain(reclaim_handle& rh, node* first, node* end) {
    node* n = first;
    while (n != end) {
      node* next = ptr_of(n->tower()[0].load(std::memory_order_relaxed));
      unlink_upper(n);
      rh.retire(n);
      n = next;
    }
  }

  /// Keep unlinking pred's immediate successor at `lvl` while it is dead
  /// (level-0-marked), re-reading after every CAS. This is the one safe
  /// way to repoint an upper-level pointer: a single unlink CAS installs
  /// a successor read from a dead node's tower, and that value can be
  /// stale — possibly a node whose owner already swept this level and
  /// retired it. Looping until the observed successor is live (or null)
  /// restores the invariant: the seq_cst exit load orders before any
  /// later claim of that successor, so its eventual owner's sweep is
  /// guaranteed to see (and remove) the link we installed. Also called
  /// after an insert links a node, for the same reason. Safe against
  /// concurrent sweeps of the same region — a lost CAS just re-reads —
  /// and pred itself being dead only drops hints.
  void unlink_dead_successors(node* pred, int lvl) {
    while (true) {
      std::uintptr_t cur_t = pred->tower()[lvl].load(std::memory_order_seq_cst);
      node* cur = ptr_of(cur_t);
      if (cur == nullptr) return;
      if (!is_marked(cur->tower()[0].load(std::memory_order_seq_cst))) return;
      const std::uintptr_t next =
          cur->tower()[lvl].load(std::memory_order_seq_cst);
      pred->tower()[lvl].compare_exchange_strong(cur_t, next,
                                                 std::memory_order_seq_cst,
                                                 std::memory_order_relaxed);
      // Success or failure: re-read and re-validate.
    }
  }

  /// Remove n from every upper level it may be linked at, so it can be
  /// retired. The walk advances only over live nodes and unlinks *every*
  /// dead successor it meets (n included) via unlink_dead_successors'
  /// discipline — plain helping that also keeps the front of each upper
  /// list clean. Identity is irrelevant: the walk is bounded by n's key
  /// position, n is dead, and any dead node at or before that position
  /// is legitimately unlinkable. Afterwards n is not linked at the level
  /// from any live-reachable predecessor: the walk covered every one,
  /// and installations it raced with either saw n's mark (seq_cst) and
  /// self-unlinked, or are ordered before our sweep and were swept.
  void unlink_upper(node* n) {
    for (int lvl = n->height - 1; lvl >= 1; --lvl) {
      node* pred = head_;
      while (true) {
        std::uintptr_t cur_t =
            pred->tower()[lvl].load(std::memory_order_seq_cst);
        node* cur = ptr_of(cur_t);
        if (cur == nullptr) break;
        if (is_marked(cur->tower()[0].load(std::memory_order_seq_cst))) {
          const std::uintptr_t next =
              cur->tower()[lvl].load(std::memory_order_seq_cst);
          pred->tower()[lvl].compare_exchange_strong(
              cur_t, next, std::memory_order_seq_cst,
              std::memory_order_relaxed);
          continue;  // re-read pred's pointer either way
        }
        if (compare_(n->key, cur->key)) break;  // live and past n's position
        pred = cur;
      }
    }
  }

  /// Fills preds[lvl] = last node with key < `key` seen at each level.
  /// Preds may be logically deleted; callers validate before CASing.
  ///
  /// Upper-level hygiene: dead nodes encountered at levels >= 1 are
  /// unlinked in passing (their upper pointers are hints, not truth, so a
  /// stale-successor race at worst drops a hint). Without this the upper
  /// lists rot into chains of long-dead towers — level-0 helping keeps the
  /// visible prefix short, so offset-triggered collection rarely fires,
  /// and descents (sprays especially) would walk an ever-growing frozen
  /// graveyard before rejoining the live list.
  void locate_preds(const Key& key, node** preds) {
    node* pred = head_;
    for (int lvl = kMaxHeight - 1; lvl >= 0; --lvl) {
      while (true) {
        std::uintptr_t cur_t = pred->tower()[lvl].load(std::memory_order_acquire);
        node* cur = ptr_of(cur_t);
        if (cur == nullptr) break;
        if (lvl > 0 &&
            is_marked(cur->tower()[0].load(std::memory_order_seq_cst))) {
          // Same unlink-and-revalidate discipline as
          // unlink_dead_successors: the loop re-reads after the CAS and
          // only ever advances past a live successor, so a stale
          // cur_next pointing at a retired node cannot survive the
          // traversal.
          const std::uintptr_t cur_next =
              cur->tower()[lvl].load(std::memory_order_seq_cst);
          pred->tower()[lvl].compare_exchange_strong(
              cur_t, cur_next, std::memory_order_seq_cst,
              std::memory_order_relaxed);
          continue;  // re-read pred's pointer either way
        }
        if (!compare_(cur->key, key)) break;
        pred = cur;
      }
      preds[lvl] = pred;
    }
  }

  /// Batched physical deletion: swing the head's pointers past the
  /// currently-marked prefix. The prefix chain is frozen (every node in it
  /// is marked, so its level-0 pointers are immutable), which means a CAS
  /// anchored on a fresh read of head->next[0] can only ever unlink dead
  /// nodes. The level-0 cut retries with re-reads a few times: under front
  /// churn (inserts of new minima, concurrent claims) a one-shot CAS
  /// nearly always loses and the prefix would grow without bound. Upper
  /// levels go first so searches keep descending into a valid region; any
  /// upper link the pre-swing missed (nodes that joined the prefix after
  /// it) is handled per-node by unlink_upper before retirement.
  void collect_prefix(reclaim_handle& rh) {
    for (int lvl = kMaxHeight - 1; lvl >= 1; --lvl) {
      // One dead node at a time with revalidation (not one walk + one
      // swing): a single CAS to a snapshot taken over a dead run could
      // install a pointer to a node retired meanwhile.
      unlink_dead_successors(head_, lvl);
    }
    for (int attempt = 0; attempt < 4; ++attempt) {
      std::uintptr_t first = head_->tower()[0].load(std::memory_order_acquire);
      node* cur = ptr_of(first);
      std::size_t walked = 0;
      while (cur != nullptr && walked < 8 * kPrefixBound) {
        const std::uintptr_t next =
            cur->tower()[0].load(std::memory_order_acquire);
        if (!is_marked(next)) break;
        cur = ptr_of(next);
        ++walked;
      }
      if (walked == 0) return;
      if (head_->tower()[0].compare_exchange_strong(
              first, tag_of(cur), std::memory_order_release,
              std::memory_order_relaxed)) {
        // The head swing detached [first, cur) — ours to reclaim.
        retire_chain(rh, ptr_of(first), cur);
        return;
      }
    }
  }

  Compare compare_{};
  node* head_;
  striped_counter<kStripes> count_;
  striped_counter<kStripes> created_;
  domain_type domain_;
};

}  // namespace detail
}  // namespace pcq
