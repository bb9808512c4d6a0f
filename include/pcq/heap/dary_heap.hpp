// Cache-aware flat d-ary min-heap — coarse_pq's heap and the frontier of
// graph/dijkstra.hpp. A MultiQueue slot holds heap/buffered_heap.hpp.
//
// Why arity beats binary for deleteMin-heavy workloads: a sift-down
// touches O(log_d n) levels instead of O(log_2 n), and at each level the
// d-1 sibling compares scan ONE contiguous group. With the padded
// layout below, a sibling group is cache-line aligned, so halving the
// tree depth costs no extra cache misses per level — arity 4 with
// 16-byte entries makes a group exactly one 64-byte line.
//
// Layout: logical heap indices (node k's children are d*k+1 .. d*k+d,
// parent (k-1)/d) are stored shifted by d-1 — physical index
// phys(k) = k + d - 1 in a 64-byte-aligned buffer. Every sibling group
// d*k+1 .. d*k+d then starts at physical d*(k+1), a multiple of d, so
// for d = 4 every group begins on a 64-byte boundary (the root's
// children, physical 4..7, share the second line; the root sits alone
// at physical d-1). The d-1 wasted leading slots are the entire space
// cost.
//
// pop uses bottom-up "bounce" deletion (Wegener 1993): the hole walks the
// min-child path to a leaf (d-1 sibling compares per level, never
// comparing the moving tail entry), the tail entry drops into the leaf
// hole and sifts up — O(1) expected correction, since the tail came from
// the deepest layer, so the per-pop compare count is ~(d-1)·log_d n
// instead of d·log_d n.
//
// Heap surface, shared with buffered_heap_t (entry = std::pair<Key,
// Value>; "least" is under Compare, so std::less pops the minimum):
// empty(), size(), reserve(n) (a capacity hint), top_key() and top() (the
// least entry), push(key, value) and pop() (removes and returns the least
// entry); top, top_key and pop need a non-empty heap. Neither heap is
// thread-safe: a MultiQueue slot's spinlock serializes its heap. Each
// header also defines a selector, a tag struct (dary_heap<A>,
// buffered_heap<B>) whose nested `substrate` alias heap_substrate_t
// rebinds, so tests and benches name a heap by its compile-time knob.

#pragma once

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace pcq {

/// Rebind a heap selector to a concrete heap type.
template <typename Selector, typename Key, typename Value, typename Compare>
using heap_substrate_t =
    typename Selector::template substrate<Key, Value, Compare>;

namespace heap_detail {

/// Minimal C++17 over-aligned allocator so the substrate's flat buffer
/// starts on a cache-line boundary (the layout's alignment math assumes
/// it).
template <typename T, std::size_t Align>
struct aligned_allocator {
  static_assert((Align & (Align - 1)) == 0, "Align must be a power of two");
  using value_type = T;

  aligned_allocator() noexcept = default;
  template <typename U>
  aligned_allocator(const aligned_allocator<U, Align>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t(Align));
  }

  template <typename U>
  struct rebind {
    using other = aligned_allocator<U, Align>;
  };
  friend bool operator==(const aligned_allocator&,
                         const aligned_allocator&) noexcept {
    return true;
  }
  friend bool operator!=(const aligned_allocator&,
                         const aligned_allocator&) noexcept {
    return false;
  }
};

/// Holds a substrate's comparator. A stateless one (std::less, std::greater)
/// becomes an empty base and costs no header bytes, which keeps a slot's
/// substrate header on the MultiQueue lock line (heap/buffered_heap.hpp).
template <typename Compare, bool Empty = std::is_empty<Compare>::value &&
                                         !std::is_final<Compare>::value>
class compare_holder : private Compare {
 protected:
  explicit compare_holder(const Compare& compare) : Compare(compare) {}
  const Compare& comp() const { return *this; }
};

template <typename Compare>
class compare_holder<Compare, false> {
 protected:
  explicit compare_holder(const Compare& compare) : compare_(compare) {}
  const Compare& comp() const { return compare_; }

 private:
  Compare compare_;
};

}  // namespace heap_detail

template <typename Key, typename Value, typename Compare = std::less<Key>,
          std::size_t Arity = 4>
class dary_heap_t : private heap_detail::compare_holder<Compare> {
  static_assert(Arity >= 2, "dary_heap arity must be at least 2");

 public:
  using entry = std::pair<Key, Value>;

  explicit dary_heap_t(Compare compare = Compare())
      : heap_detail::compare_holder<Compare>(compare) {}

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  void reserve(std::size_t n) {
    if (n > 0 && buf_.size() < n + Arity - 1) buf_.resize(n + Arity - 1);
  }

  const Key& top_key() const { return at(0).first; }
  const entry& top() const { return at(0); }

  // The buffer is grown geometrically and never shrunk (high-water
  // storage): per-op vector::resize calls — a construct/destroy plus
  // size bookkeeping on EVERY push and pop — cost more than the few
  // stale trailing entries they'd reclaim, and a MultiQueue slot
  // re-fills anyway. Slots beyond size_ hold moved-from entries.
  void push(const Key& key, const Value& value) {
    const std::size_t i = size_++;
    if (buf_.size() < i + Arity) {
      const std::size_t doubled = 2 * buf_.size();
      buf_.resize(doubled > i + Arity ? doubled : i + Arity);
    }
    at(i) = entry(key, value);
    sift_up(i);
  }

  entry pop() {
    const Compare& compare = this->comp();
    entry* b = buf_.data() + (Arity - 1);  // b[k] = logical node k
    entry result = std::move(b[0]);
    const std::size_t n = --size_;
    if (n > 0) {
      std::size_t hole = 0;
      for (;;) {
        const std::size_t first = Arity * hole + 1;
        if (first + Arity <= n) {
          // Full sibling group: fixed trip count, so the compare chain
          // unrolls to Arity-1 straight-line compares over one aligned
          // group.
          std::size_t best = first;
          for (std::size_t c = first + 1; c < first + Arity; ++c) {
            if (compare(b[c].first, b[best].first)) best = c;
          }
          b[hole] = std::move(b[best]);
          hole = best;
        } else if (first < n) {
          // Partial (leaf-edge) group; its best has no children in turn
          // (Arity*best+1 >= first+Arity > n whenever first >= 1), so
          // the descent ends here.
          std::size_t best = first;
          for (std::size_t c = first + 1; c < n; ++c) {
            if (compare(b[c].first, b[best].first)) best = c;
          }
          b[hole] = std::move(b[best]);
          hole = best;
          break;
        } else {
          break;
        }
      }
      b[hole] = std::move(b[n]);
      sift_up(hole);
    }
    return result;
  }

 private:
  // Logical index k lives at physical k + Arity - 1 (see header comment).
  entry& at(std::size_t k) { return buf_[k + Arity - 1]; }
  const entry& at(std::size_t k) const { return buf_[k + Arity - 1]; }

  void sift_up(std::size_t i) {
    entry moving = std::move(at(i));
    while (i > 0) {
      const std::size_t parent = (i - 1) / Arity;
      if (!this->comp()(moving.first, at(parent).first)) break;
      at(i) = std::move(at(parent));
      i = parent;
    }
    at(i) = std::move(moving);
  }

  std::vector<entry, heap_detail::aligned_allocator<entry, 64>> buf_;
  std::size_t size_ = 0;
};

/// Selector: cache-aware d-ary heap, default arity 4 (one 64-byte line
/// per sibling group at 16-byte entries).
template <std::size_t Arity = 4>
struct dary_heap {
  template <typename Key, typename Value, typename Compare>
  using substrate = dary_heap_t<Key, Value, Compare, Arity>;
};

}  // namespace pcq
