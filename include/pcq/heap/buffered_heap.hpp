// Buffered heap: a sorted deletion buffer and an unsorted insertion
// buffer in front of a dary_heap_t<..., 4> — the MultiQueue's default
// slot substrate. The buffered half of Williams, Sanders & Dementiev,
// "Engineering MultiQueues" (ESA 2021, arXiv:2107.01350), without its
// sticky operations: the structure still pops the exact minimum, so a
// MultiQueue slot publishes the same top, and every sample, RNG draw
// and popped key of the paper's process is unchanged.
//
// Parts and invariant (B = buffer capacity):
//
//   del_[0..nd)  the slot's nd least entries, sorted DESCENDING, so the
//                minimum sits at del_[nd-1] and a pop is one read;
//   ins_[0..ni)  recent inserts, unsorted;
//   inner_       everything else.
//
//   Every entry in ins_ or inner_ is >= del_[0] (the deletion buffer's
//   max), and nd > 0 iff the structure is non-empty. So top() is always
//   del_[nd-1], and a pop that empties del_ refills it at once.
//
// push: below the deletion buffer's max -> sorted insert into del_ (a
// full del_ evicts its max into ins_); otherwise into del_ while it has
// room and nothing lives outside it, else into ins_. A full ins_ is
// flushed into inner_, B pushes at a time.
// pop: take del_[nd-1]; on empty del_, refill with the B least entries
// of ins_ and inner_ (ins_ alone is sorted straight into del_; otherwise
// ins_ is flushed and B entries are popped from inner_).
//
// Line budget: with 16-byte entries the header (two 32-bit counts and
// inner_'s 32-byte header; the comparators are empty bases) is 40 bytes,
// so behind a MultiQueue slot's 24 bytes of lock, top and count it ends
// exactly on the lock line, and del_ starts on the next line. A slot
// holding at most 4 entries touches the lock line and one buffer line —
// what a dary_heap slot touched (its header plus the root's line) —
// and up to B entries never leave the slot's own lines.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "heap/dary_heap.hpp"

namespace pcq {

template <typename Key, typename Value, typename Compare = std::less<Key>,
          std::size_t B = 16>
class buffered_heap_t : private heap_detail::compare_holder<Compare> {
  static_assert(B >= 1 && B <= UINT32_MAX,
                "buffered_heap capacity must be in [1, 2^32)");

 public:
  using entry = std::pair<Key, Value>;

  explicit buffered_heap_t(Compare compare = Compare())
      : heap_detail::compare_holder<Compare>(compare), inner_(compare) {}

  bool empty() const { return nd_ == 0; }
  std::size_t size() const { return nd_ + ni_ + inner_.size(); }
  void reserve(std::size_t n) { inner_.reserve(n); }

  const Key& top_key() const { return del_[nd_ - 1].first; }
  const entry& top() const { return del_[nd_ - 1]; }

  /// Entries in the deletion and insertion buffers (for tests).
  std::size_t deletion_size() const { return nd_; }
  std::size_t insertion_size() const { return ni_; }

  void push(const Key& key, const Value& value) {
    const Compare& less = this->comp();
    // nd_ == 0 means the structure is empty, so the first test holds and
    // del_[0] is never read uninitialized.
    const bool belongs_in_del =
        (ni_ == 0 && inner_.empty()) || less(key, del_[0].first);
    if (nd_ < B && belongs_in_del) {
      // Room: shift the smaller entries one toward the back.
      std::size_t j = nd_++;
      while (j > 0 && less(del_[j - 1].first, key)) {
        del_[j] = del_[j - 1];
        --j;
      }
      del_[j] = entry(key, value);
    } else if (less(key, del_[0].first)) {
      // Full and below the max: the max moves out, the larger entries
      // shift one toward the front into its place.
      spill(del_[0]);
      std::size_t j = 0;
      while (j + 1 < B && less(key, del_[j + 1].first)) {
        del_[j] = del_[j + 1];
        ++j;
      }
      del_[j] = entry(key, value);
    } else {
      spill(entry(key, value));
    }
  }

  entry pop() {
    entry result = del_[--nd_];
    if (nd_ == 0) refill();
    return result;
  }

 private:
  void spill(const entry& e) {
    if (ni_ == B) flush_insertions();
    ins_[ni_++] = e;
  }

  void flush_insertions() {
    for (std::uint32_t i = 0; i < ni_; ++i) {
      inner_.push(ins_[i].first, ins_[i].second);
    }
    ni_ = 0;
  }

  // Called with del_ empty: restores "nd > 0 iff non-empty".
  void refill() {
    if (inner_.empty()) {
      // Only ins_ is left: insertion-sort it into del_, descending.
      // ni_ <= B always; the bounds only let the compiler see it.
      const Compare& less = this->comp();
      const std::uint32_t n = std::min<std::uint32_t>(ni_, B);
      for (std::uint32_t i = 0; i < n; ++i) {
        std::uint32_t j = i;
        while (j > 0 && j < B && less(del_[j - 1].first, ins_[i].first)) {
          del_[j] = del_[j - 1];
          --j;
        }
        del_[j] = ins_[i];
      }
      nd_ = n;
      ni_ = 0;
      return;
    }
    flush_insertions();
    const std::size_t k = inner_.size() < B ? inner_.size() : B;
    for (std::size_t j = k; j > 0;) del_[--j] = inner_.pop();
    nd_ = static_cast<std::uint32_t>(k);
  }

  std::uint32_t nd_ = 0;  // entries in del_
  std::uint32_t ni_ = 0;  // entries in ins_
  dary_heap_t<Key, Value, Compare, 4> inner_;
  entry del_[B];
  entry ins_[B];
};

/// Selector: buffered 4-ary heap with B-entry deletion and insertion
/// buffers (the MultiQueue default, B = 16).
template <std::size_t B = 16>
struct buffered_heap {
  template <typename Key, typename Value, typename Compare>
  using substrate = buffered_heap_t<Key, Value, Compare, B>;
};

}  // namespace pcq
