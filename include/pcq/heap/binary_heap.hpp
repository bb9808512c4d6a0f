// Array-backed binary min-heap substrate with bottom-up sift-down
// ("bounce" deletion, Wegener 1993): pop sends the root hole down the
// min-child path to a leaf using only ONE sibling compare per level,
// drops the moved tail entry into the leaf hole, then sifts it up. The
// tail entry came from the deepest layer, so it almost always belongs
// near the bottom — the upward correction is O(1) expected, versus a
// top-down loop's two compares (sibling + moving entry) per level all
// the way down.
//
// Models the heap substrate concept (heap/heap_concept.hpp); the
// selector `binary_heap` plugs into multi_queue, and graph/dijkstra.hpp
// uses binary_heap_t directly.

#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "heap/heap_concept.hpp"

namespace pcq {

template <typename Key, typename Value, typename Compare = std::less<Key>>
class binary_heap_t {
 public:
  using entry = std::pair<Key, Value>;

  explicit binary_heap_t(Compare compare = Compare()) : compare_(compare) {}

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  void reserve(std::size_t n) { entries_.reserve(n); }

  const Key& top_key() const { return entries_.front().first; }
  const entry& top() const { return entries_.front(); }

  void push(const Key& key, const Value& value) {
    entries_.emplace_back(key, value);
    sift_up(entries_.size() - 1);
  }

  entry pop() {
    entry result = std::move(entries_.front());
    const std::size_t n = entries_.size() - 1;
    if (n > 0) {
      // Bottom-up deletion: walk the hole down the min-child path with
      // one sibling compare per level (never comparing against the
      // moving tail entry), then reinsert the tail at the leaf hole and
      // let it bubble back up — typically not at all.
      std::size_t hole = 0;
      std::size_t child = 1;
      while (child < n) {
        if (child + 1 < n &&
            compare_(entries_[child + 1].first, entries_[child].first)) {
          ++child;
        }
        entries_[hole] = std::move(entries_[child]);
        hole = child;
        child = 2 * hole + 1;
      }
      entries_[hole] = std::move(entries_[n]);
      sift_up(hole);
    }
    entries_.pop_back();
    return result;
  }

 private:
  void sift_up(std::size_t i) {
    entry moving = std::move(entries_[i]);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!compare_(moving.first, entries_[parent].first)) break;
      entries_[i] = std::move(entries_[parent]);
      i = parent;
    }
    entries_[i] = std::move(moving);
  }

  std::vector<entry> entries_;
  Compare compare_;
};

/// Selector: bottom-up binary heap.
struct binary_heap {
  template <typename Key, typename Value, typename Compare>
  using substrate = binary_heap_t<Key, Value, Compare>;
};

}  // namespace pcq
