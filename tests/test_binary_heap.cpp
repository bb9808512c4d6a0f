#include "heap/binary_heap.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "test_macros.hpp"
#include "util/rng.hpp"

int main() {
  // Heap-sort property: random pushes (with duplicates) pop in
  // non-decreasing key order, values travel with their keys.
  {
    pcq::binary_heap_t<std::uint64_t, std::uint64_t> heap;
    pcq::xoshiro256ss rng(3);
    std::vector<std::uint64_t> keys;
    const std::size_t n = 5000;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t key = rng.bounded(1000);  // force duplicates
      keys.push_back(key);
      heap.push(key, key * 2 + 1);
    }
    CHECK(heap.size() == n);
    std::sort(keys.begin(), keys.end());
    for (std::size_t i = 0; i < n; ++i) {
      CHECK(heap.top_key() == keys[i]);
      const auto entry = heap.pop();
      CHECK(entry.first == keys[i]);
      CHECK(entry.second == entry.first * 2 + 1);
    }
    CHECK(heap.empty());
  }

  // Interleaved push/pop stays consistent with a reference multiset.
  {
    pcq::binary_heap_t<std::uint64_t, std::uint64_t> heap;
    std::vector<std::uint64_t> reference;
    pcq::xoshiro256ss rng(4);
    for (int step = 0; step < 20000; ++step) {
      if (reference.empty() || rng.bernoulli(0.55)) {
        const std::uint64_t key = rng.bounded(500);
        heap.push(key, key);
        reference.push_back(key);
      } else {
        const auto it =
            std::min_element(reference.begin(), reference.end());
        CHECK(heap.pop().first == *it);
        reference.erase(it);
      }
      CHECK(heap.size() == reference.size());
    }
  }

  // Max-heap via custom comparator.
  {
    pcq::binary_heap_t<int, int, std::greater<int>> heap;
    for (const int k : {3, 1, 4, 1, 5, 9, 2, 6}) heap.push(k, k);
    int prev = 100;
    while (!heap.empty()) {
      const int k = heap.pop().first;
      CHECK(k <= prev);
      prev = k;
    }
  }

  std::printf("test_binary_heap OK\n");
  return 0;
}
