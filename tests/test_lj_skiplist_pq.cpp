#include "core/baselines/lj_skiplist_pq.hpp"

#include <cstdint>
#include <memory>
#include <set>

#include "test_macros.hpp"
#include "pq_test_harness.hpp"
#include "util/rng.hpp"

namespace {

using ljq = pcq::lj_skiplist_pq<std::uint64_t, std::uint64_t>;

std::unique_ptr<ljq> make_lj(std::size_t /*threads*/) {
  return std::make_unique<ljq>();
}

}  // namespace

int main() {
  // Single-thread ordering exactness: every pop is the exact minimum,
  // cross-checked against a reference multiset through a long random
  // push/pop interleaving (duplicates included, 60/40 mix). The deleted
  // prefix repeatedly crosses the restructure bound along the way.
  {
    ljq queue;
    auto handle = queue.get_handle(0);
    pcq::xoshiro256ss rng(21);
    std::multiset<std::uint64_t> reference;
    for (std::size_t op = 0; op < 30000; ++op) {
      if (reference.empty() || rng.bounded(10) < 6) {
        const std::uint64_t key = rng.bounded(5000);  // force duplicates
        reference.insert(key);
        handle.push(key, key + 7);
      } else {
        std::uint64_t k = 0, v = 0;
        CHECK(handle.try_pop(k, v));
        CHECK(v == k + 7);
        CHECK(k == *reference.begin());
        reference.erase(reference.begin());
      }
      CHECK(queue.size() == reference.size());
    }
    std::uint64_t k = 0, v = 0;
    while (handle.try_pop(k, v)) {
      CHECK(k == *reference.begin());
      reference.erase(reference.begin());
    }
    CHECK(reference.empty());
  }

  // Insert below the deleted prefix: pop enough to leave a long marked
  // prefix, then push keys smaller than everything live — the insert must
  // splice over (and physically unlink) dead nodes at the head — and the
  // subsequent drain must be exactly sorted.
  {
    ljq queue;
    auto handle = queue.get_handle(0);
    for (std::uint64_t key = 1000; key < 2000; ++key) handle.push(key, key);
    std::uint64_t k = 0, v = 0;
    for (int i = 0; i < 500; ++i) {
      CHECK(handle.try_pop(k, v));
      CHECK(k == 1000 + static_cast<std::uint64_t>(i));
    }
    for (std::uint64_t key = 0; key < 500; ++key) handle.push(key, key);
    for (std::uint64_t expect = 0; expect < 500; ++expect) {
      CHECK(handle.try_pop(k, v));
      CHECK(k == expect);
    }
    for (std::uint64_t expect = 1500; expect < 2000; ++expect) {
      CHECK(handle.try_pop(k, v));
      CHECK(k == expect);
    }
    CHECK(!handle.try_pop(k, v));
    CHECK(queue.size() == 0);
  }

  // Churn memory bound (the point of epoch-based reclamation).
  pcq::testing::check_churn_memory(make_lj, 0xc4u);

  // Shared harness: conservation and no-lost-wakeups under concurrency,
  // sorted single-thread drain (LJ is strict).
  pcq::testing::run_standard_suite(make_lj, /*drain_exact=*/true);

  std::printf("test_lj_skiplist_pq OK\n");
  return 0;
}
