#include "exec/steal_deque.hpp"

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "test_macros.hpp"
#include "pq_test_harness.hpp"
#include "util/in_flight.hpp"
#include "util/rng.hpp"

namespace {

using wsd = pcq::exec::steal_deque_pool<std::uint64_t, std::uint64_t>;

std::unique_ptr<wsd> make_steal(std::size_t threads) {
  return std::make_unique<wsd>(threads);
}

}  // namespace

int main() {
  // Own-deque pops are LIFO and ignore keys entirely — the deque is a
  // scheduler, not a priority queue; this is the baseline's point.
  {
    wsd pool(1);
    auto handle = pool.get_handle(0);
    for (std::uint64_t i = 0; i < 10; ++i) handle.push(i, i * 100);
    for (std::uint64_t i = 10; i-- > 0;) {
      std::uint64_t k = 0, v = 0;
      CHECK(handle.try_pop(k, v));
      CHECK(k == i);
      CHECK(v == i * 100);
    }
    std::uint64_t k = 0, v = 0;
    CHECK(!handle.try_pop(k, v));
    CHECK(pool.size() == 0);
  }

  // Steals come from the opposite (FIFO) end of the victim's deque.
  {
    wsd pool(2);
    auto owner = pool.get_handle(0);
    auto thief = pool.get_handle(1);
    owner.push(1, 10);
    owner.push(2, 20);
    owner.push(3, 30);
    for (std::uint64_t expect = 1; expect <= 3; ++expect) {
      std::uint64_t k = 0, v = 0;
      CHECK(thief.try_pop(k, v));  // thief's own deque empty -> steal
      CHECK(k == expect);
      CHECK(v == expect * 10);
    }
    CHECK(pool.size() == 0);
  }

  // Growth: push far past kInitialCapacity through one deque, then
  // recover the exact multiset (checksum) across grows.
  {
    wsd pool(1);
    auto handle = pool.get_handle(0);
    pcq::xoshiro256ss rng(7);
    const std::size_t n = 5000;  // > 64 * 2^6: several doublings
    std::uint64_t pushed_sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t key = rng() >> 1;
      pushed_sum += key;
      handle.push(key, key);
    }
    CHECK(pool.size() == n);
    std::uint64_t popped_sum = 0;
    std::uint64_t k = 0, v = 0;
    std::size_t got = 0;
    while (handle.try_pop(k, v)) {
      CHECK(k == v);
      popped_sum += k;
      ++got;
    }
    CHECK(got == n);
    CHECK(popped_sum == pushed_sum);
  }

  // Handle ids beyond the construction count alias deques modulo the
  // pool width (the drain-handle pattern the shared harness relies on).
  {
    wsd pool(3);
    CHECK(pool.num_deques() == 3);
    {
      auto h = pool.get_handle(1);
      h.push(42, 43);
    }
    auto aliased = pool.get_handle(4);  // 4 % 3 == 1: same deque
    std::uint64_t k = 0, v = 0;
    CHECK(aliased.try_pop(k, v));
    CHECK(k == 42 && v == 43);
  }

  // Asymmetric steal stress: one producer deque, three thieves; every
  // element is delivered exactly once (the top-CAS arbitration works).
  {
    const std::size_t thieves = 3;
    const std::size_t n = 20000;
    wsd pool(1 + thieves);
    std::atomic<std::uint64_t> delivered{0}, sum{0};
    std::atomic<bool> done{false};
    std::uint64_t pushed_sum = 0;
    // Worker 0 produces on deque 0; worker t steals through handle t.
    auto worker = [&](std::size_t t) {
      auto h = pool.get_handle(t);
      if (t == 0) {
        pcq::xoshiro256ss rng(11);
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t key = rng() >> 1;
          pushed_sum += key;
          h.push(key, key + 1);
        }
        done.store(true, std::memory_order_release);
        return;
      }
      std::uint64_t local_sum = 0;
      while (!done.load(std::memory_order_acquire) ||
             delivered.load(std::memory_order_acquire) < n) {
        std::uint64_t k = 0, v = 0;
        if (h.try_pop(k, v)) {
          CHECK(v == k + 1);
          local_sum += k;
          delivered.fetch_add(1, std::memory_order_acq_rel);
        } else if (done.load(std::memory_order_acquire) &&
                   delivered.load(std::memory_order_acquire) >= n) {
          break;
        } else {
          std::this_thread::yield();
        }
      }
      sum.fetch_add(local_sum, std::memory_order_relaxed);
    };
    pcq::run_workers(1 + thieves, worker);
    CHECK(delivered.load() == n);
    CHECK(sum.load() == pushed_sum);
    CHECK(pool.size() == 0);
  }

  // Shared harness: full concept conformance (relaxed drains — the
  // deque honors per-chunk order by sorting, never global order).
  pcq::testing::run_standard_suite(make_steal, /*drain_exact=*/false);

  std::printf("test_steal_deque OK\n");
  return 0;
}
