#include "core/baselines/coarse_pq.hpp"

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "test_macros.hpp"
#include "pq_test_harness.hpp"
#include "util/rng.hpp"

namespace {

using cpq = pcq::coarse_pq<std::uint64_t, std::uint64_t>;

// The suite runs on a queue built with a capacity hint; the named cases
// below build theirs without one.
std::unique_ptr<cpq> make_coarse(std::size_t /*threads*/) {
  return std::make_unique<cpq>(/*expected_capacity=*/2048);
}

}  // namespace

int main() {
  // Strict semantics: pops are globally sorted.
  {
    cpq queue;
    auto handle = queue.get_handle(0);
    pcq::xoshiro256ss rng(9);
    const std::size_t n = 8192;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t key = rng() >> 1;
      handle.push(key, key ^ 0xff);
    }
    CHECK(queue.size() == n);
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t key = 0, value = 0;
      CHECK(handle.try_pop(key, value));
      CHECK(key >= prev);
      CHECK(value == (key ^ 0xff));
      prev = key;
    }
    std::uint64_t key = 0, value = 0;
    CHECK(!handle.try_pop(key, value));
  }

  // Timed API produces strictly increasing timestamps.
  {
    cpq queue;
    auto handle = queue.get_handle(0);
    std::uint64_t last_ts = 0;
    for (int i = 0; i < 100; ++i) {
      const std::uint64_t ts = handle.push_timed(i, i);
      CHECK(ts > last_ts);
      last_ts = ts;
    }
    for (int i = 0; i < 100; ++i) {
      std::uint64_t k = 0, v = 0, ts = 0;
      CHECK(handle.try_pop_timed(k, v, ts));
      CHECK(ts > last_ts);
      last_ts = ts;
    }
  }

  // Concurrent conservation smoke.
  {
    cpq queue;
    const std::size_t threads = 4;
    const std::size_t pairs = 5000;
    std::vector<std::uint64_t> pushed(threads, 0), popped(threads, 0);
    std::vector<std::uint64_t> pops_ok(threads, 0);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        auto handle = queue.get_handle(t);
        pcq::xoshiro256ss rng(pcq::derive_seed(13, t));
        for (std::size_t i = 0; i < pairs; ++i) {
          const std::uint64_t key = rng() >> 1;
          pushed[t] += key;
          handle.push(key, key);
          std::uint64_t k = 0, v = 0;
          if (handle.try_pop(k, v)) {
            popped[t] += k;
            ++pops_ok[t];
          }
        }
      });
    }
    for (auto& t : pool) t.join();

    std::uint64_t pushed_sum = 0, popped_sum = 0, pop_count = 0;
    for (std::size_t t = 0; t < threads; ++t) {
      pushed_sum += pushed[t];
      popped_sum += popped[t];
      pop_count += pops_ok[t];
    }
    auto handle = queue.get_handle(0);
    std::uint64_t k = 0, v = 0;
    while (handle.try_pop(k, v)) {
      popped_sum += k;
      ++pop_count;
    }
    CHECK(pop_count == threads * pairs);
    CHECK(popped_sum == pushed_sum);
  }

  // Shared harness: conservation, no-lost-wakeups, exact drain (the
  // coarse heap is strict by construction).
  pcq::testing::run_standard_suite(make_coarse, /*drain_exact=*/true);

  std::printf("test_coarse_pq OK\n");
  return 0;
}
