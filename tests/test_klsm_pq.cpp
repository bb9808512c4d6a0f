#include "core/baselines/klsm_pq.hpp"

#include <cstdint>
#include <memory>
#include <set>

#include "test_macros.hpp"
#include "pq_test_harness.hpp"
#include "util/rng.hpp"

namespace {

using klsmq = pcq::klsm_pq<std::uint64_t, std::uint64_t>;

std::unique_ptr<klsmq> make_klsm(std::size_t /*threads*/) {
  return std::make_unique<klsmq>(256);
}

}  // namespace

int main() {
  // Single-handle exactness: one handle sees its own local component plus
  // the full shared top scan, so its pops are the exact minimum. Verified
  // against a reference multiset through a random interleaving that
  // crosses the flush threshold many times (local -> shared migration).
  {
    klsmq queue(64);
    auto handle = queue.get_handle(0);
    pcq::xoshiro256ss rng(41);
    std::multiset<std::uint64_t> reference;
    for (std::size_t op = 0; op < 30000; ++op) {
      if (reference.empty() || rng.bounded(10) < 6) {
        const std::uint64_t key = rng.bounded(5000);
        reference.insert(key);
        handle.push(key, key + 3);
      } else {
        std::uint64_t k = 0, v = 0;
        CHECK(handle.try_pop(k, v));
        CHECK(v == k + 3);
        CHECK(k == *reference.begin());
        reference.erase(reference.begin());
      }
      CHECK(handle.local_size() <= queue.relaxation());
      CHECK(queue.size() == reference.size());
    }
  }

  // k-bounded invisibility, both directions. A handle's local component
  // holds at most k elements; pushing the (k+1)-th flushes everything to
  // the shared component, where any other handle can see it. Elements
  // still local really are invisible to others — until the owning handle
  // dies, whose destructor flushes.
  {
    const std::size_t k = 256;
    klsmq queue(k);
    std::uint64_t kk = 0, vv = 0;
    {
      auto producer = queue.get_handle(0);
      auto observer = queue.get_handle(1);
      for (std::uint64_t i = 0; i < k; ++i) producer.push(i, i);
      CHECK(producer.local_size() == k);
      CHECK(!observer.try_pop(kk, vv));  // all k still producer-local
      producer.push(k, k);               // crosses the bound: flush
      CHECK(producer.local_size() == 0);
      for (std::uint64_t expect = 0; expect <= k; ++expect) {
        CHECK(observer.try_pop(kk, vv));
        CHECK(kk == expect);             // shared pops are exactly sorted
      }
      CHECK(!observer.try_pop(kk, vv));
      for (std::uint64_t i = 0; i < 10; ++i) producer.push(i, i);
      CHECK(!observer.try_pop(kk, vv));  // local again: invisible
    }  // producer handle dies -> destructor flush publishes the 10
    auto drain = queue.get_handle(2);
    for (std::uint64_t expect = 0; expect < 10; ++expect) {
      CHECK(drain.try_pop(kk, vv));
      CHECK(kk == expect);
    }
    CHECK(!drain.try_pop(kk, vv));
    CHECK(queue.size() == 0);
  }

  // Shared harness: conservation and no-lost-wakeups under concurrency
  // (handle destruction keeps thread-local elements drainable), exact
  // single-handle drain, and concurrent try_pop_batch, which also reads
  // each handle's own local component.
  pcq::testing::run_standard_suite(make_klsm, /*drain_exact=*/true);

  std::printf("test_klsm_pq OK\n");
  return 0;
}
