#include "core/baselines/coarse_pq.hpp"

#include <cstdint>
#include <memory>

#include "test_macros.hpp"
#include "pq_test_harness.hpp"

namespace {

using cpq = pcq::coarse_pq<std::uint64_t, std::uint64_t>;

// The suite runs on a queue built with a capacity hint; the drain below
// builds its queue without one.
std::unique_ptr<cpq> make_coarse(std::size_t /*threads*/) {
  return std::make_unique<cpq>(/*expected_capacity=*/2048);
}

}  // namespace

int main() {
  // Strict semantics on a queue built without a capacity hint: pops are
  // globally sorted.
  pcq::testing::check_monotone_drain(
      [](std::size_t) { return std::make_unique<cpq>(); }, /*n=*/8192,
      /*exact=*/true, 9);

  // Shared harness: conservation, no-lost-wakeups, exact drain (the
  // coarse heap is strict by construction).
  pcq::testing::run_standard_suite(make_coarse, /*drain_exact=*/true);

  std::printf("test_coarse_pq OK\n");
  return 0;
}
