// The in-flight termination counter (util/in_flight.hpp): the settle
// rule's three branches from a seeded count, and drained() exactly at
// zero. The concurrent protocol is exercised by test_graph, test_exec
// and test_graph_process, whose oracles fail on an early exit.

#include "util/in_flight.hpp"

#include <cstdint>
#include <cstdio>

#include "test_macros.hpp"

int main() {
  // Table: settle(k) from a seeded count of 3 moves it by k - 1.
  {
    struct row {
      std::size_t products;
      std::uint64_t after;
    };
    const row table[] = {{0, 2}, {1, 3}, {2, 4}, {5, 7}};
    for (const row& r : table) {
      pcq::in_flight_counter c;
      c.seed(3);
      CHECK(!c.drained());
      c.settle(r.products);
      CHECK(c.units() == r.after);
      CHECK(!c.drained());
    }
  }

  // drained() is true only at zero: a seed of 2, one entry passing its
  // unit on (k = 1) and then both entries finishing with no products.
  {
    pcq::in_flight_counter c;
    c.seed(0);
    CHECK(c.drained());
    c.seed(2);
    CHECK(!c.drained());
    c.settle(1);
    CHECK(c.units() == 2 && !c.drained());
    c.settle(0);
    CHECK(c.units() == 1 && !c.drained());
    c.settle(0);
    CHECK(c.units() == 0 && c.drained());
  }

  std::printf("test_in_flight OK\n");
  return 0;
}
