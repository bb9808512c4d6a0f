#include "util/spinlock.hpp"

#include <cstddef>

#include "test_macros.hpp"
#include "util/in_flight.hpp"

int main() {
  // try_lock semantics.
  {
    pcq::spinlock lock;
    CHECK(lock.try_lock());
    CHECK(!lock.try_lock());
    lock.unlock();
    CHECK(lock.try_lock());
    lock.unlock();
  }

  // Mutual exclusion: unsynchronized counter guarded only by the lock.
  {
    pcq::spinlock lock;
    long counter = 0;
    const int threads = 4;
    const int increments = 20000;
    auto worker = [&](std::size_t) {
      for (int i = 0; i < increments; ++i) {
        lock.lock();
        ++counter;
        lock.unlock();
      }
    };
    pcq::run_workers(threads, worker);
    CHECK(counter == static_cast<long>(threads) * increments);
  }

  std::printf("test_spinlock OK\n");
  return 0;
}
