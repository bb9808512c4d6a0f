// The in-flight termination protocol and thread launcher
// (util/in_flight.hpp): run_workers at 0, 1, 2 and 5 threads, the
// ledger's settle rule from a seeded count, drained()'s credit hand-back, a
// seeded 4-thread cell that checks random settle sequences against an
// exact shadow count, a 4-thread drain() cell in which one worker holds
// a popped batch while the others keep failing pops, and a 4-thread
// drain() cell that checks on every push_batch that each product being
// published is already counted, and that a batch publishes once.
// test_exec, test_graph (parallel_sssp) and test_graph_process run the
// protocol under real executor workloads, whose oracles fail on an early
// exit.

#include "util/in_flight.hpp"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "test_macros.hpp"
#include "core/baselines/coarse_pq.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"

namespace {

/// run_workers(T, w) calls w(tid) exactly once for each tid in [0, T),
/// tid 0 on the calling thread, and every worker's plain writes are
/// visible once it returns; at T = 0 it calls nothing.
void run_workers_runs_each_tid() {
  constexpr std::size_t kMax = 8;
  for (const std::size_t threads : {0, 1, 2, 5}) {
    std::atomic<std::size_t> calls{0};
    std::atomic<std::size_t> runs[kMax]{};
    std::uint64_t written[kMax] = {};
    bool tid0_on_caller = false;
    const std::thread::id caller = std::this_thread::get_id();
    auto worker = [&](std::size_t tid) {
      calls.fetch_add(1, std::memory_order_relaxed);
      if (tid >= kMax) return;
      runs[tid].fetch_add(1, std::memory_order_relaxed);
      written[tid] = 100 + tid;
      if (tid == 0) tid0_on_caller = std::this_thread::get_id() == caller;
    };
    pcq::run_workers(threads, worker);
    CHECK(calls.load() == threads);
    for (std::size_t t = 0; t < kMax; ++t) {
      CHECK(runs[t].load() == (t < threads ? 1u : 0u));
      CHECK(written[t] == (t < threads ? 100 + t : 0));
    }
    CHECK(tid0_on_caller == (threads > 0));
  }
}

/// Table: from a seeded count of 8 and a starting credit, settle(k)
/// leaves this count and credit. Credit is banked by settle(0) calls
/// made first (each leaves the count alone).
void ledger_table() {
  struct row {
    const char* name;
    std::uint64_t credit_before;
    std::size_t products;
    std::uint64_t units_after;
    std::uint64_t credit_after;
  };
  const row table[] = {
      {"k=0 banks one unit", 0, 0, 8, 1},
      {"k=0 banks onto credit", 2, 0, 8, 3},
      {"k=1 hands the unit over", 0, 1, 8, 0},
      {"k=1 leaves credit alone", 2, 1, 8, 2},
      {"k=2 without credit adds one", 0, 2, 9, 0},
      {"k=2 spends one credit", 1, 2, 8, 0},
      {"k=5 spends all credit first", 4, 5, 8, 0},
      {"k=5 adds what credit lacks", 1, 5, 11, 0},
      {"k=3 leaves spare credit", 3, 3, 8, 1},
  };
  for (const row& r : table) {
    pcq::in_flight_counter c;
    c.seed(8);
    pcq::in_flight_ledger ledger(c);
    for (std::uint64_t i = 0; i < r.credit_before; ++i) ledger.settle(0);
    CHECK(c.units() == 8);
    CHECK(ledger.credit() == r.credit_before);
    ledger.settle(r.products);
    if (c.units() != r.units_after || ledger.credit() != r.credit_after) {
      std::fprintf(stderr, "ledger row '%s': units %llu credit %llu\n",
                   r.name, static_cast<unsigned long long>(c.units()),
                   static_cast<unsigned long long>(ledger.credit()));
    }
    CHECK(c.units() == r.units_after);
    CHECK(ledger.credit() == r.credit_after);
    // Count minus credit is the number of units truly owed: the seed,
    // less the credit_before + 1 finished entries, plus the k products.
    CHECK(c.units() - ledger.credit() ==
          8 - (r.credit_before + 1) + r.products);
  }
}

/// drained() hands the credit back before it reads, and is true only
/// when the count (credit included) is zero.
void drained_flushes_credit() {
  {
    pcq::in_flight_counter c;
    c.seed(0);
    pcq::in_flight_ledger ledger(c);
    CHECK(ledger.drained());
  }
  {
    // Seed 2: one entry passes its unit on (k = 1), then both finish.
    pcq::in_flight_counter c;
    c.seed(2);
    pcq::in_flight_ledger ledger(c);
    CHECK(!ledger.drained());
    ledger.settle(1);
    ledger.settle(0);
    CHECK(c.units() == 2 && ledger.credit() == 1);
    ledger.settle(0);
    CHECK(c.units() == 2 && ledger.credit() == 2);
    CHECK(!c.drained());  // the raw count still holds the banked units
    CHECK(ledger.drained());
    CHECK(c.units() == 0 && ledger.credit() == 0);
  }
  {
    // Two ledgers: one's hand-back is not enough while the other still
    // banks a unit; the second hand-back drains.
    pcq::in_flight_counter c;
    c.seed(2);
    pcq::in_flight_ledger a(c), b(c);
    a.settle(0);
    b.settle(0);
    CHECK(!a.drained());
    CHECK(c.units() == 1);
    CHECK(b.drained());
    CHECK(a.drained());
  }
}

/// Seeded 4-thread cell. A shared pool of tokens stands in for the
/// queue (take = pop, give = publish). Each episode starts from one
/// token; each taken token produces k products, drawn so the process is
/// critical (mean k = 1) and the pool keeps running nearly empty, until
/// the episode's budget runs out and k becomes 0. The workers start
/// together and spend a little time on each token, so they overlap.
/// `owed` is an exact
/// shadow of the protocol's true count: updated before the ledger sees
/// the settle, and so before the products are published. A worker whose
/// ledger reports drained() must see owed == 0.
void concurrent_shadow(std::uint64_t seed, std::size_t episodes) {
  constexpr std::size_t kThreads = 4;
  for (std::size_t e = 0; e < episodes; ++e) {
    pcq::in_flight_counter counter;
    counter.seed(1);
    std::atomic<std::int64_t> pool{1};
    std::atomic<std::int64_t> owed{1};
    std::atomic<std::int64_t> budget{256};
    pcq::spin_barrier start(kThreads);
    std::atomic<std::int64_t> processed{0};
    std::atomic<std::int64_t> produced{0};
    std::atomic<bool> early{false};

    auto worker = [&](std::size_t tid) {
      pcq::in_flight_ledger ledger(counter);
      pcq::xoshiro256ss rng(pcq::derive_seed(seed, e * kThreads + tid));
      std::int64_t mine_processed = 0, mine_produced = 0;
      start.arrive_and_wait();
      for (;;) {
        std::int64_t avail = pool.load(std::memory_order_acquire);
        bool took = false;
        while (avail > 0) {
          if (pool.compare_exchange_weak(avail, avail - 1,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
            took = true;
            break;
          }
        }
        if (!took) {
          if (ledger.drained()) {
            if (owed.load(std::memory_order_acquire) != 0) {
              early.store(true, std::memory_order_relaxed);
            }
            break;
          }
          std::this_thread::yield();
          continue;
        }
        ++mine_processed;
        for (int spin = 0; spin < 16; ++spin) pcq::cpu_relax();  // the work
        // k = 0, 1 with probability 3/8 each; 2 and 3 with 1/8 each.
        const std::uint64_t draw = rng.bounded(8);
        std::int64_t k = draw < 3 ? 0 : draw < 6 ? 1 : draw == 6 ? 2 : 3;
        if (k > 0 && budget.fetch_sub(k, std::memory_order_relaxed) < k) {
          k = 0;
        }
        owed.fetch_add(k - 1, std::memory_order_acq_rel);
        ledger.settle(static_cast<std::size_t>(k));
        mine_produced += k;
        if (k > 0) pool.fetch_add(k, std::memory_order_acq_rel);
      }
      processed.fetch_add(mine_processed, std::memory_order_relaxed);
      produced.fetch_add(mine_produced, std::memory_order_relaxed);
      CHECK(ledger.credit() == 0);
    };

    pcq::run_workers(kThreads, worker);

    CHECK(!early.load());
    CHECK(counter.units() == 0);
    CHECK(owed.load() == 0);
    CHECK(pool.load() == 0);
    CHECK(processed.load() == 1 + produced.load());
  }
}

/// One worker holds a whole batch: kDrainBatch childless entries are
/// seeded into a coarse queue, so the first try_pop_batch takes all of
/// them. The worker that got them waits until another worker has failed
/// a pop, then sleeps before it finishes each entry. The others keep
/// failing pops meanwhile, and none may leave drain() before every held
/// entry is settled: the waiting entries keep their units.
void held_batch_keeps_workers(std::size_t rounds) {
  constexpr std::size_t kThreads = 4;
  using queue_t = pcq::coarse_pq<std::uint64_t, std::uint64_t>;
  using entry = queue_t::entry;
  for (std::size_t round = 0; round < rounds; ++round) {
    queue_t queue;
    pcq::in_flight_counter counter;
    counter.seed(pcq::kDrainBatch);
    {
      auto seeder = queue.get_handle(0);
      for (std::uint64_t k = 0; k < pcq::kDrainBatch; ++k) seeder.push(k, k);
    }
    pcq::spin_barrier start(kThreads);
    std::atomic<bool> holding{false};
    std::atomic<std::uint64_t> held_fails{0};  // failed pops while held
    std::atomic<std::uint64_t> settled{0};

    // Forwards to the queue's handle and counts the pops that fail while
    // a batch is held.
    struct observed_handle {
      queue_t::handle inner;
      std::atomic<bool>* holding;
      std::atomic<std::uint64_t>* held_fails;
      std::size_t try_pop_batch(entry* out, std::size_t max_n) {
        const std::size_t got = inner.try_pop_batch(out, max_n);
        if (got > 0) {
          holding->store(true, std::memory_order_release);
        } else if (holding->load(std::memory_order_acquire)) {
          held_fails->fetch_add(1, std::memory_order_acq_rel);
        }
        return got;
      }
      void push_batch(const entry* items, std::size_t n) {
        inner.push_batch(items, n);
      }
    };

    auto worker = [&](std::size_t tid) {
      observed_handle handle{queue.get_handle(tid), &holding, &held_fails};
      pcq::in_flight_ledger ledger(counter);
      start.arrive_and_wait();
      pcq::drain<entry>(handle, ledger, pcq::kDrainBatch, [](const entry&) {},
                        [&](const entry&, std::vector<entry>&) {
        // Bounded wait: a worker that never fails a pop fails the check
        // on held_fails below instead of hanging the test.
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(2);
        while (held_fails.load(std::memory_order_acquire) == 0 &&
               std::chrono::steady_clock::now() < give_up) {
          std::this_thread::yield();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        settled.fetch_add(1, std::memory_order_acq_rel);
      });
      // Checked here, not after the join: an early exit fails at once.
      CHECK(settled.load(std::memory_order_acquire) == pcq::kDrainBatch);
      CHECK(ledger.credit() == 0);
    };
    pcq::run_workers(kThreads, worker);

    CHECK(held_fails.load() > 0);
    CHECK(counter.units() == 0);
    CHECK(queue.size() == 0);
  }
}

/// A fair (FIFO) spin lock: the turn of publish_after_settle below.
class ticket_lock {
 public:
  void lock() {
    const std::uint64_t mine = next_.fetch_add(1, std::memory_order_relaxed);
    while (serving_.load(std::memory_order_acquire) != mine) {
      std::this_thread::yield();
    }
  }
  void unlock() { serving_.fetch_add(1, std::memory_order_release); }

 private:
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> serving_{0};
};

/// Settle-before-publish, checked on every push_batch drain() makes.
/// Four workers drain one coarse queue seeded with kDrainBatch entries;
/// each entry's body appends k products, drawn so the process grows
/// (mean k = 13/8) until the episode's budget runs out. The wrapped handle serializes the
/// workers' steps: a worker takes a fair turn in each try_pop_batch and
/// keeps it until its next one (or until drain() returns), so its
/// bodies, settles, publish and a failed pop's credit hand-back all run
/// while the other workers wait at a pop, holding no entry, with their
/// credit recorded. The units owed are then exact at every publish:
///
///   counter.units() - (every ledger's credit) == queued + n,
///
/// the n products being the only entries the publishing worker still
/// holds. A product published before its entry is settled breaks the
/// equality. The wrapper also checks that a batch with products makes
/// exactly one push_batch and a batch without makes none.
void publish_after_settle(std::uint64_t seed, std::size_t episodes) {
  constexpr std::size_t kThreads = 4;
  using queue_t = pcq::coarse_pq<std::uint64_t, std::uint64_t>;
  using entry = queue_t::entry;
  for (std::size_t e = 0; e < episodes; ++e) {
    queue_t queue;
    pcq::in_flight_counter counter;
    counter.seed(pcq::kDrainBatch);
    {
      auto seeder = queue.get_handle(0);
      for (std::uint64_t k = 0; k < pcq::kDrainBatch; ++k) seeder.push(k, k);
    }
    ticket_lock turn;
    std::uint64_t credit[kThreads] = {};  // guarded by `turn`
    std::atomic<std::int64_t> budget{512};
    std::atomic<std::uint64_t> batches_with_products{0};
    std::atomic<std::uint64_t> publishes{0};  // push_batch calls
    std::atomic<std::uint64_t> processed{0};
    std::atomic<std::uint64_t> produced{0};

    struct checked_handle {
      queue_t::handle inner;
      queue_t* queue;
      pcq::in_flight_counter* counter;
      pcq::in_flight_ledger* ledger;
      ticket_lock* turn;
      std::uint64_t* credit;
      std::size_t tid;
      bool has_turn = false;
      std::size_t batch_products = 0;  // appended by this batch's bodies
      std::size_t batch_publishes = 0;
      std::uint64_t batches_with_products = 0;
      std::uint64_t publishes = 0;

      std::size_t try_pop_batch(entry* out, std::size_t max_n) {
        end_turn();
        turn->lock();
        has_turn = true;
        batch_products = 0;
        batch_publishes = 0;
        return inner.try_pop_batch(out, max_n);
      }

      void push_batch(const entry* items, std::size_t n) {
        ++batch_publishes;
        ++publishes;
        std::uint64_t all_credit = ledger->credit();
        for (std::size_t t = 0; t < kThreads; ++t) {
          if (t != tid) all_credit += credit[t];
        }
        const std::uint64_t owed = counter->units() - all_credit;
        if (owed != queue->size() + n) {
          std::fprintf(stderr,
                       "publish of %zu with %llu owed, %zu queued\n", n,
                       static_cast<unsigned long long>(owed), queue->size());
        }
        CHECK(owed == queue->size() + n);
        inner.push_batch(items, n);
      }

      // Closes the step: the batch it drained published once iff it
      // produced anything, and the others see this worker's credit.
      void end_turn() {
        if (!has_turn) return;
        CHECK(batch_publishes == (batch_products > 0 ? 1u : 0u));
        if (batch_products > 0) ++batches_with_products;
        credit[tid] = ledger->credit();
        has_turn = false;
        turn->unlock();
      }
    };

    auto worker = [&](std::size_t tid) {
      pcq::in_flight_ledger ledger(counter);
      checked_handle handle{queue.get_handle(tid), &queue, &counter, &ledger,
                            &turn, credit, tid};
      pcq::xoshiro256ss rng(pcq::derive_seed(seed, e * kThreads + tid));
      std::uint64_t mine_processed = 0, mine_produced = 0;
      pcq::drain<entry>(
          handle, ledger, pcq::kDrainBatch, [](const entry&) {},
          [&](const entry&, std::vector<entry>& products) {
            ++mine_processed;
            // k = 0 with probability 1/8, 1 with 3/8, 2 and 3 with 2/8.
            const std::uint64_t draw = rng.bounded(8);
            std::int64_t k = draw < 1 ? 0 : draw < 4 ? 1 : draw < 6 ? 2 : 3;
            if (k > 0 && budget.fetch_sub(k, std::memory_order_relaxed) < k) {
              k = 0;
            }
            for (std::int64_t i = 0; i < k; ++i) {
              const std::uint64_t label = rng.bounded(1024);
              products.emplace_back(label, label);
            }
            handle.batch_products += static_cast<std::size_t>(k);
            mine_produced += static_cast<std::uint64_t>(k);
          });
      handle.end_turn();
      CHECK(ledger.credit() == 0);
      batches_with_products.fetch_add(handle.batches_with_products,
                                      std::memory_order_relaxed);
      publishes.fetch_add(handle.publishes, std::memory_order_relaxed);
      processed.fetch_add(mine_processed, std::memory_order_relaxed);
      produced.fetch_add(mine_produced, std::memory_order_relaxed);
    };
    pcq::run_workers(kThreads, worker);

    CHECK(counter.units() == 0);
    CHECK(queue.size() == 0);
    CHECK(processed.load() == pcq::kDrainBatch + produced.load());
    CHECK(publishes.load() == batches_with_products.load());
  }
}

}  // namespace

int main() {
  run_workers_runs_each_tid();
  ledger_table();
  drained_flushes_credit();
  concurrent_shadow(0x1f17, 400);
  held_batch_keeps_workers(10);
  publish_after_settle(0x5e77, 200);
  std::printf("test_in_flight OK\n");
  return 0;
}
