#include "core/multi_queue.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "test_macros.hpp"
#include "pq_test_harness.hpp"
#include "core/rank_recorder.hpp"
#include "util/rng.hpp"

namespace {

using mq = pcq::multi_queue<std::uint64_t, std::uint64_t>;

// Default config: at 1 thread this is 2 queues with two-choice, which is
// an exact priority queue, so the harness drain check can assert order.
std::unique_ptr<mq> make_mq(std::size_t threads) {
  pcq::mq_config cfg;
  return std::make_unique<mq>(cfg, threads);
}

// A maker for the default config with `factor` queues per thread.
auto make_with_factor(std::size_t factor) {
  return [factor](std::size_t threads) {
    pcq::mq_config cfg;
    cfg.queue_factor = factor;
    return std::make_unique<mq>(cfg, threads);
  };
}

}  // namespace

int main() {
  // Queue-count arithmetic.
  {
    pcq::mq_config cfg;
    cfg.queue_factor = 2;
    CHECK(mq(cfg, 4).num_queues() == 8);
    cfg.queue_factor = 1;
    CHECK(mq(cfg, 1).num_queues() == 1);
    CHECK(mq(cfg, 0).num_queues() == 1);  // degenerate thread count
  }

  // One queue is an exact priority queue: pops come out sorted. Eight
  // queues per thread relax the order but lose and duplicate nothing.
  pcq::testing::check_monotone_drain(make_with_factor(1), /*n=*/4096,
                                     /*exact=*/true, 5);
  pcq::testing::check_monotone_drain(make_with_factor(8), /*n=*/20000,
                                     /*exact=*/false, 6);

  // Concurrent alternating push/pop conserves elements, at a larger
  // scale than the shared suite's run below.
  pcq::testing::check_element_conservation(make_mq, /*threads=*/4,
                                           /*pairs=*/10000, 77);

  // Timed API: timestamps are unique, replay matches the op counts and
  // two-choice keeps the mean rank small.
  {
    pcq::mq_config cfg;
    cfg.queue_factor = 4;
    mq queue(cfg, 1);
    auto handle = queue.get_handle(0);
    pcq::xoshiro256ss rng(8);
    pcq::rank_recorder recorder(1);
    const std::size_t prefill = 2048, pairs = 8192;
    for (std::size_t i = 0; i < prefill; ++i) {
      const std::uint64_t key = rng() >> 1;
      recorder.record(0, pcq::event_kind::insert,
                      handle.push_timed(key, key), key);
    }
    for (std::size_t i = 0; i < pairs; ++i) {
      const std::uint64_t key = rng() >> 1;
      recorder.record(0, pcq::event_kind::insert,
                      handle.push_timed(key, key), key);
      std::uint64_t k = 0, v = 0, ts = 0;
      CHECK(handle.try_pop_timed(k, v, ts));
      recorder.record(0, pcq::event_kind::remove, ts, k);
    }
    const auto report = pcq::replay_ranks(recorder.logs());
    CHECK(report.deletions == pairs);
    CHECK(report.unmatched == 0);
    // 4 queues, two-choice: mean rank stays a small multiple of the
    // queue count (generous bound — the run is randomized).
    CHECK(report.rank_stats.mean() < 50.0);
  }

  // size() regression: the counter-sum implementation (O(#queues), no
  // heap locks) must stay sane while insert/delete run concurrently and
  // be exact at quiescence. Workers run net-zero push/pop pairs over a
  // prefill, a monitor polls size() throughout.
  {
    pcq::mq_config cfg;
    mq queue(cfg, 4);
    const std::size_t threads = 4, prefill = 20000, pairs = 20000;
    {
      auto handle = queue.get_handle(0);
      pcq::xoshiro256ss rng(123);
      for (std::size_t i = 0; i < prefill; ++i) {
        const std::uint64_t key = rng() >> 1;
        handle.push(key, key);
      }
    }
    CHECK(queue.size() == prefill);

    // Workers [0, threads) churn; worker `threads` polls size() until
    // they have all finished.
    std::atomic<std::size_t> finished{0};
    auto worker = [&](std::size_t t) {
      if (t == threads) {
        while (finished.load(std::memory_order_acquire) < threads) {
          const std::size_t s = queue.size();
          CHECK(s <= prefill + threads * pairs);
          CHECK(s >= prefill / 2);  // generous: sum is not a snapshot
          std::this_thread::yield();
        }
        return;
      }
      auto handle = queue.get_handle(t);
      pcq::xoshiro256ss rng(pcq::derive_seed(321, t));
      for (std::size_t i = 0; i < pairs; ++i) {
        const std::uint64_t key = rng() >> 1;
        handle.push(key, key);
        std::uint64_t k = 0, v = 0;
        while (!handle.try_pop(k, v)) {
        }  // queue holds ~prefill elements, so pops always succeed
      }
      finished.fetch_add(1, std::memory_order_release);
    };
    pcq::run_workers(threads + 1, worker);
    CHECK(queue.size() == prefill);  // quiescent exactness
  }

  // Emptiness-sweep regression (see pop_impl's empty_by_sweep): publish()
  // stores top before count, but a third thread can observe the count
  // store first, so the sweep must treat either cell as evidence of life.
  // Concurrent half: a single consumer must account for every element a
  // concurrent producer pushes — a sweep that misses a fresh element only
  // costs a retry, but one that *loses* it hangs this loop (ctest timeout
  // is the detector). High queue factor makes single-sample pops miss
  // often, so the sweep path runs constantly.
  {
    pcq::mq_config cfg;
    cfg.queue_factor = 16;
    mq queue(cfg, 2);
    const std::size_t n = 20000;
    // Worker 0 produces on handle 0, worker 1 consumes on handle 1.
    auto worker = [&](std::size_t t) {
      auto handle = queue.get_handle(t);
      if (t == 0) {
        pcq::xoshiro256ss rng(0x5eed5);
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t key = rng() >> 1;
          handle.push(key, key);
        }
        return;
      }
      std::size_t got = 0;
      while (got < n) {
        std::uint64_t k = 0, v = 0;
        if (handle.try_pop(k, v)) {
          CHECK(k == v);
          ++got;
        }
      }
    };
    pcq::run_workers(2, worker);
    CHECK(queue.size() == 0);
    // Quiescent half: with every push happened-before, a single try_pop
    // per remaining element must succeed — the sweep may never report
    // empty while anything is published.
    {
      auto handle = queue.get_handle(2);
      for (std::size_t i = 0; i < 64; ++i) handle.push(i, i);
      for (std::size_t i = 0; i < 64; ++i) {
        std::uint64_t k = 0, v = 0;
        CHECK(handle.try_pop(k, v));
      }
      std::uint64_t k = 0, v = 0;
      CHECK(!handle.try_pop(k, v));
    }
  }

  // Batched ops: one-lock-per-batch pushes and try_pop_batch calls
  // conserve elements under concurrency, and a single-queue drain through
  // try_pop_batch is globally sorted.
  {
    pcq::testing::check_batched_conservation(make_mq, /*threads=*/4,
                                             /*rounds=*/500, /*batch=*/16,
                                             0xba7c4);
    pcq::testing::check_batched_drain(make_with_factor(1), /*n=*/4096, /*batch=*/8,
                                      /*exact=*/true, 0xba7c5);
    // Multi-queue configuration: chunks stay ascending but the merge is
    // relaxed, so no global-order assertion.
    pcq::testing::check_batched_drain(make_mq, /*n=*/4096, /*batch=*/16,
                                      /*exact=*/false, 0xba7c6);
  }

  // push_batch is rank-neutral in the batch's order: each slot pops its
  // exact minimum whatever order its entries arrived in, so two queues
  // with the same seed, one fed every batch sorted and the other the same
  // batches shuffled, make the same draws and pop the same (key, value)
  // sequence. Keys are distinct (a serial number in the low bits). Every
  // batch mixes keys just above the last popped key, which land below a
  // slot's full deletion buffer, with keys far above it.
  {
    using entry = mq::entry;
    pcq::mq_config cfg;
    cfg.seed = 0x50a7;
    mq sorted_queue(cfg, 4), shuffled_queue(cfg, 4);
    auto sorted_handle = sorted_queue.get_handle(0);
    auto shuffled_handle = shuffled_queue.get_handle(0);
    pcq::xoshiro256ss rng(0x50a8);
    const std::size_t sizes[] = {1, 3, 16, 17, 100, 4096};
    std::uint64_t serial = 0, frontier = 0;
    std::size_t live = 0;
    std::vector<entry> batch, sorted_out(4), shuffled_out(4);
    // Pops both queues down to `floor` live entries, 4 per call: each call
    // must deliver the same entries from both.
    const auto pop_down_to = [&](std::size_t floor) {
      while (live > floor) {
        const std::size_t got = sorted_handle.try_pop_batch(
            sorted_out.data(), sorted_out.size());
        CHECK(got > 0);
        CHECK(shuffled_handle.try_pop_batch(shuffled_out.data(),
                                            shuffled_out.size()) == got);
        for (std::size_t i = 0; i < got; ++i) {
          CHECK(sorted_out[i] == shuffled_out[i]);
        }
        frontier = sorted_out[got - 1].first;
        live -= got;
        CHECK(sorted_queue.size() == live);
        CHECK(shuffled_queue.size() == live);
      }
    };
    for (int round = 0; round < 3; ++round) {
      for (const std::size_t n : sizes) {
        batch.clear();
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t hi = (frontier >> 20) +
                                   (i % 2 == 0 ? rng.bounded(4)
                                               : rng.bounded(1u << 30));
          const std::uint64_t key = (hi << 20) | serial++;
          batch.emplace_back(key, key * 7 + 1);
        }
        for (std::size_t i = n; i > 1; --i) {
          std::swap(batch[i - 1], batch[rng.bounded(i)]);
        }
        shuffled_handle.push_batch(batch.data(), n);
        std::sort(batch.begin(), batch.end());
        sorted_handle.push_batch(batch.data(), n);
        live += n;
        CHECK(sorted_queue.size() == live);
        CHECK(shuffled_queue.size() == live);
        pop_down_to(256);
      }
    }
    pop_down_to(0);
    CHECK(sorted_queue.size() == 0);
    CHECK(shuffled_queue.size() == 0);
    CHECK(sorted_handle.try_pop_batch(sorted_out.data(), 4) == 0);
    CHECK(shuffled_handle.try_pop_batch(shuffled_out.data(), 4) == 0);
  }

  // A batch with duplicate keys conserves the multiset of entries.
  {
    using entry = mq::entry;
    mq queue(pcq::mq_config{}, 4);
    auto handle = queue.get_handle(0);
    pcq::xoshiro256ss rng(0xd0b);
    std::vector<entry> pushed;
    const std::size_t sizes[] = {5, 40, 300};
    for (const std::size_t n : sizes) {
      std::vector<entry> batch;
      for (std::size_t i = 0; i < n; ++i) {
        batch.emplace_back(rng.bounded(6), pushed.size() + i);
      }
      handle.push_batch(batch.data(), n);
      pushed.insert(pushed.end(), batch.begin(), batch.end());
      CHECK(queue.size() == pushed.size());
    }
    std::vector<entry> popped, out(4);
    while (const std::size_t got = handle.try_pop_batch(out.data(), 4)) {
      popped.insert(popped.end(), out.begin(), out.begin() + got);
    }
    std::sort(pushed.begin(), pushed.end());
    std::sort(popped.begin(), popped.end());
    CHECK(popped == pushed);
    CHECK(queue.size() == 0);
  }

  // A batch of 1 is exactly a push: same draws, same slot, same pops
  // (duplicate keys included).
  {
    mq push_queue(pcq::mq_config{}, 4), batch_queue(pcq::mq_config{}, 4);
    auto push_handle = push_queue.get_handle(0);
    auto batch_handle = batch_queue.get_handle(0);
    pcq::xoshiro256ss rng(0xb1);
    for (std::uint64_t i = 0; i < 4000; ++i) {
      const mq::entry e(rng.bounded(1000), i);
      push_handle.push(e.first, e.second);
      batch_handle.push_batch(&e, 1);
      if (i % 3 == 2) {
        std::uint64_t pk = 0, pv = 0, bk = 0, bv = 0;
        CHECK(push_handle.try_pop(pk, pv));
        CHECK(batch_handle.try_pop(bk, bv));
        CHECK(pk == bk && pv == bv);
      }
      CHECK(push_queue.size() == batch_queue.size());
    }
    std::uint64_t pk = 0, pv = 0, bk = 0, bv = 0;
    while (push_handle.try_pop(pk, pv)) {
      CHECK(batch_handle.try_pop(bk, bv));
      CHECK(pk == bk && pv == bv);
    }
    CHECK(!batch_handle.try_pop(bk, bv));
  }

  // Shared harness: conservation, no-lost-wakeups, exact drain at the
  // 1-thread degeneration.
  pcq::testing::run_standard_suite(make_mq, /*drain_exact=*/true);

  // Insertion stickiness: each handle reuses its sampled slot for 4
  // pushes and abandons it early when its try_lock fails.
  pcq::testing::run_standard_suite(
      [](std::size_t threads) {
        pcq::mq_config cfg;
        cfg.stickiness = 4;
        return std::make_unique<mq>(cfg, threads);
      },
      /*drain_exact=*/false, 0x571c);

  std::printf("test_multi_queue OK\n");
  return 0;
}
