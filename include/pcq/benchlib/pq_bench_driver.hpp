// Structure-agnostic throughput driver: the paper's alternating
// insert/deleteMin workload (Section 5). Written purely against the
// handle concept of core/pq_handle.hpp (statically asserted — no
// per-queue special cases): run_alternating's record_events mode
// additionally needs the timed extension (it throws
// std::invalid_argument on a queue without it), run_alternating_batched
// pushes with push_batch and pops with try_pop_batch, so the one-lock-
// per-batch amortization is the caller's and works on every queue.
//
// Phases: concurrent prefill (untimed), barrier, then each thread runs
// pairs_per_thread iterations of push(random key) + try_pop. With
// record_events set, the timed API is used throughout (including
// prefill) and the per-thread logs are returned for exact rank replay
// via replay_ranks() (core/rank_recorder.hpp).

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/pq_handle.hpp"
#include "core/rank_recorder.hpp"
#include "util/in_flight.hpp"
#include "util/rng.hpp"

namespace pcq {
namespace bench {

struct workload_config {
  std::size_t num_threads = 1;
  std::size_t prefill = 0;           ///< elements inserted before timing
  std::size_t pairs_per_thread = 0;  ///< timed (push, pop) pairs per thread
  bool record_events = false;        ///< capture logs for rank replay
  std::uint64_t seed = 1;
};

struct run_result {
  double mops_per_sec = 0.0;
  double seconds = 0.0;
  std::uint64_t total_ops = 0;    ///< pushes + pop attempts, timed phase
  std::uint64_t failed_pops = 0;  ///< pop attempts that found nothing
  std::vector<event_log> logs;    ///< empty unless record_events
};

namespace detail {

/// The timing frame both drivers share: one thread per worker, each with
/// its own handle, and a barrier between the untimed prefill and the
/// timed phase. body(tid, handle, start) prefills, calls start() once,
/// runs its timed loop and returns its failed pops. The phase runs from
/// the first start() to the last body's return, before any handle dies.
template <typename Queue, typename Body>
run_result run_timed_workers(Queue& queue, std::size_t threads,
                             std::uint64_t timed_ops, Body body) {
  using clock = std::chrono::steady_clock;
  spin_barrier barrier(threads);
  std::vector<clock::time_point> starts(threads), ends(threads);
  std::vector<std::uint64_t> failed(threads, 0);

  auto worker = [&](std::size_t tid) {
    auto handle = queue.get_handle(tid);
    const auto start = [&] {
      barrier.arrive_and_wait();
      starts[tid] = clock::now();
    };
    failed[tid] = body(tid, handle, start);
    ends[tid] = clock::now();
  };

  run_workers(threads, worker);

  auto first_start = starts[0];
  auto last_end = ends[0];
  run_result result;
  for (std::size_t t = 0; t < threads; ++t) {
    if (starts[t] < first_start) first_start = starts[t];
    if (ends[t] > last_end) last_end = ends[t];
    result.failed_pops += failed[t];
  }
  result.seconds =
      std::chrono::duration<double>(last_end - first_start).count();
  result.total_ops = timed_ops;
  result.mops_per_sec =
      result.seconds > 0.0
          ? static_cast<double>(result.total_ops) / result.seconds / 1e6
          : 0.0;
  return result;
}

}  // namespace detail

template <typename Queue>
run_result run_alternating(Queue& queue, const workload_config& config) {
  PCQ_ASSERT_PQ_CONCEPT(Queue);
  constexpr bool timed = has_timed_api<Queue>::value;
  if (config.record_events && !timed) {
    throw std::invalid_argument(
        "run_alternating's record_events mode needs the timed extension "
        "(push_timed / try_pop_timed)");
  }
  const std::size_t threads = config.num_threads ? config.num_threads : 1;
  rank_recorder recorder(threads);

  auto body = [&](std::size_t tid, auto& handle, const auto& start) {
    xoshiro256ss keys(derive_seed(config.seed, 0x9000 + tid));
    auto& log = recorder.log(tid);
    if (config.record_events) {
      log.reserve(2 * config.pairs_per_thread +
                  config.prefill / threads + 1);
    }
    // Pushes a fresh key (below the queue's empty sentinel,
    // numeric_limits::max) and attempts one pop, through the timed API
    // when recording.
    const auto push = [&] {
      const std::uint64_t key = keys() >> 1;
      if constexpr (timed) {
        if (config.record_events) {
          log.push_back(
              mq_event{handle.push_timed(key, key), key, event_kind::insert});
          return;
        }
      }
      handle.push(key, key);
    };
    const auto pop = [&] {
      std::uint64_t key = 0, value = 0;
      if constexpr (timed) {
        std::uint64_t ts = 0;
        if (config.record_events) {
          if (!handle.try_pop_timed(key, value, ts)) return false;
          log.push_back(mq_event{ts, key, event_kind::remove});
          return true;
        }
      }
      return handle.try_pop(key, value);
    };

    std::size_t my_prefill = config.prefill / threads;
    if (tid < config.prefill % threads) ++my_prefill;
    for (std::size_t i = 0; i < my_prefill; ++i) push();

    start();
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < config.pairs_per_thread; ++i) {
      push();
      if (!pop()) ++failed;
    }
    return failed;
  };

  run_result result = detail::run_timed_workers(
      queue, threads,
      2 * static_cast<std::uint64_t>(config.pairs_per_thread) * threads,
      body);
  if (config.record_events) result.logs = recorder.take_logs();
  return result;
}

/// Batched variant of run_alternating through the concept's batch ops:
/// each round pushes `batch` keys with one push_batch and then takes
/// `batch` elements with try_pop_batch, calling it again while a call
/// returns fewer than asked and more than none. Elements still missing
/// when a call returns 0 count as failed pops. Untimed only.
/// pairs_per_thread is rounded down to a whole number of rounds so
/// throughput numbers stay per-element comparable with the scalar driver.
template <typename Queue>
run_result run_alternating_batched(Queue& queue,
                                   const workload_config& config,
                                   std::size_t batch) {
  PCQ_ASSERT_PQ_CONCEPT(Queue);
  const std::size_t threads = config.num_threads ? config.num_threads : 1;
  const std::size_t b = batch ? batch : 1;
  const std::size_t rounds = config.pairs_per_thread / b;

  auto body = [&](std::size_t tid, auto& handle, const auto& start) {
    xoshiro256ss keys(derive_seed(config.seed, 0x9000 + tid));
    const auto next_key = [&keys] { return keys() >> 1; };
    std::vector<typename Queue::entry> block(b);

    std::size_t my_prefill = config.prefill / threads;
    if (tid < config.prefill % threads) ++my_prefill;
    while (my_prefill > 0) {
      const std::size_t n = my_prefill < b ? my_prefill : b;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t key = next_key();
        block[i] = {key, key};
      }
      handle.push_batch(block.data(), n);
      my_prefill -= n;
    }

    start();
    std::uint64_t failed = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < b; ++i) {
        const std::uint64_t key = next_key();
        block[i] = {key, key};
      }
      handle.push_batch(block.data(), b);
      std::size_t got = 0;
      while (got < b) {
        const std::size_t n = handle.try_pop_batch(block.data(), b - got);
        if (n == 0) break;
        got += n;
      }
      failed += b - got;
    }
    return failed;
  };

  return detail::run_timed_workers(
      queue, threads, 2 * static_cast<std::uint64_t>(rounds) * b * threads,
      body);
}

}  // namespace bench
}  // namespace pcq
