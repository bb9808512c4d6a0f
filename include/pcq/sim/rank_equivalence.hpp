// Theorem 2's constructive coupling, run against the REAL structure: a
// concrete multi_queue and the Theorem-1 label_process driven from the
// same RNG stream, both replayed through the Fenwick rank oracle, so the
// simulation can be checked against the implementation it abstracts —
// not just against theory.
//
// Why an EXACT trace-level match is possible (and what it proves): with
// one thread, stickiness = 1, scalar pops, and uniform insertion, the
// MultiQueue handle's decision procedure is the label process —
//
//   insert:  one rng.bounded(n) draw picks the queue/bin
//            (every try_lock succeeds uncontended, so no resampling);
//   delete:  loop { bernoulli(beta) -> sample_distinct(n, d) + argmin of
//            published tops | bounded(n) single sample; retry while the
//            sampled bins are empty } — token for token the label
//            process's pick_removal_bin, and the emptiness sweep /
//            backoff consume no randomness;
//   state:   keys are labels inserted in increasing order, so each
//            buffered_heap's exact minimum IS its bin's FIFO front;
//
// and both sides draw from identical xoshiro streams: the label process
// is seeded with derive_seed(mq_seed, 0), which is exactly how handle 0
// seeds its own RNG. Every queue choice therefore coincides, every
// removal deletes the same label, and the per-removal rank sequences —
// the label process's Fenwick oracle on one side, the timestamp-merged
// rank_recorder replay on the other — must be EQUAL, element for
// element. Any divergence pinpoints a drift between the implementation
// and the model the theorems reason about (a changed sampling order, an
// extra draw, a heap/FIFO mismatch). bench_rank's coupling table and
// test_rank_equivalence assert this match; the coupling is the repo's
// cross-validation oracle in the simulate-then-verify sense.
//
// Concurrently no step-level coupling exists (thread interleaving is
// scheduler randomness), so run_equivalence falls back to DISTRIBUTIONAL
// equivalence: the replayed concurrent rank distribution is compared
// against the sequential process's via a two-sample Kolmogorov–Smirnov
// statistic and moment deltas. Theorem 2's claim is that the concurrent
// rank behavior is governed by the sequential process; the KS distance
// shrinking toward sampling noise (~ sqrt((m+n)/(m*n)) at 95%) is its
// empirical shadow.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/multi_queue.hpp"
#include "core/rank_recorder.hpp"
#include "sim/label_process.hpp"
#include "util/in_flight.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"
#include "util/stats.hpp"

namespace pcq {
namespace sim {

struct equivalence_config {
  std::size_t num_queues = 8;  ///< n: MultiQueue queues == process bins
  double beta = 1.0;
  std::size_t choices = 2;  ///< d
  std::size_t prefill = 1u << 12;  ///< labels inserted before the pairs
  std::size_t pairs = 1u << 13;    ///< alternating (insert, delete) pairs
  std::size_t threads = 1;  ///< 1: exact coupling; >1: KS comparison
  std::uint64_t seed = 1;
};

/// Two-sample comparison of empirical rank distributions.
struct distribution_comparison {
  double ks_statistic = 0.0;  ///< sup |F_real - F_sim|
  double mean_real = 0.0;
  double mean_sim = 0.0;
  double stddev_real = 0.0;
  double stddev_sim = 0.0;
  std::uint64_t max_real = 0;
  std::uint64_t max_sim = 0;
};

struct equivalence_result {
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::vector<std::uint64_t> sim_ranks;   ///< label process, removal order
  std::vector<std::uint64_t> real_ranks;  ///< mq replay, timestamp order
  /// Trace-level equality (only claimed for threads == 1).
  bool exact_match = false;
  std::size_t first_mismatch = npos;
  distribution_comparison dist;
  std::uint64_t failed_pops = 0;  ///< concurrent pops that gave up (rare)
};

/// Merges per-thread logs by linearization timestamp and replays them
/// through a rank oracle over the dense label domain [0, domain),
/// returning the rank of every removal in replay order. The trace-shaped
/// sibling of core/rank_recorder.hpp's aggregate replay_ranks.
inline std::vector<std::uint64_t> replay_rank_trace(
    const std::vector<event_log>& logs, std::size_t domain) {
  rank_oracle oracle(domain);
  std::vector<std::uint64_t> trace;
  for (const auto& e : merge_events(logs)) {
    const auto label = static_cast<std::size_t>(e.key);
    if (e.kind == event_kind::insert) {
      oracle.insert(label);
    } else if (oracle.contains(label)) {
      trace.push_back(oracle.remove(label));
    }
  }
  return trace;
}

/// Two-sample Kolmogorov–Smirnov statistic plus first/second moments of
/// both empirical rank distributions.
inline distribution_comparison compare_rank_distributions(
    const std::vector<std::uint64_t>& real,
    const std::vector<std::uint64_t>& sim) {
  distribution_comparison cmp;
  const auto moments = [](const std::vector<std::uint64_t>& v, double& mean,
                          double& stddev, std::uint64_t& max) {
    running_stats stats;
    max = 0;
    for (const std::uint64_t r : v) {
      stats.push(static_cast<double>(r));
      if (r > max) max = r;
    }
    mean = stats.mean();
    stddev = stats.stddev();
  };
  moments(real, cmp.mean_real, cmp.stddev_real, cmp.max_real);
  moments(sim, cmp.mean_sim, cmp.stddev_sim, cmp.max_sim);
  if (real.empty() || sim.empty()) {
    cmp.ks_statistic = 1.0;
    return cmp;
  }

  std::vector<std::uint64_t> a(real), b(sim);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  std::size_t i = 0, j = 0;
  double ks = 0.0;
  while (i < a.size() && j < b.size()) {
    // Advance past the smaller value (whole tie runs at once) so both
    // CDFs are evaluated at every jump point.
    const std::uint64_t x = a[i] < b[j] ? a[i] : b[j];
    while (i < a.size() && a[i] == x) ++i;
    while (j < b.size() && b[j] == x) ++j;
    const double diff =
        static_cast<double>(i) / na - static_cast<double>(j) / nb;
    ks = std::max(ks, diff < 0 ? -diff : diff);
  }
  cmp.ks_statistic = ks;
  return cmp;
}

/// Drives a real multi_queue and the Theorem-1 label process through the
/// identical prefill-then-alternating schedule and compares their rank
/// traces: exact element-wise equality with threads == 1, KS/moment
/// comparison otherwise. See the header comment for why the sequential
/// match is a theorem about the code, not a lucky seed.
inline equivalence_result run_equivalence(const equivalence_config& cfg) {
  const std::size_t domain = cfg.prefill + cfg.pairs;
  equivalence_result result;

  // Simulated side: the label process with handle 0's RNG stream.
  process_config pcfg;
  pcfg.num_bins = cfg.num_queues;
  pcfg.beta = cfg.beta;
  pcfg.choices = cfg.choices;
  pcfg.seed = derive_seed(cfg.seed, 0);
  pcfg.record_trace = true;
  label_process sim(pcfg);
  sim.run_streaming(cfg.prefill, cfg.pairs);
  result.sim_ranks = sim.costs().trace();

  // Real side: queue_factor = n with num_threads = 1 pins the queue
  // count to n regardless of how many worker handles drive it (handles
  // are just ids; the constructor's thread count only sizes the array).
  mq_config mcfg;
  mcfg.beta = cfg.beta;
  mcfg.choices = cfg.choices;
  mcfg.queue_factor = cfg.num_queues;
  mcfg.stickiness = 1;   // the coupling's insert is one bounded(n) draw
  mcfg.seed = cfg.seed;
  multi_queue<std::uint64_t, std::uint64_t> queue(mcfg, 1);

  const std::size_t threads = cfg.threads > 0 ? cfg.threads : 1;
  rank_recorder recorder(threads);
  recorder.reserve(domain / threads + cfg.prefill + 2);

  if (threads == 1) {
    auto handle = queue.get_handle(0);
    std::uint64_t label = 0;
    for (std::size_t i = 0; i < cfg.prefill; ++i, ++label) {
      recorder.record(0, event_kind::insert, handle.push_timed(label, label),
                      label);
    }
    for (std::size_t i = 0; i < cfg.pairs; ++i, ++label) {
      recorder.record(0, event_kind::insert, handle.push_timed(label, label),
                      label);
      std::uint64_t key = 0, value = 0, ts = 0;
      // Uncontended and nonempty, the retry loop cannot fail — exactly
      // like the label process's removal loop.
      if (handle.try_pop_timed(key, value, ts)) {
        recorder.record(0, event_kind::remove, ts, key);
      } else {
        ++result.failed_pops;
      }
    }
  } else {
    // No step coupling exists under real concurrency; run the same
    // aggregate schedule split across threads (labels from a shared
    // ticket so the increasing-label invariant survives approximately)
    // and compare distributions.
    std::atomic<std::uint64_t> ticket{0};
    std::atomic<std::uint64_t> failed{0};
    {
      auto seeder = queue.get_handle(0);
      for (std::size_t i = 0; i < cfg.prefill; ++i) {
        const std::uint64_t label =
            ticket.fetch_add(1, std::memory_order_relaxed);
        recorder.record(0, event_kind::insert,
                        seeder.push_timed(label, label), label);
      }
    }
    auto worker = [&](std::size_t tid) {
      auto handle = queue.get_handle(tid);
      const std::size_t pairs =
          cfg.pairs / threads + (tid < cfg.pairs % threads ? 1 : 0);
      for (std::size_t i = 0; i < pairs; ++i) {
        const std::uint64_t label =
            ticket.fetch_add(1, std::memory_order_relaxed);
        recorder.record(tid, event_kind::insert,
                        handle.push_timed(label, label), label);
        std::uint64_t key = 0, value = 0, ts = 0;
        backoff bo;
        bool popped = false;
        // Inserts lead deletions, so a pop only looks empty under a
        // transient race; a short bounded retry settles it.
        for (unsigned attempt = 0; attempt < 1024 && !popped; ++attempt) {
          popped = handle.try_pop_timed(key, value, ts);
          if (!popped) bo.pause();
        }
        if (popped) {
          recorder.record(tid, event_kind::remove, ts, key);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    };
    run_workers(threads, worker);
    result.failed_pops = failed.load(std::memory_order_relaxed);
  }

  result.real_ranks = replay_rank_trace(recorder.logs(), domain);
  result.dist =
      compare_rank_distributions(result.real_ranks, result.sim_ranks);

  if (threads == 1) {
    result.exact_match =
        result.failed_pops == 0 &&
        result.real_ranks.size() == result.sim_ranks.size();
    if (result.exact_match) {
      for (std::size_t i = 0; i < result.real_ranks.size(); ++i) {
        if (result.real_ranks[i] != result.sim_ranks[i]) {
          result.exact_match = false;
          result.first_mismatch = i;
          break;
        }
      }
    } else {
      result.first_mismatch =
          std::min(result.real_ranks.size(), result.sim_ranks.size());
    }
  }
  return result;
}

}  // namespace sim
}  // namespace pcq
