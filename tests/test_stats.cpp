#include "util/stats.hpp"

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "benchlib/bench_env.hpp"
#include "test_macros.hpp"
#include "util/rng.hpp"

int main() {
  // running_stats against direct computation.
  {
    pcq::xoshiro256ss rng(7);
    std::vector<double> xs;
    pcq::running_stats stats;
    for (int i = 0; i < 10000; ++i) {
      const double x = rng.next_double() * 100.0 - 50.0;
      xs.push_back(x);
      stats.push(x);
    }
    double sum = 0.0, mn = xs[0], mx = xs[0];
    for (const double x : xs) {
      sum += x;
      mn = std::min(mn, x);
      mx = std::max(mx, x);
    }
    const double mean = sum / static_cast<double>(xs.size());
    double ss = 0.0;
    for (const double x : xs) ss += (x - mean) * (x - mean);
    const double var = ss / static_cast<double>(xs.size() - 1);

    CHECK(stats.count() == xs.size());
    CHECK_NEAR(stats.mean(), mean, 1e-9);
    CHECK_NEAR(stats.min(), mn, 0.0);
    CHECK_NEAR(stats.max(), mx, 0.0);
    CHECK_NEAR(stats.variance(), var, 1e-6);
  }

  // Empty accumulator is well-defined.
  {
    pcq::running_stats stats;
    CHECK(stats.count() == 0);
    CHECK(stats.mean() == 0.0);
    CHECK(stats.max() == 0.0);
  }

  // merge == pushing everything into one accumulator.
  {
    pcq::xoshiro256ss rng(8);
    pcq::running_stats a, b, whole;
    for (int i = 0; i < 5000; ++i) {
      const double x = rng.next_double();
      (i % 2 ? a : b).push(x);
      whole.push(x);
    }
    a.merge(b);
    CHECK(a.count() == whole.count());
    CHECK_NEAR(a.mean(), whole.mean(), 1e-12);
    CHECK_NEAR(a.variance(), whole.variance(), 1e-9);
    CHECK_NEAR(a.max(), whole.max(), 0.0);
  }

  // percentile on a known vector.
  {
    const std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
    CHECK_NEAR(pcq::percentile(v, 0.0), 1.0, 0.0);
    CHECK_NEAR(pcq::percentile(v, 1.0), 5.0, 0.0);
    CHECK_NEAR(pcq::percentile(v, 0.5), 3.0, 0.0);
    CHECK_NEAR(pcq::percentile(v, 0.25), 2.0, 1e-12);
    CHECK_NEAR(pcq::percentile(v, 0.625), 3.5, 1e-12);
    CHECK_NEAR(pcq::percentile({}, 0.5), 0.0, 0.0);
    CHECK_NEAR(pcq::percentile({7.0}, 0.3), 7.0, 0.0);
  }

  // latency_summary: merging shards is EXACT — every quantile of the
  // merged summary equals percentile() of the concatenated samples as
  // the identical double (sorted merge, one shared interpolation rule).
  {
    pcq::xoshiro256ss rng(9);
    std::vector<pcq::latency_summary> shards(4);
    std::vector<double> all;
    for (int i = 0; i < 4097; ++i) {
      const double x = rng.next_double() * 10.0;
      // Shard 0 stays EMPTY; shard 1 gets exactly ONE sample — the edge
      // cases a per-worker log layout actually produces (idle workers).
      shards[i == 0 ? 1 : 2 + (i & 1)].add(x);
      all.push_back(x);
    }
    pcq::latency_summary merged;
    for (const auto& shard : shards) merged.merge(shard);
    CHECK(merged.count() == all.size());
    for (const double p : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
      CHECK(merged.quantile(p) == pcq::percentile(all, p));
    }
    pcq::latency_summary whole;
    for (const double x : all) whole.add(x);
    CHECK(merged.sorted_samples() == whole.sorted_samples());
    CHECK(merged.mean() == whole.mean());
    CHECK(merged.min() == whole.min());
    CHECK(merged.max() == whole.max());

    // Merge order does not matter: reversed shard order reports the
    // identical doubles (mean accumulates over the sorted array).
    pcq::latency_summary reversed;
    for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
      reversed.merge(*it);
    }
    CHECK(reversed.mean() == merged.mean());
    CHECK(reversed.p999() == merged.p999());
  }

  // latency_summary edge cases: empty summary is well-defined; a single
  // sample answers every quantile; merging with an empty summary in
  // either direction is the identity.
  {
    pcq::latency_summary empty;
    CHECK(empty.count() == 0);
    CHECK(empty.quantile(0.5) == 0.0);
    CHECK(empty.min() == 0.0 && empty.max() == 0.0 && empty.mean() == 0.0);

    pcq::latency_summary one;
    one.add(7.5);
    for (const double p : {0.0, 0.3, 0.5, 0.999, 1.0}) {
      CHECK(one.quantile(p) == 7.5);
    }

    pcq::latency_summary into_empty;
    into_empty.merge(one);
    CHECK(into_empty.count() == 1 && into_empty.p50() == 7.5);
    one.merge(empty);
    CHECK(one.count() == 1 && one.p50() == 7.5);
  }

  // measure_cell, the benches' one timing protocol: a warm-up round,
  // then trials() timed rounds, each calling run(s, trial) for s = 0 ..
  // S - 1 in order; each series gets the median of its timed values.
  {
    using pcq::bench::trials;
    constexpr std::size_t kSeries = 3;
    const unsigned timed = trials();
    std::vector<std::pair<std::size_t, unsigned>> calls;
    const std::vector<double> medians = pcq::bench::measure_cell(
        kSeries, [&](std::size_t s, unsigned trial) {
          calls.emplace_back(s, trial);
          // The warm-up round's values are huge: any of them in a median
          // would move it. A timed trial's value is skewed, so the median
          // differs from the mean and from the last trial.
          if (calls.size() <= kSeries) return 1e12;
          return 100.0 * static_cast<double>(s) +
                 static_cast<double>(trial) * static_cast<double>(trial);
        });
    CHECK(calls.size() == kSeries * (timed + 1));
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const std::size_t round = i / kSeries;
      CHECK(calls[i].first == i % kSeries);
      // The warm-up round passes trial 0; timed round r passes r - 1.
      CHECK(calls[i].second == (round == 0 ? 0u : round - 1));
    }
    CHECK(medians.size() == kSeries);
    std::vector<double> squares;
    for (unsigned t = 0; t < timed; ++t) squares.push_back(t * t);
    for (std::size_t s = 0; s < kSeries; ++s) {
      CHECK(medians[s] ==
            100.0 * static_cast<double>(s) + pcq::percentile(squares, 0.5));
    }
    if (timed == 5) CHECK(medians[2] == 204.0);  // smoke scale: 0,1,4,9,16
  }

  // thread_sweep: the powers of two up to the cap.
  {
    using pcq::bench::thread_sweep;
    using counts = std::vector<std::size_t>;
    CHECK(thread_sweep(1) == counts({1}));
    CHECK(thread_sweep(2) == counts({1, 2}));
    CHECK(thread_sweep(3) == counts({1, 2}));
    CHECK(thread_sweep(8) == counts({1, 2, 4, 8}));
  }

  std::printf("test_stats OK\n");
  return 0;
}
