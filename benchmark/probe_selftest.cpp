// Self-check of the probe adapters: each wrapped queue models the pq
// concept and conserves elements, the probe counts every call it forwards,
// and a probed dispatcher makes exactly the decisions of the bare one.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/baselines/coarse_pq.hpp"
#include "core/multi_queue.hpp"
#include "probe.hpp"
#include "service/dispatch.hpp"
#include "service/server.hpp"

namespace {

using u64 = std::uint64_t;
using mq = pcq::multi_queue<u64, u64>;
using coarse = pcq::coarse_pq<u64, u64>;

PCQ_ASSERT_PQ_CONCEPT(pcqbench::probe_queue<mq>);
PCQ_ASSERT_PQ_CONCEPT(pcqbench::probe_queue<coarse>);

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

/// Four threads push disjoint values (scalar and batched), then pop
/// everything back through the probe; the popped multiset must equal the
/// pushed one and the probe must have seen every call.
template <typename Queue>
void check_conservation(Queue& queue, const char* name) {
  constexpr std::size_t kThreads = 4, kPerThread = 5000;
  pcqbench::probe rec(kThreads);
  pcqbench::probe_queue<Queue> view(queue, rec);
  std::vector<std::vector<u64>> popped(kThreads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      auto h = view.get_handle(t);
      std::vector<typename Queue::entry> batch;
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const u64 v = t * kPerThread + i;
        if (i % 2 == 0) {
          h.push(v * 7 % 1000, v);
        } else {
          batch.emplace_back(v * 7 % 1000, v);
        }
      }
      h.push_batch(batch.data(), batch.size());
      u64 k = 0, v = 0;
      for (std::size_t i = 0; i < kPerThread / 2; ++i) {
        if (h.try_pop(k, v)) popped[t].push_back(v);
      }
      typename Queue::entry out[16];
      while (std::size_t got = h.try_pop_batch(out, 16)) {
        for (std::size_t i = 0; i < got; ++i) popped[t].push_back(out[i].second);
      }
    });
  }
  for (auto& th : pool) th.join();
  {
    auto h = view.get_handle(0);
    u64 k = 0, v = 0;
    while (h.try_pop(k, v)) popped[0].push_back(v);
  }
  std::vector<u64> all;
  for (const auto& p : popped) all.insert(all.end(), p.begin(), p.end());
  std::sort(all.begin(), all.end());
  bool exact = all.size() == kThreads * kPerThread;
  for (std::size_t i = 0; exact && i < all.size(); ++i) exact = all[i] == i;
  std::fprintf(stderr, "%s: popped %zu of %zu\n", name, all.size(), kThreads * kPerThread);
  check(exact, "probe_queue conserves elements");
  check(view.size() == 0, "probe_queue::size forwards to the queue");

  u64 pushes = 0, pops = 0, calls = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pushes += rec.slot(t).push.count();
    pops += rec.slot(t).pop.count() + rec.slot(t).pop_empty.count();
    calls += rec.slot(t).calls;
  }
  check(pushes == kThreads * (kPerThread / 2 + 1), "every push call recorded");
  check(calls == pushes + pops, "calls counter covers every call");
}

void check_dispatcher() {
  using namespace pcq::service;
  workload_config cfg;
  cfg.num_requests = 3000;
  cfg.service = service_dist::exponential_mean(1.0);
  cfg.arrival_rate = arrival_rate_for_load(0.8, 4, cfg.service);
  const std::vector<request> trace = make_open_loop_trace(cfg);

  auto bare = make_mq_dispatcher(4);
  const service_result expected = run_service_virtual(trace, bare, 4);

  pcqbench::probe rec(5);
  auto inner = make_mq_dispatcher(4);
  pcqbench::probe_dispatcher<decltype(inner)> probed(inner, rec, 4, trace.size(),
                                                     pcqbench::now_ns());
  const service_result got = run_service_virtual(trace, probed, 4);
  check(got.completed == trace.size(), "probed dispatcher completes every request");
  check(got.completion_order == expected.completion_order,
        "probed dispatcher makes the bare dispatcher's decisions");
  u64 fetched = 0;
  for (std::size_t w = 0; w < 4; ++w) fetched += rec.slot(w).fetch.count();
  check(rec.slot(4).dispatch.count() == trace.size(), "every dispatch recorded");
  check(fetched == trace.size(), "every successful fetch recorded");
}

}  // namespace

int main() {
  {
    mq queue(pcq::mq_config{}, 4);
    check_conservation(queue, "multi_queue");
  }
  {
    coarse queue;
    check_conservation(queue, "coarse_pq");
  }
  check_dispatcher();
  std::fprintf(stderr, "%s\n", failures == 0 ? "probe self-check passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}
