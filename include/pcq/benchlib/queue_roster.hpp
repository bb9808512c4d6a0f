// The competitor set of the throughput, SSSP and executor benches and
// of the executor and graph tests, named once: the paper's MultiQueue at
// three betas, its four comparison queues, and the steal-deque pool.
//
//   mq_b1.0, mq_b0.75, mq_b0.5   default MultiQueue (2 x threads slots,
//                                d = 2) at that beta
//   klsm256                      k-LSM with relaxation k = 256
//   spraylist                    SprayList sized for the thread count
//   lj_skiplist                  Lindén–Jonsson skiplist
//   coarse                       one lock over one d-ary heap
//   steal                        Chase–Lev steal-deque pool: no
//                                priority order, no timed API

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/baselines/coarse_pq.hpp"
#include "core/baselines/klsm_pq.hpp"
#include "core/baselines/lj_skiplist_pq.hpp"
#include "core/baselines/spray_pq.hpp"
#include "core/multi_queue.hpp"
#include "exec/steal_deque.hpp"

namespace pcq {
namespace bench {

/// Calls f on a fresh queue of the named configuration, sized for
/// `threads`, and returns what f returns. Throws std::invalid_argument
/// on a name outside the roster.
template <typename F>
auto with_queue(const std::string& name, std::size_t threads, F&& f) {
  using key = std::uint64_t;
  if (name == "mq_b1.0" || name == "mq_b0.75" || name == "mq_b0.5") {
    mq_config cfg;
    cfg.beta = name == "mq_b1.0" ? 1.0 : name == "mq_b0.75" ? 0.75 : 0.5;
    return f(*std::make_unique<multi_queue<key, key>>(cfg, threads));
  }
  if (name == "klsm256") {
    return f(*std::make_unique<klsm_pq<key, key>>(256));
  }
  if (name == "spraylist") {
    return f(*std::make_unique<spray_pq<key, key>>(threads));
  }
  if (name == "lj_skiplist") {
    return f(*std::make_unique<lj_skiplist_pq<key, key>>());
  }
  if (name == "coarse") {
    return f(*std::make_unique<coarse_pq<key, key>>());
  }
  if (name == "steal") {
    return f(*std::make_unique<exec::steal_deque_pool<key, key>>(threads));
  }
  throw std::invalid_argument("no queue named " + name);
}

}  // namespace bench
}  // namespace pcq
