// Deterministic service-layer tests: fixed traces through the four
// dispatchers in virtual time assert EXACT completion orders and EXACT
// latency summaries — EDF through a strict queue is the
// earliest-deadline schedule, FCFS is arrival order, a MultiQueue with
// d = #queues and beta = 1 degenerates to strict and must match EDF
// trace-for-trace, and any pq-handle queue slots into pq_dispatcher
// (checked with the lock-free Lindén–Jonsson skiplist). FCFS's mean
// wait is checked against Erlang C (M/M/8), an oracle from outside the
// code. A final real-threads section covers the TSan-exercised
// dispatch/fetch path on all four dispatchers, the realtime runner's
// trace checks, and its stall watchdog.

#include "service/server.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/baselines/lj_skiplist_pq.hpp"
#include "core/multi_queue.hpp"
#include "service/dispatch.hpp"
#include "service/workload.hpp"
#include "test_macros.hpp"

using namespace pcq::service;

namespace {

// All records across worker shards, indexed by seq. Checks conservation:
// every trace request completed exactly once.
std::vector<request_record> records_by_seq(const service_result& result,
                                           std::size_t expected) {
  CHECK(result.completed == expected);
  std::vector<request_record> by_seq(expected);
  std::vector<bool> seen(expected, false);
  for (const auto& shard : result.worker_logs) {
    for (const request_record& r : shard) {
      CHECK(r.seq < expected);
      CHECK(!seen[r.seq]);
      seen[r.seq] = true;
      by_seq[r.seq] = r;
    }
  }
  for (std::size_t i = 0; i < expected; ++i) CHECK(seen[i]);
  return by_seq;
}

// The fixed 4-request trace whose optimal schedules are computed by hand:
// one long job arrives first, three short jobs queue behind it with
// deadlines that invert their arrival order.
std::vector<request> hand_trace() {
  return {
      {0.0, 10.0, 100.0, 0},
      {1.0, 1.0, 50.0, 1},
      {2.0, 1.0, 20.0, 2},
      {3.0, 1.0, 90.0, 3},
  };
}

const std::uint64_t kHandEdfOrder[4] = {0, 2, 1, 3};
const std::uint64_t kHandFcfsOrder[4] = {0, 1, 2, 3};

// Mean queueing wait of M/M/k (Erlang C) at per-server load rho:
// P(wait) · E[S] / (k · (1 − rho)).
double erlang_c_wait(std::size_t k, double rho, double mean_service) {
  const double a = rho * static_cast<double>(k);  // offered load, Erlangs
  double term = 1.0;  // a^n / n!
  double below_k = 0.0;
  for (std::size_t n = 0; n < k; ++n) {
    below_k += term;
    term *= a / static_cast<double>(n + 1);
  }
  const double queued = term / (1.0 - rho);
  const double p_wait = queued / (below_k + queued);
  return p_wait * mean_service / (static_cast<double>(k) * (1.0 - rho));
}

}  // namespace

int main() {
  // EDF on the hand trace, 1 worker: after the long job, the strict
  // deadline queue serves 2 (dl 20), then 1 (dl 50), then 3 (dl 90).
  // Every wait, sojourn, and summary statistic is hand-computed.
  {
    const std::vector<request> trace = hand_trace();
    auto edf = make_edf_dispatcher(1);
    const service_result result = run_service_virtual(trace, edf, 1);
    for (int i = 0; i < 4; ++i) {
      CHECK(result.completion_order[i] == kHandEdfOrder[i]);
    }
    const std::vector<request_record> recs = records_by_seq(result, 4);
    const double waits[4] = {0.0, 10.0, 8.0, 9.0};
    const double sojourns[4] = {10.0, 11.0, 9.0, 10.0};
    for (int i = 0; i < 4; ++i) {
      CHECK_NEAR(recs[i].start - recs[i].arrival, waits[i], 0.0);
      CHECK_NEAR(recs[i].completion - recs[i].arrival, sojourns[i], 0.0);
    }
    CHECK_NEAR(result.seconds, 13.0, 0.0);

    const latency_report report = summarize(result);
    CHECK(report.sojourn.count() == 4);
    // sojourns sorted: [9, 10, 10, 11]
    CHECK_NEAR(report.sojourn.min(), 9.0, 0.0);
    CHECK_NEAR(report.sojourn.max(), 11.0, 0.0);
    CHECK_NEAR(report.sojourn.p50(), 10.0, 0.0);
    CHECK_NEAR(report.sojourn.mean(), 10.0, 0.0);
    CHECK_NEAR(report.sojourn.quantile(0.25), 9.75, 1e-12);
    CHECK_NEAR(report.sojourn.p95(), 10.85, 1e-12);
    // waits sorted: [0, 8, 9, 10] — total wait 27, same as FCFS below
    // (one work-conserving server ⇒ identical total delay).
    CHECK_NEAR(report.wait.mean(), 6.75, 1e-12);
    CHECK_NEAR(report.wait.p50(), 8.5, 1e-12);
  }

  // FCFS on the same trace: strict arrival order, uniform sojourns.
  {
    const std::vector<request> trace = hand_trace();
    auto fcfs = make_fcfs_dispatcher(1);
    const service_result result = run_service_virtual(trace, fcfs, 1);
    for (int i = 0; i < 4; ++i) {
      CHECK(result.completion_order[i] == kHandFcfsOrder[i]);
    }
    const std::vector<request_record> recs = records_by_seq(result, 4);
    const double waits[4] = {0.0, 9.0, 9.0, 9.0};
    for (int i = 0; i < 4; ++i) {
      CHECK_NEAR(recs[i].start - recs[i].arrival, waits[i], 0.0);
      CHECK_NEAR(recs[i].completion - recs[i].arrival, 10.0, 0.0);
    }
    const latency_report report = summarize(result);
    CHECK_NEAR(report.sojourn.p50(), 10.0, 0.0);
    CHECK_NEAR(report.sojourn.p999(), 10.0, 0.0);
    CHECK_NEAR(report.wait.mean(), 6.75, 1e-12);
  }

  // po2 over zero workers has no queue for a dispatch to join: the
  // constructor rejects it rather than let dispatch() index past the array.
  CHECK_THROWS(po2_dispatcher(0, 1234), std::invalid_argument);

  // po2 with one worker IS FCFS: every dispatch joins the only queue.
  {
    const std::vector<request> trace = hand_trace();
    po2_dispatcher po2(1, 1234);
    const service_result result = run_service_virtual(trace, po2, 1);
    for (int i = 0; i < 4; ++i) {
      CHECK(result.completion_order[i] == kHandFcfsOrder[i]);
    }
    records_by_seq(result, 4);
  }

  // A seeded 500-request trace at rho ~ 0.9 on 3 workers — the load
  // regime where schedules actually diverge.
  workload_config cfg;
  cfg.num_requests = 500;
  cfg.service = service_dist::exponential_mean(50e-6);
  cfg.arrival_rate = arrival_rate_for_load(0.9, 3, cfg.service);
  cfg.seed = 2024;
  const std::vector<request> trace = make_open_loop_trace(cfg);
  const std::size_t workers = 3;

  // The MQ == EDF degeneracy needs distinct deadline keys (ties could
  // resolve differently between a binary heap and a skiplist / the MQ).
  {
    std::set<std::uint64_t> keys;
    for (const request& r : trace) keys.insert(to_ticks(r.deadline));
    CHECK(keys.size() == trace.size());
  }

  // EDF through the strict coarse queue: the reference schedule.
  auto edf = make_edf_dispatcher(workers);
  const service_result edf_result = run_service_virtual(trace, edf, workers);
  records_by_seq(edf_result, trace.size());
  const latency_report edf_report = summarize(edf_result);

  // MultiQueue degenerated to strict: beta = 1 and d >= #queues means
  // every pop scans all queues — exact deleteMin. Its schedule must
  // match EDF element-for-element, and the latency summaries must be
  // the identical doubles.
  {
    pcq::mq_config mq_cfg;
    mq_cfg.beta = 1.0;
    mq_cfg.choices = 2 * (workers + 1) * mq_cfg.queue_factor;  // > #queues
    auto mq = make_mq_dispatcher(workers, mq_cfg);
    const service_result mq_result = run_service_virtual(trace, mq, workers);
    CHECK(mq_result.completion_order.size() ==
          edf_result.completion_order.size());
    for (std::size_t i = 0; i < edf_result.completion_order.size(); ++i) {
      CHECK(mq_result.completion_order[i] == edf_result.completion_order[i]);
    }
    const latency_report mq_report = summarize(mq_result);
    CHECK(mq_report.sojourn.sorted_samples() ==
          edf_report.sojourn.sorted_samples());
    CHECK(mq_report.wait.sorted_samples() ==
          edf_report.wait.sorted_samples());
    CHECK(mq_report.sojourn.p999() == edf_report.sojourn.p999());
  }

  // Any pq-handle queue slots in: the lock-free skiplist PQ on deadline
  // keys is also exact deleteMin, so it reproduces the EDF schedule.
  {
    using lj = pcq::lj_skiplist_pq<std::uint64_t, std::uint64_t>;
    pq_dispatcher<lj> lj_edf(std::unique_ptr<lj>(new lj()), workers,
                             priority_policy::deadline);
    const service_result lj_result =
        run_service_virtual(trace, lj_edf, workers);
    for (std::size_t i = 0; i < edf_result.completion_order.size(); ++i) {
      CHECK(lj_result.completion_order[i] == edf_result.completion_order[i]);
    }
  }

  // FCFS with several workers: completions interleave, but service must
  // START in arrival order (pops leave the strict seq-keyed queue in
  // order, and the simulator's fetch instants are nondecreasing).
  {
    auto fcfs = make_fcfs_dispatcher(workers);
    const service_result result = run_service_virtual(trace, fcfs, workers);
    const std::vector<request_record> recs =
        records_by_seq(result, trace.size());
    for (std::size_t i = 1; i < recs.size(); ++i) {
      CHECK(recs[i].start >= recs[i - 1].start);
    }
  }

  // po2 is randomized but SEEDED: the same seed replays the identical
  // schedule; requests are conserved either way.
  {
    po2_dispatcher a(workers, 555);
    po2_dispatcher b(workers, 555);
    const service_result ra = run_service_virtual(trace, a, workers);
    const service_result rb = run_service_virtual(trace, b, workers);
    records_by_seq(ra, trace.size());
    CHECK(ra.completion_order == rb.completion_order);
    CHECK(summarize(ra).sojourn.sorted_samples() ==
          summarize(rb).sojourn.sorted_samples());
  }

  // Outside oracle for the virtual-time runner: FCFS on Poisson arrivals
  // and exponential service over 8 workers is M/M/8, whose mean wait is
  // Erlang C. One 100k-request trace per load; the ratio measured /
  // Erlang C over 16 seeds (derive_seed(0x45726c61, 0..15)) spread
  // [0.94, 1.14] at rho 0.5 (sd 0.059), [0.91, 1.13] at 0.8 (sd 0.058),
  // [0.88, 1.22] at 0.9 (sd 0.082) and [0.78, 1.25] at 0.95 (sd 0.112);
  // each tolerance is about 3 sd. Seed 0, the one used here, reads 1.06,
  // 1.04, 1.00 and 0.93. The runner is deterministic, so the cell cannot
  // flake; it fails on a wrong worker count, clock or wait accounting,
  // which move the ratio by far more (simulating one worker too many
  // reads 0.19 to 0.36).
  {
    const std::size_t k = 8;
    const double loads[4] = {0.5, 0.8, 0.9, 0.95};
    const double tolerance[4] = {0.20, 0.20, 0.25, 0.35};
    for (std::size_t i = 0; i < 4; ++i) {
      workload_config mm;
      mm.num_requests = 100000;
      mm.service = service_dist::exponential_mean(50e-6);
      mm.arrival_rate = arrival_rate_for_load(loads[i], k, mm.service);
      mm.seed = pcq::derive_seed(0x45726c61u, 0);
      const std::vector<request> mm_trace = make_open_loop_trace(mm);
      auto fcfs = make_fcfs_dispatcher(k);
      const service_result result = run_service_virtual(mm_trace, fcfs, k);
      CHECK(result.completed == mm_trace.size());
      const double ratio = summarize(result).wait.mean() /
                           erlang_c_wait(k, loads[i], 50e-6);
      CHECK_NEAR(ratio, 1.0, tolerance[i]);
    }
  }

  // Real threads (the TSan target): one arrival thread races worker
  // fetches through the MultiQueue, the two coarse shared queues (fcfs,
  // edf) and the po2 FIFOs. Wall-clock noise means no exact schedule —
  // assert the invariants that hold under any interleaving: no stall,
  // every seq logged exactly once (completed == dispatched), wait >= 0,
  // sojourn >= service, and no fault ledger moves (the realtime runner
  // has no fault model).
  {
    workload_config rt_cfg;
    rt_cfg.num_requests = 200;
    rt_cfg.service = service_dist::exponential_mean(20e-6);
    rt_cfg.arrival_rate = arrival_rate_for_load(0.6, 2, rt_cfg.service);
    rt_cfg.seed = 31337;
    const std::vector<request> rt_trace = make_open_loop_trace(rt_cfg);

    auto mq = make_mq_dispatcher(2);
    const service_result mq_rt = run_service_realtime(rt_trace, mq, 2);
    auto fcfs = make_fcfs_dispatcher(2);
    const service_result fcfs_rt = run_service_realtime(rt_trace, fcfs, 2);
    auto edf = make_edf_dispatcher(2);
    const service_result edf_rt = run_service_realtime(rt_trace, edf, 2);
    po2_dispatcher po2(2, 777);
    const service_result po2_rt = run_service_realtime(rt_trace, po2, 2);
    for (const service_result* result :
         {&mq_rt, &fcfs_rt, &edf_rt, &po2_rt}) {
      CHECK(!result->stalled);
      const std::vector<request_record> recs =
          records_by_seq(*result, rt_trace.size());
      CHECK(result->completed == result->dispatched);
      std::uint64_t missed = 0;
      for (const request_record& r : recs) {
        CHECK(r.start >= r.arrival);
        CHECK(r.completion - r.start >= r.service);
        if (r.completion > rt_trace[r.seq].deadline) ++missed;
      }
      CHECK(missed == result->missed);
      CHECK(summarize(*result).sojourn.count() == rt_trace.size());
      CHECK(result->shed == 0 && result->lost == 0);
      CHECK(result->retries == 0 && result->failovers == 0 &&
            result->reclaimed == 0);
    }
  }

  // The realtime runner rejects a malformed trace before it starts a
  // thread: it looks requests up by seq, an infinite demand would spin
  // a worker forever, and the arrival thread paces arrivals in order.
  // The dispatcher records any call, so a throw after the threads
  // started would show.
  {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    struct probe_dispatcher {
      std::atomic<bool> touched{false};
      void dispatch(const request&) { touched = true; }
      bool fetch(std::size_t, std::uint64_t&) {
        touched = true;
        return false;
      }
      void seal() { touched = true; }
    };
    const auto rejected = [](const std::vector<request>& bad_trace) {
      probe_dispatcher probe;
      CHECK_THROWS(run_service_realtime(bad_trace, probe, 2),
                   std::invalid_argument);
      CHECK(!probe.touched);
    };
    rejected({{0.0, 1.0, 10.0, 1}});                        // seq out of range
    rejected({{0.0, 1.0, 10.0, 1}, {0.0, 1.0, 10.0, 0}});  // swapped seqs
    for (const double bad : {-1.0, kInf, std::nan("")}) {
      rejected({{bad, 1.0, 10.0, 0}});  // arrival
      rejected({{0.0, bad, 10.0, 0}});  // service
    }
    rejected({{0.5, 1.0, 10.0, 0}, {0.25, 1.0, 10.0, 1}});  // decreasing
  }

  // Stall-watchdog regression: a NONCONFORMING dispatcher that silently
  // loses requests must make the realtime runner return short in
  // bounded time with `stalled` set — previously the workers spun on
  // `completed < total` forever and a buggy dispatcher hung CI instead
  // of failing it.
  {
    // Drops every third dispatch on the floor; otherwise a plain
    // locked FIFO honoring the dispatcher threading contract. It has
    // only dispatch, fetch and seal: the realtime runner calls nothing
    // else.
    class lossy_dispatcher {
     public:
      void dispatch(const request& r) {
        if (++dispatched_ % 3 == 0) return;  // lost
        lock_.lock();
        fifo_.push_back(r.seq);
        lock_.unlock();
      }
      bool fetch(std::size_t /*worker*/, std::uint64_t& seq) {
        lock_.lock();
        const bool ok = !fifo_.empty();
        if (ok) {
          seq = fifo_.front();
          fifo_.pop_front();
        }
        lock_.unlock();
        return ok;
      }
      void seal() {}

     private:
      std::uint64_t dispatched_ = 0;
      pcq::spinlock lock_;
      std::deque<std::uint64_t> fifo_;
    };

    workload_config cfg;
    cfg.num_requests = 60;
    cfg.service = service_dist::exponential_mean(10e-6);
    cfg.arrival_rate = arrival_rate_for_load(0.5, 2, cfg.service);
    cfg.seed = 4242;
    const std::vector<request> lossy_trace = make_open_loop_trace(cfg);

    lossy_dispatcher lossy;
    pcq::wall_timer watch;
    const service_result result =
        run_service_realtime(lossy_trace, lossy, 2,
                             /*stall_timeout_seconds=*/0.2);
    CHECK(watch.elapsed_seconds() < 5.0);  // bounded, not a hang
    CHECK(result.stalled);
    // Every dispatched request still completed; only the lost ones are
    // missing, so callers asserting on the count fail deterministically.
    CHECK(result.completed == lossy_trace.size() - lossy_trace.size() / 3);
    CHECK(result.completed < lossy_trace.size());
  }

  // The watchdog must NOT fire on a conforming dispatcher even when the
  // timeout is of the same order as the trace's dispatch gaps.
  {
    workload_config cfg;
    cfg.num_requests = 100;
    cfg.service = service_dist::exponential_mean(10e-6);
    cfg.arrival_rate = arrival_rate_for_load(0.4, 2, cfg.service);
    cfg.seed = 4243;
    const std::vector<request> ok_trace = make_open_loop_trace(cfg);
    auto mq = make_mq_dispatcher(2);
    const service_result result =
        run_service_realtime(ok_trace, mq, 2, /*stall_timeout_seconds=*/0.5);
    CHECK(!result.stalled);
    CHECK(result.completed == ok_trace.size());
  }

  std::printf("test_service OK\n");
  return 0;
}
