// Fault-injection + graceful-degradation tests: service/fault.hpp's
// seeded plans through service/server.hpp's virtual-time runner, the
// only runner with a fault model. No cell starts a thread.
//
// The virtual-time runner is deterministic by construction, so the
// interesting protocols are pinned EXACTLY on hand-built traces: stall
// failover without double-counting (both races — the failover copy
// winning and the stalled original winning), crash abandonment with
// bounded retry delivering exactly the non-lost completions, and
// deadline-aware admission shedding. Seeded runs then check the hard
// conservation invariant (completed + shed + lost == dispatched) under
// EVERY policy combination × dispatcher, byte-stability for a fixed
// (config, seed), and that retry and failover are inert without
// faults; a seeded property sweep repeats those checks over random
// intensities and worker counts. The runner must reject plans and
// traces no run can honor.

#include "service/fault.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/multi_queue.hpp"
#include "service/dispatch.hpp"
#include "service/server.hpp"
#include "service/workload.hpp"
#include "test_macros.hpp"
#include "util/rng.hpp"

using namespace pcq::service;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Conservation + no-double-count + role invariants, shared by every
// faulty run below. Returns per-seq completion flags for extra asserts.
std::vector<bool> check_accounting(const service_result& result,
                                   const std::vector<request>& trace,
                                   const fault_plan& plan) {
  CHECK(result.dispatched == trace.size());
  CHECK(result.completed + result.shed + result.lost == result.dispatched);
  std::vector<bool> seen(trace.size(), false);
  std::uint64_t recorded = 0;
  std::uint64_t missed = 0;
  for (std::size_t w = 0; w < result.worker_logs.size(); ++w) {
    const worker_fault& f =
        w < plan.workers.size() ? plan.workers[w] : worker_fault{};
    for (const request_record& r : result.worker_logs[w]) {
      CHECK(r.seq < trace.size());
      CHECK(!seen[r.seq]);  // failover must never double-count
      seen[r.seq] = true;
      ++recorded;
      if (r.completion > trace[r.seq].deadline) ++missed;
      // A crashed worker records nothing started after its crash tick.
      if (f.kind == fault_kind::crash) CHECK(r.start < f.crash_time);
      // A stalled worker never completes strictly inside its window
      // (suspension pushes the completion to stall_end or later).
      if (f.kind == fault_kind::stall) {
        CHECK(!(r.completion > f.stall_start && r.completion < f.stall_end));
      }
    }
  }
  CHECK(recorded == result.completed);
  CHECK(missed == result.missed);
  return seen;
}

// Two runs agree on every counter and every double.
void check_identical(const service_result& a, const service_result& b) {
  CHECK(a.completion_order == b.completion_order);
  CHECK(a.completed == b.completed && a.shed == b.shed &&
        a.lost == b.lost && a.missed == b.missed &&
        a.retries == b.retries && a.failovers == b.failovers &&
        a.reclaimed == b.reclaimed);
  CHECK(a.seconds == b.seconds);
  CHECK(a.worker_logs.size() == b.worker_logs.size());
  for (std::size_t w = 0; w < a.worker_logs.size(); ++w) {
    CHECK(a.worker_logs[w].size() == b.worker_logs[w].size());
    for (std::size_t i = 0; i < a.worker_logs[w].size(); ++i) {
      const request_record& x = a.worker_logs[w][i];
      const request_record& y = b.worker_logs[w][i];
      CHECK(x.seq == y.seq && x.arrival == y.arrival && x.start == y.start &&
            x.completion == y.completion && x.service == y.service);
    }
  }
}

// One virtual run through a fresh dispatcher: kind 0 mq, 1 fcfs,
// 2 edf, 3 po2.
service_result run_kind(int kind, const std::vector<request>& trace,
                        std::size_t workers, const fault_plan& plan,
                        const degrade_config& degrade) {
  switch (kind) {
    case 0: {
      auto mq = make_mq_dispatcher(workers);
      return run_service_virtual(trace, mq, workers, plan, degrade);
    }
    case 1: {
      auto fcfs = make_fcfs_dispatcher(workers);
      return run_service_virtual(trace, fcfs, workers, plan, degrade);
    }
    case 2: {
      auto edf = make_edf_dispatcher(workers);
      return run_service_virtual(trace, edf, workers, plan, degrade);
    }
    default: {
      po2_dispatcher po2(workers, 1717);
      return run_service_virtual(trace, po2, workers, plan, degrade);
    }
  }
}

// The policy grid on 50 µs work: bit 0 arms admission control, bit 1
// two crash retries, bit 2 stall failover.
degrade_config policy(unsigned mask, double est_service) {
  degrade_config d;
  d.admission_control = (mask & 1u) != 0;
  d.est_service = d.admission_control ? est_service : 0.0;
  d.max_retries = (mask & 2u) != 0 ? 2 : 0;
  d.retry_backoff = 20 * 50e-6;
  d.failover_timeout = (mask & 4u) != 0 ? 10 * 50e-6 : kInf;
  return d;
}

}  // namespace

int main() {
  // ------------------------------------------------------------------
  // Stall failover, case A: the failover copy WINS. Worker 1 freezes at
  // t=1 holding seq1; the failover re-dispatch at stall_start+timeout=3
  // lets worker 0 serve the duplicate at t=4 and complete it at t=9,
  // while the frozen original would only finish at t=15. Exact
  // schedule, one completion, no loss.
  {
    const std::vector<request> trace = {
        {0.0, 4.0, 100.0, 0},
        {0.0, 5.0, 100.0, 1},
    };
    fault_plan plan;
    plan.workers.resize(2);
    plan.workers[1].kind = fault_kind::stall;
    plan.workers[1].stall_start = 1.0;
    plan.workers[1].stall_end = 11.0;
    degrade_config degrade;
    degrade.failover_timeout = 2.0;

    auto fcfs = make_fcfs_dispatcher(2);
    const service_result result =
        run_service_virtual(trace, fcfs, 2, plan, degrade);
    check_accounting(result, trace, plan);
    CHECK(result.completed == 2);
    CHECK(result.failovers == 1);
    CHECK(result.retries == 0 && result.lost == 0 && result.shed == 0);
    CHECK(result.completion_order.size() == 2);
    CHECK(result.completion_order[0] == 0);
    CHECK(result.completion_order[1] == 1);
    CHECK(result.worker_logs[0].size() == 2);
    CHECK(result.worker_logs[1].empty());  // frozen copy was dropped
    CHECK_NEAR(result.seconds, 9.0, 0.0);
  }

  // Case B: the stalled ORIGINAL wins. Worker 0 is pinned on a 20s job,
  // so nobody serves the failover duplicate before worker 1 resumes at
  // t=11 and finishes at t=15; the duplicate is then fetched from the
  // recovery queue and dropped against the settled table.
  {
    const std::vector<request> trace = {
        {0.0, 20.0, 100.0, 0},
        {0.0, 5.0, 100.0, 1},
    };
    fault_plan plan;
    plan.workers.resize(2);
    plan.workers[1].kind = fault_kind::stall;
    plan.workers[1].stall_start = 1.0;
    plan.workers[1].stall_end = 11.0;
    degrade_config degrade;
    degrade.failover_timeout = 2.0;

    auto fcfs = make_fcfs_dispatcher(2);
    const service_result result =
        run_service_virtual(trace, fcfs, 2, plan, degrade);
    check_accounting(result, trace, plan);
    CHECK(result.completed == 2);
    CHECK(result.failovers == 1);
    CHECK(result.completion_order[0] == 1);
    CHECK(result.completion_order[1] == 0);
    CHECK(result.worker_logs[0].size() == 1);
    CHECK(result.worker_logs[1].size() == 1);  // original kept its win
    // seq1: suspended 1..11 after 1s of work, 4s remain -> completes 15.
    CHECK_NEAR(result.worker_logs[1][0].completion, 15.0, 0.0);
    CHECK_NEAR(result.seconds, 20.0, 0.0);
  }

  // No failover when the watchdog timeout exceeds the stall window:
  // the run degrades to pure suspension (completion pushed out), with
  // zero duplicates — the interplay regression's control arm.
  {
    const std::vector<request> trace = {
        {0.0, 4.0, 100.0, 0},
        {0.0, 5.0, 100.0, 1},
    };
    fault_plan plan;
    plan.workers.resize(2);
    plan.workers[1].kind = fault_kind::stall;
    plan.workers[1].stall_start = 1.0;
    plan.workers[1].stall_end = 11.0;
    degrade_config degrade;
    degrade.failover_timeout = 30.0;  // > window: never fires

    auto fcfs = make_fcfs_dispatcher(2);
    const service_result result =
        run_service_virtual(trace, fcfs, 2, plan, degrade);
    check_accounting(result, trace, plan);
    CHECK(result.completed == 2);
    CHECK(result.failovers == 0);
    CHECK(result.worker_logs[1].size() == 1);
    CHECK_NEAR(result.seconds, 15.0, 0.0);
  }

  // ------------------------------------------------------------------
  // Crash + bounded retry: worker 1 dies at t=2 holding seq1. With one
  // retry allowed, the abandoned request is re-dispatched at
  // crash + backoff = 3 and the survivor completes it: zero lost. With
  // retries exhausted (max_retries = 0) the same request is LOST, and
  // the non-lost completions are exactly the rest of the trace.
  {
    const std::vector<request> trace = {
        {0.0, 1.0, 100.0, 0},
        {0.0, 5.0, 100.0, 1},
    };
    fault_plan plan;
    plan.workers.resize(2);
    plan.workers[1].kind = fault_kind::crash;
    plan.workers[1].crash_time = 2.0;

    degrade_config retrying;
    retrying.max_retries = 1;
    retrying.retry_backoff = 1.0;
    auto fcfs = make_fcfs_dispatcher(2);
    const service_result recovered =
        run_service_virtual(trace, fcfs, 2, plan, retrying);
    check_accounting(recovered, trace, plan);
    CHECK(recovered.completed == 2);
    CHECK(recovered.lost == 0);
    CHECK(recovered.retries == 1);
    CHECK(recovered.worker_logs[1].empty());
    // seq1 re-dispatched at 3, served by worker 0: completes at 8.
    CHECK_NEAR(recovered.worker_logs[0][1].start, 3.0, 0.0);
    CHECK_NEAR(recovered.seconds, 8.0, 0.0);

    degrade_config no_retry;  // defaults: max_retries = 0
    auto fcfs2 = make_fcfs_dispatcher(2);
    const service_result dropped =
        run_service_virtual(trace, fcfs2, 2, plan, no_retry);
    const std::vector<bool> seen = check_accounting(dropped, trace, plan);
    CHECK(dropped.completed == 1);
    CHECK(dropped.lost == 1);
    CHECK(dropped.retries == 0);
    CHECK(seen[0] && !seen[1]);  // exactly the non-lost request completed
    CHECK_NEAR(dropped.seconds, 2.0, 0.0);
  }

  // ------------------------------------------------------------------
  // Admission control sheds exactly the provably-late request: with one
  // worker pinned on a 10s job, seq1 (slack 2 beyond its own service)
  // is admitted at predicted completion == deadline, seq2 is shed at
  // predicted 4 > deadline 2.5. The admitted seq1 still misses — shed
  // and missed are different ledgers and both are counted.
  {
    const std::vector<request> trace = {
        {0.0, 10.0, 100.0, 0},
        {1.0, 1.0, 3.0, 1},
        {2.0, 1.0, 2.5, 2},
    };
    fault_plan plan;
    plan.workers.resize(1);
    degrade_config degrade;
    degrade.admission_control = true;
    degrade.est_service = 1.0;

    auto fcfs = make_fcfs_dispatcher(1);
    const service_result result =
        run_service_virtual(trace, fcfs, 1, plan, degrade);
    const std::vector<bool> seen = check_accounting(result, trace, plan);
    CHECK(result.completed == 2 && result.shed == 1 && result.lost == 0);
    CHECK(seen[0] && seen[1] && !seen[2]);
    CHECK(result.missed == 1);  // seq1 completes at 11 > deadline 3
    CHECK_NEAR(result.miss_frac(), 0.5, 1e-12);
    CHECK_NEAR(result.shed_frac(), 1.0 / 3.0, 1e-12);
    CHECK_NEAR(result.lost_frac(), 0.0, 0.0);
    CHECK_NEAR(result.seconds, 11.0, 0.0);
  }

  // ------------------------------------------------------------------
  // Retry and failover are inert without faults: arming both on an
  // all-ok plan reproduces the default (empty-plan, fail-hard) run
  // exactly — same schedule, same doubles.
  {
    workload_config cfg;
    cfg.num_requests = 400;
    cfg.service = service_dist::exponential_mean(50e-6);
    cfg.arrival_rate = arrival_rate_for_load(0.9, 3, cfg.service);
    cfg.seed = 7070;
    const std::vector<request> trace = make_open_loop_trace(cfg);
    fault_plan healthy;
    healthy.workers.resize(3);
    degrade_config armed;
    armed.max_retries = 3;
    armed.retry_backoff = 50e-6;
    armed.failover_timeout = 50e-6;

    auto base_mq = make_mq_dispatcher(3);
    const service_result base = run_service_virtual(trace, base_mq, 3);
    auto armed_mq = make_mq_dispatcher(3);
    const service_result inert =
        run_service_virtual(trace, armed_mq, 3, healthy, armed);
    check_identical(base, inert);
    CHECK(base.completed == trace.size());
    CHECK(inert.retries == 0 && inert.failovers == 0 && inert.reclaimed == 0);
  }

  // ------------------------------------------------------------------
  // Seeded faulty runs: byte-stability + conservation under every
  // policy combination × dispatcher on an intensity-5 plan (slow +
  // stall + crash + bursts all active).
  {
    workload_config cfg;
    cfg.num_requests = 600;
    cfg.service = service_dist::pareto_mean(2.2, 50e-6);
    cfg.arrival_rate = arrival_rate_for_load(0.85, 4, cfg.service);
    cfg.seed = 909;
    const std::vector<request> base_trace = make_open_loop_trace(cfg);
    const fault_config fc = fault_config::at_intensity(5, 0xFA11);
    const std::vector<request> trace =
        apply_bursts(base_trace, plan_bursts(fc, trace_span(base_trace)));
    CHECK(trace.size() == base_trace.size());
    for (std::size_t i = 1; i < trace.size(); ++i) {
      CHECK(trace[i].arrival >= trace[i - 1].arrival);  // still sorted
      CHECK(trace[i].seq == i);
    }
    const fault_plan plan = make_fault_plan(fc, 4, trace_span(trace));
    CHECK(plan.workers.size() == 4);
    CHECK(std::any_of(plan.workers.begin(), plan.workers.end(),
                      [](const worker_fault& w) {
                        return w.kind == fault_kind::crash;
                      }));

    // Byte-stability: two independent runs of the same (config, seed)
    // agree on every double.
    const degrade_config full = policy(7, trace_mean_service(trace));
    const service_result ra = run_kind(0, trace, 4, plan, full);
    check_identical(ra, run_kind(0, trace, 4, plan, full));
    check_accounting(ra, trace, plan);

    // Conservation under the full policy grid. Crash recovery with
    // retries may still lose work (exhaustion) — the invariant is the
    // accounting, not zero loss.
    for (unsigned mask = 0; mask < 8; ++mask) {
      const degrade_config d = policy(mask, trace_mean_service(trace));
      for (int kind = 0; kind < 4; ++kind) {
        check_accounting(run_kind(kind, trace, 4, plan, d), trace, plan);
      }
    }
  }

  // ------------------------------------------------------------------
  // Seeded property sweep: 50 seeds, each with a random intensity level
  // 1..5 and worker count 1..8, through every dispatcher under every
  // policy combination. Every run conserves, completes no seq twice,
  // starts nothing on a crashed worker at or after its tick
  // (check_accounting), and replays bit-for-bit.
  {
    pcq::xoshiro256ss pick(0x50524F50u);  // "PROP"
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      const unsigned level = 1 + static_cast<unsigned>(pick.bounded(5));
      const std::size_t workers = 1 + pick.bounded(8);
      workload_config cfg;
      cfg.num_requests = 120;
      cfg.service = service_dist::exponential_mean(50e-6);
      cfg.arrival_rate = arrival_rate_for_load(0.85, workers, cfg.service);
      cfg.seed = pcq::derive_seed(0x5EED, seed);
      const std::vector<request> base_trace = make_open_loop_trace(cfg);
      const fault_config fc = fault_config::at_intensity(level, seed);
      const std::vector<request> trace =
          apply_bursts(base_trace, plan_bursts(fc, trace_span(base_trace)));
      const fault_plan plan = make_fault_plan(fc, workers, trace_span(trace));
      for (unsigned mask = 0; mask < 8; ++mask) {
        const degrade_config d = policy(mask, trace_mean_service(trace));
        for (int kind = 0; kind < 4; ++kind) {
          const service_result a = run_kind(kind, trace, workers, plan, d);
          check_accounting(a, trace, plan);
          check_identical(a, run_kind(kind, trace, workers, plan, d));
        }
      }
    }
  }

  // ------------------------------------------------------------------
  // The virtual runner rejects plans and traces no run can honor,
  // before starting work (test_service covers the realtime runner's
  // trace checks).
  {
    const std::vector<request> trace = {{0.0, 1.0, 10.0, 0}};
    const auto rejected = [](const std::vector<request>& bad_trace,
                             const fault_plan& bad) {
      auto fcfs = make_fcfs_dispatcher(2);
      CHECK_THROWS(run_service_virtual(bad_trace, fcfs, 2, bad),
                   std::invalid_argument);
    };
    fault_plan too_many;  // three roles for two workers
    too_many.workers.resize(3);
    rejected(trace, too_many);

    fault_plan inverted;
    inverted.workers.resize(2);
    inverted.workers[1].kind = fault_kind::stall;
    inverted.workers[1].stall_start = 2.0;
    inverted.workers[1].stall_end = 1.0;
    rejected(trace, inverted);

    for (const double factor : {0.0, -2.0, kInf, std::nan("")}) {
      fault_plan bad_slow;
      bad_slow.workers.resize(1);
      bad_slow.workers[0].kind = fault_kind::slow;
      bad_slow.workers[0].slow_factor = factor;
      rejected(trace, bad_slow);
    }

    // Malformed traces: the runner indexes its tables by seq.
    rejected({{0.0, 1.0, 10.0, 1}}, {});  // seq out of range
    rejected({{0.0, 1.0, 10.0, 1}, {0.0, 1.0, 10.0, 0}}, {});  // swapped
    for (const double bad : {-1.0, kInf, std::nan("")}) {
      rejected({{bad, 1.0, 10.0, 0}}, {});  // arrival
      rejected({{0.0, bad, 10.0, 0}}, {});  // service
    }
    rejected({{0.5, 1.0, 10.0, 0}, {0.25, 1.0, 10.0, 1}}, {});  // unsorted

    fault_plan fewer;  // fewer roles than workers: the rest are ok
    fewer.workers.resize(1);
    auto fcfs = make_fcfs_dispatcher(2);
    CHECK(run_service_virtual(trace, fcfs, 2, fewer).completed == 1);
  }

  // ------------------------------------------------------------------
  // Dead-worker reclaim: po2's per-worker FIFOs strand a crashed
  // worker's queued backlog — only reclaim() can save it. 50 requests
  // land at t=0 and split across two FIFOs; worker 1 crashes mid-first-
  // service, so its queued share must be reclaimed into recovery and
  // served by worker 0. With max_retries = 0, EXACTLY the one in-flight
  // request is lost; everything queued behind it survives. A shared
  // queue (fcfs) under the same plan reclaims nothing and loses the
  // same single in-flight request.
  {
    std::vector<request> trace;
    for (std::uint64_t i = 0; i < 50; ++i) {
      trace.push_back({0.0, 1.0, 1000.0, i});
    }
    fault_plan plan;
    plan.workers.resize(2);
    plan.workers[1].kind = fault_kind::crash;
    plan.workers[1].crash_time = 0.5;
    const degrade_config no_retry;  // fail-hard: reclaim alone must save

    po2_dispatcher po2(2, 4242);
    const service_result rp =
        run_service_virtual(trace, po2, 2, plan, no_retry);
    check_accounting(rp, trace, plan);
    CHECK(rp.lost == 1);  // only the in-flight victim
    CHECK(rp.completed == 49);
    CHECK(rp.reclaimed >= 1);  // the stranded FIFO was drained
    CHECK(rp.worker_logs[1].empty());  // died during its first job

    auto fcfs = make_fcfs_dispatcher(2);
    const service_result rf =
        run_service_virtual(trace, fcfs, 2, plan, no_retry);
    check_accounting(rf, trace, plan);
    CHECK(rf.lost == 1 && rf.completed == 49);
    CHECK(rf.reclaimed == 0);  // shared queue: nothing to strand
  }

  // ------------------------------------------------------------------
  // Plan construction invariants: deterministic for a fixed seed, at
  // least one non-crashed worker, burst windows ordered and disjoint.
  {
    const fault_config fc = fault_config::at_intensity(4, 42);
    const fault_plan p1 = make_fault_plan(fc, 2, 1.0);
    const fault_plan p2 = make_fault_plan(fc, 2, 1.0);
    for (std::size_t w = 0; w < 2; ++w) {
      CHECK(p1.workers[w].kind == p2.workers[w].kind);
    }
    std::size_t crashes = 0;
    for (const worker_fault& f : p1.workers) {
      if (f.kind == fault_kind::crash) ++crashes;
    }
    CHECK(crashes >= 1 && crashes < 2);  // capped at workers - 1
    const std::vector<burst_window> bursts = plan_bursts(fc, 1.0);
    for (std::size_t i = 1; i < bursts.size(); ++i) {
      CHECK(bursts[i].start >= bursts[i - 1].end);
    }
    // Level 1 is the healthy anchor: no roles, no bursts.
    const fault_plan calm =
        make_fault_plan(fault_config::at_intensity(1, 42), 4, 1.0);
    for (const worker_fault& f : calm.workers) {
      CHECK(f.kind == fault_kind::ok);
    }
    CHECK(calm.bursts.empty());
  }

  std::printf("test_fault OK\n");
  return 0;
}
