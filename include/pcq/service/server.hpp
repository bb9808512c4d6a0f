// The worker-pool server: runs an open-loop trace through a dispatcher
// and records per-request wait / service / sojourn times.
//
// One runner per clock, both over the dispatcher concept
// (service/dispatch.hpp):
//
//   run_service_virtual — single-threaded discrete-event simulation in
//     VIRTUAL time, optionally under an injected fault plan with
//     graceful-degradation policies (empty plan + default policies = a
//     healthy, fail-hard run). Deterministic by construction (event
//     order is a pure function of the trace, the plan, and the
//     dispatcher's seeded decisions), so the test suite can assert EXACT
//     completion orders and EXACT latency summaries: EDF through a
//     strict queue is the earliest-deadline schedule, FCFS is arrival
//     order, a MultiQueue with d = #queues degenerates to strict and
//     must match EDF trace-for-trace; fault runs are byte-stable for a
//     fixed (config, seed), so bench_service's BENCH_fault.json is gated
//     exactly.
//
//   run_service_realtime — real threads against the wall clock, with no
//     faults. One arrival thread paces the trace (open-loop: it never
//     waits for completions), worker threads fetch and "execute"
//     requests by spinning out the service demand, and every record
//     lands in a per-worker log — plain vectors with no sharing, the
//     lock-free way to log when each writer owns its shard. It is
//     measured end to end by benchmark/'s rpc_open_loop workload and
//     raced under TSan by test_service (dispatch/fetch race by design).
//
// The fault model, the degradation policies and the conservation
// invariant below are virtual-time only; bench_service enforces them in
// every cell it runs.
//
// Fault model — one role per worker (fault_plan), windows in trace
// seconds; service/fault.hpp builds seeded plans:
//
//   ok            — healthy.
//   slow(factor)  — every service demand it executes is multiplied by
//                   `slow_factor` (thermal throttling, a noisy
//                   neighbor, a degraded disk).
//   stall[s0,s1)  — transiently frozen: fetches are suppressed and an
//                   in-flight request makes NO progress during the
//                   window (GC pause, VM migration). Service resumes at
//                   s1; the completion is pushed out by the overlap.
//   crash(t)      — permanently dead from t on: never fetches again,
//                   and an in-flight request is ABANDONED at t.
//
// Degradation policies (degrade_config; defaults are all off):
//
//   admission control — at dispatch time, a request predicted to miss
//     its deadline is SHED instead of queued: predicted completion =
//     now + backlog/workers · est_service + service. Shedding at the
//     door converts a guaranteed deadline miss (plus the queueing it
//     inflicts on everyone behind it) into an explicit, counted drop.
//   retry-with-backoff — a request abandoned by a crashed worker is
//     re-dispatched after retry_backoff · 2^(attempt-1) seconds, at
//     most max_retries times; exhaustion marks it LOST. Retries bypass
//     admission control (the request was already admitted once).
//   stall failover — when a stalled worker has held an in-flight
//     request for failover_timeout while still inside its stall window,
//     the request is RE-DISPATCHED so a live worker can serve it. First
//     completion wins: the settled table drops the loser, so failover
//     never double-counts.
//   dead-worker reclaim — a dispatcher with per-worker queues (po2)
//     strands a dead worker's queued backlog: nobody else ever pops it.
//     The runner calls the dispatcher's reclaim(w) once worker w is
//     crashed (and again after later arrivals, since the dead worker's
//     drained — hence short — queue keeps attracting new dispatches)
//     and re-routes the orphans through recovery. Shared queues reclaim
//     nothing: any live worker can pop a dead worker's work.
//
// Re-dispatches (retry + failover + reclaim) travel through a RECOVERY
// queue the workers drain BEFORE fetching from the dispatcher — not
// through the dispatcher itself: the dispatcher concept gives dispatch()
// to the single arrival thread (and seal() has already destroyed the
// dispatch handle by the time late retries fire), and one recovery path
// for every dispatcher means the bench compares POLICIES, not four
// retry paths.
//
// THE conservation invariant (bench_service exits nonzero on violation):
//
//   completed + shed + lost == dispatched (== trace size)
//
// Every request is accounted exactly once: served (completed, possibly
// past deadline — counted in `missed`), shed at admission, or lost to a
// crash with retries exhausted. Duplicates settle to one completion.
// The realtime runner neither sheds nor loses, so for it the invariant
// reduces to completed == dispatched on any run that did not stall.
//
// Virtual-time event rules (the determinism contract the tests pin):
//   1. Events are processed in time order. At equal times: finishes
//      (completion or crash abandon) ≺ idle-worker crash ≺ failover ≺
//      retry wake ≺ arrival ≺ stall-end wake; ties by lowest worker
//      index. With an empty plan only finishes and arrivals exist, so
//      COMPLETIONS precede ARRIVALS (a freed worker is visible to the
//      arrival's fetch round).
//   2. After every event, idle eligible workers fetch in worker-index
//      order — recovery queue first, then the dispatcher — until a
//      fetch fails; a request fetched at time t starts at t
//      (wait = t − arrival) and completes at t + service (role-adjusted).
//   3. The dispatcher is sealed immediately after the last arrival is
//      dispatched (flushing any dispatch-side buffering, e.g. k-LSM
//      local blocks — without this a buffering queue could strand the
//      tail of the trace invisibly and the simulation could not drain).
//
// Termination everywhere is by ACCOUNTING (completed + shed + lost),
// never by a failed fetch: emptiness is relaxed all the way down
// (core/pq_handle.hpp), so "looked empty" proves nothing while requests
// remain. A conforming dispatcher reaches full accounting; a buggy one
// that loses a request would leave it short forever, so both runners
// fail closed instead of hanging: the virtual runner breaks when no
// event is runnable, and the realtime runner carries a stall watchdog
// (no fetch or completion anywhere for stall_timeout seconds → stop
// the workers and return short, result.stalled = true). Callers then
// fail on the completion count in bounded time instead of wedging CI.
//
// Realtime threads: the arrival thread (the caller) and one thread per
// worker, all started by one run_workers call. The only shared RMWs per
// request are one `started` add at fetch and one `accounted` add at
// completion. Workers check termination (on `accounted`) and the
// watchdog only in their idle path, after a failed fetch. The completed
// and missed totals are derived after the join from the logs.

#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "service/workload.hpp"
#include "util/in_flight.hpp"
#include "util/spinlock.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace pcq {
namespace service {

/// One completed request, as its worker saw it.
struct request_record {
  std::uint64_t seq = 0;
  double arrival = 0.0;
  double start = 0.0;       ///< fetch instant: wait = start − arrival
  double completion = 0.0;  ///< sojourn = completion − arrival
  double service = 0.0;     ///< the demanded service time
};

struct service_result {
  std::uint64_t completed = 0;
  /// Requests presented to the dispatch layer (= trace size); see the
  /// conservation invariant in the header comment.
  std::uint64_t dispatched = 0;
  // shed, lost, retries, failovers and reclaimed stay 0 in the realtime
  // runner: faults and degradation policies are virtual-time only.
  std::uint64_t shed = 0;    ///< dropped by admission control at dispatch
  std::uint64_t lost = 0;    ///< crash-abandoned with retries exhausted
  std::uint64_t missed = 0;  ///< completions that finished past deadline
  std::uint64_t retries = 0;    ///< crash-recovery re-dispatches issued
  std::uint64_t failovers = 0;  ///< stalled in-flight requests duplicated
  /// Requests drained from a DEAD worker's private backlog (dispatcher
  /// reclaim()) and re-routed through recovery. Only dispatchers with
  /// per-worker queues (po2) ever strand work this way; shared-queue
  /// dispatchers report 0.
  std::uint64_t reclaimed = 0;
  /// Realtime runner only: the stall watchdog fired — nothing progressed
  /// with requests still unaccounted for, and the workers were stopped
  /// early.
  bool stalled = false;
  double seconds = 0.0;  ///< makespan: last event (virtual) or wall
  std::vector<std::vector<request_record>> worker_logs;  ///< shard per worker
  /// Virtual runner only: seq of every request in completion order (the
  /// deterministic object the exact-order tests assert on).
  std::vector<std::uint64_t> completion_order;

  /// Deadline-miss fraction among COMPLETED requests (shed/lost work
  /// never completes, so it is accounted by its own fractions below).
  double miss_frac() const {
    return completed > 0
               ? static_cast<double>(missed) / static_cast<double>(completed)
               : 0.0;
  }
  double shed_frac() const {
    return dispatched > 0
               ? static_cast<double>(shed) / static_cast<double>(dispatched)
               : 0.0;
  }
  double lost_frac() const {
    return dispatched > 0
               ? static_cast<double>(lost) / static_cast<double>(dispatched)
               : 0.0;
  }
};

/// Merges the per-worker shards into exact mergeable summaries — the
/// sorted-merge path of util/stats.hpp's latency_summary, so these equal
/// the percentiles of the concatenated sample sets bit-for-bit.
struct latency_report {
  latency_summary sojourn;
  latency_summary wait;
  latency_summary service;
};

inline latency_report summarize(const service_result& result) {
  latency_report report;
  for (const auto& shard : result.worker_logs) {
    latency_summary sojourn, wait, service;
    for (const request_record& r : shard) {
      sojourn.add(r.completion - r.arrival);
      wait.add(r.start - r.arrival);
      service.add(r.service);
    }
    report.sojourn.merge(sojourn);
    report.wait.merge(wait);
    report.service.merge(service);
  }
  return report;
}

enum class fault_kind { ok, slow, stall, crash };

/// One worker's role for a run. Roles are exclusive by construction
/// (make_fault_plan assigns disjoint sets), which keeps the completion
/// arithmetic closed-form in the virtual runner.
struct worker_fault {
  fault_kind kind = fault_kind::ok;
  double slow_factor = 1.0;  ///< slow: multiplies every service demand
  double stall_start = 0.0;  ///< stall: frozen during [start, end)
  double stall_end = 0.0;
  double crash_time = std::numeric_limits<double>::infinity();

  bool crashed_by(double t) const {
    return kind == fault_kind::crash && t >= crash_time;
  }
  bool stalled_at(double t) const {
    return kind == fault_kind::stall && t >= stall_start && t < stall_end;
  }
  /// The service demand as this worker executes it.
  double scaled(double service) const {
    return kind == fault_kind::slow ? service * slow_factor : service;
  }
};

/// Arrival-rate multiplier window: gaps inside [start, end) divide by
/// rate_factor (service/fault.hpp's apply_bursts).
struct burst_window {
  double start = 0.0;
  double end = 0.0;
  double rate_factor = 1.0;
};

/// Per-worker roles (missing entries are ok) plus the burst windows the
/// trace was perturbed with. run_service_virtual rejects a plan with
/// more entries than workers, stall_end < stall_start, or a slow_factor
/// that is not finite and positive.
struct fault_plan {
  std::vector<worker_fault> workers;
  std::vector<burst_window> bursts;
};

/// Graceful-degradation policy knobs. Defaults are fail-hard (no
/// shedding, no retries, no failover), so turning one policy on
/// isolates its effect.
struct degrade_config {
  /// Shed at dispatch when now + backlog/workers·est_service + service
  /// exceeds the deadline. est_service must be > 0 to arm the check.
  bool admission_control = false;
  double est_service = 0.0;
  /// Crash recovery: re-dispatch after retry_backoff·2^(attempt−1),
  /// at most max_retries attempts; exhaustion marks the request lost.
  std::size_t max_retries = 0;
  double retry_backoff = 0.0;
  /// Stall failover: re-dispatch a stalled worker's in-flight request
  /// once it has been frozen this long (infinity = never).
  double failover_timeout = std::numeric_limits<double>::infinity();

  bool admission_armed() const {
    return admission_control && est_service > 0.0;
  }
};

namespace detail {

/// Settled states for the per-request accounting table. A request
/// leaves `live` exactly once; duplicate copies (failover) observe a
/// non-live state and are dropped without being counted.
enum : std::uint8_t {
  kLive = 0,
  kDone = 1,
  kLost = 2,
  kShed = 3,
};

/// Exponential backoff multiplier for retry attempt k (1-based),
/// exponent clamped so the shift can never overflow.
inline double backoff_factor(std::size_t attempt) {
  return std::ldexp(1.0, static_cast<int>(
                             std::min<std::size_t>(attempt - 1, 30)));
}

/// Admission control's verdict for an armed degrade_config.
inline bool admission_sheds(const request& r, double now,
                            std::size_t queued, std::size_t workers,
                            const degrade_config& degrade) {
  const double predicted =
      now +
      static_cast<double>(queued) * degrade.est_service /
          static_cast<double>(workers == 0 ? 1 : workers) +
      r.service;
  return predicted > r.deadline;
}

/// The plan padded to one role per worker; throws std::invalid_argument
/// on a plan no run can honor.
inline std::vector<worker_fault> roles_for(const fault_plan& plan,
                                           std::size_t workers) {
  if (plan.workers.size() > workers) {
    throw std::invalid_argument("fault_plan: more roles than workers");
  }
  for (const worker_fault& f : plan.workers) {
    if (!(f.stall_end >= f.stall_start)) {
      throw std::invalid_argument("fault_plan: stall_end < stall_start");
    }
    if (!std::isfinite(f.slow_factor) || f.slow_factor <= 0.0) {
      throw std::invalid_argument(
          "fault_plan: slow_factor must be finite and positive");
    }
  }
  std::vector<worker_fault> roles = plan.workers;
  roles.resize(workers);
  return roles;
}

/// Throws std::invalid_argument unless trace[i].seq == i (both runners
/// look requests up by seq), every arrival and service is finite and
/// non-negative, and arrivals never decrease.
inline void check_trace(const std::vector<request>& trace) {
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const request& r = trace[i];
    if (r.seq != i) {
      throw std::invalid_argument("trace: seq must equal its index");
    }
    if (!std::isfinite(r.arrival) || r.arrival < 0.0 ||
        !std::isfinite(r.service) || r.service < 0.0) {
      throw std::invalid_argument(
          "trace: arrival and service must be finite and non-negative");
    }
    if (i > 0 && r.arrival < trace[i - 1].arrival) {
      throw std::invalid_argument("trace: arrivals must not decrease");
    }
  }
}

/// The realtime stall watchdog: expires once `progress` has not moved
/// across consecutive observations spanning more than `timeout` seconds.
class stall_watch {
 public:
  explicit stall_watch(double timeout) : timeout_(timeout) {}

  /// Forget the idle stretch (the observer made progress itself).
  void reset() { watching_ = false; }

  bool expired(std::uint64_t progress, double now) {
    if (!watching_ || progress != seen_) {
      watching_ = true;
      seen_ = progress;
      since_ = now;
      return false;
    }
    return now - since_ > timeout_;
  }

 private:
  double timeout_;
  bool watching_ = false;
  std::uint64_t seen_ = 0;
  double since_ = 0.0;
};

}  // namespace detail

/// Deterministic single-threaded discrete-event run in virtual time.
/// The trace must pass detail::check_trace (make_open_loop_trace's
/// output does). See the header comment for the event rules.
template <typename Dispatcher>
service_result run_service_virtual(const std::vector<request>& trace,
                                   Dispatcher& dispatcher,
                                   std::size_t workers,
                                   const fault_plan& plan = {},
                                   const degrade_config& degrade = {}) {
  constexpr double kNever = std::numeric_limits<double>::infinity();
  constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();

  detail::check_trace(trace);
  const std::vector<worker_fault> faults = detail::roles_for(plan, workers);

  service_result result;
  result.worker_logs.resize(workers);
  result.dispatched = trace.size();
  result.completion_order.reserve(trace.size());

  std::vector<std::uint64_t> running(workers, kNone);
  std::vector<double> started(workers, 0.0);
  std::vector<double> finish(workers, kNever);    // completion or abandon
  std::vector<bool> abandons(workers, false);     // finish is an abandon
  std::vector<double> failover_at(workers, kNever);
  std::vector<bool> dead(workers, false);
  std::vector<bool> crash_pending(workers, false);  // death event not yet run
  for (std::size_t w = 0; w < workers; ++w) {
    crash_pending[w] = faults[w].kind == fault_kind::crash;
  }

  std::vector<std::uint8_t> settled(trace.size(), detail::kLive);
  std::vector<std::uint8_t> attempts(trace.size(), 0);
  std::deque<std::uint64_t> recovery;                    // ready now
  std::vector<std::pair<double, std::uint64_t>> timers;  // retry wakes

  const bool admission = degrade.admission_armed();
  std::size_t next_arrival = 0;
  double now = 0.0;
  std::uint64_t accounted = 0;  // completed + shed + lost

  const auto eligible = [&](std::size_t w) {
    return !dead[w] && !faults[w].crashed_by(now) &&
           !faults[w].stalled_at(now);
  };

  // Closed-form finish time for worker w starting duration-d work at t,
  // plus the abandon/failover schedule the role implies.
  const auto schedule = [&](std::size_t w, double t, double dur) {
    const worker_fault& f = faults[w];
    double end = t + f.scaled(dur);
    abandons[w] = false;
    failover_at[w] = kNever;
    if (f.kind == fault_kind::stall && t < f.stall_start &&
        end > f.stall_start) {
      end += f.stall_end - f.stall_start;  // suspended across the window
      const double t_f = f.stall_start + degrade.failover_timeout;
      if (t_f < f.stall_end) failover_at[w] = t_f;
    }
    if (f.kind == fault_kind::crash && end > f.crash_time) {
      end = f.crash_time;
      abandons[w] = true;
    }
    finish[w] = end;
  };

  const auto record_completion = [&](std::size_t w) {
    const std::uint64_t seq = running[w];
    if (settled[seq] == detail::kLive) {
      const request& r = trace[seq];
      request_record rec;
      rec.seq = seq;
      rec.arrival = r.arrival;
      rec.start = started[w];
      rec.completion = now;
      rec.service = r.service;
      result.worker_logs[w].push_back(rec);
      result.completion_order.push_back(seq);
      ++result.completed;
      if (now > r.deadline) ++result.missed;
      settled[seq] = detail::kDone;
      ++accounted;
    }
    // else: a failover duplicate finished second — dropped, uncounted.
    running[w] = kNone;
    finish[w] = kNever;
    failover_at[w] = kNever;
  };

  // Drain the dead worker's private backlog (po2 FIFO; a shared queue
  // has none) into recovery so live workers can serve the orphans —
  // the health-check rerouting a real load balancer does.
  std::vector<std::uint64_t> reclaim_buf;
  const auto reclaim_worker = [&](std::size_t w) {
    reclaim_buf.clear();
    dispatcher.reclaim(w, reclaim_buf);
    for (std::uint64_t seq : reclaim_buf) {
      if (settled[seq] == detail::kLive) {
        recovery.push_back(seq);
        ++result.reclaimed;
      }
    }
  };

  const auto abandon_inflight = [&](std::size_t w) {
    const std::uint64_t seq = running[w];
    dead[w] = true;
    crash_pending[w] = false;
    running[w] = kNone;
    finish[w] = kNever;
    failover_at[w] = kNever;
    reclaim_worker(w);
    if (settled[seq] != detail::kLive) return;  // duplicate; already done
    if (attempts[seq] < degrade.max_retries) {
      ++attempts[seq];
      const double wake = now + degrade.retry_backoff *
                                    detail::backoff_factor(attempts[seq]);
      timers.emplace_back(wake, seq);
      ++result.retries;
    } else {
      settled[seq] = detail::kLost;
      ++result.lost;
      ++accounted;
    }
  };

  const auto start_idle_workers = [&] {
    for (std::size_t w = 0; w < workers; ++w) {
      if (running[w] != kNone || !eligible(w)) continue;
      while (true) {
        std::uint64_t seq = kNone;
        if (!recovery.empty()) {
          seq = recovery.front();
          recovery.pop_front();
        } else if (!dispatcher.fetch(w, seq)) {
          break;
        }
        if (settled[seq] != detail::kLive) continue;  // stale duplicate
        running[w] = seq;
        started[w] = now;
        schedule(w, now, trace[seq].service);
        break;
      }
    }
  };

  while (accounted < trace.size()) {
    // Candidate events, ordered (time, class, index): class 0 finish
    // (completion or abandon), 1 idle-worker crash (death with nothing
    // in flight — still an event, because its private backlog must be
    // reclaimed), 2 failover, 3 retry wake, 4 arrival, 5 stall-end wake
    // (no-op that re-triggers fetches).
    double best_t = kNever;
    int best_class = 6;
    std::size_t best_w = workers;
    std::size_t best_timer = timers.size();

    for (std::size_t w = 0; w < workers; ++w) {
      if (running[w] != kNone && finish[w] < best_t) {
        best_t = finish[w];
        best_class = 0;
        best_w = w;
      }
    }
    for (std::size_t w = 0; w < workers; ++w) {
      if (crash_pending[w] && running[w] == kNone &&
          faults[w].crash_time < best_t) {
        best_t = faults[w].crash_time;
        best_class = 1;
        best_w = w;
      }
    }
    for (std::size_t w = 0; w < workers; ++w) {
      if (running[w] != kNone && failover_at[w] < best_t) {
        best_t = failover_at[w];
        best_class = 2;
        best_w = w;
      }
    }
    for (std::size_t i = 0; i < timers.size(); ++i) {
      if (timers[i].first < best_t) {
        best_t = timers[i].first;
        best_class = 3;
        best_timer = i;
      }
    }
    if (next_arrival < trace.size() &&
        trace[next_arrival].arrival < best_t) {
      best_t = trace[next_arrival].arrival;
      best_class = 4;
    }
    for (std::size_t w = 0; w < workers; ++w) {
      const worker_fault& f = faults[w];
      if (f.kind == fault_kind::stall && !dead[w] && running[w] == kNone &&
          f.stall_end > now && f.stall_end < best_t) {
        best_t = f.stall_end;
        best_class = 5;
        best_w = w;
      }
    }

    // No runnable event. A conforming dispatcher cannot get here
    // (sealing flushed all buffering); return short so a buggy one
    // fails its test on the count instead of spinning forever.
    if (best_class == 6) break;
    now = best_t;

    switch (best_class) {
      case 0:
        if (abandons[best_w]) {
          abandon_inflight(best_w);
        } else {
          record_completion(best_w);
        }
        break;
      case 1:
        dead[best_w] = true;
        crash_pending[best_w] = false;
        reclaim_worker(best_w);
        break;
      case 2: {
        // Failover: duplicate the frozen worker's in-flight request into
        // the recovery queue. The original stays scheduled; whichever
        // copy finishes first settles the request.
        recovery.push_back(running[best_w]);
        failover_at[best_w] = kNever;
        ++result.failovers;
        break;
      }
      case 3: {
        recovery.push_back(timers[best_timer].second);
        timers.erase(timers.begin() +
                     static_cast<std::ptrdiff_t>(best_timer));
        break;
      }
      case 4: {
        const request& r = trace[next_arrival];
        if (admission &&
            detail::admission_sheds(r, now,
                                    dispatcher.backlog() + recovery.size(),
                                    workers, degrade)) {
          settled[r.seq] = detail::kShed;
          ++result.shed;
          ++accounted;
        } else {
          dispatcher.dispatch(r);
          // A dead worker's (empty, hence attractive) po2 FIFO can keep
          // collecting arrivals; re-route them immediately.
          for (std::size_t w = 0; w < workers; ++w) {
            if (dead[w]) reclaim_worker(w);
          }
        }
        ++next_arrival;
        if (next_arrival == trace.size()) dispatcher.seal();
        break;
      }
      default:
        break;  // stall-end wake: fetches below do the work
    }
    start_idle_workers();
  }
  result.seconds = now;
  return result;
}

/// Real-time open-loop run: one arrival thread paces the trace against
/// the wall clock, yielding while far from the next arrival and spinning
/// the last stretch; `workers` worker threads fetch and spin out each
/// request's demand; one run_workers call starts them all, with the
/// caller as the arrival thread. Trace times are wall seconds — generate
/// traces whose span fits the time you are willing to measure. Faults
/// are injected only in virtual time (run_service_virtual).
///
/// `stall_timeout_seconds` arms the watchdog (the realtime twin of the
/// virtual runner's no-runnable-event break): if nothing progresses —
/// no successful fetch or completion anywhere — for that long while
/// requests are unaccounted for, every worker stops and the short result
/// comes back with `stalled` set. Progress counts fetches as well as
/// completions, so the timeout only needs to exceed the longest dispatch
/// gap and the largest single service demand, not the trace makespan.
template <typename Dispatcher>
service_result run_service_realtime(const std::vector<request>& trace,
                                    Dispatcher& dispatcher,
                                    std::size_t workers,
                                    double stall_timeout_seconds = 5.0) {
  detail::check_trace(trace);

  service_result result;
  result.worker_logs.resize(workers);
  result.dispatched = trace.size();

  const std::uint64_t total = trace.size();
  std::atomic<std::uint64_t> accounted{0};  // completions
  std::atomic<std::uint64_t> started{0};    // successful fetches
  std::atomic<bool> stalled{false};  // set by the watchdog; stops workers
  wall_timer clock;  // the one epoch every thread measures against

  // Thread 0 (the caller) paces the arrivals; thread w + 1 is worker w.
  auto thread_body = [&](std::size_t tid) {
    if (tid == 0) {
      for (const request& r : trace) {
        while (true) {
          const double gap = r.arrival - clock.elapsed_seconds();
          if (gap <= 0.0) break;
          if (gap > 100e-6) {
            std::this_thread::yield();
          } else {
            cpu_relax();
          }
        }
        dispatcher.dispatch(r);
      }
      dispatcher.seal();
      return;
    }
    const std::size_t w = tid - 1;
    auto& log = result.worker_logs[w];
    backoff bo;
    detail::stall_watch watch(stall_timeout_seconds);
    while (!stalled.load(std::memory_order_acquire)) {
      std::uint64_t seq = 0;
      if (!dispatcher.fetch(w, seq)) {
        // Idle path: terminate on full accounting; otherwise, if
        // nothing moved anywhere for stall_timeout_seconds, the
        // dispatcher lost a request — fail closed.
        if (accounted.load(std::memory_order_acquire) >= total) break;
        const std::uint64_t progress =
            accounted.load(std::memory_order_relaxed) +
            started.load(std::memory_order_relaxed);
        if (watch.expired(progress, clock.elapsed_seconds())) {
          stalled.store(true, std::memory_order_release);
          break;
        }
        bo.pause();
        continue;
      }
      bo.reset();
      watch.reset();
      started.fetch_add(1, std::memory_order_relaxed);
      const request& r = trace[seq];
      const double start = clock.elapsed_seconds();
      // Spin out the demand; the loop's last clock read is the
      // completion instant.
      double done = clock.elapsed_seconds();
      while (done - start < r.service) {
        cpu_relax();
        done = clock.elapsed_seconds();
      }
      request_record rec;
      rec.seq = seq;
      rec.arrival = r.arrival;
      rec.start = start;
      rec.completion = done;
      rec.service = r.service;
      log.push_back(rec);
      accounted.fetch_add(1, std::memory_order_release);
    }
  };
  run_workers(workers + 1, thread_body);

  result.seconds = clock.elapsed_seconds();
  result.stalled = stalled.load();
  for (const auto& log : result.worker_logs) {
    result.completed += log.size();
    for (const request_record& rec : log) {
      if (rec.completion > trace[rec.seq].deadline) ++result.missed;
    }
  }
  return result;
}

}  // namespace service
}  // namespace pcq
