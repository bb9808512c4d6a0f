// FAULT — robustness vs fault intensity for queue-level vs
// scheduler-level choice (service/fault.hpp's seeded plans through the
// virtual-time runner, plus a realtime smoke pass for the threaded path).
//
// The question: does the MultiQueue's latency/deadline advantage
// survive a misbehaving world? Each intensity level perturbs the SAME
// offered-load-0.9 trace with a seeded fault plan — slow workers,
// transient stalls, permanent crashes, arrival bursts (the at_intensity
// ladder; level 1 is the healthy anchor) — and runs all four
// dispatchers (mq / fcfs / edf / po2) on identical perturbed traces
// with the full graceful-degradation policy armed: deadline-aware
// admission shedding, bounded crash retry with backoff, and stall
// failover.
//
// The measured object is run_service_virtual under a fault plan:
// DETERMINISTIC virtual time, so every number in the artifact is
// byte-stable for the committed (config, seed) and the CI gate compares
// reproducible fractions, not wall-clock noise. A short
// run_service_realtime pass at the end exercises the threaded
// per-worker recovery (the TSan target) under the same conservation
// checks.
//
// HARD INVARIANT (this binary exits nonzero on any violation):
//
//   completed + shed + lost == dispatched (== trace size)
//
// for every (level, dispatcher) cell — every request is served, shed at
// admission, or lost to a crash with retries exhausted, exactly once.
// Also enforced per cell: the latency summary holds exactly the
// completed samples, and no crashed worker has a record starting at or
// after its crash tick.
//
// Emits BENCH_fault.json: x-axis ("threads") = fault intensity level
// 1..5; one series per dispatcher with mops (completed per virtual
// second), sojourn percentiles, and the degradation fractions
// miss_frac / shed_frac / lost_frac plus retry/failover/reclaim
// counters. CI gates the whole artifact exactly: at PCQ_MAX_THREADS=2
// it must be byte-identical (cmp) to
// bench/baselines/BENCH_fault.baseline.json, so any change to a
// dispatcher, the fault process or the trace shows up as a diff.
//
// Env knobs: PCQ_MAX_THREADS caps workers, PCQ_FAULT_REQUESTS
// overrides requests per cell (CI smoke runs tiny counts).

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "benchlib/bench_env.hpp"
#include "benchlib/json_writer.hpp"
#include "benchlib/table_printer.hpp"
#include "core/multi_queue.hpp"
#include "service/dispatch.hpp"
#include "service/fault.hpp"
#include "service/server.hpp"
#include "service/workload.hpp"

namespace {

using namespace pcq;
using namespace pcq::bench;
using namespace pcq::service;

struct cell {
  double mops = 0.0;  ///< million completed requests / virtual second
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double miss_frac = 0.0;
  double shed_frac = 0.0;
  double lost_frac = 0.0;
  double retries = 0.0;
  double failovers = 0.0;
  double reclaimed = 0.0;
};

std::size_t env_count(const char* name, std::size_t fallback) {
  if (const char* value = std::getenv(name)) {
    const long parsed = std::atol(value);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return fallback;
}

/// Conservation + accounting checks shared by every cell; exits
/// nonzero (the bench IS the gate) on any violation.
void enforce_invariants(const char* where, const std::vector<request>& trace,
                        const service_result& result,
                        const fault_plan& plan) {
  const std::uint64_t accounted =
      result.completed + result.shed + result.lost;
  if (result.dispatched != trace.size() || accounted != result.dispatched) {
    std::fprintf(stderr,
                 "FAULT CONSERVATION VIOLATION [%s]: completed %llu + shed "
                 "%llu + lost %llu != dispatched %llu (trace %zu)\n",
                 where, static_cast<unsigned long long>(result.completed),
                 static_cast<unsigned long long>(result.shed),
                 static_cast<unsigned long long>(result.lost),
                 static_cast<unsigned long long>(result.dispatched),
                 trace.size());
    std::exit(1);
  }
  const latency_report report = summarize(result);
  if (report.sojourn.count() != result.completed) {
    std::fprintf(stderr,
                 "FAULT VIOLATION [%s]: summary holds %zu samples, "
                 "completed %llu\n",
                 where, report.sojourn.count(),
                 static_cast<unsigned long long>(result.completed));
    std::exit(1);
  }
  // A crashed worker must have completed nothing at or after its crash
  // tick — its in-flight request was abandoned, not served.
  for (std::size_t w = 0; w < result.worker_logs.size(); ++w) {
    if (w >= plan.workers.size()) break;
    const worker_fault& f = plan.workers[w];
    if (f.kind != fault_kind::crash) continue;
    for (const request_record& r : result.worker_logs[w]) {
      if (r.start >= f.crash_time) {
        std::fprintf(stderr,
                     "FAULT VIOLATION [%s]: crashed worker %zu started seq "
                     "%llu at %.9f, at/after its crash tick %.9f\n",
                     where, w, static_cast<unsigned long long>(r.seq),
                     r.start, f.crash_time);
        std::exit(1);
      }
    }
  }
}

template <typename Dispatcher>
cell measure(const std::vector<request>& trace, Dispatcher& dispatcher,
             std::size_t workers, const fault_plan& plan,
             const degrade_config& degrade, const char* where) {
  const service_result result =
      run_service_virtual(trace, dispatcher, workers, plan, degrade);
  enforce_invariants(where, trace, result, plan);
  const latency_report report = summarize(result);
  cell c;
  c.mops = result.seconds > 0.0
               ? static_cast<double>(result.completed) / result.seconds / 1e6
               : 0.0;
  c.p50_ms = report.sojourn.p50() * 1e3;
  c.p99_ms = report.sojourn.p99() * 1e3;
  c.miss_frac = result.miss_frac();
  c.shed_frac = result.shed_frac();
  c.lost_frac = result.lost_frac();
  c.retries = static_cast<double>(result.retries);
  c.failovers = static_cast<double>(result.failovers);
  c.reclaimed = static_cast<double>(result.reclaimed);
  return c;
}

}  // namespace

int main() {
  // The measured runs are virtual-time simulation: workers are SIMULATED,
  // so the count is fixed (not max_threads()) and the whole artifact is
  // machine-independent — the CI gate compares deterministic numbers.
  const std::size_t workers = env_count("PCQ_FAULT_WORKERS", 8);
  const std::size_t requests =
      env_count("PCQ_FAULT_REQUESTS", scaled<std::size_t>(4000, 60000));
  const double mean_service = 50e-6;  // 50 µs: RPC-sized work
  const double rho = 0.90;            // high load, so faults actually bite
  constexpr unsigned kLevels = 5;
  const std::uint64_t fault_seed = 0x4661756Cu;

  // One base workload for the whole ladder: level-to-level differences
  // are the injected faults (plus their burst perturbation), nothing
  // else.
  workload_config wcfg;
  wcfg.num_requests = requests;
  wcfg.service = service_dist::exponential_mean(mean_service);
  wcfg.arrival_rate = arrival_rate_for_load(rho, workers, wcfg.service);
  wcfg.seed = derive_seed(0x4661756Cu, 7);
  const std::vector<request> base_trace = make_open_loop_trace(wcfg);

  print_header(
      "FAULT: graceful degradation vs fault intensity, queue-level vs "
      "scheduler-level choice",
      "virtual-time fault runner, " + std::to_string(workers) +
          " simulated workers at rho=0.9; level 1 healthy, 2..5 add slow / "
          "stall / crash workers and arrival bursts; admission + retry + "
          "failover armed");

  const char* dispatcher_names[4] = {"mq", "fcfs", "edf", "po2"};
  // results[dispatcher][level index]
  std::vector<std::vector<cell>> results(4);

  table_printer table(
      {"level", "metric", "mq", "fcfs", "edf", "po2"});
  for (unsigned level = 1; level <= kLevels; ++level) {
    const fault_config fcfg =
        fault_config::at_intensity(level, derive_seed(fault_seed, level));
    const std::vector<request> trace =
        apply_bursts(base_trace, plan_bursts(fcfg, trace_span(base_trace)));
    const double span = trace_span(trace);
    const fault_plan plan = make_fault_plan(fcfg, workers, span);

    degrade_config degrade;
    degrade.admission_control = true;
    degrade.est_service = trace_mean_service(trace);
    degrade.max_retries = 3;
    degrade.retry_backoff = mean_service;
    // Fire failover a quarter of the way into a stall window, so a
    // frozen in-flight request is duplicated well before the window
    // ends at every scale; infinity when the level has no stalls.
    degrade.failover_timeout =
        fcfg.stall_duration_frac > 0.0
            ? 0.25 * fcfg.stall_duration_frac * span
            : std::numeric_limits<double>::infinity();

    const std::string tag = "level " + std::to_string(level);
    {
      auto mq = make_mq_dispatcher(workers);
      results[0].push_back(
          measure(trace, mq, workers, plan, degrade, tag.c_str()));
    }
    {
      auto fcfs = make_fcfs_dispatcher(workers);
      results[1].push_back(
          measure(trace, fcfs, workers, plan, degrade, tag.c_str()));
    }
    {
      auto edf = make_edf_dispatcher(workers);
      results[2].push_back(
          measure(trace, edf, workers, plan, degrade, tag.c_str()));
    }
    {
      po2_dispatcher po2(workers, derive_seed(wcfg.seed, 99));
      results[3].push_back(
          measure(trace, po2, workers, plan, degrade, tag.c_str()));
    }

    for (int metric = 0; metric < 4; ++metric) {
      std::vector<double> row{static_cast<double>(level),
                              static_cast<double>(metric)};
      for (std::size_t s = 0; s < 4; ++s) {
        const cell& c = results[s].back();
        row.push_back(metric == 0   ? c.p99_ms
                      : metric == 1 ? c.miss_frac
                      : metric == 2 ? c.shed_frac
                                    : c.lost_frac);
      }
      table.row(row);
    }
  }

  // Realtime smoke: same semantics through real threads, each faulty
  // worker running its own recovery (crash retry and reclaim, stall
  // failover, watchdog) — the TSan target. Small and fault-heavy; gated
  // on the same invariants plus "the watchdog did not fire".
  {
    const std::size_t rt_workers = max_threads();
    workload_config scfg = wcfg;
    scfg.num_requests = std::min<std::size_t>(requests, 2000);
    scfg.arrival_rate = arrival_rate_for_load(rho, rt_workers, scfg.service);
    const std::vector<request> base = make_open_loop_trace(scfg);
    const fault_config fcfg =
        fault_config::at_intensity(5, derive_seed(fault_seed, 99));
    const std::vector<request> trace =
        apply_bursts(base, plan_bursts(fcfg, trace_span(base)));
    const double span = trace_span(trace);
    const fault_plan plan = make_fault_plan(fcfg, rt_workers, span);
    degrade_config degrade;
    degrade.admission_control = true;
    degrade.est_service = trace_mean_service(trace);
    degrade.max_retries = 3;
    degrade.retry_backoff = mean_service;
    degrade.failover_timeout = 0.25 * fcfg.stall_duration_frac * span;
    auto mq = make_mq_dispatcher(rt_workers);
    const service_result rt = run_service_realtime(
        trace, mq, rt_workers, /*stall_timeout_seconds=*/5.0, plan, degrade);
    if (rt.stalled) {
      std::fprintf(stderr,
                   "FAULT VIOLATION [realtime smoke]: watchdog fired\n");
      return 1;
    }
    enforce_invariants("realtime smoke", trace, rt, plan);
    std::printf("realtime smoke: completed %llu shed %llu lost %llu "
                "retries %llu failovers %llu reclaimed %llu\n",
                static_cast<unsigned long long>(rt.completed),
                static_cast<unsigned long long>(rt.shed),
                static_cast<unsigned long long>(rt.lost),
                static_cast<unsigned long long>(rt.retries),
                static_cast<unsigned long long>(rt.failovers),
                static_cast<unsigned long long>(rt.reclaimed));
  }

  const std::string json_path = json_artifact_path("BENCH_fault.json");
  json_writer json(json_path);
  json.begin_object()
      .kv("bench", "fault")
      .kv("unit",
          "x-axis = fault intensity level (1 = healthy); mops = million "
          "completed requests per virtual second; fractions in [0,1]")
      .kv("full_scale", full_scale())
      .kv("workers", workers)
      .kv("requests", requests)
      .kv("rho", rho)
      .kv("mean_service_us", mean_service * 1e6);
  json.key("threads").begin_array();
  for (unsigned level = 1; level <= kLevels; ++level) json.value(level);
  json.end_array();
  json.key("series").begin_array();
  for (std::size_t s = 0; s < 4; ++s) {
    json.begin_object().kv("name", dispatcher_names[s]);
    const auto emit = [&json, &results, s](const char* key,
                                           double cell::*member) {
      json.key(key).begin_array();
      for (const cell& c : results[s]) json.value(c.*member);
      json.end_array();
    };
    emit("mops", &cell::mops);
    emit("p50_ms", &cell::p50_ms);
    emit("p99_ms", &cell::p99_ms);
    emit("miss_frac", &cell::miss_frac);
    emit("shed_frac", &cell::shed_frac);
    emit("lost_frac", &cell::lost_frac);
    emit("retries", &cell::retries);
    emit("failovers", &cell::failovers);
    emit("reclaimed", &cell::reclaimed);
    json.end_object();
  }
  json.end_array().end_object();
  std::printf("\n%s %s\n", json.ok() ? "wrote" : "FAILED to write",
              json_path.c_str());

  std::printf(
      "expected: lost_frac 0 at level 1 and wherever retries cover the "
      "crashes; miss/shed fractions lowest at level 1 and rising with "
      "intensity; conservation held in every cell (or this binary would "
      "have exited 1); shared-queue dispatchers reclaim nothing, po2 "
      "reclaims its dead workers' stranded FIFOs; mq tracks fcfs or "
      "better on miss_frac/shed_frac; at PCQ_MAX_THREADS=2 this "
      "artifact is byte-identical to the committed baseline (the CI "
      "gate).\n");
  return 0;
}
