// SERVICE — queue-level vs scheduler-level choice for request
// scheduling (service/{workload,dispatch,fault,server}.hpp), in two
// sweeps over the same four dispatchers on IDENTICAL traces:
//
//   mq   — the paper's MultiQueue on deadline keys: power-of-d choice at
//          POP time inside one shared relaxed priority queue;
//   fcfs — one strict shared queue on arrival order (the single-MPMC
//          baseline every RPC server starts from);
//   edf  — one strict shared queue on deadline (exact earliest-deadline
//          -first; what mq relaxes);
//   po2  — power-of-2-choices over per-worker FIFOs at DISPATCH time
//          (the scheduler-level choice of the load-balancing
//          literature) — no stealing, so a misrouted request pays its
//          full delay.
//
// load  — open-loop Poisson arrivals at offered load ρ = λ·E[S]/workers
//         from 0.5 to 0.95, with exponential (C² = 1) and Pareto α = 2.2
//         service times (the "variance trap": finite mean, barely-finite
//         variance — the regime where the cost of a scheduling decision
//         lives in p99/p999). Emits BENCH_service.json: x-axis
//         ("threads") = offered load percent, one series per dispatcher
//         × service distribution with sojourn percentiles and mean
//         wait/sojourn in ms.
// fault — one ρ = 0.9 exponential trace perturbed by the seeded
//         fault_config::at_intensity ladder (level 1 healthy; 2..5 add
//         slow, stalled and crashed workers and arrival bursts), with
//         admission shedding, bounded crash retry and stall failover
//         armed. Emits BENCH_fault.json: x-axis = intensity level, one
//         series per dispatcher with sojourn percentiles, the
//         degradation fractions miss_frac / shed_frac / lost_frac and
//         the retry / failover / reclaim counters.
//
// Every run is run_service_virtual: a discrete-event simulation in
// virtual time with kWorkers SIMULATED workers. Both artifacts are pure
// functions of the committed seeds — the same bytes on any machine and
// at any PCQ_MAX_THREADS — so CI gates each with cmp against its
// committed baseline under bench/baselines/. "mops" is million
// completed requests per virtual second. Realtime latency is measured
// by benchmark/'s rpc_open_loop workload; the realtime runner has no
// fault model, and its races are covered by test_service.
//
// HARD INVARIANT (this binary exits 1 on any violation), in every cell:
//
//   completed + shed + lost == dispatched == trace size
//
// — every request is served, shed at admission, or lost to a crash with
// retries exhausted, exactly once; a healthy load cell completes all of
// them. Also: the latency summary holds exactly the completed samples,
// and no crashed worker starts a request at or after its crash tick.

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
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

constexpr std::size_t kWorkers = 8;  // simulated, so machine-independent
constexpr double kMeanService = 50e-6;  // 50 µs: RPC-sized work
const char* const kDispatchers[4] = {"mq", "fcfs", "edf", "po2"};

struct cell {
  double mops = 0.0;  ///< million completed requests / virtual second
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double mean_wait_ms = 0.0;
  double mean_sojourn_ms = 0.0;
  double miss_frac = 0.0;
  double shed_frac = 0.0;
  double lost_frac = 0.0;
  double retries = 0.0;
  double failovers = 0.0;
  double reclaimed = 0.0;
};

using cells = std::array<cell, 4>;  ///< one per kDispatchers entry

/// Conservation + accounting checks shared by every cell; exits
/// nonzero (the bench IS the gate) on any violation.
void enforce_invariants(const std::string& where,
                        const std::vector<request>& trace,
                        const service_result& result, const fault_plan& plan,
                        const degrade_config& degrade) {
  const std::uint64_t accounted =
      result.completed + result.shed + result.lost;
  const bool healthy = plan.workers.empty() && !degrade.admission_control;
  if (result.dispatched != trace.size() || accounted != result.dispatched ||
      (healthy && result.completed != trace.size())) {
    std::fprintf(stderr,
                 "CONSERVATION VIOLATION [%s]: completed %llu + shed %llu + "
                 "lost %llu != dispatched %llu (trace %zu)\n",
                 where.c_str(),
                 static_cast<unsigned long long>(result.completed),
                 static_cast<unsigned long long>(result.shed),
                 static_cast<unsigned long long>(result.lost),
                 static_cast<unsigned long long>(result.dispatched),
                 trace.size());
    std::exit(1);
  }
  const latency_report report = summarize(result);
  if (report.sojourn.count() != result.completed) {
    std::fprintf(stderr,
                 "VIOLATION [%s]: summary holds %zu samples, completed "
                 "%llu\n",
                 where.c_str(), report.sojourn.count(),
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
                     "VIOLATION [%s]: crashed worker %zu started seq %llu "
                     "at %.9f, at/after its crash tick %.9f\n",
                     where.c_str(), w, static_cast<unsigned long long>(r.seq),
                     r.start, f.crash_time);
        std::exit(1);
      }
    }
  }
}

template <typename Dispatcher>
cell measure(const std::vector<request>& trace, Dispatcher& dispatcher,
             const fault_plan& plan, const degrade_config& degrade,
             const std::string& where) {
  const service_result result =
      run_service_virtual(trace, dispatcher, kWorkers, plan, degrade);
  enforce_invariants(where, trace, result, plan, degrade);
  const latency_report report = summarize(result);
  cell c;
  c.mops = result.seconds > 0.0
               ? static_cast<double>(result.completed) / result.seconds / 1e6
               : 0.0;
  c.p50_ms = report.sojourn.p50() * 1e3;
  c.p95_ms = report.sojourn.p95() * 1e3;
  c.p99_ms = report.sojourn.p99() * 1e3;
  c.p999_ms = report.sojourn.p999() * 1e3;
  c.mean_wait_ms = report.wait.mean() * 1e3;
  c.mean_sojourn_ms = report.sojourn.mean() * 1e3;
  c.miss_frac = result.miss_frac();
  c.shed_frac = result.shed_frac();
  c.lost_frac = result.lost_frac();
  c.retries = static_cast<double>(result.retries);
  c.failovers = static_cast<double>(result.failovers);
  c.reclaimed = static_cast<double>(result.reclaimed);
  return c;
}

/// The four dispatchers on one trace, each fresh; po2 is seeded from the
/// trace's seed.
cells run_dispatchers(const std::vector<request>& trace,
                      std::uint64_t trace_seed, const fault_plan& plan,
                      const degrade_config& degrade,
                      const std::string& where) {
  auto mq = make_mq_dispatcher(kWorkers);
  auto fcfs = make_fcfs_dispatcher(kWorkers);
  auto edf = make_edf_dispatcher(kWorkers);
  po2_dispatcher po2(kWorkers, derive_seed(trace_seed, 99));
  return {measure(trace, mq, plan, degrade, where),
          measure(trace, fcfs, plan, degrade, where),
          measure(trace, edf, plan, degrade, where),
          measure(trace, po2, plan, degrade, where)};
}

/// One table row per metric: x, metric index, then the four dispatchers.
void print_rows(table_printer& table, double x, const cells& row_cells,
                std::initializer_list<double cell::*> metrics) {
  int index = 0;
  for (double cell::*metric : metrics) {
    std::vector<double> row{x, static_cast<double>(index++)};
    for (const cell& c : row_cells) row.push_back(c.*metric);
    table.row(row);
  }
}

struct series {
  std::string name;
  std::vector<cell> cells;  ///< one per x-axis entry
};

struct column {
  const char* key;
  double cell::*member;
};

/// Finishes an artifact whose header keys the caller has written: the
/// x-axis ("threads"), then every series' arrays, one per column.
void finish_artifact(json_writer& json, const std::string& path,
                     const std::vector<unsigned>& xs,
                     const std::vector<series>& all,
                     std::initializer_list<column> columns) {
  json.key("threads").begin_array();
  for (const unsigned x : xs) json.value(x);
  json.end_array();
  json.key("series").begin_array();
  for (const series& s : all) {
    json.begin_object().kv("name", s.name);
    for (const column& col : columns) {
      json.key(col.key).begin_array();
      for (const cell& c : s.cells) json.value(c.*col.member);
      json.end_array();
    }
    json.end_object();
  }
  json.end_array().end_object();
  std::printf("\n%s %s\n", json.ok() ? "wrote" : "FAILED to write",
              path.c_str());
}

void run_load_sweep() {
  const std::size_t requests = scaled<std::size_t>(6000, 200000);
  const double rhos[5] = {0.50, 0.70, 0.80, 0.90, 0.95};
  const service_dist dists[2] = {
      service_dist::exponential_mean(kMeanService),
      service_dist::pareto_mean(2.2, kMeanService)};

  print_header(
      "SERVICE: latency vs offered load, queue-level vs scheduler-level "
      "choice",
      "open-loop Poisson arrivals, " + std::to_string(kWorkers) +
          " simulated workers (virtual time); sojourn in ms; mq = "
          "MultiQueue(deadline), po2 = power-of-2 over per-worker FIFOs");

  // all[dispatcher * 2 + dist]: the artifact's series order.
  std::vector<series> all;
  for (const char* name : kDispatchers) {
    for (const service_dist& dist : dists) {
      all.push_back({std::string(name) + "_" + dist.name(), {}});
    }
  }
  for (std::size_t d = 0; d < 2; ++d) {
    print_header(std::string("SERVICE: ") + dists[d].name() +
                     " service times (mean 50us)",
                 "metric 0..3 per offered load: p50 | p99 | p999 | mean "
                 "wait (ms)");
    table_printer table({"rho%", "metric", "mq", "fcfs", "edf", "po2"});
    for (std::size_t r = 0; r < 5; ++r) {
      workload_config cfg;
      cfg.num_requests = requests;
      cfg.service = dists[d];
      cfg.arrival_rate = arrival_rate_for_load(rhos[r], kWorkers, dists[d]);
      cfg.seed = derive_seed(0x53657276u, d * 100 + r);
      const cells row = run_dispatchers(
          make_open_loop_trace(cfg), cfg.seed, fault_plan{},
          degrade_config{},
          std::string(dists[d].name()) + " rho " + std::to_string(rhos[r]));
      for (std::size_t s = 0; s < 4; ++s) {
        all[s * 2 + d].cells.push_back(row[s]);
      }
      print_rows(table, rhos[r] * 100.0, row,
                 {&cell::p50_ms, &cell::p99_ms, &cell::p999_ms,
                  &cell::mean_wait_ms});
    }
  }

  const std::string path = json_artifact_path("BENCH_service.json");
  json_writer json(path);
  json.begin_object()
      .kv("bench", "service")
      .kv("unit",
          "mops = million completed requests per virtual second; x-axis = "
          "offered load percent")
      .kv("full_scale", full_scale())
      .kv("workers", kWorkers)
      .kv("requests", requests)
      .kv("mean_service_us", kMeanService * 1e6)
      .kv("pareto_shape", 2.2);
  std::vector<unsigned> xs;
  for (const double rho : rhos) {
    xs.push_back(static_cast<unsigned>(rho * 100.0 + 0.5));
  }
  finish_artifact(json, path, xs, all,
                  {{"mops", &cell::mops},
                   {"p50_ms", &cell::p50_ms},
                   {"p95_ms", &cell::p95_ms},
                   {"p99_ms", &cell::p99_ms},
                   {"p999_ms", &cell::p999_ms},
                   {"mean_wait_ms", &cell::mean_wait_ms},
                   {"mean_sojourn_ms", &cell::mean_sojourn_ms}});
}

void run_fault_ladder() {
  const std::size_t requests = scaled<std::size_t>(4000, 60000);
  const double rho = 0.90;  // high load, so faults actually bite
  constexpr unsigned kLevels = 5;
  const std::uint64_t fault_seed = 0x4661756Cu;

  // One base workload for the whole ladder: level-to-level differences
  // are the injected faults (plus their burst perturbation), nothing
  // else.
  workload_config wcfg;
  wcfg.num_requests = requests;
  wcfg.service = service_dist::exponential_mean(kMeanService);
  wcfg.arrival_rate = arrival_rate_for_load(rho, kWorkers, wcfg.service);
  wcfg.seed = derive_seed(fault_seed, 7);
  const std::vector<request> base_trace = make_open_loop_trace(wcfg);

  print_header(
      "FAULT: graceful degradation vs fault intensity, queue-level vs "
      "scheduler-level choice",
      std::to_string(kWorkers) +
          " simulated workers at rho=0.9; level 1 healthy, 2..5 add slow / "
          "stall / crash workers and arrival bursts; admission + retry + "
          "failover armed; metric 0..3: p99 ms | miss | shed | lost");

  std::vector<series> all;
  for (const char* name : kDispatchers) all.push_back({name, {}});
  std::vector<unsigned> xs;
  table_printer table({"level", "metric", "mq", "fcfs", "edf", "po2"});
  for (unsigned level = 1; level <= kLevels; ++level) {
    const fault_config fcfg =
        fault_config::at_intensity(level, derive_seed(fault_seed, level));
    const std::vector<request> trace =
        apply_bursts(base_trace, plan_bursts(fcfg, trace_span(base_trace)));
    const double span = trace_span(trace);
    const fault_plan plan = make_fault_plan(fcfg, kWorkers, span);

    degrade_config degrade;
    degrade.admission_control = true;
    degrade.est_service = trace_mean_service(trace);
    degrade.max_retries = 3;
    degrade.retry_backoff = kMeanService;
    // Fire failover a quarter of the way into a stall window, so a
    // frozen in-flight request is duplicated well before the window
    // ends at every scale; infinity when the level has no stalls.
    degrade.failover_timeout =
        fcfg.stall_duration_frac > 0.0
            ? 0.25 * fcfg.stall_duration_frac * span
            : std::numeric_limits<double>::infinity();

    const cells row = run_dispatchers(trace, wcfg.seed, plan, degrade,
                                      "level " + std::to_string(level));
    for (std::size_t s = 0; s < 4; ++s) all[s].cells.push_back(row[s]);
    xs.push_back(level);
    print_rows(table, level, row,
               {&cell::p99_ms, &cell::miss_frac, &cell::shed_frac,
                &cell::lost_frac});
  }

  const std::string path = json_artifact_path("BENCH_fault.json");
  json_writer json(path);
  json.begin_object()
      .kv("bench", "fault")
      .kv("unit",
          "x-axis = fault intensity level (1 = healthy); mops = million "
          "completed requests per virtual second; fractions in [0,1]")
      .kv("full_scale", full_scale())
      .kv("workers", kWorkers)
      .kv("requests", requests)
      .kv("rho", rho)
      .kv("mean_service_us", kMeanService * 1e6);
  finish_artifact(json, path, xs, all,
                  {{"mops", &cell::mops},
                   {"p50_ms", &cell::p50_ms},
                   {"p99_ms", &cell::p99_ms},
                   {"miss_frac", &cell::miss_frac},
                   {"shed_frac", &cell::shed_frac},
                   {"lost_frac", &cell::lost_frac},
                   {"retries", &cell::retries},
                   {"failovers", &cell::failovers},
                   {"reclaimed", &cell::reclaimed}});
}

}  // namespace

int main() {
  run_load_sweep();
  run_fault_ladder();
  std::printf(
      "expected: load — the four dispatchers are close at rho <= 0.7; from "
      "0.8 up the deadline-keyed edf and mq have the lowest mean wait "
      "(deadlines scale with service, so short requests go first) while "
      "fcfs keeps the lowest p99/p999 (at rho 0.95 pareto: fcfs 1.25 ms, "
      "mq 2.20, edf 3.01) and mq sits between fcfs and edf; po2 has the "
      "highest mean wait and p50 at every load (work waits in one FIFO "
      "while other workers idle). fault — lost_frac 0 wherever retries "
      "cover the crashes; miss/shed fractions lowest at level 1 and rising "
      "with intensity; shared-queue dispatchers reclaim nothing, po2 "
      "reclaims its dead workers' stranded FIFOs; both artifacts "
      "byte-identical to the committed baselines (the CI gates).\n");
  return 0;
}
