// SERVICE — latency vs offered load for queue-level vs scheduler-level
// choice (the ROADMAP's request-scheduling slice, through
// service/{workload,dispatch,server}.hpp).
//
// Open-loop Poisson arrivals at offered load ρ = λ·E[S]/workers are run
// against four dispatchers on IDENTICAL traces:
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
// Service times are exponential (C² = 1) and Pareto α = 2.2 (the
// "variance trap": finite mean, barely-finite variance — the regime
// where the user-visible cost of a scheduling decision lives in p99/p999,
// which is why this bench reports percentiles, not just throughput).
//
// The measured path is run_service_realtime with an empty fault plan
// (so no recovery work): real threads, wall-clock pacing,
// per-worker lock-free logs, percentiles via the exact sorted-merge
// latency_summary. Every cell is gated on full completion (a lost
// request exits nonzero).
//
// Emits BENCH_service.json: x-axis ("threads") = offered load percent,
// one series per dispatcher × service distribution; "mops" = million
// completed requests per second (≈ λ when the system keeps up — CI
// gates mq_* normalized by the same run's fcfs_exp, so machine speed
// and runner load cancel), plus p50/p95/p99/p999 sojourn and mean
// wait/sojourn in milliseconds.
//
// Workers default to max_threads() (hardware concurrency) and the
// arrival thread makes one more, so a default run is oversubscribed:
// when hardware_concurrency < workers + 1 the bench warns on stderr and
// writes "oversubscribed": true into the artifact (false otherwise) —
// its latencies then include time spent waiting for a core.
//
// Env knobs: PCQ_MAX_THREADS caps the worker count,
// PCQ_SERVICE_REQUESTS overrides requests per cell, PCQ_SERVICE_MAX_RHO
// trims the load grid (CI's TSan smoke runs a short grid at small n).

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "benchlib/bench_env.hpp"
#include "benchlib/json_writer.hpp"
#include "benchlib/table_printer.hpp"
#include "core/multi_queue.hpp"
#include "service/dispatch.hpp"
#include "service/server.hpp"
#include "service/workload.hpp"

namespace {

using namespace pcq;
using namespace pcq::bench;
using namespace pcq::service;

struct cell {
  double mops = 0.0;  ///< million completed requests / second
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double mean_wait_ms = 0.0;
  double mean_sojourn_ms = 0.0;
};

std::size_t env_count(const char* name, std::size_t fallback) {
  if (const char* value = std::getenv(name)) {
    const long parsed = std::atol(value);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return fallback;
}

double env_rho_cap() {
  if (const char* value = std::getenv("PCQ_SERVICE_MAX_RHO")) {
    const double parsed = std::atof(value);
    if (parsed > 0.0) return parsed;
  }
  return 1.0;
}

template <typename Dispatcher>
cell measure(const std::vector<request>& trace, Dispatcher& dispatcher,
             std::size_t workers) {
  const service_result result =
      run_service_realtime(trace, dispatcher, workers);
  if (result.completed != trace.size()) {
    std::fprintf(stderr, "SERVICE VIOLATION: completed %llu of %zu\n",
                 static_cast<unsigned long long>(result.completed),
                 trace.size());
    std::exit(1);
  }
  const latency_report report = summarize(result);
  if (report.sojourn.count() != trace.size()) {
    std::fprintf(stderr, "SERVICE VIOLATION: summary lost samples\n");
    std::exit(1);
  }
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
  return c;
}

}  // namespace

int main() {
  const std::size_t workers = max_threads();
  const std::size_t requests = env_count(
      "PCQ_SERVICE_REQUESTS", scaled<std::size_t>(6000, 200000));
  const double mean_service = 50e-6;  // 50 µs: RPC-sized work
  const double rho_cap = env_rho_cap();
  const unsigned cores = std::thread::hardware_concurrency();
  const bool oversubscribed = cores < workers + 1;
  if (oversubscribed) {
    std::fprintf(stderr,
                 "warning: %zu workers + 1 arrival thread on %u hardware "
                 "threads: oversubscribed, latencies include waits for a "
                 "core\n",
                 workers, cores);
  }

  std::vector<double> rho_grid;
  for (const double rho : {0.50, 0.70, 0.80, 0.90, 0.95}) {
    if (rho <= rho_cap) rho_grid.push_back(rho);
  }

  const service_dist dists[2] = {
      service_dist::exponential_mean(mean_service),
      service_dist::pareto_mean(2.2, mean_service)};
  const char* dispatcher_names[4] = {"mq", "fcfs", "edf", "po2"};

  print_header(
      "SERVICE: latency vs offered load, queue-level vs scheduler-level "
      "choice",
      "open-loop Poisson arrivals, " + std::to_string(workers) +
          " workers; sojourn percentiles in ms; mq = MultiQueue(deadline), "
          "po2 = power-of-2 over per-worker FIFOs");

  // results[dist][dispatcher][rho index]
  std::vector<std::vector<std::vector<cell>>> results(
      2, std::vector<std::vector<cell>>(4));

  for (std::size_t d = 0; d < 2; ++d) {
    print_header(std::string("SERVICE: ") + dists[d].name() +
                     " service times (mean 50us)",
                 "per offered load: Mreq/s | p50 | p99 | p999 | mean wait "
                 "(ms)");
    table_printer table({"rho%", "metric", "mq", "fcfs", "edf", "po2"});
    for (std::size_t r = 0; r < rho_grid.size(); ++r) {
      workload_config cfg;
      cfg.num_requests = requests;
      cfg.service = dists[d];
      cfg.arrival_rate =
          arrival_rate_for_load(rho_grid[r], workers, dists[d]);
      cfg.seed = derive_seed(0x53657276u, d * 100 + r);
      const std::vector<request> trace = make_open_loop_trace(cfg);

      {
        auto mq = make_mq_dispatcher(workers);
        results[d][0].push_back(measure(trace, mq, workers));
      }
      {
        auto fcfs = make_fcfs_dispatcher(workers);
        results[d][1].push_back(measure(trace, fcfs, workers));
      }
      {
        auto edf = make_edf_dispatcher(workers);
        results[d][2].push_back(measure(trace, edf, workers));
      }
      {
        po2_dispatcher po2(workers, derive_seed(cfg.seed, 99));
        results[d][3].push_back(measure(trace, po2, workers));
      }

      for (int metric = 0; metric < 4; ++metric) {
        std::vector<double> row{rho_grid[r] * 100.0,
                                static_cast<double>(metric)};
        for (std::size_t s = 0; s < 4; ++s) {
          const cell& c = results[d][s].back();
          row.push_back(metric == 0   ? c.mops
                        : metric == 1 ? c.p50_ms
                        : metric == 2 ? c.p99_ms
                                      : c.p999_ms);
        }
        table.row(row);
      }
    }
  }

  const std::string json_path = json_artifact_path("BENCH_service.json");
  json_writer json(json_path);
  json.begin_object()
      .kv("bench", "service")
      .kv("unit",
          "mops = million completed requests per second; x-axis = offered "
          "load percent")
      .kv("full_scale", full_scale())
      .kv("workers", workers)
      .kv("oversubscribed", oversubscribed)
      .kv("requests", requests)
      .kv("mean_service_us", mean_service * 1e6)
      .kv("pareto_shape", 2.2);
  json.key("threads").begin_array();
  for (const double rho : rho_grid) {
    json.value(static_cast<unsigned long long>(rho * 100.0 + 0.5));
  }
  json.end_array();
  json.key("series").begin_array();
  for (std::size_t s = 0; s < 4; ++s) {
    for (std::size_t d = 0; d < 2; ++d) {
      json.begin_object().kv(
          "name", std::string(dispatcher_names[s]) + "_" + dists[d].name());
      const auto emit = [&json, &results, s, d](const char* key,
                                                double cell::*member) {
        json.key(key).begin_array();
        for (const cell& c : results[d][s]) json.value(c.*member);
        json.end_array();
      };
      emit("mops", &cell::mops);
      emit("p50_ms", &cell::p50_ms);
      emit("p95_ms", &cell::p95_ms);
      emit("p99_ms", &cell::p99_ms);
      emit("p999_ms", &cell::p999_ms);
      emit("mean_wait_ms", &cell::mean_wait_ms);
      emit("mean_sojourn_ms", &cell::mean_sojourn_ms);
      json.end_object();
    }
  }
  json.end_array().end_object();
  std::printf("\n%s %s\n", json.ok() ? "wrote" : "FAILED to write",
              json_path.c_str());

  std::printf(
      "expected: all dispatchers complete the offered load (mops ≈ "
      "rho*workers/50us); under exp service the four are close; under "
      "pareto, FCFS p99/p999 blow up first (one elephant blocks the one "
      "line), po2 strands work behind elephants in per-worker FIFOs, and "
      "the shared-queue schedulers (edf, mq) degrade latest — needs real "
      "cores; on a 1-2 core box all four serialize together.\n");
  return 0;
}
