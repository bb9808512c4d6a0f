// EXEC — the executor layer benchmark: real-work DAG and fork-join
// workloads (exec/dag_workloads.hpp) scheduled through pluggable ready
// queues. The comparison this bench exists for is QUEUE-LEVEL choice
// (the MultiQueue's (1+beta)/d pop-time sampling over one relaxed
// priority order) vs SCHEDULER-LEVEL choice (the Chase–Lev steal-deque
// pool: per-worker LIFO, random-victim steals, no priority order at
// all), with the coarse global heap as the strict contention-bound
// anchor.
//
// Every task runs a deterministic compute kernel (task_kernel rounds),
// and EVERY CELL IS VERIFIED: parallel outputs must equal the
// sequential oracle bit-for-bit (the kernels are commutative over
// predecessors), the topological-release invariant must hold, and
// conservation must be exact (executed == spawned == task count) — a
// violation exits nonzero, so CI smoke runs gate correctness, not just
// schema shape.
//
// Workloads: grid DAG (long chains, narrow ready set — scheduling
// quality barely matters, raw pop cost dominates), random DAG (wide
// ready set — priority order controls the frontier), fork-join
// reduction (a binary tree of tasks whose joins cascade inline; one task
// per tree node).
//
// Each cell is the median of verified trials that rotate through the
// four series after one untimed warm-up round: five at smoke scale,
// trials() at full scale. Fork-join rounds also time the sequential sum;
// each fork-join cell's time per reduction is printed over its median
// (forkjoin_seq_ms, ungated). Each fork-join trial is followed by a
// kernel-free one (rounds = 0) of the same series, whose ns per task is
// the executor's own cost without the leaf loop (forkjoin0_mops,
// ungated).
//
// The rank pass runs the DAG task process (sim/graph_process.hpp) on
// smaller DAGs through six queues, the k-LSM, SprayList and LJ skiplist
// in place of the steal pool: one verified run_dag_executor per cell,
// zero-round kernels and one task per pop, whose recorded settle order
// sim::settle_ranks replays (an unmatched settle exits nonzero). The
// rank of a settle is the number of READY tasks of smaller priority.
//
// Emits BENCH_exec.json: threads sweep, one series per scheduler;
// "mops" = million grid-DAG tasks per second (the gated headline),
// plus random_mops, forkjoin_mops and forkjoin0_mops arrays. One thread
// makes a rank cell a pure function of the seeds, so the "one_thread"
// object is the same at any PCQ_MAX_THREADS and CI gates it exactly;
// "rank_sweep" holds every thread count's ranks, ungated.

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "benchlib/bench_env.hpp"
#include "benchlib/json_writer.hpp"
#include "benchlib/queue_roster.hpp"
#include "benchlib/table_printer.hpp"
#include "exec/dag_workloads.hpp"
#include "exec/executor.hpp"
#include "graph/generators.hpp"
#include "sim/graph_process.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace pcq;
using namespace pcq::bench;
using pcq::graph::csr_graph;

constexpr const char* kUngated =
    "rank_sweep entries at threads > 1 are ungated: their rank depends on "
    "how the OS interleaves the threads";

struct dag_workload {
  const char* name;
  csr_graph dag;
  std::vector<std::uint64_t> oracle;  // the sequential outputs
  std::uint32_t rounds;
};

dag_workload make_workload(const char* name, const csr_graph& g,
                           std::uint32_t rounds) {
  dag_workload w{name, sim::make_dag(g), {}, rounds};
  w.oracle = exec::sequential_dag_outputs(w.dag, rounds);
  return w;
}

// Exits 1 unless a DAG run settled and executed every task exactly once,
// in topological order, with the oracle's outputs, and its replay (if
// any) matched every settle.
void verify_dag(const std::string& queue, const dag_workload& w,
                std::size_t threads, const exec::dag_exec_result& res,
                std::uint64_t unmatched = 0) {
  const std::size_t n = w.dag.num_nodes();
  if (res.topo_ok && res.settled == n && res.stats.executed == n &&
      res.stats.spawned == n && unmatched == 0 && res.outputs == w.oracle) {
    return;
  }
  std::fprintf(stderr,
               "EXEC VIOLATION (%s, %s DAG, %zu threads): topo_ok=%d "
               "settled=%llu executed=%llu spawned=%llu of %zu, "
               "unmatched=%llu, outputs %s oracle\n",
               queue.c_str(), w.name, threads, res.topo_ok ? 1 : 0,
               static_cast<unsigned long long>(res.settled),
               static_cast<unsigned long long>(res.stats.executed),
               static_cast<unsigned long long>(res.stats.spawned), n,
               static_cast<unsigned long long>(unmatched),
               res.outputs == w.oracle ? "match" : "MISMATCH");
  std::exit(1);
}

// One verified run of the DAG executor; million executed tasks per second.
template <typename Queue>
double dag_trial(const std::string& name, const dag_workload& w,
                 std::size_t threads, Queue& queue) {
  const exec::dag_exec_result res =
      exec::run_dag_executor(w.dag, threads, queue, w.rounds);
  verify_dag(name, w, threads, res);
  return res.stats.seconds > 0.0 ? static_cast<double>(res.settled) /
                                       res.stats.seconds / 1e6
                                 : 0.0;
}

// One verified run of the fork-join reduction.
template <typename Queue>
double forkjoin_trial(const std::string& name,
                      const exec::forkjoin_params& params,
                      std::uint64_t oracle_sum, std::uint64_t oracle_jobs,
                      std::size_t threads, Queue& queue) {
  const exec::forkjoin_result res =
      exec::run_forkjoin_executor(threads, queue, params);
  if (res.sum != oracle_sum || res.stats.executed != oracle_jobs ||
      res.stats.spawned != oracle_jobs) {
    std::fprintf(stderr,
                 "EXEC VIOLATION (%s forkjoin, %zu threads): sum %s "
                 "oracle, executed=%llu spawned=%llu of %llu tasks\n",
                 name.c_str(), threads,
                 res.sum == oracle_sum ? "match" : "MISMATCH",
                 static_cast<unsigned long long>(res.stats.executed),
                 static_cast<unsigned long long>(res.stats.spawned),
                 static_cast<unsigned long long>(oracle_jobs));
    std::exit(1);
  }
  return res.stats.seconds > 0.0 ? static_cast<double>(res.stats.executed) /
                                       res.stats.seconds / 1e6
                                 : 0.0;
}

// The artifact's rank fields, each prefixed by its DAG's name, in the
// order of a rank_cell.
const char* const kRankFields[] = {"mean_rank", "max_rank",
                                   "inversion_frac"};
using rank_cell = std::array<double, 3>;

// One verified recording run and its replayed settle ranks.
template <typename Queue>
rank_cell rank_trial(const std::string& name, const dag_workload& w,
                     std::size_t threads, Queue& queue) {
  const auto res = exec::run_dag_executor(w.dag, threads, queue, 0, true);
  const replay_report ranks = sim::settle_ranks(w.dag, res.settle_order);
  verify_dag(name, w, threads, res, ranks.unmatched);
  return {ranks.rank_stats.mean(), ranks.rank_stats.max(),
          ranks.deletions > 0 ? static_cast<double>(ranks.inversions) /
                                    static_cast<double>(ranks.deletions)
                              : 0.0};
}

// A table whose columns are `columns` followed by one per series.
table_printer series_table(std::vector<std::string> columns,
                           const std::vector<std::string>& series) {
  columns.insert(columns.end(), series.begin(), series.end());
  return table_printer(std::move(columns));
}

}  // namespace

int main() {
  // Smoke cells are sized to last 3-7 ms each (1-2 threads on a
  // 4-vCPU x86-64 box), so one host stall of a few ms slows at most one
  // of a series' rotated trials.
  const auto grid_side = scaled<std::uint32_t>(96, 192);
  const auto random_nodes = scaled<std::uint32_t>(12288, 131072);
  const auto rounds = scaled<std::uint32_t>(64, 256);

  graph::road_network_params grid_params;
  grid_params.width = grid_side;
  grid_params.height = grid_side;
  grid_params.seed = 0x65786563u;  // "exec"
  graph::random_graph_params rnd_params;
  rnd_params.nodes = random_nodes;
  rnd_params.avg_degree = 4.0;
  rnd_params.seed = 0x65786564u;
  const dag_workload timed_dags[2] = {
      make_workload("grid", graph::make_road_network(grid_params), rounds),
      make_workload("random", graph::make_random_graph(rnd_params), rounds)};

  // The rank pass's DAGs: smaller, and zero-round kernels, since only the
  // settle order is measured.
  graph::road_network_params rank_grid_params;
  rank_grid_params.width = scaled<std::uint32_t>(64, 256);
  rank_grid_params.height = rank_grid_params.width;
  rank_grid_params.seed = 0x657874u;  // "ext"
  graph::random_graph_params rank_rnd_params;
  rank_rnd_params.nodes = scaled<std::uint32_t>(4096, 262144);
  rank_rnd_params.avg_degree = 4.0;
  rank_rnd_params.seed = 0x657875u;
  const dag_workload rank_dags[2] = {
      make_workload("grid", graph::make_road_network(rank_grid_params), 0),
      make_workload("random", graph::make_random_graph(rank_rnd_params), 0)};

  exec::forkjoin_params fj;
  fj.items = scaled<std::uint64_t>(1u << 17, 1u << 21);
  fj.grain = 64;
  fj.rounds = scaled<std::uint32_t>(16, 64);
  const std::uint64_t fj_oracle = exec::sequential_forkjoin_sum(fj);
  const std::uint64_t fj_jobs =
      exec::forkjoin_job_count(0, fj.items, fj.grain);
  exec::forkjoin_params fj0 = fj;  // the same tree, kernel-free leaves
  fj0.rounds = 0;
  const std::uint64_t fj0_oracle = exec::sequential_forkjoin_sum(fj0);

  print_header(
      "EXEC: executor layer — queue-level vs scheduler-level choice",
      "million executed tasks/s; every cell verified against the "
      "sequential oracle (outputs, topo invariant, conservation)");
  std::printf("grid DAG: %u tasks; random DAG: %u tasks; fork-join: "
              "%llu tasks; kernel rounds=%u (PCQ_BENCH_FULL=%d)\n",
              timed_dags[0].dag.num_nodes(), timed_dags[1].dag.num_nodes(),
              static_cast<unsigned long long>(fj_jobs), rounds,
              full_scale() ? 1 : 0);

  const std::vector<std::string> series_names{"mq_b1.0", "mq_b0.5", "steal",
                                              "coarse"};

  // The median takes five trials at smoke scale, dropping up to two
  // slowed by a host stall (docs/BENCHMARKS.md gives the gate's measured
  // failure rate).
  const unsigned cell_trials = scaled(5u, trials());

  std::vector<std::size_t> thread_counts;
  for (std::size_t t = 1; t <= max_threads(); t *= 2) {
    thread_counts.push_back(t);
  }

  // results[workload][series][thread index] = median Mops/s; workloads:
  // grid, random, fj.
  std::vector<std::vector<std::vector<double>>> results(
      3, std::vector<std::vector<double>>(series_names.size()));
  const char* workload_names[3] = {"grid", "random", "forkjoin"};
  std::vector<double> seq_ms;  // timed sequential fork-join sums
  // forkjoin0[series][thread index] = median Mops/s, kernel-free.
  std::vector<std::vector<double>> forkjoin0(series_names.size());

  for (std::size_t w = 0; w < 3; ++w) {
    print_header(std::string("EXEC: ") + workload_names[w] + " workload",
                 "million executed tasks per second, higher is better");
    table_printer table = series_table({"threads"}, series_names);
    for (const std::size_t t : thread_counts) {
      // One verified trial of series s on a fresh queue; kernel_free
      // picks the zero-round fork-join tree.
      const auto trial = [&](std::size_t s, bool kernel_free) {
        return with_queue(series_names[s], t, [&](auto& queue) {
          if (w < 2)
            return dag_trial(series_names[s], timed_dags[w], t, queue);
          return kernel_free ? forkjoin_trial(series_names[s], fj0,
                                              fj0_oracle, fj_jobs, t, queue)
                             : forkjoin_trial(series_names[s], fj, fj_oracle,
                                              fj_jobs, t, queue);
        });
      };
      // Trials rotate through the series, so a burst of interference
      // costs each series one trial, which the median drops, instead of
      // setting one cell. Round 0 is an untimed warm-up of every series.
      // Each fork-join trial is followed by its kernel-free twin, and
      // fork-join rounds end with the sequential sum.
      std::vector<std::vector<double>> mops(series_names.size());
      std::vector<std::vector<double>> mops0(series_names.size());
      for (unsigned round = 0; round <= cell_trials; ++round) {
        for (std::size_t s = 0; s < series_names.size(); ++s) {
          const double m = trial(s, false);
          if (round > 0) mops[s].push_back(m);
          if (w < 2) continue;
          const double m0 = trial(s, true);
          if (round > 0) mops0[s].push_back(m0);
        }
        if (w < 2) continue;
        const wall_timer timer;
        if (exec::sequential_forkjoin_sum(fj) != fj_oracle) {
          std::fprintf(stderr, "EXEC VIOLATION: sequential fork-join sum "
                               "differs from its first run\n");
          return 1;
        }
        if (round > 0) seq_ms.push_back(timer.elapsed_seconds() * 1e3);
      }
      std::vector<double> row{static_cast<double>(t)};
      for (std::size_t s = 0; s < series_names.size(); ++s) {
        results[w][s].push_back(percentile(mops[s], 0.5));
        row.push_back(results[w][s].back());
        if (w == 2) forkjoin0[s].push_back(percentile(mops0[s], 0.5));
      }
      table.row(row);
    }
  }

  // Time per reduction of each fork-join cell over the sequential sum's:
  // the leaf kernels' speed moves with where the compiler places their
  // loop, and the sequential sum shows how much of a cell that is.
  const double forkjoin_seq_ms = percentile(seq_ms, 0.5);
  print_header("EXEC: fork-join time per reduction / sequential sum",
               "sequential sum median " + std::to_string(forkjoin_seq_ms) +
                   " ms over every timed round; ungated");
  table_printer fj_table = series_table({"threads"}, series_names);
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    std::vector<double> row{static_cast<double>(thread_counts[i])};
    for (std::size_t s = 0; s < series_names.size(); ++s) {
      const double m = results[2][s][i];
      row.push_back(m > 0.0 ? static_cast<double>(fj_jobs) / (m * 1e3) /
                                  forkjoin_seq_ms
                            : 0.0);
    }
    fj_table.row(row);
  }

  // The executor's cost per task with the leaf loop gone: what an
  // executor change moves, at any thread count.
  print_header("EXEC: kernel-free fork-join (rounds = 0), ns per task",
               "the same tree as the fork-join cells; lower is better; "
               "ungated");
  table_printer fj0_table = series_table({"threads"}, series_names);
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    std::vector<double> row{static_cast<double>(thread_counts[i])};
    for (std::size_t s = 0; s < series_names.size(); ++s) {
      const double m = forkjoin0[s][i];
      row.push_back(m > 0.0 ? 1e3 / m : 0.0);
    }
    fj0_table.row(row);
  }

  // The rank pass: rank_results[dag][queue][thread index].
  const std::vector<std::string> rank_names{
      "mq_b1.0", "mq_b0.5", "klsm256", "spraylist", "lj_skiplist",
      "coarse"};
  std::vector<std::vector<std::vector<rank_cell>>> rank_results(
      2, std::vector<std::vector<rank_cell>>(rank_names.size()));
  for (std::size_t w = 0; w < 2; ++w) {
    print_header(
        std::string("EXEC: settle ranks on the ") + rank_dags[w].name +
            " DAG (" + std::to_string(rank_dags[w].dag.num_nodes()) +
            " tasks, " + std::to_string(rank_dags[w].dag.num_edges()) +
            " deps)",
        "per thread count: mean rank (0) | max rank (1) | inversion "
        "fraction (2); one task per pop");
    table_printer table = series_table({"threads", "metric"}, rank_names);
    for (const std::size_t t : thread_counts) {
      if (t == 2) std::printf("-- %s\n", kUngated);
      for (std::size_t s = 0; s < rank_names.size(); ++s) {
        rank_results[w][s].push_back(
            with_queue(rank_names[s], t, [&](auto& queue) {
              return rank_trial(rank_names[s], rank_dags[w], t, queue);
            }));
      }
      for (std::size_t m = 0; m < 3; ++m) {
        std::vector<double> row{static_cast<double>(t),
                                static_cast<double>(m)};
        for (std::size_t s = 0; s < rank_names.size(); ++s) {
          row.push_back(rank_results[w][s].back()[m]);
        }
        table.row(row);
      }
    }
  }

  const std::string json_path = json_artifact_path("BENCH_exec.json");
  json_writer json(json_path);
  json.begin_object()
      .kv("bench", "exec")
      .kv("unit", "mops = million executed tasks per second on the grid DAG")
      .kv("full_scale", full_scale())
      .kv("grid_tasks",
          static_cast<std::size_t>(timed_dags[0].dag.num_nodes()))
      .kv("random_tasks",
          static_cast<std::size_t>(timed_dags[1].dag.num_nodes()))
      .kv("forkjoin_jobs", static_cast<std::size_t>(fj_jobs))
      .kv("kernel_rounds", static_cast<std::size_t>(rounds))
      .kv("trials", static_cast<std::size_t>(cell_trials))
      .kv("forkjoin_seq_ms", forkjoin_seq_ms);
  // rank_results[w][s] as "<dag>_<field>" keys: each cell's one-thread
  // value, or its array over the thread sweep.
  const auto emit_ranks = [&](std::size_t s, bool sweep) {
    for (std::size_t w = 0; w < 2; ++w) {
      for (std::size_t m = 0; m < 3; ++m) {
        const std::string name =
            std::string(rank_dags[w].name) + "_" + kRankFields[m];
        if (!sweep) {
          json.kv(name.c_str(), rank_results[w][s].front()[m]);
          continue;
        }
        json.key(name.c_str()).begin_array();
        for (const rank_cell& c : rank_results[w][s]) json.value(c[m]);
        json.end_array();
      }
    }
  };
  json.key("one_thread").begin_object()
      .kv("grid_tasks", static_cast<std::size_t>(rank_dags[0].dag.num_nodes()))
      .kv("random_tasks",
          static_cast<std::size_t>(rank_dags[1].dag.num_nodes()));
  json.key("rows").begin_array();
  for (std::size_t s = 0; s < rank_names.size(); ++s) {
    json.begin_object().kv("name", rank_names[s]);
    emit_ranks(s, false);
    json.end_object();
  }
  json.end_array().end_object();
  json.key("rank_sweep").begin_object().kv("ungated", kUngated);
  json.key("series").begin_array();
  for (std::size_t s = 0; s < rank_names.size(); ++s) {
    json.begin_object().kv("name", rank_names[s]);
    emit_ranks(s, true);
    json.end_object();
  }
  json.end_array().end_object();
  json.key("threads").begin_array();
  for (const std::size_t t : thread_counts) json.value(t);
  json.end_array();
  json.key("series").begin_array();
  for (std::size_t i = 0; i < series_names.size(); ++i) {
    json.begin_object().kv("name", series_names[i]);
    const auto emit = [&json](const char* key,
                              const std::vector<double>& cells) {
      json.key(key).begin_array();
      for (const double m : cells) json.value(m);
      json.end_array();
    };
    emit("mops", results[0][i]);
    emit("random_mops", results[1][i]);
    emit("forkjoin_mops", results[2][i]);
    emit("forkjoin0_mops", forkjoin0[i]);
    json.end_object();
  }
  json.end_array().end_object();
  std::printf("\n%s %s\n", json.ok() ? "wrote" : "FAILED to write",
              json_path.c_str());

  std::printf(
      "expected: the steal deque wins raw task churn (no comparisons, no "
      "shared order) while the MultiQueue\nkeeps the frontier "
      "priority-shaped on the wide random DAG at a small cost; coarse "
      "bounds the contention floor.\nAt 1 thread every rank-pass queue but "
      "mq_b0.5 reads 0 inversions on both rank DAGs (mq_b1.0's two choices "
      "cover both of its slots).\n");
  return 0;
}
