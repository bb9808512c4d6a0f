// EXT-GRAPH — the paper's scheduling story run on graph-structured task
// processes (sim/graph_process.hpp): tasks are DAG nodes, a task is
// released only when all predecessors settled, and every queue modeling
// the handle concept schedules the ready set. Each cell runs the DAG on
// the executor (exec::run_dag_executor, one task per pop, settle order
// recorded) and replays the order with sim::settle_ranks: the rank of a
// settle is the number of READY tasks with smaller priority at that
// point, so the table directly compares how much each structure's
// relaxation reorders a dependency-constrained workload:
//
//   - MultiQueue beta in {1.0, 0.5}: rank grows ~ O(#queues);
//   - k-LSM / SprayList: their own bounded/randomized relaxation;
//   - LJ skiplist / coarse heap: strict — inversions come ONLY from
//     concurrency skew (zero at one thread, an exact scheduler).
//
// Workloads reuse graph/generators, DAG-ified by make_dag: a grid road
// network (long dependency chains, tiny ready set — relaxation is
// nearly free) and a random digraph (wide ready set — relaxation is
// visible). Every cell is gated: a topological-invariant violation, a
// lost or duplicated task, an unmatched settle in the replay, or an
// output that differs from the sequential oracle exits nonzero.
//
// Emits BENCH_ext_graph.json: threads sweep, one series per queue,
// "mops" = million settled tasks per second on the grid DAG, plus
// mean / max rank and inversion_frac arrays for both workloads. One
// thread makes a cell a pure function of the seeds, so the one-thread
// rank values go to the top-level "one_thread" object, the same at any
// PCQ_MAX_THREADS, which CI gates exactly. Rows at more threads are
// written and printed but not gated: their rank depends on how the OS
// interleaves the threads.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "benchlib/bench_env.hpp"
#include "benchlib/json_writer.hpp"
#include "benchlib/table_printer.hpp"
#include "core/baselines/coarse_pq.hpp"
#include "core/baselines/klsm_pq.hpp"
#include "core/baselines/lj_skiplist_pq.hpp"
#include "core/baselines/spray_pq.hpp"
#include "core/multi_queue.hpp"
#include "exec/dag_workloads.hpp"
#include "graph/generators.hpp"
#include "sim/graph_process.hpp"

namespace {

using namespace pcq;
using namespace pcq::bench;
using namespace pcq::sim;
using pcq::graph::csr_graph;

constexpr const char* kUngated =
    "rows at threads > 1 are ungated: their rank depends on how the OS "
    "interleaves the threads";

struct cell {
  double mops = 0.0;  ///< million settled tasks / second
  double mean_rank = 0.0;
  double max_rank = 0.0;
  double inversion_frac = 0.0;
};

// The artifact's rank fields, each prefixed by its DAG's name.
const std::pair<const char*, double cell::*> kRankFields[] = {
    {"mean_rank", &cell::mean_rank},
    {"max_rank", &cell::max_rank},
    {"inversion_frac", &cell::inversion_frac},
};

struct workload {
  const char* name;
  csr_graph dag;
  std::vector<std::uint64_t> outputs;  // the sequential oracle's
};

template <typename MakeQueue>
cell measure(const workload& w, std::size_t threads, MakeQueue make) {
  const std::size_t n = w.dag.num_nodes();
  auto queue = make(threads);
  const auto res = exec::run_dag_executor(w.dag, threads, *queue, 0, true);
  const replay_report ranks = settle_ranks(w.dag, res.settle_order);
  if (!res.topo_ok || res.settled != n || res.stats.spawned != n ||
      ranks.unmatched != 0 || res.outputs != w.outputs) {
    std::fprintf(stderr,
                 "TASK-PROCESS VIOLATION (%s DAG, %zu threads): topo_ok=%d "
                 "settled=%llu spawned=%llu of %zu, unmatched=%llu, "
                 "outputs %s the sequential oracle\n",
                 w.name, threads, res.topo_ok ? 1 : 0,
                 static_cast<unsigned long long>(res.settled),
                 static_cast<unsigned long long>(res.stats.spawned), n,
                 static_cast<unsigned long long>(ranks.unmatched),
                 res.outputs == w.outputs ? "match" : "differ from");
    std::exit(1);
  }
  cell c;
  c.mops = res.stats.seconds > 0.0
               ? static_cast<double>(res.settled) / res.stats.seconds / 1e6
               : 0.0;
  c.mean_rank = ranks.rank_stats.mean();
  c.max_rank = ranks.rank_stats.max();
  c.inversion_frac =
      ranks.deletions > 0 ? static_cast<double>(ranks.inversions) /
                                static_cast<double>(ranks.deletions)
                          : 0.0;
  return c;
}

workload make_workload(const char* name, const csr_graph& g) {
  workload w{name, make_dag(g), {}};
  w.outputs = exec::sequential_dag_outputs(w.dag, 0);
  return w;
}

}  // namespace

int main() {
  const auto grid_side = scaled<std::uint32_t>(64, 256);
  const auto random_nodes = scaled<std::uint32_t>(4096, 262144);

  graph::road_network_params grid_params;
  grid_params.width = grid_side;
  grid_params.height = grid_side;
  grid_params.seed = 0x657874u;  // "ext"
  graph::random_graph_params rnd_params;
  rnd_params.nodes = random_nodes;
  rnd_params.avg_degree = 4.0;
  rnd_params.seed = 0x657875u;
  const workload workloads[2] = {
      make_workload("grid", make_road_network(grid_params)),
      make_workload("random", make_random_graph(rnd_params))};

  print_header(
      "EXT-GRAPH: DAG task process across all five queues",
      "settled Mtasks/s, replayed mean and max rank, and inversion "
      "fraction; strict queues at 1 thread are exact schedulers (0 "
      "inversions)");
  std::printf("grid DAG: %u tasks, %llu deps; random DAG: %u tasks, %llu "
              "deps\n",
              workloads[0].dag.num_nodes(),
              static_cast<unsigned long long>(workloads[0].dag.num_edges()),
              workloads[1].dag.num_nodes(),
              static_cast<unsigned long long>(workloads[1].dag.num_edges()));

  using queue_key = std::uint64_t;
  const std::vector<std::string> series_names{
      "mq_b1.0", "mq_b0.5", "klsm256", "spraylist", "lj_skiplist",
      "coarse"};
  const auto make_mq = [](double beta) {
    return [beta](std::size_t threads) {
      mq_config cfg;
      cfg.beta = beta;
      return std::make_unique<multi_queue<queue_key, queue_key>>(cfg,
                                                                 threads);
    };
  };

  std::vector<std::size_t> thread_counts;
  for (std::size_t t = 1; t <= max_threads(); t *= 2) {
    thread_counts.push_back(t);
  }

  // results[workload][series][thread index]
  std::vector<std::vector<std::vector<cell>>> results(
      2, std::vector<std::vector<cell>>(series_names.size()));

  for (std::size_t w = 0; w < 2; ++w) {
    print_header(std::string("EXT-GRAPH: ") + workloads[w].name + " DAG",
                 "per thread count: Mtasks/s | mean rank | max rank | "
                 "inversion fraction");
    table_printer table([&] {
      std::vector<std::string> columns{"threads", "metric"};
      columns.insert(columns.end(), series_names.begin(),
                     series_names.end());
      return columns;
    }());
    for (const std::size_t t : thread_counts) {
      if (t == 2) std::printf("-- %s\n", kUngated);
      std::size_t s = 0;
      const auto record = [&](cell c) { results[w][s++].push_back(c); };
      record(measure(workloads[w], t, make_mq(1.0)));
      record(measure(workloads[w], t, make_mq(0.5)));
      record(measure(workloads[w], t, [](std::size_t) {
        return std::make_unique<klsm_pq<queue_key, queue_key>>(256);
      }));
      record(measure(workloads[w], t, [](std::size_t threads) {
        return std::make_unique<spray_pq<queue_key, queue_key>>(threads);
      }));
      record(measure(workloads[w], t, [](std::size_t) {
        return std::make_unique<lj_skiplist_pq<queue_key, queue_key>>();
      }));
      record(measure(workloads[w], t, [](std::size_t) {
        return std::make_unique<coarse_pq<queue_key, queue_key>>();
      }));
      const double cell::*metrics[] = {&cell::mops, &cell::mean_rank,
                                       &cell::max_rank, &cell::inversion_frac};
      for (std::size_t m = 0; m < 4; ++m) {
        std::vector<double> row{static_cast<double>(t),
                                static_cast<double>(m)};
        for (std::size_t i = 0; i < series_names.size(); ++i) {
          row.push_back(results[w][i].back().*metrics[m]);
        }
        table.row(row);
      }
    }
  }

  const std::string json_path = json_artifact_path("BENCH_ext_graph.json");
  json_writer json(json_path);
  json.begin_object()
      .kv("bench", "ext_graph_process")
      .kv("unit",
          "mops = million settled tasks per second on the grid DAG")
      .kv("full_scale", full_scale())
      .kv("grid_deps", static_cast<std::size_t>(workloads[0].dag.num_edges()))
      .kv("random_deps",
          static_cast<std::size_t>(workloads[1].dag.num_edges()))
      .kv("ungated", kUngated);
  json.key("one_thread").begin_object()
      .kv("grid_tasks", static_cast<std::size_t>(workloads[0].dag.num_nodes()))
      .kv("random_tasks",
          static_cast<std::size_t>(workloads[1].dag.num_nodes()));
  json.key("rows").begin_array();
  for (std::size_t i = 0; i < series_names.size(); ++i) {
    json.begin_object().kv("name", series_names[i]);
    for (std::size_t w = 0; w < 2; ++w) {
      for (const auto& [key, field] : kRankFields) {
        const std::string name = std::string(workloads[w].name) + "_" + key;
        json.kv(name.c_str(), results[w][i].front().*field);
      }
    }
    json.end_object();
  }
  json.end_array().end_object();
  json.key("threads").begin_array();
  for (const std::size_t t : thread_counts) json.value(t);
  json.end_array();
  json.key("series").begin_array();
  for (std::size_t i = 0; i < series_names.size(); ++i) {
    json.begin_object().kv("name", series_names[i]);
    const auto emit = [&json](const std::string& key,
                              const std::vector<cell>& cells,
                              double cell::*field) {
      json.key(key.c_str()).begin_array();
      for (const cell& c : cells) json.value(c.*field);
      json.end_array();
    };
    emit("mops", results[0][i], &cell::mops);
    emit("random_mops", results[1][i], &cell::mops);
    for (std::size_t w = 0; w < 2; ++w) {
      for (const auto& [key, field] : kRankFields) {
        emit(std::string(workloads[w].name) + "_" + key, results[w][i],
             field);
      }
    }
    json.end_object();
  }
  json.end_array().end_object();
  std::printf("\n%s %s\n", json.ok() ? "wrote" : "FAILED to write",
              json_path.c_str());

  std::printf(
      "expected: at 1 thread the strict queues (lj_skiplist, coarse) and "
      "mq_b1.0, whose two choices cover both of its slots, read 0 "
      "inversions on both DAGs.\n");
  return 0;
}
