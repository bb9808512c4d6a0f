// FIG3 — reproduces Figure 3: single-source shortest path (parallel
// Dijkstra) running time vs threads on a road-network-like graph, for
// the (1+beta) priority queue (beta = 0.5, 0.75), the original
// MultiQueue (beta = 1), the k-LSM (k = 256), the SprayList, the
// Lindén–Jonsson skiplist, and the coarse-locked heap — all through the
// one handle-generic parallel_sssp loop. Every cell's distances are
// verified against sequential Dijkstra before its time is accepted.
//
// The paper ran the California road network; by default we generate a
// grid road network with the same structural properties (sparse,
// near-planar, huge diameter). Substitutions:
//   PCQ_GRAPH=<file.gr>   run a real DIMACS graph instead
//                         (scripts/fetch_dimacs.sh pulls California)
//   PCQ_GRID_SIDE=<n>     override the grid side (CI smoke / TSan runs)
//
// Paper shape to verify: beta < 1 up to ~10% faster than beta = 1;
// relaxed queues (MultiQueues, k-LSM, spray) beat the strict ones (LJ,
// coarse) clearly at higher thread counts.
//
// Each thread count is one cell of benchlib's measure_cell: a warm-up
// round, then the timed rounds that rotate through the seven queues; each
// series reports its median seconds. Every trial is verified, the
// warm-up round's included.
//
// Besides the console table (seconds, lower is better), the run emits
// BENCH_fig3.json with both seconds and a higher-is-better throughput
// series ("mops" = million settled nodes per second) that CI gates
// against bench/baselines/ via
// scripts/check_bench_regression.py --figure fig3 --normalize coarse.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchlib/bench_env.hpp"
#include "benchlib/json_writer.hpp"
#include "benchlib/queue_roster.hpp"
#include "benchlib/table_printer.hpp"
#include "graph/dijkstra.hpp"
#include "graph/dimacs.hpp"
#include "graph/generators.hpp"
#include "graph/parallel_sssp.hpp"
#include "util/timer.hpp"

namespace {

using namespace pcq;
using namespace pcq::bench;
using namespace pcq::graph;

/// Seconds of one run of the named roster queue; its distances are
/// checked exactly against the sequential reference (a mismatch aborts
/// the bench).
double measure(const csr_graph& g, std::size_t threads,
               const std::string& queue_name,
               const dijkstra_result& reference) {
  const auto stats = with_queue(queue_name, threads, [&](auto& queue) {
    return parallel_sssp(g, 0, threads, queue);
  });
  for (std::size_t i = 0; i < stats.distance.size(); ++i) {
    if (stats.distance[i] != reference.distance[i]) {
      std::fprintf(stderr, "DISTANCE MISMATCH at node %zu!\n", i);
      std::exit(1);
    }
  }
  return stats.seconds;
}

}  // namespace

int main() {
  csr_graph graph;
  if (const char* path = std::getenv("PCQ_GRAPH"); path != nullptr) {
    std::printf("using DIMACS graph %s\n", path);
    graph = read_dimacs(path);
  } else {
    road_network_params params;
    auto side = scaled<std::uint32_t>(256, 1024);
    if (const char* env_side = std::getenv("PCQ_GRID_SIDE");
        env_side != nullptr && std::atol(env_side) > 0) {
      side = static_cast<std::uint32_t>(std::atol(env_side));
    }
    params.width = side;
    params.height = side;
    graph = make_road_network(params);
  }

  print_header("FIG3: parallel SSSP runtime vs threads (seconds, lower is "
               "better)",
               "road-network-like graph; distances verified against "
               "sequential Dijkstra in every cell");
  std::printf("graph: %u nodes, %llu edges\n", graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()));

  wall_timer timer;
  const auto reference = dijkstra(graph, 0);
  std::printf("sequential Dijkstra reference: %.3f s (%llu settled)\n",
              timer.elapsed_seconds(),
              static_cast<unsigned long long>(reference.settled));

  const std::vector<std::string> series_names{
      "mq_b1.0", "mq_b0.75", "mq_b0.5", "klsm256",
      "spraylist", "lj_skiplist", "coarse"};

  table_printer table([&] {
    std::vector<std::string> columns{"threads"};
    columns.insert(columns.end(), series_names.begin(), series_names.end());
    return columns;
  }());

  const std::vector<std::size_t> thread_counts = thread_sweep(max_threads());

  // seconds[i][s] = median seconds of series_names[s] at
  // thread_counts[i].
  std::vector<std::vector<double>> seconds;
  for (const std::size_t t : thread_counts) {
    seconds.push_back(measure_cell(series_names.size(),
                                   [&](std::size_t s, unsigned) {
      return measure(graph, t, series_names[s], reference);
    }));
    table.row(static_cast<double>(t), seconds.back());
  }

  const std::string json_path = json_artifact_path("BENCH_fig3.json");
  json_writer json(json_path);
  json.begin_object()
      .kv("bench", "fig3_sssp")
      .kv("unit", "mops = million settled nodes per second")
      .kv("full_scale", full_scale())
      .kv("nodes", static_cast<std::size_t>(graph.num_nodes()))
      .kv("edges", static_cast<std::size_t>(graph.num_edges()))
      .kv("trials", static_cast<std::size_t>(trials()));
  json.key("threads").begin_array();
  for (const std::size_t t : thread_counts) json.value(t);
  json.end_array();
  json.key("series").begin_array();
  const double settled = static_cast<double>(reference.settled);
  for (std::size_t s = 0; s < series_names.size(); ++s) {
    json.begin_object().kv("name", series_names[s]);
    json.key("mops").begin_array();
    for (const std::vector<double>& cell : seconds) {
      json.value(cell[s] > 0.0 ? settled / cell[s] / 1e6 : 0.0);
    }
    json.end_array();
    json.key("seconds").begin_array();
    for (const std::vector<double>& cell : seconds) json.value(cell[s]);
    json.end_array().end_object();
  }
  json.end_array().end_object();
  std::printf("\n%s %s\n", json.ok() ? "wrote" : "FAILED to write",
              json_path.c_str());

  std::printf(
      "expected shape (paper): beta<1 ~10%% faster than beta=1 at higher "
      "threads;\nrelaxed queues (mq, klsm, spray) beat strict ones (lj, "
      "coarse) as threads grow.\n");
  return 0;
}
