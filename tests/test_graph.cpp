// Graph layer: CSR construction (differential against a stable sort,
// golden checksums of the generators, rejection of bad input and of
// replays that change between passes), DIMACS parsing, generators,
// sequential Dijkstra on hand-checked graphs, and the headline invariant —
// parallel_sssp produces distances EXACTLY equal to sequential Dijkstra
// on every roster queue of kRosterQueues (pq_test_harness.hpp), the
// steal-deque pool included, on both generator families, single- and
// multi-threaded. Scales are TSan-friendly; build with
// -DPCQ_SANITIZE=thread to make the equality runs real race checks.

#include "graph/csr_graph.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "test_macros.hpp"
#include "pq_test_harness.hpp"
#include "benchlib/queue_roster.hpp"
#include "core/baselines/coarse_pq.hpp"
#include "graph/dijkstra.hpp"
#include "graph/dimacs.hpp"
#include "graph/generators.hpp"
#include "graph/parallel_sssp.hpp"
#include "sim/graph_process.hpp"
#include "util/rng.hpp"

namespace {

using namespace pcq::graph;

// Diamond with a shortcut: 0->1 (2), 0->2 (5), 1->2 (1), 1->3 (7),
// 2->3 (3), plus unreachable node 4. Shortest: d(0)=0 d(1)=2 d(2)=3
// d(3)=6.
csr_graph diamond() {
  std::vector<csr_graph::edge> edges{
      {0, 1, 2}, {0, 2, 5}, {1, 2, 1}, {1, 3, 7}, {2, 3, 3}};
  return csr_graph::from_edges(5, edges);
}

void check_sssp_equality(const csr_graph& g, std::size_t threads,
                         const std::string& queue_name,
                         const dijkstra_result& reference) {
  const auto stats = pcq::bench::with_queue(
      queue_name, threads, [&](auto& queue) {
        const auto result = parallel_sssp(g, 0, threads, queue);
        CHECK(queue.size() == 0);  // termination drained every entry
        return result;
      });
  CHECK(stats.distance.size() == reference.distance.size());
  for (std::size_t i = 0; i < stats.distance.size(); ++i) {
    CHECK(stats.distance[i] == reference.distance[i]);
  }
  // Every push (the seed and one per relaxation) is popped once, and
  // each reachable node's final-distance entry is popped and not stale,
  // so the stale pops leave room for at least that many.
  const auto reachable = static_cast<std::uint64_t>(
      std::count_if(reference.distance.begin(), reference.distance.end(),
                    [](std::uint64_t d) { return d != kUnreachable; }));
  CHECK(stats.stale_pops + reachable <= stats.relaxations + 1);
}

// The two shapes that pin each branch of the in-flight settle rule:
// along a 1xN path every non-final pop relaxes exactly one arc (k = 1,
// the unit passes on with no counter RMW); the star's source relaxes
// every arc at once (k >= 2) and each leaf then relaxes none (k = 0).
csr_graph path_graph(std::uint32_t n) {
  std::vector<csr_graph::edge> edges;
  for (std::uint32_t v = 0; v + 1 < n; ++v)
    edges.push_back({v, v + 1, 1 + v % 7});
  return csr_graph::from_edges(n, edges);
}

csr_graph star_graph(std::uint32_t n) {
  std::vector<csr_graph::edge> edges;
  for (std::uint32_t v = 1; v < n; ++v) edges.push_back({0, v, 1 + v % 5});
  return csr_graph::from_edges(n, edges);
}

// Two nodes joined both ways: the source's one relaxation succeeds and
// the way back fails, so each run holds at most one entry at a time.
csr_graph two_node_graph() {
  std::vector<csr_graph::edge> edges{{0, 1, 3}, {1, 0, 3}};
  return csr_graph::from_edges(2, edges);
}

// Many nodes relaxing one shared head: the source reaches nodes 1..m at
// distance i, node i reaches head h = m + 1 at distance 2m + 1 - i, and
// h starts a two-node tail. Popped in ascending order, every node of a
// batch improves h again, so one push_batch carries up to kDrainBatch
// entries for h, and all but the best are dropped as stale.
csr_graph shared_head_graph(std::uint32_t m) {
  const std::uint32_t h = m + 1;
  std::vector<csr_graph::edge> edges;
  for (std::uint32_t i = 1; i <= m; ++i) {
    edges.push_back({0, i, i});
    edges.push_back({i, h, 2 * (m - i) + 1});
  }
  edges.push_back({h, h + 1, 1});
  edges.push_back({h + 1, h + 2, 1});
  return csr_graph::from_edges(h + 3, edges);
}

// FNV-1a over a whole CSR: the node count, then each row's length and
// its arcs' heads and weights, little-endian.
std::uint64_t fnv1a(const csr_graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(g.num_nodes(), 4);
  for (csr_graph::node_id u = 0; u < g.num_nodes(); ++u) {
    mix(g.degree(u), 8);
    for (const csr_graph::arc& a : g.out(u)) {
      mix(a.head, 4);
      mix(a.weight, 4);
    }
  }
  return h;
}

// Differential cell: from_edges (the counting sort of csr_graph::build)
// against the definition of the CSR, a stable sort of the edge list by
// tail: rows in tail order, each row's arcs in input order.
void check_against_stable_sort(std::uint32_t n,
                               std::vector<csr_graph::edge> edges) {
  const csr_graph g = csr_graph::from_edges(n, edges);
  std::stable_sort(edges.begin(), edges.end(),
                   [](const csr_graph::edge& a, const csr_graph::edge& b) {
                     return a.tail < b.tail;
                   });
  CHECK(g.num_nodes() == n);
  CHECK(g.num_edges() == edges.size());
  std::size_t i = 0;
  for (csr_graph::node_id u = 0; u < n; ++u) {
    for (const csr_graph::arc& a : g.out(u)) {
      CHECK(i < edges.size());
      CHECK(edges[i].tail == u);
      CHECK(edges[i].head == a.head && edges[i].weight == a.weight);
      ++i;
    }
  }
  CHECK(i == edges.size());
}

// m edges over n nodes in seeded random order. Tails are drawn from the
// first `tails` nodes only, so the rest of the rows stay empty; heads
// range over all n, so self-loops and parallel arcs occur.
std::vector<csr_graph::edge> random_edges(std::uint32_t n, std::uint32_t tails,
                                          std::size_t m, std::uint64_t seed) {
  pcq::xoshiro256ss rng(seed);
  std::vector<csr_graph::edge> edges(m);
  for (csr_graph::edge& e : edges) {
    e.tail = static_cast<csr_graph::node_id>(rng.bounded(tails));
    e.head = static_cast<csr_graph::node_id>(rng.bounded(n));
    e.weight = static_cast<csr_graph::weight_t>(rng.bounded(4));
  }
  return edges;
}

template <typename Build>
bool throws_invalid_argument(Build build) {
  try {
    build();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

// build() over a replay that emits `first` in pass 1 and `second` in
// every later pass.
csr_graph build_changing(std::uint32_t n,
                         const std::vector<csr_graph::edge>& first,
                         const std::vector<csr_graph::edge>& second) {
  int passes = 0;
  return csr_graph::build(n, [&](auto&& sink) {
    for (const csr_graph::edge& e : ++passes == 1 ? first : second) {
      sink(e.tail, e.head, e.weight);
    }
  });
}

void check_all_graphs(const std::string& queue_name) {
  for (const csr_graph& g : {path_graph(1000), star_graph(1000)}) {
    check_sssp_equality(g, 4, queue_name, dijkstra(g, 0));
  }
  {
    const csr_graph g = shared_head_graph(64);
    const auto reference = dijkstra(g, 0);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      check_sssp_equality(g, threads, queue_name, reference);
    }
  }
  // Frontiers narrower than the drain loop's batch: every pop returns
  // fewer than kDrainBatch entries, and idle workers must keep waiting
  // on the one entry in flight.
  for (const csr_graph& g : {path_graph(64), two_node_graph()}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      check_sssp_equality(g, threads, queue_name, dijkstra(g, 0));
    }
  }
  // Sparse random digraph: irregular degrees, duplicate arcs possible,
  // some nodes unreachable.
  {
    random_graph_params params;
    params.nodes = 1500;
    params.avg_degree = 4.0;
    params.seed = 0x51u;
    const csr_graph g = make_random_graph(params);
    const auto reference = dijkstra(g, 0);
    check_sssp_equality(g, 1, queue_name, reference);
    check_sssp_equality(g, 4, queue_name, reference);
  }
  // Grid road network: huge diameter, the fig3 shape.
  {
    road_network_params params;
    params.width = 24;
    params.height = 24;
    params.seed = 0x52u;
    const csr_graph g = make_road_network(params);
    check_sssp_equality(g, 4, queue_name, dijkstra(g, 0));
  }
}

}  // namespace

int main() {
  // CSR construction keeps arcs grouped by tail in input order.
  {
    const csr_graph g = diamond();
    CHECK(g.num_nodes() == 5);
    CHECK(g.num_edges() == 5);
    CHECK(g.degree(0) == 2);
    CHECK(g.degree(1) == 2);
    CHECK(g.degree(2) == 1);
    CHECK(g.degree(3) == 0);
    CHECK(g.degree(4) == 0);
    const auto row = g.out(0);
    CHECK(row.size() == 2);
    CHECK(row.begin()[0].head == 1 && row.begin()[0].weight == 2);
    CHECK(row.begin()[1].head == 2 && row.begin()[1].weight == 5);
  }

  // Counting sort == stable sort by tail: shuffled order, parallel
  // arcs, self-loops, empty rows, one node, no edges, and edge counts
  // below, at and just past the build's 64-edge prefetch window.
  {
    check_against_stable_sort(1, {});
    check_against_stable_sort(5, {});
    check_against_stable_sort(1, {{0, 0, 7}, {0, 0, 3}, {0, 0, 7}});
    check_against_stable_sort(3, {{2, 1, 1}, {2, 1, 1}, {0, 0, 5},
                                  {2, 2, 0}, {0, 2, 9}});
    std::uint64_t seed = 0x5eed;
    for (const std::size_t m : {std::size_t{1}, std::size_t{31},
                                std::size_t{63}, std::size_t{64},
                                std::size_t{65}, std::size_t{97}}) {
      check_against_stable_sort(7, random_edges(7, 7, m, ++seed));
    }
    check_against_stable_sort(300, random_edges(300, 40, 100, ++seed));
    check_against_stable_sort(40, random_edges(40, 40, 2000, ++seed));
    // A tail-sorted list in shuffled order.
    std::vector<csr_graph::edge> sorted =
        random_edges(1000, 1000, 5000, ++seed);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const csr_graph::edge& a, const csr_graph::edge& b) {
                       return a.tail < b.tail;
                     });
    pcq::xoshiro256ss rng(++seed);
    for (std::size_t i = sorted.size(); i > 1; --i) {
      std::swap(sorted[i - 1], sorted[rng.bounded(i)]);
    }
    check_against_stable_sort(1000, sorted);
  }

  // Every generated graph is byte-identical to the one the edge-list
  // construction built (checksums taken before build() replaced it).
  {
    road_network_params road;
    road.width = road.height = 64;
    const csr_graph grid = make_road_network(road);
    CHECK(grid.num_edges() == 15676);
    CHECK(fnv1a(grid) == 0xc048d931fccd4ca0ull);
    random_graph_params rnd;
    rnd.nodes = 4096;
    const csr_graph g = make_random_graph(rnd);
    CHECK(g.num_edges() == 16384);
    CHECK(fnv1a(g) == 0x97d2431163af3901ull);
    const csr_graph dag = pcq::sim::make_dag(g);
    CHECK(dag.num_edges() == 16384);
    CHECK(fnv1a(dag) == 0xeeb659e6f3b1c0fcull);
  }

  // build() rejects an endpoint >= num_nodes, and a replay whose second
  // pass differs from its first, before writing outside the graph.
  {
    using edges = std::vector<csr_graph::edge>;
    CHECK(throws_invalid_argument(
        [] { csr_graph::from_edges(3, edges{{0, 1, 1}, {3, 0, 1}}); }));
    CHECK(throws_invalid_argument(
        [] { csr_graph::from_edges(3, edges{{0xffffffffu, 0, 1}}); }));
    CHECK(throws_invalid_argument(
        [] { csr_graph::from_edges(3, edges{{0, 3, 1}}); }));
    CHECK(throws_invalid_argument(
        [] { csr_graph::from_edges(0, edges{{0, 0, 1}}); }));

    const edges base{{0, 1, 1}, {2, 1, 4}, {1, 0, 2}};
    int passes = 0;
    const csr_graph same = csr_graph::build(3, [&](auto&& sink) {
      ++passes;
      for (const auto& e : base) sink(e.tail, e.head, e.weight);
    });
    CHECK(passes == 2);
    CHECK(fnv1a(same) == fnv1a(csr_graph::from_edges(3, base)));
    CHECK(fnv1a(build_changing(3, base, base)) == fnv1a(same));

    const edges changed[] = {
        {{0, 1, 1}, {2, 1, 4}, {1, 0, 2}, {2, 0, 1}},  // one more, last row:
                                                       // its cursor hits m
        {{0, 0, 1}, {0, 1, 1}, {2, 1, 4}, {1, 0, 2}},  // one more, first row
        {{0, 1, 1}, {2, 1, 4}},                        // one fewer
        {},                                            // none
        {{0, 1, 1}, {1, 1, 4}, {1, 0, 2}},             // a tail moved
        {{0, 1, 1}, {2, 2, 4}, {1, 0, 2}},             // a head changed
        {{0, 1, 1}, {2, 1, 5}, {1, 0, 2}},             // a weight changed
        {{2, 1, 4}, {0, 1, 1}, {1, 0, 2}},             // reordered
        {{0, 1, 1}, {3, 1, 4}, {1, 0, 2}},             // a tail out of range
    };
    for (const edges& second : changed) {
      CHECK(throws_invalid_argument(
          [&] { build_changing(3, base, second); }));
    }
  }

  // Sequential Dijkstra on the hand-checked diamond.
  {
    const auto result = dijkstra(diamond(), 0);
    CHECK(result.distance[0] == 0);
    CHECK(result.distance[1] == 2);
    CHECK(result.distance[2] == 3);
    CHECK(result.distance[3] == 6);
    CHECK(result.distance[4] == kUnreachable);
    CHECK(result.settled == 4);
  }

  // DIMACS round-trip: write the diamond in .gr form (1-indexed, with
  // comments), parse it back, distances must match.
  {
    const char* path = "test_graph_tmp.gr";
    std::FILE* f = std::fopen(path, "w");
    CHECK(f != nullptr);
    std::fputs("c diamond with shortcut\nc ", f);
    // Comment far longer than the parser's read buffer: must be skipped
    // as one logical line, not misparsed as a fresh record mid-overflow.
    for (int i = 0; i < 600; ++i) std::fputc('x', f);
    std::fputs("\np sp 5 5\n", f);
    std::fputs("a 1 2 2\na 1 3 5\na 2 3 1\na 2 4 7\na 3 4 3\n", f);
    std::fclose(f);
    const csr_graph g = read_dimacs(path);
    CHECK(g.num_nodes() == 5);
    CHECK(g.num_edges() == 5);
    const auto result = dijkstra(g, 0);
    CHECK(result.distance[3] == 6);
    CHECK(result.distance[4] == kUnreachable);
    std::remove(path);
  }

  // DIMACS rejects garbage loudly instead of producing a half graph.
  {
    const char* path = "test_graph_tmp_bad.gr";
    std::FILE* f = std::fopen(path, "w");
    CHECK(f != nullptr);
    std::fputs("p sp 3 1\na 1 9 4\n", f);  // endpoint out of range
    std::fclose(f);
    bool threw = false;
    try {
      read_dimacs(path);
    } catch (const std::runtime_error&) {
      threw = true;
    }
    CHECK(threw);
    std::remove(path);
  }

  // Road network generator: symmetric weights, deterministic in the
  // seed, arc count matches the kept-undirected-edge count twice over.
  {
    road_network_params params;
    params.width = 16;
    params.height = 12;
    const csr_graph g = make_road_network(params);
    CHECK(g.num_nodes() == 16 * 12);
    CHECK(g.num_edges() % 2 == 0);
    CHECK(g.num_edges() > 0);
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> weight;
    for (std::uint32_t u = 0; u < g.num_nodes(); ++u) {
      for (const auto& a : g.out(u)) {
        CHECK(a.weight >= params.min_weight);
        CHECK(a.weight <= params.max_weight);
        weight[{u, a.head}] = a.weight;
      }
    }
    for (const auto& kv : weight) {
      const auto reverse =
          weight.find({kv.first.second, kv.first.first});
      CHECK(reverse != weight.end());
      CHECK(reverse->second == kv.second);
    }
    const csr_graph again = make_road_network(params);
    CHECK(again.num_edges() == g.num_edges());
  }

  // Random graph generator: exact arc count, no self loops.
  {
    random_graph_params params;
    params.nodes = 200;
    params.avg_degree = 3.0;
    const csr_graph g = make_random_graph(params);
    CHECK(g.num_nodes() == 200);
    CHECK(g.num_edges() == 600);
    for (std::uint32_t u = 0; u < g.num_nodes(); ++u) {
      for (const auto& a : g.out(u)) CHECK(a.head != u);
    }
    // Degenerate orders: no arcs can exist, and the generator must
    // return (not spin rejecting self-loops).
    params.nodes = 1;
    CHECK(make_random_graph(params).num_edges() == 0);
    params.nodes = 0;
    CHECK(make_random_graph(params).num_edges() == 0);
  }

  // parallel_sssp == sequential Dijkstra on every roster queue. The
  // steal-deque pool keeps no priority order at all; the fixpoint must
  // still be Dijkstra's.
  for (const char* name : pcq::testing::kRosterQueues) check_all_graphs(name);

  // The shared head under a strict queue and one worker: every one of
  // the m nodes improves h, four per batch, so h is relaxed m times and
  // m - 1 of its entries are stale. Relaxations: m nodes, m times h, and
  // the two tail nodes once each.
  {
    constexpr std::uint32_t m = 64;
    const csr_graph g = shared_head_graph(m);
    pcq::coarse_pq<std::uint64_t, std::uint64_t> queue;
    const auto result = parallel_sssp(g, 0, 1, queue);
    CHECK(result.distance == dijkstra(g, 0).distance);
    CHECK(result.distance[m + 1] == m + 1);
    CHECK(result.relaxations == 2 * m + 2);
    CHECK(result.stale_pops == m - 1);
  }

  std::printf("test_graph OK\n");
  return 0;
}
