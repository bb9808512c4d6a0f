// Synthetic graph generators for the graph layer.
//
// make_road_network — the fig3 stand-in for the paper's California road
// network when no DIMACS file is supplied: a width x height grid with
// 4-neighbor connectivity, symmetric random weights per undirected edge
// (same weight both ways, like a road segment's length), and a fraction
// of edges knocked out to break the lattice's perfect regularity
// (removal keeps both directions, preserving symmetry; the grid remains
// overwhelmingly connected at the default 3% removal — isolated pockets
// just stay unreachable, which both Dijkstra implementations treat
// identically). Road networks are near-planar with tiny average degree
// and huge diameter; a sparse grid shares all three properties, which is
// what drives SSSP's priority-queue behavior.
//
// make_random_graph — sparse uniform random digraph (m = ceil(n *
// avg_degree) arcs, endpoints uniform, self-loops skipped) for the
// dijkstra-vs-parallel_sssp equality tests: irregular degrees, short
// diameter, duplicate arcs possible — the structural opposite of the
// grid, so the test pair covers both shapes.
//
// Both are deterministic in their seed, and neither builds an edge
// list: csr_graph::build runs the seeded stream once per pass.

#pragma once

#include <cstdint>

#include "graph/csr_graph.hpp"
#include "util/rng.hpp"

namespace pcq {
namespace graph {

struct road_network_params {
  std::uint32_t width = 256;
  std::uint32_t height = 256;
  /// Weights are uniform in [min_weight, max_weight] (road-segment
  /// lengths; keep min_weight >= 1 so paths have positive cost).
  csr_graph::weight_t min_weight = 1;
  csr_graph::weight_t max_weight = 1000;
  /// Fraction of undirected grid edges removed (both directions).
  double knockout = 0.03;
  std::uint64_t seed = 0x67726964u;  // "grid"
};

inline csr_graph make_road_network(const road_network_params& params) {
  const std::uint64_t w = params.width > 0 ? params.width : 1;
  const std::uint64_t h = params.height > 0 ? params.height : 1;
  const auto n = static_cast<csr_graph::node_id>(w * h);
  const std::uint64_t weight_span =
      params.max_weight >= params.min_weight
          ? params.max_weight - params.min_weight + 1
          : 1;

  // Each build pass replays the same seeded stream.
  return csr_graph::build(n, [&](auto&& sink) {
    xoshiro256ss rng(params.seed);
    const auto add_road = [&](std::uint64_t a, std::uint64_t b) {
      if (params.knockout > 0.0 && rng.bernoulli(params.knockout)) return;
      const auto weight = static_cast<csr_graph::weight_t>(
          params.min_weight + rng.bounded(weight_span));
      sink(static_cast<csr_graph::node_id>(a),
           static_cast<csr_graph::node_id>(b), weight);
      sink(static_cast<csr_graph::node_id>(b),
           static_cast<csr_graph::node_id>(a), weight);
    };
    for (std::uint64_t y = 0; y < h; ++y) {
      for (std::uint64_t x = 0; x < w; ++x) {
        const std::uint64_t u = y * w + x;
        if (x + 1 < w) add_road(u, u + 1);
        if (y + 1 < h) add_road(u, u + w);
      }
    }
  });
}

struct random_graph_params {
  std::uint32_t nodes = 1000;
  double avg_degree = 4.0;
  csr_graph::weight_t min_weight = 1;
  csr_graph::weight_t max_weight = 100;
  std::uint64_t seed = 0x726e64u;  // "rnd"
};

inline csr_graph make_random_graph(const random_graph_params& params) {
  const std::uint32_t n = params.nodes > 0 ? params.nodes : 1;
  const auto m = static_cast<std::uint64_t>(
      static_cast<double>(n) * (params.avg_degree > 0.0 ? params.avg_degree
                                                        : 0.0) +
      0.999);
  const std::uint64_t weight_span =
      params.max_weight >= params.min_weight
          ? params.max_weight - params.min_weight + 1
          : 1;

  // Only self-loops exist below two nodes: no arcs (and no endless
  // rejection loop).
  const std::uint64_t arcs = n < 2 ? 0 : m;
  return csr_graph::build(n, [&](auto&& sink) {
    xoshiro256ss rng(params.seed);
    for (std::uint64_t made = 0; made < arcs;) {
      const auto tail = static_cast<csr_graph::node_id>(rng.bounded(n));
      const auto head = static_cast<csr_graph::node_id>(rng.bounded(n));
      if (tail == head) continue;
      const auto weight = static_cast<csr_graph::weight_t>(
          params.min_weight + rng.bounded(weight_span));
      sink(tail, head, weight);
      ++made;
    }
  });
}

}  // namespace graph
}  // namespace pcq
