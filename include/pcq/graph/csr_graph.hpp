// Compressed-sparse-row directed graph — the graph layer's one storage
// format. 32-bit node ids and arc weights (the DIMACS road networks fit
// comfortably), 64-bit arc offsets (USA-road has ~58M arcs). Arcs of a
// node are contiguous, so SSSP relaxation scans are a single linear
// sweep per settled node.
//
// Construction has one path, build(num_nodes, replay): a counting sort
// over an edge stream that the caller replays twice, so no edge list is
// ever materialized. Pass 1 checks and counts every edge, pass 2
// scatters each into its row; both keep a window of upcoming edges and
// prefetch their cells, so the cache misses of random tails overlap
// instead of serializing. The synthetic generators (graph/generators.hpp)
// replay their seeded RNG stream, sim::make_dag replays a walk over its
// source graph, and from_edges (the DIMACS parser, graph/dimacs.hpp, and
// the tests) replays a vector. Distances use 64-bit accumulators
// everywhere (graph/dijkstra.hpp): 2^32 nodes x 2^32-bounded weights
// cannot overflow them.

#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace pcq {
namespace graph {

class csr_graph {
 public:
  using node_id = std::uint32_t;
  using weight_t = std::uint32_t;

  /// One directed arc as stored: target and weight (the source is
  /// implicit in the CSR row).
  struct arc {
    node_id head;
    weight_t weight;
  };

  /// One directed edge as input to from_edges.
  struct edge {
    node_id tail;
    node_id head;
    weight_t weight;
  };

  csr_graph() = default;

  /// Counting-sort construction from an edge stream. replay(sink) must
  /// call sink(tail, head, weight) once per edge, and build calls it
  /// twice: pass 1 checks and counts the edges, pass 2 scatters them.
  /// Arcs keep the stream's order within each row; parallel edges and
  /// self-loops are kept. Throws std::invalid_argument for an endpoint
  /// >= num_nodes, or if pass 2 replays a different sequence than pass 1
  /// (checked by edge count and two position-weighted sums); it never
  /// writes outside the graph.
  template <typename Replay>
  static csr_graph build(node_id num_nodes, Replay&& replay) {
    const std::size_t n = num_nodes;
    csr_graph g;
    // Pass 1 counts tail t in cell[t + 2]. After the prefix sum,
    // cell[t + 1] is row t's start and serves as its cursor in pass 2,
    // which leaves it at row t + 1's start: cell[0..n] are the offsets
    // and the spare last cell is dropped. No cursor copy is made.
    g.offsets_.assign(n + 2, 0);
    std::uint64_t* const cell = g.offsets_.data();
    const auto check = [n](const edge& e, const char* what) {
      if (e.tail >= n || e.head >= n) throw std::invalid_argument(what);
    };

    const sequence_check counted = pipelined_pass(
        replay,
        [&](const edge& e) {
          check(e, "csr_graph::build: edge endpoint >= num_nodes");
          prefetch_write(cell + e.tail + 2);
        },
        [](const edge&) {},
        [cell](const edge& e) { ++cell[e.tail + 2]; });

    for (std::size_t i = 1; i < n + 2; ++i) cell[i] += cell[i - 1];
    const std::uint64_t m = cell[n + 1];
    g.arcs_.resize(m);
    arc* const arcs = g.arcs_.data();
    const char* const mismatch =
        "csr_graph::build: pass 2 replayed a different edge sequence";

    const sequence_check scattered = pipelined_pass(
        replay,
        [&](const edge& e) {
          check(e, mismatch);
          prefetch_write(cell + e.tail + 1);
        },
        [cell, arcs, m](const edge& e) {
          const std::uint64_t i = cell[e.tail + 1];
          if (i < m) prefetch_write(arcs + i);
        },
        [cell, arcs, m, mismatch](const edge& e) {
          const std::uint64_t i = cell[e.tail + 1]++;
          if (i >= m) throw std::invalid_argument(mismatch);
          arcs[i] = arc{e.head, e.weight};
        });
    if (!(scattered == counted)) throw std::invalid_argument(mismatch);

    g.offsets_.pop_back();
    return g;
  }

  /// Construction from an arbitrary-order edge list.
  static csr_graph from_edges(node_id num_nodes,
                              const std::vector<edge>& edges) {
    return build(num_nodes, [&edges](auto&& sink) {
      for (const edge& e : edges) sink(e.tail, e.head, e.weight);
    });
  }

  node_id num_nodes() const {
    return offsets_.empty() ? 0
                            : static_cast<node_id>(offsets_.size() - 1);
  }
  std::uint64_t num_edges() const { return arcs_.size(); }

  /// Iterable view over a node's out-arcs (contiguous CSR row).
  struct arc_range {
    const arc* first;
    const arc* last;
    const arc* begin() const { return first; }
    const arc* end() const { return last; }
    std::size_t size() const { return static_cast<std::size_t>(last - first); }
  };

  arc_range out(node_id u) const {
    return arc_range{arcs_.data() + offsets_[u],
                     arcs_.data() + offsets_[static_cast<std::size_t>(u) + 1]};
  }

  /// Out-degree of u.
  std::size_t degree(node_id u) const { return out(u).size(); }

 private:
  /// Edges a pass holds back before applying them. Each edge's cells are
  /// prefetched when it enters, so up to this many misses overlap.
  static constexpr std::size_t kWindow = 64;

  static void prefetch_write(const void* p) {
#if defined(__GNUC__)
    __builtin_prefetch(p, 1);
#else
    (void)p;
#endif
  }

  /// What a pass saw of its replay: the edge count and two sums in
  /// which edge i adds its (tail, head) word and its weight, each times
  /// the odd multiplier 2i + 1. A change to any one edge changes a sum,
  /// and unrelated sequences collide with probability about 2^-64.
  struct sequence_check {
    std::uint64_t edges = 0;
    std::uint64_t ends = 0;
    std::uint64_t weights = 0;

    bool operator==(const sequence_check& o) const {
      return edges == o.edges && ends == o.ends && weights == o.weights;
    }
  };

  /// One replay through a window of kWindow edges: enter(e) runs as e
  /// arrives, ahead(e) kWindow / 2 edges later, and apply(e) kWindow
  /// edges later (or at the end of the stream), always in stream order.
  /// Returns the replay's sequence_check.
  template <typename Replay, typename Enter, typename Ahead, typename Apply>
  static sequence_check pipelined_pass(Replay& replay, Enter enter,
                                       Ahead ahead, Apply apply) {
    edge ring[kWindow] = {};
    std::uint64_t arrived = 0;
    sequence_check seen;
    replay([&](node_id tail, node_id head, weight_t weight) {
      const edge e{tail, head, weight};
      enter(e);
      const std::uint64_t odd = 2 * arrived + 1;
      seen.ends += (static_cast<std::uint64_t>(tail) << 32 | head) * odd;
      seen.weights += weight * odd;
      const std::size_t slot = arrived % kWindow;
      if (arrived >= kWindow) apply(ring[slot]);
      if (arrived >= kWindow / 2) {
        ahead(ring[(arrived - kWindow / 2) % kWindow]);
      }
      ring[slot] = e;
      ++arrived;
    });
    for (std::uint64_t i = arrived > kWindow ? arrived - kWindow : 0;
         i < arrived; ++i) {
      apply(ring[i % kWindow]);
    }
    seen.edges = arrived;
    return seen;
  }

  std::vector<std::uint64_t> offsets_;  ///< n+1 row starts into arcs_
  std::vector<arc> arcs_;
};

}  // namespace graph
}  // namespace pcq
