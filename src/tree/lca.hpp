// Least-common-ancestor structure over a BfsTree (Lemma 6 of the paper,
// after Bender & Farach-Colton, LATIN 2000).
//
// Euler tour + sparse-table RMQ: O(n log n) build, O(1) lca(). The tour is
// read off the AncestorIndex stamps, and the structure also exposes that
// index's two O(1) predicates:
//   * is_ancestor(a, v)      — a on the canonical root->v path?
//   * edge_on_path(child, t) — tree edge with deeper endpoint `child` on the
//                              canonical root->t path? (== is_ancestor)
//
// Works on BFS forests: vertices unreachable from the root get no Euler
// interval; queries involving them return kNoVertex / false.
#pragma once

#include <cstdint>
#include <vector>

#include "tree/ancestry.hpp"

namespace msrp {

class Lca {
 public:
  explicit Lca(const BfsTree& tree);

  /// LCA of x and y; kNoVertex if either is unreachable from the root.
  Vertex lca(Vertex x, Vertex y) const;

  /// True iff a lies on the canonical root->v path (a == v counts).
  bool is_ancestor(Vertex a, Vertex v) const { return anc_.is_ancestor(a, v); }

  /// For a tree edge whose deeper endpoint is `child`: is it on root->t?
  bool edge_on_path(Vertex child, Vertex t) const { return anc_.edge_on_path(child, t); }

  /// Tree distance between x and y (through their LCA); kInfDist if they
  /// are in different components of the BFS forest.
  Dist tree_distance(Vertex x, Vertex y) const;

 private:
  /// Index (into the Euler arrays) of the minimum depth in [l, r].
  std::uint32_t rmq(std::uint32_t l, std::uint32_t r) const;

  const BfsTree* tree_;
  AncestorIndex anc_;  // tin(v) is also v's first Euler position
  std::vector<Vertex> euler_vertex_;
  std::vector<std::uint32_t> euler_depth_;
  std::vector<std::vector<std::uint32_t>> sparse_;  // sparse_[j][i] = argmin over [i, i+2^j)
  std::vector<std::uint32_t> log2_;
};

}  // namespace msrp
