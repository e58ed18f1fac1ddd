// O(1) ancestor test over a BfsTree, and the per-root tree unit the engine
// keeps.
//
// The MSRP pipeline issues huge numbers of "is edge e on the canonical
// root->v path?" queries against the trees of every source, and in the
// kBkAuxGraphs build of every landmark and center (Algorithms 3/4, the
// auxiliary-graph edge guards of Sections 7.1, 8.1, 8.2.2, 8.3). All of them
// reduce to subtree membership, which DFS entry/exit stamps answer in O(1).
//
// Bytes per vertex of one RootedTree:
//   * full (sources; every pool tree of kBkAuxGraphs): 24 — dist, parent,
//     parent_edge and BFS order (16), plus the tin/tout stamps (8);
//   * lean (the pool trees of the default kMmgPerPair build): 8 — dist and
//     parent_edge only. That build reads nothing else from a landmark tree,
//     and it keeps O~(sqrt(n*sigma)) of them alive at once.
#pragma once

#include <cstdint>
#include <vector>

#include "tree/bfs_tree.hpp"

namespace msrp {

class AncestorIndex {
 public:
  /// Empty index (lean trees); no query may be issued against it.
  AncestorIndex() = default;

  /// Stamps `tree`, which must be a full BfsTree, in O(reachable) time with
  /// no allocation beyond the two stamp arrays.
  explicit AncestorIndex(const BfsTree& tree);

  /// True iff a lies on the canonical root->v path (a == v counts).
  /// False if either vertex is unreachable from the root.
  bool is_ancestor(Vertex a, Vertex v) const {
    if (tin_[a] == kNoStamp || tin_[v] == kNoStamp) return false;
    return tin_[a] <= tin_[v] && tout_[v] <= tout_[a];
  }

  /// For a tree edge whose deeper endpoint is `child`: true iff the edge lies
  /// on the canonical root->t path.
  bool edge_on_path(Vertex child, Vertex t) const { return is_ancestor(child, t); }

  /// Raw DFS stamps (children visited in BFS order, one stamp on entry and
  /// one on exit), for callers that hoist one side of is_ancestor out of a
  /// hot loop and for the Euler tour of Lca. kNoStamp marks unreachable
  /// vertices; the root's tin is 0.
  std::uint32_t tin(Vertex v) const { return tin_[v]; }
  std::uint32_t tout(Vertex v) const { return tout_[v]; }

  static constexpr std::uint32_t kNoStamp = static_cast<std::uint32_t>(-1);

 private:
  std::vector<std::uint32_t> tin_, tout_;
};

/// A BFS tree bundled with its ancestor index: the per-root unit the engine
/// keeps for every source, landmark, and center.
struct RootedTree {
  /// Full tree: parents, BFS order and ancestry.
  RootedTree(const Graph& g, Vertex root) : tree(g, root), anc(tree) {}

  /// Lean tree (see BfsTree's lean constructor): dist and parent_edge only,
  /// and an empty `anc`. `queue` is the caller's BFS scratch.
  RootedTree(const Graph& g, Vertex root, std::vector<Vertex>& queue) : tree(g, root, queue) {}

  BfsTree tree;
  AncestorIndex anc;

  Vertex root() const { return tree.root(); }
  Dist dist(Vertex v) const { return tree.dist(v); }

  /// True iff edge e (endpoints u, v) lies on the canonical root->t path.
  /// O(1): e must be a tree edge and its deeper endpoint an ancestor of t.
  /// Full trees only.
  bool edge_on_path_to(EdgeId e, Vertex u, Vertex v, Vertex t) const {
    if (tree.parent_edge(u) == e) return anc.is_ancestor(u, t);
    if (tree.parent_edge(v) == e) return anc.is_ancestor(v, t);
    return false;
  }
};

}  // namespace msrp
