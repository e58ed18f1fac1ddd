// Canonical BFS shortest-path tree.
//
// The paper fixes a shortest-path tree T_s per source (Section 4) and defines
// every replacement-path instance relative to *that* tree's st paths. We make
// the tree canonical by scanning CSR adjacency (sorted by neighbour id) in
// order and assigning the first-discovered parent, so every component of the
// system — the MSRP pipeline, the MMG single-pair algorithm, the brute-force
// oracle — agrees on which edges lie on the st path.
//
// The tree also answers, in O(1) after an LCA build (see lca.hpp):
//   * dist(v), parent(v), parent_edge(v)
//   * "is edge e on the canonical s->t path?"   (tree-edge + ancestry test)
//   * position of an on-path edge (distance of its far endpoint from s)
//
// A *lean* tree keeps only dist and parent_edge (8 bytes per vertex instead
// of 16): parent(), order(), the path extractors and rebuild() are not
// available on it. The landmark trees of the default build are lean (see
// ancestry.hpp).
#pragma once

#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "util/assert.hpp"
#include "util/distance.hpp"

namespace msrp {

class BfsTree {
 public:
  /// Runs BFS from `root` over `g`. If `skip_edge` is given that edge is
  /// treated as deleted (used by the brute-force replacement oracle).
  BfsTree(const Graph& g, Vertex root, EdgeId skip_edge = kNoEdge);

  /// Lean tree: the same BFS from `root`, keeping only dist and
  /// parent_edge. `queue` is caller scratch for the BFS queue (reused across
  /// trees, so building many lean trees allocates nothing else).
  BfsTree(const Graph& g, Vertex root, std::vector<Vertex>& queue);

  /// Empty tree; rebuild() before use.
  BfsTree() = default;

  /// Re-runs BFS in place, reusing the vectors' capacity. Only the vertices
  /// the *previous* run discovered are re-initialized (they are exactly the
  /// entries of order()), so a rebuild on the same graph costs O(touched)
  /// setup instead of four fresh n-sized allocations — the skip-edge loops
  /// of the brute-force oracle and the FT-subgraph builder rebuild m times
  /// per source. Not for lean trees.
  void rebuild(const Graph& g, Vertex root, EdgeId skip_edge = kNoEdge);

  /// True iff this tree was built lean (dist and parent_edge only).
  bool lean() const { return parent_.size() != dist_.size(); }

  Vertex root() const { return root_; }
  Vertex num_vertices() const { return static_cast<Vertex>(dist_.size()); }

  Dist dist(Vertex v) const { return dist_[v]; }
  const std::vector<Dist>& dists() const { return dist_; }

  bool reachable(Vertex v) const { return dist_[v] != kInfDist; }

  /// Parent in the tree; kNoVertex for the root and unreachable vertices.
  /// Full trees only.
  Vertex parent(Vertex v) const {
    MSRP_DCHECK(!lean(), "parent() of a lean tree");
    return parent_[v];
  }

  /// Edge id to the parent; kNoEdge for the root and unreachable vertices.
  EdgeId parent_edge(Vertex v) const { return parent_edge_[v]; }

  /// Vertices in BFS discovery order (root first); unreachable ones absent.
  /// Full trees only.
  const std::vector<Vertex>& order() const {
    MSRP_DCHECK(!lean(), "order() of a lean tree");
    return order_;
  }

  /// The canonical root->t path as a vertex sequence (root first, t last).
  /// Empty if t is unreachable.
  std::vector<Vertex> path_to(Vertex t) const;

  /// Edge ids along the canonical root->t path, in order from the root.
  /// path_edges(t)[i] joins path_to(t)[i] and path_to(t)[i+1].
  std::vector<EdgeId> path_edges(Vertex t) const;

  /// True iff e is a tree edge (parent edge of its deeper endpoint).
  bool is_tree_edge(const Graph& g, EdgeId e) const;

  /// For a tree edge e = (u, v) with dist(u) + 1 == dist(v), returns the
  /// child (deeper) endpoint v; nullopt if e is not a tree edge.
  std::optional<Vertex> tree_edge_child(const Graph& g, EdgeId e) const;

 private:
  /// The BFS loop of both kinds of tree: fills dist_, parent_edge_ and, when
  /// allocated, parent_, appending each discovered vertex to `queue`.
  void search(const Graph& g, Vertex root, EdgeId skip_edge, std::vector<Vertex>& queue);

  Vertex root_ = kNoVertex;
  std::vector<Dist> dist_;
  std::vector<Vertex> parent_;
  std::vector<EdgeId> parent_edge_;
  std::vector<Vertex> order_;
};

}  // namespace msrp
