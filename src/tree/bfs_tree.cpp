#include "tree/bfs_tree.hpp"

#include <algorithm>

namespace msrp {

BfsTree::BfsTree(const Graph& g, Vertex root, EdgeId skip_edge) {
  rebuild(g, root, skip_edge);
}

BfsTree::BfsTree(const Graph& g, Vertex root, std::vector<Vertex>& queue) {
  MSRP_REQUIRE(root < g.num_vertices(), "BFS root out of range");
  dist_.assign(g.num_vertices(), kInfDist);
  parent_edge_.assign(g.num_vertices(), kNoEdge);
  search(g, root, kNoEdge, queue);
}

void BfsTree::rebuild(const Graph& g, Vertex root, EdgeId skip_edge) {
  const Vertex n = g.num_vertices();
  MSRP_REQUIRE(root < n, "BFS root out of range");
  MSRP_REQUIRE(!lean(), "a lean tree cannot be rebuilt");
  if (dist_.size() != n) {
    // First build (or a different graph size): full initialization.
    dist_.assign(n, kInfDist);
    parent_.assign(n, kNoVertex);
    parent_edge_.assign(n, kNoEdge);
  } else {
    // Same-size rebuild: the previous order_ lists exactly the vertices with
    // non-default entries, so resetting those is O(touched), not O(n).
    for (const Vertex v : order_) {
      dist_[v] = kInfDist;
      parent_[v] = kNoVertex;
      parent_edge_[v] = kNoEdge;
    }
  }
  // order_ doubles as the BFS queue: vertices are appended exactly once.
  search(g, root, skip_edge, order_);
}

void BfsTree::search(const Graph& g, Vertex root, EdgeId skip_edge, std::vector<Vertex>& queue) {
  root_ = root;
  const bool with_parents = !parent_.empty();
  queue.clear();
  queue.reserve(g.num_vertices());
  dist_[root] = 0;
  queue.push_back(root);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex u = queue[head];
    for (const Arc& a : g.neighbors(u)) {
      if (a.edge == skip_edge) continue;
      if (dist_[a.to] == kInfDist) {
        dist_[a.to] = dist_[u] + 1;
        if (with_parents) parent_[a.to] = u;
        parent_edge_[a.to] = a.edge;
        queue.push_back(a.to);
      }
    }
  }
}

std::vector<Vertex> BfsTree::path_to(Vertex t) const {
  MSRP_REQUIRE(t < num_vertices(), "vertex out of range");
  MSRP_REQUIRE(!lean(), "path_to() of a lean tree");
  if (!reachable(t)) return {};
  std::vector<Vertex> path;
  path.reserve(dist_[t] + 1);
  for (Vertex v = t; v != kNoVertex; v = parent_[v]) path.push_back(v);
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<EdgeId> BfsTree::path_edges(Vertex t) const {
  MSRP_REQUIRE(t < num_vertices(), "vertex out of range");
  MSRP_REQUIRE(!lean(), "path_edges() of a lean tree");
  if (!reachable(t)) return {};
  std::vector<EdgeId> edges;
  edges.reserve(dist_[t]);
  for (Vertex v = t; parent_[v] != kNoVertex; v = parent_[v]) {
    edges.push_back(parent_edge_[v]);
  }
  std::reverse(edges.begin(), edges.end());
  return edges;
}

bool BfsTree::is_tree_edge(const Graph& g, EdgeId e) const {
  return tree_edge_child(g, e).has_value();
}

std::optional<Vertex> BfsTree::tree_edge_child(const Graph& g, EdgeId e) const {
  MSRP_REQUIRE(e < g.num_edges(), "edge out of range");
  const auto [u, v] = g.endpoints(e);
  if (parent_edge_[u] == e) return u;
  if (parent_edge_[v] == e) return v;
  return std::nullopt;
}

}  // namespace msrp
