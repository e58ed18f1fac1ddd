#include "tree/lca.hpp"

#include <algorithm>

namespace msrp {

Lca::Lca(const BfsTree& tree) : tree_(&tree), anc_(tree) {
  // Every DFS stamp but the root's exit is one Euler step: entering v visits
  // v, leaving v returns to its parent. So the tour of the root's component
  // has 2 * |order| - 1 entries, indexed by stamp.
  const auto len = static_cast<std::uint32_t>(2 * tree.order().size() - 1);
  euler_vertex_.resize(len);
  euler_depth_.resize(len);
  for (const Vertex v : tree.order()) {
    euler_vertex_[anc_.tin(v)] = v;
    euler_depth_[anc_.tin(v)] = tree.dist(v);
    if (v == tree.root()) continue;
    euler_vertex_[anc_.tout(v)] = tree.parent(v);
    euler_depth_[anc_.tout(v)] = tree.dist(v) - 1;
  }

  // Sparse table over euler_depth_.
  log2_.assign(len + 1, 0);
  for (std::uint32_t i = 2; i <= len; ++i) log2_[i] = log2_[i / 2] + 1;
  const std::uint32_t levels = log2_[len] + 1;
  sparse_.assign(levels, std::vector<std::uint32_t>(len));
  for (std::uint32_t i = 0; i < len; ++i) sparse_[0][i] = i;
  for (std::uint32_t j = 1; j < levels; ++j) {
    const std::uint32_t half = 1u << (j - 1);
    for (std::uint32_t i = 0; i + (1u << j) <= len; ++i) {
      const std::uint32_t a = sparse_[j - 1][i];
      const std::uint32_t b = sparse_[j - 1][i + half];
      sparse_[j][i] = euler_depth_[a] <= euler_depth_[b] ? a : b;
    }
  }
}

std::uint32_t Lca::rmq(std::uint32_t l, std::uint32_t r) const {
  MSRP_DCHECK(l <= r && r < euler_depth_.size(), "rmq range invalid");
  const std::uint32_t j = log2_[r - l + 1];
  const std::uint32_t a = sparse_[j][l];
  const std::uint32_t b = sparse_[j][r - (1u << j) + 1];
  return euler_depth_[a] <= euler_depth_[b] ? a : b;
}

Vertex Lca::lca(Vertex x, Vertex y) const {
  MSRP_REQUIRE(x < tree_->num_vertices() && y < tree_->num_vertices(), "vertex out of range");
  std::uint32_t l = anc_.tin(x), r = anc_.tin(y);
  if (l == AncestorIndex::kNoStamp || r == AncestorIndex::kNoStamp) return kNoVertex;
  if (l > r) std::swap(l, r);
  return euler_vertex_[rmq(l, r)];
}

Dist Lca::tree_distance(Vertex x, Vertex y) const {
  const Vertex a = lca(x, y);
  if (a == kNoVertex) return kInfDist;
  return tree_->dist(x) + tree_->dist(y) - 2 * tree_->dist(a);
}

}  // namespace msrp
