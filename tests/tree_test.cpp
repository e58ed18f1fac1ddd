#include <gtest/gtest.h>

#include <functional>

#include "core/landmarks.hpp"
#include "graph/generators.hpp"
#include "tree/ancestry.hpp"
#include "tree/bfs_tree.hpp"
#include "tree/lca.hpp"
#include "util/thread_pool.hpp"

namespace msrp {
namespace {

// ---------------------------------------------------------------- bfs tree

TEST(BfsTree, DistancesOnPathGraph) {
  const Graph g = gen::path(6);
  const BfsTree t(g, 0);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(t.dist(v), v);
  EXPECT_EQ(t.parent(0), kNoVertex);
  EXPECT_EQ(t.parent(3), 2u);
}

TEST(BfsTree, DistancesOnGrid) {
  const Graph g = gen::grid(4, 4);
  const BfsTree t(g, 0);
  for (Vertex r = 0; r < 4; ++r) {
    for (Vertex c = 0; c < 4; ++c) EXPECT_EQ(t.dist(r * 4 + c), r + c);
  }
}

TEST(BfsTree, UnreachableVertices) {
  Graph g(5, {{0, 1}, {3, 4}});
  const BfsTree t(g, 0);
  EXPECT_TRUE(t.reachable(1));
  EXPECT_FALSE(t.reachable(3));
  EXPECT_EQ(t.dist(3), kInfDist);
  EXPECT_EQ(t.parent(3), kNoVertex);
  EXPECT_TRUE(t.path_to(3).empty());
  EXPECT_EQ(t.order().size(), 2u);
}

TEST(BfsTree, PathExtraction) {
  const Graph g = gen::grid(3, 3);
  const BfsTree t(g, 0);
  const auto p = t.path_to(8);
  ASSERT_EQ(p.size(), 5u);  // dist 4
  EXPECT_EQ(p.front(), 0u);
  EXPECT_EQ(p.back(), 8u);
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    EXPECT_TRUE(g.has_edge(p[i], p[i + 1]));
    EXPECT_EQ(t.dist(p[i + 1]), t.dist(p[i]) + 1);
  }
}

TEST(BfsTree, PathEdgesMatchPath) {
  const Graph g = gen::grid(3, 3);
  const BfsTree t(g, 0);
  const auto p = t.path_to(8);
  const auto e = t.path_edges(8);
  ASSERT_EQ(e.size(), p.size() - 1);
  for (std::size_t i = 0; i < e.size(); ++i) {
    EXPECT_EQ(g.find_edge(p[i], p[i + 1]), e[i]);
  }
}

TEST(BfsTree, CanonicalDeterminism) {
  Rng rng(23);
  const Graph g = gen::connected_gnp(60, 0.1, rng);
  const BfsTree a(g, 5), b(g, 5);
  for (Vertex v = 0; v < 60; ++v) {
    EXPECT_EQ(a.parent(v), b.parent(v));
    EXPECT_EQ(a.parent_edge(v), b.parent_edge(v));
  }
}

TEST(BfsTree, SkipEdgeActsAsDeletion) {
  const Graph g = gen::cycle(6);
  const EdgeId e01 = g.find_edge(0, 1);
  const BfsTree t(g, 0, e01);
  // Without (0,1), vertex 1 is reached the long way round.
  EXPECT_EQ(t.dist(1), 5u);
  EXPECT_EQ(t.dist(3), 3u);
}

TEST(BfsTree, SkipBridgeDisconnects) {
  const Graph g = gen::path(4);
  const BfsTree t(g, 0, g.find_edge(1, 2));
  EXPECT_TRUE(t.reachable(1));
  EXPECT_FALSE(t.reachable(2));
  EXPECT_FALSE(t.reachable(3));
}

TEST(BfsTree, TreeEdgeChild) {
  const Graph g = gen::path(4);
  const BfsTree t(g, 0);
  const EdgeId e = g.find_edge(1, 2);
  ASSERT_TRUE(t.is_tree_edge(g, e));
  EXPECT_EQ(t.tree_edge_child(g, e).value(), 2u);
}

TEST(BfsTree, NonTreeEdgeHasNoChild) {
  const Graph g = gen::cycle(4);
  const BfsTree t(g, 0);
  // Exactly one cycle edge is a non-tree edge.
  int non_tree = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) non_tree += !t.is_tree_edge(g, e);
  EXPECT_EQ(non_tree, 1);
}

TEST(BfsTree, SharedPathEdgesAreTheAgreeingSuffix) {
  // Canonical paths are the lexicographically first shortest paths, so two
  // trees join any two vertices their paths to t share by the same subpath.
  // Hence the edges of T_s's path to t that lie on T_r's path to t are a
  // suffix: exactly the run, up from t, where T_r gives each path vertex
  // T_s's parent edge. Algorithm 4's guard (core/assembly.cpp) relies on it.
  Rng rng(0x5AFF1C5);
  for (int iter = 0; iter < 16; ++iter) {
    const Graph g = iter % 4 == 0   ? gen::grid(5 + iter % 5, 7 + iter)
                    : iter % 4 == 1 ? gen::connected_gnp(60, 0.06, rng)
                    : iter % 4 == 2 ? gen::path_with_chords(80, 12, rng)
                                    : gen::connected_avg_degree(120, 3.0, rng);
    const Vertex n = g.num_vertices();
    for (int pair = 0; pair < 4; ++pair) {
      const RootedTree ts(g, static_cast<Vertex>(rng.next_below(n)));
      const RootedTree tr(g, static_cast<Vertex>(rng.next_below(n)));
      for (Vertex t = 0; t < n; ++t) {
        const std::vector<Vertex> path = ts.tree.path_to(t);
        const std::vector<EdgeId> edges = ts.tree.path_edges(t);
        std::size_t agree = edges.size();  // first position of the agreeing run
        while (agree > 0 && tr.tree.parent_edge(path[agree]) == edges[agree - 1]) --agree;
        for (std::size_t pos = 0; pos < edges.size(); ++pos) {
          EXPECT_EQ(tr.edge_on_path_to(edges[pos], path[pos], path[pos + 1], t), pos >= agree)
              << "iter=" << iter << " s=" << ts.root() << " r=" << tr.root() << " t=" << t
              << " pos=" << pos;
        }
      }
    }
  }
}

TEST(BfsTree, OrderIsBfsOrder) {
  const Graph g = gen::grid(3, 3);
  const BfsTree t(g, 4);  // center
  const auto& ord = t.order();
  ASSERT_EQ(ord.size(), 9u);
  EXPECT_EQ(ord[0], 4u);
  for (std::size_t i = 1; i < ord.size(); ++i) {
    EXPECT_GE(t.dist(ord[i]), t.dist(ord[i - 1]));
  }
}

// ---------------------------------------------------------- ancestor index

/// Reference stamps from a recursive DFS over the graph: u's children are
/// the neighbours whose parent edge is the arc to u, in adjacency order —
/// the order BFS discovered them in. One stamp on entry, one on exit.
void expect_recursive_dfs_stamps(const Graph& g, const BfsTree& t) {
  const Vertex n = g.num_vertices();
  std::vector<std::uint32_t> tin(n, AncestorIndex::kNoStamp), tout(n, AncestorIndex::kNoStamp);
  std::uint32_t stamp = 0;
  std::function<void(Vertex)> dfs = [&](Vertex u) {
    tin[u] = stamp++;
    for (const Arc& a : g.neighbors(u)) {
      if (a.to != t.root() && t.parent_edge(a.to) == a.edge && t.parent(a.to) == u) dfs(a.to);
    }
    tout[u] = stamp++;
  };
  dfs(t.root());

  const AncestorIndex anc(t);
  for (Vertex v = 0; v < n; ++v) {
    EXPECT_EQ(anc.tin(v), tin[v]) << "root=" << t.root() << " v=" << v;
    EXPECT_EQ(anc.tout(v), tout[v]) << "root=" << t.root() << " v=" << v;
  }
}

TEST(AncestorIndex, MatchesRecursiveDfsOnGrids) {
  for (const auto& [rows, cols] : {std::pair<Vertex, Vertex>{1, 1}, {1, 9}, {4, 4}, {7, 12}}) {
    const Graph g = gen::grid(rows, cols);
    for (Vertex root = 0; root < g.num_vertices(); root += 3) {
      expect_recursive_dfs_stamps(g, BfsTree(g, root));
    }
  }
}

TEST(AncestorIndex, MatchesRecursiveDfsOnErGraphs) {
  Rng rng(0xA11CE);
  for (int iter = 0; iter < 6; ++iter) {
    const Graph g = gen::connected_avg_degree(150 + 40 * iter, 2.0 + iter, rng);
    for (int r = 0; r < 4; ++r) {
      expect_recursive_dfs_stamps(g, BfsTree(g, static_cast<Vertex>(rng.next_below(150))));
    }
  }
}

TEST(AncestorIndex, UnreachableVerticesKeepNoStamp) {
  Rng rng(12);
  const Graph g = gen::erdos_renyi(200, 0.006, rng);  // several components
  for (Vertex root = 0; root < 200; root += 17) {
    const BfsTree t(g, root);
    ASSERT_LT(t.order().size(), 200u);
    expect_recursive_dfs_stamps(g, t);
    const AncestorIndex anc(t);
    for (Vertex v = 0; v < 200; ++v) {
      if (t.reachable(v)) continue;
      EXPECT_EQ(anc.tin(v), AncestorIndex::kNoStamp);
      EXPECT_EQ(anc.tout(v), AncestorIndex::kNoStamp);
    }
  }
}

TEST(AncestorIndex, MatchesRecursiveDfsOnSkipEdgeTrees) {
  Rng rng(0x5C1B);
  const Graph grid = gen::grid(6, 9);
  const Graph chords = gen::path_with_chords(90, 10, rng);
  for (const Graph* g : {&grid, &chords}) {
    for (EdgeId e = 0; e < g->num_edges(); e += 5) {
      expect_recursive_dfs_stamps(*g, BfsTree(*g, 0, e));
    }
  }
}

TEST(BfsTree, LeanPoolTreesMatchFullTrees) {
  Rng rng(0x1EA);
  const Graph g = gen::connected_avg_degree(400, 4.0, rng);
  std::vector<Vertex> roots;
  for (Vertex r = 0; r < 400; r += 7) roots.push_back(r);
  ThreadPool threads(3);
  TreePool pool(g, /*lean=*/true);
  pool.ensure(roots, &threads);
  for (const Vertex r : roots) {
    const BfsTree& lean = pool.existing(r).tree;
    const RootedTree full(g, r);
    ASSERT_TRUE(lean.lean());
    ASSERT_FALSE(full.tree.lean());
    EXPECT_EQ(lean.root(), r);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(lean.dist(v), full.tree.dist(v)) << "r=" << r << " v=" << v;
      EXPECT_EQ(lean.parent_edge(v), full.tree.parent_edge(v)) << "r=" << r << " v=" << v;
    }
  }
  EXPECT_THROW(pool.existing(roots[0]).tree.path_to(1), std::invalid_argument);
}

// --------------------------------------------------------------------- lca

/// Naive LCA by climbing parents.
Vertex naive_lca(const BfsTree& t, Vertex x, Vertex y) {
  if (!t.reachable(x) || !t.reachable(y)) return kNoVertex;
  while (x != y) {
    if (t.dist(x) < t.dist(y)) std::swap(x, y);
    x = t.parent(x);
  }
  return x;
}

class LcaParamTest : public testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(LcaParamTest, MatchesNaiveOnRandomGraphs) {
  const auto [n, p, seed] = GetParam();
  Rng rng(seed);
  const Graph g = gen::connected_gnp(static_cast<Vertex>(n), p, rng);
  const BfsTree t(g, 0);
  const Lca lca(t);
  for (int q = 0; q < 2000; ++q) {
    const auto x = static_cast<Vertex>(rng.next_below(n));
    const auto y = static_cast<Vertex>(rng.next_below(n));
    EXPECT_EQ(lca.lca(x, y), naive_lca(t, x, y)) << "x=" << x << " y=" << y;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LcaParamTest,
                         testing::Values(std::make_tuple(2, 0.5, 1),
                                         std::make_tuple(17, 0.2, 2),
                                         std::make_tuple(64, 0.08, 3),
                                         std::make_tuple(200, 0.02, 4),
                                         std::make_tuple(333, 0.01, 5)));

TEST(Lca, SelfAndRoot) {
  const Graph g = gen::grid(3, 3);
  const BfsTree t(g, 0);
  const Lca lca(t);
  EXPECT_EQ(lca.lca(5, 5), 5u);
  EXPECT_EQ(lca.lca(0, 7), 0u);
  EXPECT_TRUE(lca.is_ancestor(0, 8));
  EXPECT_TRUE(lca.is_ancestor(8, 8));
}

TEST(Lca, AncestryOnPath) {
  const Graph g = gen::path(8);
  const BfsTree t(g, 0);
  const Lca lca(t);
  EXPECT_TRUE(lca.is_ancestor(3, 6));
  EXPECT_FALSE(lca.is_ancestor(6, 3));
  EXPECT_EQ(lca.lca(3, 6), 3u);
  EXPECT_TRUE(lca.edge_on_path(3, 7));   // edge (2,3) on 0->7 path
  EXPECT_FALSE(lca.edge_on_path(5, 4));  // edge (4,5) not on 0->4 path
}

TEST(Lca, DisconnectedQueries) {
  Graph g(5, {{0, 1}, {1, 2}, {3, 4}});
  const BfsTree t(g, 0);
  const Lca lca(t);
  EXPECT_EQ(lca.lca(1, 3), kNoVertex);
  EXPECT_FALSE(lca.is_ancestor(0, 3));
  EXPECT_FALSE(lca.is_ancestor(3, 3));  // unreachable: no Euler interval
  EXPECT_EQ(lca.tree_distance(1, 3), kInfDist);
}

TEST(Lca, TreeDistanceMatchesBfsOnTrees) {
  Rng rng(31);
  const Graph g = gen::random_tree(120, rng);
  const BfsTree t(g, 0);
  const Lca lca(t);
  // On a tree, tree_distance equals true graph distance.
  for (int q = 0; q < 500; ++q) {
    const auto x = static_cast<Vertex>(rng.next_below(120));
    const BfsTree tx(g, x);
    const auto y = static_cast<Vertex>(rng.next_below(120));
    EXPECT_EQ(lca.tree_distance(x, y), tx.dist(y));
  }
}

TEST(Lca, SingleVertexGraph) {
  Graph g(1);
  const BfsTree t(g, 0);
  const Lca lca(t);
  EXPECT_EQ(lca.lca(0, 0), 0u);
  EXPECT_EQ(lca.tree_distance(0, 0), 0u);
}

}  // namespace
}  // namespace msrp
