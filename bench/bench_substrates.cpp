// EXP-6 (DESIGN.md): substrate micro-benchmarks.
//
// Verifies the per-primitive contracts the paper's accounting relies on:
// O(m + n) BFS, O(1) LCA query after O(n log n) build, worst-case O(1)
// cuckoo-hash lookup (Lemma 5 / Lemma 6), and O((m + n) log n) single-pair
// replacement paths ([21, 20, 22]).
#include <benchmark/benchmark.h>

#include <unordered_map>

#include "graph/generators.hpp"
#include "rp/single_pair.hpp"
#include "tree/ancestry.hpp"
#include "tree/bfs_tree.hpp"
#include "tree/lca.hpp"
#include "util/cuckoo_hash.hpp"
#include "util/rng.hpp"

namespace {

using namespace msrp;

Graph make_graph(std::int64_t n) {
  Rng rng(1234);
  return gen::connected_avg_degree(static_cast<Vertex>(n), 8.0, rng);
}

void BM_Bfs(benchmark::State& state) {
  const Graph g = make_graph(state.range(0));
  for (auto _ : state) {
    BfsTree t(g, 0);
    benchmark::DoNotOptimize(t.dist(g.num_vertices() - 1));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Bfs)->RangeMultiplier(2)->Range(1 << 10, 1 << 16)->Complexity(benchmark::oN);

void BM_LcaBuild(benchmark::State& state) {
  const Graph g = make_graph(state.range(0));
  const BfsTree t(g, 0);
  for (auto _ : state) {
    Lca lca(t);
    benchmark::DoNotOptimize(lca.lca(1, 2));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LcaBuild)->RangeMultiplier(4)->Range(1 << 10, 1 << 16)->Complexity();

void BM_AncestorIndexBuild(benchmark::State& state) {
  const Graph g = make_graph(state.range(0));
  const BfsTree t(g, 0);
  for (auto _ : state) {
    AncestorIndex anc(t);
    benchmark::DoNotOptimize(anc.tout(0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AncestorIndexBuild)->RangeMultiplier(4)->Range(1 << 10, 1 << 16)->Complexity();

void BM_LcaQuery(benchmark::State& state) {
  const Graph g = make_graph(state.range(0));
  const BfsTree t(g, 0);
  const Lca lca(t);
  Rng rng(9);
  const auto n = static_cast<Vertex>(g.num_vertices());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lca.lca(static_cast<Vertex>(rng.next_below(n)), static_cast<Vertex>(rng.next_below(n))));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LcaQuery)->RangeMultiplier(4)->Range(1 << 10, 1 << 16)->Complexity(benchmark::o1);

void BM_CuckooLookup(benchmark::State& state) {
  CuckooHash<Dist> h;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t k = 0; k < n; ++k) h.put(pack_key(k & 1023, k >> 10, 0), static_cast<Dist>(k));
  Rng rng(4);
  for (auto _ : state) {
    const std::uint64_t k = rng.next_below(n);
    benchmark::DoNotOptimize(h.find(pack_key(k & 1023, k >> 10, 0)));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CuckooLookup)->RangeMultiplier(4)->Range(1 << 10, 1 << 20)->Complexity(benchmark::o1);

void BM_UnorderedMapLookup(benchmark::State& state) {
  std::unordered_map<std::uint64_t, Dist> h;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t k = 0; k < n; ++k) h[pack_key(k & 1023, k >> 10, 0)] = static_cast<Dist>(k);
  Rng rng(4);
  for (auto _ : state) {
    const std::uint64_t k = rng.next_below(n);
    benchmark::DoNotOptimize(h.find(pack_key(k & 1023, k >> 10, 0)));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_UnorderedMapLookup)
    ->RangeMultiplier(4)
    ->Range(1 << 10, 1 << 20)
    ->Complexity(benchmark::o1);

void BM_SinglePairRp(benchmark::State& state) {
  const Graph g = make_graph(state.range(0));
  const BfsTree ts(g, 0);
  // Farthest reachable vertex = longest path = hardest instance.
  Vertex t = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (ts.reachable(v) && ts.dist(v) > ts.dist(t)) t = v;
  }
  for (auto _ : state) {
    const SinglePairRp rp = replacement_paths(g, ts, t);
    benchmark::DoNotOptimize(rp.avoiding.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SinglePairRp)
    ->RangeMultiplier(2)
    ->Range(1 << 10, 1 << 15)
    ->Complexity(benchmark::oNLogN);

}  // namespace
