// EXP-build — oracle construction cost and its thread scaling.
//
// The serving layer amortizes one build over millions of queries, but a
// cold-cache miss still pays the full solve, so build latency is the
// service's tail latency. Rows: wall-clock build time per workload at
// 1/2/4/8 build threads (UseRealTime — the work happens on the solver's
// pool). The parallel build is bit-identical to the sequential one (see
// tests/determinism_test.cpp), so these rows are pure speed, not accuracy,
// trade-offs. Every row also carries the solver's phase timings as
// sec_<phase> counters (mean seconds per build), so a build row reads layer
// by layer: sample+bfs, landmark table, near-small Dijkstra, assembly.
//
// bench/run_benchmarks.sh (or the bench_json CMake target) serializes this
// suite to BENCH_build.json at the repo root for cross-PR tracking; the CI
// bench-smoke job runs only the *Small rows against a checked-in baseline.
#include <map>
#include <string>

#include "bench_common.hpp"

namespace {

using namespace msrp;
using namespace msrp::benchutil;

void run_build(benchmark::State& state, const Graph& g, std::uint32_t sigma,
               LandmarkRpMethod method) {
  const auto sources = spread_sources(g, sigma);
  Config cfg;
  cfg.landmark_rp = method;
  cfg.build_threads = static_cast<unsigned>(state.range(0));
  std::map<std::string, double> phase_seconds;
  for (auto _ : state) {
    const MsrpResult res = solve_msrp(g, sources, cfg);
    benchmark::DoNotOptimize(res.stats().num_landmarks);
    for (const auto& [name, secs] : res.stats().phase_seconds) phase_seconds[name] += secs;
  }
  for (const auto& [name, secs] : phase_seconds) {
    state.counters["sec_" + name] =
        benchmark::Counter(secs, benchmark::Counter::kAvgIterations);
  }
  state.counters["n"] = g.num_vertices();
  state.counters["m"] = g.num_edges();
  state.counters["sigma"] = sigma;
  // Named build_threads, not threads: google-benchmark already emits a
  // built-in "threads" field per row, and duplicate JSON keys would poison
  // the committed BENCH/baseline files for strict parsers.
  state.counters["build_threads"] = static_cast<double>(state.range(0));
}

// The acceptance workload: a 10k-vertex grid (highest diameter, largest
// replacement table per source; assembly dominates and spreads across
// target chunks).
void BM_BuildGrid10k(benchmark::State& state) {
  static const Graph g = grid_graph(10000);
  run_build(state, g, 4, LandmarkRpMethod::kMmgPerPair);
}
BENCHMARK(BM_BuildGrid10k)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime()->Iterations(1);

// Low-diameter ER: the MMG per-pair landmark table is the biggest phase.
void BM_BuildER4k(benchmark::State& state) {
  static const Graph g = er_graph(4096, 8.0);
  run_build(state, g, 4, LandmarkRpMethod::kMmgPerPair);
}
BENCHMARK(BM_BuildER4k)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime()->Iterations(1);

// Long chorded path: deep canonical paths, mid diameter.
void BM_BuildChord8k(benchmark::State& state) {
  static const Graph g = chorded_path(8192);
  run_build(state, g, 4, LandmarkRpMethod::kMmgPerPair);
}
BENCHMARK(BM_BuildChord8k)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime()->Iterations(1);

// The Bernstein–Karger pipeline (Sections 8.1–8.3): exercises the bucket-
// queue auxiliary Dijkstras and scratch arenas hardest (thousands of small
// aux graphs per build).
void BM_BuildBk(benchmark::State& state) {
  static const Graph g = er_graph(768, 8.0);
  run_build(state, g, 4, LandmarkRpMethod::kBkAuxGraphs);
}
BENCHMARK(BM_BuildBk)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Small rows for the CI bench-smoke regression guard (quick even in a
// throttled CI container; compared against bench/baseline_build.json).
void BM_BuildGridSmall(benchmark::State& state) {
  static const Graph g = grid_graph(2500);
  run_build(state, g, 4, LandmarkRpMethod::kMmgPerPair);
}
BENCHMARK(BM_BuildGridSmall)
    ->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
