// EXP-service: batched query throughput of the service layer.
//
// Rows: queries/sec for a fixed 100k-query batch as the worker-thread count
// grows (the tentpole scaling claim: >= 2x at 4 threads on multicore),
// snapshot vs. text (de)serialization speed, cold-load-to-first-answer of
// the snapshot (buffered vs. zero-copy mmap) on a high-diameter grid (the
// largest cells payload per vertex), and sync vs. async batch
// serving: submit_batch() latency on a cold cache plus end-to-end
// throughput when batches overlap on the pool.
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/serialize.hpp"
#include "service/query_gen.hpp"
#include "service/query_service.hpp"
#include "service/shard_router.hpp"

namespace msrp {
namespace {

constexpr Vertex kN = 1000;
constexpr std::uint32_t kSigma = 8;
constexpr std::size_t kBatch = 100'000;

const service::Snapshot& demo_oracle() {
  static const service::Snapshot snap = [] {
    const Graph g = benchutil::er_graph(kN, 8.0);
    const MsrpResult res = solve_msrp(g, benchutil::spread_sources(g, kSigma));
    return service::Snapshot::capture(res);
  }();
  return snap;
}

std::vector<service::Query> make_batch(const service::Snapshot& oracle, std::size_t count,
                                       std::uint64_t seed) {
  Rng rng(seed);
  return service::random_query_batch(oracle.sources(), oracle.num_vertices(),
                                     oracle.num_edges(), count, rng);
}

std::vector<service::Query> demo_batch(const service::Snapshot& oracle) {
  return make_batch(oracle, kBatch, 99);
}

void BM_QueryBatch(benchmark::State& state) {
  const service::Snapshot& oracle = demo_oracle();
  const std::vector<service::Query> batch = demo_batch(oracle);
  service::QueryService svc({.threads = static_cast<unsigned>(state.range(0))});
  for (auto _ : state) {
    auto answers = svc.query_batch(oracle, batch);
    benchmark::DoNotOptimize(answers.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_QueryBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Multi-process flavour of the row above: the same 100k batch routed to
// `shards` forked workers over shared-memory SPSC rings. Includes the full
// routing overhead (validate, bucket, ring round-trips, merge); segment
// placement and worker spawn happen once, outside the timed region.
void BM_QueryBatchSharded(benchmark::State& state) {
  const service::Snapshot& oracle = demo_oracle();
  const std::vector<service::Query> batch = demo_batch(oracle);
  service::ShardRouterOptions opts;
  opts.shards = static_cast<unsigned>(state.range(0));
  service::ShardRouter router(oracle, opts);
  for (auto _ : state) {
    auto answers = router.query_batch(batch);
    benchmark::DoNotOptimize(answers.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_QueryBatchSharded)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// ------------------------------------------------------- cold-load latency ---

// The cold-load rows use the highest-diameter workload: a square grid's
// replacement table has ~n*sqrt(n) cells per source, while the v2 load
// only has to touch the O(n + m) metadata.
struct ColdLoadFiles {
  std::string v2_path;
  service::Query probe;  // one valid query for "to-first-answer"
};

const ColdLoadFiles& cold_load_files() {
  static const ColdLoadFiles files = [] {
    const Graph g = benchutil::grid_graph(3600);
    const auto sources = benchutil::spread_sources(g, 4);
    const MsrpResult res = solve_msrp(g, sources);
    const service::Snapshot snap = service::Snapshot::capture(res);
    const std::string dir = std::filesystem::temp_directory_path().string();
    ColdLoadFiles f;
    f.v2_path = dir + "/msrp_bench_cold.v2.snap";
    snap.save(f.v2_path, service::SnapshotFormat::kV2);
    f.probe = {sources[0], g.num_vertices() - 1, 0};
    std::printf("# cold-load file: v2=%zu bytes\n", std::filesystem::file_size(f.v2_path));
    return f;
  }();
  return files;
}

void cold_load_iteration(benchmark::State& state, const std::string& path,
                         const service::Snapshot::LoadOptions& opts) {
  const service::Query probe = cold_load_files().probe;
  for (auto _ : state) {
    const service::Snapshot snap = service::Snapshot::load(path, opts);
    benchmark::DoNotOptimize(snap.avoiding(probe.s, probe.t, probe.e));
  }
}

void BM_ColdLoadToFirstAnswerV2(benchmark::State& state) {
  cold_load_iteration(state, cold_load_files().v2_path, {.verify_cells = true});
}
BENCHMARK(BM_ColdLoadToFirstAnswerV2)->Unit(benchmark::kMillisecond);

void BM_ColdLoadToFirstAnswerV2Mmap(benchmark::State& state) {
  cold_load_iteration(state, cold_load_files().v2_path,
                      {.use_mmap = true, .verify_cells = false});
}
BENCHMARK(BM_ColdLoadToFirstAnswerV2Mmap)->Unit(benchmark::kMillisecond);

// ----------------------------------------------------------- async serving ---

// Submit latency on a cold cache: the measured region is ONLY the
// submit_batch() call — the MSRP solve it triggers runs on the pool and is
// drained outside the timer. A fresh service per iteration keeps the cache
// cold.
void BM_AsyncSubmitColdCache(benchmark::State& state) {
  const Graph g = benchutil::er_graph(400, 6.0, /*seed=*/1234);
  const std::vector<Vertex> sources = benchutil::spread_sources(g, 4);
  std::vector<service::Query> queries;
  for (Vertex t = 0; t < g.num_vertices(); ++t) queries.push_back({sources[0], t, 0});
  for (auto _ : state) {
    state.PauseTiming();
    {
      service::QueryService svc({.threads = 4});
      state.ResumeTiming();
      auto fut = svc.submit_batch(g, sources, Config{}, queries);
      state.PauseTiming();
      benchmark::DoNotOptimize(fut.get().answers.data());
    }  // service teardown stays outside the timed region
    state.ResumeTiming();
  }
}
BENCHMARK(BM_AsyncSubmitColdCache)->Unit(benchmark::kMicrosecond)->Iterations(8);

// Sync vs. async end-to-end throughput for a burst of batches: the sync
// caller runs them lockstep; the async caller submits all of them and
// drains, letting independent batches overlap on the pool.
constexpr std::size_t kBurst = 8;
constexpr std::size_t kBurstBatch = 25'000;

void BM_BurstSync(benchmark::State& state) {
  const service::Snapshot& oracle = demo_oracle();
  service::QueryService svc({.threads = 4});
  std::vector<std::vector<service::Query>> batches;
  for (std::size_t b = 0; b < kBurst; ++b) {
    batches.push_back(make_batch(oracle, kBurstBatch, 1000 + b));
  }
  for (auto _ : state) {
    for (const auto& batch : batches) {
      auto answers = svc.query_batch(oracle, batch);
      benchmark::DoNotOptimize(answers.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBurst * kBurstBatch));
}
BENCHMARK(BM_BurstSync)->UseRealTime();

void BM_BurstAsync(benchmark::State& state) {
  service::QueryService svc({.threads = 4});
  // Alias the static demo oracle (non-owning) so sync and async rows serve
  // the exact same object instead of paying a second solve at startup.
  std::shared_ptr<const service::Snapshot> oracle(std::shared_ptr<const void>{},
                                                  &demo_oracle());
  std::vector<std::vector<service::Query>> batches;
  for (std::size_t b = 0; b < kBurst; ++b) {
    batches.push_back(make_batch(*oracle, kBurstBatch, 1000 + b));
  }
  for (auto _ : state) {
    std::vector<std::future<service::BatchResult>> futures;
    futures.reserve(kBurst);
    for (const auto& batch : batches) futures.push_back(svc.submit_batch(oracle, batch));
    for (auto& fut : futures) benchmark::DoNotOptimize(fut.get().answers.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBurst * kBurstBatch));
}
BENCHMARK(BM_BurstAsync)->UseRealTime();

// -------------------------------------------------------- (de)serialization ---

void snapshot_round_trip(benchmark::State& state, service::SnapshotFormat format) {
  const service::Snapshot& oracle = demo_oracle();
  std::stringstream ss;
  oracle.write(ss, format);
  const std::string image = ss.str();
  for (auto _ : state) {
    std::stringstream in(image);
    auto loaded = service::Snapshot::read(in);
    benchmark::DoNotOptimize(loaded.num_vertices());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(image.size()));
}

void BM_SnapshotRoundTripV2(benchmark::State& state) {
  snapshot_round_trip(state, service::SnapshotFormat::kV2);
}
BENCHMARK(BM_SnapshotRoundTripV2);

void BM_TextRoundTrip(benchmark::State& state) {
  const Graph g = benchutil::er_graph(kN, 8.0);
  const MsrpResult res = solve_msrp(g, benchutil::spread_sources(g, kSigma));
  std::stringstream ss;
  write_result(ss, res);
  const std::string image = ss.str();
  for (auto _ : state) {
    std::stringstream in(image);
    auto loaded = SerializedResult::read(in);
    benchmark::DoNotOptimize(loaded.num_vertices());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(image.size()));
}
BENCHMARK(BM_TextRoundTrip);

}  // namespace
}  // namespace msrp
