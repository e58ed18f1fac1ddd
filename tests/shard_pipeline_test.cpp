// Pipelined shard transport under ThreadSanitizer.
//
// The fork-based shard_test suite cannot run under TSan (TSan and fork do
// not mix), so this file exercises exactly the concurrency the pipelined
// ShardRouter added — M submitter threads overlapping batches in the SPSC
// rings under distinct tag namespaces, the collector thread multiplexing
// them, and the futex doorbells in between — with workers running as
// in-process std::threads (ShardRouterOptions::workers_in_process). The
// workers attach the same shm segments by name, so the full transport is
// under the sanitizer: rings, doorbells, collector hand-off, stats.
//
// This test IS in the sanitizer CI regex; keep it fork-free.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/msrp.hpp"
#include "graph/generators.hpp"
#include "service/query_service.hpp"
#include "service/shard_router.hpp"
#include "util/futex.hpp"

namespace msrp {
namespace {

using service::Query;
using service::ShardRouter;
using service::ShardRouterOptions;
using service::Snapshot;

std::vector<Query> random_queries(const Snapshot& oracle, std::size_t count,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back({oracle.sources()[rng.next_below(oracle.num_sources())],
                   static_cast<Vertex>(rng.next_below(oracle.num_vertices())),
                   static_cast<EdgeId>(rng.next_below(oracle.num_edges()))});
  }
  return out;
}

TEST(ShardPipelineTest, FutexDoorbellWakesPromptly) {
  // Mechanism check: a parked waiter returns as soon as the word is bumped
  // and woken, and a bump racing the park is never lost (the kernel's
  // compare inside FUTEX_WAIT sees it). Measured far below the bounded
  // timeout to prove the wake, not the timeout, ended the wait.
  std::atomic<std::uint32_t> word{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    word.fetch_add(1, std::memory_order_release);
    util::futex_wake_u32(word, 1);
  });
  while (word.load(std::memory_order_acquire) == 0) {
    util::futex_wait_u32(word, 0, 2'000'000);  // 2 s bound; wake must beat it
  }
  waker.join();
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(waited).count(), 1000)
      << "futex wait appears timeout-bound, not wake-bound";
}

TEST(ShardPipelineTest, OverlappingBatchesMatchInProcess) {
  service::QueryService svc({.threads = 2, .min_parallel_batch = 64});
  Rng rng(0x7E57);
  const Graph g = gen::connected_avg_degree(120, 6.0, rng);
  const std::vector<Vertex> sources{0, 30, 60, 90};
  const auto oracle = svc.build(g, sources);

  constexpr int kBatches = 5;
  std::vector<std::vector<Query>> queries(kBatches);
  std::vector<std::vector<Dist>> want(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    queries[b] = random_queries(*oracle, 1200, 61 + b);
    want[b] = svc.query_batch(*oracle, queries[b]);
  }

  ShardRouterOptions opts;
  opts.shards = 2;
  opts.ring_capacity = 32;  // tiny rings: maximum interleaving pressure
  opts.workers_in_process = true;
  ShardRouter router(*oracle, opts);

  std::vector<std::thread> threads;
  std::vector<std::vector<Dist>> got(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    threads.emplace_back([&, b] { got[b] = router.query_batch(queries[b]); });
  }
  for (auto& t : threads) t.join();
  for (int b = 0; b < kBatches; ++b) {
    EXPECT_EQ(got[b], want[b]) << "batch " << b;
  }
  const auto st = router.stats();
  EXPECT_EQ(st.batches_routed, static_cast<std::uint64_t>(kBatches));
  EXPECT_GT(st.peak_inflight_batches, 1u) << "batches serialized, not pipelined";
}

TEST(ShardPipelineTest, RepeatedBatchesOnOneRouterStayConsistent) {
  service::QueryService svc({.threads = 1});
  Rng rng(0x5EED);
  const Graph g = gen::connected_gnp(60, 0.15, rng);
  const std::vector<Vertex> sources{2, 31};
  const auto oracle = svc.build(g, sources);

  ShardRouterOptions opts;
  opts.shards = 2;
  opts.workers_in_process = true;
  ShardRouter router(*oracle, opts);

  const auto queries = random_queries(*oracle, 800, 71);
  const auto want = svc.query_batch(*oracle, queries);
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(router.query_batch(queries), want) << "round " << round;
  }
  EXPECT_EQ(router.stats().respawns, 0u);
}

}  // namespace
}  // namespace msrp
