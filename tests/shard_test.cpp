// Multi-process sharded serving: plan/slice correctness, router-vs-
// in-process differential checks, zero-copy placement accounting, worker
// death + single-flight respawn, and shared-memory cleanup on exit.
//
// These tests fork real worker processes, so they are deliberately NOT in
// the sanitizer CI regex (TSan and fork do not mix); the plain Debug and
// Release matrix runs them.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "baseline/baselines.hpp"
#include "core/msrp.hpp"
#include "graph/generators.hpp"
#include "service/query_service.hpp"
#include "service/shard_router.hpp"
#include "util/shm.hpp"

#include <csignal>
#include <unistd.h>

namespace msrp {
namespace {

using service::Query;
using service::ShardPlan;
using service::ShardRouter;
using service::ShardRouterOptions;
using service::Snapshot;

Snapshot demo_snapshot(Vertex n, std::uint32_t sigma, std::uint64_t seed) {
  Rng rng(seed);
  const Graph g = gen::connected_avg_degree(n, 6.0, rng);
  std::vector<Vertex> sources;
  for (std::uint32_t i = 0; i < sigma; ++i) sources.push_back(i * (n / sigma));
  return Snapshot::capture(solve_msrp(g, sources));
}

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

TEST(ShardPlanTest, ContiguousCoveringPartition) {
  const Snapshot oracle = demo_snapshot(120, 6, 1);
  for (unsigned shards : {1u, 2u, 3u, 4u, 6u, 9u}) {
    const ShardPlan plan = ShardPlan::build(oracle, shards);
    const unsigned k_total = plan.num_shards();
    EXPECT_EQ(k_total, std::min<unsigned>(shards, oracle.num_sources()));
    EXPECT_EQ(plan.begin(0), 0u);
    EXPECT_EQ(plan.end(k_total - 1), oracle.num_sources());
    std::uint64_t cells = 0;
    for (unsigned k = 0; k < k_total; ++k) {
      EXPECT_LT(plan.begin(k), plan.end(k)) << "shard " << k << " empty";
      if (k > 0) {
        EXPECT_EQ(plan.begin(k), plan.end(k - 1));
      }
      cells += plan.shard_cells(k);
      for (std::uint32_t si = plan.begin(k); si < plan.end(k); ++si) {
        EXPECT_EQ(plan.shard_of(si), k);
        EXPECT_EQ(plan.local_index(si), si - plan.begin(k));
      }
    }
    std::uint64_t want_cells = 0;
    for (std::uint32_t si = 0; si < oracle.num_sources(); ++si) {
      want_cells += oracle.cells_for_source(si) + oracle.num_vertices();
    }
    EXPECT_EQ(cells, want_cells);
  }
}

TEST(ShardPlanTest, SkewedWeightsStayBalanced) {
  // Sources differ in table size (cells scale with distance-sum); the plan
  // must stay within the greedy split's balance bound, not dump everything
  // in shard 0.
  const Snapshot oracle = demo_snapshot(400, 8, 7);
  const ShardPlan plan = ShardPlan::build(oracle, 4);
  std::uint64_t max_cells = 0, total = 0;
  for (unsigned k = 0; k < plan.num_shards(); ++k) {
    max_cells = std::max(max_cells, plan.shard_cells(k));
    total += plan.shard_cells(k);
  }
  // No shard carries more than the average plus one source's worth of the
  // heaviest weight (the greedy split's worst case).
  std::uint64_t heaviest = 0;
  for (std::uint32_t si = 0; si < oracle.num_sources(); ++si) {
    heaviest = std::max(heaviest,
                        oracle.cells_for_source(si) + oracle.num_vertices());
  }
  EXPECT_LE(max_cells, total / plan.num_shards() + heaviest);
}

TEST(SnapshotSliceTest, SliceAnswersMatchFull) {
  const Snapshot oracle = demo_snapshot(150, 5, 3);
  const std::vector<std::uint32_t> subset{1, 2, 4};
  const Snapshot sliced = oracle.slice(subset);
  ASSERT_EQ(sliced.num_sources(), subset.size());
  EXPECT_EQ(sliced.num_vertices(), oracle.num_vertices());
  EXPECT_EQ(sliced.num_edges(), oracle.num_edges());
  EXPECT_NE(sliced.content_digest(), oracle.content_digest());
  for (std::uint32_t i = 0; i < subset.size(); ++i) {
    const Vertex s = oracle.sources()[subset[i]];
    ASSERT_EQ(sliced.sources()[i], s);
    for (Vertex t = 0; t < oracle.num_vertices(); t += 7) {
      for (EdgeId e = 0; e < oracle.num_edges(); e += 13) {
        ASSERT_EQ(sliced.avoiding(s, t, e), oracle.avoiding(s, t, e));
      }
    }
  }
}

TEST(SnapshotSliceTest, SliceRoundTripsThroughAttach) {
  const Snapshot oracle = demo_snapshot(100, 4, 9);
  const Snapshot sliced = oracle.slice(std::vector<std::uint32_t>{0, 3});
  auto image = std::make_shared<std::vector<std::uint8_t>>(
      sliced.encode(service::SnapshotFormat::kV2));
  const Snapshot attached =
      Snapshot::attach(image->data(), image->size(), image, {.verify_cells = true});
  EXPECT_TRUE(attached.is_mapped());
  EXPECT_EQ(attached.content_digest(), sliced.content_digest());
}

TEST(ShardRouterTest, MatchesInProcessOnRandomGraphs) {
  service::QueryService svc({.threads = 2, .min_parallel_batch = 64});
  for (std::uint64_t iter = 0; iter < 6; ++iter) {
    Rng rng(0x5AADD + iter);
    const Vertex n = static_cast<Vertex>(20 + rng.next_below(80));
    const Graph g = gen::connected_gnp(n, 0.15, rng);
    const std::uint32_t sigma = 1 + static_cast<std::uint32_t>(rng.next_below(5));
    const auto picks = rng.sample_without_replacement(n, sigma);
    const auto oracle = svc.build(g, {picks.begin(), picks.end()});

    const std::vector<Query> queries = random_queries(*oracle, 2000, iter);
    const std::vector<Dist> want = svc.query_batch(*oracle, queries);

    for (unsigned shards : {1u, 2u, 3u}) {
      ShardRouterOptions opts;
      opts.shards = shards;
      ShardRouter router(*oracle, opts);
      EXPECT_EQ(router.query_batch(queries), want)
          << "shards=" << shards << " iter=" << iter;
    }
  }
}

TEST(ShardRouterTest, PlacesSegmentsOnceAndServesZeroCopy) {
  const Snapshot oracle = demo_snapshot(150, 4, 11);
  ShardRouterOptions opts;
  opts.shards = 4;
  ShardRouter router(oracle, opts);
  ASSERT_EQ(router.num_shards(), 4u);

  const auto before = router.stats();
  EXPECT_EQ(before.segments_placed, 4u);
  EXPECT_GT(before.bytes_placed, 0u);

  // Many batches; the snapshot bytes must be placed exactly once — serving
  // is zero-copy out of the segments, never a per-query (or per-batch) copy.
  std::size_t total = 0;
  for (int round = 0; round < 8; ++round) {
    const auto queries = random_queries(oracle, 500, 100 + round);
    const auto answers = router.query_batch(queries);
    ASSERT_EQ(answers.size(), queries.size());
    total += queries.size();
  }
  const auto after = router.stats();
  EXPECT_EQ(after.segments_placed, before.segments_placed);
  EXPECT_EQ(after.bytes_placed, before.bytes_placed);
  EXPECT_EQ(after.queries_routed, total);
  EXPECT_EQ(after.respawns, 0u);
}

TEST(ShardRouterTest, RespawnsDeadWorkerAndRequeues) {
  const Snapshot oracle = demo_snapshot(150, 4, 13);
  ShardRouterOptions opts;
  opts.shards = 2;
  ShardRouter router(oracle, opts);

  const auto queries = random_queries(oracle, 3000, 17);
  const auto want = router.query_batch(queries);

  // Kill one worker outright; the next batch must detect the death, respawn
  // against the already-placed segments, requeue, and still answer
  // everything correctly.
  const long victim = router.worker_pid(1);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(static_cast<pid_t>(victim), SIGKILL), 0);

  const auto got = router.query_batch(queries);
  EXPECT_EQ(got, want);
  const auto st = router.stats();
  EXPECT_GE(st.respawns, 1u);
  EXPECT_EQ(st.segments_placed, 2u);  // respawn reuses the placed segments
  EXPECT_NE(router.worker_pid(1), victim);
}

TEST(ShardRouterTest, ShmCountersSurviveWorkerKillAndRespawn) {
  // The workers publish per-worker request counts into the router-owned
  // shm metrics page. The page outlives the workers, and a respawned
  // worker re-finds its slot by name — so counts accumulate exactly
  // across a kill, with no lost or doubled increments. Killing while the
  // router is idle keeps the arithmetic exact: every query is popped by a
  // worker exactly once (a mid-batch kill could legitimately re-pop a
  // requeued request).
  const Snapshot oracle = demo_snapshot(150, 4, 29);
  ShardRouterOptions opts;
  opts.shards = 2;
  ShardRouter router(oracle, opts);

  const auto first = random_queries(oracle, 1000, 31);
  const auto want_first = router.query_batch(first);
  ASSERT_EQ(want_first.size(), first.size());
  EXPECT_EQ(router.worker_requests_total(), first.size());

  const long victim = router.worker_pid(1);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(static_cast<pid_t>(victim), SIGKILL), 0);

  const auto second = random_queries(oracle, 1000, 33);
  const auto answers = router.query_batch(second);
  ASSERT_EQ(answers.size(), second.size());
  EXPECT_GE(router.stats().respawns, 1u);
  EXPECT_EQ(router.worker_requests_total(), first.size() + second.size());
}

TEST(ShardRouterTest, UnlinksSegmentsOnDestruction) {
  const Snapshot oracle = demo_snapshot(80, 3, 19);
  std::vector<std::string> names;
  {
    ShardRouterOptions opts;
    opts.shards = 3;
    ShardRouter router(oracle, opts);
    names = router.segment_names();
    ASSERT_EQ(names.size(), 8u);  // snapshot + channel per shard, doorbell, metrics page
    for (const auto& name : names) {
      EXPECT_TRUE(ShmSegment::exists(name)) << name;
    }
    const auto answers = router.query_batch(random_queries(oracle, 200, 23));
    ASSERT_EQ(answers.size(), 200u);
  }
  for (const auto& name : names) {
    EXPECT_FALSE(ShmSegment::exists(name)) << name << " leaked";
  }
}

TEST(ShardRouterTest, StartupWaitIsFutexPromptNotPollingGranular) {
  // The ready wait parks on the worker-state futex and is woken the moment
  // the worker flags itself, so the time blocked in wait_worker_ready is
  // genuine worker startup (fork + shm attach), not sleep-poll quanta. A
  // generous ceiling still catches a regression to coarse polling: the old
  // 1 ms-granularity loop on a loaded machine drifted toward tens of ms
  // per shard; real startup of 4 tiny shards stays far below the bound.
  const Snapshot oracle = demo_snapshot(80, 4, 37);
  ShardRouterOptions opts;
  opts.shards = 4;
  ShardRouter router(oracle, opts);
  const auto st = router.stats();
  EXPECT_LT(st.ready_wait_us, 2'000'000u) << "ready wait looks poll-bound";
  EXPECT_EQ(st.respawns, 0u);
}

TEST(ShardRouterTest, ConcurrentBatchesOverlapAndMatchInProcess) {
  // The pipelined router must let M concurrent batches share the rings
  // under distinct tag namespaces and still merge each one bit-identically
  // to the in-process service. peak_inflight_batches > 1 pins down that
  // they really overlapped rather than serializing.
  service::QueryService svc({.threads = 2, .min_parallel_batch = 64});
  Rng rng(0xA11CE);
  const Graph g = gen::connected_avg_degree(140, 6.0, rng);
  const std::vector<Vertex> sources{0, 35, 70, 105};
  const auto oracle = svc.build(g, sources);

  constexpr int kBatches = 6;
  std::vector<std::vector<Query>> queries(kBatches);
  std::vector<std::vector<Dist>> want(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    queries[b] = random_queries(*oracle, 1500, 41 + b);
    want[b] = svc.query_batch(*oracle, queries[b]);
  }

  ShardRouterOptions opts;
  opts.shards = 2;
  opts.ring_capacity = 64;  // small rings force real interleaving
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
  EXPECT_EQ(st.queries_routed, std::uint64_t{kBatches} * 1500u);
  EXPECT_GT(st.peak_inflight_batches, 1u) << "batches serialized, not pipelined";
}

TEST(ShardRouterTest, KillMidPipelineRespawnsAndAnswersAllBatches) {
  // Kill a worker while several batches are in flight: the respawn must
  // requeue the unanswered tags of every namespace, and all batches must
  // complete with answers identical to the in-process service.
  service::QueryService svc({.threads = 2, .min_parallel_batch = 64});
  Rng rng(0xD1E);
  const Graph g = gen::connected_avg_degree(140, 6.0, rng);
  const std::vector<Vertex> sources{0, 35, 70, 105};
  const auto oracle = svc.build(g, sources);

  constexpr int kBatches = 4;
  std::vector<std::vector<Query>> queries(kBatches);
  std::vector<std::vector<Dist>> want(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    queries[b] = random_queries(*oracle, 4000, 53 + b);
    want[b] = svc.query_batch(*oracle, queries[b]);
  }

  ShardRouterOptions opts;
  opts.shards = 2;
  opts.ring_capacity = 64;
  ShardRouter router(*oracle, opts);

  std::vector<std::thread> threads;
  std::vector<std::vector<Dist>> got(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    threads.emplace_back([&, b] { got[b] = router.query_batch(queries[b]); });
  }
  // Let the pipeline get going, then kill one worker under it.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const long victim = router.worker_pid(1);
  if (victim > 0) ::kill(static_cast<pid_t>(victim), SIGKILL);
  for (auto& t : threads) t.join();

  for (int b = 0; b < kBatches; ++b) {
    EXPECT_EQ(got[b], want[b]) << "batch " << b;
  }
  if (victim > 0) {
    // If every batch drained before the SIGKILL landed, the death goes
    // unnoticed until more work arrives; one more batch forces detection.
    EXPECT_EQ(router.query_batch(queries[0]), want[0]);
    EXPECT_GE(router.stats().respawns, 1u);
    EXPECT_NE(router.worker_pid(1), victim);
  }
}

TEST(ShardRouterTest, RejectsInvalidQueries) {
  const Snapshot oracle = demo_snapshot(60, 2, 29);
  ShardRouterOptions opts;
  opts.shards = 2;
  ShardRouter router(oracle, opts);
  const Vertex non_source = [&] {
    for (Vertex v = 0;; ++v) {
      if (!oracle.is_source(v)) return v;
    }
  }();
  EXPECT_THROW(router.query_batch(std::vector<Query>{{non_source, 0, 0}}),
               std::invalid_argument);
  EXPECT_THROW(
      router.query_batch(std::vector<Query>{{oracle.sources()[0], oracle.num_vertices(), 0}}),
      std::invalid_argument);
  EXPECT_THROW(
      router.query_batch(std::vector<Query>{{oracle.sources()[0], 0, oracle.num_edges()}}),
      std::invalid_argument);
}

TEST(QueryServiceShardingTest, ShardedServiceMatchesInProcess) {
  Rng rng(0xC0FFEE);
  const Graph g = gen::connected_avg_degree(160, 6.0, rng);
  const std::vector<Vertex> sources{0, 40, 80, 120};

  service::QueryService plain({.threads = 2, .min_parallel_batch = 64});
  service::QueryService::Options sharded_opts;
  sharded_opts.threads = 2;
  sharded_opts.min_parallel_batch = 64;
  sharded_opts.shards = 3;
  service::QueryService sharded(sharded_opts);

  const auto oracle = plain.build(g, sources);
  const auto oracle2 = sharded.build(g, sources);
  ASSERT_EQ(oracle->content_digest(), oracle2->content_digest());

  const auto queries = random_queries(*oracle, 4000, 31);
  const auto want = plain.query_batch(*oracle, queries);

  // Sync path.
  EXPECT_EQ(sharded.query_batch(*oracle2, queries), want);
  // Async future path (routing runs on the pool).
  auto res = sharded.submit_batch(oracle2, queries).get();
  ASSERT_EQ(res.error, nullptr);
  EXPECT_EQ(res.answers, want);
  EXPECT_EQ(sharded.queries_served(), 2 * queries.size());

  // The router was created once, placed once, and reused across both paths.
  const auto router = sharded.router(*oracle2);
  ASSERT_NE(router, nullptr);
  const auto st = router->stats();
  EXPECT_EQ(st.segments_placed, router->num_shards());
  EXPECT_EQ(st.queries_routed, 2 * queries.size());
}

TEST(QueryServiceShardingTest, ShardedAnswersMatchBruteForce) {
  Rng rng(0xBEEF);
  const Graph g = gen::connected_gnp(28, 0.2, rng);
  const std::vector<Vertex> sources{1, 9, 20};
  const MsrpResult truth = solve_msrp_brute_force(g, sources);

  service::QueryService::Options opts;
  opts.threads = 1;
  opts.shards = 2;
  service::QueryService svc(opts);
  const auto oracle = svc.build(g, sources);

  std::vector<Query> queries;
  std::vector<Dist> want;
  for (const Vertex s : sources) {
    for (Vertex t = 0; t < g.num_vertices(); ++t) {
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        queries.push_back({s, t, e});
        want.push_back(truth.avoiding(s, t, e));
      }
    }
  }
  EXPECT_EQ(svc.query_batch(*oracle, queries), want);
}

}  // namespace
}  // namespace msrp
