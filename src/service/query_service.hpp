/// \file
/// Batched replacement-path query serving.
///
/// The solver's preprocessing is O~(m sqrt(n sigma) + sigma n^2); a point
/// query d(s, t, e) is O(1). A serving deployment therefore builds (or
/// snapshot-loads) an oracle once and amortizes it over millions of
/// queries. QueryService packages that split:
///
///   * build()/load() produce immutable Snapshot oracles through an LRU
///     cache keyed by (graph digest, sources, config fingerprint) — a
///     repeat build of the same instance is a cache hit, not a re-solve;
///   * query_batch() answers a span of (s, t, e) queries on a fixed thread
///     pool. The batch is sharded by source: every worker task reads one
///     source's replacement table, so shards touch disjoint table slices
///     and the read path takes no locks (the oracle is immutable; answer
///     slots are disjoint by query index);
///   * submit_batch() is the asynchronous flavour: it returns a
///     std::future<BatchResult> (or invokes a callback) and does everything
///     — the oracle build on a cold cache included — on the pool, so the
///     submitting thread gets its hands back in microseconds while the
///     solve proceeds. The answering stage is counter-driven (the last
///     finishing shard fulfils the promise), so no worker ever waits on
///     shard tasks. The one place a worker does park is a cold submit whose
///     oracle is already being built by another worker: the single-flight
///     cache makes it wait for that solve instead of duplicating it. That
///     wait is always on a build actively running on some worker — the slot
///     only exists while its owner executes — so the pool makes progress
///     even at size 1.
///   * Options::shards > 1 moves the serving out of this process entirely:
///     batches delegate to a ShardRouter (shard_router.hpp) that routes
///     each query to one of K forked worker processes over shared-memory
///     snapshot segments, bit-identical to the in-process path. Routers are
///     created per oracle on first use and kept in a small MRU list.
///
/// Invalid queries are rejected up front — in the calling thread for
/// query_batch, through the future/callback error channel for
/// submit_batch; workers only ever see validated indices.
///
/// docs/ARCHITECTURE.md traces a query's life through every path.
#pragma once

#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "obs/metrics.hpp"
#include "service/backoff.hpp"
#include "service/oracle_cache.hpp"
#include "service/query.hpp"
#include "service/snapshot.hpp"
#include "service/workloads.hpp"
#include "util/deadline.hpp"
#include "util/thread_pool.hpp"

namespace msrp::service {

class ShardRouter;

/// Outcome of one asynchronous batch of any workload.
template <class Answer>
struct BatchResultOf {
  /// answers[i] answers queries[i]; empty when error is set.
  std::vector<Answer> answers;
  /// The oracle that answered (freshly built or cache-hit). Holding it here
  /// pins it against cache eviction for as long as the result lives.
  std::shared_ptr<const Snapshot> oracle;
  /// Null on success; the build/validation failure otherwise (future-based
  /// callers get the same exception rethrown from future::get instead).
  std::exception_ptr error;
};

template <class W>
using WorkloadResult = BatchResultOf<typename W::Answer>;

/// Invoked exactly once per callback-flavoured submit, from a pool worker
/// thread. Must not block on futures of the same service's pool, and
/// should not throw — an escaping exception cannot trigger a second
/// delivery, but it is lost to the pool's fire-and-forget error slot.
template <class W>
using WorkloadCallback = std::function<void(WorkloadResult<W>)>;

using BatchResult = WorkloadResult<PointWorkload>;
using BatchCallback = WorkloadCallback<PointWorkload>;

class QueryService {
 public:
  struct Options {
    /// Worker threads; 0 = hardware concurrency. Cold-cache oracle builds
    /// run their phase loops on this same pool.
    unsigned threads = 0;
    /// Oracle cache capacity, in oracles.
    std::size_t cache_capacity = 4;
    /// Oracle cache byte budget (summed Snapshot footprints; 0 = unlimited).
    std::size_t cache_max_bytes = 0;
    /// Age limit on cached oracles (0 = never expire). An expired entry is
    /// refreshed through the single-flight build path on next use; see
    /// OracleCache. Long-running servers set this to re-pick-up re-saved
    /// snapshots without a restart.
    std::chrono::milliseconds cache_entry_ttl{0};
    /// Refresh-ahead fraction of cache_entry_ttl (0 = off; meaningful in
    /// (0, 1)). A cache hit on an entry older than fraction * TTL kicks a
    /// rebuild on the pool while still serving the current oracle, so a
    /// warmed key never pays a cold build at the TTL boundary. Requires a
    /// nonzero cache_entry_ttl.
    double cache_refresh_ahead = 0.0;
    /// Batches smaller than this answer inline on the calling thread —
    /// below it the fan-out overhead exceeds the O(1)-per-query work.
    std::size_t min_parallel_batch = 2048;
    /// >= 1: serve through the multi-process shard router
    /// (shard_router.hpp) instead of in-process table reads. Each oracle
    /// is sharded across `shards` worker processes over shared-memory v2
    /// snapshot segments (1 = a single worker process — still out of
    /// process); answers are bit-identical to the in-process path. 0
    /// (default) keeps everything in this process.
    unsigned shards = 0;
    /// argv to exec for each shard worker (e.g. {"/path/to/msrp_serve"};
    /// the router appends "--shard-worker <base>:<k>"). Empty = plain fork
    /// without exec. Only meaningful when sharding (shards >= 1).
    std::vector<std::string> shard_worker_argv = {};
    /// Idle-wait policy of the routers' collector and (via the
    /// environment) the workers (shards >= 1); defaults honour the
    /// MSRP_SHARD_* knobs (see backoff.hpp).
    ShardBackoff shard_backoff = ShardBackoff::from_env();
    /// Pin shard worker k to CPU (k mod hardware_concurrency); shards >= 1.
    bool pin_shard_workers = false;
  };

  QueryService() : QueryService(Options{}) {}
  explicit QueryService(Options opts);

  /// Solves MSRP for (g, sources, cfg) — or returns the cached oracle for
  /// an identical instance — and hands back an immutable snapshot oracle.
  /// Concurrent builds of the same instance are single-flighted.
  std::shared_ptr<const Snapshot> build(const Graph& g, const std::vector<Vertex>& sources,
                                        const Config& cfg = {});

  /// Loads a snapshot from disk into the cache (keyed by its content
  /// digest, so loading the same file twice hits). `opts` selects the
  /// zero-copy mmap path for v2 files.
  std::shared_ptr<const Snapshot> load(const std::string& path,
                                       const Snapshot::LoadOptions& opts = {});

  /// Answers queries[i] into result[i]. Throws std::invalid_argument if any
  /// query names a non-source s, or an out-of-range t or e; no partial
  /// answers are produced in that case. Safe to call from several threads
  /// concurrently: batches share the worker pool but track their own
  /// completion. A non-default `deadline` bounds the wait: the sharded
  /// path hands it to the router (whose collector enforces it mid-flight);
  /// either path throws DeadlineExceeded instead of answering late.
  std::vector<Dist> query_batch(const Snapshot& oracle, std::span<const Query> queries,
                                Deadline deadline = kNoDeadline) {
    return batch<PointWorkload>(oracle, queries, deadline);
  }

  // ----- async API --------------------------------------------------------

  /// Answers `queries` against an oracle the caller already holds. Returns
  /// immediately; validation, sharding, and answering all run on the pool.
  std::future<BatchResult> submit_batch(std::shared_ptr<const Snapshot> oracle,
                                        std::vector<Query> queries);

  /// Answers `queries` against the oracle for (g, sources, cfg), building
  /// it on the pool first when the cache is cold — the submit itself
  /// returns in microseconds either way.
  std::future<BatchResult> submit_batch(Graph g, std::vector<Vertex> sources, Config cfg,
                                        std::vector<Query> queries);

  /// Callback flavours of the two overloads above; `done` runs on a pool
  /// worker once the batch completes (or fails, with BatchResult::error
  /// set). `deadline` bounds the whole batch: an expired batch fails with
  /// DeadlineExceeded in BatchResult::error instead of waiting — checked
  /// after the oracle resolve and enforced continuously inside the shard
  /// router while answers are in flight.
  void submit_batch(std::shared_ptr<const Snapshot> oracle, std::vector<Query> queries,
                    BatchCallback done, Deadline deadline = kNoDeadline);
  void submit_batch(Graph g, std::vector<Vertex> sources, Config cfg,
                    std::vector<Query> queries, BatchCallback done);

  // ----- workload API (one path for every tag in service/workloads.hpp) ----

  /// Answers a batch of workload W synchronously, with query_batch's
  /// contract (validation throws before any work; a non-default deadline
  /// throws DeadlineExceeded instead of answering late). The point tag is
  /// the base executor; every other tag validates and expands its queries
  /// into one point batch — so the sharded and in-process paths return
  /// byte-identical results — then assembles the answers:
  ///
  ///   * vitality: one point query per canonical-path edge, ranked
  ///     (vitality desc, position asc) and truncated to k (1 <= k <=
  ///     kMaxTopKVital);
  ///   * Vickrey: the same expansion, priced d(s,t,e) - d(s,t) in path
  ///     order (kInfDist for bridges);
  ///   * k-fail: |F| == 1 becomes a point query, |F| == 0 is the base
  ///     distance, |F| == 2 runs a bounded BFS of G - F and therefore
  ///     needs the graph behind the oracle — attach_graph() it (build()
  ///     does so automatically) or the batch throws std::invalid_argument.
  template <class W>
  std::vector<typename W::Answer> batch(const Snapshot& oracle,
                                        std::span<const typename W::Request> queries,
                                        Deadline deadline = kNoDeadline);

  /// Async flavour of batch<W>: validation, expansion, and answering all
  /// run on the pool; `done` fires exactly once from a worker (error
  /// channel on validation failure, DeadlineExceeded, or a missing
  /// attached graph). Non-point tags take one pool hop to prepare, then
  /// chain their point batch through submit_batch — the same failpoints,
  /// deadline checks, and shard routing apply.
  template <class W>
  void submit(std::shared_ptr<const Snapshot> oracle, std::vector<typename W::Request> queries,
              WorkloadCallback<W> done, Deadline deadline = kNoDeadline);

  std::vector<VitalityResult> vitality_batch(const Snapshot& oracle,
                                             std::span<const VitalityQuery> queries,
                                             Deadline deadline = kNoDeadline) {
    return batch<VitalityWorkload>(oracle, queries, deadline);
  }
  std::vector<VickreyResult> vickrey_batch(const Snapshot& oracle,
                                           std::span<const VickreyQuery> queries,
                                           Deadline deadline = kNoDeadline) {
    return batch<VickreyWorkload>(oracle, queries, deadline);
  }
  std::vector<Dist> kfail_batch(const Snapshot& oracle, std::span<const KFailQuery> queries,
                                Deadline deadline = kNoDeadline) {
    return batch<KFailWorkload>(oracle, queries, deadline);
  }

  /// Attaches the graph behind an oracle digest so 2-edge-failure queries
  /// (a BFS of G - F, not a table read) can be served. build() attaches
  /// automatically; oracles loaded from snapshots need an explicit attach
  /// before |F| == 2 K_FAIL queries work. Attached graphs live in a small
  /// MRU list, so a stream of distinct digests cannot hoard memory.
  void attach_graph(std::uint64_t digest, std::shared_ptr<const Graph> graph);

  /// Graph previously attached for `digest`, or nullptr. Marks the entry
  /// most recently used.
  std::shared_ptr<const Graph> graph_for(std::uint64_t digest);

  /// Runs a closure on the worker pool — the registry layer builds its
  /// registrations through this so they share the serving pool (and its
  /// drain-on-destruction ordering) instead of spawning threads.
  void run_async(std::function<void()> task) { pool_.submit(std::move(task)); }

  unsigned num_threads() const { return pool_.size(); }
  const OracleCache& cache() const { return cache_; }
  /// Mutable access for tests (clock injection on the TTL/refresh paths).
  OracleCache& cache_for_testing() { return cache_; }

  /// Total queries answered since construction (across all batches).
  std::uint64_t queries_served() const {
    return queries_served_.load(std::memory_order_relaxed);
  }

  /// Router stats for the oracle (nullptr when not sharding or the oracle
  /// has no router yet). Tests use this to assert zero-copy placement.
  std::shared_ptr<const ShardRouter> router(const Snapshot& oracle);

  bool sharding() const { return opts_.shards >= 1; }

 private:
  struct AsyncBatch;

  /// Validated counting-sort of a batch by source index (the in-process
  /// fan-out axis; distinct from the multi-process ShardPlan).
  struct BatchPlan {
    std::vector<std::uint32_t> order;      // query indices, grouped by source
    std::vector<std::size_t> shard_begin;  // sigma+1 prefix bounds into order
  };
  static BatchPlan plan_shards(const Snapshot& oracle, std::span<const Query> queries);
  /// The point executor behind batch<PointWorkload>.
  std::vector<Dist> answer_points(const Snapshot& oracle, std::span<const Query> queries,
                                  Deadline deadline);
  static void answer_range(const Snapshot& oracle, std::span<const Query> queries,
                           const BatchPlan& plan, std::span<Dist> out, std::uint32_t si,
                           std::size_t lo, std::size_t hi);

  std::future<BatchResult> submit_batch_impl(
      std::function<std::shared_ptr<const Snapshot>()> resolve,
      std::vector<Query> queries, BatchCallback done, Deadline deadline = kNoDeadline);

  /// Returns (creating on first use) the shard router serving `oracle`,
  /// keyed by content digest. Routers are kept in a small LRU so a stream
  /// of distinct oracles cannot accumulate worker processes without bound.
  std::shared_ptr<ShardRouter> router_for(const Snapshot& oracle);

  Options opts_;
  OracleCache cache_;
  // Graphs attached for K_FAIL |F| == 2 service, by oracle content digest,
  // MRU first (bounded; see kMaxAttachedGraphs in the .cpp).
  std::mutex graphs_mu_;
  std::list<std::pair<std::uint64_t, std::shared_ptr<const Graph>>> graphs_;
  // Multi-process shard routers by oracle content digest, MRU first.
  // Declared before pool_: pool tasks route through these, and the pool's
  // destructor drains its queue before the routers shut their workers down.
  std::mutex routers_mu_;
  std::list<std::pair<std::uint64_t, std::shared_ptr<ShardRouter>>> routers_;
  std::atomic<std::uint64_t> queries_served_{0};
  // Declared last so its destructor — which drains queued tasks — runs
  // first: async tasks touch the cache, routers, and counters above.
  ThreadPool pool_;
  // After pool_: unregistered before anything the snapshot callback reads
  // (cache_, queries_served_) is torn down.
  obs::MetricsRegistry::CollectorHandle collector_;
};

}  // namespace msrp::service
