#include "service/shard_router.hpp"

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/assert.hpp"
#include "util/futex.hpp"

namespace msrp::service {

namespace {

/// After this many consecutive no-progress death checks, a stalled shard
/// is respawned even if its pid probes alive — the safety net against pid
/// reuse and wedged workers. Checks run about every 10 ms once the
/// collector is parked (each bounded doorbell wait doubles as one check),
/// so this is ~30 s.
constexpr std::size_t kStallChecksBeforeForcedRespawn = 3000;

/// Distinct base names even when two routers are built in the same process
/// at the same time (the fuzz suite does exactly that).
std::string make_base_name() {
  static std::atomic<std::uint64_t> counter{0};
  return "/msrp." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

/// Bump-then-wake: the bump is what a racing waiter's FUTEX_WAIT compare
/// sees, the wake is for one already parked.
void ring_doorbell(std::atomic<std::uint32_t>& word) {
  word.fetch_add(1, std::memory_order_release);
  util::futex_wake_u32(word, 1);
}

void pin_current_thread(unsigned slot) {
  unsigned ncpu = std::thread::hardware_concurrency();
  if (ncpu == 0) ncpu = 1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(slot % ncpu, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace

ShardRouter::ShardRouter(const Snapshot& oracle, const ShardRouterOptions& opts)
    : opts_(opts), base_name_(make_base_name()) {
  MSRP_REQUIRE(opts_.shards >= 1, "shard router: need at least one shard");
  MSRP_REQUIRE(opts_.ring_capacity >= 2 && std::has_single_bit(opts_.ring_capacity),
               "shard router: ring capacity must be a power of two >= 2");

  plan_ = ShardPlan::build(oracle, opts_.shards);
  n_ = oracle.num_vertices();
  m_ = oracle.num_edges();
  source_index_.assign(n_, -1);
  for (std::uint32_t si = 0; si < oracle.num_sources(); ++si) {
    source_index_[oracle.sources()[si]] = static_cast<std::int32_t>(si);
  }

  shards_.resize(plan_.num_shards());
  pending_.resize(plan_.num_shards());
  inflight_.resize(plan_.num_shards());
  try {
    // The doorbell segment must exist before any worker forks: workers
    // open it unconditionally right after the channel.
    bell_seg_ = ShmSegment::create(shard_doorbell_name(base_name_),
                                   ShardDoorbell::bytes_for());
    bell_ = ShardDoorbell::init(bell_seg_.data());
    // The metrics page likewise precedes the first fork: workers attach it
    // (tolerantly) right after the doorbell.
    metrics_page_ = obs::ShmCounterPage::create(shard_metrics_name(base_name_));
    for (unsigned k = 0; k < plan_.num_shards(); ++k) place_shard(oracle, k);
    for (unsigned k = 0; k < plan_.num_shards(); ++k) spawn_worker(k);
    for (unsigned k = 0; k < plan_.num_shards(); ++k) wait_worker_ready(k);
    collector_ = std::thread(&ShardRouter::collector_main, this);
    metrics_collector_ = obs::MetricsRegistry::instance().register_collector(
        [this](obs::MetricsSnapshot& out) {
          ShardRouterStats st;
          {
            std::lock_guard<std::mutex> lock(mu_);
            st = stats_;
          }
          out.counters.push_back({"router.segments_placed", st.segments_placed});
          out.counters.push_back({"router.bytes_placed", st.bytes_placed});
          out.counters.push_back({"router.queries_routed", st.queries_routed});
          out.counters.push_back({"router.batches_routed", st.batches_routed});
          out.counters.push_back({"router.respawns", st.respawns});
          out.counters.push_back({"router.deadlines_expired", st.deadlines_expired});
          out.counters.push_back({"router.ready_wait_us", st.ready_wait_us});
          out.gauges.push_back(
              {"router.peak_inflight_batches",
               static_cast<std::int64_t>(st.peak_inflight_batches)});
          metrics_page_.collect(out, "shard.");
        });
  } catch (...) {
    stop_all_workers();  // segments unlink via ~ShmSegment
    throw;
  }
}

ShardRouter::~ShardRouter() { stop_all_workers(); }

void ShardRouter::place_shard(const Snapshot& oracle, unsigned k) {
  Shard& sh = shards_[k];

  // Slice the owned sources out of the full oracle (one transient heap
  // copy of this shard's tables) and encode the v2 image straight into the
  // shared-memory segment — no second heap image of the encoded bytes.
  // Workers (including every respawn) attach the segment zero-copy; after
  // this function the segment holds the only long-lived copy.
  std::vector<std::uint32_t> owned(plan_.end(k) - plan_.begin(k));
  for (std::uint32_t i = 0; i < owned.size(); ++i) owned[i] = plan_.begin(k) + i;
  const Snapshot sliced = oracle.slice(owned);

  sh.snap_seg = ShmSegment::create(shard_snapshot_name(base_name_, k),
                                   sliced.v2_encoded_size());
  sliced.encode_v2_into({sh.snap_seg.data(), sh.snap_seg.size()});

  sh.chan_seg = ShmSegment::create(shard_channel_name(base_name_, k),
                                   ShardChannel::bytes_for(opts_.ring_capacity));
  sh.ch = ShardChannel::init(sh.chan_seg.data(), opts_.ring_capacity, k);

  stats_.segments_placed += 1;
  stats_.bytes_placed += sh.snap_seg.size();
}

void ShardRouter::spawn_worker(unsigned k) {
  Shard& sh = shards_[k];
  sh.ch->worker_state().store(ShardChannel::kStarting, std::memory_order_release);
  sh.ch->stop_flag().store(0, std::memory_order_release);

  if (opts_.workers_in_process) {
    const bool pin = opts_.pin_workers;
    sh.thr = std::thread([this, k, pin] {
      if (pin) pin_current_thread(k);
      run_shard_worker({base_name_, k});
    });
    return;
  }

  const ::pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("shard router: fork failed");
  if (pid == 0) {
    // Child. Either exec the configured worker binary or serve from the
    // inherited image directly. _exit (not exit) so the parent's atexit
    // hooks and static destructors never run twice.
    if (opts_.pin_workers) pin_current_thread(k);  // affinity survives exec
    if (!opts_.worker_argv.empty()) {
      const std::string spec = base_name_ + ":" + std::to_string(k);
      std::vector<char*> argv;
      argv.reserve(opts_.worker_argv.size() + 3);
      for (const std::string& a : opts_.worker_argv) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      const std::string flag = "--shard-worker";
      argv.push_back(const_cast<char*>(flag.c_str()));
      argv.push_back(const_cast<char*>(spec.c_str()));
      argv.push_back(nullptr);
      ::execvp(argv[0], argv.data());  // execvp: argv[0] may be PATH-relative
      std::fprintf(stderr, "shard router: exec %s failed\n", argv[0]);
      ::_exit(127);
    }
    ::_exit(run_shard_worker({base_name_, k}));
  }
  std::lock_guard<std::mutex> lk(mu_);
  sh.pid = static_cast<long>(pid);
}

void ShardRouter::wait_worker_ready(unsigned k) {
  Shard& sh = shards_[k];
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::milliseconds(opts_.ready_timeout_ms);
  // Park on the state word itself: the worker futex-wakes it when storing
  // kReady (or kExited), so the happy path returns within microseconds of
  // the worker coming up instead of on a polling-granularity boundary.
  // Each park is still bounded — a worker killed before it can ring never
  // wakes us, and the death check must keep running.
  std::uint32_t state;
  while ((state = sh.ch->worker_state().load(std::memory_order_acquire)) !=
         ShardChannel::kReady) {
    if (state == ShardChannel::kExited || worker_dead(k)) {
      throw std::runtime_error("shard router: worker " + std::to_string(k) +
                               " exited during startup");
    }
    const auto now = std::chrono::steady_clock::now();
    if (now > deadline) {
      throw std::runtime_error("shard router: worker " + std::to_string(k) +
                               " not ready in time");
    }
    const auto remain_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(deadline - now).count() + 1);
    util::futex_wait_u32(sh.ch->worker_state(), state,
                         std::min<std::uint64_t>(remain_us, 10000));
  }
  const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  std::lock_guard<std::mutex> lk(mu_);
  stats_.ready_wait_us += static_cast<std::uint64_t>(waited.count());
}

bool ShardRouter::worker_dead(unsigned k) {
  Shard& sh = shards_[k];
  if (opts_.workers_in_process) {
    if (!sh.thr.joinable()) return true;
    if (sh.ch->worker_state().load(std::memory_order_acquire) == ShardChannel::kExited) {
      sh.thr.join();
      return true;
    }
    return false;
  }
  long pid;
  {
    std::lock_guard<std::mutex> lk(mu_);
    pid = sh.pid;
  }
  if (pid < 0) return true;
  int status = 0;
  const ::pid_t r = ::waitpid(static_cast<::pid_t>(pid), &status, WNOHANG);
  if (r == 0) return false;  // still running
  if (r < 0 && errno == ECHILD) {
    // Someone else reaped our children (an embedder's SIGCHLD handler, or
    // SIG_IGN auto-reaping). Probe liveness directly — declaring a live
    // worker dead would put two consumers on one SPSC ring.
    if (::kill(static_cast<::pid_t>(pid), 0) == 0) return false;
  }
  std::lock_guard<std::mutex> lk(mu_);
  sh.pid = -1;  // exited and reaped (by us or by the embedder)
  return true;
}

void ShardRouter::respawn_worker(unsigned k) {
  Shard& sh = shards_[k];
  // SIGKILLs and reaps this seat's worker process, if it has one.
  const auto kill_process = [&] {
    long pid;
    {
      std::lock_guard<std::mutex> lk(mu_);
      pid = sh.pid;
    }
    if (pid < 0) return;
    ::kill(static_cast<::pid_t>(pid), SIGKILL);
    int status = 0;
    ::waitpid(static_cast<::pid_t>(pid), &status, 0);
    std::lock_guard<std::mutex> lk(mu_);
    sh.pid = -1;
  };
  // Single-flight by construction: only the collector thread respawns, and
  // worker_dead usually reaped the old pid already. The forced-respawn
  // path (stall deadline, pid-probe fooled by reuse) arrives with the pid
  // still set — make sure no old incarnation can touch the rings we are
  // about to reset.
  if (opts_.workers_in_process) {
    if (sh.thr.joinable()) {
      // No SIGKILL for a thread: ask it to stop and wait. A wedged thread
      // would hang here, which the test hook documents as unsupported.
      sh.ch->stop_flag().store(1, std::memory_order_release);
      ring_doorbell(sh.ch->request_doorbell());
      sh.thr.join();
    }
  } else {
    kill_process();
  }
  // A replacement can die during startup too — a rejected snapshot image,
  // an OOM kill, a crash in attach. Startup death here is cheap to retry,
  // and retrying is strictly better than failing every in-flight batch,
  // so the seat gets a few fresh spawns before the failure counts as
  // sticky and propagates.
  constexpr int kSpawnAttempts = 3;
  for (int attempt = 1;; ++attempt) {
    sh.ch->generation().fetch_add(1, std::memory_order_acq_rel);
    sh.ch->reset_rings();
    spawn_worker(k);
    try {
      wait_worker_ready(k);
      break;
    } catch (const std::runtime_error&) {
      // Reap the failed incarnation so the next spawn starts clean.
      if (!opts_.workers_in_process) kill_process();
      if (opts_.workers_in_process && sh.thr.joinable()) sh.thr.join();
      if (attempt >= kSpawnAttempts) throw;
      std::lock_guard<std::mutex> lk(mu_);
      stats_.respawns += 1;  // the failed incarnation still counts
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  stats_.respawns += 1;
}

void ShardRouter::stop_all_workers() noexcept {
  // Stop the collector first so nothing below races it on rings or pids.
  {
    std::lock_guard<std::mutex> lk(mu_);
    collector_stop_ = true;
  }
  if (collector_.joinable()) {
    ring_submit_bell();
    collector_.join();
  }

  for (Shard& sh : shards_) {
    if (sh.ch == nullptr) continue;
    sh.ch->stop_flag().store(1, std::memory_order_release);
    // Wake a worker parked on its request doorbell; otherwise it only
    // notices the flag after its bounded wait times out.
    ring_doorbell(sh.ch->request_doorbell());
  }

  if (opts_.workers_in_process) {
    for (Shard& sh : shards_) {
      if (sh.thr.joinable()) sh.thr.join();
    }
    return;
  }

  // One shared deadline across all pids: every worker was told to stop
  // above, so they wind down concurrently and shutdown costs ~one worker's
  // reaction time, not the sum over shards.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  bool any_alive = true;
  while (any_alive) {
    any_alive = false;
    for (Shard& sh : shards_) {
      if (sh.pid < 0) continue;
      int status = 0;
      if (::waitpid(static_cast<::pid_t>(sh.pid), &status, WNOHANG) != 0) {
        sh.pid = -1;
      } else {
        any_alive = true;
      }
    }
    if (!any_alive || std::chrono::steady_clock::now() > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (Shard& sh : shards_) {
    if (sh.pid < 0) continue;
    ::kill(static_cast<::pid_t>(sh.pid), SIGKILL);
    int status = 0;
    ::waitpid(static_cast<::pid_t>(sh.pid), &status, 0);
    sh.pid = -1;
  }
  // ~ShmSegment unmaps and unlinks each owned segment when shards_ dies.
}

std::vector<Dist> ShardRouter::query_batch(std::span<const Query> queries,
                                           Deadline deadline) {
  const unsigned num_shards = plan_.num_shards();
  MSRP_REQUIRE(queries.size() <= 0xffffffffull,
               "shard router: batch exceeds the 2^32 tag-index space");
  if (deadline_expired(deadline)) {
    throw DeadlineExceeded("batch expired before routing");
  }

  // Validate and bucket by owning shard before involving the collector.
  // Buckets keep batch order within a shard; tag indices are batch
  // indices, so the merge is a plain indexed store.
  Batch b;
  b.deadline = deadline;
  b.queries = queries;
  b.local_si.resize(queries.size());
  b.buckets.resize(num_shards);
  b.out.resize(queries.size());
  b.remaining = queries.size();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    MSRP_REQUIRE(q.s < n_ && source_index_[q.s] >= 0,
                 "query source is not an oracle source");
    MSRP_REQUIRE(q.t < n_, "query target out of range");
    MSRP_REQUIRE(q.e < m_, "query edge out of range");
    const auto si = static_cast<std::uint32_t>(source_index_[q.s]);
    b.buckets[plan_.shard_of(si)].push_back(static_cast<std::uint32_t>(i));
    b.local_si[i] = plan_.local_index(si);
  }

  {
    std::unique_lock<std::mutex> lk(mu_);
    if (poisoned_) {
      throw std::runtime_error(
          "shard router: poisoned by an earlier unrecoverable worker failure; "
          "destroy and recreate it");
    }
    if (queries.empty()) {
      stats_.batches_routed += 1;
      return {};
    }
    submitted_.push_back(&b);
  }
  ring_submit_bell();

  {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] { return b.done; });
  }
  if (!b.error.empty()) {
    if (is_deadline_exceeded_message(b.error)) throw DeadlineExceeded(b.error.substr(
        std::min(b.error.size(), kDeadlineExceededPrefix.size() + 2)));
    throw std::runtime_error("shard router: " + b.error);
  }
  return std::move(b.out);
}

void ShardRouter::ring_submit_bell() { ring_doorbell(bell_->seq()); }

void ShardRouter::collector_main() {
  std::size_t idle_rounds = 0;
  std::size_t stalled_checks = 0;  // consecutive death checks with no progress
  bool stop = false;
  while (true) {
    // Snapshot the bell BEFORE polling: any ring that lands after this
    // load makes the futex wait below return immediately, so a wake
    // between "saw nothing to do" and "parked" is never lost.
    const std::uint32_t seen = bell_->seq().load(std::memory_order_acquire);
    try {
      {
        std::lock_guard<std::mutex> lk(mu_);
        stop = collector_stop_;
      }
      if (collector_poll()) {
        idle_rounds = 0;
        stalled_checks = 0;
        continue;
      }
      if (stop) break;

      ++idle_rounds;
      const bool parked_phase = idle_rounds > opts_.backoff.spin_rounds;
      // Death checks cost a waitpid per outstanding shard, so pace them to
      // one per bounded doorbell wait (or every 512 spin rounds).
      const bool check_now = parked_phase || idle_rounds % 512 == 0;
      if (check_now && !active_.empty()) {
        ++stalled_checks;
        for (unsigned k = 0; k < shards_.size(); ++k) {
          if (pending_[k].empty() && inflight_[k].empty()) continue;
          // A shard that answers nothing for the whole stall deadline is
          // respawned even if the pid still looks alive — waitpid or
          // kill(pid, 0) can be fooled by an embedder auto-reaping
          // children plus pid reuse, and a wedged worker is as gone as a
          // dead one (respawn SIGKILLs the pid first).
          if (!worker_dead(k) && stalled_checks < kStallChecksBeforeForcedRespawn) {
            continue;
          }
          requeue_inflight(k);
          respawn_worker(k);
          stalled_checks = 0;
        }
      }
      if (parked_phase) {
        util::futex_wait_u32(bell_->seq(), seen, opts_.backoff.wait_timeout_us);
      }
    } catch (const std::exception& ex) {
      // A respawn failure or ring-invariant breach would otherwise strand
      // tags in the rings and mis-merge every later batch. Fail the
      // in-flight batches, restore clean rings + workers; if even that
      // fails the router is poisoned and callers fail fast.
      recover_after_error(ex.what());
      idle_rounds = 0;
      stalled_checks = 0;
    } catch (...) {
      recover_after_error("unknown collector failure");
      idle_rounds = 0;
      stalled_checks = 0;
    }
  }
  // Destruction with callers still blocked is a caller bug, but leave no
  // thread waiting forever.
  fail_all_batches("router destroyed with batches in flight");
}

bool ShardRouter::drain_submissions() {
  std::deque<Batch*> fresh;
  {
    std::lock_guard<std::mutex> lk(mu_);
    fresh.swap(submitted_);
  }
  if (fresh.empty()) return false;
  for (Batch* b : fresh) {
    do {
      b->ns = next_ns_++;
    } while (active_.count(b->ns) != 0);  // 2^32 wrap vs a still-live batch
    active_.emplace(b->ns, b);
    if (b->deadline != kNoDeadline) any_deadline_ = true;
    for (unsigned k = 0; k < shards_.size(); ++k) {
      for (std::uint32_t qi : b->buckets[k]) pending_[k].push_back({b, qi});
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  stats_.peak_inflight_batches =
      std::max<std::uint64_t>(stats_.peak_inflight_batches, active_.size());
  return true;
}

bool ShardRouter::expire_batches() {
  if (!any_deadline_) return false;
  const auto now = std::chrono::steady_clock::now();
  bool any_left = false;
  bool expired_any = false;
  for (auto it = active_.begin(); it != active_.end();) {
    Batch* b = it->second;
    if (b->deadline == kNoDeadline || now < b->deadline) {
      any_left = any_left || b->deadline != kNoDeadline;
      ++it;
      continue;
    }
    // Abandon the batch: purge its unanswered queries everywhere so the
    // deque fronts stay consistent; answers already in the response rings
    // arrive for a namespace no longer active and are dropped by
    // collector_poll. The worker-side work for them is wasted by design —
    // the caller stopped caring at the deadline.
    for (unsigned k = 0; k < shards_.size(); ++k) {
      for (auto* q : {&pending_[k], &inflight_[k]}) {
        q->erase(std::remove_if(q->begin(), q->end(),
                                [&](const Entry& e) { return e.b == b; }),
                 q->end());
      }
    }
    it = active_.erase(it);
    expired_any = true;
    std::lock_guard<std::mutex> lk(mu_);
    b->error = std::string(kDeadlineExceededPrefix) +
               ": batch expired in shard router with " +
               std::to_string(b->remaining) + " answers outstanding";
    b->done = true;
    stats_.deadlines_expired += 1;
    done_cv_.notify_all();
  }
  any_deadline_ = any_left;
  return expired_any;
}

bool ShardRouter::collector_poll() {
  bool progress = drain_submissions();
  progress = expire_batches() || progress;

  for (unsigned k = 0; k < shards_.size(); ++k) {
    Shard& sh = shards_[k];
    ShardResponse resp;
    while (sh.ch->try_pop_response(resp)) {
      progress = true;
      const std::uint32_t ns = tag_namespace(resp.tag);
      const std::uint32_t qi = tag_index(resp.tag);
      const auto it = active_.find(ns);
      if (it == active_.end()) {
        // A late answer for a batch that already expired or failed: its
        // bookkeeping was purged when it completed, so the answer is
        // simply dropped. A namespace that was never issued at all is
        // still an invariant breach.
        MSRP_CHECK(ns < next_ns_, "shard router: response for unknown namespace");
        continue;
      }
      Batch* b = it->second;
      MSRP_CHECK(qi < b->out.size(), "shard router: response tag out of range");
      b->out[qi] = resp.answer;
      --b->remaining;
      auto& fl = inflight_[k];
      if (!fl.empty() && fl.front().b == b && fl.front().qi == qi) {
        fl.pop_front();
      } else {
        const auto fit = std::find_if(fl.begin(), fl.end(), [&](const Entry& e) {
          return e.b == b && e.qi == qi;
        });
        MSRP_CHECK(fit != fl.end(), "shard router: response for unknown tag");
        fl.erase(fit);
      }
      if (b->remaining == 0) {
        active_.erase(ns);
        std::lock_guard<std::mutex> lk(mu_);
        b->done = true;
        stats_.queries_routed += b->queries.size();
        stats_.batches_routed += 1;
        done_cv_.notify_all();
      }
    }

    bool pushed = false;
    auto& pq = pending_[k];
    while (!pq.empty()) {
      const Entry e = pq.front();
      const Query& q = e.b->queries[e.qi];
      if (!sh.ch->try_push_request(
              {make_tag(e.b->ns, e.qi), e.b->local_si[e.qi], q.t, q.e, 0})) {
        break;  // ring full; retry after the worker drains
      }
      pq.pop_front();
      inflight_[k].push_back(e);
      pushed = true;
      progress = true;
    }
    if (pushed) ring_doorbell(sh.ch->request_doorbell());
  }
  return progress;
}

void ShardRouter::requeue_inflight(unsigned k) {
  // Requeue everything the dead worker still owed — across every batch
  // namespace — at the front of the line, preserving order; the rings are
  // reset before the fresh worker attaches, so no tag is lost or doubled.
  auto& fl = inflight_[k];
  for (auto it = fl.rbegin(); it != fl.rend(); ++it) pending_[k].push_front(*it);
  fl.clear();
}

void ShardRouter::fail_all_batches(const std::string& why) {
  std::vector<Batch*> victims;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (Batch* b : submitted_) victims.push_back(b);
    submitted_.clear();
  }
  for (auto& [ns, b] : active_) victims.push_back(b);
  active_.clear();
  for (auto& pq : pending_) pq.clear();
  for (auto& fl : inflight_) fl.clear();
  if (victims.empty()) return;
  std::lock_guard<std::mutex> lk(mu_);
  for (Batch* b : victims) {
    b->error = why;
    b->done = true;
  }
  done_cv_.notify_all();
}

void ShardRouter::recover_after_error(const std::string& why) noexcept {
  try {
    fail_all_batches("unrecoverable failure mid-batch: " + why);
  } catch (...) {
  }
  for (unsigned k = 0; k < shards_.size(); ++k) {
    try {
      respawn_worker(k);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      poisoned_ = true;
    }
  }
}

ShardRouterStats ShardRouter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

long ShardRouter::worker_pid(unsigned k) const {
  MSRP_REQUIRE(k < shards_.size(), "shard router: shard index out of range");
  std::lock_guard<std::mutex> lock(mu_);
  return shards_[k].pid;
}

std::uint64_t ShardRouter::worker_requests_total() const {
  std::uint64_t total = 0;
  for (unsigned k = 0; k < shards_.size(); ++k) {
    const auto* slot =
        metrics_page_.find("worker." + std::to_string(k) + ".requests");
    if (slot != nullptr) total += slot->load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<std::string> ShardRouter::segment_names() const {
  std::vector<std::string> names;
  names.reserve(2 * shards_.size() + 2);
  names.push_back(shard_doorbell_name(base_name_));
  names.push_back(shard_metrics_name(base_name_));
  for (unsigned k = 0; k < shards_.size(); ++k) {
    names.push_back(shard_snapshot_name(base_name_, k));
    names.push_back(shard_channel_name(base_name_, k));
  }
  return names;
}

}  // namespace msrp::service
