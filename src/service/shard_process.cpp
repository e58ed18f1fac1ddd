#include "service/shard_process.hpp"

#include <sys/prctl.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <thread>

#include "obs/metrics.hpp"
#include "service/backoff.hpp"
#include "service/shard_channel.hpp"
#include "service/snapshot.hpp"
#include "util/env.hpp"
#include "util/failpoint.hpp"
#include "util/futex.hpp"
#include "util/shm.hpp"

namespace msrp::service {

std::string shard_channel_name(const std::string& base, std::uint32_t k) {
  return base + ".c" + std::to_string(k);
}

std::string shard_snapshot_name(const std::string& base, std::uint32_t k) {
  return base + ".s" + std::to_string(k);
}

std::string shard_doorbell_name(const std::string& base) { return base + ".d"; }

std::string shard_metrics_name(const std::string& base) { return base + ".m"; }

int run_shard_worker(const ShardWorkerConfig& cfg) {
  try {
    // Orphan watch: a worker must not outlive its supervisor (it would pin
    // the shm segments forever). The kernel delivers SIGTERM on parent
    // death; the getppid() polls below cover a parent that died before
    // this prctl ran.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    const ::pid_t original_ppid = ::getppid();
    const auto parent_alive = [original_ppid] { return ::getppid() == original_ppid; };

    ShmSegment chan_seg =
        ShmSegment::open(shard_channel_name(cfg.base_name, cfg.shard_index),
                         /*writable=*/true);
    ShardChannel* ch = ShardChannel::adopt(chan_seg.data(), chan_seg.size());

    ShmSegment bell_seg =
        ShmSegment::open(shard_doorbell_name(cfg.base_name), /*writable=*/true);
    ShardDoorbell* bell = ShardDoorbell::adopt(bell_seg.data(), bell_seg.size());

    // Shm metrics page, attached tolerantly: a supervisor that placed no
    // page must not keep the worker from serving. The slot is re-found by
    // name, so a respawned worker resumes the same counter — increments
    // survive worker death with no loss or double counting.
    obs::ShmCounterPage metrics_page;
    std::atomic<std::uint64_t>* requests_slot = nullptr;
    try {
      metrics_page = obs::ShmCounterPage::open(shard_metrics_name(cfg.base_name));
      requests_slot = metrics_page.find_or_create(
          "worker." + std::to_string(cfg.shard_index) + ".requests");
    } catch (const std::exception&) {
    }

    const ShardBackoff bo = ShardBackoff::from_env();

    if (MSRP_FAILPOINT("shard_worker.attach_corrupt")) {
      // Tear the shared image so attach-time validation must catch it. XOR
      // is involutory: a later armed spawn flips the byte back, so a
      // respawn cycle can also demonstrate recovery.
      ShmSegment rw = ShmSegment::open(shard_snapshot_name(cfg.base_name, cfg.shard_index),
                                       /*writable=*/true);
      if (rw.size() > 0) {
        static_cast<std::uint8_t*>(rw.data())[rw.size() / 2] ^= 0xff;
      }
    }

    // The snapshot image is attached zero-copy: the oracle's table spans
    // alias the read-only segment, so every worker serves the one copy the
    // supervisor placed. Validation covers the full image by default (the
    // header/meta checksum always, the cells checksum unless
    // MSRP_SHARD_VERIFY_ATTACH=0): a worker must fail fast on a corrupt or
    // torn mapping, not serve garbage from it.
    auto snap_seg = std::make_shared<ShmSegment>(
        ShmSegment::open(shard_snapshot_name(cfg.base_name, cfg.shard_index)));
    const bool verify_cells = env::u64_or("MSRP_SHARD_VERIFY_ATTACH", 1) != 0;
    std::optional<Snapshot> attached;
    try {
      attached.emplace(Snapshot::attach(snap_seg->data(), snap_seg->size(), snap_seg,
                                        {.verify_cells = verify_cells}));
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "shard worker %s.%u: snapshot image rejected at attach: %s\n",
                   cfg.base_name.c_str(), cfg.shard_index, ex.what());
      ch->worker_state().store(ShardChannel::kExited, std::memory_order_release);
      util::futex_wake_u32(ch->worker_state(), 1);
      return kShardWorkerExitBadSnapshot;
    }
    const Snapshot& oracle = *attached;
    const Vertex n = oracle.num_vertices();
    const EdgeId m = oracle.num_edges();
    const std::uint32_t sigma = oracle.num_sources();

    ch->worker_state().store(ShardChannel::kReady, std::memory_order_release);
    // The supervisor may be parked on the state word (wait_worker_ready).
    util::futex_wake_u32(ch->worker_state(), 1);

    const auto ring_back = [&] {
      bell->seq().fetch_add(1, std::memory_order_release);
      util::futex_wake_u32(bell->seq(), 1);
    };

    std::uint64_t idle_spins = 0;
    while (true) {
      bool worked = false;
      ShardRequest req;
      while (ch->try_pop_request(req)) {
        worked = true;
        if (requests_slot != nullptr) {
          requests_slot->fetch_add(1, std::memory_order_relaxed);
        }
        // Crash window 1: the request left the ring but was never answered.
        // Respawn must requeue it from the supervisor's in-flight ledger.
        (void)MSRP_FAILPOINT("shard_worker.pop");
        // The router validates queries against the full oracle before
        // routing; re-clamp here anyway so a corrupted ring can only yield
        // a wrong answer, never an out-of-bounds read.
        const Dist answer = (req.si < sigma && req.t < n && req.e < m)
                                ? oracle.avoiding_at(req.si, req.t, req.e)
                                : kInfDist;
        // Crash window 2: answer computed, never pushed (same requeue
        // obligation, later point of death). Armed with delay:USEC this is
        // the "slow reply near the deadline edge" site.
        (void)MSRP_FAILPOINT("shard_worker.reply");
        ShardResponse resp{req.tag, answer, 0};
        std::uint64_t full_spins = 0;
        while (!ch->try_push_response(resp)) {
          // Response ring full: the supervisor is not draining. Transient
          // while a batch is in flight — but also exactly the state a
          // crashed supervisor leaves behind, so the orphan check must run
          // here too, not just in the idle loop.
          if (ch->stop_flag().load(std::memory_order_acquire) != 0 ||
              ((++full_spins & 1023) == 0 && !parent_alive())) {
            ch->worker_state().store(ShardChannel::kExited, std::memory_order_release);
            util::futex_wake_u32(ch->worker_state(), 1);
            ring_back();
            return 0;
          }
          ring_back();  // remind a parked collector there is work to drain
          std::this_thread::sleep_for(std::chrono::microseconds(10));
        }
      }
      // Lost-wake injection: responses were pushed but the doorbell stays
      // silent — the collector must still make progress off its bounded
      // futex wait (backoff.hpp wait_timeout_us), just slower.
      if (worked && !MSRP_FAILPOINT("shard_worker.lost_wake")) ring_back();
      if (ch->stop_flag().load(std::memory_order_acquire) != 0) break;
      if (worked) {
        idle_spins = 0;
        continue;
      }
      if (++idle_spins <= bo.spin_rounds) continue;  // spin-first fast path
      // Park on the request doorbell: snapshot the word, re-check the real
      // conditions (requests/stop may have landed between the empty pop
      // above and here — the ring always precedes the futex wake on the
      // supervisor side), then wait. The bounded timeout doubles as the
      // orphan-check cadence, so a supervisor that died without raising
      // stop is still noticed within one wait period.
      const std::uint32_t seen = ch->request_doorbell().load(std::memory_order_acquire);
      if (ch->requests_pending() == 0 &&
          ch->stop_flag().load(std::memory_order_acquire) == 0) {
        util::futex_wait_u32(ch->request_doorbell(), seen, bo.wait_timeout_us);
      }
      if (!parent_alive()) break;
    }
    ch->worker_state().store(ShardChannel::kExited, std::memory_order_release);
    util::futex_wake_u32(ch->worker_state(), 1);
    ring_back();
    return 0;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "shard worker %s.%u: %s\n", cfg.base_name.c_str(),
                 cfg.shard_index, ex.what());
    return 1;
  } catch (...) {
    return 1;
  }
}

int shard_worker_main(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 >= spec.size()) {
    std::fprintf(stderr, "shard worker: bad spec \"%s\" (want <base>:<index>)\n",
                 spec.c_str());
    return 2;
  }
  ShardWorkerConfig cfg;
  cfg.base_name = spec.substr(0, colon);
  try {
    cfg.shard_index = static_cast<std::uint32_t>(std::stoul(spec.substr(colon + 1)));
  } catch (...) {
    std::fprintf(stderr, "shard worker: bad shard index in \"%s\"\n", spec.c_str());
    return 2;
  }
  return run_shard_worker(cfg);
}

}  // namespace msrp::service
