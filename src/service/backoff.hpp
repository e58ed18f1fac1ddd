/// \file
/// Idle-wait policy for the shard transport (router collector and workers).
///
/// When the collector is blocked on worker responses — or a worker on new
/// requests — how it waits is a latency/CPU trade the deployment must own.
/// Both sides spin briefly first (sub-microsecond wakeups while traffic is
/// flowing), then park on a futex doorbell in the shared channel
/// (util/futex.hpp): the other side rings after pushing, so an idle shard
/// deployment burns ~0% CPU instead of waking every sleep quantum. Waits
/// are bounded by wait_timeout_us so stop flags, orphaned supervisors, and
/// dead workers are still noticed when a wake is lost to a crash.
///
/// Defaults come from the environment so operators can tune a running
/// binary: MSRP_SHARD_SPIN_ROUNDS and MSRP_SHARD_WAIT_US (futex wait
/// bound). Explicit Options fields (or msrp_serve --shard-spin) win over
/// the environment.
#pragma once

#include <cstdint>

#include "util/env.hpp"
#include "util/futex.hpp"

namespace msrp::service {

struct ShardBackoff {
  /// Empty poll rounds to busy-spin before parking on the doorbell.
  std::uint32_t spin_rounds = 64;
  /// Upper bound on one doorbell park, in microseconds. Bounds how stale a
  /// lost wake (crashed peer) can leave either side; also the cadence of
  /// the collector's worker-death checks while stalled.
  std::uint32_t wait_timeout_us = 10000;

  /// Compiled-in defaults overridden by MSRP_SHARD_SPIN_ROUNDS /
  /// MSRP_SHARD_WAIT_US.
  static ShardBackoff from_env() {
    ShardBackoff bo;
    bo.spin_rounds = static_cast<std::uint32_t>(
        env::u64_or("MSRP_SHARD_SPIN_ROUNDS", bo.spin_rounds));
    bo.wait_timeout_us = static_cast<std::uint32_t>(
        env::u64_or("MSRP_SHARD_WAIT_US", bo.wait_timeout_us));
    if (bo.wait_timeout_us == 0) bo.wait_timeout_us = 1;  // 0 would mean busy-poll
    return bo;
  }
};

}  // namespace msrp::service
