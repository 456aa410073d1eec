#ifndef POSTBLOCK_SSD_SHARD_PLAN_H_
#define POSTBLOCK_SSD_SHARD_PLAN_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "ssd/config.h"

namespace postblock::ssd {

/// The controller/channel seam annotations for a device config: which
/// shard each channel's chips belong to, where the controller shard
/// sits, and the minimum latency of each direction across the seam.
///
/// Channels are the natural shard boundary (the paper's §2.2
/// hierarchy): chips on different channels share nothing — they only
/// interact through the controller, and that interaction has real,
/// bounded-below latency. Two edge families exist per channel:
///
///   dispatch:   controller -> channel. Firmware command dispatch onto
///               the channel's queue: controller overhead plus the
///               doorbell/coalescing grid (the blk-mq seam of PR 5 —
///               commands cross in batches, not per-cycle).
///   completion: channel -> controller. Completion routing back to the
///               firmware, same batched-seam floor.
///
/// Both latencies are the config's controller overhead plus
/// kSeamCoalesceNs; their minimum is Lookahead(), which directly sets
/// the sharded engine's rendezvous window width.
struct ShardPlan {
  /// The batched doorbell/completion-coalescing grid added on top of
  /// the config's controller overhead on both seam directions.
  static constexpr SimTime kSeamCoalesceNs = 62 * kMicrosecond;

  std::uint32_t num_shards = 0;
  std::uint32_t controller_shard = 0;
  /// channel_shard[c] = shard owning channel c's bus and LUNs.
  std::vector<std::uint32_t> channel_shard;
  SimTime dispatch_ns = 0;
  SimTime complete_ns = 0;

  /// The engine's safe lookahead: the cheaper seam direction. Every
  /// cross-shard event pays at least this much simulated delay, so no
  /// shard can receive work that back-dates its clock.
  SimTime Lookahead() const { return std::min(dispatch_ns, complete_ns); }

  /// Builds the per-channel plan for a device shape: one shard per
  /// channel plus a controller shard (id = channels), both seam
  /// directions priced at controller overhead + kSeamCoalesceNs.
  static ShardPlan FromConfig(const Config& config);
};

}  // namespace postblock::ssd

#endif  // POSTBLOCK_SSD_SHARD_PLAN_H_
