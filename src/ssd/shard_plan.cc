#include "ssd/shard_plan.h"

namespace postblock::ssd {

ShardPlan ShardPlan::FromConfig(const Config& config) {
  ShardPlan plan;
  const std::uint32_t channels = config.geometry.channels;
  plan.num_shards = channels + 1;
  plan.controller_shard = channels;
  plan.channel_shard.resize(channels);
  for (std::uint32_t c = 0; c < channels; ++c) plan.channel_shard[c] = c;
  plan.dispatch_ns = config.controller_overhead_ns + kSeamCoalesceNs;
  plan.complete_ns = config.controller_overhead_ns + kSeamCoalesceNs;
  return plan;
}

}  // namespace postblock::ssd
