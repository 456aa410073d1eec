#ifndef POSTBLOCK_SSD_SHARD_ROUTER_H_
#define POSTBLOCK_SSD_SHARD_ROUTER_H_

#include <cstdint>
#include <utility>

#include "common/check.h"
#include "common/types.h"
#include "sim/sharded_engine.h"
#include "sim/simulator.h"
#include "ssd/shard_plan.h"

namespace postblock::ssd {

/// Binds a ShardPlan to a live sim::ShardedEngine: the only object that
/// may move device work across shards. Dispatch() carries a controller
/// decision onto a channel shard at +dispatch_ns; Complete() carries a
/// finished channel pipeline back at +complete_ns. Both prices come
/// from the plan (controller overhead + the batched doorbell/coalescing
/// grid), so the engine's lookahead stays a modeling statement — the
/// seam costs what the firmware seam costs, and the rendezvous window
/// is exactly that latency (DESIGN.md §4f/§4i). The constructor checks
/// (in every build) that the engine matches the plan.
///
/// The router is pure plumbing: no state of its own, so it is safe to
/// call from any shard's event context as long as the caller respects
/// direction (Dispatch from the controller shard only, Complete from
/// the named channel's shard only — the engine checks the lookahead
/// contract against the *sending* shard's clock).
class ShardRouter {
 public:
  ShardRouter(sim::ShardedEngine* engine, ShardPlan plan)
      : engine_(engine), plan_(std::move(plan)) {
    PB_CHECK(engine_->num_shards() == plan_.num_shards,
             "ShardRouter: engine shard count differs from the plan");
    PB_CHECK(engine_->config().lookahead <= plan_.Lookahead(),
             "ShardRouter: engine lookahead exceeds the plan's seam price");
  }

  sim::ShardedEngine* engine() { return engine_; }
  const ShardPlan& plan() const { return plan_; }

  sim::Simulator* controller_sim() {
    return engine_->shard(plan_.controller_shard);
  }
  sim::Simulator* channel_sim(std::uint32_t channel) {
    return engine_->shard(plan_.channel_shard[channel]);
  }

  /// Controller shard -> channel shard: firmware command dispatch.
  /// Call from an event on the controller shard (or during setup).
  template <typename F>
  void Dispatch(std::uint32_t channel, F&& f) {
    engine_->Post(plan_.controller_shard, plan_.channel_shard[channel],
                  controller_sim()->Now() + plan_.dispatch_ns,
                  std::forward<F>(f));
  }

  /// Channel shard -> controller shard: completion routing. Call from
  /// an event on `channel`'s shard.
  template <typename F>
  void Complete(std::uint32_t channel, F&& f) {
    engine_->Post(plan_.channel_shard[channel], plan_.controller_shard,
                  channel_sim(channel)->Now() + plan_.complete_ns,
                  std::forward<F>(f));
  }

 private:
  sim::ShardedEngine* engine_;
  ShardPlan plan_;
};

}  // namespace postblock::ssd

#endif  // POSTBLOCK_SSD_SHARD_ROUTER_H_
