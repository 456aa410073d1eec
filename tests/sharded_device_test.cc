// Determinism gates for the full ssd::Device on the sharded engine:
// the committed schedule (engine fingerprint) and every model
// observable folded into ShardedDeviceSim::ModelFingerprint() must be
// byte-identical across worker counts {0, 1, 2, 4} and across repeated
// runs — with GC active, with scripted faults, and with per-shard
// trace rings attached. The engine-level invariant sharded_sim_test
// holds on synthetic worlds, here on the real controller/FTL/channel
// stack (the sharded_device.determinism gate holds the same bit at
// bench scale).

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "flash/fault_injector.h"
#include "ssd/config.h"
#include "ssd/sharded_device.h"

namespace postblock::ssd {
namespace {

Config TestConfig() {
  Config c;
  c.geometry.channels = 4;
  c.geometry.luns_per_channel = 2;
  c.geometry.planes_per_lun = 1;
  c.geometry.blocks_per_plane = 24;
  c.geometry.pages_per_block = 16;
  c.geometry.page_size_bytes = 4096;
  return c;
}

ShardedDeviceRun TestRun(std::uint32_t workers) {
  ShardedDeviceRun run;
  run.workers = workers;
  run.queue_depth = 16;
  run.total_ios = 3000;
  run.write_percent = 40;  // overwrite-heavy: GC must relocate
  run.fill_fraction = 0.7;
  run.seed = 0xc0ffee;
  return run;
}

/// What a run must reproduce at every worker count: the model and the
/// committed schedule, and how the engine windowed it — the rendezvous
/// rounds and the cross-shard messages delivered.
struct Digest {
  std::uint64_t model;
  std::uint64_t combined;
  std::uint64_t events;
  std::uint64_t rounds;
  std::uint64_t messages;
  bool operator==(const Digest& o) const {
    return model == o.model && combined == o.combined &&
           events == o.events && rounds == o.rounds &&
           messages == o.messages;
  }
};

Digest RunOnce(const Config& config, const ShardedDeviceRun& run,
               double* wa = nullptr) {
  ShardedDeviceSim sim(config, run);
  sim.Run();
  EXPECT_EQ(sim.io_errors(), 0u);
  if (wa != nullptr) *wa = sim.device()->WriteAmplification();
  return Digest{sim.ModelFingerprint(), sim.CombinedFingerprint(),
                sim.engine()->events_executed(), sim.engine()->rounds(),
                sim.engine()->messages_delivered()};
}

TEST(ShardedDeviceTest, ScheduleInvariantAcrossWorkerCounts) {
  const Config config = TestConfig();
  double wa = 0.0;
  const Digest reference = RunOnce(config, TestRun(0), &wa);
  // The workload must actually exercise GC relocation across the seam,
  // or the invariance claim is vacuous for the interesting traffic.
  EXPECT_GT(wa, 1.0);
  for (std::uint32_t workers : {1u, 2u, 4u}) {
    EXPECT_EQ(RunOnce(config, TestRun(workers)), reference)
        << "workers=" << workers;
  }
}

TEST(ShardedDeviceTest, RunTwiceIsIdentical) {
  const Config config = TestConfig();
  EXPECT_EQ(RunOnce(config, TestRun(2)), RunOnce(config, TestRun(2)));
}

// Scripted faults (retry ladders re-crossing the dispatch edge, a
// stuck-busy die, a retiring erase) and per-shard trace rings attached:
// both must stay worker-count invariant. The injector's scripts are
// consumed state, so each run gets a fresh one.
TEST(ShardedDeviceTest, FaultsAndTracingStayInvariant) {
  const Config base = TestConfig();
  auto digest_at = [&base](std::uint32_t workers) {
    flash::FaultInjector injector(base.geometry);
    // First two read attempts of a hot PPA fail -> two retry rungs.
    const flash::Ppa hot{0, 0, 0, 0, 0};
    injector.FailRead(hot, {1, 2});
    // A die that answers slowly for a while on another channel.
    injector.StuckBusy(/*global_lun=*/5, /*extra_ns=*/40000, /*ops=*/20);
    Config config = base;
    config.fault_injector = &injector;
    ShardedDeviceRun run = TestRun(workers);
    run.tracing = true;
    run.total_ios = 2000;
    return RunOnce(config, run);
  };
  const Digest reference = digest_at(0);
  for (std::uint32_t workers : {1u, 2u, 4u}) {
    EXPECT_EQ(digest_at(workers), reference) << "workers=" << workers;
  }
}

// The plan gives every channel its own shard beside the controller's,
// so chips on different channels only meet through the seam, and
// prices both seam directions strictly above controller overhead: the
// overhead plus the coalescing grid.
TEST(ShardPlanTest, DeclaresPerChannelSeamEdges) {
  const Config config = TestConfig();
  const ShardPlan plan = ShardPlan::FromConfig(config);
  EXPECT_EQ(plan.num_shards, config.geometry.channels + 1);
  EXPECT_EQ(plan.controller_shard, config.geometry.channels);
  ASSERT_EQ(plan.channel_shard.size(), config.geometry.channels);
  for (std::uint32_t c = 0; c < config.geometry.channels; ++c) {
    EXPECT_EQ(plan.channel_shard[c], c)
        << "chips on different channels must not share a shard";
  }
  const SimTime floor = config.controller_overhead_ns;
  EXPECT_GT(plan.dispatch_ns, floor);
  EXPECT_GT(plan.complete_ns, floor);
  EXPECT_EQ(plan.dispatch_ns, floor + ShardPlan::kSeamCoalesceNs);
  EXPECT_EQ(plan.complete_ns, floor + ShardPlan::kSeamCoalesceNs);
  EXPECT_EQ(plan.Lookahead(), std::min(plan.dispatch_ns, plan.complete_ns));
}

// The device builds its plan from its config, and the engine must run
// with exactly that plan's lookahead.
TEST(ShardedDeviceTest, PlanPricesTheSeam) {
  const Config config = TestConfig();
  ShardedDeviceSim sim(config, TestRun(0));
  const ShardPlan& plan = sim.plan();
  EXPECT_EQ(plan.num_shards, config.geometry.channels + 1);
  EXPECT_EQ(plan.controller_shard, config.geometry.channels);
  EXPECT_EQ(plan.Lookahead(), sim.engine()->config().lookahead);
  EXPECT_EQ(plan.dispatch_ns,
            config.controller_overhead_ns + ShardPlan::kSeamCoalesceNs);
}

}  // namespace
}  // namespace postblock::ssd
