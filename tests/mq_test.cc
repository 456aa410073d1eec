// Multi-queue host path: determinism, tag backpressure, QoS
// starvation-freedom, completion-mode equivalence, merge-window and
// cross-stream scheduling.
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "blocklayer/block_layer.h"
#include "blocklayer/io_scheduler.h"
#include "blocklayer/simple_device.h"
#include "sim/simulator.h"
#include "ssd/device.h"

namespace postblock::blocklayer {
namespace {

SimpleDeviceConfig FastDevice() {
  SimpleDeviceConfig c;
  c.num_blocks = 4096;
  c.read_ns = 10 * kMicrosecond;
  c.write_ns = 20 * kMicrosecond;
  c.units = 8;
  return c;
}

/// One (completion time, io id) pair per IO, in completion order — the
/// schedule fingerprint two runs must reproduce bit-for-bit.
using Schedule = std::vector<std::pair<SimTime, std::uint64_t>>;

/// Closed-loop driver: `ops` single-block reads over a deterministic
/// LBA/stream sequence at fixed depth. Everything (device, layer, sim)
/// is constructed fresh per call, so two calls with the same config
/// must produce identical schedules.
Schedule RunSchedule(const BlockLayerConfig& cfg, std::uint32_t depth,
                     std::uint64_t ops) {
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, FastDevice());
  BlockLayer layer(&sim, &dev, cfg);
  Schedule sched;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::function<void()> issue = [&] {
    while (issued < ops && issued - completed < depth) {
      IoRequest r;
      r.op = IoOp::kRead;
      r.lba = (issued * 37) % 4096;
      r.nblocks = 1;
      r.stream = static_cast<std::uint8_t>(issued % 3);
      const std::uint64_t id = issued++;
      r.on_complete = [&, id](const IoResult& res) {
        EXPECT_TRUE(res.status.ok());
        ++completed;
        sched.emplace_back(sim.Now(), id);
        issue();
      };
      layer.Submit(std::move(r));
    }
  };
  issue();
  sim.Run();
  EXPECT_EQ(completed, ops);
  EXPECT_EQ(layer.io_states_allocated(), layer.io_states_free());
  return sched;
}

BlockLayerConfig AllFeaturesOn() {
  BlockLayerConfig cfg;
  cfg.nr_queues = 4;
  cfg.queue_depth = 8;
  cfg.tags_per_queue = 8;
  cfg.stream_queues = true;
  cfg.doorbell_batch = 4;
  cfg.doorbell_ns = 300;
  cfg.coalesce_depth = 4;
  cfg.coalesce_ns = 2000;
  cfg.shared_depth = 16;
  cfg.qos_weights = {4, 2, 1, 1};
  cfg.merge_window = 4;
  return cfg;
}

// --- Determinism ----------------------------------------------------------

TEST(MqDeterminismTest, SameConfigSameSeedSameSchedule) {
  const BlockLayerConfig cfg = AllFeaturesOn();
  const Schedule a = RunSchedule(cfg, 16, 500);
  const Schedule b = RunSchedule(cfg, 16, 500);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a, b);  // identical completion times AND order
}

TEST(MqDeterminismTest, NeutralKnobsMatchDefaultSchedule) {
  // A config that spells out every mq knob at its neutral value must be
  // schedule-identical to the default config — the knobs only act when
  // turned. This is the in-repo proxy for "1-queue byte-identical to
  // the pre-mq block layer" (the cross-commit diff runs in CI).
  BlockLayerConfig def;
  BlockLayerConfig neutral;
  neutral.tags_per_queue = 0;
  neutral.stream_queues = false;
  neutral.doorbell_batch = 1;
  neutral.doorbell_ns = 0;
  neutral.coalesce_depth = 1;
  neutral.coalesce_ns = 0;
  neutral.shared_depth = 0;
  neutral.merge_window = 1;
  neutral.cross_stream_merge = false;
  EXPECT_EQ(RunSchedule(def, 16, 400), RunSchedule(neutral, 16, 400));
}

TEST(MqDeterminismTest, FourQueueDefaultsMatchAcrossRuns) {
  BlockLayerConfig cfg;
  cfg.nr_queues = 4;
  EXPECT_EQ(RunSchedule(cfg, 16, 400), RunSchedule(cfg, 16, 400));
}

// --- Tag allocator backpressure ------------------------------------------

TEST(MqTagTest, ExhaustionParksAndResumesWithoutLoss) {
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, FastDevice());
  BlockLayerConfig cfg;
  cfg.tags_per_queue = 2;
  BlockLayer layer(&sim, &dev, cfg);
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    IoRequest r;
    r.op = IoOp::kRead;
    r.lba = static_cast<Lba>(i);
    r.nblocks = 1;
    r.on_complete = [&](const IoResult& res) {
      EXPECT_TRUE(res.status.ok());
      ++done;
    };
    layer.Submit(std::move(r));
  }
  // Only 2 tags: 6 of the 8 submissions parked.
  EXPECT_EQ(layer.counters().Get("tag_waits"), 6u);
  EXPECT_EQ(layer.tag_waiters(0), 6u);
  EXPECT_EQ(layer.tags_in_use(0), 2u);
  sim.Run();
  // Every parked request was resumed and completed; state bounded by
  // the tag capacity, nothing leaked.
  EXPECT_EQ(done, 8);
  EXPECT_EQ(layer.counters().Get("tag_resumes"), 6u);
  EXPECT_EQ(layer.io_states_allocated(), 2u);
  EXPECT_EQ(layer.io_states_free(), 2u);
  EXPECT_EQ(layer.tag_waiters(0), 0u);
}

TEST(MqTagTest, PowerCycleDropsWaitersAndReclaimsTags) {
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, FastDevice());
  BlockLayerConfig cfg = AllFeaturesOn();
  cfg.tags_per_queue = 2;
  BlockLayer layer(&sim, &dev, cfg);
  int done = 0;
  for (int i = 0; i < 24; ++i) {
    IoRequest r;
    r.op = IoOp::kRead;
    r.lba = static_cast<Lba>(i);
    r.nblocks = 1;
    r.stream = static_cast<std::uint8_t>(i % 3);
    r.on_complete = [&](const IoResult&) { ++done; };
    layer.Submit(std::move(r));
  }
  sim.RunUntil(15 * kMicrosecond);  // mid-flight
  layer.PowerCycle();
  sim.Run();
  // Dropped requests never complete; all tagged state is reclaimed once
  // the stale completions drain.
  EXPECT_EQ(layer.io_states_allocated(), layer.io_states_free());
  for (std::uint32_t q = 0; q < cfg.nr_queues; ++q) {
    EXPECT_EQ(layer.tag_waiters(q), 0u) << "queue " << q;
  }
  // The layer still works after the reset.
  bool ok = false;
  IoRequest r;
  r.op = IoOp::kRead;
  r.lba = 1;
  r.nblocks = 1;
  r.on_complete = [&](const IoResult& res) { ok = res.status.ok(); };
  layer.Submit(std::move(r));
  sim.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(layer.io_states_allocated(), layer.io_states_free());
}

// --- QoS / DRR ------------------------------------------------------------

TEST(MqQosTest, WeightedSharedDepthStarvesNoQueue) {
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, FastDevice());
  BlockLayerConfig cfg;
  cfg.nr_queues = 2;
  cfg.stream_queues = true;
  cfg.shared_depth = 2;
  cfg.qos_weights = {8, 1};  // q0 heavily favored
  BlockLayer layer(&sim, &dev, cfg);
  int heavy_done = 0;
  int light_done = 0;
  SimTime last_light_completion = 0;
  for (int i = 0; i < 80; ++i) {
    IoRequest r;
    r.op = IoOp::kRead;
    r.lba = static_cast<Lba>(2 * i);  // strided: no back-merges
    r.nblocks = 1;
    r.stream = 2;  // 2 % 2 == queue 0
    r.on_complete = [&](const IoResult&) { ++heavy_done; };
    layer.Submit(std::move(r));
  }
  for (int i = 0; i < 5; ++i) {
    IoRequest r;
    r.op = IoOp::kRead;
    r.lba = static_cast<Lba>(1000 + 2 * i);
    r.nblocks = 1;
    r.stream = 1;  // 1 % 2 == queue 1
    r.on_complete = [&](const IoResult&) {
      ++light_done;
      last_light_completion = sim.Now();
    };
    layer.Submit(std::move(r));
  }
  sim.Run();
  EXPECT_EQ(heavy_done, 80);
  EXPECT_EQ(light_done, 5);  // weight 1, but never starved
  EXPECT_GT(layer.counters().Get("drr_rounds"), 0u);
  // The light queue drains alongside the heavy one, not after it: its
  // last IO completes well before the end of the run (DRR gives it one
  // slot per round, so it cannot be pushed to the tail).
  EXPECT_LT(last_light_completion, sim.Now());
}

TEST(MqQosTest, StreamPinningRoutesToOwnQueue) {
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, FastDevice());
  BlockLayerConfig cfg;
  cfg.nr_queues = 4;
  cfg.stream_queues = true;
  BlockLayer layer(&sim, &dev, cfg);
  for (int i = 0; i < 12; ++i) {
    IoRequest r;
    r.op = IoOp::kRead;
    r.lba = static_cast<Lba>(i);
    r.nblocks = 1;
    r.stream = 1;  // all pinned to queue 1
    r.on_complete = [](const IoResult&) {};
    layer.Submit(std::move(r));
  }
  sim.Run();
  EXPECT_EQ(layer.counters().Get("stream_pins"), 12u);
  EXPECT_EQ(layer.scheduler(1).counters().Get("enqueued"), 12u);
  EXPECT_EQ(layer.scheduler(0).counters().Get("enqueued"), 0u);
  EXPECT_EQ(layer.scheduler(2).counters().Get("enqueued"), 0u);
  EXPECT_EQ(layer.scheduler(3).counters().Get("enqueued"), 0u);
}

// --- Completion modes -----------------------------------------------------

/// Runs write-then-read-back over `cfg` and returns id -> token.
std::map<std::uint64_t, std::uint64_t> RunReadBack(
    const BlockLayerConfig& cfg) {
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, FastDevice());
  BlockLayer layer(&sim, &dev, cfg);
  for (std::uint64_t i = 0; i < 64; ++i) {
    IoRequest w;
    w.op = IoOp::kWrite;
    w.lba = i;
    w.nblocks = 1;
    w.tokens = {1000 + i};
    w.on_complete = [](const IoResult&) {};
    layer.Submit(std::move(w));
  }
  sim.Run();
  std::map<std::uint64_t, std::uint64_t> out;
  for (std::uint64_t i = 0; i < 64; ++i) {
    IoRequest r;
    r.op = IoOp::kRead;
    r.lba = i;
    r.nblocks = 1;
    r.on_complete = [&out, i](const IoResult& res) {
      ASSERT_TRUE(res.status.ok());
      ASSERT_EQ(res.tokens.size(), 1u);
      out[i] = res.tokens[0];
    };
    layer.Submit(std::move(r));
  }
  sim.Run();
  return out;
}

TEST(MqCompletionTest, PollingCoalescedAndInterruptAgreeOnResults) {
  BlockLayerConfig interrupt_cfg;  // per-IO interrupts (default)

  BlockLayerConfig coalesced_cfg;
  coalesced_cfg.coalesce_depth = 8;
  coalesced_cfg.coalesce_ns = 5 * kMicrosecond;

  BlockLayerConfig polled_cfg;
  polled_cfg.interrupt_completion = false;
  polled_cfg.coalesce_depth = 8;  // poll reaps the CQ ring in batches
  polled_cfg.coalesce_ns = 2 * kMicrosecond;

  const auto a = RunReadBack(interrupt_cfg);
  const auto b = RunReadBack(coalesced_cfg);
  const auto c = RunReadBack(polled_cfg);
  ASSERT_EQ(a.size(), 64u);
  EXPECT_EQ(a, b);  // same data, regardless of completion plumbing
  EXPECT_EQ(a, c);
}

TEST(MqCompletionTest, CoalescingReducesCompletionCharges) {
  sim::Simulator sim;
  SimpleDeviceConfig dc = FastDevice();
  dc.units = 16;
  SimpleBlockDevice dev(&sim, dc);
  BlockLayerConfig cfg;
  cfg.coalesce_depth = 8;
  cfg.coalesce_ns = 20 * kMicrosecond;
  BlockLayer layer(&sim, &dev, cfg);
  int done = 0;
  for (int i = 0; i < 64; ++i) {
    IoRequest r;
    r.op = IoOp::kRead;
    r.lba = static_cast<Lba>(i);
    r.nblocks = 1;
    r.on_complete = [&](const IoResult&) { ++done; };
    layer.Submit(std::move(r));
  }
  sim.Run();
  EXPECT_EQ(done, 64);
  const std::uint64_t posts = layer.counters().Get("cq_posts");
  const std::uint64_t flushes = layer.counters().Get("cq_flushes");
  EXPECT_EQ(posts, 64u);
  EXPECT_GT(flushes, 0u);
  EXPECT_LT(flushes, posts);  // strictly fewer interrupts than IOs
}

// --- Doorbell batching ----------------------------------------------------

TEST(MqDoorbellTest, BatchedDispatchAmortizesDeviceAdmission) {
  sim::Simulator sim;
  ssd::Config dc = ssd::Config::Small();
  ssd::Device dev(&sim, dc);
  BlockLayerConfig cfg;
  cfg.doorbell_batch = 8;
  cfg.doorbell_ns = 150;
  // A binding depth plus completion coalescing: slots free in bursts
  // when the CQ ring drains, so the refill fills whole doorbell
  // batches instead of trickling one command per ring.
  cfg.queue_depth = 8;
  cfg.coalesce_depth = 8;
  cfg.coalesce_ns = 20 * kMicrosecond;
  BlockLayer layer(&sim, &dev, cfg);
  int done = 0;
  for (int i = 0; i < 64; ++i) {
    IoRequest r;
    r.op = IoOp::kRead;
    r.lba = static_cast<Lba>(2 * i);  // strided: no back-merges
    r.nblocks = 1;
    r.on_complete = [&](const IoResult& res) {
      EXPECT_TRUE(res.status.ok());
      ++done;
    };
    layer.Submit(std::move(r));
  }
  sim.Run();
  EXPECT_EQ(done, 64);
  // Every dispatch went through a doorbell ring; rings < commands means
  // admission overhead was actually shared.
  EXPECT_EQ(layer.counters().Get("doorbell_cmds"), 64u);
  EXPECT_GT(layer.counters().Get("doorbells"), 0u);
  EXPECT_LT(layer.counters().Get("doorbells"), 64u);
  EXPECT_EQ(dev.counters().Get("doorbell_cmds"), 64u);
  EXPECT_EQ(dev.counters().Get("doorbell_rings"),
            layer.counters().Get("doorbells"));
  EXPECT_EQ(dev.counters().Get("completions"), 64u);
}

// --- Scheduler merge window / streams -------------------------------------

TEST(MqMergeTest, InterleavedStreamsDoNotFalselyMerge) {
  // Regression: two streams interleaving contiguous LBAs used to merge
  // into one IO at the queue tail. Same-stream contiguity still merges.
  IoScheduler s(IoSchedulerConfig{SchedulerKind::kMerge});
  IoRequest a;
  a.op = IoOp::kWrite;
  a.lba = 10;
  a.nblocks = 1;
  a.tokens = {1};
  a.stream = 1;
  IoRequest b;
  b.op = IoOp::kWrite;
  b.lba = 11;  // contiguous with a, but a different stream
  b.nblocks = 1;
  b.tokens = {2};
  b.stream = 2;
  s.Enqueue(std::move(a));
  s.Enqueue(std::move(b));
  EXPECT_EQ(s.depth(), 2u);
  EXPECT_EQ(s.counters().Get("back_merges"), 0u);
  EXPECT_EQ(s.counters().Get("merge_stream_rejects"), 1u);
}

TEST(MqMergeTest, CrossStreamMergeIsOptIn) {
  IoSchedulerConfig cfg;
  cfg.kind = SchedulerKind::kMerge;
  cfg.cross_stream_merge = true;
  IoScheduler s(cfg);
  IoRequest a;
  a.op = IoOp::kWrite;
  a.lba = 10;
  a.nblocks = 1;
  a.tokens = {1};
  a.stream = 1;
  IoRequest b;
  b.op = IoOp::kWrite;
  b.lba = 11;
  b.nblocks = 1;
  b.tokens = {2};
  b.stream = 2;
  s.Enqueue(std::move(a));
  s.Enqueue(std::move(b));
  EXPECT_EQ(s.depth(), 1u);
  EXPECT_EQ(s.counters().Get("back_merges"), 1u);
}

TEST(MqMergeTest, WiderWindowMergesPastInterleavedTraffic) {
  // A(s1, lba10) then B(s2, lba50) then C(s1, lba11): with the classic
  // tail-only window C cannot reach A; window 2 finds it.
  auto make = [](Lba lba, std::uint8_t stream) {
    IoRequest r;
    r.op = IoOp::kWrite;
    r.lba = lba;
    r.nblocks = 1;
    r.tokens = {lba};
    r.stream = stream;
    return r;
  };
  IoSchedulerConfig tail_only;
  tail_only.kind = SchedulerKind::kMerge;
  tail_only.merge_window = 1;
  IoScheduler narrow(tail_only);
  narrow.Enqueue(make(10, 1));
  narrow.Enqueue(make(50, 2));
  narrow.Enqueue(make(11, 1));
  EXPECT_EQ(narrow.depth(), 3u);
  EXPECT_EQ(narrow.counters().Get("back_merges"), 0u);

  IoSchedulerConfig windowed = tail_only;
  windowed.merge_window = 2;
  IoScheduler wide(windowed);
  wide.Enqueue(make(10, 1));
  wide.Enqueue(make(50, 2));
  wide.Enqueue(make(11, 1));
  EXPECT_EQ(wide.depth(), 2u);
  EXPECT_EQ(wide.counters().Get("back_merges"), 1u);
}

}  // namespace
}  // namespace postblock::blocklayer
