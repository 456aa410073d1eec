#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "blocklayer/block_layer.h"
#include "blocklayer/direct_driver.h"
#include "blocklayer/io_scheduler.h"
#include "blocklayer/simple_device.h"
#include "sim/simulator.h"

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

IoResult RunOne(sim::Simulator* sim, BlockDevice* dev, IoRequest req) {
  IoResult out;
  bool fired = false;
  req.on_complete = [&](const IoResult& r) {
    out = r;
    fired = true;
  };
  dev->Submit(std::move(req));
  EXPECT_TRUE(sim->RunUntilPredicate([&] { return fired; }));
  return out;
}

// --- SimpleBlockDevice ----------------------------------------------------

TEST(SimpleDeviceTest, RoundTripAndTrim) {
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, FastDevice());
  IoRequest w;
  w.op = IoOp::kWrite;
  w.lba = 3;
  w.nblocks = 2;
  w.tokens = {5, 6};
  ASSERT_TRUE(RunOne(&sim, &dev, std::move(w)).status.ok());
  IoRequest r;
  r.op = IoOp::kRead;
  r.lba = 3;
  r.nblocks = 2;
  EXPECT_EQ(RunOne(&sim, &dev, std::move(r)).tokens, (Tokens{5, 6}));
  IoRequest t;
  t.op = IoOp::kTrim;
  t.lba = 3;
  t.nblocks = 1;
  ASSERT_TRUE(RunOne(&sim, &dev, std::move(t)).status.ok());
  IoRequest r2;
  r2.op = IoOp::kRead;
  r2.lba = 3;
  r2.nblocks = 2;
  EXPECT_EQ(RunOne(&sim, &dev, std::move(r2)).tokens, (Tokens{0, 6}));
}

TEST(SimpleDeviceTest, LatencyMatchesConfig) {
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, FastDevice());
  const SimTime start = sim.Now();
  IoRequest r;
  r.op = IoOp::kRead;
  r.lba = 0;
  r.nblocks = 1;
  RunOne(&sim, &dev, std::move(r));
  EXPECT_EQ(sim.Now() - start, 2 * kMicrosecond + 10 * kMicrosecond);
}

TEST(SimpleDeviceTest, ParallelUnitsOverlap) {
  sim::Simulator sim;
  SimpleDeviceConfig c = FastDevice();
  c.units = 4;
  SimpleBlockDevice dev(&sim, c);
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    IoRequest r;
    r.op = IoOp::kRead;
    r.lba = static_cast<Lba>(i);
    r.nblocks = 1;
    r.on_complete = [&](const IoResult&) { ++done; };
    dev.Submit(std::move(r));
  }
  sim.Run();
  EXPECT_EQ(done, 4);
  // All four overlapped in the four units.
  EXPECT_EQ(sim.Now(), 2 * kMicrosecond + 10 * kMicrosecond);
}

// --- IoScheduler -----------------------------------------------------------

TEST(IoSchedulerTest, NoopIsFifo) {
  IoScheduler s(SchedulerKind::kNoop);
  IoRequest a;
  a.lba = 10;
  IoRequest b;
  b.lba = 20;
  s.Enqueue(std::move(a));
  s.Enqueue(std::move(b));
  EXPECT_EQ(s.Dequeue().lba, 10u);
  EXPECT_EQ(s.Dequeue().lba, 20u);
}

TEST(IoSchedulerTest, MergeCoalescesContiguousSameOp) {
  IoScheduler s(SchedulerKind::kMerge);
  IoRequest a;
  a.op = IoOp::kWrite;
  a.lba = 10;
  a.nblocks = 2;
  a.tokens = {1, 2};
  IoRequest b;
  b.op = IoOp::kWrite;
  b.lba = 12;
  b.nblocks = 1;
  b.tokens = {3};
  s.Enqueue(std::move(a));
  s.Enqueue(std::move(b));
  EXPECT_EQ(s.depth(), 1u);
  const IoRequest merged = s.Dequeue();
  EXPECT_EQ(merged.nblocks, 3u);
  EXPECT_EQ(merged.tokens, (Tokens{1, 2, 3}));
  EXPECT_EQ(s.counters().Get("back_merges"), 1u);
}

TEST(IoSchedulerTest, MergedCompletionsFanOutTokenSlices) {
  IoScheduler s(SchedulerKind::kMerge);
  Tokens first_tokens, second_tokens;
  IoRequest a;
  a.op = IoOp::kRead;
  a.lba = 10;
  a.nblocks = 2;
  a.on_complete = [&](const IoResult& r) { first_tokens = r.tokens; };
  IoRequest b;
  b.op = IoOp::kRead;
  b.lba = 12;
  b.nblocks = 1;
  b.on_complete = [&](const IoResult& r) { second_tokens = r.tokens; };
  s.Enqueue(std::move(a));
  s.Enqueue(std::move(b));
  IoRequest merged = s.Dequeue();
  merged.on_complete(IoResult{Status::Ok(), {100, 101, 102}});
  EXPECT_EQ(first_tokens, (Tokens{100, 101}));
  EXPECT_EQ(second_tokens, (Tokens{102}));
}

TEST(IoSchedulerTest, NonContiguousOrDifferentOpNotMerged) {
  IoScheduler s(SchedulerKind::kMerge);
  IoRequest a;
  a.op = IoOp::kWrite;
  a.lba = 10;
  a.nblocks = 1;
  a.tokens = {1};
  IoRequest gap;
  gap.op = IoOp::kWrite;
  gap.lba = 15;
  gap.nblocks = 1;
  gap.tokens = {2};
  IoRequest read;
  read.op = IoOp::kRead;
  read.lba = 16;
  read.nblocks = 1;
  s.Enqueue(std::move(a));
  s.Enqueue(std::move(gap));
  s.Enqueue(std::move(read));
  EXPECT_EQ(s.depth(), 3u);
}

// --- BlockLayer -------------------------------------------------------------

TEST(BlockLayerTest, AddsCpuCostsToLatency) {
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, FastDevice());
  BlockLayerConfig cfg;
  cfg.cpu = CpuCosts::Legacy();
  BlockLayer layer(&sim, &dev, cfg);
  const SimTime start = sim.Now();
  IoRequest r;
  r.op = IoOp::kRead;
  r.lba = 0;
  r.nblocks = 1;
  RunOne(&sim, &layer, std::move(r));
  const SimTime device_only = 12 * kMicrosecond;
  const SimTime expected = device_only + cfg.cpu.submit_ns +
                           cfg.cpu.schedule_ns + cfg.cpu.interrupt_ns;
  EXPECT_EQ(sim.Now() - start, expected);
}

TEST(BlockLayerTest, PollingCheaperThanInterrupts) {
  auto run = [](bool interrupts) {
    sim::Simulator sim;
    SimpleBlockDevice dev(&sim, FastDevice());
    BlockLayerConfig cfg;
    cfg.interrupt_completion = interrupts;
    BlockLayer layer(&sim, &dev, cfg);
    IoRequest r;
    r.op = IoOp::kRead;
    r.lba = 0;
    r.nblocks = 1;
    RunOne(&sim, &layer, std::move(r));
    return sim.Now();
  };
  EXPECT_LT(run(false), run(true));
}

TEST(BlockLayerTest, QueueDepthThrottlesDispatch) {
  sim::Simulator sim;
  SimpleDeviceConfig slow = FastDevice();
  slow.units = 64;  // device itself imposes no limit
  SimpleBlockDevice dev(&sim, slow);
  BlockLayerConfig cfg;
  cfg.queue_depth = 2;
  BlockLayerConfig deep = cfg;
  deep.queue_depth = 64;

  auto makespan = [&](const BlockLayerConfig& c) {
    sim::Simulator s;
    SimpleBlockDevice d(&s, slow);
    BlockLayer layer(&s, &d, c);
    int done = 0;
    for (int i = 0; i < 32; ++i) {
      IoRequest r;
      r.op = IoOp::kRead;
      r.lba = static_cast<Lba>(i * 2);  // avoid merges
      r.nblocks = 1;
      r.on_complete = [&](const IoResult&) { ++done; };
      layer.Submit(std::move(r));
    }
    s.Run();
    EXPECT_EQ(done, 32);
    return s.Now();
  };
  EXPECT_GT(makespan(cfg), makespan(deep));
}

TEST(BlockLayerTest, MergeSchedulerMergesSequentialStream) {
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, FastDevice());
  BlockLayerConfig cfg;
  cfg.scheduler = SchedulerKind::kMerge;
  cfg.queue_depth = 1;  // force queue buildup behind the first IO
  BlockLayer layer(&sim, &dev, cfg);
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    IoRequest r;
    r.op = IoOp::kWrite;
    r.lba = static_cast<Lba>(i);
    r.nblocks = 1;
    r.tokens = {static_cast<std::uint64_t>(i)};
    r.on_complete = [&](const IoResult&) { ++done; };
    layer.Submit(std::move(r));
  }
  sim.Run();
  EXPECT_EQ(done, 8);
  EXPECT_GT(layer.scheduler(0).counters().Get("back_merges"), 0u);
}

TEST(BlockLayerTest, MergeNeverJoinsExtentsAcrossTheTopLba) {
  // A queued write of the last LBA and a write of LBA 0 "abut" only if
  // the LBA wraps; merging them would hand the device one out-of-range
  // request that takes the valid write down with it.
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, FastDevice());
  BlockLayerConfig cfg;
  cfg.scheduler = SchedulerKind::kMerge;
  cfg.queue_depth = 1;  // the first write holds the slot; the rest queue
  BlockLayer layer(&sim, &dev, cfg);
  const Status pending = Status::Internal("never completed");
  Status first = pending, top = pending, zero = pending;
  layer.Submit(IoRequest::Write(100, {1},
                                [&](const IoResult& r) { first = r.status; }));
  layer.Submit(IoRequest::Write(~Lba{0}, {9},
                                [&](const IoResult& r) { top = r.status; }));
  layer.Submit(IoRequest::Write(0, {5},
                                [&](const IoResult& r) { zero = r.status; }));
  sim.Run();
  EXPECT_TRUE(first.ok()) << first.ToString();
  EXPECT_EQ(top.code(), StatusCode::kOutOfRange) << top.ToString();
  EXPECT_TRUE(zero.ok()) << zero.ToString();
  EXPECT_EQ(layer.scheduler(0).counters().Get("back_merges"), 0u);
  IoRequest r;
  r.op = IoOp::kRead;
  r.lba = 0;
  r.nblocks = 1;
  EXPECT_EQ(RunOne(&sim, &layer, std::move(r)).tokens, (Tokens{5}));
}

TEST(BlockLayerTest, OutOfRangeWriteIsRefusedBeforeItCanMerge) {
  // A write that abuts the device's end from outside must not queue: a
  // back-merge would join it to the valid write of the last LBA, and
  // the merged IO would fail both.
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, FastDevice());  // 4,096 blocks
  BlockLayerConfig cfg;
  cfg.scheduler = SchedulerKind::kMerge;
  cfg.queue_depth = 1;  // the first write holds the slot; the rest queue
  BlockLayer layer(&sim, &dev, cfg);
  const Status pending = Status::Internal("never completed");
  Status first = pending, last = pending, beyond = pending;
  layer.Submit(IoRequest::Write(100, {1},
                                [&](const IoResult& r) { first = r.status; }));
  layer.Submit(IoRequest::Write(4095, {2},
                                [&](const IoResult& r) { last = r.status; }));
  layer.Submit(IoRequest::Write(
      4096, {3}, [&](const IoResult& r) { beyond = r.status; }));
  sim.Run();
  EXPECT_TRUE(first.ok()) << first.ToString();
  EXPECT_TRUE(last.ok()) << last.ToString();
  EXPECT_EQ(beyond.code(), StatusCode::kOutOfRange) << beyond.ToString();
  EXPECT_EQ(layer.scheduler(0).counters().Get("back_merges"), 0u);
  IoRequest r;
  r.op = IoOp::kRead;
  r.lba = 4095;
  r.nblocks = 1;
  EXPECT_EQ(RunOne(&sim, &layer, std::move(r)).tokens, (Tokens{2}));
}

TEST(BlockLayerTest, CpuUtilizationReported) {
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, FastDevice());
  BlockLayerConfig cfg;
  BlockLayer layer(&sim, &dev, cfg);
  IoRequest r;
  r.op = IoOp::kRead;
  r.lba = 0;
  r.nblocks = 1;
  RunOne(&sim, &layer, std::move(r));
  EXPECT_GT(layer.CpuUtilization(), 0.0);
  EXPECT_EQ(layer.counters().Get("submitted"), 1u);
  EXPECT_EQ(layer.counters().Get("completed"), 1u);
}

TEST(BlockLayerTest, PowerCycleReclaimsPooledIoStates) {
  // Requests resident in the scheduler at power-cycle time are dropped
  // without completing, but their pooled IoStates must return to the
  // free list — a leak here grows the pool on every crash test cycle.
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, FastDevice());
  BlockLayerConfig cfg;
  cfg.queue_depth = 2;  // keep most requests scheduler-resident
  BlockLayer layer(&sim, &dev, cfg);
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    IoRequest r;
    r.op = IoOp::kRead;
    r.lba = static_cast<Lba>(i * 2);  // avoid merges
    r.nblocks = 1;
    r.on_complete = [&](const IoResult&) { ++completed; };
    layer.Submit(std::move(r));
  }
  // Far enough for submissions to queue, short of any device completion.
  sim.RunUntil(10 * kMicrosecond);
  ASSERT_FALSE(layer.scheduler(0).empty());
  layer.PowerCycle();
  sim.Run();
  EXPECT_EQ(completed, 0);  // dropped IOs never reach the caller
  EXPECT_EQ(layer.io_states_allocated(), 10u);
  EXPECT_EQ(layer.io_states_free(), layer.io_states_allocated());
}

// --- DirectDriver -----------------------------------------------------------

TEST(DirectDriverTest, LowerOverheadThanBlockLayer) {
  auto latency = [](bool direct) {
    sim::Simulator sim;
    SimpleBlockDevice dev(&sim, FastDevice());
    std::unique_ptr<BlockDevice> path;
    if (direct) {
      path = std::make_unique<DirectDriver>(&sim, &dev);
    } else {
      path = std::make_unique<BlockLayer>(&sim, &dev, BlockLayerConfig{});
    }
    IoRequest r;
    r.op = IoOp::kRead;
    r.lba = 0;
    r.nblocks = 1;
    RunOne(&sim, path.get(), std::move(r));
    return sim.Now();
  };
  EXPECT_LT(latency(true), latency(false));
}

TEST(DirectDriverTest, PassesDataThrough) {
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, FastDevice());
  DirectDriver direct(&sim, &dev);
  IoRequest w;
  w.op = IoOp::kWrite;
  w.lba = 1;
  w.nblocks = 1;
  w.tokens = {9};
  ASSERT_TRUE(RunOne(&sim, &direct, std::move(w)).status.ok());
  IoRequest r;
  r.op = IoOp::kRead;
  r.lba = 1;
  r.nblocks = 1;
  EXPECT_EQ(RunOne(&sim, &direct, std::move(r)).tokens[0], 9u);
}

}  // namespace
}  // namespace postblock::blocklayer
