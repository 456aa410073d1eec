// Zero-allocation gates for the IO paths: after a warm-up, an aged
// fig2-class ssd::Device (page-mapping FTL with GC running, QD 32, 30%
// writes), the mq BlockLayer over it, a vbd tenant over that stack and
// the fixed-latency SimpleBlockDevice make no heap allocation per IO —
// the caller's own write payload included, since a one-block IO's token
// lives inline in its Tokens. What remains is capacity growth: a ring,
// pool or the event queue's node arena reaching a new high-water mark,
// a handful per ten thousand IOs and falling — so the gate is "rounds
// to zero", two orders of magnitude below a single allocating call site.
//
// The database path gets a per-transaction bound instead, a quarter of
// an allocation: what is left there (merged requests spilling their
// tokens, host maps and pools reaching a new size) comes to about one
// allocation per ten transactions.
//
// Fresh instances get growth bounds: the event core and the record pools
// grow geometrically, so a new Simulator or a new sharded device makes
// O(log n) allocations over a run, not one per slot or record. The aged
// device's set-up also bounds how often the event core's timing wheel
// handles each event (placements per event).
//
// A tracer costs no ring memory until it is first enabled, so a stack
// built with a tracer attached but off allocates nothing for it.
//
// Its own binary: the global operator new below counts every heap
// allocation in the process.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocklayer/block_layer.h"
#include "blocklayer/simple_device.h"
#include "common/rng.h"
#include "db/storage_manager.h"
#include "sim/simulator.h"
#include "ssd/config.h"
#include "ssd/device.h"
#include "ssd/sharded_device.h"
#include "trace/tracer.h"
#include "vbd/backend.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// All out of line, so the compiler never matches the malloc() and free()
// below against the new-expressions it inlines (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace postblock::ssd {
namespace {

using blocklayer::BlockDevice;
using blocklayer::IoOp;
using blocklayer::IoRequest;
using blocklayer::IoResult;

/// Closed-loop client: `depth` slots, each issuing its next IO from its
/// previous IO's completion. Completions capture only the slot pointer.
class Loop {
 public:
  Loop(sim::Simulator* sim, BlockDevice* dev, std::uint32_t depth,
       std::uint64_t seed)
      : sim_(sim), dev_(dev), rng_(seed), slots_(depth) {
    for (Slot& s : slots_) s.loop = this;
  }

  /// Runs `ops` IOs with `write_fraction` writes; returns failures.
  std::uint64_t Run(std::uint64_t ops, double write_fraction) {
    quota_ = ops;
    issued_ = done_ = failed_ = 0;
    write_fraction_ = write_fraction;
    for (Slot& s : slots_) Issue(&s);
    sim_->RunUntilPredicate([this] { return done_ >= quota_; });
    return failed_;
  }

 private:
  struct Slot {
    Loop* loop = nullptr;
  };

  void Issue(Slot* slot) {
    if (issued_ >= quota_) return;
    ++issued_;
    IoRequest req;
    const bool write = rng_.Bernoulli(write_fraction_);
    req.op = write ? IoOp::kWrite : IoOp::kRead;
    req.lba = rng_.Uniform(dev_->num_blocks());
    req.nblocks = 1;
    if (write) req.tokens.assign(1, ++token_);
    req.on_complete = [slot](const IoResult& r) {
      slot->loop->OnDone(slot, r);
    };
    dev_->Submit(std::move(req));
  }

  void OnDone(Slot* slot, const IoResult& r) {
    ++done_;
    if (!r.status.ok()) ++failed_;
    Issue(slot);
  }

  sim::Simulator* sim_;
  BlockDevice* dev_;
  Rng rng_;
  std::vector<Slot> slots_;
  std::uint64_t quota_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t done_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t token_ = 0;
  double write_fraction_ = 0;
};

Config AgedFig2Config() {
  Config c = Config::Consumer2012();
  c.geometry.pages_per_block = 16;
  c.geometry.blocks_per_plane = 32;
  c.over_provisioning = 0.10;
  return c;
}

TEST(DeviceAllocTest, AgedMixedIoMakesNoHeapAllocations) {
  sim::Simulator sim;
  Device dev(&sim, AgedFig2Config());
  const std::uint64_t n = dev.num_blocks();
  Loop loop(&sim, &dev, /*depth=*/32, /*seed=*/7);
  // Age: overwrite twice the capacity at random, so every LUN runs GC.
  ASSERT_EQ(loop.Run(3 * n, 1.0), 0u);
  // Flash latencies (20 us transfers, 40 us reads, 400 us programs, 2 ms
  // erases) must land at most two wheel levels up: on average an event
  // is placed well under twice (once when scheduled, once per cascade).
  const double placements_per_event =
      static_cast<double>(sim.placements()) /
      static_cast<double>(sim.events_executed());
  EXPECT_LE(placements_per_event, 1.9);
  // Warm-up: pools, rings and scratch vectors reach their working size.
  ASSERT_EQ(loop.Run(20'000, 0.30), 0u);

  const std::uint64_t gc0 = dev.ftl()->counters().Get("gc_runs");
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  constexpr std::uint64_t kOps = 20'000;
  const std::uint64_t failed = loop.Run(kOps, 0.30);
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - a0;

  EXPECT_EQ(failed, 0u);
  EXPECT_GT(dev.ftl()->counters().Get("gc_runs"), gc0)
      << "the measured window must include garbage collection";
  EXPECT_LT(allocs, kOps / 500) << static_cast<double>(allocs) / kOps
                                << " heap allocations per IO";
}

TEST(DeviceAllocTest, BlockLayerRandomReadsMakeNoHeapAllocations) {
  sim::Simulator sim;
  Device dev(&sim, AgedFig2Config());
  blocklayer::BlockLayerConfig bl;
  bl.nr_queues = 4;
  bl.queue_depth = 4;  // per queue: shallow, so requests wait in the queues
  bl.scheduler = blocklayer::SchedulerKind::kMerge;
  blocklayer::BlockLayer layer(&sim, &dev, bl);
  const std::uint64_t n = dev.num_blocks();
  Loop loop(&sim, &layer, /*depth=*/32, /*seed=*/11);
  // Map the whole device, so reads hit flash.
  ASSERT_EQ(loop.Run(2 * n, 1.0), 0u);
  ASSERT_EQ(loop.Run(20'000, 0.0), 0u);  // warm-up

  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  constexpr std::uint64_t kOps = 20'000;
  const std::uint64_t failed = loop.Run(kOps, 0.0);
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - a0;

  EXPECT_EQ(failed, 0u);
  EXPECT_LT(allocs, kOps / 500) << static_cast<double>(allocs) / kOps
                                << " heap allocations per IO";
}

TEST(DeviceAllocTest, VbdMixedIoMakesNoHeapAllocations) {
  sim::Simulator sim;
  Device dev(&sim, AgedFig2Config());
  blocklayer::BlockLayerConfig bl;
  bl.nr_queues = 4;
  bl.queue_depth = 8;
  blocklayer::BlockLayer layer(&sim, &dev, bl);
  vbd::Backend backend(&sim, &layer);
  vbd::TenantConfig tc;
  tc.capacity_blocks = dev.num_blocks();
  auto tenant = backend.CreateTenant(tc);
  ASSERT_TRUE(tenant.ok());
  const std::uint64_t n = tenant.value()->num_blocks();
  Loop loop(&sim, tenant.value(), /*depth=*/32, /*seed=*/19);
  // Age through the tenant: every LBA written, so reads hit flash, and
  // every LUN runs GC.
  ASSERT_EQ(loop.Run(3 * n, 1.0), 0u);
  ASSERT_EQ(loop.Run(20'000, 0.30), 0u);  // warm-up

  const std::uint64_t gc0 = dev.ftl()->counters().Get("gc_runs");
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  constexpr std::uint64_t kOps = 20'000;
  const std::uint64_t failed = loop.Run(kOps, 0.30);
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - a0;

  EXPECT_EQ(failed, 0u);
  EXPECT_GT(dev.ftl()->counters().Get("gc_runs"), gc0)
      << "the measured window must include garbage collection";
  EXPECT_LT(allocs, kOps / 500) << static_cast<double>(allocs) / kOps
                                << " heap allocations per IO";
}

TEST(DeviceAllocTest, SimpleBlockDeviceMakesNoHeapAllocations) {
  sim::Simulator sim;
  blocklayer::SimpleDeviceConfig sc;
  sc.num_blocks = 1 << 14;
  blocklayer::SimpleBlockDevice dev(&sim, sc);
  Loop loop(&sim, &dev, /*depth=*/32, /*seed=*/13);
  ASSERT_EQ(loop.Run(20'000, 0.30), 0u);  // warm-up

  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  constexpr std::uint64_t kOps = 20'000;
  const std::uint64_t failed = loop.Run(kOps, 0.30);
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - a0;

  EXPECT_EQ(failed, 0u);
  EXPECT_LT(allocs, kOps / 500) << static_cast<double>(allocs) / kOps
                                << " heap allocations per IO";
}

TEST(DeviceAllocTest, FreshSimulatorPingPongAllocatesLogarithmically) {
  // K actors, each rescheduling itself 100 ns ahead until 1M events have
  // run, on a Simulator built inside the measured window.
  for (const std::uint64_t actors : {32u, 4096u}) {
    struct World {
      sim::Simulator sim;
      std::uint64_t remaining = 1'000'000;
      void Fire(std::uint64_t id) {
        if (remaining == 0) return;
        --remaining;
        sim.Schedule(100, [this, id] { Fire(id); });
      }
    };
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    std::uint64_t events = 0;
    {
      auto world = std::make_unique<World>();
      for (std::uint64_t id = 0; id < actors; ++id) {
        world->sim.Schedule(id % 997, [w = world.get(), id] { w->Fire(id); });
      }
      world->sim.Run();
      events = world->sim.events_executed();
    }
    const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - a0;
    EXPECT_EQ(events, 1'000'000 + actors);
    EXPECT_LE(allocs, 64u) << actors << " actors";
  }
}

TEST(DeviceAllocTest, FreshShardedDeviceRunUnderFiftiethAllocationPerIo) {
  // perfbench sharded_mix's shape: a new sequential-engine device, a 70%
  // sequential fill, then 20k random IOs (40% writes) at QD 32. All of
  // the run's growth is measured, the fill's included.
  Config c;
  c.geometry.channels = 4;
  c.geometry.luns_per_channel = 4;
  c.geometry.planes_per_lun = 1;
  c.geometry.blocks_per_plane = 64;
  c.geometry.pages_per_block = 32;
  c.geometry.page_size_bytes = 4096;
  ShardedDeviceRun run;
  run.workers = 0;
  run.queue_depth = 32;
  run.total_ios = 20'000;
  run.write_percent = 40;
  run.fill_fraction = 0.7;
  ShardedDeviceSim sim(c, run);

  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  sim.Run();
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - a0;

  EXPECT_EQ(sim.io_errors(), 0u);
  const double per_io =
      static_cast<double>(allocs) / static_cast<double>(sim.ios_completed());
  EXPECT_LT(per_io, 0.02) << allocs << " heap allocations over "
                          << sim.ios_completed() << " IOs";
}

/// E22's transaction mix on both wirings: the classic block stack over
/// the page FTL, and the post-block stack (PCM WAL, host map, nameless
/// checkpoints) over the append device.
class DbAllocTest : public ::testing::TestWithParam<db::Wiring> {};

TEST_P(DbAllocTest, TransactionsAverageUnderQuarterAllocation) {
  const bool vision = GetParam() == db::Wiring::kVision;
  sim::Simulator sim;
  Config c = Config::Small();
  c.geometry.blocks_per_plane = 16;
  if (vision) c.ftl = FtlKind::kVisionAppend;
  Device dev(&sim, c);
  db::StorageConfig cfg;
  cfg.wiring = GetParam();
  cfg.buffer_frames = 256;
  db::StorageManager db(&sim, &dev, cfg);
  if (vision) {
    ASSERT_NE(db.host_map(), nullptr);
  }

  std::uint64_t failed = 0;
  auto sync = [&](auto&& start) {
    bool fired = false;
    bool ok = false;
    start([&](Status st) {
      ok = st.ok();
      fired = true;
    });
    if (!sim.RunUntilPredicate([&] { return fired; }) || !ok) ++failed;
  };
  using Cb = db::StorageManager::StatusCb;
  constexpr std::uint64_t kKeys = 28'000;
  sync([&](Cb cb) { db.Bootstrap(std::move(cb)); });
  Rng rng(17);
  for (std::uint64_t base = 0; base < kKeys; base += 100) {
    std::vector<db::WalOp> ops;
    for (std::uint64_t j = 0; j < 100; ++j) {
      ops.push_back({db::WalOp::Kind::kPut, base + j, rng.Next() | 1});
    }
    sync([&](Cb cb) { db.CommitBatch(std::move(ops), std::move(cb)); });
  }
  sync([&](Cb cb) { db.Checkpoint(std::move(cb)); });
  auto churn = [&](std::uint64_t txns) {
    for (std::uint64_t i = 0; i < txns; ++i) {
      const std::uint64_t k = rng.Uniform(kKeys);
      if (rng.Bernoulli(0.15)) {
        sync([&](Cb cb) { db.Delete(k, std::move(cb)); });
      } else {
        const std::uint64_t v = rng.Next() | 1;
        sync([&](Cb cb) { db.Put(k, v, std::move(cb)); });
      }
      if (i % 60 == 59) sync([&](Cb cb) { db.Checkpoint(std::move(cb)); });
    }
  };
  churn(3'000);  // warm-up
  ASSERT_EQ(failed, 0u);

  constexpr std::uint64_t kTxns = 3'000;
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  churn(kTxns);
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - a0;

  EXPECT_EQ(failed, 0u);
  EXPECT_LE(allocs, kTxns / 4) << static_cast<double>(allocs) / kTxns
                               << " heap allocations per transaction";
}

INSTANTIATE_TEST_SUITE_P(Wirings, DbAllocTest,
                         ::testing::Values(db::Wiring::kClassic,
                                           db::Wiring::kVision),
                         [](const ::testing::TestParamInfo<db::Wiring>& i) {
                           return std::string(db::WiringName(i.param));
                         });

TEST(TracerAllocTest, ConstructionMakesNoHeapAllocation) {
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  trace::Tracer tracer;
  // Disabled, recording is a no-op: no ring to write into is needed.
  tracer.Record(trace::Stage::kIo, trace::Origin::kHostRead, 1, 0, 0, 0, 9);
  tracer.set_enabled(false);
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - a0, 0u);
  EXPECT_EQ(tracer.capacity(), std::size_t{1} << 16);
}

TEST(TracerAllocTest, FirstEnableAllocatesTheRingOnce) {
  trace::Tracer tracer(64);
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  tracer.set_enabled(true);  // the ring and the breakdown's histograms
  EXPECT_GT(g_allocs.load(std::memory_order_relaxed) - a0, 0u);

  const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < 100; ++i) {  // wraps the 64-event ring
    tracer.Record(trace::Stage::kIo, trace::Origin::kHostRead, i + 1, 0, 0,
                  i, i + 1, i);
  }
  tracer.set_enabled(false);
  tracer.set_enabled(true);
  tracer.Record(trace::Stage::kIo, trace::Origin::kHostRead, 101, 0, 0, 100,
                101, 100);
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - a1, 0u)
      << "recording and re-enabling must reuse the ring";
  EXPECT_EQ(tracer.size(), 64u);
  EXPECT_EQ(tracer.total_recorded(), 101u);
}

TEST(TracerAllocTest, NeverEnabledTracerHoldsNoEvents) {
  trace::Tracer tracer(64);
  tracer.Record(trace::Stage::kIo, trace::Origin::kHostRead, 1, 0, 0, 0, 9);
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  std::uint64_t visited = 0;
  tracer.ForEach([&](const trace::TraceEvent&) { ++visited; });
  EXPECT_EQ(visited, 0u);
}

}  // namespace
}  // namespace postblock::ssd
