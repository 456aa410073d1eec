// ssd::Device (block-device front end) + WriteBuffer tests.

#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/simulator.h"
#include "ssd/device.h"

namespace postblock::ssd {
namespace {

using blocklayer::IoOp;
using blocklayer::IoRequest;
using blocklayer::IoResult;

class DeviceTest : public ::testing::Test {
 protected:
  void Build(const Config& config) {
    device_.reset();
    simulator_ = std::make_unique<sim::Simulator>();
    device_ = std::make_unique<Device>(simulator_.get(), config);
  }

  void SetUp() override { Build(Config::Small()); }

  IoResult Run(IoRequest req) {
    IoResult out;
    bool fired = false;
    req.on_complete = [&](const IoResult& r) {
      out = r;
      fired = true;
    };
    device_->Submit(std::move(req));
    EXPECT_TRUE(simulator_->RunUntilPredicate([&] { return fired; }))
        << "request never completed";
    return out;
  }

  IoResult Write(Lba lba, std::vector<std::uint64_t> tokens) {
    IoRequest r;
    r.op = IoOp::kWrite;
    r.lba = lba;
    r.nblocks = static_cast<std::uint32_t>(tokens.size());
    r.tokens = std::move(tokens);
    return Run(std::move(r));
  }

  IoResult Read(Lba lba, std::uint32_t nblocks) {
    IoRequest r;
    r.op = IoOp::kRead;
    r.lba = lba;
    r.nblocks = nblocks;
    return Run(std::move(r));
  }

  IoResult Trim(Lba lba, std::uint32_t nblocks) {
    IoRequest r;
    r.op = IoOp::kTrim;
    r.lba = lba;
    r.nblocks = nblocks;
    return Run(std::move(r));
  }

  IoResult Flush() {
    IoRequest r;
    r.op = IoOp::kFlush;
    r.nblocks = 1;
    return Run(std::move(r));
  }

  std::unique_ptr<sim::Simulator> simulator_;
  std::unique_ptr<Device> device_;
};

TEST_F(DeviceTest, MultiBlockWriteReadRoundTrip) {
  ASSERT_TRUE(Write(10, {1, 2, 3, 4}).status.ok());
  const IoResult r = Read(10, 4);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.tokens, (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST_F(DeviceTest, PartialOverlapReadsMixedState) {
  ASSERT_TRUE(Write(10, {7, 8}).status.ok());
  const IoResult r = Read(9, 4);  // 9 unwritten, 10-11 written, 12 not
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.tokens, (std::vector<std::uint64_t>{0, 7, 8, 0}));
}

TEST_F(DeviceTest, WriteTokenCountMismatchRejected) {
  IoRequest r;
  r.op = IoOp::kWrite;
  r.lba = 0;
  r.nblocks = 3;
  r.tokens = {1};
  EXPECT_TRUE(Run(std::move(r)).status.IsInvalidArgument());
}

TEST_F(DeviceTest, BeyondDeviceRejected) {
  IoRequest r;
  r.op = IoOp::kRead;
  r.lba = device_->num_blocks() - 1;
  r.nblocks = 2;
  EXPECT_TRUE(Run(std::move(r)).status.IsOutOfRange());
}

TEST_F(DeviceTest, ZeroBlockRequestCompletesOk) {
  IoRequest r;
  r.op = IoOp::kRead;
  r.nblocks = 0;
  EXPECT_TRUE(Run(std::move(r)).status.ok());
}

TEST_F(DeviceTest, TrimThenReadZero) {
  ASSERT_TRUE(Write(5, {42}).status.ok());
  ASSERT_TRUE(Trim(5, 1).status.ok());
  EXPECT_EQ(Read(5, 1).tokens[0], 0u);
}

TEST_F(DeviceTest, LatencyHistogramsPopulate) {
  Write(0, {1});
  Read(0, 1);
  EXPECT_EQ(device_->write_latency().count(), 1u);
  EXPECT_EQ(device_->read_latency().count(), 1u);
}

TEST_F(DeviceTest, EveryFtlKindWorksThroughTheDevice) {
  for (FtlKind kind : {FtlKind::kPageMap, FtlKind::kBlockMap,
                       FtlKind::kHybrid, FtlKind::kDftl}) {
    Config c = Config::Small();
    c.ftl = kind;
    Build(c);
    ASSERT_TRUE(Write(3, {11, 22}).status.ok()) << FtlKindName(kind);
    const IoResult r = Read(3, 2);
    ASSERT_TRUE(r.status.ok()) << FtlKindName(kind);
    EXPECT_EQ(r.tokens, (std::vector<std::uint64_t>{11, 22}))
        << FtlKindName(kind);
  }
}

TEST_F(DeviceTest, PageFtlAccessorOnlyForPageMap) {
  EXPECT_NE(device_->page_ftl(), nullptr);
  Config c = Config::Small();
  c.ftl = FtlKind::kBlockMap;
  Build(c);
  EXPECT_EQ(device_->page_ftl(), nullptr);
  EXPECT_TRUE(device_->PowerCycle().code() ==
              StatusCode::kUnimplemented);
}

// --- Write buffer behaviour ---------------------------------------------

Config BufferedConfig(std::uint32_t pages) {
  Config c = Config::Small();
  c.write_buffer.pages = pages;
  return c;
}

TEST_F(DeviceTest, BufferedWritesCompleteAtCacheSpeed) {
  Build(BufferedConfig(64));
  const SimTime start = simulator_->Now();
  ASSERT_TRUE(Write(0, {1}).status.ok());
  const SimTime buffered_latency = simulator_->Now() - start;
  // Far below a flash program (400us): controller overhead + insert.
  EXPECT_LT(buffered_latency, 20 * kMicrosecond);

  Build(Config::Small());  // no buffer
  const SimTime start2 = simulator_->Now();
  ASSERT_TRUE(Write(0, {1}).status.ok());
  EXPECT_GT(simulator_->Now() - start2, 400 * kMicrosecond);
}

TEST_F(DeviceTest, BufferedReadHitReturnsNewData) {
  Build(BufferedConfig(64));
  IoRequest w;
  w.op = IoOp::kWrite;
  w.lba = 3;
  w.nblocks = 1;
  w.tokens = {77};
  bool wrote = false;
  w.on_complete = [&](const IoResult&) { wrote = true; };
  device_->Submit(std::move(w));
  ASSERT_TRUE(simulator_->RunUntilPredicate([&] { return wrote; }));
  // Read immediately: the data may still be only in the buffer.
  EXPECT_EQ(Read(3, 1).tokens[0], 77u);
}

TEST_F(DeviceTest, FlushDrainsBuffer) {
  Build(BufferedConfig(64));
  for (Lba lba = 0; lba < 8; ++lba) {
    ASSERT_TRUE(Write(lba, {lba + 1}).status.ok());
  }
  ASSERT_TRUE(Flush().status.ok());
  EXPECT_EQ(device_->write_buffer()->entries(), 0u);
  // Data is on flash now.
  for (Lba lba = 0; lba < 8; ++lba) {
    EXPECT_EQ(Read(lba, 1).tokens[0], lba + 1);
  }
}

TEST_F(DeviceTest, BufferAbsorbsOverwrites) {
  Build(BufferedConfig(64));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(Write(5, {static_cast<std::uint64_t>(i + 1)}).status.ok());
  }
  EXPECT_GT(device_->write_buffer()->counters().Get("absorbed_overwrites"),
            0u);
  ASSERT_TRUE(Flush().status.ok());
  EXPECT_EQ(Read(5, 1).tokens[0], 10u);
}

TEST_F(DeviceTest, SmallBufferBackpressuresButCompletes) {
  Build(BufferedConfig(4));
  for (Lba lba = 0; lba < 64; ++lba) {
    ASSERT_TRUE(Write(lba, {lba + 1}).status.ok());
  }
  EXPECT_GT(device_->write_buffer()->counters().Get("buffer_full_waits"),
            0u);
  ASSERT_TRUE(Flush().status.ok());
  for (Lba lba = 0; lba < 64; ++lba) {
    EXPECT_EQ(Read(lba, 1).tokens[0], lba + 1);
  }
}

TEST_F(DeviceTest, TrimDropsBufferedCopy) {
  Build(BufferedConfig(64));
  ASSERT_TRUE(Write(5, {9}).status.ok());
  ASSERT_TRUE(Trim(5, 1).status.ok());
  EXPECT_EQ(Read(5, 1).tokens[0], 0u);
  ASSERT_TRUE(Flush().status.ok());
  EXPECT_EQ(Read(5, 1).tokens[0], 0u);
}

// --- Power cycles ---------------------------------------------------------

TEST_F(DeviceTest, PowerCycleKeepsDurableData) {
  ASSERT_TRUE(Write(0, {1, 2, 3}).status.ok());
  ASSERT_TRUE(device_->PowerCycle().ok());
  const IoResult r = Read(0, 3);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.tokens, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST_F(DeviceTest, BatteryBackedBufferSurvivesPowerCycle) {
  Config c = BufferedConfig(64);
  c.write_buffer.battery_backed = true;
  Build(c);
  ASSERT_TRUE(Write(7, {55}).status.ok());  // likely still buffered
  ASSERT_TRUE(device_->PowerCycle().ok());
  EXPECT_EQ(Read(7, 1).tokens[0], 55u);
}

TEST_F(DeviceTest, VolatileBufferLosesUndrainedWrites) {
  Config c = BufferedConfig(64);
  c.write_buffer.battery_backed = false;
  // Make the drain slow enough that the write is still buffered.
  c.write_buffer.drain_depth_per_lun = 1;
  Build(c);
  IoRequest w;
  w.op = IoOp::kWrite;
  w.lba = 7;
  w.nblocks = 1;
  w.tokens = {55};
  bool wrote = false;
  w.on_complete = [&](const IoResult&) { wrote = true; };
  device_->Submit(std::move(w));
  ASSERT_TRUE(simulator_->RunUntilPredicate([&] { return wrote; }));
  // Cut power before the background drain reaches flash.
  ASSERT_TRUE(device_->PowerCycle().ok());
  EXPECT_EQ(Read(7, 1).tokens[0], 0u)
      << "acknowledged-but-volatile write must vanish (no battery)";
}

// --- Pooled per-IO records across power cuts -------------------------------

// Submits one single-page request whose completion bumps `*completed`.
void SubmitCounted(Device* dev, IoOp op, Lba lba, int* completed) {
  IoRequest r;
  r.op = op;
  r.lba = lba;
  r.nblocks = 1;
  if (op == IoOp::kWrite) r.tokens = {lba + 100};
  r.on_complete = [completed](const IoResult&) { ++*completed; };
  dev->Submit(std::move(r));
}

TEST_F(DeviceTest, PowerCycleReclaimsPooledIoRecords) {
  // Requests in admission and in flight at the cut die without
  // completing, but every pooled record must return to the free list.
  int completed = 0;
  for (Lba lba = 0; lba < 8; ++lba) {
    SubmitCounted(device_.get(), IoOp::kWrite, lba, &completed);
  }
  // Past admission, short of any flash program finishing.
  simulator_->RunUntil(simulator_->Now() + 20 * kMicrosecond);
  for (Lba lba = 8; lba < 12; ++lba) {
    SubmitCounted(device_.get(), IoOp::kRead, lba, &completed);
  }
  EXPECT_EQ(device_->io_records_allocated(), 12u);
  EXPECT_EQ(device_->io_records_free(), 0u);
  ASSERT_TRUE(device_->PowerCycle().ok());
  EXPECT_EQ(device_->io_records_free(), device_->io_records_allocated());
  simulator_->Run();
  EXPECT_EQ(completed, 0);  // dropped IOs never reach the caller
  EXPECT_EQ(device_->io_records_free(), device_->io_records_allocated());
  // The recycled records serve new IO.
  ASSERT_TRUE(Write(3, {9}).status.ok());
  EXPECT_EQ(Read(3, 1).tokens[0], 9u);
  EXPECT_EQ(device_->io_records_allocated(), 12u);
}

TEST_F(DeviceTest, StaleCompletionNeverCompletesRecycledRecord) {
  // A buffered write's insert completion is a plain timer that outlives
  // a power cut. Once the cut recycled its record for a new read, that
  // stale completion must not count as one of the read's pages.
  Config c = BufferedConfig(64);
  c.write_buffer.battery_backed = true;
  Build(c);
  ASSERT_TRUE(Write(5, {77}).status.ok());
  ASSERT_TRUE(Flush().status.ok());  // LBA 5 now lives on flash only
  ASSERT_EQ(device_->io_records_allocated(), 1u);

  int stale_completions = 0;
  SubmitCounted(device_.get(), IoOp::kWrite, 9, &stale_completions);
  // Admitted (insert timer pending), then the power dies.
  simulator_->RunUntil(simulator_->Now() +
                       c.controller_overhead_ns + kMicrosecond);
  ASSERT_TRUE(device_->PowerCycle().ok());

  // The only record serves this read; its admission finishes before
  // the stale insert timer fires, its flash read long after.
  IoResult got;
  int read_completions = 0;
  IoRequest r;
  r.op = IoOp::kRead;
  r.lba = 5;
  r.nblocks = 1;
  r.on_complete = [&](const IoResult& res) {
    got = res;
    ++read_completions;
  };
  device_->Submit(std::move(r));
  ASSERT_LT(c.controller_overhead_ns, c.write_buffer.insert_ns);
  simulator_->Run();
  EXPECT_EQ(device_->io_records_allocated(), 1u);
  EXPECT_EQ(stale_completions, 0);
  EXPECT_EQ(read_completions, 1);
  ASSERT_TRUE(got.status.ok());
  EXPECT_EQ(got.tokens, (std::vector<std::uint64_t>{77}));
}

TEST_F(DeviceTest, RepeatedPowerCyclesDoNotGrowTheRecordPool) {
  int completed = 0;
  std::size_t pool = 0;
  for (int cycle = 0; cycle < 100; ++cycle) {
    for (Lba lba = 0; lba < 8; ++lba) {
      SubmitCounted(device_.get(), IoOp::kWrite, lba, &completed);
    }
    simulator_->RunUntil(simulator_->Now() + 10 * kMicrosecond);
    for (Lba lba = 0; lba < 4; ++lba) {
      SubmitCounted(device_.get(), IoOp::kRead, lba, &completed);
    }
    ASSERT_TRUE(device_->PowerCycle().ok()) << "cycle " << cycle;
    ASSERT_EQ(device_->io_records_free(), device_->io_records_allocated())
        << "cycle " << cycle;
    if (cycle == 0) pool = device_->io_records_allocated();
    ASSERT_EQ(device_->io_records_allocated(), pool) << "cycle " << cycle;
  }
  simulator_->Run();
  EXPECT_EQ(completed, 0);
  EXPECT_EQ(device_->io_records_free(), device_->io_records_allocated());
}

// --- Whole-device integrity sweep across FTLs -----------------------------

class DeviceIntegrityTest : public ::testing::TestWithParam<FtlKind> {};

TEST_P(DeviceIntegrityTest, RandomOpsMatchShadowModel) {
  sim::Simulator sim;
  Config c = Config::Small();
  c.ftl = GetParam();
  c.write_buffer.pages = 16;
  Device device(&sim, c);

  std::map<Lba, std::uint64_t> shadow;
  Rng rng(2026);
  const Lba n = std::min<Lba>(device.num_blocks(), 400);

  auto run = [&](IoRequest req) {
    IoResult out;
    bool fired = false;
    req.on_complete = [&](const IoResult& r) {
      out = r;
      fired = true;
    };
    device.Submit(std::move(req));
    EXPECT_TRUE(sim.RunUntilPredicate([&] { return fired; }));
    return out;
  };

  for (int i = 0; i < 1500; ++i) {
    const double dice = rng.NextDouble();
    const Lba lba = rng.Uniform(n);
    if (dice < 0.5) {
      IoRequest w;
      w.op = IoOp::kWrite;
      w.lba = lba;
      w.nblocks = 1;
      w.tokens = {static_cast<std::uint64_t>(i) + 10};
      ASSERT_TRUE(run(std::move(w)).status.ok()) << i;
      shadow[lba] = static_cast<std::uint64_t>(i) + 10;
    } else if (dice < 0.6) {
      IoRequest t;
      t.op = IoOp::kTrim;
      t.lba = lba;
      t.nblocks = 1;
      ASSERT_TRUE(run(std::move(t)).status.ok()) << i;
      shadow[lba] = 0;
    } else {
      IoRequest r;
      r.op = IoOp::kRead;
      r.lba = lba;
      r.nblocks = 1;
      const IoResult res = run(std::move(r));
      ASSERT_TRUE(res.status.ok()) << i;
      const auto it = shadow.find(lba);
      const std::uint64_t want = it == shadow.end() ? 0 : it->second;
      ASSERT_EQ(res.tokens[0], want)
          << "op " << i << " lba " << lba << " on "
          << FtlKindName(GetParam());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFtls, DeviceIntegrityTest,
    ::testing::Values(FtlKind::kPageMap, FtlKind::kBlockMap,
                      FtlKind::kHybrid, FtlKind::kDftl),
    [](const ::testing::TestParamInfo<FtlKind>& info) {
      return FtlKindName(info.param) == std::string("page-map") ? "PageMap"
             : FtlKindName(info.param) == std::string("block-map")
                 ? "BlockMap"
             : FtlKindName(info.param) == std::string("hybrid") ? "Hybrid"
                                                                : "Dftl";
    });

}  // namespace
}  // namespace postblock::ssd
