// PcmDevice + PcmLog + Hdd device-model tests.

#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/pcm_log.h"
#include "hdd/hdd.h"
#include "pcm/pcm_device.h"
#include "sim/simulator.h"

namespace postblock {
namespace {

// --- PcmDevice -------------------------------------------------------------

TEST(PcmDeviceTest, WriteThenReadRoundTrips) {
  sim::Simulator sim;
  pcm::PcmDevice dev(&sim, pcm::PcmConfig{});
  std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  bool wrote = false;
  dev.Write(100, payload, [&](Status st) {
    ASSERT_TRUE(st.ok());
    wrote = true;
  });
  sim.Run();
  ASSERT_TRUE(wrote);
  std::vector<std::uint8_t> got;
  dev.Read(100, 5, [&](StatusOr<std::vector<std::uint8_t>> r) {
    ASSERT_TRUE(r.ok());
    got = *r;
  });
  sim.Run();
  EXPECT_EQ(got, payload);
}

TEST(PcmDeviceTest, LatencyScalesWithLines) {
  sim::Simulator sim;
  pcm::PcmConfig cfg;
  pcm::PcmDevice dev(&sim, cfg);
  EXPECT_EQ(dev.ReadLatency(64), 100u);
  EXPECT_EQ(dev.ReadLatency(65), 200u);
  EXPECT_EQ(dev.WriteLatency(1), 500u);
  EXPECT_EQ(dev.WriteLatency(256), 4 * 500u);
}

TEST(PcmDeviceTest, SmallSyncWritesAreSubMicrosecond) {
  // The Section 3 claim: persistence via the memory bus costs orders of
  // magnitude less than a block IO.
  sim::Simulator sim;
  pcm::PcmDevice dev(&sim, pcm::PcmConfig{});
  bool done = false;
  dev.Write(0, std::vector<std::uint8_t>(64, 7), [&](Status) {
    done = true;
  });
  sim.Run();
  ASSERT_TRUE(done);
  EXPECT_LE(sim.Now(), 1 * kMicrosecond);
}

TEST(PcmDeviceTest, OutOfRangeRejected) {
  sim::Simulator sim;
  pcm::PcmConfig cfg;
  cfg.capacity_bytes = 1024;
  pcm::PcmDevice dev(&sim, cfg);
  Status seen;
  dev.Write(1000, std::vector<std::uint8_t>(100, 0),
            [&](Status st) { seen = st; });
  sim.Run();
  EXPECT_TRUE(seen.IsOutOfRange());
  EXPECT_TRUE(dev.Peek(1000, 100).status().IsOutOfRange());
}

// addr + len wraps past 2^64 in each of these: the range check must
// reject them instead of letting the wrapped sum pass.
constexpr std::uint64_t kTopAddr =
    std::numeric_limits<std::uint64_t>::max() - 3;

TEST(PcmDeviceTest, WriteWrappingTheAddressSpaceIsOutOfRange) {
  sim::Simulator sim;
  pcm::PcmConfig cfg;
  cfg.capacity_bytes = 1024;
  pcm::PcmDevice dev(&sim, cfg);
  Status seen;
  dev.Write(kTopAddr, std::vector<std::uint8_t>(8, 1),
            [&](Status st) { seen = st; });
  sim.Run();
  EXPECT_TRUE(seen.IsOutOfRange());
  EXPECT_EQ(dev.committed_bytes(), 0u);
}

TEST(PcmDeviceTest, ReadWrappingTheAddressSpaceIsOutOfRange) {
  sim::Simulator sim;
  pcm::PcmConfig cfg;
  cfg.capacity_bytes = 1024;
  pcm::PcmDevice dev(&sim, cfg);
  int out_of_range = 0;
  auto expect_out_of_range = [&](StatusOr<std::vector<std::uint8_t>> r) {
    out_of_range += r.status().IsOutOfRange();
  };
  dev.Read(kTopAddr, 8, expect_out_of_range);
  dev.Read(16, std::numeric_limits<std::uint64_t>::max(),
           expect_out_of_range);
  sim.Run();
  EXPECT_EQ(out_of_range, 2);
}

TEST(PcmDeviceTest, PeekWrappingTheAddressSpaceIsOutOfRange) {
  sim::Simulator sim;
  pcm::PcmConfig cfg;
  cfg.capacity_bytes = 1024;
  pcm::PcmDevice dev(&sim, cfg);
  EXPECT_TRUE(dev.Peek(kTopAddr, 8).status().IsOutOfRange());
  EXPECT_TRUE(dev.Peek(16, std::numeric_limits<std::uint64_t>::max())
                  .status()
                  .IsOutOfRange());
  // The last byte is still in range.
  EXPECT_TRUE(dev.Peek(1023, 1).ok());
}

TEST(PcmDeviceTest, WearTracksLineWrites) {
  sim::Simulator sim;
  pcm::PcmDevice dev(&sim, pcm::PcmConfig{});
  for (int i = 0; i < 5; ++i) {
    dev.Write(0, std::vector<std::uint8_t>(64, 1), [](Status) {});
  }
  sim.Run();
  EXPECT_EQ(dev.MaxLineWear(), 5u);
}

TEST(PcmDeviceTest, BanksAllowConcurrentAccess) {
  sim::Simulator sim;
  pcm::PcmConfig cfg;
  pcm::PcmDevice dev(&sim, cfg);
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    dev.Write(static_cast<std::uint64_t>(i) * 64,
              std::vector<std::uint8_t>(64, 1), [&](Status) { ++done; });
  }
  sim.Run();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(sim.Now(), 500u);  // all four in parallel
}

// --- PcmDevice chunks ------------------------------------------------------

constexpr std::uint64_t kChunk = pcm::PcmDevice::kChunkBytes;

std::vector<std::uint8_t> ReadSync(sim::Simulator* sim, pcm::PcmDevice* dev,
                                   std::uint64_t addr, std::uint64_t len) {
  std::vector<std::uint8_t> got;
  dev->Read(addr, len, [&](StatusOr<std::vector<std::uint8_t>> r) {
    ASSERT_TRUE(r.ok());
    got = *r;
  });
  sim->Run();
  return got;
}

void WriteSync(sim::Simulator* sim, pcm::PcmDevice* dev, std::uint64_t addr,
               const std::vector<std::uint8_t>& data) {
  bool done = false;
  dev->Write(addr, data, [&](Status st) {
    ASSERT_TRUE(st.ok());
    done = true;
  });
  sim->Run();
  ASSERT_TRUE(done);
}

TEST(PcmChunkTest, StoreAndLoadStraddleAChunkBoundary) {
  sim::Simulator sim;
  pcm::PcmDevice dev(&sim, pcm::PcmConfig{});
  std::vector<std::uint8_t> payload(100);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i + 1);
  }
  WriteSync(&sim, &dev, kChunk - 50, payload);
  EXPECT_EQ(dev.committed_bytes(), 2 * kChunk);
  EXPECT_EQ(ReadSync(&sim, &dev, kChunk - 50, 100), payload);
  EXPECT_EQ(*dev.Peek(kChunk - 50, 100), payload);
  // A load of one side only sees that side's bytes.
  EXPECT_EQ(*dev.Peek(kChunk, 50),
            std::vector<std::uint8_t>(payload.begin() + 50, payload.end()));
}

TEST(PcmChunkTest, NeverStoredRangeReadsZeros) {
  sim::Simulator sim;
  pcm::PcmDevice dev(&sim, pcm::PcmConfig{});
  const std::vector<std::uint8_t> zeros(300, 0);
  EXPECT_EQ(ReadSync(&sim, &dev, 5 * kChunk + 7, 300), zeros);
  EXPECT_EQ(*dev.Peek(5 * kChunk + 7, 300), zeros);

  // A range that starts in a stored chunk and ends in a never-stored one.
  WriteSync(&sim, &dev, kChunk - 10, std::vector<std::uint8_t>(10, 0xff));
  std::vector<std::uint8_t> expect(20, 0);
  std::fill(expect.begin(), expect.begin() + 10, 0xff);
  EXPECT_EQ(ReadSync(&sim, &dev, kChunk - 10, 20), expect);
  EXPECT_EQ(*dev.Peek(kChunk - 10, 20), expect);
  // Loads commit nothing.
  EXPECT_EQ(dev.committed_bytes(), kChunk);
}

TEST(PcmChunkTest, MaxLineWearCountsALineInALaterChunk) {
  sim::Simulator sim;
  pcm::PcmDevice dev(&sim, pcm::PcmConfig{});
  WriteSync(&sim, &dev, 0, std::vector<std::uint8_t>(64, 1));
  for (int i = 0; i < 3; ++i) {
    WriteSync(&sim, &dev, 10 * kChunk + 64, std::vector<std::uint8_t>(64, 2));
  }
  EXPECT_EQ(dev.MaxLineWear(), 3u);
}

TEST(PcmChunkTest, TornStoreLeavesOldBytesInBothChunks) {
  sim::Simulator sim;
  pcm::PcmDevice dev(&sim, pcm::PcmConfig{});
  const std::vector<std::uint8_t> old_bytes(64, 0x11);
  WriteSync(&sim, &dev, kChunk - 32, old_bytes);

  bool fired = false;
  dev.Write(kChunk - 32, std::vector<std::uint8_t>(64, 0x22),
            [&](Status) { fired = true; });
  // A torn store into a never-stored chunk commits nothing either.
  dev.Write(7 * kChunk - 32, std::vector<std::uint8_t>(64, 0x22),
            [&](Status) { fired = true; });
  dev.PowerCycle();
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(*dev.Peek(kChunk - 32, 64), old_bytes);
  EXPECT_EQ(*dev.Peek(7 * kChunk - 32, 64),
            std::vector<std::uint8_t>(64, 0));
  EXPECT_EQ(dev.committed_bytes(), 2 * kChunk);
  EXPECT_EQ(dev.MaxLineWear(), 1u);
}

TEST(PcmChunkTest, DefaultDeviceCommitsOnlyTheChunksStoredTo) {
  sim::Simulator sim;
  pcm::PcmDevice dev(&sim, pcm::PcmConfig{});
  ASSERT_EQ(dev.config().capacity_bytes, 64 * kMiB);
  EXPECT_EQ(dev.committed_bytes(), 0u);
  EXPECT_EQ(dev.MaxLineWear(), 0u);

  WriteSync(&sim, &dev, 0, std::vector<std::uint8_t>(8, 1));
  EXPECT_EQ(dev.committed_bytes(), kChunk);
  WriteSync(&sim, &dev, 40 * kChunk + 5, std::vector<std::uint8_t>(8, 1));
  EXPECT_EQ(dev.committed_bytes(), 2 * kChunk);
  // Storing again into a committed chunk commits nothing new.
  WriteSync(&sim, &dev, 100, std::vector<std::uint8_t>(8, 1));
  EXPECT_EQ(dev.committed_bytes(), 2 * kChunk);
  // The device's last byte is the end of its last chunk.
  WriteSync(&sim, &dev, 64 * kMiB - 1, {9});
  EXPECT_EQ(dev.committed_bytes(), 3 * kChunk);
}

TEST(PcmChunkTest, ShortLastChunkIsCommittedAtItsOwnSize) {
  sim::Simulator sim;
  pcm::PcmConfig cfg;
  cfg.capacity_bytes = kChunk + 100;
  pcm::PcmDevice dev(&sim, cfg);
  WriteSync(&sim, &dev, kChunk + 90, std::vector<std::uint8_t>(10, 3));
  EXPECT_EQ(dev.committed_bytes(), 100u);
  EXPECT_EQ(*dev.Peek(kChunk + 90, 10), std::vector<std::uint8_t>(10, 3));
  EXPECT_EQ(dev.MaxLineWear(), 1u);
}

// --- PcmLog -----------------------------------------------------------------

TEST(PcmLogTest, AppendRecoverRoundTrip) {
  sim::Simulator sim;
  pcm::PcmDevice dev(&sim, pcm::PcmConfig{});
  core::PcmLog log(&sim, &dev, 0, 64 * kKiB);
  for (std::uint8_t i = 1; i <= 5; ++i) {
    log.Append(std::vector<std::uint8_t>(i, i), [](StatusOr<core::Lsn> r) {
      ASSERT_TRUE(r.ok());
    });
  }
  sim.Run();
  const auto records = log.RecoverAll();
  ASSERT_EQ(records.size(), 5u);
  for (std::uint8_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(records[i - 1].size(), i);
    EXPECT_EQ(records[i - 1][0], i);
  }
}

TEST(PcmLogTest, LsnsAreMonotonic) {
  sim::Simulator sim;
  pcm::PcmDevice dev(&sim, pcm::PcmConfig{});
  core::PcmLog log(&sim, &dev, 0, 64 * kKiB);
  std::vector<core::Lsn> lsns;
  for (int i = 0; i < 4; ++i) {
    log.Append(std::vector<std::uint8_t>(16, 1),
               [&](StatusOr<core::Lsn> r) {
                 ASSERT_TRUE(r.ok());
                 lsns.push_back(*r);
               });
  }
  sim.Run();
  ASSERT_EQ(lsns.size(), 4u);
  for (std::size_t i = 1; i < lsns.size(); ++i) {
    EXPECT_GT(lsns[i], lsns[i - 1]);
  }
}

TEST(PcmLogTest, TruncateEmptiesLog) {
  sim::Simulator sim;
  pcm::PcmDevice dev(&sim, pcm::PcmConfig{});
  core::PcmLog log(&sim, &dev, 0, 64 * kKiB);
  log.Append({1, 2, 3}, [](StatusOr<core::Lsn>) {});
  sim.Run();
  log.Truncate([](Status st) { ASSERT_TRUE(st.ok()); });
  sim.Run();
  EXPECT_EQ(log.head(), 0u);
  EXPECT_TRUE(log.RecoverAll().empty());
}

TEST(PcmLogTest, FullRegionRejectsAppends) {
  sim::Simulator sim;
  pcm::PcmDevice dev(&sim, pcm::PcmConfig{});
  core::PcmLog log(&sim, &dev, 0, 64);  // tiny region
  int rejected = 0;
  for (int i = 0; i < 4; ++i) {
    log.Append(std::vector<std::uint8_t>(16, 1),
               [&](StatusOr<core::Lsn> r) {
                 rejected += r.status().IsResourceExhausted();
               });
  }
  sim.Run();
  EXPECT_EQ(rejected, 2);
  EXPECT_EQ(log.counters().Get("append_full"), 2u);
}

TEST(PcmLogTest, AppendLatencyIsTensOfNanoseconds) {
  sim::Simulator sim;
  pcm::PcmDevice dev(&sim, pcm::PcmConfig{});
  core::PcmLog log(&sim, &dev, 0, 64 * kKiB);
  SimTime done_at = 0;  // the append starts at t = 0
  log.Append(std::vector<std::uint8_t>(48, 1),
             [&](StatusOr<core::Lsn>) { done_at = sim.Now(); });
  sim.Run();
  EXPECT_GT(done_at, 0u);  // it completed, after a nonzero store
  EXPECT_LT(done_at, 2 * kMicrosecond);
}

TEST(PcmLogTest, RegionOffsetIsolatesLogs) {
  sim::Simulator sim;
  pcm::PcmDevice dev(&sim, pcm::PcmConfig{});
  core::PcmLog a(&sim, &dev, 0, 4 * kKiB);
  core::PcmLog b(&sim, &dev, 4 * kKiB, 4 * kKiB);
  a.Append({1}, [](StatusOr<core::Lsn>) {});
  b.Append({2}, [](StatusOr<core::Lsn>) {});
  sim.Run();
  ASSERT_EQ(a.RecoverAll().size(), 1u);
  ASSERT_EQ(b.RecoverAll().size(), 1u);
  EXPECT_EQ(a.RecoverAll()[0][0], 1);
  EXPECT_EQ(b.RecoverAll()[0][0], 2);
}

TEST(PcmLogTest, RecordsSpanningChunksRecoverAfterPowerCut) {
  sim::Simulator sim;
  pcm::PcmDevice dev(&sim, pcm::PcmConfig{});
  // The region starts mid-chunk, so records straddle each boundary.
  core::PcmLog log(&sim, &dev, kChunk / 2, 4 * kChunk);
  std::vector<std::vector<std::uint8_t>> acked;
  for (std::uint32_t i = 0; log.head() < 3 * kChunk; ++i) {
    std::vector<std::uint8_t> rec(1000 + i % 7);
    for (std::size_t b = 0; b < rec.size(); ++b) {
      rec[b] = static_cast<std::uint8_t>(i * 31 + b);
    }
    bool ok = false;
    log.Append(rec, [&](StatusOr<core::Lsn> r) { ok = r.ok(); });
    sim.Run();
    ASSERT_TRUE(ok) << "record " << i;
    acked.push_back(std::move(rec));
  }
  EXPECT_EQ(dev.committed_bytes(), 4 * kChunk);

  // The next append is in flight when the power goes.
  const std::uint64_t durable_head = log.head();
  bool fired = false;
  log.Append(std::vector<std::uint8_t>(500, 0xee),
             [&](StatusOr<core::Lsn>) { fired = true; });
  dev.PowerCycle();
  sim.Run();
  EXPECT_FALSE(fired);

  EXPECT_EQ(log.RecoverAll(), acked);
  log.ResetAfterCrash();
  EXPECT_EQ(log.head(), durable_head);
  // The log appends after the recovered chain.
  bool ok = false;
  log.Append({42}, [&](StatusOr<core::Lsn> r) { ok = r.ok(); });
  sim.Run();
  ASSERT_TRUE(ok);
  acked.push_back({42});
  EXPECT_EQ(log.RecoverAll(), acked);
}

// --- Hdd ---------------------------------------------------------------------

blocklayer::IoResult RunHdd(sim::Simulator* sim, hdd::Hdd* dev,
                            blocklayer::IoRequest req) {
  blocklayer::IoResult out;
  bool fired = false;
  req.on_complete = [&](const blocklayer::IoResult& r) {
    out = r;
    fired = true;
  };
  dev->Submit(std::move(req));
  EXPECT_TRUE(sim->RunUntilPredicate([&] { return fired; }));
  return out;
}

TEST(HddTest, RoundTrip) {
  sim::Simulator sim;
  hdd::Hdd dev(&sim);
  blocklayer::IoRequest w;
  w.op = blocklayer::IoOp::kWrite;
  w.lba = 100;
  w.nblocks = 2;
  w.tokens = {4, 5};
  ASSERT_TRUE(RunHdd(&sim, &dev, std::move(w)).status.ok());
  blocklayer::IoRequest r;
  r.op = blocklayer::IoOp::kRead;
  r.lba = 100;
  r.nblocks = 2;
  EXPECT_EQ(RunHdd(&sim, &dev, std::move(r)).tokens, (Tokens{4, 5}));
}

TEST(HddTest, StreamingSkipsSeekAndRotation) {
  sim::Simulator sim;
  hdd::Hdd dev(&sim);
  // After an IO ending at lba X, an IO starting at X is pure transfer.
  EXPECT_LT(dev.ServiceTime(0, 1), 100 * kMicrosecond);
  // Far-away random access costs seek + rotation: milliseconds.
  EXPECT_GT(dev.ServiceTime(dev.num_blocks() / 2, 1), 4 * kMillisecond);
}

TEST(HddTest, RandomIsOrdersOfMagnitudeSlowerThanSequential) {
  sim::Simulator sim;
  hdd::Hdd dev(&sim);
  const SimTime far = dev.ServiceTime(dev.num_blocks() - 1, 1);
  const SimTime near = dev.ServiceTime(0, 1);
  EXPECT_GT(far, 50 * near);
}

TEST(HddTest, SingleActuatorSerializes) {
  sim::Simulator sim;
  hdd::Hdd dev(&sim);
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    blocklayer::IoRequest r;
    r.op = blocklayer::IoOp::kRead;
    r.lba = static_cast<Lba>(i * 1000000);
    r.nblocks = 1;
    r.on_complete = [&](const blocklayer::IoResult&) { ++done; };
    dev.Submit(std::move(r));
  }
  sim.Run();
  EXPECT_EQ(done, 4);
  EXPECT_GT(sim.Now(), 4 * 4 * kMillisecond);  // 4 seeks + rotations
}

TEST(HddTest, TrimIsNoOp) {
  sim::Simulator sim;
  hdd::Hdd dev(&sim);
  blocklayer::IoRequest t;
  t.op = blocklayer::IoOp::kTrim;
  t.lba = 0;
  t.nblocks = 1;
  EXPECT_TRUE(RunHdd(&sim, &dev, std::move(t)).status.ok());
}

}  // namespace
}  // namespace postblock
