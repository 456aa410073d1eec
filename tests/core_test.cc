// Vision-layer tests: HybridStore (sync->PCM vs classic), the native
// atomic group vs JournaledAtomicWriter, and the nameless vocabulary
// submitted to the append device.

#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "blocklayer/direct_driver.h"
#include "core/atomic_write.h"
#include "core/hybrid_store.h"
#include "core/pcm_log.h"
#include "pcm/pcm_device.h"
#include "sim/simulator.h"
#include "ssd/device.h"

namespace postblock::core {
namespace {

// --- HybridStore -------------------------------------------------------------

class HybridStoreTest : public ::testing::Test {
 protected:
  HybridStoreTest()
      : device_(&sim_, ssd::Config::Small()),
        pcm_(&sim_, pcm::PcmConfig{}),
        log_(&sim_, &pcm_, 0, 1 * kMiB) {}

  sim::Simulator sim_;
  ssd::Device device_;
  pcm::PcmDevice pcm_;
  PcmLog log_;
};

// Each of these tests persists at t = 0, so sim_.Now() in a persist's
// callback is that persist's latency.

TEST_F(HybridStoreTest, VisionSyncPersistGoesToPcm) {
  HybridStore store(&sim_, &log_);
  EXPECT_TRUE(store.vision_mode());
  bool done = false;
  SimTime done_at = 0;
  store.SyncPersist(std::vector<std::uint8_t>(100, 1), [&](Status st) {
    ASSERT_TRUE(st.ok());
    done = true;
    done_at = sim_.Now();
  });
  sim_.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(log_.counters().Get("appends"), 1u);
  EXPECT_LT(done_at, 5 * kMicrosecond);
}

TEST_F(HybridStoreTest, ClassicSyncPersistCostsAPageWriteAndFlush) {
  HybridStore store(&sim_, &device_, /*log_region_start=*/0,
                    /*log_region_blocks=*/64);
  EXPECT_FALSE(store.vision_mode());
  bool done = false;
  SimTime done_at = 0;
  store.SyncPersist(std::vector<std::uint8_t>(100, 1), [&](Status st) {
    ASSERT_TRUE(st.ok());
    done = true;
    done_at = sim_.Now();
  });
  sim_.Run();
  ASSERT_TRUE(done);
  // A full flash program (>=400us) plus overheads.
  EXPECT_GT(done_at, 400 * kMicrosecond);
  // 100 bytes padded to a 4 KiB block.
  EXPECT_EQ(store.counters().Get("sync_padded_bytes"), 4096u - 100u);
}

TEST_F(HybridStoreTest, VisionCommitLatencyOrdersOfMagnitudeLower) {
  HybridStore vision(&sim_, &log_);
  HybridStore classic(&sim_, &device_, 0, 64);
  // Summed latencies of the same number of persists: their ratio is the
  // ratio of the means.
  SimTime vision_total = 0;
  SimTime classic_total = 0;
  for (int i = 0; i < 16; ++i) {
    vision.SyncPersist(std::vector<std::uint8_t>(64, 1),
                       [&](Status) { vision_total += sim_.Now(); });
    classic.SyncPersist(std::vector<std::uint8_t>(64, 1),
                        [&](Status) { classic_total += sim_.Now(); });
  }
  sim_.Run();
  EXPECT_LT(vision_total * 50, classic_total);
}

// --- Atomic writes -------------------------------------------------------------

class AtomicTest : public ::testing::Test {
 protected:
  AtomicTest() : device_(&sim_, ssd::Config::Small()) {}

  // Submits one native atomic group; returns its latency once it
  // completed Ok.
  SimTime WriteAtomic(std::vector<std::pair<Lba, std::uint64_t>> pages) {
    const SimTime t0 = sim_.Now();
    SimTime latency = 0;
    bool done = false;
    device_.Submit(blocklayer::IoRequest::AtomicGroup(
        std::move(pages), [&](const blocklayer::IoResult& r) {
          EXPECT_TRUE(r.status.ok());
          latency = sim_.Now() - t0;
          done = true;
        }));
    sim_.Run();
    EXPECT_TRUE(done);
    return latency;
  }

  std::uint64_t ReadToken(Lba lba) {
    std::uint64_t token = ~0ull;
    bool fired = false;
    blocklayer::IoRequest r;
    r.op = blocklayer::IoOp::kRead;
    r.lba = lba;
    r.nblocks = 1;
    r.on_complete = [&](const blocklayer::IoResult& res) {
      EXPECT_TRUE(res.status.ok());
      token = res.tokens[0];
      fired = true;
    };
    device_.Submit(std::move(r));
    EXPECT_TRUE(sim_.RunUntilPredicate([&] { return fired; }));
    return token;
  }

  sim::Simulator sim_;
  ssd::Device device_;
};

TEST_F(AtomicTest, NativeAtomicWriteVisible) {
  WriteAtomic({{1, 11}, {2, 22}});
  EXPECT_EQ(ReadToken(1), 11u);
  EXPECT_EQ(ReadToken(2), 22u);
}

TEST_F(AtomicTest, JournaledWriterVisibleButCostsDouble) {
  JournaledAtomicWriter writer(&sim_, &device_, /*journal_start=*/100,
                               /*journal_blocks=*/64);
  bool done = false;
  writer.WriteAtomic({{1, 11}, {2, 22}, {3, 33}}, [&](Status st) {
    ASSERT_TRUE(st.ok());
    done = true;
  });
  sim_.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(ReadToken(1), 11u);
  EXPECT_EQ(ReadToken(2), 22u);
  EXPECT_EQ(ReadToken(3), 33u);
  // n data pages journaled + descriptor + commit, then n home writes.
  EXPECT_EQ(writer.counters().Get("journal_writes"), 5u);
  EXPECT_EQ(writer.counters().Get("home_writes"), 3u);
}

TEST_F(AtomicTest, NativeCheaperThanJournaled) {
  JournaledAtomicWriter journaled(&sim_, &device_, 100, 64);
  std::vector<std::pair<Lba, std::uint64_t>> batch;
  for (Lba lba = 0; lba < 8; ++lba) batch.emplace_back(lba, lba + 1);
  const SimTime native = WriteAtomic(batch);
  bool done = false;
  journaled.WriteAtomic(batch, [&](Status) { done = true; });
  sim_.Run();
  ASSERT_TRUE(done);
  EXPECT_LT(native, journaled.latency().max());
}

// --- Nameless vocabulary ----------------------------------------------------

// Names are physical, so only the vision-append device issues them.
ssd::Config AppendConfig() {
  ssd::Config c = ssd::Config::Small();
  c.ftl = ssd::FtlKind::kVisionAppend;
  return c;
}

class NamelessTest : public ::testing::Test {
 protected:
  NamelessTest() : device_(&sim_, AppendConfig()) {}

  // Submits `request` and runs until it completes.
  blocklayer::IoResult Run(blocklayer::IoRequest request) {
    blocklayer::IoResult out{Status::Internal("not run"), {}};
    bool fired = false;
    request.on_complete = [&](const blocklayer::IoResult& r) {
      out = r;
      fired = true;
    };
    device_.Submit(std::move(request));
    EXPECT_TRUE(sim_.RunUntilPredicate([&] { return fired; }));
    return out;
  }

  std::uint64_t WriteSync(std::uint64_t token) {
    const blocklayer::IoResult r =
        Run(blocklayer::IoRequest::NamelessWrite(token, {}));
    EXPECT_TRUE(r.status.ok()) << r.status;
    return r.status.ok() ? r.tokens[0] : 0;
  }

  StatusOr<std::uint64_t> ReadSync(std::uint64_t name) {
    const blocklayer::IoResult r =
        Run(blocklayer::IoRequest::NamelessRead(name, {}));
    if (!r.status.ok()) return r.status;
    return r.tokens[0];
  }

  sim::Simulator sim_;
  ssd::Device device_;
};

TEST_F(NamelessTest, WriteReturnsUsableName) {
  const auto name = WriteSync(77);
  EXPECT_EQ(*ReadSync(name), 77u);
  EXPECT_EQ(device_.append_ftl()->live_pages(), 1u);
}

TEST_F(NamelessTest, DistinctWritesGetDistinctNames) {
  std::set<std::uint64_t> names;
  for (int i = 0; i < 32; ++i) names.insert(WriteSync(i + 1));
  EXPECT_EQ(names.size(), 32u);
}

TEST_F(NamelessTest, FreeReleasesName) {
  const auto name = WriteSync(5);
  EXPECT_TRUE(Run(blocklayer::IoRequest::NamelessFree(name, {})).status.ok());
  EXPECT_EQ(device_.append_ftl()->live_pages(), 0u);
  EXPECT_TRUE(ReadSync(name).status().IsNotFound());
}

TEST_F(NamelessTest, UnknownNameRejected) {
  // The append device answers a name it never issued NotFound itself.
  EXPECT_TRUE(ReadSync(0xDEADBEEF).status().IsNotFound());
}

}  // namespace
}  // namespace postblock::core
