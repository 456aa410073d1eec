#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ftl/page_ftl.h"
#include "sim/completion.h"
#include "sim/simulator.h"
#include "ssd/config.h"
#include "ssd/controller.h"

namespace postblock::ftl {
namespace {

ssd::Config SmallConfig() {
  ssd::Config c = ssd::Config::Small();  // 2ch x 2lun x 32blk x 16pg
  return c;
}

class PageFtlTest : public ::testing::Test {
 protected:
  void Build(const ssd::Config& config) {
    // Device objects must outlive every pending simulator event, so a
    // rebuild gets a fresh simulator too.
    ftl_.reset();
    controller_.reset();
    simulator_ = std::make_unique<sim::Simulator>();
    controller_ = std::make_unique<ssd::Controller>(simulator_.get(), config);
    ftl_ = std::make_unique<PageFtl>(controller_.get());
  }

  void SetUp() override { Build(SmallConfig()); }

  sim::Simulator& sim() { return *simulator_; }

  // Synchronous helpers: issue, run to completion.
  Status WriteSync(Lba lba, std::uint64_t token) {
    sim::Completion done;
    ftl_->Write(lba, token, done.AsCallback(simulator_.get()));
    EXPECT_TRUE(sim::WaitFor(simulator_.get(), done))
        << "write never completed";
    return done.status();
  }

  StatusOr<std::uint64_t> ReadSync(Lba lba) {
    StatusOr<std::uint64_t> out = Status::Internal("not run");
    bool fired = false;
    ftl_->Read(lba, [&](StatusOr<std::uint64_t> r) {
      out = std::move(r);
      fired = true;
    });
    EXPECT_TRUE(simulator_->RunUntilPredicate([&] { return fired; }))
        << "read never completed";
    return out;
  }

  Status TrimSync(Lba lba) {
    sim::Completion done;
    ftl_->Trim(lba, done.AsCallback(simulator_.get()));
    EXPECT_TRUE(sim::WaitFor(simulator_.get(), done));
    return done.status();
  }

  std::unique_ptr<sim::Simulator> simulator_;
  std::unique_ptr<ssd::Controller> controller_;
  std::unique_ptr<PageFtl> ftl_;
};

TEST_F(PageFtlTest, WriteReadRoundTrip) {
  ASSERT_TRUE(WriteSync(5, 1234).ok());
  auto r = ReadSync(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 1234u);
}

TEST_F(PageFtlTest, OverwriteReturnsNewest) {
  ASSERT_TRUE(WriteSync(5, 1).ok());
  ASSERT_TRUE(WriteSync(5, 2).ok());
  ASSERT_TRUE(WriteSync(5, 3).ok());
  EXPECT_EQ(*ReadSync(5), 3u);
}

TEST_F(PageFtlTest, UnmappedReadsAsZero) {
  EXPECT_EQ(*ReadSync(17), 0u);
  EXPECT_EQ(ftl_->counters().Get("host_reads_unmapped"), 1u);
}

TEST_F(PageFtlTest, TrimUnmaps) {
  ASSERT_TRUE(WriteSync(5, 42).ok());
  ASSERT_TRUE(TrimSync(5).ok());
  EXPECT_EQ(*ReadSync(5), 0u);
}

TEST_F(PageFtlTest, OutOfRangeRejected) {
  const Lba beyond = ftl_->user_pages();
  EXPECT_TRUE(WriteSync(beyond, 1).IsOutOfRange());
  EXPECT_TRUE(ReadSync(beyond).status().IsOutOfRange());
  EXPECT_TRUE(TrimSync(beyond).IsOutOfRange());
}

TEST_F(PageFtlTest, UserCapacityReflectsOverProvisioning) {
  const auto& g = controller_->config().geometry;
  EXPECT_LT(ftl_->user_pages(), g.total_pages());
  EXPECT_EQ(ftl_->user_pages(),
            static_cast<std::uint64_t>(g.total_pages() * 0.875));
}

TEST_F(PageFtlTest, ConcurrentWritesToSameLbaLastSubmittedWins) {
  // Submit two writes back-to-back without draining; they may land on
  // different LUNs and complete out of order, but the second submission
  // must win.
  sim::Completion d1, d2;
  ftl_->Write(9, 111, d1.AsCallback(simulator_.get()));
  ftl_->Write(9, 222, d2.AsCallback(simulator_.get()));
  sim().Run();
  ASSERT_TRUE(d1.done() && d2.done());
  EXPECT_EQ(*ReadSync(9), 222u);
}

TEST_F(PageFtlTest, TrimRacingWriteRespectsSubmissionOrder) {
  ASSERT_TRUE(WriteSync(9, 1).ok());
  sim::Completion w, t;
  ftl_->Write(9, 2, w.AsCallback(simulator_.get()));
  ftl_->Trim(9, t.AsCallback(simulator_.get()));  // submitted after the write
  sim().Run();
  EXPECT_EQ(*ReadSync(9), 0u) << "trim submitted last must win";
}

TEST_F(PageFtlTest, FillDeviceAndVerify) {
  const Lba n = ftl_->user_pages();
  for (Lba lba = 0; lba < n; ++lba) {
    ASSERT_TRUE(WriteSync(lba, lba * 7 + 1).ok()) << lba;
  }
  for (Lba lba = 0; lba < n; ++lba) {
    ASSERT_EQ(*ReadSync(lba), lba * 7 + 1) << lba;
  }
}

TEST_F(PageFtlTest, SteadyStateOverwritesTriggerGcAndPreserveData) {
  const Lba n = ftl_->user_pages();
  std::map<Lba, std::uint64_t> shadow;
  Rng rng(99);
  // Fill once, then random-overwrite 3x the device size.
  for (Lba lba = 0; lba < n; ++lba) {
    ASSERT_TRUE(WriteSync(lba, lba + 1).ok());
    shadow[lba] = lba + 1;
  }
  for (std::uint64_t i = 0; i < 3 * n; ++i) {
    const Lba lba = rng.Uniform(n);
    const std::uint64_t token = 1000000 + i;
    ASSERT_TRUE(WriteSync(lba, token).ok()) << "i=" << i;
    shadow[lba] = token;
  }
  EXPECT_GT(ftl_->counters().Get("gc_runs"), 0u);
  EXPECT_GT(ftl_->counters().Get("gc_erases"), 0u);
  EXPECT_GT(ftl_->WriteAmplification(), 1.0);
  for (const auto& [lba, token] : shadow) {
    ASSERT_EQ(*ReadSync(lba), token) << "lba=" << lba;
  }
}

TEST_F(PageFtlTest, WriteAmplificationNearOneForSequentialFill) {
  const Lba n = ftl_->user_pages();
  for (Lba lba = 0; lba < n; ++lba) {
    ASSERT_TRUE(WriteSync(lba, 1).ok());
  }
  EXPECT_NEAR(ftl_->WriteAmplification(), 1.0, 0.05);
}

TEST_F(PageFtlTest, TrimReducesGcWork) {
  // Dead-but-untrimmed data is cold cargo GC keeps moving; trimming it
  // lets the FTL drop it (the paper's point about TRIM's necessity).
  auto churn = [&](bool trim_dead_half) -> std::uint64_t {
    Build(SmallConfig());
    const Lba n = ftl_->user_pages();
    const Lba half = n / 2;
    for (Lba lba = 0; lba < n; ++lba) {
      EXPECT_TRUE(WriteSync(lba, 1).ok());
    }
    if (trim_dead_half) {
      for (Lba lba = half; lba < n; ++lba) {
        EXPECT_TRUE(TrimSync(lba).ok());
      }
    }
    Rng rng(5);
    for (std::uint64_t i = 0; i < 3 * n; ++i) {
      EXPECT_TRUE(WriteSync(rng.Uniform(half), i + 2).ok());
    }
    return ftl_->counters().Get("gc_page_moves");
  };
  const std::uint64_t moves_without_trim = churn(false);
  const std::uint64_t moves_with_trim = churn(true);
  EXPECT_LT(moves_with_trim, moves_without_trim);
}

TEST_F(PageFtlTest, LocateTracksMapping) {
  EXPECT_FALSE(ftl_->Locate(4).has_value());
  ASSERT_TRUE(WriteSync(4, 9).ok());
  ASSERT_TRUE(ftl_->Locate(4).has_value());
  ASSERT_TRUE(TrimSync(4).ok());
  EXPECT_FALSE(ftl_->Locate(4).has_value());
}

TEST_F(PageFtlTest, StaticWearLevelingBoundsSpread) {
  ssd::Config c = SmallConfig();
  c.wear.static_enabled = true;
  c.wear.spread_threshold = 8;
  Build(c);
  const Lba n = ftl_->user_pages();
  // Cold data in the low half, hot churn in a few pages.
  for (Lba lba = 0; lba < n; ++lba) {
    ASSERT_TRUE(WriteSync(lba, 1).ok());
  }
  for (std::uint64_t i = 0; i < 20 * n; ++i) {
    ASSERT_TRUE(WriteSync(n - 1 - (i % 8), i).ok());
  }
  EXPECT_GT(ftl_->counters().Get("wl_runs"), 0u);
  const auto* flash = controller_->flash();
  EXPECT_LT(flash->MaxEraseCount() - flash->MinEraseCount(), 40u);
}

// --- Atomic writes ------------------------------------------------------

TEST_F(PageFtlTest, AtomicWriteAllVisibleAfterCommit) {
  std::vector<std::pair<Lba, std::uint64_t>> pages = {
      {1, 11}, {2, 22}, {3, 33}, {4, 44}};
  sim::Completion done;
  ftl_->WriteAtomic(pages, done.AsCallback(simulator_.get()));
  ASSERT_TRUE(sim::WaitFor(simulator_.get(), done));
  ASSERT_TRUE(done.status().ok());
  for (const auto& [lba, token] : pages) {
    EXPECT_EQ(*ReadSync(lba), token);
  }
  EXPECT_EQ(ftl_->counters().Get("atomic_groups"), 1u);
  EXPECT_EQ(ftl_->counters().Get("atomic_commit_pages"), 1u);
}

TEST_F(PageFtlTest, EmptyAtomicWriteSucceeds) {
  sim::Completion done;
  ftl_->WriteAtomic({}, done.AsCallback(simulator_.get()));
  ASSERT_TRUE(sim::WaitFor(simulator_.get(), done));
  EXPECT_TRUE(done.status().ok());
}

TEST_F(PageFtlTest, AtomicWriteSupersedesAndIsSuperseded) {
  ASSERT_TRUE(WriteSync(1, 100).ok());
  sim::Completion done;
  ftl_->WriteAtomic({{1, 200}, {2, 201}}, done.AsCallback(simulator_.get()));
  ASSERT_TRUE(sim::WaitFor(simulator_.get(), done));
  EXPECT_EQ(*ReadSync(1), 200u);
  ASSERT_TRUE(WriteSync(1, 300).ok());
  EXPECT_EQ(*ReadSync(1), 300u);
  EXPECT_EQ(*ReadSync(2), 201u);
}

// --- Power-cycle recovery ------------------------------------------------

TEST_F(PageFtlTest, RecoveryRestoresCommittedData) {
  const Lba n = 64;
  for (Lba lba = 0; lba < n; ++lba) {
    ASSERT_TRUE(WriteSync(lba, lba + 500).ok());
  }
  ASSERT_TRUE(ftl_->PowerCycle().ok());
  for (Lba lba = 0; lba < n; ++lba) {
    ASSERT_EQ(*ReadSync(lba), lba + 500) << lba;
  }
}

TEST_F(PageFtlTest, RecoveryKeepsNewestVersion) {
  ASSERT_TRUE(WriteSync(3, 1).ok());
  ASSERT_TRUE(WriteSync(3, 2).ok());
  ASSERT_TRUE(WriteSync(3, 3).ok());
  ASSERT_TRUE(ftl_->PowerCycle().ok());
  EXPECT_EQ(*ReadSync(3), 3u);
}

TEST_F(PageFtlTest, DeviceWritableAfterRecovery) {
  ASSERT_TRUE(WriteSync(3, 1).ok());
  ASSERT_TRUE(ftl_->PowerCycle().ok());
  ASSERT_TRUE(WriteSync(3, 2).ok());
  ASSERT_TRUE(WriteSync(4, 9).ok());
  EXPECT_EQ(*ReadSync(3), 2u);
  EXPECT_EQ(*ReadSync(4), 9u);
}

TEST_F(PageFtlTest, RecoveryAfterGcChurnPreservesEverything) {
  const Lba n = ftl_->user_pages();
  std::map<Lba, std::uint64_t> shadow;
  Rng rng(7);
  for (Lba lba = 0; lba < n; ++lba) {
    ASSERT_TRUE(WriteSync(lba, lba + 1).ok());
    shadow[lba] = lba + 1;
  }
  for (std::uint64_t i = 0; i < 2 * n; ++i) {
    const Lba lba = rng.Uniform(n);
    ASSERT_TRUE(WriteSync(lba, 70000 + i).ok());
    shadow[lba] = 70000 + i;
  }
  ASSERT_TRUE(ftl_->PowerCycle().ok());
  for (const auto& [lba, token] : shadow) {
    ASSERT_EQ(*ReadSync(lba), token) << "lba=" << lba;
  }
}

TEST_F(PageFtlTest, UncommittedAtomicGroupInvisibleAfterCrash) {
  ASSERT_TRUE(WriteSync(1, 100).ok());
  // Start an atomic overwrite, cut power before it can finish (each
  // page program takes >400us; cut at 100us).
  sim::Completion done;
  ftl_->WriteAtomic({{1, 200}, {2, 222}}, done.AsCallback(simulator_.get()));
  sim().RunUntil(sim().Now() + 100 * kMicrosecond);
  ASSERT_FALSE(done.done());
  ASSERT_TRUE(ftl_->PowerCycle().ok());
  EXPECT_EQ(*ReadSync(1), 100u) << "old value must survive";
  EXPECT_EQ(*ReadSync(2), 0u) << "partial group must be invisible";
}

TEST_F(PageFtlTest, CommittedAtomicGroupSurvivesCrash) {
  sim::Completion done;
  ftl_->WriteAtomic({{1, 200}, {2, 222}}, done.AsCallback(simulator_.get()));
  ASSERT_TRUE(sim::WaitFor(simulator_.get(), done));
  ASSERT_TRUE(ftl_->PowerCycle().ok());
  EXPECT_EQ(*ReadSync(1), 200u);
  EXPECT_EQ(*ReadSync(2), 222u);
}

TEST_F(PageFtlTest, CommitMarkerSurvivesGcOfItsBlock) {
  // Commit an atomic group, then churn until the marker's block is
  // collected. The group's pages must still be visible after a crash.
  sim::Completion done;
  ftl_->WriteAtomic({{1, 201}, {2, 202}}, done.AsCallback(simulator_.get()));
  ASSERT_TRUE(sim::WaitFor(simulator_.get(), done));
  const Lba n = ftl_->user_pages();
  Rng rng(17);
  for (std::uint64_t i = 0; i < 4 * n; ++i) {
    Lba lba = 3 + rng.Uniform(n - 3);  // avoid the group's LBAs
    ASSERT_TRUE(WriteSync(lba, i + 5).ok());
  }
  EXPECT_GT(ftl_->counters().Get("gc_runs"), 0u);
  ASSERT_TRUE(ftl_->PowerCycle().ok());
  EXPECT_EQ(*ReadSync(1), 201u);
  EXPECT_EQ(*ReadSync(2), 202u);
}

TEST_F(PageFtlTest, RandomizedCrashRecoveryProperty) {
  // Property: after any sequence of (awaited) writes/trims and crashes,
  // every LBA reads back either its last committed value, or — only if
  // it was trimmed and never rewritten — possibly a pre-trim value
  // (trims are not persisted; documented behaviour).
  Rng rng(1234);
  std::map<Lba, std::uint64_t> committed;
  std::map<Lba, bool> trimmed;
  const Lba n = ftl_->user_pages();
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 300; ++i) {
      const Lba lba = rng.Uniform(n);
      if (rng.Bernoulli(0.15)) {
        ASSERT_TRUE(TrimSync(lba).ok());
        committed[lba] = 0;
        trimmed[lba] = true;
      } else {
        const std::uint64_t token = rng.Next() | 1;  // nonzero
        ASSERT_TRUE(WriteSync(lba, token).ok());
        committed[lba] = token;
        trimmed[lba] = false;
      }
    }
    ASSERT_TRUE(ftl_->PowerCycle().ok());
    for (const auto& [lba, token] : committed) {
      const std::uint64_t got = *ReadSync(lba);
      if (trimmed[lba]) {
        // Trim not persisted: zero or a resurrected older value.
        continue;
      }
      ASSERT_EQ(got, token) << "lba=" << lba << " round=" << round;
    }
  }
}

}  // namespace
}  // namespace postblock::ftl
