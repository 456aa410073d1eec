// End-to-end StorageManager tests: both wirings, commits, checkpoints,
// crash recovery, and the vision-vs-classic commit-latency contrast.

#include <map>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "db/storage_manager.h"
#include "sim/simulator.h"
#include "ssd/device.h"

namespace postblock::db {
namespace {

ssd::Config DbSsd() {
  ssd::Config c = ssd::Config::Small();
  c.geometry.blocks_per_plane = 64;
  return c;
}

class StorageManagerTest : public ::testing::TestWithParam<Wiring> {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<sim::Simulator>();
    device_ = std::make_unique<ssd::Device>(sim_.get(), DbSsd());
    StorageConfig cfg;
    cfg.wiring = GetParam();
    cfg.buffer_frames = 256;
    manager_ =
        std::make_unique<StorageManager>(sim_.get(), device_.get(), cfg);
    Status st = Sync([&](StorageManager::StatusCb cb) {
      manager_->Bootstrap(std::move(cb));
    });
    ASSERT_TRUE(st.ok()) << st;
  }

  template <typename F>
  Status Sync(F&& f) {
    Status out = Status::Internal("pending");
    bool fired = false;
    f([&](Status st) {
      out = std::move(st);
      fired = true;
    });
    EXPECT_TRUE(sim_->RunUntilPredicate([&] { return fired; }))
        << "operation stalled";
    return out;
  }

  Status Put(std::uint64_t k, std::uint64_t v) {
    return Sync([&](StorageManager::StatusCb cb) {
      manager_->Put(k, v, std::move(cb));
    });
  }

  Status Del(std::uint64_t k) {
    return Sync([&](StorageManager::StatusCb cb) {
      manager_->Delete(k, std::move(cb));
    });
  }

  StatusOr<std::uint64_t> Get(std::uint64_t k) {
    StatusOr<std::uint64_t> out = Status::Internal("pending");
    bool fired = false;
    manager_->Get(k, [&](StatusOr<std::uint64_t> r) {
      out = std::move(r);
      fired = true;
    });
    EXPECT_TRUE(sim_->RunUntilPredicate([&] { return fired; }));
    return out;
  }

  Status Checkpoint() {
    return Sync([&](StorageManager::StatusCb cb) {
      manager_->Checkpoint(std::move(cb));
    });
  }

  Status CrashAndRecover() {
    PB_RETURN_IF_ERROR(manager_->SimulateCrash());
    return Sync([&](StorageManager::StatusCb cb) {
      manager_->Recover(std::move(cb));
    });
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<ssd::Device> device_;
  std::unique_ptr<StorageManager> manager_;
};

TEST_P(StorageManagerTest, PutGetDelete) {
  ASSERT_TRUE(Put(1, 10).ok());
  ASSERT_TRUE(Put(2, 20).ok());
  EXPECT_EQ(*Get(1), 10u);
  EXPECT_EQ(*Get(2), 20u);
  ASSERT_TRUE(Del(1).ok());
  EXPECT_TRUE(Get(1).status().IsNotFound());
}

TEST_P(StorageManagerTest, BatchCommitAppliesAllOps) {
  Status st = Sync([&](StorageManager::StatusCb cb) {
    manager_->CommitBatch({{WalOp::Kind::kPut, 1, 11},
                           {WalOp::Kind::kPut, 2, 22},
                           {WalOp::Kind::kDelete, 1, 0}},
                          std::move(cb));
  });
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(Get(1).status().IsNotFound());
  EXPECT_EQ(*Get(2), 22u);
}

TEST_P(StorageManagerTest, RecoverWithoutCheckpointReplaysWal) {
  for (std::uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(Put(k, k * 7).ok());
  }
  ASSERT_TRUE(CrashAndRecover().ok());
  for (std::uint64_t k = 0; k < 50; ++k) {
    ASSERT_EQ(*Get(k), k * 7) << k;
  }
}

TEST_P(StorageManagerTest, RecoverAfterCheckpointAndMoreCommits) {
  for (std::uint64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(Put(k, k + 1).ok());
  }
  ASSERT_TRUE(Checkpoint().ok());
  for (std::uint64_t k = 40; k < 80; ++k) {
    ASSERT_TRUE(Put(k, k + 1).ok());
  }
  ASSERT_TRUE(Del(0).ok());
  ASSERT_TRUE(CrashAndRecover().ok());
  EXPECT_TRUE(Get(0).status().IsNotFound());
  for (std::uint64_t k = 1; k < 80; ++k) {
    ASSERT_EQ(*Get(k), k + 1) << k;
  }
}

TEST_P(StorageManagerTest, UncommittedWorkNeverSurvives) {
  ASSERT_TRUE(Put(1, 10).ok());
  // Start a commit but crash before the WAL append can complete.
  bool fired = false;
  manager_->Put(2, 20, [&](Status) { fired = true; });
  // Classic commits take >400us; vision sub-us. Crash immediately at
  // t+0 (no events run), before any completion.
  ASSERT_TRUE(manager_->SimulateCrash().ok());
  (void)fired;
  Status st = Sync([&](StorageManager::StatusCb cb) {
    manager_->Recover(std::move(cb));
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(*Get(1), 10u);
  EXPECT_TRUE(Get(2).status().IsNotFound());
}

TEST_P(StorageManagerTest, RepeatedCrashRecoverCycles) {
  Rng rng(4);
  std::map<std::uint64_t, std::uint64_t> shadow;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 60; ++i) {
      const std::uint64_t k = rng.Uniform(300);
      if (rng.Bernoulli(0.2)) {
        ASSERT_TRUE(Del(k).ok());
        shadow.erase(k);
      } else {
        const std::uint64_t v = rng.Next() | 1;
        ASSERT_TRUE(Put(k, v).ok());
        shadow[k] = v;
      }
    }
    if (round == 1) {
      ASSERT_TRUE(Checkpoint().ok());
    }
    ASSERT_TRUE(CrashAndRecover().ok());
    for (const auto& [k, v] : shadow) {
      ASSERT_EQ(*Get(k), v) << "round " << round << " key " << k;
    }
  }
}

TEST_P(StorageManagerTest, ScanSeesCommittedData) {
  for (std::uint64_t k = 10; k < 20; ++k) {
    ASSERT_TRUE(Put(k, k * 2).ok());
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rows;
  bool fired = false;
  manager_->Scan(12, 15, [&](auto r) {
    ASSERT_TRUE(r.ok());
    rows = std::move(*r);
    fired = true;
  });
  ASSERT_TRUE(sim_->RunUntilPredicate([&] { return fired; }));
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].first, 12u);
  EXPECT_EQ(rows[3].second, 30u);
}

INSTANTIATE_TEST_SUITE_P(
    Wirings, StorageManagerTest,
    ::testing::Values(Wiring::kClassic, Wiring::kVision),
    [](const ::testing::TestParamInfo<Wiring>& info) {
      return info.param == Wiring::kClassic ? "Classic" : "Vision";
    });

// --- Page-image store bound ------------------------------------------------

// The page-image store holds only what the device can still return:
// each page's last checkpointed image plus any written since. Over a
// long run it stays at about one image per page instead of growing by
// every checkpoint's pages.
struct ImageBoundCase {
  const char* name;
  Wiring wiring;
  ssd::FtlKind ftl;
};

class PageImageBoundTest : public ::testing::TestWithParam<ImageBoundCase> {
};

TEST_P(PageImageBoundTest, StoreHoldsAtMostTwoImagesPerPage) {
  sim::Simulator sim;
  ssd::Config c = DbSsd();
  c.ftl = GetParam().ftl;
  ssd::Device device(&sim, c);
  StorageConfig cfg;
  cfg.wiring = GetParam().wiring;
  cfg.buffer_frames = 256;
  StorageManager manager(&sim, &device, cfg);
  auto sync = [&](auto&& start) {
    Status out = Status::Internal("pending");
    bool fired = false;
    start([&](Status st) {
      out = std::move(st);
      fired = true;
    });
    EXPECT_TRUE(sim.RunUntilPredicate([&] { return fired; }));
    return out;
  };
  using Cb = StorageManager::StatusCb;
  ASSERT_TRUE(sync([&](Cb cb) { manager.Bootstrap(std::move(cb)); }).ok());
  constexpr std::uint64_t kKeys = 5'000;
  std::map<std::uint64_t, std::uint64_t> shadow;
  Rng rng(23);
  for (int i = 0; i < 3'000; ++i) {
    const std::uint64_t k = rng.Uniform(kKeys);
    if (rng.Bernoulli(0.15)) {
      ASSERT_TRUE(sync([&](Cb cb) { manager.Delete(k, std::move(cb)); }).ok());
      shadow.erase(k);
    } else {
      const std::uint64_t v = rng.Next() | 1;
      ASSERT_TRUE(sync([&](Cb cb) { manager.Put(k, v, std::move(cb)); }).ok());
      shadow[k] = v;
    }
    if (i % 60 == 59) {
      ASSERT_TRUE(sync([&](Cb cb) { manager.Checkpoint(std::move(cb)); }).ok());
    }
  }
  const PageImageStore& images = manager.page_images();
  EXPECT_GT(images.pages(), 10u);
  EXPECT_LE(images.size(), 2 * images.pages())
      << images.size() << " images for " << images.pages() << " pages";

  // Every page still reads back: nothing the device returns was freed.
  ASSERT_TRUE(manager.SimulateCrash().ok());
  ASSERT_TRUE(sync([&](Cb cb) { manager.Recover(std::move(cb)); }).ok());
  for (const auto& [k, v] : shadow) {
    bool fired = false;
    StatusOr<std::uint64_t> got = Status::Internal("pending");
    manager.Get(k, [&](StatusOr<std::uint64_t> r) {
      got = std::move(r);
      fired = true;
    });
    ASSERT_TRUE(sim.RunUntilPredicate([&] { return fired; }));
    ASSERT_TRUE(got.ok()) << k;
    ASSERT_EQ(*got, v) << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Wirings, PageImageBoundTest,
    ::testing::Values(
        ImageBoundCase{"ClassicPageMap", Wiring::kClassic,
                       ssd::FtlKind::kPageMap},
        ImageBoundCase{"VisionAtomic", Wiring::kVision,
                       ssd::FtlKind::kPageMap},
        ImageBoundCase{"VisionNameless", Wiring::kVision,
                       ssd::FtlKind::kVisionAppend}),
    [](const ::testing::TestParamInfo<ImageBoundCase>& i) {
      return std::string(i.param.name);
    });

// --- Cross-wiring comparisons (the paper's E7 in miniature) -------------------

TEST(StorageWiringContrastTest, VisionCommitsOrdersOfMagnitudeFaster) {
  auto mean_commit_ns = [](Wiring wiring) {
    sim::Simulator sim;
    ssd::Device device(&sim, DbSsd());
    StorageConfig cfg;
    cfg.wiring = wiring;
    StorageManager manager(&sim, &device, cfg);
    bool ready = false;
    manager.Bootstrap([&](Status st) {
      ASSERT_TRUE(st.ok());
      ready = true;
    });
    EXPECT_TRUE(sim.RunUntilPredicate([&] { return ready; }));
    for (std::uint64_t k = 0; k < 64; ++k) {
      bool fired = false;
      manager.Put(k, k, [&](Status st) {
        ASSERT_TRUE(st.ok());
        fired = true;
      });
      EXPECT_TRUE(sim.RunUntilPredicate([&] { return fired; }));
    }
    return manager.commit_latency().Mean();
  };
  const double vision = mean_commit_ns(Wiring::kVision);
  const double classic = mean_commit_ns(Wiring::kClassic);
  EXPECT_LT(vision * 20, classic)
      << "vision=" << vision << "ns classic=" << classic << "ns";
}

TEST(StorageWiringContrastTest, VisionCheckpointIsAtomic) {
  sim::Simulator sim;
  ssd::Device device(&sim, DbSsd());
  StorageConfig cfg;
  cfg.wiring = Wiring::kVision;
  StorageManager manager(&sim, &device, cfg);
  bool ready = false;
  manager.Bootstrap([&](Status st) {
    ASSERT_TRUE(st.ok());
    ready = true;
  });
  ASSERT_TRUE(sim.RunUntilPredicate([&] { return ready; }));
  auto put = [&](std::uint64_t k, std::uint64_t v) {
    bool fired = false;
    manager.Put(k, v, [&](Status st) {
      ASSERT_TRUE(st.ok());
      fired = true;
    });
    ASSERT_TRUE(sim.RunUntilPredicate([&] { return fired; }));
  };
  for (std::uint64_t k = 0; k < 100; ++k) put(k, k + 1);

  // Crash in the middle of the checkpoint's atomic write.
  bool ckpt_done = false;
  manager.Checkpoint([&](Status) { ckpt_done = true; });
  sim.RunUntil(sim.Now() + 300 * kMicrosecond);  // < one page program
  ASSERT_FALSE(ckpt_done);
  ASSERT_TRUE(manager.SimulateCrash().ok());
  bool recovered = false;
  manager.Recover([&](Status st) {
    ASSERT_TRUE(st.ok());
    recovered = true;
  });
  ASSERT_TRUE(sim.RunUntilPredicate([&] { return recovered; }));
  // All 100 commits must still be there: either the old checkpoint +
  // full WAL, or (had it completed) the new atomic checkpoint.
  for (std::uint64_t k = 0; k < 100; ++k) {
    bool fired = false;
    manager.Get(k, [&](StatusOr<std::uint64_t> r) {
      ASSERT_TRUE(r.ok()) << "key " << k << ": " << r.status();
      EXPECT_EQ(*r, k + 1);
      fired = true;
    });
    ASSERT_TRUE(sim.RunUntilPredicate([&] { return fired; }));
  }
}

}  // namespace
}  // namespace postblock::db
