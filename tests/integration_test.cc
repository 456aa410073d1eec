// Whole-stack integration tests: workloads driven through the block
// layer into the simulated SSD, plus white-box invariant audits of the
// flash accounting after heavy churn.

#include <map>
#include <memory>

#include <gtest/gtest.h>

#include "blocklayer/block_layer.h"
#include "blocklayer/direct_driver.h"
#include "common/rng.h"
#include "ftl/page_ftl.h"
#include "sim/simulator.h"
#include "ssd/device.h"
#include "workload/patterns.h"

namespace postblock {
namespace {

// --- Full path: pattern -> block layer -> SSD -> flash ----------------------

class StackTest : public ::testing::TestWithParam<ssd::FtlKind> {};

TEST_P(StackTest, ClosedLoopThroughBlockLayerCompletesAndVerifies) {
  sim::Simulator sim;
  ssd::Config cfg = ssd::Config::Small();
  cfg.ftl = GetParam();
  cfg.write_buffer.pages = 32;
  ssd::Device device(&sim, cfg);
  blocklayer::BlockLayerConfig bl_cfg;
  blocklayer::BlockLayer layer(&sim, &device, bl_cfg);

  const std::uint64_t span = device.num_blocks() / 2;
  workload::SequentialPattern fill(0, span, /*is_write=*/true);
  const auto w = workload::RunClosedLoop(&sim, &layer, &fill, span, 8);
  EXPECT_EQ(w.errors, 0u);
  EXPECT_EQ(w.ops, span);

  workload::RandomPattern reads(0, span, false, 1, 9);
  const auto r = workload::RunClosedLoop(&sim, &layer, &reads, 2000, 8);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_GT(r.Iops(), 0.0);
  // The block layer adds CPU work on top of the device path.
  EXPECT_GT(layer.CpuUtilization(), 0.0);
  EXPECT_EQ(layer.counters().Get("submitted"),
            layer.counters().Get("completed"));
}

INSTANTIATE_TEST_SUITE_P(
    AllFtls, StackTest,
    ::testing::Values(ssd::FtlKind::kPageMap, ssd::FtlKind::kBlockMap,
                      ssd::FtlKind::kHybrid, ssd::FtlKind::kDftl),
    [](const ::testing::TestParamInfo<ssd::FtlKind>& info) {
      switch (info.param) {
        case ssd::FtlKind::kPageMap:
          return "PageMap";
        case ssd::FtlKind::kBlockMap:
          return "BlockMap";
        case ssd::FtlKind::kHybrid:
          return "Hybrid";
        default:
          return "Dftl";
      }
    });

// --- White-box accounting invariants after churn ----------------------------

class InvariantTest : public ::testing::Test {
 protected:
  InvariantTest() {
    cfg_ = ssd::Config::Small();
    controller_ = std::make_unique<ssd::Controller>(&sim_, cfg_);
    ftl_ = std::make_unique<ftl::PageFtl>(controller_.get());
  }

  void Churn(std::uint64_t ops, std::uint64_t seed) {
    Rng rng(seed);
    const Lba n = ftl_->user_pages();
    for (std::uint64_t i = 0; i < ops; ++i) {
      bool fired = false;
      if (rng.Bernoulli(0.1)) {
        ftl_->Trim(rng.Uniform(n), [&](Status) { fired = true; });
      } else {
        ftl_->Write(rng.Uniform(n), i + 1, [&](Status st) {
          ASSERT_TRUE(st.ok());
          fired = true;
        });
      }
      ASSERT_TRUE(sim_.RunUntilPredicate([&] { return fired; }));
    }
    sim_.Run();  // drain background GC
  }

  sim::Simulator sim_;
  ssd::Config cfg_;
  std::unique_ptr<ssd::Controller> controller_;
  std::unique_ptr<ftl::PageFtl> ftl_;
};

TEST_F(InvariantTest, ValidPageAccountingMatchesMapping) {
  Churn(3000, 11);
  // Every valid flash page must be the current target of exactly one
  // mapping (no atomic groups in this run => no marker pages).
  const auto& g = cfg_.geometry;
  std::uint64_t valid_pages = 0;
  for (std::uint64_t b = 0; b < g.total_blocks(); ++b) {
    const auto addr = flash::BlockAddr::FromFlat(g, b);
    const auto& info = controller_->flash()->GetBlockInfo(addr);
    EXPECT_LE(info.valid_pages, info.write_point);
    EXPECT_LE(info.write_point, g.pages_per_block);
    valid_pages += info.valid_pages;
  }
  std::uint64_t mapped = 0;
  for (Lba lba = 0; lba < ftl_->user_pages(); ++lba) {
    if (ftl_->Locate(lba).has_value()) ++mapped;
  }
  EXPECT_EQ(valid_pages, mapped);
}

TEST_F(InvariantTest, MappingsPointAtMatchingOob) {
  Churn(2000, 13);
  for (Lba lba = 0; lba < ftl_->user_pages(); ++lba) {
    const auto ppa = ftl_->Locate(lba);
    if (!ppa.has_value()) continue;
    ASSERT_EQ(controller_->flash()->GetPageState(*ppa),
              flash::PageState::kValid)
        << lba;
    auto peek = controller_->flash()->Peek(*ppa);
    ASSERT_TRUE(peek.ok());
    EXPECT_EQ(peek->lba, lba);
  }
}

TEST_F(InvariantTest, FreeBlockCountsStayWithinGeometry) {
  Churn(3000, 17);
  const auto& g = cfg_.geometry;
  std::size_t total_free = 0;
  for (std::uint32_t l = 0; l < g.luns(); ++l) {
    total_free += ftl_->FreeBlocks(l);
    EXPECT_LE(ftl_->FreeBlocks(l), g.blocks_per_lun());
  }
  EXPECT_LE(total_free, g.total_blocks());
  // GC must keep at least the reserve available per LUN at quiescence.
  for (std::uint32_t l = 0; l < g.luns(); ++l) {
    EXPECT_GE(ftl_->FreeBlocks(l), ftl::PageFtl::kReserveBlocks) << "lun " << l;
  }
}

TEST_F(InvariantTest, WriteAmplificationAtLeastOne) {
  Churn(2000, 19);
  EXPECT_GE(ftl_->WriteAmplification(), 1.0);
}

TEST_F(InvariantTest, GcReadsEqualPageMoves) {
  Churn(4000, 23);
  EXPECT_EQ(ftl_->counters().Get("gc_reads"),
            ftl_->counters().Get("gc_page_moves"));
}

// --- Direct driver end-to-end ------------------------------------------------

TEST(DirectPathTest, SameDataThroughBothPaths) {
  sim::Simulator sim;
  ssd::Device device(&sim, ssd::Config::Small());
  blocklayer::DirectDriver direct(&sim, &device);
  blocklayer::BlockLayerConfig cfg;
  blocklayer::BlockLayer layer(&sim, &device, cfg);

  // Write via the block layer, read via the direct driver.
  blocklayer::IoRequest w;
  w.op = blocklayer::IoOp::kWrite;
  w.lba = 10;
  w.nblocks = 2;
  w.tokens = {5, 6};
  bool wrote = false;
  w.on_complete = [&](const blocklayer::IoResult& r) {
    ASSERT_TRUE(r.status.ok());
    wrote = true;
  };
  layer.Submit(std::move(w));
  ASSERT_TRUE(sim.RunUntilPredicate([&] { return wrote; }));

  blocklayer::IoRequest r;
  r.op = blocklayer::IoOp::kRead;
  r.lba = 10;
  r.nblocks = 2;
  bool read = false;
  r.on_complete = [&](const blocklayer::IoResult& res) {
    ASSERT_TRUE(res.status.ok());
    EXPECT_EQ(res.tokens, (Tokens{5, 6}));
    read = true;
  };
  direct.Submit(std::move(r));
  ASSERT_TRUE(sim.RunUntilPredicate([&] { return read; }));
}

}  // namespace
}  // namespace postblock
