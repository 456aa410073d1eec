// End-to-end flash error recovery under scripted faults: the retry
// ladder, remap/refresh, bad-block spares, mapping poisoning and the
// deterministic fault-injection harness itself (ISSUE: fig2-style
// torture — no lost update, no stale read, spares exhaustion fails
// safe).

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "flash/fault_injector.h"
#include "ftl/block_ftl.h"
#include "ftl/dftl.h"
#include "ftl/page_ftl.h"
#include "sim/completion.h"
#include "sim/simulator.h"
#include "ssd/config.h"
#include "ssd/controller.h"
#include "ssd/write_buffer.h"

namespace postblock {
namespace {

ssd::Config FaultConfig() {
  ssd::Config c = ssd::Config::Small();  // 2ch x 2lun x 32blk x 16pg
  // Pure scripted determinism: the stochastic model never fires, so
  // every fault in these tests is one this file injected.
  c.errors = flash::ErrorModelConfig::None();
  return c;
}

class FaultTest : public ::testing::Test {
 protected:
  void Build(const ssd::Config& config) {
    ftl_.reset();
    controller_.reset();
    simulator_ = std::make_unique<sim::Simulator>();
    injector_ =
        std::make_unique<flash::FaultInjector>(config.geometry);
    ssd::Config wired = config;
    wired.fault_injector = injector_.get();
    controller_ =
        std::make_unique<ssd::Controller>(simulator_.get(), wired);
    ftl_ = std::make_unique<ftl::PageFtl>(controller_.get());
  }

  void SetUp() override { Build(FaultConfig()); }

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

  flash::Ppa LocateOrDie(Lba lba) {
    auto ppa = ftl_->Locate(lba);
    EXPECT_TRUE(ppa.has_value());
    return *ppa;
  }

  std::unique_ptr<sim::Simulator> simulator_;
  std::unique_ptr<flash::FaultInjector> injector_;
  std::unique_ptr<ssd::Controller> controller_;
  std::unique_ptr<ftl::PageFtl> ftl_;
};

// --- The injector itself ---------------------------------------------

TEST_F(FaultTest, AttachedEmptyInjectorChangesNothing) {
  // A wired-but-silent injector must leave the run identical to one
  // with no injector at all (the bench determinism gate in miniature).
  auto run = [](flash::FaultInjector* injector) {
    ssd::Config c = FaultConfig();
    c.fault_injector = injector;
    sim::Simulator sim;
    ssd::Controller controller(&sim, c);
    ftl::PageFtl ftl(&controller);
    Rng rng(7);
    for (int i = 0; i < 400; ++i) {
      const Lba lba = rng.Next() % 64;
      sim::Completion done;
      ftl.Write(lba, i + 1, done.AsCallback(&sim));
      sim.Run();
    }
    return std::make_pair(sim.Now(),
                          controller.flash()->counters().All());
  };
  flash::FaultInjector idle(FaultConfig().geometry);
  const auto with = run(&idle);
  const auto without = run(nullptr);
  EXPECT_EQ(with.first, without.first);
  EXPECT_EQ(with.second, without.second);
}

TEST_F(FaultTest, ScriptedFaultsAreDeterministic) {
  // Two identical runs with the same scripts agree on everything:
  // end time, flash counters, and what every LBA reads back as.
  auto run = [] {
    ssd::Config c = FaultConfig();
    sim::Simulator sim;
    flash::FaultInjector injector(c.geometry);
    c.fault_injector = &injector;
    ssd::Controller controller(&sim, c);
    ftl::PageFtl ftl(&controller);
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
      sim::Completion done;
      ftl.Write(rng.Next() % 32, i + 1, done.AsCallback(&sim));
      sim.Run();
    }
    auto ppa = ftl.Locate(5);
    if (ppa.has_value()) injector.FailReadAlways(*ppa);
    std::vector<std::string> results;
    for (Lba lba = 0; lba < 32; ++lba) {
      StatusOr<std::uint64_t> out = Status::Internal("not run");
      ftl.Read(lba, [&](StatusOr<std::uint64_t> r) { out = std::move(r); });
      sim.Run();
      results.push_back(out.ok() ? std::to_string(*out)
                                 : out.status().ToString());
    }
    return std::make_tuple(sim.Now(), controller.flash()->counters().All(),
                           results, injector.counters().All());
  };
  EXPECT_EQ(run(), run());
}

// --- Retry ladder ----------------------------------------------------

TEST_F(FaultTest, RetryLadderRecoversAfterScriptedTransients) {
  ASSERT_TRUE(WriteSync(9, 4242).ok());
  const flash::Ppa ppa = LocateOrDie(9);
  injector_->FailRead(ppa, {1, 2});  // attempts 1+2 fail, 3 succeeds
  auto r = ReadSync(9);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 4242u);
  EXPECT_EQ(controller_->read_retries(), 2u);
  EXPECT_EQ(controller_->flash()->counters().Get("read_retries"), 2u);
  EXPECT_EQ(injector_->counters().Get("read_faults_fired"), 2u);
}

TEST_F(FaultTest, RetryRungsCostEscalatingLatency) {
  ASSERT_TRUE(WriteSync(3, 1).ok());
  ASSERT_TRUE(WriteSync(4, 2).ok());
  const SimTime clean_start = simulator_->Now();
  ASSERT_TRUE(ReadSync(3).ok());
  const SimTime clean = simulator_->Now() - clean_start;

  injector_->FailRead(LocateOrDie(4), {1, 2});
  const SimTime retried_start = simulator_->Now();
  ASSERT_TRUE(ReadSync(4).ok());
  const SimTime retried = simulator_->Now() - retried_start;
  EXPECT_GT(retried, clean) << "retry rungs must not be free";
}

TEST_F(FaultTest, ExhaustedLadderPoisonsMappingNoStaleData) {
  ASSERT_TRUE(WriteSync(7, 777).ok());
  injector_->FailReadAlways(LocateOrDie(7));
  auto first = ReadSync(7);
  EXPECT_TRUE(first.status().IsDataLoss());
  // Poisoned: later reads answer DataLoss without re-sensing dead
  // cells, deterministically.
  auto second = ReadSync(7);
  EXPECT_TRUE(second.status().IsDataLoss());
  EXPECT_GE(ftl_->counters().Get("pages_poisoned"), 1u);
  EXPECT_GE(ftl_->counters().Get("host_reads_poisoned"), 1u);
  // A fresh write clears the poison (new data, new cells).
  ASSERT_TRUE(WriteSync(7, 778).ok());
  auto third = ReadSync(7);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(*third, 778u);
}

// --- Stuck-busy LUNs -------------------------------------------------

TEST_F(FaultTest, StuckBusyLunDelaysTheNextOperation) {
  ASSERT_TRUE(WriteSync(2, 22).ok());
  const flash::Ppa ppa = LocateOrDie(2);
  const SimTime clean_start = simulator_->Now();
  ASSERT_TRUE(ReadSync(2).ok());
  const SimTime clean = simulator_->Now() - clean_start;

  const SimTime kStuck = 2 * kMillisecond;
  injector_->StuckBusy(ppa.GlobalLun(controller_->config().geometry),
                       kStuck, 1);
  const SimTime stuck_start = simulator_->Now();
  ASSERT_TRUE(ReadSync(2).ok());
  const SimTime stuck = simulator_->Now() - stuck_start;
  EXPECT_GE(stuck, clean + kStuck);
  EXPECT_EQ(injector_->counters().Get("busy_penalties"), 1u);

  // The script is consumed: the next read is clean again.
  const SimTime after_start = simulator_->Now();
  ASSERT_TRUE(ReadSync(2).ok());
  EXPECT_EQ(simulator_->Now() - after_start, clean);
}

// --- Refresh (remap-on-correctable-threshold) ------------------------

TEST_F(FaultTest, CorrectableThresholdTriggersRefreshRelocation) {
  ssd::Config c = FaultConfig();
  c.reliability.refresh_correctable_threshold = 3;
  Build(c);
  // One write per LBA: lba 12's page lands in an early block, and the
  // rest push every LUN past its first block so that block is sealed —
  // refresh skips blocks still accepting writes.
  for (Lba lba = 0; lba < 80; ++lba) {
    ASSERT_TRUE(WriteSync(lba, lba == 12 ? 1212 : 5000 + lba).ok());
  }
  const flash::Ppa ppa = LocateOrDie(12);
  injector_->FailRead(ppa, {1, 2, 3}, flash::ReadOutcome::kCorrectable);
  for (int i = 0; i < 3; ++i) {
    auto r = ReadSync(12);
    ASSERT_TRUE(r.ok());  // correctable = ECC fixed it
    EXPECT_EQ(*r, 1212u);
  }
  simulator_->Run();  // let the refresh collection drain
  EXPECT_EQ(controller_->flash()->counters().Get("refresh_triggers"), 1u);
  EXPECT_GE(ftl_->counters().Get("refresh_runs"), 1u);
  // The data moved off the decaying block and still reads back.
  const flash::Ppa moved = LocateOrDie(12);
  EXPECT_FALSE(moved.channel == ppa.channel && moved.lun == ppa.lun &&
               moved.plane == ppa.plane && moved.block == ppa.block)
      << "refresh must relocate the page to a different block";
  EXPECT_EQ(*ReadSync(12), 1212u);
}

// --- GC relocation vs. dead pages (the page_ftl.cc:661 regression) ---

TEST_F(FaultTest, GcRelocationFailurePoisonsInsteadOfAliasing) {
  // Kill one page's cells, then force the collector over its block via
  // the refresh path (greedy GC would keep picking fully-invalid
  // blocks and never touch a 1-live-page block). The failed relocation
  // must poison the LBA: a host read gets DataLoss — never another
  // LBA's token, never stale data — even after the victim block is
  // erased and reused.
  ssd::Config c = FaultConfig();
  c.reliability.refresh_correctable_threshold = 3;
  Build(c);
  std::map<Lba, std::uint64_t> shadow;
  for (Lba lba = 0; lba < 80; ++lba) {
    const std::uint64_t token = 1000000 + lba;
    ASSERT_TRUE(WriteSync(lba, token).ok());
    shadow[lba] = token;
  }
  const Lba victim_lba = 13;
  const flash::Ppa dead = LocateOrDie(victim_lba);
  // A healthy co-resident page in the same (sealed) block whose
  // correctable reads will drag the whole block into refresh.
  Lba buddy = victim_lba;
  for (Lba lba = 0; lba < 80 && buddy == victim_lba; ++lba) {
    auto p = ftl_->Locate(lba);
    if (lba != victim_lba && p.has_value() && p->Block() == dead.Block()) {
      buddy = lba;
    }
  }
  ASSERT_NE(buddy, victim_lba) << "no co-resident lba in victim block";
  injector_->FailReadAlways(dead);
  injector_->FailRead(LocateOrDie(buddy), {1, 2, 3},
                      flash::ReadOutcome::kCorrectable);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(ReadSync(buddy).ok());
  simulator_->Run();  // refresh collects the block; dead page read fails
  EXPECT_GE(ftl_->counters().Get("gc_read_failures"), 1u);
  EXPECT_GE(ftl_->counters().Get("pages_poisoned"), 1u);
  // The buddy was rescued; the victim's only copy died with the cells.
  ASSERT_TRUE(ReadSync(buddy).ok());
  EXPECT_EQ(*ReadSync(buddy), shadow[buddy]);
  EXPECT_TRUE(ReadSync(victim_lba).status().IsDataLoss());
  // The stored bits are gone but the cells themselves get reused:
  // churn until the freed block holds other LBAs' data, then verify the
  // poisoned mapping never aliases into it.
  injector_->ClearReadFaults(dead);
  Rng rng(23);
  for (int i = 0; i < 1200; ++i) {
    const Lba lba = rng.Next() % 80;
    if (lba == victim_lba) continue;
    const std::uint64_t token = 2000000 + i;
    ASSERT_TRUE(WriteSync(lba, token).ok());
    shadow[lba] = token;
  }
  simulator_->Run();
  for (const auto& [lba, token] : shadow) {
    if (lba == victim_lba) continue;
    auto r = ReadSync(lba);
    ASSERT_TRUE(r.ok()) << "lba " << lba << ": " << r.status().ToString();
    EXPECT_EQ(*r, token) << "stale or aliased data at lba " << lba;
  }
  // Still DataLoss — poison survives block reuse without re-sensing.
  EXPECT_TRUE(ReadSync(victim_lba).status().IsDataLoss());
  // A fresh host write is the only thing that clears it.
  ASSERT_TRUE(WriteSync(victim_lba, 42).ok());
  EXPECT_EQ(*ReadSync(victim_lba), 42u);
}

// --- Erase retirement: spares, unified accounting, read-only ---------

void ScriptEraseFaultsEverywhere(flash::FaultInjector* injector,
                                 const flash::Geometry& g) {
  for (std::uint32_t c = 0; c < g.channels; ++c) {
    for (std::uint32_t l = 0; l < g.luns_per_channel; ++l) {
      for (std::uint32_t p = 0; p < g.planes_per_lun; ++p) {
        for (std::uint32_t b = 0; b < g.blocks_per_plane; ++b) {
          injector->FailErase(flash::BlockAddr{c, l, p, b}, 1);
        }
      }
    }
  }
}

TEST_F(FaultTest, RetirementAccountingAgreesAcrossAllLayers) {
  ssd::Config c = FaultConfig();
  c.reliability.spare_blocks_per_lun = 100;  // never exhaust here
  Build(c);
  // First erase of each early block fails and retires it. Only a
  // quarter of the array is scripted: retiring every block would
  // eventually drain the free lists and stall writes forever.
  const auto& geom = controller_->config().geometry;
  for (std::uint32_t ch = 0; ch < geom.channels; ++ch) {
    for (std::uint32_t l = 0; l < geom.luns_per_channel; ++l) {
      for (std::uint32_t p = 0; p < geom.planes_per_lun; ++p) {
        for (std::uint32_t b = 0; b < geom.blocks_per_plane / 4; ++b) {
          injector_->FailErase(flash::BlockAddr{ch, l, p, b}, 1);
        }
      }
    }
  }
  Rng rng(31);
  for (int i = 0; i < 2500; ++i) {
    ASSERT_TRUE(WriteSync(rng.Next() % 64, i + 1).ok());
  }
  simulator_->Run();
  const std::uint64_t flash_failures =
      controller_->flash()->counters().Get("erase_failures");
  ASSERT_GE(flash_failures, 1u) << "churn never triggered a GC erase";
  // One retirement count: the flash counter (which the controller's
  // blocks_retired() reads), and the FTL counter, spare-pool drain and
  // injector that observe the same events.
  EXPECT_EQ(flash_failures, controller_->blocks_retired());
  EXPECT_EQ(flash_failures, ftl_->counters().Get("blocks_retired"));
  const auto& g = controller_->config().geometry;
  EXPECT_EQ(flash_failures,
            static_cast<std::uint64_t>(g.luns()) * 100 -
                controller_->spare_blocks_total());
  EXPECT_EQ(flash_failures, injector_->counters().Get("erase_faults_fired"));
}

TEST_F(FaultTest, SparesExhaustionFailsSafeToReadOnly) {
  ssd::Config c = FaultConfig();
  c.reliability.spare_blocks_per_lun = 1;
  Build(c);
  ScriptEraseFaultsEverywhere(injector_.get(),
                              controller_->config().geometry);
  Rng rng(37);
  std::map<Lba, std::uint64_t> shadow;
  int i = 0;
  while (!controller_->read_only() && i < 20000) {
    const Lba lba = rng.Next() % 64;
    const std::uint64_t token = ++i;
    const Status st = WriteSync(lba, token);
    if (st.ok()) shadow[lba] = token;
  }
  simulator_->Run();
  ASSERT_TRUE(controller_->read_only())
      << "spares never exhausted under scripted erase faults";
  // Writes now fail with a definite status, not silent loss or UB.
  EXPECT_TRUE(WriteSync(1, 999999).IsResourceExhausted());
  EXPECT_GE(ftl_->counters().Get("writes_rejected_read_only"), 1u);
  // Every acked write is still readable (or honestly DataLoss).
  for (const auto& [lba, token] : shadow) {
    auto r = ReadSync(lba);
    if (r.ok()) {
      EXPECT_EQ(*r, token);
    } else {
      EXPECT_TRUE(r.status().IsDataLoss());
    }
  }
}

// --- Legacy FTLs: free-list exhaustion is a status, not UB -----------

TEST(BlockFtlFaultTest, MergeEraseRetirementSurfacesResourceExhausted) {
  ssd::Config c = FaultConfig();
  c.reliability.spare_blocks_per_lun = 1;
  sim::Simulator sim;
  flash::FaultInjector injector(c.geometry);
  c.fault_injector = &injector;
  ssd::Controller controller(&sim, c);
  ftl::BlockFtl ftl(&controller);
  ScriptEraseFaultsEverywhere(&injector, c.geometry);

  auto write = [&](Lba lba, std::uint64_t token) {
    sim::Completion done;
    ftl.Write(lba, token, done.AsCallback(&sim));
    sim.Run();
    EXPECT_TRUE(done.done());
    return done.status();
  };
  // First write maps the vblock; the overwrite forces a merge whose
  // erase fails — retiring the block and burning lun 0's only spare.
  ASSERT_TRUE(write(0, 1).ok());
  ASSERT_TRUE(write(0, 2).ok());
  EXPECT_TRUE(controller.read_only());
  EXPECT_EQ(controller.blocks_retired(),
            ftl.counters().Get("blocks_retired"));
  // Read-only now rejects writes up front with a real status.
  EXPECT_TRUE(write(5, 3).IsResourceExhausted());
  // The merged data survived the failed erase of its old block.
  StatusOr<std::uint64_t> out = Status::Internal("not run");
  ftl.Read(0, [&](StatusOr<std::uint64_t> r) { out = std::move(r); });
  sim.Run();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, 2u);
}

// --- Write buffer: drain failures must not become a silent Ok --------

class FlakyFtl : public ftl::Ftl {
 public:
  explicit FlakyFtl(sim::Simulator* sim) : sim_(sim) {}
  int fail_writes = 0;  // >0: fail that many; <0: fail forever

  void Write(Lba, std::uint64_t, WriteCallback cb,
             trace::Ctx = {}) override {
    Status st = Status::Ok();
    if (fail_writes != 0) {
      if (fail_writes > 0) --fail_writes;
      st = Status::DataLoss("injected drain failure");
    }
    sim_->Schedule(1000, [cb = std::move(cb), st]() { cb(st); });
  }
  void Read(Lba, ReadCallback cb, trace::Ctx = {}) override {
    sim_->Schedule(1000, [cb = std::move(cb)]() { cb(std::uint64_t{0}); });
  }
  void Trim(Lba, WriteCallback cb, trace::Ctx = {}) override {
    sim_->Schedule(0, [cb = std::move(cb)]() { cb(Status::Ok()); });
  }
  std::uint64_t user_pages() const override { return 1024; }
  const Counters& counters() const override { return counters_; }
  double WriteAmplification() const override { return 0.0; }

 private:
  sim::Simulator* sim_;
  Counters counters_;
};

TEST(WriteBufferFaultTest, DrainRetriesOnceThenSucceeds) {
  sim::Simulator sim;
  FlakyFtl ftl(&sim);
  ftl.fail_writes = 1;
  ssd::WriteBufferConfig cfg;
  cfg.pages = 8;
  ssd::WriteBuffer buffer(&sim, &ftl, cfg, 1);
  sim::Completion put, flush;
  buffer.SubmitWrite(5, 55, put.AsCallback(&sim));
  sim.Run();
  ASSERT_TRUE(put.done() && put.status().ok());
  buffer.Flush(flush.AsCallback(&sim));
  sim.Run();
  ASSERT_TRUE(flush.done());
  EXPECT_TRUE(flush.status().ok()) << "retried drain made the page durable";
  EXPECT_EQ(buffer.counters().Get("drain_retries"), 1u);
  EXPECT_EQ(buffer.counters().Get("drain_drops"), 0u);
}

TEST(WriteBufferFaultTest, ExhaustedDrainSurfacesRealStatusToFlush) {
  sim::Simulator sim;
  FlakyFtl ftl(&sim);
  ftl.fail_writes = -1;  // media never accepts the page
  ssd::WriteBufferConfig cfg;
  cfg.pages = 8;
  ssd::WriteBuffer buffer(&sim, &ftl, cfg, 1);
  sim::Completion put, flush;
  buffer.SubmitWrite(5, 55, put.AsCallback(&sim));
  sim.Run();
  ASSERT_TRUE(put.done() && put.status().ok());  // buffered = accepted
  buffer.Flush(flush.AsCallback(&sim));
  sim.Run();
  ASSERT_TRUE(flush.done());
  EXPECT_TRUE(flush.status().IsDataLoss())
      << "flush must report the dropped page, got: "
      << flush.status().ToString();
  EXPECT_EQ(buffer.counters().Get("drain_retries"), 1u);
  EXPECT_EQ(buffer.counters().Get("drain_drops"), 1u);
  // The error was delivered once; the (now empty) buffer is healthy.
  sim::Completion again;
  buffer.Flush(again.AsCallback(&sim));
  sim.Run();
  ASSERT_TRUE(again.done());
  EXPECT_TRUE(again.status().ok());
}

// --- DFTL: uncorrectable translation page during a CMT miss ----------

TEST(DftlFaultTest, CmtMissFetchFailureIsCountedAndSurvivable) {
  ssd::Config c = FaultConfig();
  c.dftl_cmt_pages = 2;
  sim::Simulator sim;
  flash::FaultInjector injector(c.geometry);
  c.fault_injector = &injector;
  ssd::Controller controller(&sim, c);
  ftl::Dftl dftl(&controller);
  const std::uint32_t per_tp = 512;  // dftl_entries_per_tp default

  auto write = [&](Lba lba, std::uint64_t token) {
    sim::Completion done;
    dftl.Write(lba, token, done.AsCallback(&sim));
    sim.Run();
    ASSERT_TRUE(done.done() && done.status().ok());
  };
  auto read = [&](Lba lba) {
    StatusOr<std::uint64_t> out = Status::Internal("not run");
    dftl.Read(lba, [&](StatusOr<std::uint64_t> r) { out = std::move(r); });
    sim.Run();
    return out;
  };

  // Dirty tp0, then touch two other translation pages so tp0 is
  // evicted (CMT capacity 2) and written back to flash.
  write(0, 100);
  write(per_tp, 200);
  write(2 * per_tp, 300);
  sim.Run();
  auto map_ppa = dftl.base()->Locate(dftl.translation_lba(0));
  ASSERT_TRUE(map_ppa.has_value()) << "tp0 was never written back";
  // The flash copy of tp0 is now unreadable. The re-fetch on the next
  // miss burns the whole retry ladder, fails — and the device keeps
  // serving (the resident directory is authoritative), but the failure
  // must be visible in the counters.
  injector.FailReadAlways(*map_ppa);
  auto r = read(0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 100u);
  EXPECT_EQ(dftl.counters().Get("map_read_failures"), 1u);
  EXPECT_GE(controller.read_retries(), 1u) << "ladder should have run";
}

// --- Fig2-style torture: scripted faults under a GC-heavy workload ---

TEST(FaultTortureTest, GcChurnWithScriptedFaultsNeverAliasesOrLosesAcks) {
  auto run = [] {
    ssd::Config c = FaultConfig();
    sim::Simulator sim;
    flash::FaultInjector injector(c.geometry);
    c.fault_injector = &injector;
    ssd::Controller controller(&sim, c);
    ftl::PageFtl ftl(&controller);

    auto write = [&](Lba lba, std::uint64_t token) {
      sim::Completion done;
      ftl.Write(lba, token, done.AsCallback(&sim));
      sim.Run();
      return done.status();
    };
    auto read = [&](Lba lba) {
      StatusOr<std::uint64_t> out = Status::Internal("not run");
      ftl.Read(lba, [&](StatusOr<std::uint64_t> r) { out = std::move(r); });
      sim.Run();
      return out;
    };

    Rng rng(101);
    std::map<Lba, std::uint64_t> shadow;
    const Lba kSpace = 96;
    // Phase 1: populate, including three cold LBAs we then kill.
    for (int i = 0; i < 400; ++i) {
      const Lba lba = rng.Next() % kSpace;
      if (write(lba, 10000 + i).ok()) shadow[lba] = 10000 + i;
    }
    const Lba cold[3] = {90, 91, 92};
    for (const Lba lba : cold) {
      if (write(lba, 777000 + lba).ok()) shadow[lba] = 777000 + lba;
      auto ppa = ftl.Locate(lba);
      if (ppa.has_value()) injector.FailReadAlways(*ppa);
    }
    // A couple of scripted erase faults and a stuck LUN, mid-churn.
    injector.FailErase(flash::BlockAddr{0, 0, 0, 3}, 1);
    injector.FailErase(flash::BlockAddr{1, 1, 0, 7}, 1);
    injector.StuckBusy(0, 5 * kMillisecond, 3);
    // Phase 2: hot churn over everything except the cold LBAs — GC must
    // relocate (and fail to relocate) the dead pages.
    for (int i = 0; i < 3000; ++i) {
      const Lba lba = rng.Next() % 88;
      const std::uint64_t token = 20000 + i;
      const Status st = write(lba, token);
      if (st.ok()) {
        shadow[lba] = token;
      } else {
        EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
      }
    }
    sim.Run();

    // Verdict: every acked write reads back as itself or as an honest
    // DataLoss — never stale, never another LBA's token.
    std::vector<std::string> verdict;
    std::uint64_t data_losses = 0;
    for (const auto& [lba, token] : shadow) {
      auto r = read(lba);
      if (r.ok()) {
        EXPECT_EQ(*r, token)
            << "lost update or aliased read at lba " << lba;
        verdict.push_back(std::to_string(*r));
      } else {
        EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
        ++data_losses;
        verdict.push_back("DataLoss");
      }
    }
    // The cold pages' cells are gone; their relocations must have
    // poisoned the mappings rather than resurrecting garbage.
    EXPECT_GE(data_losses, 3u);
    EXPECT_GE(ftl.counters().Get("pages_poisoned"), 3u);
    EXPECT_GE(injector.counters().Get("read_faults_fired"), 3u);
    EXPECT_EQ(injector.counters().Get("busy_penalties"), 3u);
    return std::make_tuple(sim.Now(), verdict,
                           controller.flash()->counters().All(),
                           injector.counters().All());
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second) << "torture run must be deterministic";
}

}  // namespace
}  // namespace postblock
