// Tests for the optional/extension features: multi-plane parallelism,
// energy accounting, priority IO scheduling, plus targeted regression
// tests for subtle bugs found during development.

#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "blocklayer/block_layer.h"
#include "blocklayer/io_scheduler.h"
#include "blocklayer/simple_device.h"
#include "common/rng.h"
#include "core/hybrid_store.h"
#include "ftl/page_ftl.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "ssd/controller.h"
#include "ssd/device.h"

namespace postblock {
namespace {

// --- Multi-plane parallelism (paper §2.2) ---------------------------------

ssd::Config PlaneConfig(bool parallel) {
  ssd::Config c;
  c.geometry.channels = 1;
  c.geometry.luns_per_channel = 1;
  c.geometry.planes_per_lun = 4;
  c.geometry.blocks_per_plane = 4;
  c.geometry.pages_per_block = 8;
  c.plane_parallelism = parallel;
  return c;
}

SimTime ProgramFourPlanes(bool parallel) {
  sim::Simulator sim;
  ssd::Controller controller(&sim, PlaneConfig(parallel));
  for (std::uint32_t plane = 0; plane < 4; ++plane) {
    controller.ProgramPage(flash::Ppa{0, 0, plane, 0, 0},
                           flash::PageData{}, [](Status st) {
                             ASSERT_TRUE(st.ok());
                           });
  }
  sim.Run();
  return sim.Now();
}

TEST(MultiPlaneTest, ParallelPlanesOverlapPrograms) {
  const flash::Timing t;
  const SimTime xfer = t.TransferNs(4096);
  // Serial: 4 * (transfer + program). Parallel: transfers serialize on
  // the channel, programs overlap — like four LUNs.
  EXPECT_EQ(ProgramFourPlanes(false), 4 * (xfer + t.program_ns));
  EXPECT_EQ(ProgramFourPlanes(true), 4 * xfer + t.program_ns);
}

TEST(MultiPlaneTest, SamePlaneStillSerializes) {
  sim::Simulator sim;
  ssd::Controller controller(&sim, PlaneConfig(true));
  for (std::uint32_t page = 0; page < 2; ++page) {
    controller.ProgramPage(flash::Ppa{0, 0, 0, 0, page},
                           flash::PageData{}, [](Status st) {
                             ASSERT_TRUE(st.ok());
                           });
  }
  sim.Run();
  const flash::Timing t;
  EXPECT_EQ(sim.Now(), 2 * (t.TransferNs(4096) + t.program_ns));
}

TEST(MultiPlaneTest, DeviceWorksWithPlaneParallelism) {
  sim::Simulator sim;
  ssd::Config cfg = ssd::Config::Small();
  cfg.geometry.planes_per_lun = 2;
  cfg.plane_parallelism = true;
  ssd::Device device(&sim, cfg);
  std::map<Lba, std::uint64_t> shadow;
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    const Lba lba = rng.Uniform(device.num_blocks());
    blocklayer::IoRequest w;
    w.op = blocklayer::IoOp::kWrite;
    w.lba = lba;
    w.nblocks = 1;
    w.tokens = {static_cast<std::uint64_t>(i) + 1};
    bool fired = false;
    w.on_complete = [&](const blocklayer::IoResult& r) {
      ASSERT_TRUE(r.status.ok());
      fired = true;
    };
    device.Submit(std::move(w));
    ASSERT_TRUE(sim.RunUntilPredicate([&] { return fired; }));
    shadow[lba] = static_cast<std::uint64_t>(i) + 1;
  }
  for (const auto& [lba, token] : shadow) {
    blocklayer::IoRequest r;
    r.op = blocklayer::IoOp::kRead;
    r.lba = lba;
    r.nblocks = 1;
    bool fired = false;
    r.on_complete = [&, token = token](const blocklayer::IoResult& res) {
      ASSERT_TRUE(res.status.ok());
      ASSERT_EQ(res.tokens[0], token);
      fired = true;
    };
    device.Submit(std::move(r));
    ASSERT_TRUE(sim.RunUntilPredicate([&] { return fired; }));
  }
}

// --- Energy accounting (ref [2], uFLIP energy) ------------------------------

TEST(EnergyTest, OpsAccumulateExpectedEnergy) {
  sim::Simulator sim;
  ssd::Config cfg = ssd::Config::SingleChip();
  ssd::Controller controller(&sim, cfg);
  const flash::Timing& t = cfg.timing;
  const std::uint64_t xfer_nj =
      t.transfer_nj_per_kib * cfg.geometry.page_size_bytes / 1024;

  controller.ProgramPage(flash::Ppa{0, 0, 0, 0, 0}, flash::PageData{},
                         [](Status) {});
  sim.Run();
  EXPECT_EQ(controller.EnergyNj(), t.program_energy_nj + xfer_nj);

  controller.ReadPage(flash::Ppa{0, 0, 0, 0, 0},
                      [](StatusOr<flash::PageData>) {});
  sim.Run();
  EXPECT_EQ(controller.EnergyNj(),
            t.program_energy_nj + t.read_energy_nj + 2 * xfer_nj);

  controller.EraseBlock(flash::BlockAddr{0, 0, 0, 1}, [](Status) {});
  sim.Run();
  EXPECT_EQ(controller.EnergyNj(), t.program_energy_nj +
                                       t.read_energy_nj + 2 * xfer_nj +
                                       t.erase_energy_nj);
}

TEST(EnergyTest, GcInflatesEnergyPerHostWrite) {
  // The uFLIP-energy observation: churning a full device burns more
  // joules per host write than appending to a fresh one, because GC
  // reads/programs/erases ride along.
  auto energy_per_write = [](bool churn) {
    sim::Simulator sim;
    ssd::Config cfg = ssd::Config::Small();
    ssd::Device device(&sim, cfg);
    const std::uint64_t n = device.num_blocks();
    Rng rng(5);
    auto write = [&](Lba lba, std::uint64_t tok) {
      blocklayer::IoRequest w;
      w.op = blocklayer::IoOp::kWrite;
      w.lba = lba;
      w.nblocks = 1;
      w.tokens = {tok};
      bool fired = false;
      w.on_complete = [&](const blocklayer::IoResult&) { fired = true; };
      device.Submit(std::move(w));
      EXPECT_TRUE(sim.RunUntilPredicate([&] { return fired; }));
    };
    if (churn) {
      for (Lba lba = 0; lba < n; ++lba) write(lba, 1);
      for (std::uint64_t i = 0; i < 2 * n; ++i) write(rng.Uniform(n), i);
    }
    const std::uint64_t e0 = device.controller()->EnergyNj();
    const std::uint64_t h0 =
        device.ftl()->counters().Get("host_pages_accepted");
    // Measurement window: fresh appends vs random overwrites.
    for (std::uint64_t i = 0; i < n / 4; ++i) {
      write(churn ? rng.Uniform(n) : i, i + 2);
    }
    const std::uint64_t de = device.controller()->EnergyNj() - e0;
    const std::uint64_t dh =
        device.ftl()->counters().Get("host_pages_accepted") - h0;
    return static_cast<double>(de) / static_cast<double>(dh);
  };
  const double fresh = energy_per_write(false);
  const double aged = energy_per_write(true);
  // Fresh appends cost ~ program + transfer energy exactly.
  EXPECT_NEAR(fresh, 52000.0, 2000.0);
  EXPECT_GT(aged, 1.5 * fresh);
}

// --- Priority scheduling (ref [13]) -----------------------------------------

TEST(PrioritySchedulerTest, HigherPriorityDispatchesFirst) {
  blocklayer::IoScheduler s(blocklayer::SchedulerKind::kPriority);
  blocklayer::IoRequest low1, high, low2;
  low1.lba = 1;
  low2.lba = 2;
  high.lba = 99;
  high.priority = 1;
  s.Enqueue(std::move(low1));
  s.Enqueue(std::move(high));
  s.Enqueue(std::move(low2));
  EXPECT_EQ(s.Dequeue().lba, 99u);
  EXPECT_EQ(s.Dequeue().lba, 1u);  // FIFO within the low class
  EXPECT_EQ(s.Dequeue().lba, 2u);
  EXPECT_EQ(s.counters().Get("priority_dispatches"), 1u);
}

TEST(PrioritySchedulerTest, LogWriteOvertakesQueuedDataWrites) {
  sim::Simulator sim;
  blocklayer::SimpleDeviceConfig dev_cfg;
  dev_cfg.num_blocks = 4096;
  dev_cfg.units = 1;  // force queueing
  dev_cfg.write_ns = 100 * kMicrosecond;
  blocklayer::SimpleBlockDevice dev(&sim, dev_cfg);
  blocklayer::BlockLayerConfig cfg;
  cfg.scheduler = blocklayer::SchedulerKind::kPriority;
  cfg.queue_depth = 1;
  blocklayer::BlockLayer layer(&sim, &dev, cfg);

  std::vector<int> completion_order;
  for (int i = 0; i < 8; ++i) {
    blocklayer::IoRequest w;
    w.op = blocklayer::IoOp::kWrite;
    w.lba = static_cast<Lba>(i * 2);
    w.nblocks = 1;
    w.tokens = {1};
    w.on_complete = [&, i](const blocklayer::IoResult&) {
      completion_order.push_back(i);
    };
    layer.Submit(std::move(w));
  }
  blocklayer::IoRequest log;
  log.op = blocklayer::IoOp::kWrite;
  log.lba = 1000;
  log.nblocks = 1;
  log.tokens = {7};
  log.priority = 1;
  log.on_complete = [&](const blocklayer::IoResult&) {
    completion_order.push_back(100);
  };
  layer.Submit(std::move(log));
  sim.Run();
  ASSERT_EQ(completion_order.size(), 9u);
  // The log write was submitted last but must not complete last; with
  // QD1 it overtakes everything still queued at its arrival.
  std::size_t log_pos = 0;
  for (std::size_t i = 0; i < completion_order.size(); ++i) {
    if (completion_order[i] == 100) log_pos = i;
  }
  EXPECT_LT(log_pos, 4u);
}

// A block device that records the classification of every request it
// forwards to a SimpleBlockDevice underneath.
class RecordingDevice : public blocklayer::BlockDevice {
 public:
  struct Seen {
    blocklayer::IoOp op;
    Lba lba;
    std::uint32_t nblocks;
    std::uint8_t priority;
    std::uint8_t stream;
  };

  explicit RecordingDevice(sim::Simulator* sim)
      : lower_(sim, blocklayer::SimpleDeviceConfig{}) {}

  std::uint64_t num_blocks() const override { return lower_.num_blocks(); }
  std::uint32_t block_bytes() const override {
    return lower_.block_bytes();
  }
  void Submit(blocklayer::IoRequest request) override {
    seen.push_back({request.op, request.lba, request.nblocks,
                    request.priority, request.stream});
    lower_.Submit(std::move(request));
  }

  std::vector<Seen> seen;

 private:
  blocklayer::SimpleBlockDevice lower_;
};

TEST(PrioritySchedulerTest, ClassicWalWritesCarryPriority) {
  sim::Simulator sim;
  RecordingDevice device(&sim);
  constexpr Lba kLogStart = 100;
  core::HybridStore store(&sim, &device, kLogStart,
                          /*log_region_blocks=*/16);
  bool fired = false;
  store.SyncPersist({1, 2, 3}, [&](Status st) {
    ASSERT_TRUE(st.ok());
    fired = true;
  });
  ASSERT_TRUE(sim.RunUntilPredicate([&] { return fired; }));
  EXPECT_EQ(store.counters().Get("sync_persists"), 1u);
  // One commit-critical log-block write at the region's first LBA, on
  // no stream of its own, then one flush barrier.
  ASSERT_EQ(device.seen.size(), 2u);
  EXPECT_EQ(device.seen[0].op, blocklayer::IoOp::kWrite);
  EXPECT_EQ(device.seen[0].lba, kLogStart);
  EXPECT_EQ(device.seen[0].nblocks, 1u);
  EXPECT_EQ(device.seen[0].priority, 1);
  EXPECT_EQ(device.seen[0].stream, 0);
  EXPECT_EQ(device.seen[1].op, blocklayer::IoOp::kFlush);

  // Recovery re-reads the log block at the same priority.
  device.seen.clear();
  std::size_t records = 0;
  bool recovered = false;
  store.RecoverRecords([&](std::vector<std::vector<std::uint8_t>> r) {
    records = r.size();
    recovered = true;
  });
  sim.Run();
  ASSERT_TRUE(recovered);
  EXPECT_EQ(records, 1u);
  ASSERT_EQ(device.seen.size(), 1u);
  EXPECT_EQ(device.seen[0].op, blocklayer::IoOp::kRead);
  EXPECT_EQ(device.seen[0].lba, kLogStart);
  EXPECT_EQ(device.seen[0].priority, 1);
}

// --- Regression: strict FCFS resource handoff --------------------------------

TEST(ResourceRegressionTest, NewAcquirerCannotJumpScheduledGrant) {
  // Bug history: Release() used to free the slot and schedule the
  // waiter's grant at +0; an Acquire arriving in that window saw a free
  // slot and jumped the queue, reordering same-LUN flash programs and
  // violating constraint C3.
  sim::Simulator sim;
  sim::Resource r(&sim, "r");
  std::vector<char> order;
  r.Acquire([] {});               // A holds
  r.Acquire([&] {                 // B waits
    order.push_back('B');
    r.Release();
  });
  sim.Schedule(10, [&] { r.Release(); });    // A releases at t=10
  sim.Schedule(10, [&] {                     // C acquires at t=10, later
    r.Acquire([&] { order.push_back('C'); });
  });
  sim.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'B');
  EXPECT_EQ(order[1], 'C');
}

// --- Regression: wear-out retires blocks without losing data -----------------

TEST(WearOutTest, ErasFailuresRetireBlocksDeviceKeepsServing) {
  sim::Simulator sim;
  ssd::Config cfg = ssd::Config::Small();
  cfg.errors.endurance_cycles = 2;  // tiny budget: blocks age quickly
  cfg.errors.post_endurance_erase_failure = 0.05;
  cfg.errors.base_correctable_rate = 0;  // isolate erase wear-out
  cfg.errors.base_uncorrectable_rate = 0;
  cfg.errors.wear_amplification = 0;
  cfg.over_provisioning = 0.4;  // headroom so retired blocks don't
                                // starve user capacity
  ssd::Device device(&sim, cfg);
  const Lba n = device.num_blocks();  // full-span churn cycles blocks
  std::map<Lba, std::uint64_t> shadow;
  Rng rng(6);
  auto write = [&](Lba lba, std::uint64_t tok) {
    blocklayer::IoRequest w;
    w.op = blocklayer::IoOp::kWrite;
    w.lba = lba;
    w.nblocks = 1;
    w.tokens = {tok};
    bool fired = false;
    w.on_complete = [&](const blocklayer::IoResult& r) {
      ASSERT_TRUE(r.status.ok());
      fired = true;
    };
    device.Submit(std::move(w));
    ASSERT_TRUE(sim.RunUntilPredicate([&] { return fired; }));
  };
  for (std::uint64_t i = 0; i < 4 * n; ++i) {
    const Lba lba = rng.Uniform(n);
    write(lba, i + 1);
    shadow[lba] = i + 1;
  }
  EXPECT_GT(device.controller()->flash()->bad_blocks(), 0u);
  for (const auto& [lba, token] : shadow) {
    blocklayer::IoRequest r;
    r.op = blocklayer::IoOp::kRead;
    r.lba = lba;
    r.nblocks = 1;
    bool fired = false;
    r.on_complete = [&, token = token](const blocklayer::IoResult& res) {
      ASSERT_TRUE(res.status.ok());
      ASSERT_EQ(res.tokens[0], token);
      fired = true;
    };
    device.Submit(std::move(r));
    ASSERT_TRUE(sim.RunUntilPredicate([&] { return fired; }));
  }
}


// --- Copyback (ONFI internal data move) --------------------------------------

TEST(CopybackTest, MovesDataWithoutChannelTransfer) {
  sim::Simulator sim;
  ssd::Config cfg = ssd::Config::SingleChip();
  ssd::Controller controller(&sim, cfg);
  controller.ProgramPage(flash::Ppa{0, 0, 0, 0, 0},
                         flash::PageData{9, 1, 777, 0},
                         [](Status st) { ASSERT_TRUE(st.ok()); });
  sim.Run();
  const SimTime start = sim.Now();
  bool done = false;
  controller.CopybackPage(flash::Ppa{0, 0, 0, 0, 0},
                          flash::Ppa{0, 0, 0, 1, 0}, [&](Status st) {
                            ASSERT_TRUE(st.ok());
                            done = true;
                          });
  sim.Run();
  ASSERT_TRUE(done);
  const flash::Timing& t = cfg.timing;
  // cmd on the bus + array read + array program; no page transfer.
  EXPECT_EQ(sim.Now() - start, t.cmd_ns + t.read_ns + t.program_ns);
  auto peek = controller.flash()->Peek(flash::Ppa{0, 0, 0, 1, 0});
  ASSERT_TRUE(peek.ok());
  EXPECT_EQ(peek->token, 777u);
  EXPECT_EQ(controller.counters().Get("copybacks"), 1u);
}

TEST(CopybackTest, CheaperThanReadThenProgram) {
  const flash::Timing t;
  const SimTime copyback = t.cmd_ns + t.read_ns + t.program_ns;
  const SimTime external = (t.cmd_ns + t.read_ns + t.TransferNs(4096)) +
                           (t.TransferNs(4096) + t.program_ns);
  EXPECT_LT(copyback, external);
}

TEST(CopybackTest, CrossPlaneRejected) {
  sim::Simulator sim;
  ssd::Config cfg;
  cfg.geometry.channels = 1;
  cfg.geometry.luns_per_channel = 2;
  cfg.geometry.planes_per_lun = 2;
  ssd::Controller controller(&sim, cfg);
  Status seen;
  controller.CopybackPage(flash::Ppa{0, 0, 0, 0, 0},
                          flash::Ppa{0, 0, 1, 0, 0},
                          [&](Status st) { seen = st; });
  sim.Run();
  EXPECT_TRUE(seen.IsInvalidArgument());
  controller.CopybackPage(flash::Ppa{0, 0, 0, 0, 0},
                          flash::Ppa{0, 1, 0, 0, 0},
                          [&](Status st) { seen = st; });
  sim.Run();
  EXPECT_TRUE(seen.IsInvalidArgument());
}

TEST(CopybackTest, ConstraintsStillEnforced) {
  sim::Simulator sim;
  ssd::Config cfg = ssd::Config::SingleChip();
  ssd::Controller controller(&sim, cfg);
  // Destination write point violation (C3) surfaces through copyback.
  controller.ProgramPage(flash::Ppa{0, 0, 0, 0, 0}, flash::PageData{},
                         [](Status) {});
  controller.ProgramPage(flash::Ppa{0, 0, 0, 1, 5}, flash::PageData{},
                         [](Status) {});
  sim.Run();
  Status seen;
  controller.CopybackPage(flash::Ppa{0, 0, 0, 0, 0},
                          flash::Ppa{0, 0, 0, 1, 2},
                          [&](Status st) { seen = st; });
  sim.Run();
  EXPECT_TRUE(seen.IsFailedPrecondition());
}

}  // namespace
}  // namespace postblock
